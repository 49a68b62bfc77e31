#include "workloads.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "campaign/engine.h"
#include "campaign/spec.h"
#include "common/json.h"
#include "result_digest.h"
#include "runner/trial_runner.h"
#include "soc/platform.h"
#include "target/fault_model.h"
#include "target/platform.h"
#include "target/registry.h"
#include "target/wide_engine.h"

namespace perfbench {

namespace {

using grinch::Key128;
using grinch::runner::ShardPlan;
namespace target = grinch::target;

constexpr std::array<std::string_view, 4> kNames = {
    "gift64-campaign-clean", "gift128-moderate",
    "present80-saturating-finish", "gift64-mpsoc-clean"};

/// Keys per pass.  Per-key cost varies a lot on the noisy workloads
/// (coefficient of variation ~0.56 for gift128-moderate's encryptions,
/// ~0.57 for present80's finisher trials), so each pass holds enough keys
/// that its mean repeats across seeds.  On a 4-vCPU x86 host one pass of
/// either takes 20-35 s, so their runs hold a single pass.
constexpr std::size_t kCampaignChunks = 8;
constexpr std::size_t kCampaignChunkKeys = 1024;
constexpr std::size_t kGift128Keys = 64;
constexpr std::size_t kPresentKeys = 192;
constexpr std::size_t kMpsocKeys = 1024;

/// Contention exponents (host_speed.h): the slope of log pass CPU time
/// against log mean probe time, fitted over 43-62 repeated passes of each
/// workload on a 4-vCPU x86 host (correlation 0.95-0.99).  The simulator
/// slows more than the small, cache-resident probe under contention.
constexpr double kCampaignExponent = 1.8;
constexpr double kGift128Exponent = 1.45;
constexpr double kPresentExponent = 1.7;
constexpr double kMpsocExponent = 2.2;

/// ShardPlan over `keys` trials whose key and fault-seed streams both
/// derive from the benchmark seed.
ShardPlan make_plan(std::uint64_t seed, std::size_t keys, unsigned width) {
  const std::vector<std::uint64_t> sub = grinch::runner::derive_seeds(seed, 2);
  return ShardPlan{sub[0], sub[1], keys, width};
}

template <typename R, typename Result>
TrialRecord make_record(const Result& r, const Key128& truth) {
  TrialRecord t;
  t.success = r.success;
  t.key_matches = r.recovered_key == truth;
  t.encryptions = r.total_encryptions;
  t.offline_trials = r.offline_trials;
  t.noise_restarts = r.noise_restarts;
  t.dropped = r.dropped_observations;
  t.verify_restarts = r.verify_restarts;
  t.finisher_ran =
      r.finisher.outcome != grinch::finisher::FinisherOutcome::kNotRun;
  t.finisher_recovered =
      r.finisher.outcome == grinch::finisher::FinisherOutcome::kRecovered;
  t.finisher_candidates = r.finisher.candidates_tested;
  t.finisher_offline_trials = r.finisher.offline_trials;
  t.finisher_wall_s = r.finisher.wall_seconds;
  t.digest = result_digest(r);
  return t;
}

// --- gift64-campaign-clean ---------------------------------------------

/// campaign::run_campaign for GIFT-64 on a clean channel, wide width 64,
/// one pool thread, JSONL + checkpoint into the scratch directory.  A pass
/// runs kCampaignChunks campaigns of kCampaignChunkKeys keys each, each
/// with its own seeds, so the host is probed between them (host_speed.h):
/// the campaign's worker is a thread of its own, and a single 8192-key
/// campaign left 2 s between probes.
class CampaignWorkload final : public Workload {
 public:
  using R = target::Gift64Recovery;

  CampaignWorkload(std::uint64_t seed, const std::string& scratch_dir) {
    const std::vector<std::uint64_t> sub =
        grinch::runner::derive_seeds(seed, 2 * kCampaignChunks);
    grinch::campaign::CampaignSpec spec;
    spec.name = "perfbench";
    spec.cipher = "gift64";
    spec.trials = kCampaignChunkKeys;
    spec.wide_width = 64;
    spec.fault_profile = "clean";
    options_.results_path = scratch_dir + "/campaign.jsonl";
    options_.checkpoint_path = scratch_dir + "/campaign.ckpt";
    options_.threads = 1;
    // The engine configuration the campaign derives from its spec.
    ecfg_.max_encryptions = spec.budget;
    ecfg_.vote_threshold = spec.effective_vote_threshold();
    ecfg_.faults = spec.faults();
    pcfg_.cache.line_bytes = spec.line_words;
    pcfg_.probing_round = spec.probing_round;
    truth_.reserve(kCampaignChunks * kCampaignChunkKeys);
    specs_.reserve(kCampaignChunks * kCampaignChunkKeys);
    for (std::size_t c = 0; c < kCampaignChunks; ++c) {
      spec.seed = sub[2 * c];
      spec.fault_seed = sub[2 * c + 1];
      chunks_.push_back(spec);
      // The campaign expands its spec through this same ShardPlan; the
      // bench derives the ground-truth keys from it.
      const ShardPlan plan{spec.seed, spec.fault_seed, spec.trials,
                           spec.wide_width};
      for (std::size_t t = 0; t < plan.trials(); ++t) {
        truth_.push_back(R::canonical_key(plan.seeds()[t].key));
        specs_.push_back({truth_.back(), plan.seeds()[t].seed,
                          plan.fault_seeds()[t]});
      }
    }
  }

  [[nodiscard]] std::size_t keys() const override { return truth_.size(); }
  [[nodiscard]] bool has_direct() const override { return true; }
  [[nodiscard]] double contention_exponent() const override {
    return kCampaignExponent;
  }
  [[nodiscard]] bool paper_claim_applies() const override { return true; }

  PassResult run(PassKind kind, std::size_t count) override {
    switch (kind) {
      case PassKind::kPlain:
        return run_campaign_pass(count);
      case PassKind::kDirect:
        return run_direct<R>(count);
      case PassKind::kTraced:
        break;
    }
    return run_direct<Traced<R>>(count);
  }

 private:
  /// Runs the campaigns that cover the first `count` keys; the last one
  /// is cut short (trial inputs are position-derived: a prefix).
  PassResult run_campaign_pass(std::size_t count) {
    PassResult pass;
    SegmentTimer timer{contention_exponent()};
    for (std::size_t c = 0; c * kCampaignChunkKeys < count; ++c) {
      grinch::campaign::CampaignSpec spec = chunks_[c];
      spec.trials = std::min(kCampaignChunkKeys, count - c * kCampaignChunkKeys);
      timer.resume();
      const grinch::campaign::Outcome outcome =
          grinch::campaign::run_campaign(spec, options_);
      timer.pause();
      if (!outcome.ok() || !outcome.completed) {
        pass.error = "campaign did not complete: " + outcome.error;
        break;
      }
      read_records(pass, c * kCampaignChunkKeys, spec.trials);
      std::error_code ec;
      std::filesystem::remove(options_.results_path, ec);
      std::filesystem::remove(options_.checkpoint_path, ec);
      if (!pass.error.empty()) break;
    }
    pass.times = timer.finish();
    return pass;
  }

  /// Reads the JSONL results back: one record per trial, in trial order,
  /// naming the bench-derived victim key; `verified` is the campaign's own
  /// verdict and the recovered key is compared with the truth here too.
  void read_records(PassResult& pass, std::size_t first,
                    std::size_t count) const {
    std::ifstream in(options_.results_path);
    std::string line;
    while (std::getline(in, line)) {
      pass.jsonl_bytes += line.size() + 1;
      const std::size_t t = pass.trials.size();
      const std::size_t local = t - first;
      std::string err;
      const auto doc = grinch::json::parse(line, &err);
      const auto* trial = doc ? doc->get("trial") : nullptr;
      const auto* victim = doc ? doc->get("victim_key") : nullptr;
      const auto* success = doc ? doc->get("success") : nullptr;
      const auto* verified = doc ? doc->get("verified") : nullptr;
      const auto* recovered = doc ? doc->get("recovered_key") : nullptr;
      const auto* enc = doc ? doc->get("total_encryptions") : nullptr;
      const auto* offline = doc ? doc->get("offline_trials") : nullptr;
      if (trial == nullptr || victim == nullptr || success == nullptr ||
          verified == nullptr ||
          recovered == nullptr || enc == nullptr || offline == nullptr) {
        pass.error = "unreadable JSONL record " + std::to_string(t) + ": " +
                     err;
        return;
      }
      if (local >= count || trial->as_u64() != local ||
          victim->as_string() != truth_[t].to_hex()) {
        pass.error = "JSONL record " + std::to_string(t) +
                     " does not name the expected trial/victim key";
        return;
      }
      TrialRecord r;
      r.success = success->as_bool();
      r.key_matches = recovered->as_string() == truth_[t].to_hex();
      if (verified->as_bool() != (r.success && r.key_matches)) {
        pass.error = "JSONL record " + std::to_string(t) +
                     ": `verified` disagrees with the recovered key";
        return;
      }
      r.encryptions = enc->as_u64();
      r.offline_trials = offline->as_u64();
      r.digest = line;
      pass.trials.push_back(std::move(r));
    }
    if (pass.trials.size() != first + count) {
      pass.error = "JSONL holds " +
                   std::to_string(pass.trials.size() - first) +
                   " records, expected " + std::to_string(count);
    }
  }

  /// The campaign's shards dispatched directly, one WideRecoveryEngine per
  /// 64-lane shard, on the calling thread.
  template <typename Rec>
  PassResult run_direct(std::size_t count) {
    PassResult pass;
    Tracer::instance().reset();
    typename target::KeyRecoveryEngine<Rec>::Config ecfg;
    ecfg.max_encryptions = ecfg_.max_encryptions;
    ecfg.vote_threshold = ecfg_.vote_threshold;
    ecfg.faults = ecfg_.faults;
    typename target::DirectProbePlatform<Rec>::Config pcfg;
    pcfg.cache = pcfg_.cache;
    pcfg.probing_round = pcfg_.probing_round;
    std::vector<target::RecoveryResult<Rec>> results;
    results.reserve(count);
    SegmentTimer timer{contention_exponent()};
    for (const grinch::runner::WideShard& shard :
         grinch::runner::make_wide_shards(count, chunks_[0].wide_width)) {
      timer.resume();
      target::WideRecoveryEngine<Rec> engine{ecfg, pcfg};
      auto shard_results = engine.run(std::span<const target::WideTrialSpec>(
          specs_.data() + shard.begin, shard.width));
      for (auto& r : shard_results) results.push_back(std::move(r));
      timer.pause();
    }
    pass.times = timer.finish();
    pass.layers = Tracer::instance().totals();
    pass.trials.reserve(results.size());
    for (std::size_t t = 0; t < results.size(); ++t) {
      pass.trials.push_back(make_record<Rec>(results[t], truth_[t]));
    }
    return pass;
  }

  std::vector<grinch::campaign::CampaignSpec> chunks_;
  grinch::campaign::Options options_;
  target::KeyRecoveryEngine<R>::Config ecfg_;
  target::DirectProbePlatform<R>::Config pcfg_;
  std::vector<Key128> truth_;
  std::vector<target::WideTrialSpec> specs_;
};

// --- scalar-engine workloads -------------------------------------------

/// KeyRecoveryEngine<R> over a fresh platform per key: R's DirectProbe
/// platform, or (Soc) the MpSoc with its defaults.
template <typename R, bool Soc>
class ScalarWorkload final : public Workload {
 public:
  using Block = typename R::Block;
  using Config = typename target::KeyRecoveryEngine<R>::Config;

  ScalarWorkload(std::uint64_t seed, std::size_t keys, const Config& config,
                 double exponent)
      : plan_(make_plan(seed, keys, 1)), config_(config), exponent_(exponent) {
    for (std::size_t t = 0; t < plan_.trials(); ++t) {
      truth_.push_back(R::canonical_key(plan_.seeds()[t].key));
    }
  }

  [[nodiscard]] std::size_t keys() const override { return truth_.size(); }
  [[nodiscard]] bool soc_platform() const override { return Soc; }
  [[nodiscard]] double contention_exponent() const override {
    return exponent_;
  }
  [[nodiscard]] bool paper_claim_applies() const override {
    return std::is_same_v<R, target::Gift64Recovery>;
  }

  PassResult run(PassKind kind, std::size_t count) override {
    return kind == PassKind::kTraced ? run_pass<Traced<R>>(count)
                                     : run_pass<R>(count);
  }

 private:
  template <typename Rec>
  PassResult run_pass(std::size_t count) {
    constexpr bool kTraced = !std::is_same_v<Rec, R>;
    PassResult pass;
    Tracer::instance().reset();
    std::vector<target::RecoveryResult<Rec>> results;
    results.reserve(count);
    SegmentTimer timer{contention_exponent()};
    for (std::size_t t = 0; t < count; ++t) {
      timer.resume();
      typename target::KeyRecoveryEngine<Rec>::Config cfg;
      copy_config(cfg);
      cfg.seed = plan_.seeds()[t].seed;
      cfg.faults.seed = plan_.fault_seeds()[t];
      auto platform = make_platform(truth_[t]);
      if constexpr (kTraced) {
        CountingSource<Block> counted{*platform};
        target::KeyRecoveryEngine<Rec> engine{counted, cfg};
        results.push_back(engine.run());
        pass.observe += counted.counts();
        if constexpr (Soc) {
          pass.noc_packets += platform->network().stats().packets;
          pass.noc_flits += platform->network().stats().total_flits;
        }
      } else {
        target::KeyRecoveryEngine<Rec> engine{*platform, cfg};
        results.push_back(engine.run());
      }
      timer.pause();
    }
    pass.times = timer.finish();
    pass.layers = Tracer::instance().totals();
    pass.trials.reserve(results.size());
    for (std::size_t t = 0; t < results.size(); ++t) {
      pass.trials.push_back(make_record<Rec>(results[t], truth_[t]));
    }
    return pass;
  }

  template <typename Cfg>
  void copy_config(Cfg& cfg) const {
    cfg.max_encryptions = config_.max_encryptions;
    cfg.max_batch = config_.max_batch;
    cfg.wide_width = config_.wide_width;
    cfg.vote_threshold = config_.vote_threshold;
    cfg.max_vote_threshold = config_.max_vote_threshold;
    cfg.backoff_resets = config_.backoff_resets;
    cfg.stall_limit = config_.stall_limit;
    cfg.faults = config_.faults;
    cfg.finish_partials = config_.finish_partials;
    cfg.finish_max_candidates = config_.finish_max_candidates;
  }

  auto make_platform(const Key128& key) const {
    if constexpr (Soc) {
      return std::make_unique<grinch::soc::MpSoc>(
          grinch::soc::MpSoc::Config{}, key);
    } else {
      return std::make_unique<target::DirectProbePlatform<R>>(
          typename target::DirectProbePlatform<R>::Config{}, key);
    }
  }

  ShardPlan plan_;
  Config config_;
  double exponent_;
  std::vector<Key128> truth_;
};

}  // namespace

std::span<const std::string_view> workload_names() { return kNames; }

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  if (name == kNames[0]) {
    return std::make_unique<CampaignWorkload>(seed, scratch_dir);
  }
  if (name == kNames[1]) {
    // The robustness_sweep moderate row: vote 2, 800000 budget.
    target::KeyRecoveryEngine<target::Gift128Recovery>::Config cfg;
    cfg.faults = target::FaultProfile::moderate();
    cfg.vote_threshold = 2;
    cfg.max_encryptions = 800000;
    return std::make_unique<ScalarWorkload<target::Gift128Recovery, false>>(
        seed, kGift128Keys, cfg, kGift128Exponent);
  }
  if (name == kNames[2]) {
    // The documented saturating row: vote 16, 4000 budget, finisher on.
    // The finisher verifies only the maximum-likelihood candidate: every
    // key recovered while sizing this workload was found at rank 0, while
    // a key whose truth the evidence ranks elsewhere (~1 in 200) was not
    // recovered at any budget tried and would otherwise search up to 2^17
    // candidates of 2^16 trials each.  Such keys count as failed; with
    // one candidate each costs about two recovered keys, so the number
    // that lands in a seed's key list barely moves keys_per_s.
    target::KeyRecoveryEngine<target::Present80Recovery>::Config cfg;
    cfg.faults = target::FaultProfile::saturating();
    cfg.vote_threshold = 16;
    cfg.max_encryptions = 4000;
    cfg.finish_partials = true;
    cfg.finish_max_candidates = 1;
    return std::make_unique<ScalarWorkload<target::Present80Recovery, false>>(
        seed, kPresentKeys, cfg, kPresentExponent);
  }
  if (name == kNames[3]) {
    return std::make_unique<ScalarWorkload<target::Gift64Recovery, true>>(
        seed, kMpsocKeys,
        target::KeyRecoveryEngine<target::Gift64Recovery>::Config{},
        kMpsocExponent);
  }
  return nullptr;
}

}  // namespace perfbench
