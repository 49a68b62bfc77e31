// Tests of the benchmark's own code: the Traced<R> wrapper, the counting
// observation decorator, the host-speed normalisation and the metric
// vocabulary.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "counting_source.h"
#include "host_speed.h"
#include "report.h"
#include "result_digest.h"
#include "runner/trial_runner.h"
#include "soc/platform.h"
#include "target/registry.h"
#include "target/wide_engine.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace target = grinch::target;

template <typename R>
std::vector<std::string> scalar_digests(
    const typename target::KeyRecoveryEngine<R>::Config& base,
    const std::vector<grinch::runner::TrialSeed>& seeds) {
  std::vector<std::string> out;
  for (const auto& s : seeds) {
    typename target::KeyRecoveryEngine<R>::Config cfg = base;
    cfg.seed = s.seed;
    target::DirectProbePlatform<R> platform{{}, R::canonical_key(s.key)};
    target::KeyRecoveryEngine<R> engine{platform, cfg};
    out.push_back(result_digest(engine.run()));
  }
  return out;
}

/// Runs the same trials on R and on Traced<R> with the same knobs.
template <typename R>
void expect_traced_equal(
    const typename target::KeyRecoveryEngine<R>::Config& cfg,
    std::size_t trials) {
  const auto seeds = grinch::runner::derive_trial_seeds(0x7E57, trials);
  typename target::KeyRecoveryEngine<Traced<R>>::Config tcfg;
  tcfg.max_encryptions = cfg.max_encryptions;
  tcfg.vote_threshold = cfg.vote_threshold;
  tcfg.faults = cfg.faults;
  tcfg.finish_partials = cfg.finish_partials;
  Tracer::instance().reset();
  const auto plain = scalar_digests<R>(cfg, seeds);
  const auto traced = scalar_digests<Traced<R>>(tcfg, seeds);
  EXPECT_EQ(plain, traced) << R::kName;
  const LayerTotals& t = Tracer::instance().totals();
  EXPECT_GT(t.calls[static_cast<std::size_t>(Layer::kCraft)], 0u);
  EXPECT_GT(t.calls[static_cast<std::size_t>(Layer::kPredict)], 0u);
  EXPECT_GT(t.root_ns, 0u);
}

TEST(TracedRecovery, ScalarResultsEqualUntracedForEveryCipher) {
  grinch::target::for_each_registered_target([](auto recovery) {
    using R = decltype(recovery);
    expect_traced_equal<R>({}, 3);
  });
}

TEST(TracedRecovery, NoisyResultsEqualUntracedForEveryCipher) {
  grinch::target::for_each_registered_target([](auto recovery) {
    using R = decltype(recovery);
    typename target::KeyRecoveryEngine<R>::Config cfg;
    cfg.faults = target::FaultProfile::moderate();
    cfg.vote_threshold = 2;
    expect_traced_equal<R>(cfg, 1);
  });
}

TEST(TracedRecovery, FinisherResultsEqualUntraced) {
  target::KeyRecoveryEngine<target::Present80Recovery>::Config cfg;
  cfg.faults = target::FaultProfile::saturating();
  cfg.vote_threshold = 16;
  cfg.max_encryptions = 4000;
  cfg.finish_partials = true;
  expect_traced_equal<target::Present80Recovery>(cfg, 1);
  EXPECT_GT(Tracer::instance()
                .totals()
                .calls[static_cast<std::size_t>(Layer::kFinisherVerify)],
            0u);
}

TEST(TracedRecovery, WideResultsEqualUntraced) {
  using R = target::Gift64Recovery;
  const auto seeds = grinch::runner::derive_trial_seeds(0x3131, 8);
  std::vector<target::WideTrialSpec> specs;
  for (const auto& s : seeds) specs.push_back({s.key, s.seed, 0});
  target::WideRecoveryEngine<R> plain{{}};
  target::WideRecoveryEngine<Traced<R>> traced{{}};
  const auto a = plain.run(specs);
  const auto b = traced.run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(result_digest(a[i]), result_digest(b[i])) << "lane " << i;
    EXPECT_TRUE(a[i].success);
  }
}

void expect_same(const target::Observation& a, const target::Observation& b) {
  EXPECT_EQ(a.present, b.present);
  EXPECT_EQ(a.probed_after_round, b.probed_after_round);
  EXPECT_EQ(a.attacker_cycles, b.attacker_cycles);
  EXPECT_EQ(a.sbox_hits, b.sbox_hits);
  EXPECT_EQ(a.dropped, b.dropped);
}

/// Drives `direct` and a CountingSource over `twin` (an identical
/// platform) through every ObservationSource method and compares.
template <typename Block>
void expect_forwarding(target::ObservationSource<Block>& direct,
                       target::ObservationSource<Block>& twin,
                       const std::vector<Block>& pts) {
  CountingSource<Block> counted{twin};
  expect_same(direct.observe(pts[0], 0), counted.observe(pts[0], 0));
  EXPECT_EQ(direct.last_ciphertext(), counted.last_ciphertext());

  target::ObservationBatch batch_a, batch_b;
  direct.observe_batch(pts, 1, batch_a);
  counted.observe_batch(pts, 1, batch_b);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    expect_same(batch_a[i], batch_b[i]);
  }
  EXPECT_EQ(direct.last_ciphertext(), counted.last_ciphertext());

  target::WideObservationBatch wide_a, wide_b;
  direct.observe_wide(pts, 2, wide_a);
  counted.observe_wide(pts, 2, wide_b);
  ASSERT_EQ(wide_a.width(), wide_b.width());
  for (unsigned l = 0; l < wide_a.width(); ++l) {
    expect_same(wide_a.extract(l), wide_b.extract(l));
  }
  EXPECT_EQ(wide_a.dropped_lanes(), wide_b.dropped_lanes());
  EXPECT_EQ(direct.last_ciphertext(), counted.last_ciphertext());
  EXPECT_EQ(direct.index_line_ids(), counted.index_line_ids());

  const ObserveCounts& c = counted.counts();
  EXPECT_EQ(c.observe_calls, 1u);
  EXPECT_EQ(c.batch_calls, 1u);
  EXPECT_EQ(c.wide_calls, 1u);
  EXPECT_EQ(c.encryptions, 1 + 2 * pts.size());
}

TEST(CountingSource, ForwardsEveryMethodBitIdentically) {
  grinch::target::for_each_registered_target([](auto recovery) {
    using R = decltype(recovery);
    using Block = typename R::Block;
    const grinch::Key128 key = R::canonical_key({0x0123456789ABCDEFull,
                                                 0xF0E1D2C3B4A59687ull});
    grinch::Xoshiro256 rng{42};
    std::vector<Block> pts;
    for (int i = 0; i < 12; ++i) pts.push_back(R::random_block(rng));
    target::DirectProbePlatform<R> a{{}, key};
    target::DirectProbePlatform<R> b{{}, key};
    expect_forwarding<Block>(a, b, pts);
  });
}

TEST(CountingSource, ForwardsMpSocBitIdentically) {
  const grinch::Key128 key{0x1111222233334444ull, 0x5555666677778888ull};
  grinch::soc::MpSoc a{{}, key};
  grinch::soc::MpSoc b{{}, key};
  grinch::Xoshiro256 rng{7};
  std::vector<std::uint64_t> pts;
  for (int i = 0; i < 5; ++i) pts.push_back(rng.block64());
  expect_forwarding<std::uint64_t>(a, b, pts);
  EXPECT_EQ(a.network().stats().packets, b.network().stats().packets);
}

TEST(Metrics, NamesAreWellFormedAndUnique) {
  std::set<std::string_view> seen;
  for (const auto defs : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricDef& d : defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
      EXPECT_FALSE(d.unit.empty()) << d.name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
}

/// BENCHMARK.json names exactly the metrics and workloads the program
/// prints, with the same units.
TEST(Metrics, BenchmarkJsonMatchesProgram) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  std::string err;
  const auto doc = grinch::json::parse(text.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto expect_list = [&](const char* key,
                               std::span<const MetricDef> defs) {
    const grinch::json::Value* list = doc->get(key);
    ASSERT_NE(list, nullptr) << key;
    const auto& items = list->elements();
    ASSERT_EQ(items.size(), defs.size()) << key;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(items[i].get("name")->as_string(), defs[i].name);
      EXPECT_EQ(items[i].get("unit")->as_string(), defs[i].unit);
    }
  };
  expect_list("end_to_end", end_to_end_metrics());
  expect_list("per_layer", per_layer_metrics());
  const grinch::json::Value* workloads = doc->get("workloads");
  ASSERT_NE(workloads, nullptr);
  const auto& items = workloads->elements();
  ASSERT_EQ(items.size(), workload_names().size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].get("name")->as_string(), workload_names()[i]);
  }
}

TEST(HostSpeed, NormaliseScalesByTheProbeSlowdown) {
  EXPECT_DOUBLE_EQ(normalise(2.0, kNominalProbeSeconds, 1.75), 2.0);
  // A probe twice as slow as nominal halves the time at exponent 1.
  EXPECT_DOUBLE_EQ(normalise(2.0, 2 * kNominalProbeSeconds, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(normalise(2.0, 2 * kNominalProbeSeconds, 2.0), 0.5);
  EXPECT_GT(probe_seconds(), 0.0);
}

TEST(HostSpeed, TimerScalesItsWorkByTheSamplesTakenMeanwhile) {
  const HostSampler sampler;
  ASSERT_EQ(HostSampler::active(), &sampler);
  SegmentTimer timer{1.5};
  timer.resume();
  const double t0 = process_cpu_seconds();
  volatile std::uint64_t x = 1;
  while (process_cpu_seconds() - t0 < 0.1) x = x * 3 + 1;
  timer.pause();
  const std::size_t samples = sampler.samples();
  const PassTimes times = timer.finish();
  ASSERT_GT(samples, 0u);
  EXPECT_GT(times.cpu_s, 0.05);
  EXPECT_GT(times.wall_s, 0.0);
  EXPECT_GT(times.norm_s, 0.0);
  EXPECT_NEAR(times.norm_s,
              times.cpu_s * sampler.mean_factor(0, sampler.samples(), 1.5),
              0.2 * times.norm_s);
  EXPECT_EQ(sampler.mean_factor(samples, samples, 1.5), 0.0);
}

TEST(Report, ResultLineHasTheContractKeys) {
  const MetricDef& def = end_to_end_metrics()[0];
  const std::string line = result_json(true, 10, 1, {{&def, 1.25}});
  std::string err;
  const auto doc = grinch::json::parse(line, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_TRUE(doc->get("correct")->as_bool());
  EXPECT_EQ(doc->get("attempted")->as_u64(), 10u);
  EXPECT_EQ(doc->get("failed")->as_u64(), 1u);
  const auto* m = doc->get("metrics")->get(def.name);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->get("value")->as_double(), 1.25);
  EXPECT_EQ(m->get("unit")->as_string(), def.unit);
}

}  // namespace
