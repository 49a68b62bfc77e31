// perfbench: the whole-attack benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--setup-only]
//
// Builds the workload's key list from the seed (set-up), then runs passes
// over that list for about `seconds` (at least one of each kind).
// --trace 0 runs the untraced end-to-end path and prints the end-to-end
// metrics; --trace 1 alternates untraced and traced passes and prints the
// per-layer metrics.  Every pass's outputs are checked: each recovered key
// against its ground-truth victim key, every pass's per-trial results
// against the first pass's, and traced results against untraced ones.
// The last stdout line is the JSON result; any mismatch exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <unistd.h>

#include "cachesim/kernels/kernels.h"
#include "host_speed.h"
#include "report.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace perfbench;

/// Taken before the libraries' own static initializers run, so set-up
/// time covers static tables as well.
__attribute__((init_priority(101))) const Clock::time_point g_process_start =
    Clock::now();

/// The paper's cost claim: a GIFT-64 key in fewer than 400 encryptions.
constexpr double kPaperEncryptions = 400.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
  std::string scratch = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--scratch <dir>] [--setup-only]\nworkloads:";
  for (const std::string_view n : workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload " + a.workload);
  }
  if (!a.setup_only && (!have_seconds || !have_trace)) {
    usage("--seconds and --trace are required");
  }
  return a;
}

/// Removes the scratch directory however the run ends.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double verified(const TrialRecord& t) { return t.success && t.key_matches; }

/// Checks one pass's outputs; returns the first problem found.
std::string check_pass(const PassResult& pass, std::size_t keys) {
  if (!pass.error.empty()) return pass.error;
  if (pass.trials.size() != keys) return "pass returned a short trial list";
  for (std::size_t t = 0; t < keys; ++t) {
    if (pass.trials[t].success && !pass.trials[t].key_matches) {
      return "trial " + std::to_string(t) +
             ": recovered key differs from the victim key";
    }
  }
  return {};
}

/// Per-trial digests of `a` equal those of `b`'s first a.trials.size()
/// trials.
bool same_digests(const PassResult& a, const PassResult& b) {
  if (a.trials.size() > b.trials.size()) return false;
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    if (a.trials[t].digest != b.trials[t].digest) return false;
  }
  return true;
}

/// The campaign's JSONL records agree with the direct engine run.
bool same_outcomes(const PassResult& a, const PassResult& b) {
  if (a.trials.size() != b.trials.size()) return false;
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    const TrialRecord& x = a.trials[t];
    const TrialRecord& y = b.trials[t];
    if (x.success != y.success || x.key_matches != y.key_matches ||
        x.encryptions != y.encryptions ||
        x.offline_trials != y.offline_trials) {
      return false;
    }
  }
  return true;
}

struct Deterministic {
  double enc_per_key = 0, enc_per_key_max = 0, success_rate = 0,
         offline_per_key = 0;
  bool operator==(const Deterministic&) const = default;
};

Deterministic deterministic_metrics(const PassResult& pass) {
  Deterministic d;
  const double n = static_cast<double>(pass.trials.size());
  double enc = 0, offline = 0, ok = 0;
  for (const TrialRecord& t : pass.trials) {
    enc += static_cast<double>(t.encryptions);
    offline += static_cast<double>(t.offline_trials);
    ok += verified(t);
    d.enc_per_key_max =
        std::max(d.enc_per_key_max, static_cast<double>(t.encryptions));
  }
  d.enc_per_key = enc / n;
  d.success_rate = ok / n;
  d.offline_per_key = offline / n;
  return d;
}

/// Peak resident memory of this process image.  VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the parent's peak across
/// fork + exec (the launcher's own memory would otherwise dominate).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The passes of one kind: the first keeps its per-trial results as the
/// reference; later ones are checked against it as they finish and then
/// only their aggregates are kept, so memory does not grow with the
/// number of passes a run fits.
struct KindLog {
  PassResult first;
  std::size_t passes = 0;
  std::vector<double> walls;  ///< wall time of the timed work, per pass
  std::vector<double> norms;  ///< normalised time (host_speed.h), per pass
  std::vector<double> rates;  ///< verified keys / normalised time, per pass
  std::vector<double> cpu_rates;   ///< verified keys / CPU time, per pass
  std::vector<double> wall_rates;  ///< verified keys / wall time, per pass
  double cpu_s = 0, norm_s = 0;
  LayerTotals layers;
  ObserveCounts observe;
  double noc_packets = 0, noc_flits = 0;
  double finisher_wall = 0, finisher_candidates = 0, finisher_offline = 0;
  std::uint64_t attempted = 0, failed = 0;

  /// Checks and folds in one pass; returns the first problem found.
  std::string add(PassResult pass, std::size_t keys) {
    std::string problem = check_pass(pass, keys);
    double ok = 0;
    for (const TrialRecord& t : pass.trials) {
      ok += verified(t);
      finisher_wall += t.finisher_wall_s;
      finisher_candidates += static_cast<double>(t.finisher_candidates);
      finisher_offline += static_cast<double>(t.finisher_offline_trials);
    }
    attempted += pass.trials.size();
    failed += pass.trials.size() - static_cast<std::uint64_t>(ok);
    const PassTimes& times = pass.times;
    walls.push_back(times.wall_s);
    norms.push_back(times.norm_s);
    rates.push_back(ratio(ok, times.norm_s));
    cpu_rates.push_back(ratio(ok, times.cpu_s));
    wall_rates.push_back(ratio(ok, times.wall_s));
    cpu_s += times.cpu_s;
    norm_s += times.norm_s;
    layers += pass.layers;
    observe += pass.observe;
    noc_packets += static_cast<double>(pass.noc_packets);
    noc_flits += static_cast<double>(pass.noc_flits);
    if (passes++ == 0) {
      first = std::move(pass);
    } else if (problem.empty() &&
               (!same_digests(pass, first) ||
                !(deterministic_metrics(pass) ==
                  deterministic_metrics(first)))) {
      problem = "per-trial results differ between repetitions";
    }
    return problem;
  }

  [[nodiscard]] double wall_sum() const {
    double w = 0;
    for (const double x : walls) w += x;
    return w;
  }
};

class MetricSink {
 public:
  explicit MetricSink(std::span<const MetricDef> defs) : defs_(defs) {}
  void set(std::string name, double value) {
    values_[std::move(name)] = value;
  }
  [[nodiscard]] std::vector<MetricValue> ordered() const {
    std::vector<MetricValue> out;
    for (const MetricDef& d : defs_) {
      const auto it = values_.find(d.name);
      out.push_back({&d, it == values_.end() ? 0.0 : it->second});
    }
    return out;
  }

 private:
  std::span<const MetricDef> defs_;
  std::map<std::string, double, std::less<>> values_;
};

void end_to_end(MetricSink& m, const KindLog& plain, double setup_s) {
  const Deterministic d = deterministic_metrics(plain.first);
  m.set("keys_per_s", median(plain.rates));
  m.set("enc_per_key", d.enc_per_key);
  m.set("success_rate", d.success_rate);
  m.set("setup_s", setup_s);
  m.set("peak_rss_mb", peak_rss_mib());
}

void per_layer(MetricSink& m, const Workload& wl, const KindLog& plain,
               const KindLog& traced, const KindLog* direct) {
  const LayerTotals& layers = traced.layers;
  const ObserveCounts& obs = traced.observe;
  const double wall_ns = traced.wall_sum() * 1e9;
  const double keys = static_cast<double>(traced.attempted);
  const auto calls = [&](Layer l) {
    return static_cast<double>(layers.calls[static_cast<std::size_t>(l)]);
  };
  const auto total_ns = [&](Layer l) {
    return static_cast<double>(layers.ns[static_cast<std::size_t>(l)]);
  };
  const auto self_ns = [&](Layer l) {
    return static_cast<double>(layers.self_ns(l));
  };

  m.set("attack.craft_calls_per_key", ratio(calls(Layer::kCraft), keys));
  m.set("attack.craft_ns", ratio(total_ns(Layer::kCraft), calls(Layer::kCraft)));
  m.set("attack.craft_share", ratio(total_ns(Layer::kCraft), wall_ns));
  m.set("attack.predict_calls_per_key", ratio(calls(Layer::kPredict), keys));
  m.set("attack.predict_ns",
        ratio(total_ns(Layer::kPredict), calls(Layer::kPredict)));
  m.set("attack.predict_share", ratio(total_ns(Layer::kPredict), wall_ns));

  // Deterministic per-key work, from the first untraced pass.
  const PassResult& ref = plain.first;
  double restarts = 0, dropped = 0, verify_restarts = 0, fin_runs = 0,
         fin_recovered = 0, fin_candidates = 0;
  for (const TrialRecord& t : ref.trials) {
    restarts += static_cast<double>(t.noise_restarts);
    dropped += static_cast<double>(t.dropped);
    verify_restarts += static_cast<double>(t.verify_restarts);
    fin_runs += t.finisher_ran;
    fin_recovered += t.finisher_recovered;
    fin_candidates += static_cast<double>(t.finisher_candidates);
  }
  const double ref_keys = static_cast<double>(ref.trials.size());
  const Deterministic d = deterministic_metrics(ref);
  const double observed_enc = static_cast<double>(obs.encryptions);
  m.set("target.observe_calls_per_key",
        ratio(static_cast<double>(obs.calls()), keys));
  m.set("target.observed_enc_per_key", ratio(observed_enc, keys));
  m.set("target.speculation_yield",
        ratio(d.enc_per_key, ratio(observed_enc, keys)));
  const double observe_ns = total_ns(Layer::kObserve);
  const std::string prefix = wl.soc_platform() ? "soc." : "target.";
  m.set(prefix + "observe_ns_per_enc", ratio(observe_ns, observed_enc));
  m.set(prefix + "observe_share", ratio(observe_ns, wall_ns));
  m.set("target.enc_per_key_max", d.enc_per_key_max);
  m.set("target.offline_trials_per_key", d.offline_per_key);
  m.set("target.engine_self_share",
        ratio(wall_ns - static_cast<double>(layers.root_ns), wall_ns));
  m.set("target.finalize_ns",
        ratio(self_ns(Layer::kFinalize), calls(Layer::kFinalize)));
  m.set("target.finalize_share", ratio(self_ns(Layer::kFinalize), wall_ns));
  m.set("target.noise_restarts_per_key", restarts / ref_keys);
  m.set("target.dropped_per_key", dropped / ref_keys);
  m.set("target.verify_restarts_per_key", verify_restarts / ref_keys);
  m.set("noc.packets_per_enc", ratio(traced.noc_packets, observed_enc));
  m.set("noc.flits_per_enc", ratio(traced.noc_flits, observed_enc));

  // Finisher throughput from the untraced passes' own finisher clocks.
  m.set("finisher.runs_per_key", fin_runs / ref_keys);
  m.set("finisher.candidates_per_key", fin_candidates / ref_keys);
  m.set("finisher.candidates_per_s",
        ratio(plain.finisher_candidates, plain.finisher_wall));
  m.set("finisher.offline_trials_per_s",
        ratio(plain.finisher_offline, plain.finisher_wall));
  m.set("finisher.verify_share",
        ratio(total_ns(Layer::kFinisherVerify), wall_ns));
  m.set("finisher.recovered_ratio", ratio(fin_recovered, fin_runs));

  const KindLog& untraced = direct != nullptr ? *direct : plain;
  if (direct != nullptr) {
    m.set("campaign.overhead_ratio",
          ratio(median(plain.norms), median(direct->norms)));
    m.set("campaign.jsonl_bytes_per_key",
          ratio(static_cast<double>(ref.jsonl_bytes), ref_keys));
  }
  m.set("trace.overhead_ratio",
        ratio(median(traced.norms), median(untraced.norms)));
  m.set("host.cpu_keys_per_s", median(plain.cpu_rates));
  m.set("host.slowdown", ratio(plain.cpu_s, plain.norm_s));
}

void print_report(const Args& args, const Workload& wl,
                  const std::vector<MetricValue>& metrics, std::size_t passes,
                  double seconds, const KindLog& plain,
                  const Deterministic* det) {
  std::printf("perfbench %s seed=%llu trace=%d: %zu keys/pass, %zu passes "
              "in %.1f s (kernel %s, one worker thread)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              wl.keys(), passes, seconds,
              grinch::cachesim::kernels::active().name);
  for (const MetricValue& m : metrics) {
    std::printf("  %-32s %16.6g %-10s [%s]\n", std::string(m.def->name).c_str(),
                m.value, std::string(m.def->unit).c_str(),
                std::string(kind_label(m.def->kind)).c_str());
  }
  const auto rates = [](const char* what, const std::vector<double>& v) {
    std::printf("  keys/s per untraced pass, %s:", what);
    for (const double r : v) std::printf(" %.4g", r);
    std::printf("\n");
  };
  rates("normalised time", plain.rates);
  rates("CPU time", plain.cpu_rates);
  rates("wall time", plain.wall_rates);
  std::printf("  host slowdown applied (CPU / normalised time): %.3f\n",
              ratio(plain.cpu_s, plain.norm_s));
  std::printf("  host-time numbers measure the simulator on this host; they "
              "have no hardware reference and are unvalidated\n");
  if (det == nullptr) return;
  std::printf("  costliest key: %.0f enc (simulated)\n", det->enc_per_key_max);
  if (wl.paper_claim_applies()) {
    std::printf("  paper claim: GIFT-64 key in < %.0f encryptions; measured "
                "mean %.1f, max %.0f (simulated) -> %s\n",
                kPaperEncryptions, det->enc_per_key, det->enc_per_key_max,
                det->enc_per_key < kPaperEncryptions
                    ? "within claim"
                    : "EXCEEDS CLAIM (flagged)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string scratch =
      args.scratch + "/run-" + std::to_string(static_cast<long>(getpid()));
  ScratchDir dir{scratch};

  // --- set-up: kernel detection, workload generation ---
  (void)grinch::cachesim::kernels::active();
  const std::unique_ptr<Workload> wl =
      make_workload(args.workload, args.seed, dir.path);
  const double setup_wall_s =
      std::chrono::duration<double>(Clock::now() - g_process_start).count();
  // Host-speed normalised like the timed passes (host_speed.h), by a probe
  // taken after the set-up.
  pin_to_current_cpu();
  const double setup_s =
      normalise(setup_wall_s, probe_seconds(), wl->contention_exponent());
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  const HostSampler sampler;

  // --- timed passes: whole rounds (one pass of each kind) while the
  // next round is predicted to end within the measured time; every pass
  // is checked as it finishes ---
  std::vector<PassKind> cycle{PassKind::kPlain};
  if (args.trace) {
    if (wl->has_direct()) cycle.push_back(PassKind::kDirect);
    cycle.push_back(PassKind::kTraced);
  }
  std::map<PassKind, KindLog> logs;
  std::string problem;
  const auto note = [&](std::string p) {
    if (problem.empty()) problem = std::move(p);
  };
  const auto t0 = Clock::now();
  double elapsed = 0;
  for (unsigned rounds = 1;; ++rounds) {
    for (const PassKind kind : cycle) {
      note(logs[kind].add(wl->run(kind, wl->keys()), wl->keys()));
    }
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!problem.empty() || elapsed * (rounds + 1) / rounds > args.seconds) {
      break;
    }
  }
  const KindLog& plain = logs[PassKind::kPlain];
  std::size_t pass_count = 0;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, log] : logs) {
    pass_count += log.passes;
    attempted += log.attempted;
    failed += log.failed;
  }
  // With a single untraced pass, repeat a prefix of the key list so every
  // run still checks that results repeat.
  if (problem.empty() && plain.passes == 1) {
    const PassResult again =
        wl->run(PassKind::kPlain, std::max<std::size_t>(1, wl->keys() / 16));
    ++pass_count;
    note(check_pass(again, again.trials.size()));
    if (problem.empty() && !same_digests(again, plain.first)) {
      note("per-trial results differ between repetitions");
    }
  }
  const KindLog* direct =
      logs.count(PassKind::kDirect) != 0 ? &logs[PassKind::kDirect] : nullptr;
  if (problem.empty() && args.trace) {
    const KindLog& untraced = direct != nullptr ? *direct : plain;
    if (!same_digests(logs[PassKind::kTraced].first, untraced.first)) {
      note("traced results differ from untraced results");
    } else if (direct != nullptr &&
               !same_outcomes(plain.first, direct->first)) {
      note("campaign records differ from the direct engine run");
    }
  }

  MetricSink sink{args.trace ? per_layer_metrics() : end_to_end_metrics()};
  if (problem.empty()) {
    if (args.trace) {
      per_layer(sink, *wl, plain, logs[PassKind::kTraced], direct);
    } else {
      end_to_end(sink, plain, setup_s);
    }
  }
  const std::vector<MetricValue> metrics = sink.ordered();
  const Deterministic det = deterministic_metrics(plain.first);
  print_report(args, *wl, metrics, pass_count, elapsed, plain,
               args.trace || !problem.empty() ? nullptr : &det);
  if (!problem.empty()) {
    std::printf("  OUTPUT CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n",
              result_json(problem.empty(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return problem.empty() ? 0 : 1;
}
