// The benchmark's workloads: whole key recoveries on fixed, seed-derived
// key lists, run untraced (the end-to-end path users run) or traced (the
// same engines instantiated on Traced<R>, platforms behind a timed
// CountingSource).  See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "counting_source.h"
#include "host_speed.h"
#include "trace.h"

namespace perfbench {

/// One key recovery's outcome, as the benchmark checks and aggregates it.
struct TrialRecord {
  /// The program reported a recovered key.
  bool success = false;
  /// The recovered key equals the ground-truth victim key.
  bool key_matches = false;
  std::uint64_t encryptions = 0;  ///< simulated victim encryptions
  std::uint64_t offline_trials = 0;
  std::uint64_t noise_restarts = 0;
  std::uint64_t dropped = 0;
  std::uint64_t verify_restarts = 0;
  bool finisher_ran = false;
  bool finisher_recovered = false;
  std::uint64_t finisher_candidates = 0;
  std::uint64_t finisher_offline_trials = 0;
  double finisher_wall_s = 0.0;  ///< host time, not deterministic
  /// Every deterministic result field, serialized; equal digests mean
  /// equal results.
  std::string digest;
};

/// How a pass drives the workload.
enum class PassKind {
  kPlain,   ///< the untraced end-to-end path (run_campaign for the campaign)
  kTraced,  ///< Traced<R> engines + timed CountingSource
  kDirect,  ///< campaign only: untraced WideRecoveryEngine on the same trials
};

struct PassResult {
  PassTimes times;
  std::vector<TrialRecord> trials;
  // Filled by traced passes:
  LayerTotals layers;
  ObserveCounts observe;
  std::uint64_t noc_packets = 0;
  std::uint64_t noc_flits = 0;
  // Filled by campaign passes:
  std::uint64_t jsonl_bytes = 0;
  /// Non-empty when the pass itself detected a wrong output.
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t keys() const = 0;
  /// Whether kDirect passes exist (the campaign workload).
  [[nodiscard]] virtual bool has_direct() const { return false; }
  /// Whether the observation platform is the MpSoc (soc/noc layers).
  [[nodiscard]] virtual bool soc_platform() const { return false; }
  /// How much more this workload slows than the host probe under
  /// contention (host_speed.h).
  [[nodiscard]] virtual double contention_exponent() const = 0;
  /// Whether the paper's "< 400 encryptions" GIFT-64 claim applies.
  [[nodiscard]] virtual bool paper_claim_applies() const { return false; }
  /// Recovers the first `count` (<= keys()) keys of the list.
  [[nodiscard]] virtual PassResult run(PassKind kind, std::size_t count) = 0;
};

[[nodiscard]] std::span<const std::string_view> workload_names();

/// Builds a workload's inputs from `seed` (the set-up the benchmark
/// times).  `scratch_dir` receives campaign output files.  Returns null
/// for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, std::uint64_t seed, const std::string& scratch_dir);

}  // namespace perfbench
