// Host-speed normalisation of the benchmark's timed work.
//
// The benchmark runs on shared hosts whose speed drifts by up to ~1.8x,
// from sub-second bursts to minutes-long phases (other tenants on the same
// cores), and every timed pass drifts with it.  A HostSampler thread,
// pinned to the CPU the work runs on, times a short fixed reference kernel
// every kSamplePeriod: bench-owned code that no change to the program
// moves.  A SegmentTimer takes the pass's CPU time (the sampler's own
// excluded) and scales it by the mean over the probes p taken during the
// pass of
//
//     (kNominalProbeSeconds / p) ^ exponent
//
// giving the time the pass would have taken at the host speed where the
// probe takes its nominal time.  This is a control variate: the probe's
// slowdown predicts the work's.  The exponent is the workload's own (see
// workloads.cpp): the simulator slows more than the probe under
// contention, 1.45-2.2 times as much in logarithm.  Unscaled wall and CPU
// times are kept alongside.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <ctime>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Process CPU seconds (every thread).  Unlike wall time it leaves out
/// the time the CPU runs other work, including hypervisor steal.
[[nodiscard]] double process_cpu_seconds();

/// Median CPU time of kProbeRepeats runs of the reference kernel (used
/// where no sampler runs: the set-up time).
[[nodiscard]] double probe_seconds();

/// Pins the process (and the threads it starts later) to the CPU it runs
/// on, so the probes time the same core as the work they normalise.
void pin_to_current_cpu();

/// The reference kernel's CPU time on a quiet 4-vCPU x86 host (Xeon,
/// Sapphire Rapids class): normalised times are in that host's seconds.
inline constexpr double kNominalProbeSeconds = 1.0e-3;

/// `seconds` of work scaled to the nominal host speed, given the probe
/// time measured with it and the work's contention exponent.
[[nodiscard]] double normalise(double seconds, double probe, double exponent);

/// Time between the sampler's probes.
inline constexpr std::chrono::milliseconds kSamplePeriod{5};

/// A thread that probes the host every kSamplePeriod and keeps each
/// probe's time.  Pinned with the process, it shares the CPU the timed
/// work runs on, so its probes sample that core's speed throughout the
/// work.  One at a time; SegmentTimer uses the one alive.
class HostSampler {
 public:
  HostSampler();
  ~HostSampler();
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  [[nodiscard]] static HostSampler* active();
  [[nodiscard]] std::size_t samples() const;
  /// Mean of normalise(1, p, exponent) over the probes p of samples
  /// [from, to); 0 when the range is empty.
  [[nodiscard]] double mean_factor(std::size_t from, std::size_t to,
                                   double exponent) const;
  /// The sampler thread's own CPU time.
  [[nodiscard]] double cpu_seconds() const;

 private:
  void loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> probes_;
  std::thread thread_;
  clockid_t cpu_clock_{};
  bool has_cpu_clock_ = false;
};

/// One pass's timed work.
struct PassTimes {
  double wall_s = 0.0;  ///< wall time of the timed work
  double cpu_s = 0.0;   ///< CPU time of the timed work, sampler excluded
  double norm_s = 0.0;  ///< cpu_s scaled to the nominal host speed
};

/// Accumulates a pass's timed work between resume() and pause() calls;
/// finish() scales it by the mean factor of the samples taken meanwhile.
class SegmentTimer {
 public:
  explicit SegmentTimer(double exponent);
  void resume();
  void pause();
  [[nodiscard]] PassTimes finish();

 private:
  double exponent_;
  std::size_t first_sample_ = 0;
  std::chrono::steady_clock::time_point wall0_{};
  double cpu0_ = 0.0;
  PassTimes totals_;
};

}  // namespace perfbench
