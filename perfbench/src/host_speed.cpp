#include "host_speed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <ctime>

#include <pthread.h>
#include <sched.h>

namespace perfbench {

namespace {

constexpr int kProbeRepeats = 5;
constexpr int kKernelSteps = 60000;
/// The sampler's shorter probe, and its time in units of a full probe.
constexpr int kSampleSteps = 15000;
constexpr double kSampleScale =
    static_cast<double>(kSampleSteps) / static_cast<double>(kKernelSteps);

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostSampler* g_sampler = nullptr;

/// Keeps the kernel's result observable so it is not optimised away.
volatile std::uint64_t g_sink = 0;

/// The reference kernel: the simulator's kinds of work in a fixed mix --
/// a table lookup, a 4-way LRU tag search with data-dependent branches
/// and 64-bit shifts -- on a working set (16 KiB table, 8 KiB of tags and
/// stamps) that stays in the core's caches, as the simulator's does.
std::uint64_t reference_kernel(std::uint64_t x, int steps) {
  static const std::array<std::uint32_t, 4096> table = [] {
    std::array<std::uint32_t, 4096> t{};
    std::uint32_t v = 0x9E3779B9u;
    for (std::uint32_t& e : t) {
      v ^= v << 13;
      v ^= v >> 17;
      v ^= v << 5;
      e = v;
    }
    return t;
  }();
  std::array<std::uint32_t, 1024> tags{};
  std::array<std::uint32_t, 1024> stamps{};
  std::uint32_t clock = 0;
  std::uint64_t hits = 0;
  for (int i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint32_t v =
        table[x & 4095u] ^ static_cast<std::uint32_t>(x >> 32);
    const std::size_t set = (v & 255u) * 4;
    const std::uint32_t tag = v >> 28;
    std::size_t victim = set;
    bool hit = false;
    for (std::size_t w = set; w < set + 4; ++w) {
      if (tags[w] == tag) {
        stamps[w] = ++clock;
        hit = true;
        break;
      }
      if (stamps[w] < stamps[victim]) victim = w;
    }
    if (hit) {
      ++hits;
    } else {
      tags[victim] = tag;
      stamps[victim] = ++clock;
    }
  }
  return hits ^ x;
}

}  // namespace

double process_cpu_seconds() {
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double probe_seconds() {
  std::array<double, kProbeRepeats> times{};
  for (double& t : times) {
    const double t0 = process_cpu_seconds();
    g_sink = g_sink + reference_kernel(g_sink | 1u, kKernelSteps);
    t = process_cpu_seconds() - t0;
  }
  std::nth_element(times.begin(), times.begin() + kProbeRepeats / 2,
                   times.end());
  return times[kProbeRepeats / 2];
}

double normalise(double seconds, double probe, double exponent) {
  return seconds * std::pow(kNominalProbeSeconds / probe, exponent);
}

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

HostSampler::HostSampler() {
  probes_.reserve(1u << 16);
  thread_ = std::thread([this] { loop(); });
  has_cpu_clock_ =
      pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) == 0;
  g_sampler = this;
}

HostSampler::~HostSampler() {
  g_sampler = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

HostSampler* HostSampler::active() { return g_sampler; }

void HostSampler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, kSamplePeriod, [this] { return stop_; })) {
    lock.unlock();
    const double t0 = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
    g_sink = g_sink + reference_kernel(g_sink | 1u, kSampleSteps);
    const double t = clock_seconds(CLOCK_THREAD_CPUTIME_ID) - t0;
    lock.lock();
    probes_.push_back(t / kSampleScale);
  }
}

std::size_t HostSampler::samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return probes_.size();
}

double HostSampler::mean_factor(std::size_t from, std::size_t to,
                                double exponent) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) {
    sum += normalise(1.0, probes_[i], exponent);
  }
  return to > from ? sum / static_cast<double>(to - from) : 0.0;
}

double HostSampler::cpu_seconds() const {
  return has_cpu_clock_ ? clock_seconds(cpu_clock_) : 0.0;
}

namespace {

/// CPU time of the process's own work: every thread but the sampler.
double work_cpu_seconds() {
  const HostSampler* sampler = HostSampler::active();
  return process_cpu_seconds() - (sampler ? sampler->cpu_seconds() : 0.0);
}

}  // namespace

SegmentTimer::SegmentTimer(double exponent) : exponent_(exponent) {
  const HostSampler* sampler = HostSampler::active();
  first_sample_ = sampler ? sampler->samples() : 0;
}

void SegmentTimer::resume() {
  wall0_ = std::chrono::steady_clock::now();
  cpu0_ = work_cpu_seconds();
}

void SegmentTimer::pause() {
  totals_.cpu_s += work_cpu_seconds() - cpu0_;
  totals_.wall_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0_)
                        .count();
}

PassTimes SegmentTimer::finish() {
  const HostSampler* sampler = HostSampler::active();
  const std::size_t last = sampler ? sampler->samples() : 0;
  const double factor =
      last > first_sample_
          ? sampler->mean_factor(first_sample_, last, exponent_)
          : normalise(1.0, probe_seconds(), exponent_);
  totals_.norm_s = totals_.cpu_s * factor;
  return totals_;
}

}  // namespace perfbench
