#include "report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr MetricKind kHost = MetricKind::kHost;
constexpr MetricKind kSim = MetricKind::kSimulated;
constexpr MetricKind kDet = MetricKind::kDeterministic;

// Every end-to-end metric is nonzero on every workload and repeats across
// seeds within its bound (README.md, "What is not measured").
constexpr std::array<MetricDef, 5> kEndToEnd = {{
    {"keys_per_s", "keys/s", kHost},
    {"enc_per_key", "enc", kSim},
    {"success_rate", "ratio", kDet},
    {"setup_s", "s", kHost},
    {"peak_rss_mb", "MiB", kHost},
}};

constexpr std::array<MetricDef, 34> kPerLayer = {{
    {"attack.craft_calls_per_key", "calls/key", kDet},
    {"attack.craft_ns", "ns", kHost},
    {"attack.craft_share", "ratio", kHost},
    {"attack.predict_calls_per_key", "calls/key", kDet},
    {"attack.predict_ns", "ns", kHost},
    {"attack.predict_share", "ratio", kHost},
    {"target.observe_calls_per_key", "calls/key", kDet},
    {"target.observed_enc_per_key", "enc", kSim},
    {"target.speculation_yield", "ratio", kSim},
    {"target.observe_ns_per_enc", "ns", kHost},
    {"target.observe_share", "ratio", kHost},
    {"target.enc_per_key_max", "enc", kSim},
    {"target.offline_trials_per_key", "trials", kDet},
    {"target.engine_self_share", "ratio", kHost},
    {"target.finalize_ns", "ns", kHost},
    {"target.finalize_share", "ratio", kHost},
    {"target.noise_restarts_per_key", "count", kDet},
    {"target.dropped_per_key", "count", kDet},
    {"target.verify_restarts_per_key", "count", kDet},
    {"soc.observe_ns_per_enc", "ns", kHost},
    {"soc.observe_share", "ratio", kHost},
    {"noc.packets_per_enc", "packets", kSim},
    {"noc.flits_per_enc", "flits", kSim},
    {"finisher.runs_per_key", "count", kDet},
    {"finisher.candidates_per_key", "count", kDet},
    {"finisher.candidates_per_s", "1/s", kHost},
    {"finisher.offline_trials_per_s", "1/s", kHost},
    {"finisher.verify_share", "ratio", kHost},
    {"finisher.recovered_ratio", "ratio", kDet},
    {"campaign.overhead_ratio", "ratio", kHost},
    {"campaign.jsonl_bytes_per_key", "B", kDet},
    {"trace.overhead_ratio", "ratio", kHost},
    {"host.cpu_keys_per_s", "keys/s", kHost},
    {"host.slowdown", "ratio", kHost},
}};

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

bool valid_metric_name(std::string_view name) noexcept {
  const auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  return !name.empty() && name.size() <= 64 && word(name.front()) &&
         std::all_of(name.begin(), name.end(), [&](char c) {
           return word(c) || c == '_' || c == '.' || c == '-';
         });
}

std::string_view kind_label(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kHost:
      return "host";
    case MetricKind::kSimulated:
      return "simulated";
    case MetricKind::kDeterministic:
      break;
  }
  return "deterministic";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricValue& m : metrics) {
    char number[40];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += m.def->name;
    out += "\": {\"value\": ";
    out += number;
    out += ", \"unit\": \"";
    out += m.def->unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
