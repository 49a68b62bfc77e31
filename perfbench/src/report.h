// Metric vocabulary and the result line of the benchmark.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// What a number measures: host time of the simulator, a count of
/// modelled (simulated) victim work, or another deterministic count.
enum class MetricKind { kHost, kSimulated, kDeterministic };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  MetricKind kind;
};

/// Printed by `--trace 0`, in this order.
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
/// Printed by `--trace 1`, in this order.
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();

/// A metric name is made of letters, digits, '_', '.' and '-', starts
/// with a letter or digit, and is at most 64 characters long.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

[[nodiscard]] std::string_view kind_label(MetricKind kind) noexcept;

struct MetricValue {
  const MetricDef* def = nullptr;
  double value = 0.0;
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<MetricValue>& metrics);

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
