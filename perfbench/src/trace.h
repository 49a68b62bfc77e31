// Bench-side tracing of the attack layers.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public entry points; nothing inside src/ is instrumented.  Two
// pieces:
//  * Traced<R> derives from a registered Recovery and forwards the attack
//    hooks the engines call (Crafter::craft, pre_key_nibbles, finalize,
//    finisher_verify) to R with a span around each, so the unmodified
//    KeyRecoveryEngine<Traced<R>> / WideRecoveryEngine<Traced<R>> run
//    traced and produce the same results as their R instantiations.
//  * Span / Tracer: an in-memory per-layer accumulator (calls, total time,
//    time covered by nested child spans, time covered by outermost spans).
//    Self time of a layer = total - child time; the engine's own self time
//    = traced wall - outermost-span time.
//
// The tracer is a process-wide singleton and is not thread-safe: the
// benchmark runs every traced engine on the calling thread (no finisher
// pool), so every hook fires there.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "common/key128.h"
#include "common/rng.h"
#include "target/observation.h"
#include "target/stage_state.h"

namespace perfbench {

enum class Layer : unsigned {
  kCraft,           ///< attack: plaintext crafting (Crafter ctor + craft)
  kPredict,         ///< attack: pre-key nibble prediction
  kFinalize,        ///< target: key assembly + verification encryption
  kFinisherVerify,  ///< finisher: reference-cipher candidate verification
  kObserve,         ///< target/soc: platform observation calls
  kCount
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Accumulated span totals (nanoseconds) per layer.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kLayerCount> ns{};
  /// Part of ns covered by spans nested inside this layer's spans.
  std::array<std::uint64_t, kLayerCount> child_ns{};
  /// Time covered by outermost spans (the engine's children).
  std::uint64_t root_ns = 0;

  [[nodiscard]] std::uint64_t self_ns(Layer l) const noexcept {
    const auto i = static_cast<std::size_t>(l);
    return ns[i] - child_ns[i];
  }
  LayerTotals& operator+=(const LayerTotals& o) noexcept {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      calls[i] += o.calls[i];
      ns[i] += o.ns[i];
      child_ns[i] += o.child_ns[i];
    }
    root_ns += o.root_ns;
    return *this;
  }
};

class Tracer {
 public:
  static Tracer& instance() noexcept {
    static Tracer tracer;
    return tracer;
  }

  void reset() noexcept {
    totals_ = LayerTotals{};
    depth_ = 0;
  }
  [[nodiscard]] const LayerTotals& totals() const noexcept { return totals_; }

 private:
  friend class Span;
  static constexpr unsigned kMaxDepth = 8;

  LayerTotals totals_;
  /// open_child_ns_[d]: child time accumulated by the span open at depth d.
  std::array<std::uint64_t, kMaxDepth> open_child_ns_{};
  unsigned depth_ = 0;
};

/// RAII span: charges its duration to `layer` and to the enclosing span's
/// child time (or to the outermost-span total).
class Span {
 public:
  explicit Span(Layer layer) noexcept
      : layer_(static_cast<std::size_t>(layer)),
        start_(std::chrono::steady_clock::now()) {
    Tracer& t = Tracer::instance();
    if (t.depth_ < Tracer::kMaxDepth) t.open_child_ns_[t.depth_] = 0;
    ++t.depth_;
  }
  ~Span() {
    const auto d = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    Tracer& t = Tracer::instance();
    --t.depth_;
    LayerTotals& tot = t.totals_;
    ++tot.calls[layer_];
    tot.ns[layer_] += d;
    if (t.depth_ < Tracer::kMaxDepth) {
      tot.child_ns[layer_] += t.open_child_ns_[t.depth_];
    }
    if (t.depth_ == 0) {
      tot.root_ns += d;
    } else if (t.depth_ - 1 < Tracer::kMaxDepth) {
      t.open_child_ns_[t.depth_ - 1] += d;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t layer_;
  std::chrono::steady_clock::time_point start_;
};

/// Copies every RecoveryResult field between two Recovery instantiations
/// that share block, stage-key and segment/candidate shapes (R and
/// Traced<R>).
template <typename To, typename From>
grinch::target::RecoveryResult<To> convert_result(
    const grinch::target::RecoveryResult<From>& in) {
  grinch::target::RecoveryResult<To> out;
  out.success = in.success;
  out.key_verified = in.key_verified;
  out.stages_resolved = in.stages_resolved;
  out.recovered_key = in.recovered_key;
  out.total_encryptions = in.total_encryptions;
  out.offline_trials = in.offline_trials;
  out.stage_encryptions = in.stage_encryptions;
  out.stage_keys = in.stage_keys;
  out.noise_restarts = in.noise_restarts;
  out.dropped_observations = in.dropped_observations;
  out.segment_resets = in.segment_resets;
  out.verify_restarts = in.verify_restarts;
  out.failed_stage = in.failed_stage;
  out.surviving_masks = in.surviving_masks;
  out.residual_key_bits = in.residual_key_bits;
  out.stage_evidence.reserve(in.stage_evidence.size());
  for (const auto& e : in.stage_evidence) {
    out.stage_evidence.push_back({e.stage, e.assumed, e.masks, e.updates,
                                  e.presence});
  }
  out.known_pairs.reserve(in.known_pairs.size());
  for (const auto& p : in.known_pairs) {
    out.known_pairs.push_back({p.plaintext, p.ciphertext});
  }
  out.finisher = in.finisher;
  return out;
}

/// A Recovery whose attack hooks run inside spans; every other trait
/// (block type, cipher, stage counts, key canonicalisation) is R's.
template <typename R>
struct Traced : R {
  using Block = typename R::Block;
  using StageKey = typename R::StageKey;

  class Crafter {
   public:
    explicit Crafter(grinch::Xoshiro256& rng) : inner_(make(rng)) {}

    [[nodiscard]] Block craft(unsigned segment,
                              const std::vector<StageKey>& recovered,
                              unsigned stage) {
      const Span span{Layer::kCraft};
      return inner_.craft(segment, recovered, stage);
    }

   private:
    /// The inner crafter's precomputation (target-bit lists) is crafting
    /// work too; the span closes after the returned object is built.
    static typename R::Crafter make(grinch::Xoshiro256& rng) {
      const Span span{Layer::kCraft};
      return typename R::Crafter{rng};
    }

    typename R::Crafter inner_;
  };

  static auto pre_key_nibbles(Block plaintext,
                              const std::vector<StageKey>& known,
                              unsigned stage) {
    const Span span{Layer::kPredict};
    return R::pre_key_nibbles(plaintext, known, stage);
  }

  static bool finisher_verify(std::span<const StageKey> stage_keys,
                              std::span<const Block> pts,
                              std::span<const Block> cts,
                              grinch::Key128& key_out,
                              std::uint64_t& offline_trials) {
    const Span span{Layer::kFinisherVerify};
    return R::finisher_verify(stage_keys, pts, cts, key_out, offline_trials);
  }

  /// R::finalize takes RecoveryResult<R>&: copy the fields across, run
  /// it, and copy them back.
  static void finalize(grinch::target::RecoveryResult<Traced>& result,
                       grinch::target::ObservationSource<Block>& source,
                       grinch::Xoshiro256& rng, Block last_pt,
                       std::uint64_t last_ct) {
    const Span span{Layer::kFinalize};
    auto inner = convert_result<R>(result);
    R::finalize(inner, source, rng, last_pt, last_ct);
    result = convert_result<Traced>(inner);
  }
};

}  // namespace perfbench
