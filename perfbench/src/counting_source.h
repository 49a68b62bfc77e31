// ObservationSource decorator that counts and times every observation call
// into the platform it wraps.
//
// It forwards each ObservationSource method to the wrapped platform
// unchanged — observations, batches, wide batches and ciphertexts are
// bit-identical to calling the platform directly — and records how many
// calls of each kind were made and how many victim encryptions they ran.
// That includes speculative encryptions the engine later discards, so
// (consumed encryptions) / encryptions is the speculation yield.  Each call
// runs inside a Layer::kObserve span.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "target/observation.h"
#include "trace.h"

namespace perfbench {

struct ObserveCounts {
  std::uint64_t observe_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t wide_calls = 0;
  /// Victim encryptions executed by the calls above.
  std::uint64_t encryptions = 0;

  [[nodiscard]] std::uint64_t calls() const noexcept {
    return observe_calls + batch_calls + wide_calls;
  }
  ObserveCounts& operator+=(const ObserveCounts& o) noexcept {
    observe_calls += o.observe_calls;
    batch_calls += o.batch_calls;
    wide_calls += o.wide_calls;
    encryptions += o.encryptions;
    return *this;
  }
};

template <typename Block>
class CountingSource final : public grinch::target::ObservationSource<Block> {
 public:
  explicit CountingSource(grinch::target::ObservationSource<Block>& inner)
      : inner_(&inner) {}

  grinch::target::Observation observe(Block plaintext,
                                      unsigned stage) override {
    ++counts_.observe_calls;
    ++counts_.encryptions;
    const Span span{Layer::kObserve};
    return inner_->observe(plaintext, stage);
  }

  void observe_batch(std::span<const Block> plaintexts, unsigned stage,
                     grinch::target::ObservationBatch& out) override {
    ++counts_.batch_calls;
    counts_.encryptions += plaintexts.size();
    const Span span{Layer::kObserve};
    inner_->observe_batch(plaintexts, stage, out);
  }

  void observe_wide(std::span<const Block> plaintexts, unsigned stage,
                    grinch::target::WideObservationBatch& out) override {
    ++counts_.wide_calls;
    counts_.encryptions += plaintexts.size();
    const Span span{Layer::kObserve};
    inner_->observe_wide(plaintexts, stage, out);
  }

  void focus_segment(unsigned segment) override {
    inner_->focus_segment(segment);
  }
  [[nodiscard]] const grinch::target::TableLayout& layout() const override {
    return inner_->layout();
  }
  [[nodiscard]] std::vector<unsigned> index_line_ids() const override {
    return inner_->index_line_ids();
  }
  [[nodiscard]] Block last_ciphertext() const override {
    return inner_->last_ciphertext();
  }

  [[nodiscard]] const ObserveCounts& counts() const noexcept {
    return counts_;
  }

 private:
  grinch::target::ObservationSource<Block>* inner_;
  ObserveCounts counts_;
};

}  // namespace perfbench
