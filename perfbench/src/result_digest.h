// Serializes every deterministic RecoveryResult field into a string, so
// two results (of R and Traced<R>, or of two repetitions) compare with ==.
// FinisherStats::wall_seconds and ::interrupted are host-time artefacts
// and are left out.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "target/stage_state.h"

namespace perfbench {

namespace detail {

template <typename T>
void append_bytes(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::has_unique_object_representations_v<T>,
                "digest fields must have no padding");
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  static constexpr char kHex[] = "0123456789abcdef";
  for (const unsigned char b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  out += ',';
}

inline void append_bytes(std::string& out, double value) {
  append_bytes(out, std::bit_cast<std::uint64_t>(value));
}

inline void append_bytes(std::string& out, bool value) {
  out += value ? "1," : "0,";
}

template <typename Range>
void append_range(std::string& out, const Range& range) {
  out += '[';
  for (const auto& v : range) append_bytes(out, v);
  out += ']';
}

}  // namespace detail

template <typename R>
std::string result_digest(const grinch::target::RecoveryResult<R>& r) {
  using detail::append_bytes;
  using detail::append_range;
  std::string out;
  append_bytes(out, r.success);
  append_bytes(out, r.key_verified);
  append_bytes(out, r.stages_resolved);
  append_bytes(out, r.recovered_key.hi);
  append_bytes(out, r.recovered_key.lo);
  append_bytes(out, r.total_encryptions);
  append_bytes(out, r.offline_trials);
  append_range(out, r.stage_encryptions);
  append_range(out, r.stage_keys);
  append_bytes(out, r.noise_restarts);
  append_bytes(out, r.dropped_observations);
  append_range(out, r.segment_resets);
  append_bytes(out, r.verify_restarts);
  append_bytes(out, r.failed_stage);
  append_range(out, r.surviving_masks);
  append_bytes(out, r.residual_key_bits);
  for (const auto& e : r.stage_evidence) {
    append_bytes(out, e.stage);
    append_bytes(out, e.assumed);
    append_range(out, e.masks);
    append_range(out, e.updates);
    for (const auto& row : e.presence) append_range(out, row);
  }
  out += '|';
  for (const auto& p : r.known_pairs) {
    append_bytes(out, p.plaintext);
    append_bytes(out, p.ciphertext);
  }
  out += '|';
  append_bytes(out, static_cast<std::uint8_t>(r.finisher.outcome));
  append_bytes(out, r.finisher.candidates_tested);
  append_bytes(out, r.finisher.rank);
  append_bytes(out, r.finisher.frontier_rank);
  append_bytes(out, r.finisher.offline_trials);
  append_bytes(out, r.finisher.search_space_bits);
  return out;
}

}  // namespace perfbench
