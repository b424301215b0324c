// Operand-power walk and its single-flight memo (paper §III-C5, Fig. 5).
//
// The data-aware weight-cell energy charges every cell for the power its
// actual operand value draws: a walk over every weight of the GEMM
// through the phase-shifter power model.  The walk calls power_mW once per
// distinct weight value, not per weight (quantized weights have at most
// 2^bits levels), so the model, and any AnalyticalPowerModel closure, must
// be pure.  The walk's result depends only on (weight content, P_pi,
// fidelity), none of which changes across the design points of a sweep,
// so a cost-matrix fill over many points would otherwise repeat the same
// walk once per (point, sub-arch, GEMM) miss.
//
// OperandPowerMemo stores each walk result under (content key, P_pi bit
// pattern, fidelity).  The content key is the caller's content
// fingerprint of the GEMM (core::gemm_fingerprint, which hashes the
// weight tensor byte for byte) — never a tensor address: tensors are
// mutable, and a rewritten tensor must miss.  The memo is single-flight:
// concurrent first lookups of one key wait for one walk instead of
// racing to run it, so stats().walks equals the number of distinct keys at
// any thread count.  Stored values are the walk's own double, so memoized and
// un-memoized energy are bit-identical.  The hit/miss/walk counts live on
// the memo itself, apart from the owning cache's counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "devlib/power_model.h"

namespace simphony::energy {

/// Mean phase-shifter power over `values` (normalized operands) at
/// `fidelity`: the un-memoized walk.  It sums in element order but calls
/// the power model once per distinct value (devlib::PowerModel::
/// mean_power_mW), which is exact because the model, like any
/// AnalyticalPowerModel closure, must be pure.
[[nodiscard]] double walk_mean_power_mW(double p_pi_mW,
                                        devlib::PowerFidelity fidelity,
                                        std::span<const float> values);

/// Thread-safe, single-flight memo of walk_mean_power_mW.  Lookups that
/// find a finished value allocate nothing.
class OperandPowerMemo {
 public:
  struct Stats {
    uint64_t hits = 0;    // lookups served from a finished walk
    uint64_t misses = 0;  // lookups that ran a walk or waited for one
    uint64_t walks = 0;   // walks run (== distinct keys seen)
  };

  OperandPowerMemo() = default;
  OperandPowerMemo(const OperandPowerMemo&) = delete;
  OperandPowerMemo& operator=(const OperandPowerMemo&) = delete;

  /// walk_mean_power_mW(p_pi_mW, fidelity, values), walked at most once
  /// per (content_key, p_pi_mW, fidelity).  `content_key` must identify
  /// `values` by content.  A walk that throws leaves the key unset; the
  /// next lookup walks again.
  [[nodiscard]] double mean_power_mW(uint64_t content_key, double p_pi_mW,
                                     devlib::PowerFidelity fidelity,
                                     std::span<const float> values);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] size_t size() const;
  /// Drops every entry and resets the counters.  A walk in flight still
  /// returns its value to its own callers.
  void clear();

 private:
  struct Key {
    uint64_t content = 0;
    uint64_t p_pi_bits = 0;
    devlib::PowerFidelity fidelity = devlib::PowerFidelity::kTabulated;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      const uint64_t p_pi = key.p_pi_bits * 0x9e3779b97f4a7c15ULL;
      const auto fidelity = static_cast<uint64_t>(key.fidelity);
      return static_cast<size_t>(key.content ^ p_pi ^ fidelity);
    }
  };
  /// One key's walk: `once` runs it, `ready` publishes `value`.  Shared
  /// so a waiter keeps its slot alive across a concurrent clear().
  struct Slot {
    std::once_flag once;
    std::atomic<bool> ready{false};
    double value = 0.0;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<Slot>, KeyHash> slots_;
  Stats stats_;
};

}  // namespace simphony::energy
