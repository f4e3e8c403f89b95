// Sparse accumulator (SPA) — the SpGEMM-style baseline (paper §3.2).
//
// A dynamic array of (free-index tuple, value) searched linearly on every
// accumulate: O(|SPA|) per update with multi-index tuple comparison.
// Deliberately faithful to Algorithm 1; simd::SwissAccumulator (the HtA)
// is the optimized replacement benchmarked against it.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/types.hpp"

namespace sparta {

class SpaAccumulator {
 public:
  /// `tuple_arity` = number of free Y modes stored per entry.
  explicit SpaAccumulator(std::size_t tuple_arity)
      : arity_(tuple_arity) {}

  /// Adds `v` to the entry whose tuple equals `key`, appending when
  /// absent. Linear search with element-wise tuple comparison.
  void accumulate(std::span<const index_t> key, value_t v) {
    const std::size_t n = vals_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (tuple_equals(i, key)) {
        count_scan(i + 1);
        vals_[i] += v;
        return;
      }
    }
    count_scan(n);
    keys_.insert(keys_.end(), key.begin(), key.end());
    vals_.push_back(v);
  }

  [[nodiscard]] std::size_t size() const { return vals_.size(); }
  [[nodiscard]] std::size_t arity() const { return arity_; }

  [[nodiscard]] std::span<const index_t> key(std::size_t i) const {
    return {keys_.data() + i * arity_, arity_};
  }
  [[nodiscard]] value_t value(std::size_t i) const { return vals_[i]; }

  [[nodiscard]] std::size_t footprint_bytes() const {
    return keys_.capacity() * sizeof(index_t) +
           vals_.capacity() * sizeof(value_t);
  }

  void clear() {
    SPARTA_COUNTER_ADD("spa.resets", 1);
    keys_.clear();
    vals_.clear();
  }

 private:
  // SPA linear-scan telemetry: accumulate count and total tuple
  // comparisons, exposing the O(|SPA|) cost Algorithm 1 pays per update.
  static void count_scan(std::size_t comparisons) {
    SPARTA_COUNTER_ADD("spa.accumulates", 1);
    SPARTA_COUNTER_ADD("spa.scan_steps", comparisons);
    SPARTA_HISTOGRAM_RECORD("spa.scan_len", comparisons);
  }

  bool tuple_equals(std::size_t i, std::span<const index_t> key) const {
    const index_t* stored = keys_.data() + i * arity_;
    for (std::size_t m = 0; m < arity_; ++m) {
      if (stored[m] != key[m]) return false;
    }
    return true;
  }

  std::size_t arity_;
  std::vector<index_t> keys_;  // arity_ entries per element, flattened
  std::vector<value_t> vals_;
};

}  // namespace sparta
