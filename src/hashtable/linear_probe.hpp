// Open-addressing (linear-probing) sparse accumulator — the "more
// advanced hash algorithms" direction the paper's §6 points at for its
// chained tables. One flat array, no per-entry allocation, cache-line
// friendly probes; grows at 70% load.
//
// Drop-in alternative to HashAccumulator (same accumulate/drain/clear
// surface); ContractOptions::use_linear_probe_hta switches Sparta's
// accumulation onto it, and bench_ablation_accumulator compares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "hashtable/hash.hpp"
#include "obs/metrics.hpp"
#include "tensor/types.hpp"

namespace sparta {

class LinearProbeAccumulator {
 public:
  explicit LinearProbeAccumulator(std::size_t expected_keys = 64) {
    bits_ = bucket_bits_for(expected_keys * 2);  // headroom for 0.5 load
    slots_.assign(std::size_t{1} << bits_, Slot{});
  }

  void accumulate(lnkey_t key, value_t v) {
    SPARTA_ASSERT(key != kEmpty);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_ln(key, bits_);
    std::size_t steps = 1;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        count_probe(steps);
        s.val += v;
        return;
      }
      if (s.key == kEmpty) {
        count_probe(steps);
        s.key = key;
        s.val = v;
        used_.push_back(static_cast<std::uint32_t>(i));
        if (used_.size() * 10 > slots_.size() * 7) grow();
        return;
      }
      i = (i + 1) & mask;
      ++steps;
    }
  }

  [[nodiscard]] std::size_t size() const { return used_.size(); }
  [[nodiscard]] bool empty() const { return used_.empty(); }
  [[nodiscard]] std::size_t num_buckets() const { return slots_.size(); }

  [[nodiscard]] std::size_t footprint_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           used_.capacity() * sizeof(used_[0]);
  }

  /// Visits each (key, value) pair in insertion order. O(size).
  template <typename F>
  void drain(F&& f) const {
    for (const std::uint32_t i : used_) f(slots_[i].key, slots_[i].val);
  }

  /// Empties the table, keeping its capacity for reuse. O(size): only
  /// the occupied slots are reset.
  void clear() {
    for (const std::uint32_t i : used_) slots_[i].key = kEmpty;
    used_.clear();
  }

 private:
  // The LN key space never reaches 2^64 - 1 (LinearIndexer rejects
  // overflow), so the max value is a safe empty sentinel.
  static constexpr lnkey_t kEmpty = std::numeric_limits<lnkey_t>::max();

  struct Slot {
    lnkey_t key = kEmpty;
    value_t val = 0;
  };

  // Same counter names as HashAccumulator: both are "the HtA", and the
  // ablation bench compares their probe behaviour under one metric.
  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("hta.accumulates", 1);
    SPARTA_COUNTER_ADD("hta.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hta.probe_len", steps);
  }

  // Rehashes in insertion order, so used_ keeps that order.
  void grow() {
    SPARTA_COUNTER_ADD("hta.grows", 1);
    SPARTA_CHECK(bits_ < 32, "linear-probe table exceeds 2^32 slots");
    std::vector<Slot> old;
    old.swap(slots_);
    ++bits_;
    slots_.assign(std::size_t{1} << bits_, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t& u : used_) {
      const Slot& s = old[u];
      std::size_t i = hash_ln(s.key, bits_);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
      u = static_cast<std::uint32_t>(i);
    }
  }

  int bits_ = 4;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;  // occupied slots, insertion order
};

}  // namespace sparta
