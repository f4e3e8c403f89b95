// Hash-table-based sparse accumulator (HtA, paper §3.4).
//
// Thread-private: each worker owns one and accumulates the partial
// results of its X sub-tensor into it — no locking. Keys are the LN-
// compressed free indices of Y, pre-converted at HtY build time so no
// index-to-key conversion happens inside the hot loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hashtable/hash.hpp"
#include "obs/metrics.hpp"
#include "tensor/types.hpp"

namespace sparta {

class HashAccumulator {
 public:
  explicit HashAccumulator(std::size_t expected_keys = 64) {
    bits_ = bucket_bits_for(expected_keys);
    buckets_.resize(std::size_t{1} << bits_);
  }

  /// Adds `v` to the entry for `key`, inserting it when absent.
  void accumulate(lnkey_t key, value_t v) {
    const std::uint64_t b = hash_ln(key, bits_);
    auto& chain = buckets_[b];
    std::size_t steps = 0;
    for (Entry& e : chain) {
      ++steps;
      if (e.key == key) {
        count_probe(steps);
        e.val += v;
        return;
      }
    }
    count_probe(steps);
    if (chain.empty()) touched_.push_back(static_cast<std::uint32_t>(b));
    const std::size_t cap = chain.capacity();
    chain.push_back(Entry{key, v});
    chain_bytes_ += (chain.capacity() - cap) * sizeof(Entry);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }

  /// Heap footprint; the quantity bounded by Eq. 6 for DRAM placement.
  /// O(1): chain growth is tallied as entries are pushed.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return buckets_.capacity() * sizeof(buckets_[0]) + chain_bytes_ +
           touched_.capacity() * sizeof(touched_[0]);
  }

  /// Visits each (key, value) pair, bucket by bucket in the order the
  /// buckets first filled: an order fixed by the entries since the last
  /// clear() alone (the output sorting stage handles ordering). O(size).
  template <typename F>
  void drain(F&& f) const {
    for (const std::uint32_t b : touched_) {
      for (const Entry& e : buckets_[b]) f(e.key, e.val);
    }
  }

  /// Empties the accumulator but keeps the bucket array, so one HtA can
  /// be reused across the sub-tensors a thread processes. O(size): only
  /// the buckets filled since the last clear() are visited.
  void clear() {
    for (const std::uint32_t b : touched_) buckets_[b].clear();
    touched_.clear();
    size_ = 0;
  }

 private:
  // HtA probe-length telemetry; one branch when metrics are off.
  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("hta.accumulates", 1);
    SPARTA_COUNTER_ADD("hta.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hta.probe_len", steps);
  }

  struct Entry {
    lnkey_t key;
    value_t val;
  };

  int bits_ = 4;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint32_t> touched_;  // non-empty buckets, first-fill order
  std::size_t size_ = 0;
  std::size_t chain_bytes_ = 0;  // capacity of every chain, in bytes
};

}  // namespace sparta
