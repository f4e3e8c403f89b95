// The paper's chained HtY (§3.3), kept as a reference: the engine's HtY
// is simd::SwissYMap, and this table only serves the swiss-vs-chained
// probe gate (bench_simd_paths) and SwissYMap's parity test. No engine
// file includes it.
//
// Maps an LN contract key to the dynamic array of (LN free key, value)
// pairs of all Y non-zeros sharing those contract indices. Every item
// lives in one flat array, each key's items in one contiguous run (the
// paper's "dynamic arrays to store the non-zeros having the same key",
// without a separate allocation per key). The table indexes the runs by
// separate chaining over a fixed power-of-two bucket count, stored
// CSR-style: bucket offsets over one array of {key, begin, count}
// entries. It is built from the same HtyRuns as SwissYMap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hashtable/hash.hpp"
#include "obs/metrics.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/types.hpp"

namespace sparta {

class GroupedHashMap {
 public:
  /// Indexes `runs` by key. `expected_keys` sizes the bucket array
  /// (load factor ~1 at that many keys).
  GroupedHashMap(HtyRuns runs, std::size_t expected_keys)
      : bits_(bucket_bits_for(expected_keys)),
        items_(std::move(runs.items)),
        max_group_(runs.max_run) {
    const std::size_t nb = std::size_t{1} << bits_;
    // Counting sort of the runs into bucket order: count, inclusive
    // prefix sum (offsets_[b] = end of bucket b), then place back to
    // front so each bucket keeps ascending key order and offsets_[b]
    // ends at its start.
    offsets_.assign(nb + 1, 0);
    for (const KeyRun& r : runs.runs) ++offsets_[hash_ln(r.key, bits_)];
    for (std::size_t b = 1; b <= nb; ++b) offsets_[b] += offsets_[b - 1];
    entries_.resize(runs.runs.size());
    for (auto r = runs.runs.rbegin(); r != runs.runs.rend(); ++r) {
      entries_[--offsets_[hash_ln(r->key, bits_)]] = *r;
    }
    SPARTA_COUNTER_ADD("hty.inserts", items_.size());
  }

  /// Items for `key`, or an empty span when absent. O(chain length) key
  /// probes, each a single integer compare thanks to LN keys.
  [[nodiscard]] std::span<const FreeItem> find(lnkey_t key) const {
    const std::uint64_t b = hash_ln(key, bits_);
    const std::uint32_t first = offsets_[b];
    const std::uint32_t last = offsets_[b + 1];
    for (std::uint32_t e = first; e < last; ++e) {
      if (entries_[e].key == key) {
        count_probe(e - first + 1);
        return items_of(entries_[e]);
      }
    }
    count_probe(last - first);
    return {};
  }

  /// Number of distinct keys.
  [[nodiscard]] std::size_t num_keys() const { return entries_.size(); }

  /// Total items across all groups.
  [[nodiscard]] std::size_t num_items() const { return items_.size(); }

  /// Size of the largest group — the paper's nnz_Fmax^Y used by the HtA
  /// placement bound (Eq. 6).
  [[nodiscard]] std::size_t max_group_size() const { return max_group_; }

  [[nodiscard]] std::size_t num_buckets() const {
    return offsets_.size() - 1;
  }

  /// Measured heap footprint (bucket offsets + entries + items), the
  /// quantity Eq. 5 estimates for DRAM placement.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return offsets_.capacity() * sizeof(std::uint32_t) +
           entries_.capacity() * sizeof(KeyRun) +
           items_.capacity() * sizeof(FreeItem);
  }

  /// Visits every (key, items) group, bucket by bucket.
  template <typename F>
  void for_each_group(F&& f) const {
    for (const KeyRun& e : entries_) f(e.key, items_of(e));
  }

 private:
  [[nodiscard]] std::span<const FreeItem> items_of(const KeyRun& r) const {
    return {items_.data() + r.begin, r.count};
  }

  // HtY probe/collision telemetry (docs/OBSERVABILITY.md). Chain steps
  // beyond the first are collisions in the separate-chaining sense.
  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("hty.probes", 1);
    SPARTA_COUNTER_ADD("hty.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hty.probe_len", steps);
  }

  int bits_;
  /// Bucket b holds entries_[offsets_[b], offsets_[b + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<KeyRun> entries_;
  UninitVector<FreeItem> items_;
  std::size_t max_group_;
};

}  // namespace sparta
