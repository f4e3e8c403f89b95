// Hash-table-represented sparse tensor (HtY, paper §3.3).
//
// Maps an LN contract key to the dynamic array of (LN free key, value)
// pairs of all Y non-zeros sharing those contract indices. Every item
// lives in one flat array, each key's items in one contiguous run (the
// paper's "dynamic arrays to store the non-zeros having the same key",
// without a separate allocation per key). The table indexes the runs by
// separate chaining over a fixed power-of-two bucket count, stored
// CSR-style: bucket offsets over one array of {key, begin, count}
// entries.
//
// The runs come from one sort (group_by_key below) instead of the
// paper's locked per-item inserts (§3.5); YPlan drives the build and
// docs/ALGORITHMS.md records the deviation.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "hashtable/hash.hpp"
#include "obs/metrics.hpp"
#include "simd/sort.hpp"
#include "tensor/types.hpp"

namespace sparta {

/// One Y non-zero as seen by the accumulation stage: its free-mode LN key
/// and value.
struct FreeItem {
  lnkey_t free_key;
  value_t val;
};

/// One key's items: HtyRuns::items[begin, begin + count).
struct KeyRun {
  lnkey_t key;
  std::uint32_t begin;
  std::uint32_t count;
};

/// HtY's content in flat form: the items of each distinct key form one
/// contiguous run, in input order; `runs` ascend by key, one per key.
/// Both HtY tables are built from this (group_by_key makes it).
struct HtyRuns {
  std::vector<FreeItem> items;
  std::vector<KeyRun> runs;
  std::size_t max_run = 0;  ///< largest run: the paper's nnz_Fmax^Y
};

/// HtY's bulk build (paper §3.3 stage ①, sort-based) over `n` Y
/// non-zeros. fill(b, e, keys, items) writes, for each i in [b, e),
/// keys[i] = (a contract key, i) and items[i] = that non-zero's item.
/// The pairs are stably sorted by key, and items[position] is gathered
/// into one contiguous run per distinct key, in input order, so the
/// result is the same at any thread count. One
/// simd::sort_ln_pairs_team() runs the fill, the sort and the gather
/// (with the run starts found inside each sorted range) on `nthreads`
/// threads, or on one for small inputs (team_size()); the calling
/// thread then joins the ranges' runs in order. `key_bits` bounds the
/// keys' width; `cancel` is polled, and the `plan.build` failpoint
/// evaluated, before each block of the fill (and `sort.radix_pass` in
/// the sort).
template <typename Fill>
[[nodiscard]] HtyRuns group_by_key(std::size_t n, int key_bits, int nthreads,
                                   const CancelToken& cancel, Fill&& fill) {
  SPARTA_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
               "HtY holds at most 2^32 - 1 items, got " + std::to_string(n));
  std::vector<std::pair<lnkey_t, std::uint32_t>> keys(n);
  std::vector<FreeItem> items(n);
  HtyRuns out;
  out.items.resize(n);
  // Range d of the sort: its first pair, and how many pairs after it
  // start a run.
  std::array<std::size_t, 256> range_begin{};
  std::array<std::size_t, 256> range_starts{};
  std::array<bool, 256> visited{};
  simd::sort_ln_pairs_team(
      keys, key_bits, team_size(n, nthreads), cancel,
      [&](std::size_t b, std::size_t e) {
        SPARTA_FAILPOINT("plan.build");
        cancel.check("plan.build");
        fill(b, e, keys.data(), items.data());
      },
      // The pairs after the range's first that start a run go, in
      // order, into the range's own position slots, which the gather
      // has finished reading.
      [&](std::size_t d, std::size_t b, std::size_t e) {
        for (std::size_t j = b; j < e; ++j) {
          out.items[j] = items[keys[j].second];
        }
        std::size_t c = 0;
        for (std::size_t j = b + 1; j < e; ++j) {
          if (keys[j].first != keys[j - 1].first) {
            keys[b + c++].second = static_cast<std::uint32_t>(j);
          }
        }
        visited[d] = true;
        range_begin[d] = b;
        range_starts[d] = c;
      });
  items = {};  // freed before the runs are joined: lowers the peak

  std::size_t total = 0;
  for (std::size_t d = 0; d < 256; ++d) total += range_starts[d] + 1;
  out.runs.reserve(total);
  auto add_run = [&](std::size_t j) {
    out.runs.push_back({keys[j].first, static_cast<std::uint32_t>(j), 0});
  };
  for (std::size_t d = 0; d < 256; ++d) {
    if (!visited[d]) continue;
    const std::size_t b = range_begin[d];
    if (b == 0 || keys[b].first != keys[b - 1].first) add_run(b);
    for (std::size_t c = 0; c < range_starts[d]; ++c) {
      add_run(keys[b + c].second);
    }
  }
  // Each run ends where the next begins.
  for (std::size_t r = 0; r < out.runs.size(); ++r) {
    const std::size_t end =
        r + 1 < out.runs.size() ? out.runs[r + 1].begin : n;
    out.runs[r].count = static_cast<std::uint32_t>(end - out.runs[r].begin);
    out.max_run = std::max<std::size_t>(out.max_run, out.runs[r].count);
  }
  return out;
}

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
  std::vector<FreeItem> items_;
  std::size_t max_group_;
};

}  // namespace sparta
