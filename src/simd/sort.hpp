// The LSD radix sort on linearized LN keys: stage ① (X's sorted copy,
// the COO variants' sorted Y, the HtY bulk build), stage ⑤ (each X
// sub-tensor's output), SparseTensor::sort and HiCOO's block order.
//
// Every tier is a STABLE sort by the full key, so all tiers produce the
// identical permutation (a stable sort's output is uniquely determined
// by its input) — duplicate-coordinate ties land in the same order no
// matter which ISA or how many threads ran, which is what lets
// `fuzz_sptc --isa-diff` demand bitwise-equal tensors.
//
// Three tiers, one result:
// * scalar (radix_sort_pairs): one histogram sweep per 8-bit digit,
//   then a stable scatter;
// * vector (ISA-dispatched): all digit histograms fused into a single
//   read sweep, which on wide cores hides the counting behind the
//   scatter's memory traffic;
// * team (sort_ln_pairs_team): one parallel stable scatter by the top
//   digit, then the team sorts the 256 buckets by the lower digits with
//   the scalar passes, each bucket small enough to stay in cache.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"

namespace sparta::simd {

/// Number of significant bits in `max_value` (at least 1).
[[nodiscard]] inline int significant_bits(std::uint64_t max_value) {
  int bits = 1;
  while (max_value >>= 1) ++bits;
  return bits;
}

namespace detail {

/// The scalar tier's passes on raw storage: sorts data[0, n) by .first,
/// stable, one 8-bit digit per pass over the low `key_bits` bits, with
/// tmp[0, n) as the second buffer. Passes whose digit all keys share
/// are skipped. Returns the buffer (data or tmp) holding the result.
template <typename Item>
Item* radix_passes(Item* data, Item* tmp, std::size_t n, int key_bits) {
  const int passes = (key_bits + 7) / 8;
  Item* src = data;
  Item* dst = tmp;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    std::array<std::size_t, 256> count{};
    for (std::size_t i = 0; i < n; ++i) {
      ++count[(src[i].first >> shift) & 0xff];
    }
    if (std::find(count.begin(), count.end(), n) != count.end()) continue;

    std::size_t running = 0;
    for (std::size_t& c : count) {
      const std::size_t v = c;
      c = running;
      running += v;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(src[i].first >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

/// Stable insertion sort by key — the shared small-n path. Identical
/// on every tier by construction.
template <typename Item>
void insertion_sort_pairs(Item* items, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    Item item = std::move(items[i]);
    std::size_t j = i;
    while (j > 0 && items[j - 1].first > item.first) {
      items[j] = std::move(items[j - 1]);
      --j;
    }
    items[j] = std::move(item);
  }
}

}  // namespace detail

/// The scalar tier: sorts `items` by .first ascending, stable, in
/// ceil(key_bits / 8) passes. `scratch` is resized to items.size() and
/// may be reused.
template <typename Payload>
void radix_sort_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                      int key_bits,
                      std::vector<std::pair<std::uint64_t, Payload>>& scratch) {
  const std::size_t n = items.size();
  if (n < 2) return;
  scratch.resize(n);
  const auto* sorted =
      detail::radix_passes(items.data(), scratch.data(), n, key_bits);
  if (sorted != items.data()) std::copy(sorted, sorted + n, items.data());
}

template <typename Payload>
void radix_sort_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                      int key_bits = 64) {
  std::vector<std::pair<std::uint64_t, Payload>> scratch;
  radix_sort_pairs(items, key_bits, scratch);
}

namespace detail {

/// LSD radix with fused histograms: one read pass computes the digit
/// counts for every pass, then each non-trivial pass is a pure stable
/// scatter. Same digit width, pass order, and trivial-pass skip as
/// radix_sort_pairs, so the two tiers are interchangeable.
template <typename Payload>
void radix_sort_pairs_fused(
    std::vector<std::pair<std::uint64_t, Payload>>& items, int key_bits,
    const CancelToken& cancel,
    std::vector<std::pair<std::uint64_t, Payload>>& scratch) {
  using Item = std::pair<std::uint64_t, Payload>;
  const std::size_t n = items.size();
  const int passes = (key_bits + 7) / 8;

  std::array<std::array<std::size_t, 256>, 8> count;
  for (int pass = 0; pass < passes; ++pass) {
    count[static_cast<std::size_t>(pass)].fill(0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = items[i].first;
    for (int pass = 0; pass < passes; ++pass) {
      ++count[static_cast<std::size_t>(pass)][(key >> (pass * 8)) & 0xff];
    }
  }

  scratch.resize(n);
  Item* src = items.data();
  Item* dst = scratch.data();
  for (int pass = 0; pass < passes; ++pass) {
    // One linear scatter pass (≤ 8 of them) between cancel polls.
    cancel.check("sort.radix_pass");
    auto& c = count[static_cast<std::size_t>(pass)];
    if (std::find(c.begin(), c.end(), n) != c.end()) continue;

    const int shift = pass * 8;
    std::size_t running = 0;
    for (std::size_t& v : c) {
      const std::size_t here = v;
      v = running;
      running += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[c[(src[i].first >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) {
    std::copy(src, src + n, items.data());
  }
}

}  // namespace detail

/// Below this size a stable insertion sort beats any radix setup; the
/// cutoff is shared across tiers so the dispatch never changes results.
inline constexpr std::size_t kRadixCutoff = 32;

/// Sorts `items` by .first ascending, stable, dispatching on
/// active_isa(). `key_bits` bounds the significant key width (at most
/// 64). `cancel` is polled once per radix pass (the scalar tier sorts
/// between two polls). `scratch` is the radix passes' second buffer; a
/// caller sorting many small runs passes one it reuses.
template <typename Payload>
void sort_ln_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                   int key_bits, const CancelToken& cancel,
                   std::vector<std::pair<std::uint64_t, Payload>>& scratch) {
  if (items.size() < 2) return;
  if (items.size() < kRadixCutoff) {
    detail::insertion_sort_pairs(items.data(), items.size());
    return;
  }
  SPARTA_COUNTER_ADD("simd.radix_sorts", 1);
  cancel.check("sort.radix_pass");
  if (active_isa() == SimdIsa::kScalar) {
    radix_sort_pairs(items, key_bits, scratch);
    cancel.check("sort.radix_pass");
  } else {
    detail::radix_sort_pairs_fused(items, key_bits, cancel, scratch);
  }
}

template <typename Payload>
void sort_ln_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                   int key_bits = 64, const CancelToken& cancel = {}) {
  std::vector<std::pair<std::uint64_t, Payload>> scratch;
  sort_ln_pairs(items, key_bits, cancel, scratch);
}

/// Pairs in one block of sort_ln_pairs_team()'s fill, count and
/// scatter loops.
inline constexpr std::size_t kBlockItems = 4096;

/// sort_ln_pairs() on a team of `team` threads, which callers size
/// with team_size(), fused with the passes that write the pairs and
/// read them back. fill(b, e) writes items[b, e); it runs once for each
/// kBlockItems block, just before the block is counted. visit(d, b, e)
/// runs once for each non-empty range [b, e) of a tiling of [0, n),
/// right after the range is sorted; d (below 256) grows with b. Ranges
/// are visited concurrently and in no fixed order, so visit must not
/// read outside its range's items. A team of one, or fewer than
/// kRadixCutoff items, fills every block in order, runs sort_ln_pairs()
/// and visits [0, n) as range 0.
///
/// On a team, one pass scatters the pairs by their top digit, the 8
/// highest of `key_bits`: the team counts each block, and every
/// (digit, block) is offset in block order, so the scatter is stable.
/// The team then sorts the 256 digit buckets, each a small
/// cache-resident range, by the bits below with the scalar passes, and
/// visits each. A stable partition followed by stable sorts of its
/// parts is a stable sort, so the output equals every serial tier's.
/// Every loop hands out blocks or buckets as threads come free, and the
/// whole sort is one parallel region with three barriers, so a thread
/// the OS deschedules holds the team up as little as it can. `cancel`
/// is polled before the scatter and before each bucket; a throw from
/// fill or visit stops the sort and is rethrown on the caller. The
/// caller's request id is re-established on the team.
template <typename Payload, typename Fill, typename Visit>
void sort_ln_pairs_team(std::vector<std::pair<std::uint64_t, Payload>>& items,
                        int key_bits, int team, const CancelToken& cancel,
                        Fill&& fill, Visit&& visit) {
  using Item = std::pair<std::uint64_t, Payload>;
  const std::size_t n = items.size();
  const auto nb = static_cast<std::ptrdiff_t>((n + kBlockItems - 1) /
                                              kBlockItems);
  auto block_begin = [](std::ptrdiff_t k) {
    return static_cast<std::size_t>(k) * kBlockItems;
  };
  auto block_end = [n](std::ptrdiff_t k) {
    return std::min(n, (static_cast<std::size_t>(k) + 1) * kBlockItems);
  };
  std::vector<Item> scratch;
  if (team <= 1 || n < kRadixCutoff) {
    for (std::ptrdiff_t k = 0; k < nb; ++k) fill(block_begin(k), block_end(k));
    sort_ln_pairs(items, key_bits, cancel, scratch);
    if (n > 0) visit(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  SPARTA_COUNTER_ADD("simd.radix_sorts", 1);
  cancel.check("sort.radix_pass");
  scratch.resize(n);
  const int shift = std::max(0, key_bits - 8);
  using Counts = std::array<std::size_t, 256>;
  // Digit counts of each block, then the block's scatter offsets.
  std::vector<Counts> counts(static_cast<std::size_t>(nb));
  std::array<std::size_t, 257> bucket;
  ExceptionCollector ec;
  const obs::Correlation corr = obs::current_correlation();
#pragma omp parallel num_threads(team)
  {
    obs::RequestIdScope rid_scope(corr);
    Item* const in = items.data();
    Item* const out = scratch.data();
#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t k = 0; k < nb; ++k) {
      ec.run([&] {
        fill(block_begin(k), block_end(k));
        Counts& c = counts[static_cast<std::size_t>(k)];
        c.fill(0);
        for (std::size_t i = block_begin(k); i < block_end(k); ++i) {
          ++c[(in[i].first >> shift) & 0xff];
        }
      });
    }
#pragma omp single
    if (!ec.failed()) {
      // Bucket d starts at bucket[d]; block k's keys with digit d go
      // after those of the earlier blocks.
      std::size_t running = 0;
      for (std::size_t d = 0; d < 256; ++d) {
        bucket[d] = running;
        for (Counts& c : counts) {
          const std::size_t v = c[d];
          c[d] = running;
          running += v;
        }
      }
      bucket[256] = running;
    }
#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t k = 0; k < nb; ++k) {
      ec.run([&] {
        Counts& offset = counts[static_cast<std::size_t>(k)];
        for (std::size_t i = block_begin(k); i < block_end(k); ++i) {
          out[offset[(in[i].first >> shift) & 0xff]++] = in[i];
        }
      });
    }
#pragma omp for schedule(dynamic, 1) nowait
    for (int d = 0; d < 256; ++d) {
      ec.run([&] {
        cancel.check("sort.radix_pass");
        const std::size_t b = bucket[static_cast<std::size_t>(d)];
        const std::size_t len = bucket[static_cast<std::size_t>(d) + 1] - b;
        if (len == 0) return;
        const Item* sorted = out + b;
        if (len < kRadixCutoff) {
          detail::insertion_sort_pairs(out + b, len);
        } else {
          sorted = detail::radix_passes(out + b, in + b, len, shift);
        }
        if (sorted != in + b) std::copy(sorted, sorted + len, in + b);
        visit(static_cast<std::size_t>(d), b, b + len);
      });
    }
  }
  ec.rethrow();
}

/// sort_ln_pairs_team() over pairs already written, visiting nothing.
template <typename Payload>
void sort_ln_pairs_team(std::vector<std::pair<std::uint64_t, Payload>>& items,
                        int key_bits, int team,
                        const CancelToken& cancel = {}) {
  sort_ln_pairs_team(
      items, key_bits, team, cancel, [](std::size_t, std::size_t) {},
      [](std::size_t, std::size_t, std::size_t) {});
}

}  // namespace sparta::simd
