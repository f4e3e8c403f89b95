// The LSD radix sort on linearized LN keys: stage ① (X's sorted copy,
// the COO variants' sorted Y, the HtY bulk build), stage ⑤ (each X
// sub-tensor's run, in place in Z_local), SparseTensor::sort and
// HiCOO's block order.
//
// Both tiers are a STABLE sort by the full key, so they produce the
// identical permutation (a stable sort's output is uniquely determined
// by its input) — duplicate-coordinate ties land in the same order
// however many threads ran, which is what lets `fuzz_sptc --isa-diff`
// demand bitwise-equal tensors. Neither depends on the ISA.
//
// Two tiers, one result:
// * serial (sort_ln_pairs): one histogram sweep per 8-bit digit, then
//   a stable scatter, on any range of pairs — a whole buffer, or one
//   run of a larger one;
// * team (sort_ln_pairs_team): one parallel stable scatter by the top
//   digit, then the team sorts the 256 buckets by the lower digits with
//   the serial passes, each bucket small enough to stay in cache.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/parallel.hpp"
#include "common/uninit_vector.hpp"
#include "obs/metrics.hpp"

namespace sparta::simd {

/// A (LN key, payload) pair. Unlike std::pair it is trivially
/// default-constructible when its payload is, so an UninitVector of
/// them is allocated without a zero fill.
template <typename Payload>
struct LnPair {
  std::uint64_t first;
  Payload second;
  friend bool operator==(const LnPair&, const LnPair&) = default;
};

/// (LN key, row position): the pairs stage ①'s sorts order.
using KeyPos = LnPair<std::uint32_t>;

/// Number of significant bits in `max_value` (at least 1).
[[nodiscard]] inline int significant_bits(std::uint64_t max_value) {
  int bits = 1;
  while (max_value >>= 1) ++bits;
  return bits;
}

namespace detail {

/// The serial tier's passes on raw storage: sorts data[0, n) by .first,
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

/// Stable insertion sort by key — the shared small-n path.
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

/// Below this size a stable insertion sort beats any radix setup.
inline constexpr std::size_t kRadixCutoff = 32;

/// The serial tier: sorts items[0, n) by .first ascending, stable, in
/// ceil(key_bits / 8) passes (`key_bits` at most 64). `cancel` is
/// polled before and after the passes. `scratch`, a vector of Item, is
/// the passes' second buffer and grows to n; a caller sorting many runs
/// passes one it reuses.
template <typename Item, typename Scratch>
void sort_ln_pairs(Item* items, std::size_t n, int key_bits,
                   const CancelToken& cancel, Scratch& scratch) {
  if (n < 2) return;
  if (n < kRadixCutoff) {
    detail::insertion_sort_pairs(items, n);
    return;
  }
  SPARTA_COUNTER_ADD("simd.radix_sorts", 1);
  cancel.check("sort.radix_pass");
  if (scratch.size() < n) scratch.resize(n);
  const Item* sorted = detail::radix_passes(items, scratch.data(), n, key_bits);
  if (sorted != items) std::copy(sorted, sorted + n, items);
  cancel.check("sort.radix_pass");
}

/// sort_ln_pairs() over a whole vector, with a scratch buffer of its own.
template <typename Item, typename Alloc>
void sort_ln_pairs(std::vector<Item, Alloc>& items, int key_bits = 64,
                   const CancelToken& cancel = {}) {
  UninitVector<Item> scratch;
  sort_ln_pairs(items.data(), items.size(), key_bits, cancel, scratch);
}

/// Pairs in one block of sort_ln_pairs_team()'s fill, count and
/// scatter loops.
inline constexpr std::size_t kBlockItems = 4096;

/// sort_ln_pairs() on a team of `team` threads, which callers size
/// with team_size(), fused with the passes that write the pairs and
/// read them back. `items` holds n pairs, which fill(b, e) writes:
/// items[b, e), once for each kBlockItems block, just before the block
/// is counted, so the team touches the buffer first. visit(d, b, e)
/// runs once for each non-empty range [b, e) of a tiling of [0, n),
/// right after the range is sorted; d (below 256) grows with b. Ranges
/// are visited concurrently and in no fixed order, so visit must not
/// read outside its range's items. A team of one, or fewer than
/// kRadixCutoff items, fills every block in order, runs sort_ln_pairs()
/// and visits [0, n) as range 0. The scratch buffer is allocated
/// without a zero fill; the scatter writes it first.
///
/// On a team, one pass scatters the pairs by their top digit, the 8
/// highest of `key_bits`: the team counts each block, and every
/// (digit, block) is offset in block order, so the scatter is stable.
/// The team then sorts the 256 digit buckets, each a small
/// cache-resident range, by the bits below with the serial passes, and
/// visits each. A stable partition followed by stable sorts of its
/// parts is a stable sort, so the output equals every serial tier's.
/// Every loop hands out blocks or buckets as threads come free, and the
/// whole sort is one parallel region with three barriers, so a thread
/// the OS deschedules holds the team up as little as it can. `cancel`
/// is polled before the scatter and before each bucket; a throw from
/// fill or visit stops the sort and is rethrown on the caller. The
/// caller's request id is re-established on the team.
template <typename Item, typename Alloc, typename Fill, typename Visit>
void sort_ln_pairs_team(std::vector<Item, Alloc>& items, int key_bits,
                        int team, const CancelToken& cancel, Fill&& fill,
                        Visit&& visit) {
  const std::size_t n = items.size();
  const auto nb = static_cast<std::ptrdiff_t>((n + kBlockItems - 1) /
                                              kBlockItems);
  auto block_begin = [](std::ptrdiff_t k) {
    return static_cast<std::size_t>(k) * kBlockItems;
  };
  auto block_end = [n](std::ptrdiff_t k) {
    return std::min(n, (static_cast<std::size_t>(k) + 1) * kBlockItems);
  };
  UninitVector<Item> scratch;
  if (team <= 1 || n < kRadixCutoff) {
    for (std::ptrdiff_t k = 0; k < nb; ++k) fill(block_begin(k), block_end(k));
    sort_ln_pairs(items.data(), n, key_bits, cancel, scratch);
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
template <typename Item, typename Alloc>
void sort_ln_pairs_team(std::vector<Item, Alloc>& items, int key_bits,
                        int team, const CancelToken& cancel = {}) {
  sort_ln_pairs_team(
      items, key_bits, team, cancel, [](std::size_t, std::size_t) {},
      [](std::size_t, std::size_t, std::size_t) {});
}

}  // namespace sparta::simd
