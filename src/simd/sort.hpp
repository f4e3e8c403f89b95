// ISA-dispatched LSD radix sort on linearized LN keys — the stage-①
// (permute + sort X, and the HtY bulk build) and stage-⑤ (each X
// sub-tensor's output) kernel.
//
// Every tier is a STABLE sort by the full key, so all tiers produce the
// identical permutation (a stable sort's output is uniquely determined
// by its input) — duplicate-coordinate ties land in the same order no
// matter which ISA ran, which is what lets `fuzz_sptc --isa-diff`
// demand bitwise-equal tensors. This also replaces the previous
// unstable comparison-sort path for small inputs.
//
// The vector tier fuses all pass histograms into a single read sweep
// (one pass over 8n bytes instead of one per digit), which on wide
// cores hides the counting behind the scatter's memory traffic; the
// scalar tier is the existing per-pass radix_sort_pairs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/radix.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"

namespace sparta::simd {

namespace detail {

/// Stable insertion sort by key — the shared small-n path. Identical
/// on every tier by construction.
template <typename Payload>
void insertion_sort_pairs(
    std::vector<std::pair<std::uint64_t, Payload>>& items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    auto item = std::move(items[i]);
    std::size_t j = i;
    while (j > 0 && items[j - 1].first > item.first) {
      items[j] = std::move(items[j - 1]);
      --j;
    }
    items[j] = std::move(item);
  }
}

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
    bool trivial = false;
    for (std::size_t v : c) {
      if (v == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;

    const int shift = pass * 8;
    std::size_t running = 0;
    for (int b = 0; b < 256; ++b) {
      const std::size_t v = c[static_cast<std::size_t>(b)];
      c[static_cast<std::size_t>(b)] = running;
      running += v;
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
/// between two polls — its passes live in common/radix.hpp, which
/// stays cancellation-free). `scratch` is the radix passes' second
/// buffer; a caller sorting many small runs passes one it reuses.
template <typename Payload>
void sort_ln_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                   int key_bits, const CancelToken& cancel,
                   std::vector<std::pair<std::uint64_t, Payload>>& scratch) {
  if (items.size() < 2) return;
  if (items.size() < kRadixCutoff) {
    detail::insertion_sort_pairs(items);
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

}  // namespace sparta::simd
