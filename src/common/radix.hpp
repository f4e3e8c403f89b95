// LSD radix sort for (64-bit key, payload) pairs.
//
// The input-processing and output-sorting stages sort non-zeros by their
// LN key; since the key width is known (product of mode sizes), a radix
// sort does it in ceil(bits/8) linear passes instead of O(n log n)
// comparisons. Used by SparseTensor::sort() for large tensors;
// bench_ablation_sort measures the gain over the task-parallel
// quicksort.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace sparta {

/// Sorts `items` by .first ascending, stable. `key_bits` bounds the
/// significant key width (64 = full); passes above it are skipped.
/// `scratch` is resized to items.size() and may be reused across calls.
template <typename Payload>
void radix_sort_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                      int key_bits,
                      std::vector<std::pair<std::uint64_t, Payload>>& scratch) {
  using Item = std::pair<std::uint64_t, Payload>;
  const std::size_t n = items.size();
  if (n < 2) return;

  const int passes = (key_bits + 7) / 8;
  scratch.resize(n);
  Item* src = items.data();
  Item* dst = scratch.data();

  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    std::array<std::size_t, 256> count{};
    for (std::size_t i = 0; i < n; ++i) {
      ++count[(src[i].first >> shift) & 0xff];
    }
    // All keys share this byte: skip the copy pass entirely.
    bool trivial = false;
    for (std::size_t c : count) {
      if (c == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;

    std::size_t running = 0;
    for (int b = 0; b < 256; ++b) {
      const std::size_t c = count[static_cast<std::size_t>(b)];
      count[static_cast<std::size_t>(b)] = running;
      running += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(src[i].first >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) {
    std::copy(src, src + n, items.data());
  }
}

template <typename Payload>
void radix_sort_pairs(std::vector<std::pair<std::uint64_t, Payload>>& items,
                      int key_bits = 64) {
  std::vector<std::pair<std::uint64_t, Payload>> scratch;
  radix_sort_pairs(items, key_bits, scratch);
}

/// Number of significant bits in `max_value` (at least 1).
[[nodiscard]] inline int significant_bits(std::uint64_t max_value) {
  int bits = 1;
  while (max_value >>= 1) ++bits;
  return bits;
}

}  // namespace sparta
