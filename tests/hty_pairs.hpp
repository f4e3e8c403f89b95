// Test helper: HtY runs from (contract key, item) pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simd/swiss_table.hpp"

namespace sparta {

/// group_by_key() over `pairs` in their order, on one thread.
inline HtyRuns group_pairs(
    const std::vector<std::pair<lnkey_t, FreeItem>>& pairs) {
  return group_by_key(
      pairs.size(), 64, 1, {},
      [&](std::size_t b, std::size_t e,
          simd::KeyPos* keys, FreeItem* items) {
        for (std::size_t i = b; i < e; ++i) {
          keys[i] = {pairs[i].first, static_cast<std::uint32_t>(i)};
          items[i] = pairs[i].second;
        }
      });
}

}  // namespace sparta
