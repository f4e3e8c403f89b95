// Unit tests for the LSD radix sort (simd/sort.hpp): agreement with
// std::stable_sort (including stability on duplicate keys), runs sorted
// in place within a larger buffer, equivalence of the serial and team
// tiers, and the tensor sort/coalesce paths built on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "simd/sort.hpp"
#include "tensor/generators.hpp"
#include "tensor/sparse_tensor.hpp"

namespace sparta {
namespace {

using Item = std::pair<std::uint64_t, std::uint32_t>;

std::vector<Item> random_items(std::size_t n, int key_bits,
                               std::uint64_t seed) {
  const std::uint64_t mask = key_bits >= 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << key_bits) - 1;
  std::vector<Item> items;
  items.reserve(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    // Narrow key ranges guarantee duplicates, exercising stability.
    items.emplace_back(rng() & mask, static_cast<std::uint32_t>(i));
  }
  return items;
}

TEST(SimdSort, MatchesStableSortAcrossSizesAndKeyWidths) {
  for (const std::size_t n : {0ul, 1ul, 5ul, 31ul, 32ul, 1000ul, 50000ul}) {
    for (const int key_bits : {8, 20, 64}) {
      std::vector<Item> items = random_items(n, key_bits, 100 + n);
      std::vector<Item> expected = items;
      // The payload records input position, so stable-sorting by key
      // alone fixes the full expected sequence.
      std::stable_sort(
          expected.begin(), expected.end(),
          [](const Item& a, const Item& b) { return a.first < b.first; });
      simd::sort_ln_pairs(items, key_bits);
      EXPECT_EQ(items, expected) << "n=" << n << " key_bits=" << key_bits;
    }
  }
}

// Stage ⑤'s use: consecutive runs of one buffer, each sorted in place
// through the pointer entry point with one reused scratch buffer, equal
// run by run to a stable sort and untouched outside the run.
TEST(SimdSort, RunsSortInPlaceWithReusedScratch) {
  std::vector<Item> buffer = random_items(6000, 20, 11);
  std::vector<Item> expected = buffer;
  UninitVector<Item> scratch;
  std::size_t at = 0;
  for (const std::size_t len : {0ul, 1ul, 31ul, 32ul, 900ul, 40ul, 5000ul}) {
    const std::size_t n = std::min(len, buffer.size() - at);
    std::stable_sort(
        expected.begin() + static_cast<std::ptrdiff_t>(at),
        expected.begin() + static_cast<std::ptrdiff_t>(at + n),
        [](const Item& a, const Item& b) { return a.first < b.first; });
    simd::sort_ln_pairs(buffer.data() + at, n, 20, {}, scratch);
    at += n;
  }
  EXPECT_EQ(buffer, expected);
  EXPECT_GE(scratch.size(), 900u);
}

// simd::LnPair sorts like std::pair, and a buffer of them is left
// unwritten by resize().
TEST(SimdSort, LnPairsSortLikeStdPairs) {
  const std::vector<Item> items = random_items(3000, 24, 12);
  std::vector<Item> expected = items;
  simd::sort_ln_pairs(expected, 24);
  static_assert(std::is_trivially_default_constructible_v<simd::KeyPos>);
  UninitVector<simd::KeyPos> pairs;
  pairs.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    pairs[i] = {items[i].first, items[i].second};
  }
  simd::sort_ln_pairs(pairs, 24);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(pairs[i].first, expected[i].first) << i;
    ASSERT_EQ(pairs[i].second, expected[i].second) << i;
  }
}

TEST(SimdSort, FullWidthKeysSortCorrectly) {
  std::vector<Item> items;
  Rng rng(9);
  for (int i = 0; i < 4096; ++i) {
    items.emplace_back(rng(), static_cast<std::uint32_t>(i));
  }
  std::vector<Item> expected = items;
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const Item& a, const Item& b) { return a.first < b.first; });
  simd::sort_ln_pairs(items);  // default key_bits = 64
  EXPECT_EQ(items, expected);
}

TEST(SimdSort, AlreadySortedInputIsStable) {
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    items.emplace_back(i / 10, i);  // sorted keys, duplicate runs
  }
  std::vector<Item> expected = items;
  simd::sort_ln_pairs(items, 20);
  EXPECT_EQ(items, expected);
}

// The production consumer: SparseTensor::sort() routes LN-linearizable
// tensors through sort_ln_pairs.
TEST(SimdSort, TensorSortProducesLexicographicOrder) {
  GeneratorSpec spec;
  spec.dims = {40, 30, 20};
  spec.nnz = 5000;
  spec.seed = 5;
  SparseTensor t = generate_random(spec);
  t.sort();
  EXPECT_TRUE(t.is_sorted());
}

TEST(SimdSort, TensorSortIdenticalAcrossTiers) {
  // Hand-built with duplicate coordinates so coalesce() has ties to
  // merge (generate_random only emits distinct cells).
  SparseTensor a({50, 50});
  Rng rng(6);
  for (int i = 0; i < 8000; ++i) {
    const index_t c[2] = {static_cast<index_t>(rng() % 50),
                          static_cast<index_t>(rng() % 50)};
    a.append(c, rng.uniform_double(-1.0, 1.0));
  }
  SparseTensor b = a;
  {
    simd::ScopedIsaOverride force(simd::SimdIsa::kScalar);
    a.coalesce();
  }
  {
    simd::ScopedIsaOverride force(simd::detect_native_isa());
    b.coalesce();
  }
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t n = 0; n < a.nnz(); ++n) {
    for (int m = 0; m < a.order(); ++m) {
      ASSERT_EQ(a.index(n, m), b.index(n, m)) << "nonzero " << n;
    }
    ASSERT_EQ(a.value(n), b.value(n)) << "nonzero " << n;  // bitwise
  }
}

// --- the team tier -----------------------------------------------------

// Keys from `distinct` values only (0 = from the whole key width):
// heavy duplicates test stability across thread chunks.
std::vector<Item> keyed_items(std::size_t n, int key_bits,
                              std::uint64_t distinct, std::uint64_t seed) {
  std::vector<Item> items = random_items(n, key_bits, seed);
  if (distinct > 0) {
    for (Item& it : items) it.first %= distinct;
  }
  return items;
}

// The team sort is stable, so it equals the serial tier bit for bit,
// whatever the team size and the chunk boundaries it implies.
TEST(SimdSortTeam, MatchesSerialTierBitForBit) {
  for (const std::size_t n : {0ul, 1ul, 31ul, 32ul, 33ul, 4097ul, 100'000ul}) {
    for (const int key_bits : {1, 13, 27, 38, 64}) {
      for (const std::uint64_t distinct : {0ul, 3ul}) {
        const std::vector<Item> base =
            keyed_items(n, key_bits, distinct, 7 * n + key_bits);
        std::vector<Item> serial = base;
        simd::sort_ln_pairs(serial, key_bits);
        for (int team = 1; team <= 4; ++team) {
          std::vector<Item> got = base;
          simd::sort_ln_pairs_team(got, key_bits, team);
          EXPECT_EQ(got, serial) << "n=" << n << " key_bits=" << key_bits
                                 << " distinct=" << distinct
                                 << " team=" << team;
        }
      }
    }
  }
}

// fill writes each block once before the sort, visit sees each
// non-empty sorted range once, the ranges tile [0, n) in order of d,
// and team threads carry the caller's request id. A throw from fill or
// visit reaches the caller.
TEST(SimdSortTeam, FillsBlocksAndVisitsSortedRanges) {
  const std::size_t n = 50'000;
  const std::vector<Item> base = random_items(n, 27, 5);
  std::vector<Item> serial = base;
  simd::sort_ln_pairs(serial, 27);
  const obs::RequestIdScope rid(77);
  for (int team = 1; team <= 4; ++team) {
    std::vector<Item> got(n);
    std::vector<int> filled(n, 0);
    std::vector<int> visited(n, 0);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(256);
    std::atomic<int> misplaced{0};
    std::atomic<int> wrong_id{0};
    simd::sort_ln_pairs_team(
        got, 27, team, {},
        [&](std::size_t b, std::size_t e) {
          if (b % simd::kBlockItems != 0) ++misplaced;
          for (std::size_t i = b; i < e; ++i) {
            got[i] = base[i];
            ++filled[i];
          }
          if (obs::current_request_id() != 77) ++wrong_id;
        },
        [&](std::size_t d, std::size_t b, std::size_t e) {
          ranges[d] = {b, e};
          for (std::size_t i = b; i < e; ++i) {
            ++visited[i];
            if (got[i] != serial[i]) ++misplaced;
          }
          if (obs::current_request_id() != 77) ++wrong_id;
        });
    EXPECT_EQ(got, serial) << "team " << team;
    EXPECT_EQ(std::count(filled.begin(), filled.end(), 1),
              static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(std::count(visited.begin(), visited.end(), 1),
              static_cast<std::ptrdiff_t>(n));
    std::size_t next = 0;
    for (const auto& [b, e] : ranges) {
      if (e == 0) continue;
      EXPECT_EQ(b, next) << "team " << team;
      next = e;
    }
    EXPECT_EQ(next, n) << "team " << team;
    EXPECT_EQ(misplaced.load(), 0) << "team " << team;
    EXPECT_EQ(wrong_id.load(), 0) << "team " << team;
  }
  for (const int team : {1, 4}) {
    std::vector<Item> items(n);
    EXPECT_THROW(simd::sort_ln_pairs_team(
                     items, 27, team, {},
                     [](std::size_t b, std::size_t) {
                       if (b > 30'000) throw Error("fill");
                     },
                     [](std::size_t, std::size_t, std::size_t) {}),
                 Error);
    EXPECT_THROW(simd::sort_ln_pairs_team(
                     items, 27, team, {}, [](std::size_t, std::size_t) {},
                     [](std::size_t, std::size_t, std::size_t) {
                       throw Error("visit");
                     }),
                 Error);
  }
}

// A cancel observed before the scatter, or at any bucket's poll inside
// the team region, reaches the caller as Cancelled.
TEST(SimdSortTeam, CancelUnwinds) {
  for (const std::uint64_t at : {1ul, 2ul, 40ul}) {
    std::vector<Item> items = random_items(50'000, 40, 3);
    const CancelToken cancel = CancelToken::make();
    cancel.arm_after_checks(at);
    EXPECT_THROW(simd::sort_ln_pairs_team(items, 40, 4, cancel), Cancelled)
        << "cancel at check " << at;
  }
}

// --- the serial tier ---------------------------------------------------

TEST(RadixSort, MatchesStdSort) {
  Rng rng(21);
  for (const int bits : {8, 24, 48, 64}) {
    std::vector<std::pair<std::uint64_t, std::size_t>> v(20'000);
    const std::uint64_t mask =
        bits >= 64 ? ~0ull : (1ull << bits) - 1;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = {rng() & mask, i};
    auto expect = v;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    simd::sort_ln_pairs(v, bits);
    EXPECT_EQ(v, expect) << bits << " bits";
  }
}

TEST(RadixSort, IsStable) {
  // Duplicate keys with distinct payloads keep their input order.
  std::vector<std::pair<std::uint64_t, int>> v;
  for (int i = 0; i < 100; ++i) {
    v.emplace_back(static_cast<std::uint64_t>(i % 3), i);
  }
  simd::sort_ln_pairs(v, 8);
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1].first == v[i].first) {
      EXPECT_LT(v[i - 1].second, v[i].second);
    }
  }
}

TEST(RadixSort, EdgeCases) {
  std::vector<std::pair<std::uint64_t, int>> empty;
  simd::sort_ln_pairs(empty);
  std::vector<std::pair<std::uint64_t, int>> one{{5, 0}};
  simd::sort_ln_pairs(one);
  EXPECT_EQ(one[0].first, 5u);
  // All-equal keys: every pass is trivial and skipped.
  std::vector<std::pair<std::uint64_t, int>> same(1000, {7, 1});
  simd::sort_ln_pairs(same);
  EXPECT_EQ(same.front().first, 7u);
}

TEST(RadixSort, SignificantBits) {
  EXPECT_EQ(simd::significant_bits(0), 1);
  EXPECT_EQ(simd::significant_bits(1), 1);
  EXPECT_EQ(simd::significant_bits(255), 8);
  EXPECT_EQ(simd::significant_bits(256), 9);
  EXPECT_EQ(simd::significant_bits(~0ull), 64);
}

}  // namespace
}  // namespace sparta
