// Unit tests for the swiss-table HtY/HtA (simd/swiss_table.hpp):
// chained-table parity, full-group wraparound, exact HtY sizing, HtA
// growth and insertion-order drain, and the AllocationRegistry budget
// charge of a contraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "contraction/contract.hpp"
#include "hashtable/grouped_map.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/generators.hpp"
#include "hty_pairs.hpp"

namespace sparta {
namespace {

// --- group_match primitives ----------------------------------------

TEST(SwissGroup, MatchMaskAgreesAcrossTiers) {
  std::uint8_t ctrl[simd::kGroupWidth];
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& c : ctrl) {
      const std::uint64_t r = rng() % 4;
      c = r == 0 ? simd::kCtrlEmpty
                 : static_cast<std::uint8_t>(rng() & 0x7f);
    }
    const auto tag = static_cast<std::uint8_t>(rng() & 0x7f);
    const auto native = simd::detect_native_isa();
    for (const std::uint8_t want : {tag, simd::kCtrlEmpty}) {
      EXPECT_EQ(
          simd::detail::group_match(ctrl, want, simd::SimdIsa::kScalar),
          simd::detail::group_match(ctrl, want, native));
    }
  }
}

TEST(SwissGroup, MaskBitsIdentifySlots) {
  std::uint8_t ctrl[simd::kGroupWidth];
  std::fill(std::begin(ctrl), std::end(ctrl), simd::kCtrlEmpty);
  ctrl[3] = 0x42;
  ctrl[9] = 0x42;
  ctrl[15] = 0x42;
  const std::uint32_t m =
      simd::detail::group_match(ctrl, 0x42, simd::detect_native_isa());
  EXPECT_EQ(m, (1u << 3) | (1u << 9) | (1u << 15));
}

// --- SwissYMap ------------------------------------------------------

TEST(SwissYMap, ParityWithGroupedHashMap) {
  Rng rng(3);
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  for (int i = 0; i < 2000; ++i) {
    const lnkey_t key = rng() % 500;  // plenty of multi-item groups
    pairs.push_back({key, FreeItem{rng() % 97, static_cast<value_t>(i)}});
  }
  const GroupedHashMap chained(group_pairs(pairs), 256);
  const simd::SwissYMap swiss(group_pairs(pairs));
  EXPECT_EQ(swiss.num_keys(), chained.num_keys());
  EXPECT_EQ(swiss.num_items(), chained.num_items());
  EXPECT_EQ(swiss.max_group_size(), chained.max_group_size());
  for (lnkey_t key = 0; key < 600; ++key) {
    const auto a = chained.find(key);
    const auto b = swiss.find(key);
    ASSERT_EQ(a.size(), b.size()) << "key " << key;
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Per-key input order is preserved by both tables.
      EXPECT_EQ(a[i].free_key, b[i].free_key);
      EXPECT_EQ(a[i].val, b[i].val);
    }
  }
}

TEST(SwissYMap, MissReturnsEmptySpan) {
  const simd::SwissYMap t(group_pairs({{42, FreeItem{1, 1.0}}}));
  EXPECT_TRUE(t.find(41).empty());
  EXPECT_TRUE(t.find(43).empty());
  EXPECT_EQ(t.find(42).size(), 1u);
}

TEST(SwissYMap, FullGroupWrapsToNextGroup) {
  // 28 keys fill the smallest table (2 groups of 16 at 7/8 load), so
  // probes run past full groups (including the wrap from the last
  // group back to group 0).
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  for (lnkey_t k = 0; k < 28; ++k) {
    pairs.push_back({k * 1000003, FreeItem{k, static_cast<value_t>(k)}});
  }
  const simd::SwissYMap t(group_pairs(pairs));
  ASSERT_EQ(t.num_buckets(), 32u);
  EXPECT_EQ(t.num_keys(), 28u);
  for (lnkey_t k = 0; k < 28; ++k) {
    const auto items = t.find(k * 1000003);
    ASSERT_EQ(items.size(), 1u) << "key index " << k;
    EXPECT_EQ(items[0].free_key, k);
  }
}

TEST(SwissYMap, SizedExactlyFromDistinctKeys) {
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  std::map<lnkey_t, std::size_t> expected;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const lnkey_t key = rng() % 1500;
    pairs.push_back({key, FreeItem{key, 1.0}});
    ++expected[key];
  }
  const simd::SwissYMap t(group_pairs(pairs));
  // The smallest power-of-two slot count holding every key at ≤ 7/8
  // load: the table is sized once and never grows.
  const std::size_t keys = expected.size();
  EXPECT_LE(keys * 8, t.num_buckets() * 7);
  EXPECT_GT(keys * 16, t.num_buckets() * 7);
  EXPECT_EQ(t.num_keys(), keys);
  std::map<lnkey_t, std::size_t> seen;
  t.for_each_group([&](lnkey_t key, std::span<const FreeItem> items) {
    seen[key] = items.size();
  });
  EXPECT_EQ(seen, expected);
}

TEST(SwissYMap, FootprintCoversSlotsAndItems) {
  const simd::SwissYMap empty(HtyRuns{});
  EXPECT_GT(empty.footprint_bytes(), 0u);
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  for (lnkey_t k = 0; k < 64; ++k) pairs.push_back({k, FreeItem{k, 1.0}});
  const simd::SwissYMap t(group_pairs(pairs));
  EXPECT_GT(t.footprint_bytes(), empty.footprint_bytes());
}

// --- SwissAccumulator -----------------------------------------------

TEST(SwissAccumulator, AccumulatesDuplicateKeys) {
  simd::SwissAccumulator acc(16);
  acc.accumulate(7, 1.5);
  acc.accumulate(7, 2.5);
  acc.accumulate(9, 1.0);
  EXPECT_EQ(acc.size(), 2u);
  std::map<lnkey_t, value_t> out;
  acc.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_DOUBLE_EQ(out[7], 4.0);
  EXPECT_DOUBLE_EQ(out[9], 1.0);
}

TEST(SwissAccumulator, MatchesMapOracleOnRandomStream) {
  Rng rng(99);
  simd::SwissAccumulator acc(64);
  std::map<lnkey_t, value_t> oracle;
  for (int i = 0; i < 50'000; ++i) {
    const lnkey_t k = rng.uniform(2000);
    const value_t v = rng.uniform_double(-1.0, 1.0);
    acc.accumulate(k, v);
    oracle[k] += v;
  }
  EXPECT_EQ(acc.size(), oracle.size());
  acc.drain([&](lnkey_t k, value_t v) {
    ASSERT_TRUE(oracle.count(k));
    EXPECT_NEAR(v, oracle[k], 1e-9);
  });
}

// Growth re-enters every entry (from the smallest table, 2 groups, to
// thousands of keys), and the largest and smallest LN keys are
// ordinary keys.
TEST(SwissAccumulator, GrowsAndKeepsEveryKey) {
  simd::SwissAccumulator acc(1);
  const std::size_t first = acc.num_buckets();
  constexpr lnkey_t kMax = std::numeric_limits<lnkey_t>::max();
  for (lnkey_t k = 0; k < 5000; ++k) acc.accumulate(k * 7919, 1.0);
  acc.accumulate(kMax, 2.0);
  acc.accumulate(0, 1.0);
  EXPECT_GT(acc.num_buckets(), first);
  EXPECT_EQ(acc.size(), 5001u);
  std::map<lnkey_t, value_t> out;
  acc.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[kMax], 2.0);
  EXPECT_DOUBLE_EQ(out[7919 * 4999], 1.0);
}

// drain() lists entries in insertion order, whatever the table's size:
// a table that grew and was cleared drains a new stream exactly as a
// fresh table does, and as the stream's first-appearance order.
TEST(SwissAccumulator, DrainsInInsertionOrderAfterGrowAndClear) {
  simd::SwissAccumulator grown(16);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) grown.accumulate(rng.uniform(100'000), 1.0);
  grown.clear();
  EXPECT_EQ(grown.size(), 0u);
  grown.drain([](lnkey_t, value_t) { ADD_FAILURE() << "entry after clear"; });
  simd::SwissAccumulator fresh(16);
  std::vector<lnkey_t> first_seen;
  std::map<lnkey_t, value_t> sums;
  for (int i = 0; i < 200; ++i) {
    const lnkey_t k = rng.uniform(500);
    const value_t v = rng.uniform_double(-1.0, 1.0);
    if (sums.count(k) == 0) first_seen.push_back(k);
    sums[k] += v;
    grown.accumulate(k, v);
    fresh.accumulate(k, v);
  }
  EXPECT_GT(grown.num_buckets(), fresh.num_buckets());
  std::vector<std::pair<lnkey_t, value_t>> a, b;
  grown.drain([&](lnkey_t k, value_t v) { a.emplace_back(k, v); });
  fresh.drain([&](lnkey_t k, value_t v) { b.emplace_back(k, v); });
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), first_seen.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, first_seen[i]);
    EXPECT_EQ(a[i].second, sums[first_seen[i]]);
  }
}

TEST(SwissAccumulator, ClearKeepsCapacity) {
  simd::SwissAccumulator acc(16);
  for (lnkey_t k = 0; k < 100; ++k) acc.accumulate(k, 1.0);
  const std::size_t buckets = acc.num_buckets();
  acc.clear();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.num_buckets(), buckets);
  acc.accumulate(5, 2.0);
  EXPECT_EQ(acc.size(), 1u);
}

// --- budget integration ---------------------------------------------

TEST(SwissBudget, ContractionChargesAndRespectsBudget) {
  GeneratorSpec xs;
  xs.dims = {30, 30};
  xs.nnz = 800;
  xs.seed = 1;
  GeneratorSpec ys;
  ys.dims = {30, 30};
  ys.nnz = 800;
  ys.seed = 2;
  const SparseTensor x = generate_random(xs);
  const SparseTensor y = generate_random(ys);

  ContractOptions o;
  o.algorithm = Algorithm::kSparta;

  // Generous budget: must succeed and report a nonzero charged HtY.
  o.budget.bytes = std::size_t{1} << 30;
  const ContractResult ok = contract(x, y, {1}, {0}, o);
  EXPECT_GT(ok.stats.hty_bytes, 0u);

  // Tiny budget: the swiss tables must trip the BudgetExceeded gates,
  // not quietly allocate past the cap.
  o.budget.bytes = 1024;
  EXPECT_THROW((void)contract(x, y, {1}, {0}, o), BudgetExceeded);
}

}  // namespace
}  // namespace sparta
