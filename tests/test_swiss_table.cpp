// Unit tests for the swiss-table HtY/HtA (simd/swiss_table.hpp):
// chained-table parity, tombstone lifecycle, full-group wraparound,
// exact HtY sizing, HtA growth, and the AllocationRegistry budget charge
// when contraction runs on the swiss paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
      c = r == 0   ? simd::kCtrlEmpty
          : r == 1 ? simd::kCtrlDeleted
                   : static_cast<std::uint8_t>(rng() & 0x7f);
    }
    const auto tag = static_cast<std::uint8_t>(rng() & 0x7f);
    const auto native = simd::detect_native_isa();
    EXPECT_EQ(simd::detail::group_match(ctrl, tag, simd::SimdIsa::kScalar),
              simd::detail::group_match(ctrl, tag, native));
    EXPECT_EQ(
        simd::detail::group_match_free(ctrl, simd::SimdIsa::kScalar),
        simd::detail::group_match_free(ctrl, native));
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

TEST(SwissAccumulator, EraseLeavesTombstoneAndDrainSkipsIt) {
  simd::SwissAccumulator acc(16);
  for (lnkey_t k = 0; k < 10; ++k) acc.accumulate(k, 1.0);
  EXPECT_TRUE(acc.erase(4));
  EXPECT_FALSE(acc.erase(4));   // already gone
  EXPECT_FALSE(acc.erase(99));  // never present
  EXPECT_EQ(acc.size(), 9u);
  std::map<lnkey_t, value_t> out;
  acc.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_EQ(out.size(), 9u);
  EXPECT_EQ(out.count(4), 0u);
}

TEST(SwissAccumulator, ProbeWalksPastTombstoneOnItsPath) {
  // A key whose probe path passed through a slot that is later erased
  // must still be found: tombstones terminate nothing.
  simd::SwissAccumulator acc(1);  // 2 groups of 16
  for (lnkey_t k = 0; k < 20; ++k) acc.accumulate(k * 77, 1.0);
  for (lnkey_t k = 0; k < 20; k += 2) EXPECT_TRUE(acc.erase(k * 77));
  for (lnkey_t k = 1; k < 20; k += 2) {
    acc.accumulate(k * 77, 1.0);  // now 2.0 — must find, not duplicate
  }
  std::map<lnkey_t, value_t> out;
  acc.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_EQ(out.size(), 10u);
  for (lnkey_t k = 1; k < 20; k += 2) {
    EXPECT_DOUBLE_EQ(out[k * 77], 2.0) << "key " << k * 77;
  }
}

TEST(SwissAccumulator, TombstoneSlotIsReused) {
  simd::SwissAccumulator acc(16);
  for (lnkey_t k = 0; k < 8; ++k) acc.accumulate(k, 1.0);
  const std::size_t buckets = acc.num_buckets();
  EXPECT_TRUE(acc.erase(3));
  // Erase + reinsert cycles must not inflate occupancy into a rehash.
  for (int cycle = 0; cycle < 100; ++cycle) {
    acc.accumulate(3, 1.0);
    EXPECT_TRUE(acc.erase(3));
  }
  EXPECT_EQ(acc.num_buckets(), buckets);
  EXPECT_EQ(acc.size(), 7u);
}

TEST(SwissAccumulator, GrowthDropsTombstonesAndKeepsValues) {
  simd::SwissAccumulator acc(1);
  std::map<lnkey_t, value_t> expected;
  Rng rng(23);
  for (int i = 0; i < 3000; ++i) {
    const lnkey_t key = rng() % 400;
    if (expected.count(key) != 0 && rng() % 3 == 0) {
      EXPECT_TRUE(acc.erase(key));
      expected.erase(key);
    } else {
      acc.accumulate(key, 1.0);
      expected[key] += 1.0;
    }
  }
  EXPECT_EQ(acc.size(), expected.size());
  std::map<lnkey_t, value_t> out;
  acc.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_EQ(out, expected);
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

TEST(SwissBudget, SwissContractionChargesAndRespectsBudget) {
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
  o.use_swiss_tables = true;

  // Generous budget: must succeed and report a nonzero charged HtY.
  o.budget.bytes = std::size_t{1} << 30;
  const ContractResult ok = contract(x, y, {1}, {0}, o);
  EXPECT_GT(ok.stats.hty_bytes, 0u);

  // Tiny budget: the swiss path must trip the same BudgetExceeded gates
  // as the chained one, not quietly allocate past the cap.
  o.budget.bytes = 1024;
  EXPECT_THROW((void)contract(x, y, {1}, {0}, o), BudgetExceeded);
}

}  // namespace
}  // namespace sparta
