// Unit tests for the LN-keyed hash structures: the chained reference
// HtY (GroupedHashMap), HtY's bulk build (group_by_key) and the SPA
// baseline (SpaAccumulator). The swiss HtY and HtA are covered by
// test_swiss_table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hashtable/grouped_map.hpp"
#include "hashtable/hash.hpp"
#include "hashtable/spa.hpp"
#include "hty_pairs.hpp"

namespace sparta {
namespace {

// --- hash helpers -----------------------------------------------------

TEST(Hash, BucketBitsCoverRequest) {
  EXPECT_EQ(bucket_bits_for(1), 4);
  EXPECT_EQ(bucket_bits_for(16), 4);
  EXPECT_EQ(bucket_bits_for(17), 5);
  EXPECT_EQ(bucket_bits_for(1 << 20), 20);
}

TEST(Hash, HashStaysInRange) {
  Rng rng(1);
  for (int bits = 4; bits <= 20; bits += 4) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(hash_ln(rng(), bits), std::uint64_t{1} << bits);
    }
  }
}

TEST(Hash, SequentialKeysSpreadAcrossBuckets) {
  // LN keys are often consecutive integers; Fibonacci hashing must not
  // pile them into one bucket.
  constexpr int kBits = 8;
  std::vector<int> counts(1 << kBits, 0);
  for (lnkey_t k = 0; k < 4096; ++k) ++counts[hash_ln(k, kBits)];
  const int max_load = *std::max_element(counts.begin(), counts.end());
  EXPECT_LT(max_load, 64);  // 16 expected; allow generous slack
}

// --- GroupedHashMap ----------------------------------------------------

TEST(GroupedHashMap, FindOnEmptyReturnsEmpty) {
  const GroupedHashMap m(HtyRuns{}, 16);
  EXPECT_TRUE(m.find(42).empty());
  EXPECT_EQ(m.num_keys(), 0u);
  EXPECT_EQ(m.num_items(), 0u);
}

TEST(GroupedHashMap, GroupsItemsByKey) {
  const GroupedHashMap m(
      group_pairs({{7, {100, 1.0}}, {7, {101, 2.0}}, {9, {200, 3.0}}}),
      16);
  EXPECT_EQ(m.num_keys(), 2u);
  EXPECT_EQ(m.num_items(), 3u);
  EXPECT_EQ(m.max_group_size(), 2u);

  const auto g7 = m.find(7);
  ASSERT_EQ(g7.size(), 2u);
  EXPECT_EQ(g7[0].free_key, 100u);
  EXPECT_DOUBLE_EQ(g7[1].val, 2.0);
  EXPECT_EQ(m.find(9).size(), 1u);
  EXPECT_TRUE(m.find(8).empty());
}

TEST(GroupedHashMap, HandlesBucketCollisions) {
  // One bucket (2^4 = 16 buckets min) with many distinct keys: chains
  // must keep every key distinct.
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  for (lnkey_t k = 0; k < 200; ++k) pairs.push_back({k, {k * 10, 1.0}});
  const GroupedHashMap m(group_pairs(pairs), 1);
  EXPECT_EQ(m.num_buckets(), 16u);
  EXPECT_EQ(m.num_keys(), 200u);
  for (lnkey_t k = 0; k < 200; ++k) {
    const auto g = m.find(k);
    ASSERT_EQ(g.size(), 1u) << "key " << k;
    EXPECT_EQ(g[0].free_key, k * 10);
  }
}

TEST(GroupedHashMap, RunsKeepInputOrderUnderHeavyKeySharing) {
  // Interleaved keys: each key's run must hold its items in the order
  // they were given, every item exactly once.
  constexpr std::size_t kN = 20'000;
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  for (std::size_t i = 0; i < kN; ++i) {
    pairs.push_back({static_cast<lnkey_t>(i % 997),
                     {static_cast<lnkey_t>(i), 1.0}});
  }
  const GroupedHashMap m(group_pairs(pairs), kN / 4);
  EXPECT_EQ(m.num_items(), kN);
  EXPECT_EQ(m.num_keys(), 997u);

  std::vector<int> seen(kN, 0);
  m.for_each_group([&](lnkey_t key, std::span<const FreeItem> items) {
    for (std::size_t j = 0; j < items.size(); ++j) {
      ASSERT_LT(items[j].free_key, kN);
      EXPECT_EQ(items[j].free_key % 997, key);
      if (j > 0) {
        EXPECT_LT(items[j - 1].free_key, items[j].free_key);
      }
      ++seen[items[j].free_key];
    }
  });
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(GroupedHashMap, FootprintGrowsWithContent) {
  const GroupedHashMap empty(HtyRuns{}, 1024);
  std::vector<std::pair<lnkey_t, FreeItem>> pairs;
  for (lnkey_t k = 0; k < 5000; ++k) pairs.push_back({k, {k, 1.0}});
  const GroupedHashMap full(group_pairs(pairs), 1024);
  EXPECT_GT(full.footprint_bytes(), empty.footprint_bytes());
}

// group_by_key on a team: above the team cutoff, 1 and 4 threads give
// the same runs and items, equal to a stable grouping by key.
TEST(GroupByKey, SameRunsAtOneAndFourThreads) {
  const std::size_t n = 100'000;
  Rng rng(17);
  std::vector<simd::KeyPos> keys(n);
  std::vector<FreeItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = {rng.uniform(3000), static_cast<std::uint32_t>(i)};
    items[i] = {rng.uniform(1u << 20), rng.uniform_double(-1.0, 1.0)};
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a].first < keys[b].first;
                   });
  auto fill = [&](std::size_t b, std::size_t e,
                  simd::KeyPos* k, FreeItem* it) {
    std::copy(keys.begin() + b, keys.begin() + e, k + b);
    std::copy(items.begin() + b, items.begin() + e, it + b);
  };
  const HtyRuns one = group_by_key(n, 12, 1, {}, fill);
  const HtyRuns four = group_by_key(n, 12, 4, {}, fill);
  ASSERT_EQ(one.items.size(), n);
  ASSERT_EQ(four.items.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    const FreeItem& want = items[order[j]];
    for (const HtyRuns* r : {&one, &four}) {
      ASSERT_EQ(r->items[j].free_key, want.free_key) << j;
      ASSERT_EQ(std::memcmp(&r->items[j].val, &want.val, sizeof(value_t)), 0)
          << j;
    }
  }
  ASSERT_EQ(one.runs.size(), four.runs.size());
  std::size_t next = 0;
  for (std::size_t r = 0; r < one.runs.size(); ++r) {
    EXPECT_EQ(one.runs[r].key, four.runs[r].key);
    EXPECT_EQ(one.runs[r].begin, four.runs[r].begin);
    EXPECT_EQ(one.runs[r].count, four.runs[r].count);
    EXPECT_EQ(one.runs[r].begin, next);
    EXPECT_EQ(one.runs[r].key, keys[order[next]].first);
    next += one.runs[r].count;
  }
  EXPECT_EQ(next, n);
  EXPECT_EQ(one.max_run, four.max_run);
}

// --- SpaAccumulator ----------------------------------------------------

TEST(SpaAccumulator, AccumulatesByTuple) {
  SpaAccumulator spa(2);
  spa.accumulate(std::vector<index_t>{0, 3}, 1.0);
  spa.accumulate(std::vector<index_t>{0, 3}, 2.0);
  spa.accumulate(std::vector<index_t>{1, 0}, 5.0);
  ASSERT_EQ(spa.size(), 2u);
  EXPECT_DOUBLE_EQ(spa.value(0), 3.0);
  EXPECT_EQ(spa.key(0)[1], 3u);
  EXPECT_DOUBLE_EQ(spa.value(1), 5.0);
}

TEST(SpaAccumulator, DistinguishesTuplesSharingPrefix) {
  SpaAccumulator spa(3);
  spa.accumulate(std::vector<index_t>{1, 2, 3}, 1.0);
  spa.accumulate(std::vector<index_t>{1, 2, 4}, 2.0);
  EXPECT_EQ(spa.size(), 2u);
}

TEST(SpaAccumulator, MatchesMapOracle) {
  Rng rng(3);
  SpaAccumulator spa(2);
  std::map<std::pair<index_t, index_t>, value_t> oracle;
  std::vector<index_t> key(2);
  for (int i = 0; i < 2000; ++i) {
    key[0] = static_cast<index_t>(rng.uniform(20));
    key[1] = static_cast<index_t>(rng.uniform(20));
    const value_t v = rng.uniform_double(-1.0, 1.0);
    spa.accumulate(key, v);
    oracle[{key[0], key[1]}] += v;
  }
  ASSERT_EQ(spa.size(), oracle.size());
  for (std::size_t i = 0; i < spa.size(); ++i) {
    const auto k = std::make_pair(spa.key(i)[0], spa.key(i)[1]);
    EXPECT_NEAR(spa.value(i), oracle[k], 1e-9);
  }
}

TEST(SpaAccumulator, ZeroArityActsAsScalar) {
  // |F_Y| = 0: every accumulate targets the single empty-tuple slot.
  SpaAccumulator spa(0);
  spa.accumulate({}, 1.0);
  spa.accumulate({}, 2.0);
  EXPECT_EQ(spa.size(), 1u);
  EXPECT_DOUBLE_EQ(spa.value(0), 3.0);
}

}  // namespace
}  // namespace sparta
