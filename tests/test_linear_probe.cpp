// Tests for the open-addressing LinearProbeAccumulator and its use as
// Sparta's HtA.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "contraction/contract.hpp"
#include "hashtable/linear_probe.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

TEST(LinearProbe, AccumulatesByKey) {
  LinearProbeAccumulator a(8);
  a.accumulate(5, 1.5);
  a.accumulate(5, 2.5);
  a.accumulate(9, 1.0);
  EXPECT_EQ(a.size(), 2u);
  std::map<lnkey_t, value_t> out;
  a.drain([&](lnkey_t k, value_t v) { out[k] = v; });
  EXPECT_DOUBLE_EQ(out[5], 4.0);
  EXPECT_DOUBLE_EQ(out[9], 1.0);
}

TEST(LinearProbe, GrowsPastInitialCapacity) {
  LinearProbeAccumulator a(4);  // tiny: must grow many times
  for (lnkey_t k = 0; k < 10'000; ++k) a.accumulate(k, 1.0);
  EXPECT_EQ(a.size(), 10'000u);
  std::size_t visited = 0;
  a.drain([&](lnkey_t, value_t v) {
    EXPECT_DOUBLE_EQ(v, 1.0);
    ++visited;
  });
  EXPECT_EQ(visited, 10'000u);
}

TEST(LinearProbe, MatchesMapOracleOnRandomStream) {
  Rng rng(5);
  LinearProbeAccumulator a(64);
  std::map<lnkey_t, value_t> oracle;
  for (int i = 0; i < 50'000; ++i) {
    const lnkey_t k = rng.uniform(3000);
    const value_t v = rng.uniform_double(-1.0, 1.0);
    a.accumulate(k, v);
    oracle[k] += v;
  }
  EXPECT_EQ(a.size(), oracle.size());
  a.drain([&](lnkey_t k, value_t v) {
    ASSERT_TRUE(oracle.count(k));
    EXPECT_NEAR(v, oracle[k], 1e-9);
  });
}

TEST(LinearProbe, ClearRetainsCapacity) {
  LinearProbeAccumulator a(16);
  for (lnkey_t k = 0; k < 100; ++k) a.accumulate(k, 1.0);
  const std::size_t cap = a.num_buckets();
  a.clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.num_buckets(), cap);
  a.accumulate(7, 2.0);
  EXPECT_EQ(a.size(), 1u);
}

// clear() resets only the occupied slots, and the drain after it lists
// exactly the new entries, in insertion order, however large the table
// grew before.
TEST(LinearProbe, DrainAfterClearDependsOnlyOnNewEntries) {
  LinearProbeAccumulator grown(16);
  for (lnkey_t k = 0; k < 5000; ++k) grown.accumulate(k * 7919, 1.0);
  grown.clear();
  LinearProbeAccumulator fresh(16);
  const lnkey_t keys[] = {42, 3, 42, 1000003, 0, 3};
  for (const lnkey_t k : keys) {
    grown.accumulate(k, 0.5);
    fresh.accumulate(k, 0.5);
  }
  std::vector<std::pair<lnkey_t, value_t>> a, b;
  grown.drain([&](lnkey_t k, value_t v) { a.emplace_back(k, v); });
  fresh.drain([&](lnkey_t k, value_t v) { b.emplace_back(k, v); });
  EXPECT_EQ(a, b);
  const std::vector<std::pair<lnkey_t, value_t>> want{
      {42, 1.0}, {3, 1.0}, {1000003, 0.5}, {0, 0.5}};
  EXPECT_EQ(a, want);
}

TEST(LinearProbe, KeyZeroIsUsable) {
  // LN key 0 is a legal, common key (all-zero free indices).
  LinearProbeAccumulator a(8);
  a.accumulate(0, 1.0);
  a.accumulate(0, 2.0);
  EXPECT_EQ(a.size(), 1u);
  a.drain([&](lnkey_t k, value_t v) {
    EXPECT_EQ(k, 0u);
    EXPECT_DOUBLE_EQ(v, 3.0);
  });
}

TEST(LinearProbe, SpartaResultsIdenticalToChainedHta) {
  PairedSpec ps;
  ps.x.dims = {30, 25, 20};
  ps.x.nnz = 2000;
  ps.y.dims = {30, 25, 18};
  ps.y.nnz = 1800;
  ps.num_contract_modes = 1;
  ps.match_fraction = 0.8;
  const TensorPair pair = generate_contraction_pair(ps);

  ContractOptions chained;
  ContractOptions probed;
  probed.use_linear_probe_hta = true;
  const SparseTensor a = contract_tensor(pair.x, pair.y, {0}, {0}, chained);
  const SparseTensor b = contract_tensor(pair.x, pair.y, {0}, {0}, probed);
  EXPECT_TRUE(SparseTensor::approx_equal(a, b, 1e-9));
}

TEST(LinearProbe, SpartaMultithreadedProbeVariant) {
  PairedSpec ps;
  ps.x.dims = {40, 30};
  ps.x.nnz = 800;
  ps.y.dims = {40, 25};
  ps.y.nnz = 700;
  ps.num_contract_modes = 1;
  const TensorPair pair = generate_contraction_pair(ps);
  ContractOptions o;
  o.use_linear_probe_hta = true;
  o.num_threads = 4;
  ContractOptions ref;
  const SparseTensor a = contract_tensor(pair.x, pair.y, {0}, {0}, o);
  const SparseTensor b = contract_tensor(pair.x, pair.y, {0}, {0}, ref);
  EXPECT_TRUE(SparseTensor::approx_equal(a, b, 1e-9));
}

}  // namespace
}  // namespace sparta
