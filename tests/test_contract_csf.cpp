// Tests for the CSF-driven contraction path.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "contraction/contract.hpp"
#include "contraction/contract_csf.hpp"
#include "contraction/reference.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

SparseTensor rand_t(std::vector<index_t> dims, std::size_t nnz,
                    std::uint64_t seed) {
  GeneratorSpec s;
  s.dims = std::move(dims);
  s.nnz = nnz;
  s.seed = seed;
  return generate_random(s);
}

TEST(ContractCsf, MatchesCooPipeline) {
  const SparseTensor x = rand_t({12, 14, 16}, 500, 1);
  const SparseTensor y = rand_t({14, 16, 10}, 450, 2);
  const Modes cx{1, 2};
  const YPlan plan(y, {0, 1});
  const ContractResult coo = contract(x, plan, cx);
  const ContractResult csf = contract_csf(x, plan, cx);
  EXPECT_TRUE(SparseTensor::approx_equal(coo.z, csf.z, 1e-9));
  EXPECT_EQ(coo.stats.searches, csf.stats.searches);
  EXPECT_EQ(coo.stats.hits, csf.stats.hits);
  EXPECT_EQ(coo.stats.multiplies, csf.stats.multiplies);
}

TEST(ContractCsf, SweepOverModeCounts) {
  for (int m = 1; m <= 3; ++m) {
    PairedSpec ps;
    ps.x.dims = {10, 12, 9, 8};
    ps.x.nnz = 400;
    ps.x.seed = 10 + static_cast<std::uint64_t>(m);
    ps.y.dims = {10, 12, 9, 7};
    ps.y.nnz = 350;
    ps.y.seed = 20 + static_cast<std::uint64_t>(m);
    ps.num_contract_modes = m;
    const TensorPair pair = generate_contraction_pair(ps);
    Modes c;
    for (int k = 0; k < m; ++k) c.push_back(k);
    const YPlan plan(pair.y, c);
    const ContractResult r = contract_csf(pair.x, plan, c);
    const SparseTensor ref = contract_reference(pair.x, pair.y, c, c);
    EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9)) << m << "-mode";
  }
}

TEST(ContractCsf, NonLeadingContractModes) {
  const SparseTensor x = rand_t({7, 11, 9}, 300, 3);
  const SparseTensor y = rand_t({9, 8, 7}, 280, 4);
  const YPlan plan(y, {2, 0});
  const ContractResult r = contract_csf(x, plan, {0, 2});
  const SparseTensor ref = contract_reference(x, y, {0, 2}, {2, 0});
  EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9));
}

TEST(ContractCsf, DuplicateXCoordinatesAreMerged) {
  SparseTensor x({4, 4});
  x.append(std::vector<index_t>{1, 2}, 1.0);
  x.append(std::vector<index_t>{1, 2}, 2.0);  // duplicate: summed
  SparseTensor y({4, 5});
  y.append(std::vector<index_t>{2, 3}, 10.0);
  const YPlan plan(y, {0});
  const ContractResult r = contract_csf(x, plan, {1});
  ASSERT_EQ(r.z.nnz(), 1u);
  EXPECT_DOUBLE_EQ(r.z.value(0), 30.0);
}

TEST(ContractCsf, MultithreadedMatchesSequential) {
  const SparseTensor x = rand_t({20, 20, 15}, 900, 5);
  const SparseTensor y = rand_t({20, 20, 12}, 800, 6);
  const YPlan plan(y, {0, 1});
  ContractOptions o1;
  o1.num_threads = 1;
  ContractOptions o4;
  o4.num_threads = 4;
  const ContractResult a = contract_csf(x, plan, {0, 1}, o1);
  const ContractResult b = contract_csf(x, plan, {0, 1}, o4);
  EXPECT_TRUE(SparseTensor::approx_equal(a.z, b.z, 1e-12));
}

TEST(ContractCsf, EmptyXandValidation) {
  const SparseTensor y = rand_t({9, 8}, 50, 7);
  const YPlan plan(y, {0});
  const SparseTensor empty(std::vector<index_t>{9, 4});
  EXPECT_EQ(contract_csf(empty, plan, {0}).z.nnz(), 0u);
  const SparseTensor bad = rand_t({10, 4}, 10, 8);
  EXPECT_THROW((void)contract_csf(bad, plan, {0}), Error);
}

TEST(ContractCsf, UnsortedOutputOption) {
  const SparseTensor x = rand_t({15, 15}, 100, 9);
  const SparseTensor y = rand_t({15, 10}, 90, 10);
  const YPlan plan(y, {0});
  ContractOptions o;
  o.sort_output = false;
  const ContractResult r = contract_csf(x, plan, {1}, o);
  const ContractResult sorted = contract_csf(x, plan, {1});
  EXPECT_TRUE(SparseTensor::approx_equal(r.z, sorted.z, 1e-12));
}

}  // namespace
}  // namespace sparta
