// Tests for the failpoint framework (common/failpoint.hpp) and the
// exception-safety of the parallel contraction stages under injection.
#include <gtest/gtest.h>

#include <atomic>
#include <new>

#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "contraction/contract.hpp"
#include "contraction/plan.hpp"
#include "contraction/reference.hpp"
#include "memsim/allocator.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

// Every test leaves the process-global registry clean.
struct FailpointTest : ::testing::Test {
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FailpointTest, DisarmedSiteIsANoOp) {
  EXPECT_NO_THROW(failpoint::evaluate("contract.input"));
  EXPECT_EQ(failpoint::hit_count("contract.input"), 0u);
}

TEST_F(FailpointTest, ArmedSiteThrowsItsAction) {
  failpoint::arm("contract.input", {failpoint::Action::kBadAlloc, 1, 1});
  EXPECT_THROW(failpoint::evaluate("contract.input"), std::bad_alloc);
  // times=1: exhausted after the first firing.
  EXPECT_NO_THROW(failpoint::evaluate("contract.input"));
  EXPECT_EQ(failpoint::fire_count("contract.input"), 1u);
  EXPECT_EQ(failpoint::hit_count("contract.input"), 2u);
}

TEST_F(FailpointTest, FireOnSkipsEarlierHits) {
  failpoint::arm("x", {failpoint::Action::kError, /*fire_on=*/3, 1});
  EXPECT_NO_THROW(failpoint::evaluate("x"));
  EXPECT_NO_THROW(failpoint::evaluate("x"));
  EXPECT_THROW(failpoint::evaluate("x"), Error);
}

TEST_F(FailpointTest, UnlimitedTimesKeepsFiring) {
  failpoint::arm("x", {failpoint::Action::kBudget, 1, /*times=*/0});
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(failpoint::evaluate("x"), BudgetExceeded);
  }
}

TEST_F(FailpointTest, SpecGrammarRoundTrips) {
  std::string err;
  ASSERT_TRUE(failpoint::arm_from_spec(
      "contract.search=bad_alloc@2;plan.build=errorx2", &err))
      << err;
  // @2: the first hit of contract.search passes, the second throws.
  EXPECT_NO_THROW(failpoint::evaluate("contract.search"));
  EXPECT_THROW(failpoint::evaluate("contract.search"), std::bad_alloc);
  // x2: plan.build throws twice, then stays silent.
  EXPECT_THROW(failpoint::evaluate("plan.build"), Error);
  EXPECT_THROW(failpoint::evaluate("plan.build"), Error);
  EXPECT_NO_THROW(failpoint::evaluate("plan.build"));
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  std::string err;
  EXPECT_FALSE(failpoint::arm_from_spec("noequals", &err));
  EXPECT_FALSE(failpoint::arm_from_spec("a=frobnicate", &err));
  EXPECT_FALSE(failpoint::arm_from_spec("a=error@zero", &err));
  EXPECT_FALSE(failpoint::arm_from_spec("a=errorx0", &err));
}

TensorPair small_pair(std::uint64_t seed) {
  PairedSpec ps;
  ps.x.dims = {12, 10, 8};
  ps.x.nnz = 300;
  ps.x.seed = seed;
  ps.y.dims = {12, 10, 9};
  ps.y.nnz = 300;
  ps.y.seed = seed + 1;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.7;
  return generate_contraction_pair(ps);
}

// A fault inside any stage's parallel region must surface as the thrown
// exception on the calling thread — not std::terminate — and leave the
// engine reusable.
TEST_F(FailpointTest, StageFaultsPropagateAcrossParallelRegions) {
  const TensorPair pair = small_pair(7);
  const Modes c{0, 1};
  AllocationRegistry reg;  // so the budget.charge site sees traffic
  ContractOptions o;
  o.num_threads = 4;
  o.registry = &reg;

  for (const char* site : failpoint::kContractSites) {
    failpoint::disarm_all();
    failpoint::arm(site, {failpoint::Action::kBadAlloc, 1, /*times=*/0});
    EXPECT_THROW((void)contract(pair.x, pair.y, c, c, o), std::bad_alloc)
        << site;
  }

  // Disarmed again: the very same inputs contract cleanly and correctly.
  failpoint::disarm_all();
  const SparseTensor z = contract_tensor(pair.x, pair.y, c, c, o);
  const SparseTensor ref = contract_reference(pair.x, pair.y, c, c);
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

TEST_F(FailpointTest, PlanBuildFaultDoesNotTerminate) {
  const TensorPair pair = small_pair(11);
  failpoint::arm("plan.build", {failpoint::Action::kError, 1, 1});
  EXPECT_THROW(YPlan(pair.y, Modes{0, 1}), Error);
  // One-shot: the retry succeeds.
  EXPECT_NO_THROW(YPlan(pair.y, Modes{0, 1}));
}

// parallel_sort funnels comparator exceptions through the task tree.
TEST_F(FailpointTest, ParallelSortRethrowsComparatorException) {
  std::vector<int> v(100000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<int>((i * 2654435761u) % 1000003u);
  }
  std::atomic<int> calls{0};
  EXPECT_THROW(parallel_sort(v.begin(), v.end(),
                             [&](int a, int b) {
                               if (calls.fetch_add(1) == 5000) {
                                 throw Error("comparator fault");
                               }
                               return a < b;
                             }),
               Error);
}

TEST_F(FailpointTest, ValidateRejectsContradictoryOptions) {
  ContractOptions o;
  o.num_threads = -1;
  EXPECT_THROW(o.validate(), Error);

  o = {};
  o.budget.bytes = 1 << 20;
  o.budget.preflight = false;
  o.budget.runtime = false;
  EXPECT_THROW(o.validate(), Error);

  o = {};
  o.budget.bytes = 1 << 20;
  o.ablation_shared_writeback = true;
  EXPECT_THROW(o.validate(), Error);

  o = {};
  EXPECT_NO_THROW(o.validate());

  // And the entry point calls it.
  const TensorPair pair = small_pair(13);
  ContractOptions bad;
  bad.num_threads = -3;
  EXPECT_THROW((void)contract(pair.x, pair.y, Modes{0, 1}, Modes{0, 1}, bad),
               Error);
}

}  // namespace
}  // namespace sparta
