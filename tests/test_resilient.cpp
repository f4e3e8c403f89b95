// Tests for the graceful-degradation ladder (contraction/resilient.hpp):
// rung order, report contents, chunked fallback correctness, and the
// guarantee that failures surface as sparta::Error — never bad_alloc or
// std::terminate.
#include <gtest/gtest.h>

#include <new>

#include "common/failpoint.hpp"
#include "contraction/contract.hpp"
#include "contraction/reference.hpp"
#include "contraction/resilient.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

struct ResilientTest : ::testing::Test {
  void TearDown() override { failpoint::disarm_all(); }
};

TensorPair make_pair(std::uint64_t seed, std::size_t nnz = 400) {
  PairedSpec ps;
  ps.x.dims = {14, 12, 10};
  ps.x.nnz = nnz;
  ps.x.seed = seed;
  ps.y.dims = {14, 12, 11};
  ps.y.nnz = nnz;
  ps.y.seed = seed + 1;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.7;
  return generate_contraction_pair(ps);
}

TEST_F(ResilientTest, CleanRunServesRequestedAlgorithmUndegraded) {
  const TensorPair p = make_pair(3);
  const Modes c{0, 1};
  const ResilientResult rr = contract_resilient(p.x, p.y, c, c);
  ASSERT_EQ(rr.report.attempts.size(), 1u);
  EXPECT_FALSE(rr.report.degraded());
  EXPECT_TRUE(rr.report.serving().succeeded);
  EXPECT_EQ(rr.report.serving().algorithm, Algorithm::kSparta);
  EXPECT_EQ(rr.report.serving().chunks, 1u);

  const SparseTensor ref = contract_reference(p.x, p.y, c, c);
  EXPECT_TRUE(SparseTensor::approx_equal(rr.result.z, ref, 1e-9));
}

TEST_F(ResilientTest, GenerousBudgetDoesNotDegrade) {
  const TensorPair p = make_pair(5);
  const Modes c{0, 1};
  ContractOptions o;
  o.budget.bytes = std::size_t{1} << 30;  // 1 GiB: far above any footprint
  const ResilientResult rr = contract_resilient(p.x, p.y, c, c, o);
  EXPECT_FALSE(rr.report.degraded());
  const SparseTensor ref = contract_reference(p.x, p.y, c, c);
  EXPECT_TRUE(SparseTensor::approx_equal(rr.result.z, ref, 1e-9));
}

// plan.build only runs for the HtY algorithm, so killing it exercises
// exactly one ladder step: HtY+HtA -> COOY+HtA.
TEST_F(ResilientTest, PlanFaultDegradesOneRung) {
  const TensorPair p = make_pair(7);
  const Modes c{0, 1};
  failpoint::arm("plan.build",
                 {failpoint::Action::kBadAlloc, 1, /*times=*/0});

  const ResilientResult rr = contract_resilient(p.x, p.y, c, c);
  ASSERT_EQ(rr.report.attempts.size(), 2u);
  EXPECT_TRUE(rr.report.degraded());
  EXPECT_FALSE(rr.report.attempts[0].succeeded);
  EXPECT_EQ(rr.report.attempts[0].algorithm, Algorithm::kSparta);
  EXPECT_FALSE(rr.report.attempts[0].error.empty());
  EXPECT_EQ(rr.report.serving().algorithm, Algorithm::kCooHta);
  EXPECT_TRUE(rr.report.serving().succeeded);

  failpoint::disarm_all();
  const SparseTensor ref = contract_reference(p.x, p.y, c, c);
  EXPECT_TRUE(SparseTensor::approx_equal(rr.result.z, ref, 1e-9));
}

// contract.input's first hit in each contract() call comes before
// stage ①'s parallel passes (which hit it again, once per thread), and
// each firing aborts the call at that first hit. So "fail the first
// three hits" deterministically burns the three whole-tensor rungs and
// lands on the chunked fallback.
TEST_F(ResilientTest, ChunkedFallbackMatchesReference) {
  const TensorPair p = make_pair(11);
  const Modes c{0, 1};
  failpoint::arm("contract.input",
                 {failpoint::Action::kBadAlloc, /*fire_on=*/1, /*times=*/3});

  const ResilientResult rr = contract_resilient(p.x, p.y, c, c);
  EXPECT_TRUE(rr.report.degraded());
  EXPECT_TRUE(rr.report.serving().succeeded);
  EXPECT_GT(rr.report.serving().chunks, 1u);
  EXPECT_EQ(rr.report.serving().algorithm, Algorithm::kSpa);

  failpoint::disarm_all();
  const SparseTensor ref = contract_reference(p.x, p.y, c, c);
  EXPECT_TRUE(SparseTensor::approx_equal(rr.result.z, ref, 1e-9));
}

TEST_F(ResilientTest, ExhaustedLadderThrowsSpartaError) {
  const TensorPair p = make_pair(13);
  const Modes c{0, 1};
  // Unlimited firings: every rung, including every chunked attempt,
  // dies at stage ①. The ladder must convert that into sparta::Error —
  // a bad_alloc escaping here is exactly the bug the wrapper exists to
  // prevent.
  failpoint::arm("contract.input",
                 {failpoint::Action::kBadAlloc, 1, /*times=*/0});
  try {
    (void)contract_resilient(p.x, p.y, c, c);
    FAIL() << "expected sparta::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("every rung failed"),
              std::string::npos)
        << e.what();
  } catch (const std::bad_alloc&) {
    FAIL() << "bad_alloc escaped contract_resilient";
  }
}

TEST_F(ResilientTest, TinyBudgetEitherServesCorrectResultOrThrowsError) {
  const TensorPair p = make_pair(17);
  const Modes c{0, 1};
  const SparseTensor ref = contract_reference(p.x, p.y, c, c);
  // Sweep budgets from absurd to comfortable. The contract under test:
  // whatever the budget, the call either returns the exact answer or
  // throws sparta::Error. Nothing else may escape.
  for (std::size_t budget = 256; budget <= (std::size_t{1} << 22);
       budget <<= 2) {
    ContractOptions o;
    o.budget.bytes = budget;
    try {
      const ResilientResult rr = contract_resilient(p.x, p.y, c, c, o);
      EXPECT_TRUE(SparseTensor::approx_equal(rr.result.z, ref, 1e-9))
          << "budget " << budget << ": served a wrong result via "
          << rr.report.summary();
    } catch (const Error&) {
      // Acceptable: the ladder was exhausted under this budget.
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc escaped at budget " << budget;
    }
  }
}

TEST_F(ResilientTest, ReportStringsNameTheRungs) {
  const TensorPair p = make_pair(19);
  const Modes c{0, 1};
  failpoint::arm("plan.build", {failpoint::Action::kError, 1, /*times=*/0});
  const ResilientResult rr = contract_resilient(p.x, p.y, c, c);
  const std::string s = rr.report.summary();
  EXPECT_NE(s.find("HtY+HtA"), std::string::npos) << s;
  EXPECT_NE(s.find("COOY+HtA"), std::string::npos) << s;
  EXPECT_NE(rr.report.attempts[0].describe().find("HtY+HtA"),
            std::string::npos);
}

TEST_F(ResilientTest, ValidatesOptionsBeforeAttempting) {
  const TensorPair p = make_pair(23);
  ContractOptions bad;
  bad.num_threads = -1;
  EXPECT_THROW((void)contract_resilient(p.x, p.y, Modes{0, 1}, Modes{0, 1},
                                        bad),
               Error);
}

}  // namespace
}  // namespace sparta
