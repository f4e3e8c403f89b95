// Asserts the documented estimator accuracy contract
// (kEstimatorAccuracyFactor in contraction/estimators.hpp): the Eq. 5/6
// and Z_local estimates are compared against the peaks an
// AllocationRegistry measured while the engine actually ran. This is the
// property the budget pre-flight gate stands on — if it rots, budgeted
// contractions start rejecting workloads that would have fit (or
// admitting ones that won't).
#include <gtest/gtest.h>

#include "contraction/contract.hpp"
#include "contraction/estimators.hpp"
#include "memsim/allocator.hpp"
#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "serve/service.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

struct MeasuredCase {
  ContractResult result;
  std::size_t peak_hty = 0;
  std::size_t peak_hta = 0;
  std::size_t peak_zlocal = 0;
};

// One tracked single-threaded contraction; a fresh registry per case so
// peaks are not polluted by earlier runs. Single thread makes the HtA /
// Z_local accounts equal to the per-thread values Eq. 6 models.
MeasuredCase run_tracked(int contract_modes, std::size_t nnz,
                         std::uint64_t seed) {
  PairedSpec ps;
  ps.x.dims = {50, 40, 30, 20};
  ps.x.nnz = nnz;
  ps.x.seed = seed;
  ps.y.dims = {50, 40, 25, 15};
  ps.y.nnz = nnz;
  ps.y.seed = seed + 1;
  ps.num_contract_modes = contract_modes;
  ps.match_fraction = 0.8;
  const TensorPair pair = generate_contraction_pair(ps);
  Modes c;
  for (int m = 0; m < contract_modes; ++m) c.push_back(m);

  AllocationRegistry reg;
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.num_threads = 1;
  o.registry = &reg;

  MeasuredCase mc;
  mc.result = contract(pair.x, pair.y, c, c, o);
  mc.peak_hty = reg.peak_bytes(Tier::kDram, DataObject::kHtY);
  mc.peak_hta = reg.peak_bytes(Tier::kDram, DataObject::kHtA);
  mc.peak_zlocal = reg.peak_bytes(Tier::kDram, DataObject::kZlocal);
  return mc;
}

TEST(EstimatorAccuracy, Eq5WithinFactorOfTrackedHtyPeakBothWays) {
  for (int m : {1, 2}) {
    for (std::size_t nnz : {1000u, 4000u}) {
      const MeasuredCase mc = run_tracked(m, nnz, 41 + nnz + m);
      // The pre-flight's bucket term (contract.cpp): the slots of a
      // swiss table sized for nnz_Y keys.
      const std::size_t est = estimate_hty_bytes(
          mc.result.stats.nnz_y, /*order_y=*/4,
          simd::detail::swiss_slots_for(mc.result.stats.nnz_y));
      ASSERT_GT(mc.peak_hty, 0u) << m << "-mode nnz=" << nnz;
      EXPECT_LT(mc.peak_hty,
                static_cast<std::size_t>(est * kEstimatorAccuracyFactor))
          << m << "-mode nnz=" << nnz;
      EXPECT_LT(est, static_cast<std::size_t>(mc.peak_hty *
                                              kEstimatorAccuracyFactor))
          << m << "-mode nnz=" << nnz;
    }
  }
}

TEST(EstimatorAccuracy, Eq6BoundsTrackedPerThreadHtaPeak) {
  for (int m : {1, 2}) {
    const MeasuredCase mc = run_tracked(m, 3000, 57 + m);
    // Eq. 6's inputs are known before the accumulator exists: the
    // largest X sub-tensor and the largest HtY group.
    const std::size_t bound = estimate_hta_bytes(
        mc.result.stats.max_x_subtensor, mc.result.stats.max_y_group,
        /*num_free_y=*/4 - m, /*num_buckets=*/1024);
    ASSERT_GT(mc.peak_hta, 0u) << m << "-mode";
    // The documented contract is one-sided: measured per-thread peak
    // must stay below factor × bound. (Eq. 6 may overshoot arbitrarily
    // on skewed inputs — that is the bound doing its job.)
    EXPECT_LT(mc.peak_hta,
              static_cast<std::size_t>(bound * kEstimatorAccuracyFactor))
        << m << "-mode: measured " << mc.peak_hta << " vs bound " << bound;
  }
}

TEST(EstimatorAccuracy, ZlocalEstimateCoversTrackedPeak) {
  for (int m : {1, 2}) {
    const MeasuredCase mc = run_tracked(m, 3000, 71 + m);
    const std::size_t est = estimate_zlocal_bytes(
        mc.result.stats.nnz_z, /*num_free_x=*/4 - m, /*num_free_y=*/4 - m);
    ASSERT_GT(mc.peak_zlocal, 0u) << m << "-mode";
    EXPECT_LT(mc.peak_zlocal,
              static_cast<std::size_t>(est * kEstimatorAccuracyFactor))
        << m << "-mode: measured " << mc.peak_zlocal << " vs estimate "
        << est;
  }
}

// The registry tracks without a budget; adding a budget above the
// measured total must not change the result or trip either gate.
TEST(EstimatorAccuracy, TrackedPeaksAreConsistentWithBudgetAdmission) {
  const MeasuredCase mc = run_tracked(2, 2000, 83);

  PairedSpec ps;
  ps.x.dims = {50, 40, 30, 20};
  ps.x.nnz = 2000;
  ps.x.seed = 85;
  ps.y.dims = {50, 40, 25, 15};
  ps.y.nnz = 2000;
  ps.y.seed = 86;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.8;
  const TensorPair pair = generate_contraction_pair(ps);

  AllocationRegistry reg;
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.num_threads = 1;
  o.registry = &reg;
  o.budget.bytes = std::size_t{64} << 20;  // 64 MiB, far above measured
  const ContractResult r = contract(pair.x, pair.y, Modes{0, 1},
                                    Modes{0, 1}, o);
  EXPECT_GT(r.stats.nnz_z, 0u);
  EXPECT_LE(reg.peak_bytes(Tier::kDram), o.budget.bytes);
}

// The planner's density-propagation nnz model feeds every order-search
// decision; on a multi-step chain each step's DP-predicted intermediate
// nnz must track what the engine actually produced, to the same factor
// the byte estimators are held to. Uniform operands, so the uniform
// density assumption is the right regime (skew is Eq. 6's department).
TEST(EstimatorAccuracy, ChainStepNnzPredictionsWithinFactor) {
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  serve::ContractionService svc(cfg);
  auto load = [&](const char* name, std::vector<index_t> dims,
                  std::size_t nnz, std::uint64_t seed) {
    GeneratorSpec spec;
    spec.dims = std::move(dims);
    spec.nnz = nnz;
    spec.seed = seed;
    svc.load(name, generate_random(spec));
  };
  load("A", {96, 96}, 3000, 141);
  load("B", {96, 96}, 3000, 142);
  load("C", {96, 96}, 3000, 143);
  load("D", {96, 8}, 400, 144);

  const plan::ContractionNetwork net = plan::parse_network(
      "Z[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]");
  plan::PlanExecutor exec(svc);
  const plan::PlanExecution ex = exec.run(net);
  ASSERT_TRUE(ex.ok()) << ex.error;
  ASSERT_NE(ex.plan, nullptr);
  ASSERT_EQ(ex.plan->steps.size(), 3u);
  ASSERT_EQ(ex.steps.size(), 3u);

  for (std::size_t k = 0; k < ex.steps.size(); ++k) {
    const std::size_t predicted = ex.plan->steps[k].est_nnz;
    const std::size_t actual = ex.steps[k].stats.nnz_z;
    ASSERT_GT(actual, 0u) << "step " << k;
    ASSERT_GT(predicted, 0u) << "step " << k;
    EXPECT_LT(actual, static_cast<std::size_t>(
                          static_cast<double>(predicted) *
                          kEstimatorAccuracyFactor))
        << "step " << k << ": actual " << actual << " vs predicted "
        << predicted;
    EXPECT_LT(predicted, static_cast<std::size_t>(
                             static_cast<double>(actual) *
                             kEstimatorAccuracyFactor))
        << "step " << k << ": predicted " << predicted << " vs actual "
        << actual;
  }
}

}  // namespace
}  // namespace sparta
