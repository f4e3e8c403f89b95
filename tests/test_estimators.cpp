// Tests for the Eq. 5/6 placement-time size estimators against measured
// footprints from real contractions.
#include <gtest/gtest.h>

#include "contraction/contract.hpp"
#include "contraction/estimators.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

ContractResult run_case(int contract_modes, std::size_t nnz,
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
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  return contract(pair.x, pair.y, c, c, o);
}

TEST(Estimators, Eq5TracksMeasuredHtyFootprint) {
  for (int m : {1, 2}) {
    const ContractResult r = run_case(m, 4000, 17);
    // The pre-flight's bucket term: the slots of a swiss table sized
    // for nnz_Y keys.
    const std::size_t est = estimate_hty_bytes(
        r.stats.nnz_y, /*order_y=*/4,
        simd::detail::swiss_slots_for(r.stats.nnz_y));
    // Eq. 5 models the steady-state layout; vector growth slack means the
    // measured value can exceed it, but both must be the same scale.
    EXPECT_GT(est, r.stats.hty_bytes / 4) << m << "-mode";
    EXPECT_LT(est, r.stats.hty_bytes * 4) << m << "-mode";
  }
}

TEST(Estimators, Eq6IsAnUpperBoundOnHta) {
  for (int m : {1, 2}) {
    const ContractResult r = run_case(m, 3000, 23);
    const std::size_t buckets = 1024;
    const std::size_t bound = estimate_hta_bytes(
        r.stats.max_x_subtensor, r.stats.max_y_group, /*num_free_y=*/2,
        buckets);
    // The paper: Eq. 6 gives an upper bound on one thread's HtA payload.
    const std::size_t per_thread = r.stats.hta_bytes;  // 1 thread here
    EXPECT_GE(bound + buckets * 16, per_thread / 2)
        << m << "-mode: bound should not be wildly below measurement";
  }
}

TEST(Estimators, Eq6GrowsWithItsInputs) {
  const std::size_t base = estimate_hta_bytes(10, 10, 2, 64);
  EXPECT_GT(estimate_hta_bytes(20, 10, 2, 64), base);
  EXPECT_GT(estimate_hta_bytes(10, 20, 2, 64), base);
  EXPECT_GT(estimate_hta_bytes(10, 10, 4, 64), base);
  EXPECT_GT(estimate_hta_bytes(10, 10, 2, 1024), base);
}

TEST(Estimators, ZlocalBoundCoversMeasured) {
  const ContractResult r = run_case(2, 3000, 31);
  const std::size_t est =
      estimate_zlocal_bytes(r.stats.nnz_z, /*num_free_x=*/2,
                            /*num_free_y=*/2);
  // Measured Z_local includes vector capacity slack; the estimate models
  // exactly the payload, so require same order of magnitude.
  EXPECT_GT(est * 4, r.stats.zlocal_bytes);
  EXPECT_LT(est / 8, r.stats.zlocal_bytes);
}

TEST(Estimators, Eq5ExactFormula) {
  // Direct formula check with the paper's symbol values.
  EstimatorSizes sz;
  sz.entry_pointer = 8;
  sz.index = 4;
  sz.value = 8;
  // Size_ep*B + nnz*(idx*N + val + ep) = 8*100 + 50*(4*3 + 8 + 8)
  EXPECT_EQ(estimate_hty_bytes(50, 3, 100, sz), 800u + 50u * 28u);
}

TEST(Estimators, Eq6ExactFormula) {
  EstimatorSizes sz;
  sz.entry_pointer = 8;
  sz.index = 4;
  sz.value = 8;
  // 8*64 + 10*20*(4*2 + 8 + 8)
  EXPECT_EQ(estimate_hta_bytes(10, 20, 2, 64, sz), 512u + 200u * 24u);
}

}  // namespace
}  // namespace sparta
