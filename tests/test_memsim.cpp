// Tests for the heterogeneous-memory cost model and placement policies.
#include <gtest/gtest.h>

#include "contraction/contract.hpp"
#include "memsim/cost_model.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

// A hand-built profile with known shape: one stage dominated by random
// reads of HtY, one by sequential writes of Z_local.
AccessProfile synthetic_profile() {
  AccessProfile p;
  for (int s = 0; s < kNumStages; ++s) {
    p.measured.seconds[s] = 0.1;
  }
  auto& hty = p.at(Stage::kIndexSearch, DataObject::kHtY);
  hty.bytes_read_rand = 400ull << 20;
  hty.rand_reads = 20'000'000;
  auto& y = p.at(Stage::kInputProcessing, DataObject::kY);
  y.bytes_read_seq = 400ull << 20;
  auto& zl = p.at(Stage::kAccumulation, DataObject::kZlocal);
  zl.bytes_written_seq = 400ull << 20;

  p.set_footprint(DataObject::kX, 100ull << 20);
  p.set_footprint(DataObject::kY, 400ull << 20);
  p.set_footprint(DataObject::kHtY, 500ull << 20);
  p.set_footprint(DataObject::kHtA, 50ull << 20);
  p.set_footprint(DataObject::kZlocal, 400ull << 20);
  p.set_footprint(DataObject::kZ, 300ull << 20);
  return p;
}

TEST(CostModel, AllDramIsTheMeasuredBaseline) {
  const AccessProfile p = synthetic_profile();
  const MemoryParams params;
  const SimResult r =
      simulate_static(p, params, Placement::all(Tier::kDram));
  EXPECT_DOUBLE_EQ(r.total_seconds(), p.measured.total());
}

TEST(CostModel, PmmOnlyIsSlower) {
  const AccessProfile p = synthetic_profile();
  const MemoryParams params;
  const double dram =
      simulate_static(p, params, Placement::all(Tier::kDram)).total_seconds();
  const double pmm =
      simulate_static(p, params, Placement::all(Tier::kPmm)).total_seconds();
  EXPECT_GT(pmm, dram);
}

TEST(CostModel, Observation1WritesHurtMoreThanReads) {
  // Paper Observation 1: sequential-read-only objects barely suffer on
  // PMM; sequential-write-only objects suffer (3× write BW gap).
  const AccessProfile p = synthetic_profile();
  const MemoryParams params;
  const double base =
      simulate_static(p, params, Placement::all(Tier::kDram)).total_seconds();
  const double y_in_pmm =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kY))
          .total_seconds();
  const double zl_in_pmm =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kZlocal))
          .total_seconds();
  EXPECT_GT(zl_in_pmm - base, (y_in_pmm - base) * 2);
}

TEST(CostModel, Observation2RandomHurtsMoreThanSequential) {
  // Same byte volume: random-read HtY must lose more than sequential-
  // read Y (latency exposure on top of bandwidth).
  const AccessProfile p = synthetic_profile();
  const MemoryParams params;
  const double base =
      simulate_static(p, params, Placement::all(Tier::kDram)).total_seconds();
  const double y =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kY))
          .total_seconds();
  const double hty =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kHtY))
          .total_seconds();
  EXPECT_GT(hty - base, y - base);
}

TEST(CostModel, PartialPlacementInterpolates) {
  const AccessProfile p = synthetic_profile();
  const MemoryParams params;
  Placement half = Placement::all(Tier::kDram);
  half.set(DataObject::kHtY, 0.5);
  const double full_dram =
      simulate_static(p, params, Placement::all(Tier::kDram)).total_seconds();
  const double full_pmm =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kHtY))
          .total_seconds();
  const double mid = simulate_static(p, params, half).total_seconds();
  EXPECT_GT(mid, full_dram);
  EXPECT_LT(mid, full_pmm);
  EXPECT_NEAR(mid, (full_dram + full_pmm) / 2, 1e-9);
}

TEST(SpartaPlacement, RespectsPriorityUnderPressure) {
  const AccessProfile p = synthetic_profile();
  MemoryParams params;
  // Room for HtY (500 MB) + HtA (50 MB) but not Z_local.
  params.dram_capacity_bytes = 600ull << 20;
  const Placement pl = sparta_placement(p.footprint_bytes, params);
  EXPECT_DOUBLE_EQ(pl.dram(DataObject::kX), 0.0);
  EXPECT_DOUBLE_EQ(pl.dram(DataObject::kY), 0.0);
  EXPECT_DOUBLE_EQ(pl.dram(DataObject::kHtY), 1.0);
  EXPECT_DOUBLE_EQ(pl.dram(DataObject::kHtA), 1.0);
  // 50 MB left of 400 MB needed: partial placement.
  EXPECT_NEAR(pl.dram(DataObject::kZlocal), 50.0 / 400.0, 1e-9);
  EXPECT_DOUBLE_EQ(pl.dram(DataObject::kZ), 0.0);
}

TEST(SpartaPlacement, CapacityNeverExceeded) {
  const AccessProfile p = synthetic_profile();
  for (std::uint64_t cap_mb : {0, 100, 400, 900, 2000}) {
    MemoryParams params;
    params.dram_capacity_bytes = cap_mb << 20;
    const Placement pl = sparta_placement(p.footprint_bytes, params);
    EXPECT_LE(pl.dram_bytes(p.footprint_bytes),
              params.dram_capacity_bytes + 1);
  }
}

TEST(Policies, OrderingMatchesThePaper) {
  // Fig. 7's qualitative result on a memory-bound profile:
  //   DRAM-only ≤ Sparta ≤ Memory mode ≤ PMM-only  and  Sparta ≤ IAL.
  const AccessProfile p = synthetic_profile();
  MemoryParams params;
  params.dram_capacity_bytes = 600ull << 20;  // pressure

  const double dram_only =
      simulate_static(p, params, Placement::all(Tier::kDram)).total_seconds();
  const double pmm_only =
      simulate_static(p, params, Placement::all(Tier::kPmm)).total_seconds();
  const double sparta =
      simulate_static(p, params, sparta_placement(p.footprint_bytes, params))
          .total_seconds();
  const double memory_mode = simulate_memory_mode(p, params).total_seconds();
  const double ial = simulate_ial(p, params).total_seconds();

  EXPECT_LE(dram_only, sparta);
  EXPECT_LT(sparta, pmm_only);
  EXPECT_LT(sparta, memory_mode);
  EXPECT_LT(sparta, ial);
}

TEST(Policies, DynamicPoliciesMoveBytes) {
  const AccessProfile p = synthetic_profile();
  MemoryParams params;
  params.dram_capacity_bytes = 600ull << 20;
  EXPECT_GT(simulate_ial(p, params).migrated_bytes, 0u);
  EXPECT_GT(simulate_memory_mode(p, params).migrated_bytes, 0u);
  EXPECT_EQ(simulate_static(p, params, Placement::all(Tier::kPmm))
                .migrated_bytes,
            0u);
}

TEST(Policies, BandwidthAccountingIsConsistent) {
  const AccessProfile p = synthetic_profile();
  MemoryParams params;
  const SimResult r =
      simulate_static(p, params, Placement::all(Tier::kPmm));
  // All traffic must land on PMM; DRAM bandwidth must be ~0.
  for (int s = 0; s < kNumStages; ++s) {
    const auto stage = static_cast<Stage>(s);
    EXPECT_EQ(r.tier_bytes[s][static_cast<int>(Tier::kDram)], 0u);
    if (p.measured[stage] > 0) {
      EXPECT_GE(r.bandwidth_gbs(stage, Tier::kPmm), 0.0);
    }
  }
}

// --- Integration with a real instrumented contraction ------------------

TEST(ProfileIntegration, ContractionFillsProfile) {
  PairedSpec ps;
  ps.x.dims = {40, 30, 25};
  ps.x.nnz = 3000;
  ps.y.dims = {40, 30, 20};
  ps.y.nnz = 2500;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.8;
  const TensorPair pair = generate_contraction_pair(ps);

  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.collect_access_profile = true;
  const ContractResult r = contract(pair.x, pair.y, {0, 1}, {0, 1}, o);

  const AccessProfile& p = r.profile;
  // ① X is the fused sorted copy: one sequential read of the columns,
  // 16-byte (key, position) pairs written and then read and written
  // once per radix pass (two: 40·30·25 < 2^16), one sequential read of
  // the sorted pairs, the gather's random row fetches (whole cache
  // lines: n/8 accesses, a quarter of the bytes) and the sorted
  // columns written.
  const AccessStats& x_s1 = p.at(Stage::kInputProcessing, DataObject::kX);
  const std::uint64_t n = r.stats.nnz_x;
  const std::uint64_t row = 3 * sizeof(index_t) + sizeof(value_t);
  EXPECT_EQ(x_s1.bytes_read_seq, n * (row + 16 * 2 + 16));
  EXPECT_EQ(x_s1.bytes_written_seq, n * (16 + 16 * 2 + row));
  EXPECT_EQ(x_s1.rand_reads, n / 8);
  EXPECT_EQ(x_s1.bytes_read_rand, n * row / 4);
  EXPECT_EQ(x_s1.rand_writes, 0u);
  // Table 2 row checks: HtY is random-read in index search, read-only.
  const AccessStats& hty_s2 = p.at(Stage::kIndexSearch, DataObject::kHtY);
  EXPECT_TRUE(hty_s2.reads());
  EXPECT_FALSE(hty_s2.writes());
  EXPECT_TRUE(hty_s2.random());
  // X is sequential read-only in index search.
  const AccessStats& x_s2 = p.at(Stage::kIndexSearch, DataObject::kX);
  EXPECT_TRUE(x_s2.reads());
  EXPECT_FALSE(x_s2.writes());
  EXPECT_FALSE(x_s2.random());
  // HtA is random read-write in accumulation.
  const AccessStats& hta_s3 = p.at(Stage::kAccumulation, DataObject::kHtA);
  EXPECT_TRUE(hta_s3.reads());
  EXPECT_TRUE(hta_s3.writes());
  EXPECT_TRUE(hta_s3.random());
  // Each sub-tensor's entries leave HtA in one sequential read at the
  // end of accumulation and are appended to Z_local there, sequential
  // and write-only (Table 2), one 16-byte (key, value) pair each.
  const std::uint64_t nz = r.stats.nnz_z;
  EXPECT_EQ(hta_s3.bytes_read_seq, nz * 24);
  const AccessStats& zl_s3 = p.at(Stage::kAccumulation, DataObject::kZlocal);
  EXPECT_EQ(zl_s3.bytes_written_seq, nz * 16);
  EXPECT_FALSE(zl_s3.reads());
  EXPECT_FALSE(zl_s3.random());
  // Output sorting sorts each run in place in Z_local: sequential
  // traffic, one read and one write per radix pass of the free keys
  // (one: the Y free mode has 20 values), and neither HtA nor Z is
  // touched.
  const AccessStats& zl_s5 = p.at(Stage::kOutputSorting, DataObject::kZlocal);
  EXPECT_EQ(zl_s5.bytes_read_seq, nz * 16);
  EXPECT_EQ(zl_s5.bytes_written_seq, nz * 16);
  EXPECT_FALSE(zl_s5.random());
  EXPECT_FALSE(p.at(Stage::kOutputSorting, DataObject::kHtA).reads());
  EXPECT_FALSE(p.at(Stage::kOutputSorting, DataObject::kZ).reads());
  EXPECT_FALSE(p.at(Stage::kOutputSorting, DataObject::kZ).writes());
  // Writeback is the gather alone: Z_local read once, Z written once,
  // HtA untouched.
  const AccessStats& zl_s4 = p.at(Stage::kWriteback, DataObject::kZlocal);
  EXPECT_EQ(zl_s4.bytes_read_seq, nz * 16);
  EXPECT_FALSE(zl_s4.writes());
  EXPECT_FALSE(p.at(Stage::kWriteback, DataObject::kHtA).reads());
  EXPECT_TRUE(p.at(Stage::kWriteback, DataObject::kZ).writes());
  EXPECT_FALSE(p.at(Stage::kWriteback, DataObject::kZ).reads());
  // Footprints are populated.
  EXPECT_GT(p.footprint(DataObject::kHtY), 0u);
  EXPECT_GT(p.footprint(DataObject::kZ), 0u);
  EXPECT_GT(p.total_footprint(), 0u);
  // Measured stage times were copied in.
  EXPECT_GT(p.measured.total(), 0.0);
}

TEST(ProfileIntegration, PoliciesRunOnRealProfile) {
  PairedSpec ps;
  ps.x.dims = {30, 30, 20};
  ps.x.nnz = 2000;
  ps.y.dims = {30, 30, 15};
  ps.y.nnz = 1500;
  ps.num_contract_modes = 1;
  const TensorPair pair = generate_contraction_pair(ps);
  ContractOptions o;
  o.collect_access_profile = true;
  const ContractResult r = contract(pair.x, pair.y, {0}, {0}, o);

  MemoryParams params;
  params.dram_capacity_bytes = r.profile.total_footprint() / 3;
  const double pmm_only =
      simulate_static(r.profile, params, Placement::all(Tier::kPmm))
          .total_seconds();
  const double sparta =
      simulate_static(r.profile, params,
                      sparta_placement(r.profile.footprint_bytes, params))
          .total_seconds();
  EXPECT_LE(sparta, pmm_only);
}

}  // namespace
}  // namespace sparta
