// Tests for the tier-tagged allocator, bandwidth timeline, and
// additional cost-model properties.
#include <gtest/gtest.h>

#include <vector>

#include "contraction/contract.hpp"
#include "memsim/allocator.hpp"
#include "memsim/cost_model.hpp"
#include "memsim/timeline.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

// --- AllocationRegistry / TierAllocator ---------------------------------

TEST(TierAllocatorTest, TracksLiveAndPeakBytes) {
  AllocationRegistry reg;
  {
    std::vector<double, TierAllocator<double>> v(
        TierAllocator<double>(&reg, Tier::kDram, DataObject::kHtA));
    v.resize(1000);
    EXPECT_GE(reg.live_bytes(Tier::kDram, DataObject::kHtA), 8000u);
    EXPECT_EQ(reg.live_bytes(Tier::kPmm), 0u);
    v.resize(4000);
    EXPECT_GE(reg.peak_bytes(Tier::kDram, DataObject::kHtA), 32000u);
  }
  // Destruction returns everything.
  EXPECT_EQ(reg.live_bytes(Tier::kDram), 0u);
  EXPECT_GE(reg.peak_bytes(Tier::kDram), 32000u);  // peak persists
}

TEST(TierAllocatorTest, SeparatesTiersAndTags) {
  AllocationRegistry reg;
  std::vector<int, TierAllocator<int>> dram_v(
      TierAllocator<int>(&reg, Tier::kDram, DataObject::kHtY));
  std::vector<int, TierAllocator<int>> pmm_v(
      TierAllocator<int>(&reg, Tier::kPmm, DataObject::kX));
  dram_v.resize(100);
  pmm_v.resize(200);
  EXPECT_GE(reg.live_bytes(Tier::kDram, DataObject::kHtY), 400u);
  EXPECT_EQ(reg.live_bytes(Tier::kDram, DataObject::kX), 0u);
  EXPECT_GE(reg.live_bytes(Tier::kPmm, DataObject::kX), 800u);
}

TEST(TierAllocatorTest, EqualityFollowsAccount) {
  AllocationRegistry reg;
  TierAllocator<int> a(&reg, Tier::kDram, DataObject::kZ);
  TierAllocator<int> b(&reg, Tier::kDram, DataObject::kZ);
  TierAllocator<int> c(&reg, Tier::kPmm, DataObject::kZ);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// --- bandwidth timeline ---------------------------------------------------

AccessProfile tiny_profile() {
  AccessProfile p;
  for (int s = 0; s < kNumStages; ++s) p.measured.seconds[s] = 0.01;
  p.at(Stage::kIndexSearch, DataObject::kHtY).bytes_read_rand = 100 << 20;
  p.at(Stage::kIndexSearch, DataObject::kHtY).rand_reads = 1'000'000;
  p.set_footprint(DataObject::kHtY, 100 << 20);
  return p;
}

TEST(Timeline, SamplesAreMonotoneAndCoverTheRun) {
  const AccessProfile p = tiny_profile();
  const MemoryParams params;
  const SimResult sim =
      simulate_static(p, params, Placement::all(Tier::kPmm));
  const auto series = bandwidth_timeline(sim, 4);
  ASSERT_FALSE(series.empty());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].time_seconds, series[i - 1].time_seconds);
  }
  EXPECT_LT(series.back().time_seconds, sim.total_seconds());
  EXPECT_EQ(series.size(), 5u * 4u);  // five active stages
}

TEST(Timeline, PmmOnlyHasZeroDramBandwidth) {
  const AccessProfile p = tiny_profile();
  const MemoryParams params;
  const SimResult sim =
      simulate_static(p, params, Placement::all(Tier::kPmm));
  for (const BandwidthSample& s : bandwidth_timeline(sim)) {
    EXPECT_DOUBLE_EQ(s.dram_gbs, 0.0);
  }
}

// --- cost model properties --------------------------------------------

// kCooBinary is charged the Y rows its binary search compares plus the
// matched run, so on a small Y it never models more stage-② Y traffic
// than the linear scan that walks up to every run it finds.
TEST(CostModelProperties, BinarySearchChargesRowsItCompares) {
  SparseTensor y({8, 5});  // 8 non-zeros, one per contract index
  for (index_t k = 0; k < 8; ++k) {
    y.append(std::vector<index_t>{k, k % 5}, 1.0 + static_cast<double>(k));
  }
  SparseTensor x({3, 8});  // every X row probes every contract index
  for (index_t i = 0; i < 3; ++i) {
    for (index_t k = 0; k < 8; ++k) {
      x.append(std::vector<index_t>{i, k}, 0.5 + static_cast<double>(i));
    }
  }
  auto search_y_bytes = [&](Algorithm alg) {
    ContractOptions o;
    o.algorithm = alg;
    o.collect_access_profile = true;
    const ContractResult r = contract(x, y, {1}, {0}, o);
    return r.profile.at(Stage::kIndexSearch, DataObject::kY).bytes_read_seq;
  };
  const std::uint64_t binary = search_y_bytes(Algorithm::kCooBinary);
  const std::uint64_t linear = search_y_bytes(Algorithm::kCooHta);
  EXPECT_GT(binary, 0u);
  EXPECT_LE(binary, linear);
}

TEST(CostModelProperties, MoreDramCapacityNeverHurtsSparta) {
  PairedSpec ps;
  ps.x.dims = {30, 25, 20};
  ps.x.nnz = 2000;
  ps.y.dims = {30, 25, 18};
  ps.y.nnz = 1800;
  ps.num_contract_modes = 1;
  const TensorPair pair = generate_contraction_pair(ps);
  ContractOptions o;
  o.collect_access_profile = true;
  const ContractResult r = contract(pair.x, pair.y, {0}, {0}, o);

  double previous = 1e300;
  for (const double frac : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    MemoryParams params;
    params.dram_capacity_bytes = static_cast<std::uint64_t>(
        frac * static_cast<double>(r.profile.total_footprint()));
    const double t =
        simulate_static(r.profile, params,
                        sparta_placement(r.profile.footprint_bytes, params))
            .total_seconds();
    EXPECT_LE(t, previous + 1e-12) << "capacity fraction " << frac;
    previous = t;
  }
}

TEST(CostModelProperties, ExposureParameterScalesRandomPenalty) {
  AccessProfile p = tiny_profile();
  MemoryParams low;
  low.rand_latency_exposure = 0.05;
  MemoryParams high;
  high.rand_latency_exposure = 0.5;
  const double t_low =
      simulate_static(p, low, Placement::one_in_pmm(DataObject::kHtY))
          .total_seconds();
  const double t_high =
      simulate_static(p, high, Placement::one_in_pmm(DataObject::kHtY))
          .total_seconds();
  EXPECT_GT(t_high, t_low);
}

TEST(CostModelProperties, CacheFilterSparesSmallObjects) {
  AccessProfile p = tiny_profile();
  // Shrink HtY below the cache filter: its PMM penalty must collapse.
  p.set_footprint(DataObject::kHtY, 64 << 10);
  MemoryParams params;
  const double small_t =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kHtY))
          .total_seconds();
  p.set_footprint(DataObject::kHtY, 100 << 20);
  const double big_t =
      simulate_static(p, params, Placement::one_in_pmm(DataObject::kHtY))
          .total_seconds();
  EXPECT_LT(small_t, big_t);
}

}  // namespace
}  // namespace sparta
