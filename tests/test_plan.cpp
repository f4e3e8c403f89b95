// Tests for the reusable YPlan contraction path and the kCooBinary
// search variant added by this reproduction.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "contraction/contract.hpp"
#include "contraction/plan.hpp"
#include "contraction/reference.hpp"
#include "memsim/allocator.hpp"
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

TEST(YPlanTest, MatchesAdHocContraction) {
  const SparseTensor x = rand_t({12, 14, 16}, 400, 1);
  const SparseTensor y = rand_t({14, 16, 10}, 350, 2);
  const Modes cx{1, 2};
  const Modes cy{0, 1};

  const SparseTensor direct = contract_tensor(x, y, cx, cy, {});
  const YPlan plan(y, cy);
  const ContractResult via_plan = contract(x, plan, cx);
  EXPECT_TRUE(SparseTensor::approx_equal(direct, via_plan.z, 1e-9));
}

TEST(YPlanTest, ReusableAcrossManyX) {
  const SparseTensor y = rand_t({20, 15, 10}, 500, 3);
  const YPlan plan(y, {0});
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const SparseTensor x = rand_t({20, 8, 9}, 300, seed);
    const ContractResult r = contract(x, plan, {0});
    const SparseTensor ref = contract_reference(x, y, {0}, {0});
    EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9)) << seed;
  }
}

TEST(YPlanTest, ExposesMetadata) {
  const SparseTensor y = rand_t({9, 8, 7}, 200, 4);
  const YPlan plan(y, {2, 0});
  EXPECT_EQ(plan.cy(), (Modes{2, 0}));
  EXPECT_EQ(plan.fy(), (Modes{1}));
  EXPECT_EQ(plan.contract_dims(), (std::vector<index_t>{7, 9}));
  EXPECT_EQ(plan.free_dims(), (std::vector<index_t>{8}));
  EXPECT_EQ(plan.nnz_y(), 200u);
  EXPECT_GT(plan.num_keys(), 0u);
  EXPECT_GE(plan.max_group(), 1u);
  EXPECT_GT(plan.hty_footprint_bytes(), 0u);
}

TEST(YPlanTest, NonLeadingContractModes) {
  // Plan over Y's modes {2,0}; X contracts its modes {0,2} against them.
  const SparseTensor x = rand_t({7, 11, 9}, 250, 5);
  const SparseTensor y = rand_t({9, 8, 7}, 220, 6);
  const YPlan plan(y, {2, 0});
  const ContractResult r = contract(x, plan, {0, 2});
  const SparseTensor ref = contract_reference(x, y, {0, 2}, {2, 0});
  EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9));
}

TEST(YPlanTest, ValidatesXAgainstPlan) {
  const SparseTensor y = rand_t({9, 8}, 50, 7);
  const YPlan plan(y, {0});
  const SparseTensor wrong_size = rand_t({10, 5}, 20, 8);
  EXPECT_THROW((void)contract(wrong_size, plan, {0}), Error);
  const SparseTensor x = rand_t({9, 5}, 20, 9);
  EXPECT_THROW((void)contract(x, plan, {0, 1}), Error);  // arity
  EXPECT_THROW((void)contract(x, plan, {5}), Error);     // range
}

TEST(YPlanTest, RejectsBadPlanConstruction) {
  const SparseTensor y = rand_t({9, 8}, 50, 10);
  EXPECT_THROW(YPlan(y, {0, 0}), Error);
  EXPECT_THROW(YPlan(y, {2}), Error);
  EXPECT_THROW(YPlan(y, {}), Error);
}

TEST(YPlanTest, EmptyXGivesEmptyZ) {
  const SparseTensor y = rand_t({9, 8}, 50, 11);
  const YPlan plan(y, {0});
  const SparseTensor x(std::vector<index_t>{9, 4});
  const ContractResult r = contract(x, plan, {0});
  EXPECT_EQ(r.z.nnz(), 0u);
  EXPECT_EQ(r.z.dims(), (std::vector<index_t>{4, 8}));
}

TEST(YPlanTest, ProfileWorksThroughPlan) {
  const SparseTensor x = rand_t({15, 15, 10}, 300, 12);
  const SparseTensor y = rand_t({15, 15, 8}, 280, 13);
  const YPlan plan(y, {0, 1});
  ContractOptions o;
  o.collect_access_profile = true;
  const ContractResult r = contract(x, plan, {0, 1}, o);
  EXPECT_GT(r.profile.footprint(DataObject::kHtY), 0u);
  EXPECT_GT(r.profile.footprint(DataObject::kY), 0u);
  EXPECT_GT(r.profile.total_footprint(), 0u);
}


TEST(YPlanTest, BatchContractionsMatchIndividual) {
  const SparseTensor y = rand_t({15, 12, 10}, 400, 50);
  const YPlan plan(y, {0, 1});
  std::vector<SparseTensor> xs;
  std::vector<const SparseTensor*> ptrs;
  for (std::uint64_t seed = 60; seed < 64; ++seed) {
    xs.push_back(rand_t({15, 12, 8}, 300, seed));
  }
  for (const auto& x : xs) ptrs.push_back(&x);
  const auto batch = contract_batch(ptrs, plan, {0, 1});
  ASSERT_EQ(batch.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ContractResult single = contract(xs[i], plan, {0, 1});
    EXPECT_TRUE(SparseTensor::approx_equal(batch[i].z, single.z, 1e-12));
  }
}

TEST(YPlanTest, BatchRejectsNull) {
  const SparseTensor y = rand_t({6, 5}, 10, 70);
  const YPlan plan(y, {0});
  std::vector<const SparseTensor*> ptrs{nullptr};
  EXPECT_THROW((void)contract_batch(ptrs, plan, {0}), Error);
}

// --- kCooBinary variant -------------------------------------------------

TEST(CooBinary, MatchesOtherAlgorithms) {
  PairedSpec ps;
  ps.x.dims = {30, 25, 20};
  ps.x.nnz = 1500;
  ps.y.dims = {30, 25, 15};
  ps.y.nnz = 1200;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.7;
  const TensorPair pair = generate_contraction_pair(ps);
  const Modes c{0, 1};

  ContractOptions bin;
  bin.algorithm = Algorithm::kCooBinary;
  ContractOptions sparta_o;
  sparta_o.algorithm = Algorithm::kSparta;
  const SparseTensor zb = contract_tensor(pair.x, pair.y, c, c, bin);
  const SparseTensor zs = contract_tensor(pair.x, pair.y, c, c, sparta_o);
  EXPECT_TRUE(SparseTensor::approx_equal(zb, zs, 1e-9));
}

TEST(CooBinary, HandlesMissesAndEdges) {
  SparseTensor x({4, 4});
  x.append(std::vector<index_t>{0, 0}, 1.0);  // below all Y keys
  x.append(std::vector<index_t>{0, 3}, 2.0);  // above all Y keys
  x.append(std::vector<index_t>{0, 2}, 3.0);  // exact hit
  SparseTensor y({4, 5});
  y.append(std::vector<index_t>{1, 0}, 1.0);
  y.append(std::vector<index_t>{2, 4}, 10.0);
  ContractOptions bin;
  bin.algorithm = Algorithm::kCooBinary;
  const SparseTensor z = contract_tensor(x, y, {1}, {0}, bin);
  const SparseTensor ref = contract_reference(x, y, {1}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

// --- the bulk HtY build, per table kind and thread count ---------------

// Each key's (free key, value) items.
using Groups = std::map<lnkey_t, std::vector<std::pair<lnkey_t, value_t>>>;

// What HtY must hold: Y's non-zeros grouped by contract key, each group
// in Y storage order.
Groups storage_order_groups(const SparseTensor& y, const YPlan& plan) {
  const LinearIndexer clin(plan.contract_dims());
  std::vector<index_t> c(static_cast<std::size_t>(y.order()));
  Groups g;
  for (std::size_t n = 0; n < y.nnz(); ++n) {
    y.coords(n, c);
    const lnkey_t fkey = plan.fy().empty()
                             ? 0
                             : plan.fy_indexer().linearize_gather(c, plan.fy());
    g[clin.linearize_gather(c, plan.cy())].push_back({fkey, y.value(n)});
  }
  return g;
}

// What the plan's HtY holds, read through both for_each_group and find.
Groups plan_groups(const YPlan& plan) {
  Groups g;
  const simd::SwissYMap& t = plan.hty();
  t.for_each_group([&](lnkey_t key, std::span<const FreeItem> items) {
    EXPECT_EQ(g.count(key), 0u) << "key " << key << " visited twice";
    auto& out = g[key];
    for (const FreeItem& it : items) out.push_back({it.free_key, it.val});
    const auto found = t.find(key);
    EXPECT_EQ(found.data(), items.data()) << "key " << key;
    EXPECT_EQ(found.size(), items.size()) << "key " << key;
  });
  return g;
}

void expect_plan_holds(const YPlan& plan, const Groups& want) {
  const Groups got = plan_groups(plan);
  EXPECT_EQ(got, want);
  EXPECT_EQ(plan.num_keys(), want.size());
  std::size_t max_group = 0;
  for (const auto& [key, items] : want) {
    max_group = std::max(max_group, items.size());
  }
  EXPECT_EQ(plan.max_group(), max_group);
}

class YPlanBuild : public ::testing::TestWithParam<int> {
 protected:
  int threads() const { return GetParam(); }
  YPlan build(const SparseTensor& y, Modes cy,
              CancelToken cancel = {}) const {
    return YPlan(y, std::move(cy), threads(), std::move(cancel));
  }
};

TEST_P(YPlanBuild, GroupsFollowYStorageOrder) {
  // Unsorted Y with duplicate coordinates: every group must list its
  // items exactly as Y stores them, whichever thread computed them.
  SparseTensor y({6, 5, 7});
  Rng rng(91);
  for (int i = 0; i < 400; ++i) {
    const index_t c[] = {static_cast<index_t>(rng.uniform(6)),
                         static_cast<index_t>(rng.uniform(5)),
                         static_cast<index_t>(rng.uniform(7))};
    y.append(c, 0.5 + i);
  }
  const YPlan plan = build(y, {2, 0});
  expect_plan_holds(plan, storage_order_groups(y, plan));
}

TEST_P(YPlanBuild, OneKeyHoldsEveryItem) {
  const SparseTensor y = rand_t({1, 30, 40}, 500, 93);
  const YPlan plan = build(y, {0});
  EXPECT_EQ(plan.num_keys(), 1u);
  EXPECT_EQ(plan.max_group(), y.nnz());
  expect_plan_holds(plan, storage_order_groups(y, plan));
}

TEST_P(YPlanBuild, LargeBuildLosesNothing) {
  const SparseTensor y = rand_t({300, 300, 200}, 120'000, 94);
  ASSERT_GE(y.nnz(), 100'000u);
  const YPlan plan = build(y, {1});
  expect_plan_holds(plan, storage_order_groups(y, plan));
  EXPECT_EQ(plan.hty().num_items(), y.nnz());
}

TEST_P(YPlanBuild, CancelAtPlanBuildUnwindsToZeroLiveBytes) {
  const SparseTensor x = rand_t({20, 15, 10}, 800, 95);
  const SparseTensor y = rand_t({20, 15, 12}, 900, 96);
  AllocationRegistry reg;
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.num_threads = threads();
  o.registry = &reg;
  o.cancel = CancelToken::make();
  o.cancel.arm_at_site("plan.build");
  EXPECT_THROW({ (void)contract(x, y, {0, 1}, {0, 1}, o); }, Cancelled);
  EXPECT_EQ(reg.live_bytes(Tier::kDram) + reg.live_bytes(Tier::kPmm), 0u);

  // The second check is the key pass's first poll: a cancel landing
  // mid-build still unwinds out of the constructor.
  const CancelToken in_pass = CancelToken::make();
  in_pass.arm_after_checks(2);
  EXPECT_THROW({ (void)build(y, {0, 1}, in_pass); }, Cancelled);
}

INSTANTIATE_TEST_SUITE_P(
    Threads, YPlanBuild, ::testing::Values(1, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::to_string(info.param) + "threads";
    });

// --- shared-writeback ablation path ------------------------------------

TEST(SharedWriteback, ProducesIdenticalResults) {
  PairedSpec ps;
  ps.x.dims = {25, 20, 15};
  ps.x.nnz = 1000;
  ps.y.dims = {25, 20, 12};
  ps.y.nnz = 900;
  ps.num_contract_modes = 1;
  const TensorPair pair = generate_contraction_pair(ps);
  for (Algorithm alg : {Algorithm::kSpa, Algorithm::kCooHta,
                        Algorithm::kSparta, Algorithm::kCooBinary}) {
    ContractOptions normal;
    normal.algorithm = alg;
    normal.num_threads = 4;
    ContractOptions shared = normal;
    shared.ablation_shared_writeback = true;
    const SparseTensor a =
        contract_tensor(pair.x, pair.y, {0}, {0}, normal);
    const SparseTensor b =
        contract_tensor(pair.x, pair.y, {0}, {0}, shared);
    EXPECT_TRUE(SparseTensor::approx_equal(a, b, 1e-9))
        << algorithm_name(alg);
  }
}

}  // namespace
}  // namespace sparta
