// Cancellation and deadline tests: the CancelToken itself, cooperative
// cancel points across every pipeline stage and variant, the resilience
// ladder's abort-on-cancel contract, the plan cache's failure paths, and
// the service's deadline / shed / shutdown_now behaviour. The recurring
// assertion: a cancelled run unwinds cleanly — Cancelled escapes (never
// another exception type), every budget charge is released, and no
// partial output reaches a registry.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "contraction/contract.hpp"
#include "contraction/contract_csf.hpp"
#include "contraction/plan.hpp"
#include "contraction/reference.hpp"
#include "contraction/resilient.hpp"
#include "memsim/allocator.hpp"
#include "serve/plan_cache.hpp"
#include "serve/service.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

SparseTensor make_tensor(std::uint64_t seed, std::size_t nnz = 2000) {
  GeneratorSpec s;
  s.dims = {24, 24, 12};
  s.nnz = nnz;
  s.seed = seed;
  return generate_random(s);
}

std::size_t live_total(const AllocationRegistry& reg) {
  return reg.live_bytes(Tier::kDram) + reg.live_bytes(Tier::kPmm);
}

// --- the token itself -------------------------------------------------

TEST(CancelToken, DefaultIsInert) {
  const CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.has_deadline());
  EXPECT_EQ(t.reason(), nullptr);
  EXPECT_EQ(t.seconds_since_cancel(), 0.0);
  EXPECT_NO_THROW(t.check("contract.input"));
  t.request_cancel();  // no-op on an inert token
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, RequestCancelTripsOnceWithFirstReason) {
  const CancelToken t = CancelToken::make();
  EXPECT_FALSE(t.cancelled());
  t.request_cancel("stop requested");
  t.request_cancel("second reason ignored");
  EXPECT_TRUE(t.cancelled());
  ASSERT_NE(t.reason(), nullptr);
  EXPECT_STREQ(t.reason(), "stop requested");
  EXPECT_FALSE(t.deadline_expired());
  EXPECT_GE(t.seconds_since_cancel(), 0.0);
  try {
    t.check("contract.sort");
    FAIL() << "check() did not throw";
  } catch (const Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("contract.sort"),
              std::string::npos);
  }
}

TEST(CancelToken, CopiesShareState) {
  const CancelToken a = CancelToken::make();
  const CancelToken b = a;
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
}

TEST(CancelToken, ExpiredDeadlineTripsOnObservation) {
  const CancelToken t = CancelToken::with_deadline(0.0);
  EXPECT_TRUE(t.has_deadline());
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.deadline_expired());
  EXPECT_THROW(t.check("x"), Cancelled);
}

TEST(CancelToken, ArmAfterChecksCountsDown) {
  const CancelToken t = CancelToken::make();
  t.arm_after_checks(3);
  EXPECT_NO_THROW(t.check("a"));
  EXPECT_NO_THROW(t.check("b"));
  EXPECT_THROW(t.check("c"), Cancelled);
}

TEST(CancelToken, ArmAtSiteMatchesOnlyThatSite) {
  const CancelToken t = CancelToken::make();
  t.arm_at_site("contract.sort");
  EXPECT_NO_THROW(t.check("contract.input"));
  EXPECT_NO_THROW(t.check("contract.search"));
  EXPECT_THROW(t.check("contract.sort"), Cancelled);
}

// CancelToken must not be swallowed by Error handlers: it is a sibling,
// not a subclass.
TEST(CancelToken, CancelledIsNotASpartaError) {
  const CancelToken t = CancelToken::make();
  t.request_cancel();
  bool caught_as_error = false;
  try {
    t.check("x");
  } catch (const Error&) {
    caught_as_error = true;
  } catch (const Cancelled&) {
  }
  EXPECT_FALSE(caught_as_error);
}

// --- cancel before/inside every stage, every variant ------------------

class CancelAtStage
    : public ::testing::TestWithParam<std::tuple<const char*, Algorithm>> {
};

TEST_P(CancelAtStage, UnwindsCleanlyWithZeroResidualBudget) {
  const char* site = std::get<0>(GetParam());
  const Algorithm alg = std::get<1>(GetParam());
  const SparseTensor x = make_tensor(1);
  const SparseTensor y = make_tensor(2);

  AllocationRegistry reg;
  ContractOptions o;
  o.algorithm = alg;
  o.registry = &reg;
  o.cancel = CancelToken::make();
  o.cancel.arm_at_site(site);
  EXPECT_THROW(
      { (void)contract(x, y, {0, 1}, {0, 1}, o); }, Cancelled);
  EXPECT_EQ(live_total(reg), 0u)
      << "budget leaked cancelling at " << site;

  // The same inputs still contract fine with a fresh, inert token:
  // cancellation left no residue in the engine.
  ContractOptions clean;
  clean.algorithm = alg;
  const ContractResult r = contract(x, y, {0, 1}, {0, 1}, clean);
  EXPECT_TRUE(SparseTensor::approx_equal(
      r.z, contract_reference(x, y, {0, 1}, {0, 1}), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    AllStagesAllVariants, CancelAtStage,
    ::testing::Combine(
        ::testing::Values("contract.input", "contract.search",
                          "contract.accumulate", "contract.writeback",
                          "contract.sort", "contract.gather"),
        ::testing::Values(Algorithm::kSpa, Algorithm::kCooHta,
                          Algorithm::kSparta, Algorithm::kCooBinary)),
    [](const ::testing::TestParamInfo<CancelAtStage::ParamType>& info) {
      std::string site = std::get<0>(info.param);
      for (char& ch : site) {
        if (ch == '.') ch = '_';
      }
      switch (std::get<1>(info.param)) {
        case Algorithm::kSpa: return site + "_spa";
        case Algorithm::kCooHta: return site + "_coohta";
        case Algorithm::kSparta: return site + "_sparta";
        case Algorithm::kCooBinary: return site + "_coobinary";
      }
      return site;
    });

// The gather polls once per row chunk. A Z spanning many chunks,
// gathered by four threads, still unwinds cleanly when the first poll
// trips, for every variant and for contract_csf.
TEST(CancelEngine, GatherOverManyRowChunksUnwindsCleanly) {
  GeneratorSpec xs;
  xs.dims = {40, 12};
  xs.nnz = 120;
  xs.seed = 31;
  GeneratorSpec ys;
  ys.dims = {12, 1000};
  ys.nnz = 6000;
  ys.seed = 32;
  const SparseTensor x = generate_random(xs);
  const SparseTensor y = generate_random(ys);
  const Modes cx{1};
  const Modes cy{0};
  const SparseTensor ref = contract_reference(x, y, cx, cy);
  // The gather's chunks hold at least 4 096 rows.
  ASSERT_GT(ref.nnz(), 4u * 4096u);

  auto expect_cancelled = [&](auto&& run, std::string_view what) {
    AllocationRegistry reg;
    ContractOptions o;
    o.num_threads = 4;
    o.cancel = CancelToken::make();
    o.cancel.arm_at_site("contract.gather");
    EXPECT_THROW(run(o, &reg), Cancelled) << what;
    EXPECT_EQ(live_total(reg), 0u) << "budget leaked in " << what;
    ContractOptions clean;
    clean.num_threads = 4;
    EXPECT_TRUE(SparseTensor::approx_equal(run(clean, nullptr).z, ref, 1e-9))
        << what;
  };
  for (const Algorithm alg : {Algorithm::kSpa, Algorithm::kCooHta,
                              Algorithm::kSparta, Algorithm::kCooBinary}) {
    expect_cancelled(
        [&](ContractOptions o, AllocationRegistry* reg) {
          o.algorithm = alg;
          o.registry = reg;
          return contract(x, y, cx, cy, o);
        },
        algorithm_name(alg));
  }
  const YPlan plan(y, cy, /*num_threads=*/1);
  expect_cancelled(
      [&](const ContractOptions& o, AllocationRegistry*) {
        return contract_csf(x, plan, cx, o);
      },
      "contract_csf");
}

// Stage ①'s parallel passes above the team cutoff: X's fused sorted
// copy and the HtY build's key pass, sort and gather run on four
// threads. A cancel observed there, and the
// contract.input and plan.build failpoints firing inside those regions,
// unwind through the collector to zero live registry bytes, and the
// same inputs then contract correctly.
TEST(CancelEngine, ParallelInputPassesUnwindCleanly) {
  GeneratorSpec xs;
  xs.dims = {400, 60, 60};
  xs.nnz = 80'000;
  xs.seed = 41;
  GeneratorSpec ys;
  ys.dims = {60, 60, 300};
  ys.nnz = 80'000;
  ys.seed = 42;
  const SparseTensor x = generate_random(xs);
  const SparseTensor y = generate_random(ys);
  const Modes cx{1, 2};
  const Modes cy{0, 1};
  // Every pass runs on the team.
  ASSERT_GE(x.nnz(), kParallelMinItems);
  ASSERT_GE(y.nnz(), kParallelMinItems);
  // contract_reference is quadratic in nnz; a one-thread run (a team
  // of one in every pass) is the reference here.
  ContractOptions serial;
  serial.num_threads = 1;
  const SparseTensor ref = contract(x, y, cx, cy, serial).z;

  auto run = [&](Algorithm alg, AllocationRegistry* reg,
                 const CancelToken& cancel) {
    ContractOptions o;
    o.algorithm = alg;
    o.num_threads = 4;
    o.registry = reg;
    o.cancel = cancel;
    return contract(x, y, cx, cy, o);
  };
  // COO-binary runs X's copy without the HtY build, and without the
  // linear search's O(nnz_X · nnz_Y) scans.
  for (const Algorithm alg : {Algorithm::kSparta, Algorithm::kCooBinary}) {
    const std::string name(algorithm_name(alg));
    // Countdowns landing in the key passes, the sorts and the gathers.
    for (const std::uint64_t n : {2ul, 3ul, 9ul, 16ul, 30ul, 45ul}) {
      AllocationRegistry reg;
      const CancelToken cancel = CancelToken::make();
      cancel.arm_after_checks(n);
      EXPECT_THROW((void)run(alg, &reg, cancel), Cancelled)
          << name << ", countdown " << n;
      EXPECT_EQ(live_total(reg), 0u) << name << ", countdown " << n;
    }
    // Hit 1 of each site is its sequential check; later hits are the
    // parallel passes' per-thread evaluations.
    std::vector<const char*> sites{"contract.input"};
    if (alg == Algorithm::kSparta) sites.push_back("plan.build");
    for (const char* site : sites) {
      for (const std::uint64_t hit : {2ul, 3ul, 6ul, 9ul}) {
        AllocationRegistry reg;
        failpoint::arm(site, {failpoint::Action::kBadAlloc, hit, 1});
        EXPECT_THROW((void)run(alg, &reg, {}), std::bad_alloc)
            << name << ", " << site << " hit " << hit;
        EXPECT_EQ(failpoint::fire_count(site), 1u)
            << name << ", " << site << " hit " << hit;
        failpoint::disarm_all();
        EXPECT_EQ(live_total(reg), 0u)
            << name << ", " << site << " hit " << hit;
      }
    }
    EXPECT_TRUE(SparseTensor::approx_equal(run(alg, nullptr, {}).z, ref, 1e-9))
        << name;
  }
}

// Countdown sweep: wherever the n-th check lands — mid table build, mid
// chunk, mid sort — the unwind is clean, and a countdown longer than
// the run means an untouched, correct result.
TEST(CancelEngine, ArmAfterChecksSweep) {
  const SparseTensor x = make_tensor(3);
  const SparseTensor y = make_tensor(4);
  const SparseTensor ref = contract_reference(x, y, {0, 1}, {0, 1});
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{5},
        std::uint64_t{20}, std::uint64_t{1u << 20}}) {
    AllocationRegistry reg;
    ContractOptions o;
    o.registry = &reg;
    o.cancel = CancelToken::make();
    o.cancel.arm_after_checks(n);
    try {
      const ContractResult r = contract(x, y, {0, 1}, {0, 1}, o);
      // Countdown outlived the run: the result must be untouched.
      EXPECT_TRUE(SparseTensor::approx_equal(r.z, ref, 1e-9));
    } catch (const Cancelled&) {
      // Expected for small n.
    }
    EXPECT_EQ(live_total(reg), 0u) << "leak with countdown n=" << n;
  }
}

// A deadline that has already passed cancels before stage ① runs.
TEST(CancelEngine, ExpiredDeadlineAbortsImmediately) {
  const SparseTensor x = make_tensor(5);
  const SparseTensor y = make_tensor(6);
  AllocationRegistry reg;
  ContractOptions o;
  o.registry = &reg;
  o.cancel = CancelToken::with_deadline(0.0);
  EXPECT_THROW({ (void)contract(x, y, {0, 1}, {0, 1}, o); }, Cancelled);
  EXPECT_TRUE(o.cancel.deadline_expired());
  EXPECT_EQ(live_total(reg), 0u);
}

// The cancellable sort overload leaves the tensor untouched on abort.
TEST(CancelEngine, SortCancelLeavesTensorUntouched) {
  SparseTensor t = make_tensor(7);
  const SparseTensor before = t;
  const CancelToken token = CancelToken::make();
  token.request_cancel();
  EXPECT_THROW(t.sort(token), Cancelled);
  ASSERT_EQ(t.nnz(), before.nnz());
  for (std::size_t n = 0; n < t.nnz(); ++n) {
    EXPECT_EQ(t.value(n), before.value(n));
  }
}

// --- the resilience ladder --------------------------------------------

// Cancellation aborts the whole ladder: no rung retries on Cancelled
// (time exhaustion cannot be fixed by a lighter algorithm).
TEST(CancelResilient, CancelAbortsTheLadder) {
  const SparseTensor x = make_tensor(8);
  const SparseTensor y = make_tensor(9);
  AllocationRegistry reg;
  ContractOptions o;
  o.registry = &reg;
  o.cancel = CancelToken::make();
  o.cancel.arm_after_checks(1);
  EXPECT_THROW({ (void)contract_resilient(x, y, {0, 1}, {0, 1}, o); },
               Cancelled);
  EXPECT_EQ(live_total(reg), 0u);
}

// A cancel during a degraded (chunked) rung unwinds the same way.
TEST(CancelResilient, CancelInsideChunkedRung) {
  const SparseTensor x = make_tensor(10);
  const SparseTensor y = make_tensor(11);
  AllocationRegistry reg;
  ContractOptions o;
  o.registry = &reg;
  o.cancel = CancelToken::make();
  o.cancel.arm_at_site("contract.chunk");
  EXPECT_THROW({ (void)contract_resilient(x, y, {0, 1}, {0, 1}, o); },
               Cancelled);
  EXPECT_EQ(live_total(reg), 0u);
}

// --- plan cache failure paths -----------------------------------------

TEST(CancelPlanCache, BuilderCancelKeepsKeyUsable) {
  const SparseTensor y = make_tensor(12);
  serve::PlanCache cache;
  const CancelToken token = CancelToken::make();
  token.arm_at_site("plan.build");
  EXPECT_THROW({ (void)cache.acquire(1, y, {0, 1}, token); }, Cancelled);
  // The key is not poisoned: a fresh request builds and succeeds.
  const serve::PlanLease lease = cache.acquire(1, y, {0, 1});
  EXPECT_NE(lease.plan, nullptr);
}

TEST(CancelPlanCache, BuildErrorKeepsKeyUsable) {
  const SparseTensor y = make_tensor(13);
  serve::PlanCache cache;
  failpoint::arm("plan.build",
                 {failpoint::Action::kError, /*fire_on=*/1, /*times=*/1});
  EXPECT_THROW({ (void)cache.acquire(2, y, {0, 1}); }, Error);
  failpoint::disarm_all();
  const serve::PlanLease lease = cache.acquire(2, y, {0, 1});
  EXPECT_NE(lease.plan, nullptr);
}

// --- the service ------------------------------------------------------

TEST(CancelService, ExpiredDeadlineNeverRegistersOutput) {
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.threads_per_request = 1;
  serve::ContractionService svc(cfg);
  svc.load("X", make_tensor(14));
  svc.load("Y", make_tensor(15));

  serve::ServeRequest req;
  req.x = "X";
  req.y = "Y";
  req.cx = {0, 1};
  req.cy = {0, 1};
  req.deadline_ms = 1e-6;  // already expired at pickup
  req.store_as = "Z";
  const serve::ServeReport rep = svc.contract_sync(req);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.cancelled);
  EXPECT_TRUE(rep.deadline_exceeded);
  EXPECT_EQ(rep.z, nullptr);
  EXPECT_FALSE(svc.tensors().contains("Z"));
  EXPECT_EQ(rep.retries, 0);
  svc.shutdown();
}

TEST(CancelService, NoDeadlineStillCompletes) {
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  serve::ContractionService svc(cfg);
  svc.load("X", make_tensor(16));
  svc.load("Y", make_tensor(17));
  serve::ServeRequest req;
  req.x = "X";
  req.y = "Y";
  req.cx = {0, 1};
  req.cy = {0, 1};
  const serve::ServeReport rep = svc.contract_sync(req);
  EXPECT_TRUE(rep.ok()) << rep.error;
  EXPECT_FALSE(rep.cancelled);
  EXPECT_FALSE(rep.deadline_exceeded);
  svc.shutdown();
}

TEST(CancelService, ShutdownNowResolvesEverything) {
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.threads_per_request = 1;
  cfg.queue_capacity = 16;
  serve::ContractionService svc(cfg);
  svc.load("X", make_tensor(18, 4000));
  svc.load("Y", make_tensor(19, 4000));

  std::vector<std::future<serve::ServeReport>> futures;
  for (int i = 0; i < 8; ++i) {
    serve::ServeRequest req;
    req.x = "X";
    req.y = "Y";
    req.cx = {0, 1};
    req.cy = {0, 1};
    futures.push_back(svc.submit(std::move(req)));
  }
  svc.shutdown_now();

  int completed = 0;
  int cancelled = 0;
  for (auto& f : futures) {
    const serve::ServeReport rep = f.get();  // must all resolve
    if (rep.ok()) {
      ++completed;
    } else {
      EXPECT_TRUE(rep.cancelled) << rep.error;
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, 8);
  // With 8 queued behind one worker, shutdown_now must have dropped or
  // tripped at least one.
  EXPECT_GE(cancelled, 1);

  // After the teardown nothing leaks: drop operands, clear plans.
  svc.drop("X");
  svc.drop("Y");
  svc.clear_plan_cache();
  EXPECT_EQ(svc.live_bytes(), 0u);
}

TEST(CancelService, ShedOnOverloadRejectsNewestDeterministically) {
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.threads_per_request = 1;
  cfg.queue_capacity = 1;
  cfg.shed_on_overload = true;
  serve::ContractionService svc(cfg);
  // A large Y keeps the single worker busy long enough that the burst
  // below overflows the one-slot queue (contracted dims match X's).
  GeneratorSpec xs;
  xs.dims = {64, 64, 16};
  xs.nnz = 2000;
  xs.seed = 20;
  svc.load("X", generate_random(xs));
  GeneratorSpec big;
  big.dims = {64, 64, 32};
  big.nnz = 80000;
  big.seed = 21;
  svc.load("Y", generate_random(big));

  std::vector<std::future<serve::ServeReport>> futures;
  for (int i = 0; i < 8; ++i) {
    serve::ServeRequest req;
    req.x = "X";
    req.y = "Y";
    req.cx = {0, 1};
    req.cy = {0, 1};
    futures.push_back(svc.submit(std::move(req)));  // never blocks
  }
  int shed = 0;
  for (auto& f : futures) {
    const serve::ServeReport rep = f.get();
    if (rep.rejected) {
      ++shed;
      EXPECT_NE(rep.error.find("shed"), std::string::npos) << rep.error;
    } else {
      EXPECT_TRUE(rep.ok()) << rep.error;
    }
  }
  EXPECT_GE(shed, 1);
  svc.shutdown();
}

}  // namespace
}  // namespace sparta
