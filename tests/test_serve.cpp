// Tests for the src/serve/ subsystem: tensor registry, plan cache,
// variant selector, the contraction service (including request
// correlation, the statlog store, and flight dumps), and workload
// scripts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "contraction/contract.hpp"
#include "contraction/estimators.hpp"
#include "memsim/allocator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/registry.hpp"
#include "serve/selector.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "tensor/generators.hpp"

namespace sparta::serve {
namespace {

SparseTensor make(std::vector<index_t> dims, std::size_t nnz,
                  std::uint64_t seed) {
  GeneratorSpec s;
  s.dims = std::move(dims);
  s.nnz = nnz;
  s.seed = seed;
  return generate_random(s);
}

void expect_identical(const SparseTensor& a, const SparseTensor& b) {
  ASSERT_EQ(a.nnz(), b.nnz());
  ASSERT_EQ(a.dims(), b.dims());
  for (std::size_t n = 0; n < a.nnz(); ++n) {
    EXPECT_EQ(a.value(n), b.value(n)) << "nnz " << n;  // bit-exact
    for (int m = 0; m < a.order(); ++m) {
      EXPECT_EQ(a.index(n, m), b.index(n, m));
    }
  }
}

// --- TensorRegistry ---------------------------------------------------

TEST(TensorRegistry, PutGetDropWithMonotonicIds) {
  TensorRegistry reg;
  const std::uint64_t id1 = reg.put("a", make({8, 8}, 20, 1));
  EXPECT_GT(id1, 0u);
  EXPECT_TRUE(reg.contains("a"));
  EXPECT_EQ(reg.count(), 1u);

  const TensorRegistry::Handle h = reg.get("a");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.id, id1);
  EXPECT_EQ(h.tensor->nnz(), 20u);

  // Re-registering the same name must bump the id (staleness signal).
  const std::uint64_t id2 = reg.put("a", make({8, 8}, 30, 2));
  EXPECT_GT(id2, id1);
  EXPECT_EQ(reg.get("a").id, id2);

  EXPECT_EQ(reg.drop("a"), id2);
  EXPECT_FALSE(reg.contains("a"));
  EXPECT_FALSE(reg.try_get("a").valid());
  EXPECT_THROW((void)reg.get("a"), Error);
  EXPECT_EQ(reg.drop("a"), 0u);  // double drop is a no-op
}

TEST(TensorRegistry, DroppedTensorOutlivesTheNameForHolders) {
  TensorRegistry reg;
  reg.put("t", make({10, 10}, 50, 3));
  const TensorRegistry::Handle h = reg.get("t");
  reg.drop("t");
  EXPECT_EQ(h.tensor->nnz(), 50u);  // still alive through the handle
}

TEST(TensorRegistry, NamesAreSortedAndBytesSummed) {
  TensorRegistry reg;
  reg.put("zeta", make({8, 8}, 10, 1));
  reg.put("alpha", make({8, 8}, 10, 2));
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
  EXPECT_GT(reg.named_bytes(), 0u);
}

TEST(TensorRegistry, ChargesBudgetAndRejectsOverflow) {
  AllocationRegistry alloc;
  TensorRegistry reg(&alloc);
  SparseTensor t = make({16, 16, 16}, 500, 4);
  const std::size_t fp = t.footprint_bytes();
  alloc.set_capacity(fp + fp / 2);  // room for one tensor, not two

  reg.put("a", std::move(t));
  EXPECT_EQ(alloc.live_bytes(Tier::kDram), fp);
  EXPECT_THROW(reg.put("b", make({16, 16, 16}, 500, 5)), BudgetExceeded);
  EXPECT_FALSE(reg.contains("b"));  // failed put leaves no trace
  EXPECT_EQ(alloc.live_bytes(Tier::kDram), fp);

  reg.drop("a");
  // Charge released with the tensor.
  EXPECT_EQ(alloc.live_bytes(Tier::kDram), 0u);
}

// --- PlanCache --------------------------------------------------------

TEST(PlanCache, MissBuildThenHit) {
  const SparseTensor y = make({12, 12, 8}, 300, 7);
  PlanCache cache;
  const PlanLease miss = cache.acquire(1, y, {0, 1});
  ASSERT_NE(miss.plan, nullptr);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.cached);

  const PlanLease hit = cache.acquire(1, y, {0, 1});
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.plan.get(), miss.plan.get());  // same retained plan

  // Different contract modes are a different key.
  const PlanLease other = cache.acquire(1, y, {0});
  EXPECT_FALSE(other.hit);

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_GT(s.retained_bytes, 0u);
}

TEST(PlanCache, CachedPlanResultIsBitIdenticalToColdPath) {
  const SparseTensor x = make({12, 12, 6}, 200, 8);
  const SparseTensor y = make({12, 12, 8}, 300, 9);
  ContractOptions opts;
  opts.algorithm = Algorithm::kSparta;
  const SparseTensor cold = contract(x, y, {0, 1}, {0, 1}, opts).z;

  PlanCache cache;
  const PlanLease lease = cache.acquire(42, y, {0, 1});
  const SparseTensor warm = contract(x, *lease.plan, {0, 1}, opts).z;
  expect_identical(cold, warm);

  // Second acquisition (a hit) must serve the very same plan and thus
  // the very same result.
  const PlanLease again = cache.acquire(42, y, {0, 1});
  ASSERT_TRUE(again.hit);
  expect_identical(cold, contract(x, *again.plan, {0, 1}, opts).z);
}

TEST(PlanCache, EvictsLruWhenOverBudget) {
  const SparseTensor y1 = make({12, 12, 8}, 300, 10);
  const SparseTensor y2 = make({12, 12, 8}, 300, 11);
  // Measure one plan's retained footprint with an unlimited cache.
  std::size_t one_plan = 0;
  {
    PlanCache probe;
    (void)probe.acquire(1, y1, {0, 1});
    one_plan = probe.stats().retained_bytes;
  }
  ASSERT_GT(one_plan, 0u);

  PlanCacheConfig cfg;
  cfg.budget_bytes = one_plan + one_plan / 2;  // fits one, not two
  PlanCache cache(cfg);
  (void)cache.acquire(1, y1, {0, 1});
  (void)cache.acquire(2, y2, {0, 1});
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_FALSE(cache.peek(1, {0, 1}));  // LRU victim
  EXPECT_TRUE(cache.peek(2, {0, 1}));
  EXPECT_LE(s.retained_bytes, cfg.budget_bytes);
}

TEST(PlanCache, OversizedPlanIsServedUncached) {
  const SparseTensor y = make({12, 12, 8}, 300, 12);
  PlanCacheConfig cfg;
  cfg.budget_bytes = 1;  // nothing fits
  PlanCache cache(cfg);
  const PlanLease lease = cache.acquire(1, y, {0, 1});
  ASSERT_NE(lease.plan, nullptr);  // still usable ...
  EXPECT_FALSE(lease.cached);      // ... but the charge is the caller's
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.uncacheable, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions, 0u);  // pre-admission skipped eviction churn
}

TEST(PlanCache, InvalidateTensorDropsEntriesButNotLeases) {
  const SparseTensor y = make({12, 12, 8}, 300, 13);
  PlanCache cache;
  const PlanLease lease = cache.acquire(5, y, {0, 1});
  ASSERT_TRUE(cache.peek(5, {0, 1}));
  cache.invalidate_tensor(5);
  EXPECT_FALSE(cache.peek(5, {0, 1}));
  EXPECT_GT(lease.plan->nnz_y(), 0u);  // lease keeps the plan alive
}

TEST(PlanCache, RetainedChargeFollowsTheAllocationRegistry) {
  const SparseTensor y = make({12, 12, 8}, 300, 14);
  AllocationRegistry alloc;
  PlanCacheConfig cfg;
  cfg.registry = &alloc;
  PlanCache cache(cfg);
  {
    const PlanLease lease = cache.acquire(1, y, {0, 1});
    EXPECT_GT(alloc.live_bytes(Tier::kDram), 0u);
  }
  cache.clear();  // last reference gone -> charge released
  EXPECT_EQ(alloc.live_bytes(Tier::kDram), 0u);
}

// --- VariantSelector --------------------------------------------------

TEST(VariantSelector, CachedPlanForcesSparta) {
  VariantSelector sel;
  RequestFeatures f;
  f.nnz_x = 100;
  f.nnz_y = 100;
  f.order_y = 3;
  f.plan_cached = true;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sel.choose(f), Algorithm::kSparta);
  }
}

TEST(VariantSelector, SeedsEveryVariantBeforeExploiting) {
  VariantSelector sel;
  RequestFeatures f;
  f.nnz_x = 100;
  f.nnz_y = 100;
  f.order_y = 3;
  std::vector<Algorithm> seen;
  for (int i = 0; i < 3; ++i) {
    const Algorithm a = sel.choose(f);
    seen.push_back(a);
    sel.record(a, 1e-4, 200);
  }
  // All three variants tried exactly once, in ladder order.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], Algorithm::kSpa);
  EXPECT_EQ(seen[1], Algorithm::kCooHta);
  EXPECT_EQ(seen[2], Algorithm::kSparta);
}

TEST(VariantSelector, ExploitsTheFastestVariant) {
  SelectorConfig cfg;
  cfg.explore_period = 0;  // pure exploit after seeding
  VariantSelector sel(cfg);
  sel.record(Algorithm::kSpa, 1e-3, 100);
  sel.record(Algorithm::kCooHta, 1e-6, 100);
  sel.record(Algorithm::kSparta, 1e-4, 100);
  RequestFeatures f;
  f.nnz_x = 100;
  f.nnz_y = 100;
  f.order_y = 3;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sel.choose(f), Algorithm::kCooHta);
  }
  EXPECT_EQ(sel.variant_stats(Algorithm::kCooHta).runs, 1u);
}

TEST(VariantSelector, TightBudgetPrunesSparta) {
  SelectorConfig cfg;
  cfg.explore_period = 0;
  VariantSelector sel(cfg);
  // Make HtY+HtA the EWMA favourite so only feasibility can stop it.
  sel.record(Algorithm::kSpa, 1e-3, 100);
  sel.record(Algorithm::kCooHta, 1e-3, 100);
  sel.record(Algorithm::kSparta, 1e-9, 100);
  RequestFeatures f;
  f.nnz_x = 1000;
  f.nnz_y = 100000;  // Eq. 5 footprint far above ...
  f.order_y = 4;
  f.budget_remaining = 1024;  // ... the remaining budget
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(sel.choose(f), Algorithm::kSparta);
  }
  f.budget_remaining = 0;  // unlimited -> favourite wins again
  EXPECT_EQ(sel.choose(f), Algorithm::kSparta);
}

TEST(VariantSelector, PeriodicExplorationPreventsStarvation) {
  SelectorConfig cfg;
  cfg.explore_period = 4;
  VariantSelector sel(cfg);
  sel.record(Algorithm::kSpa, 1e-9, 100);  // overwhelming favourite
  sel.record(Algorithm::kCooHta, 1e-3, 100);
  sel.record(Algorithm::kSparta, 1e-3, 100);
  RequestFeatures f;
  f.nnz_x = 100;
  f.nnz_y = 100;
  f.order_y = 3;
  bool explored_other = false;
  for (int i = 0; i < 16; ++i) {
    if (sel.choose(f) != Algorithm::kSpa) explored_other = true;
  }
  EXPECT_TRUE(explored_other);
}

TEST(VariantSelector, RejectsUnmanagedAlgorithm) {
  VariantSelector sel;
  EXPECT_THROW(sel.record(Algorithm::kCooBinary, 1e-3, 1), Error);
}

// --- ContractionService -----------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  SparseTensor x_ = make({20, 20, 10}, 400, 21);
  SparseTensor y_ = make({20, 20, 12}, 600, 22);
  Modes cx_{0, 1};
  Modes cy_{0, 1};

  SparseTensor direct(Algorithm a) const {
    ContractOptions opts;
    opts.algorithm = a;
    return contract(x_, y_, cx_, cy_, opts).z;
  }

  static ServeRequest request(Algorithm a) {
    ServeRequest req;
    req.x = "X";
    req.y = "Y";
    req.cx = {0, 1};
    req.cy = {0, 1};
    req.force_variant = true;
    req.variant = a;
    return req;
  }
};

TEST_F(ServiceTest, EveryForcedVariantMatchesDirectContraction) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", y_);
  for (const Algorithm a :
       {Algorithm::kSpa, Algorithm::kCooHta, Algorithm::kSparta}) {
    const ServeReport rep = svc.contract_sync(request(a));
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.variant, a);
    ASSERT_NE(rep.z, nullptr);
    expect_identical(direct(a), *rep.z);
  }
}

TEST_F(ServiceTest, CachedHtyIsBitIdenticalToColdSparta) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", y_);

  const ServeReport cold = svc.contract_sync(request(Algorithm::kSparta));
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cache_hit);  // first request built the plan

  const ServeReport hit = svc.contract_sync(request(Algorithm::kSparta));
  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.plan_cached);

  // The acceptance criterion: a cache-served HtY must produce exactly
  // the result the cold HtY+HtA path produced.
  expect_identical(*cold.z, *hit.z);
  expect_identical(direct(Algorithm::kSparta), *hit.z);

  const PlanCache::Stats cs = svc.cache_stats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_GE(cs.hits, 1u);
}

TEST_F(ServiceTest, UnknownOperandFailsTheRequestNotTheService) {
  ContractionService svc;
  svc.load("X", x_);
  ServeRequest req = request(Algorithm::kSpa);
  req.y = "missing";
  const ServeReport rep = svc.contract_sync(req);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.error.find("missing"), std::string::npos) << rep.error;
  EXPECT_FALSE(rep.rejected);  // lookup failure, not admission

  // The service is still healthy.
  svc.load("Y", y_);
  EXPECT_TRUE(svc.contract_sync(request(Algorithm::kSpa)).ok());
}

TEST_F(ServiceTest, StoreAsRegistersTheResultForChaining) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", y_);
  ServeRequest req = request(Algorithm::kSparta);
  req.store_as = "Z";
  const ServeReport rep = svc.contract_sync(req);
  ASSERT_TRUE(rep.ok()) << rep.error;
  ASSERT_TRUE(svc.tensors().contains("Z"));

  // Z has dims {10, 12}; contract it with itself over its first mode.
  ServeRequest chain;
  chain.x = "Z";
  chain.y = "Z";
  chain.cx = {0};
  chain.cy = {0};
  const ServeReport rep2 = svc.contract_sync(chain);
  ASSERT_TRUE(rep2.ok()) << rep2.error;
  EXPECT_EQ(rep2.z->order(), 2);
}

TEST_F(ServiceTest, TinyBudgetRejectsWhenDegradeIsDisabled) {
  ServeConfig cfg;
  cfg.allow_degrade = false;
  // Room to register the operands, but a remaining budget far below
  // the admission floor (the operands' own footprints).
  cfg.dram_budget_bytes =
      x_.footprint_bytes() + y_.footprint_bytes() + 1024;
  ContractionService svc(cfg);
  svc.load("X", x_);
  svc.load("Y", y_);
  const ServeReport rep = svc.contract_sync(request(Algorithm::kSparta));
  EXPECT_TRUE(rep.rejected);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(svc.admission_stats().rejected, 1u);

  // An over-budget load is the registry's own error, synchronous.
  EXPECT_THROW(svc.load("big", make({64, 64, 64}, 20000, 23)),
               BudgetExceeded);
}

TEST_F(ServiceTest, TinyBudgetDegradesWhenAllowed) {
  ServeConfig cfg;
  cfg.allow_degrade = true;
  // 256 KiB of slack: below the operands' combined footprint (so
  // admission must degrade) but enough for a degraded-ladder run of
  // this small contraction.
  SparseTensor bx = make({60, 60, 10}, 12000, 24);
  SparseTensor by = make({60, 60, 10}, 12000, 25);
  cfg.dram_budget_bytes =
      bx.footprint_bytes() + by.footprint_bytes() + (256u << 10);
  ASSERT_GT(bx.footprint_bytes() + by.footprint_bytes(), 256u << 10);
  ContractionService svc(cfg);
  svc.load("X", bx);
  svc.load("Y", by);

  ServeRequest req;
  req.x = "X";
  req.y = "Y";
  req.cx = {0, 1};
  req.cy = {0, 1};
  const ServeReport rep = svc.contract_sync(req);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_TRUE(rep.degraded);
  EXPECT_FALSE(rep.resilience.empty());
  EXPECT_GE(svc.admission_stats().degraded, 1u);

  ContractOptions opts;
  const SparseTensor want = contract(bx, by, {0, 1}, {0, 1}, opts).z;
  ASSERT_NE(rep.z, nullptr);
  EXPECT_TRUE(SparseTensor::approx_equal(want, *rep.z, 1e-9));
}

TEST_F(ServiceTest, EmptyOperandFlowsThroughEveryVariant) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", SparseTensor(std::vector<index_t>{20, 20, 12}));
  for (const Algorithm a :
       {Algorithm::kSpa, Algorithm::kCooHta, Algorithm::kSparta}) {
    const ServeReport rep = svc.contract_sync(request(a));
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.z->nnz(), 0u);
  }
}

TEST_F(ServiceTest, SubmitAfterShutdownThrows) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", y_);
  svc.shutdown();
  svc.shutdown();  // idempotent
  EXPECT_THROW((void)svc.submit(request(Algorithm::kSpa)), Error);
}

TEST_F(ServiceTest, ReportJsonCarriesTheContract) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", y_);
  const ServeReport rep = svc.contract_sync(request(Algorithm::kSparta));
  const std::string j = rep.to_json();
  EXPECT_NE(j.find("\"variant\":\"HtY+HtA\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"ok\":true"), std::string::npos) << j;
  const std::string counters = svc.counters_json();
  EXPECT_NE(counters.find("\"cache\""), std::string::npos);
  EXPECT_NE(counters.find("\"admission\""), std::string::npos);
  EXPECT_NE(counters.find("\"selector\""), std::string::npos);
}

// --- Telemetry: correlation, statlog, flight dumps --------------------

TEST_F(ServiceTest, RequestIdsAreMonotonicAndUnique) {
  ContractionService svc;
  svc.load("X", x_);
  svc.load("Y", y_);
  std::vector<std::future<ServeReport>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(svc.submit(request(Algorithm::kSpa)));
  }
  std::set<std::uint64_t> ids;
  for (auto& f : futs) {
    const ServeReport rep = f.get();
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_GE(rep.request_id, 1u);
    ids.insert(rep.request_id);
  }
  EXPECT_EQ(ids.size(), 8u);  // all distinct
  EXPECT_EQ(*ids.rbegin(), 8u);  // dense 1..8: assigned at submit()
  // The JSON row carries the id for offline join with traces/statlogs.
  ServeReport rep = svc.contract_sync(request(Algorithm::kSpa));
  EXPECT_NE(rep.to_json().find("\"request_id\":9"), std::string::npos)
      << rep.to_json();
}

// The tentpole invariant: in a merged trace of CONCURRENT requests,
// every span/instant that carries a request_id arg maps to exactly one
// ServeReport, and every report has at least one span. Without
// correlation ids a concurrent trace is an unattributable soup; this
// test is what "request-scoped" means.
TEST_F(ServiceTest, ConcurrentTraceSpansMapToExactlyOneReport) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();

  ServeConfig cfg;
  cfg.num_workers = 4;  // real concurrency: interleaved worker spans
  ContractionService svc(cfg);
  svc.load("X", x_);
  svc.load("Y", y_);
  std::vector<std::future<ServeReport>> futs;
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    // Mix of variants so different engine paths emit under load.
    futs.push_back(svc.submit(request(
        i % 2 == 0 ? Algorithm::kSparta : Algorithm::kCooHta)));
  }
  std::set<std::uint64_t> report_ids;
  for (auto& f : futs) {
    const ServeReport rep = f.get();
    ASSERT_TRUE(rep.ok()) << rep.error;
    report_ids.insert(rep.request_id);
  }
  svc.shutdown();
  rec.disable();
  ASSERT_EQ(report_ids.size(), kRequests);

  // Walk every recorded event; each request_id arg must be a known
  // report id (no orphans, no stale thread-local leakage), and every
  // report must have been traced.
  std::map<std::uint64_t, std::size_t> spans_per_request;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    if (e.args.empty() || e.phase == 'C') continue;
    const std::optional<obs::JsonValue> args = obs::json_parse(e.args);
    ASSERT_TRUE(args.has_value()) << e.args;
    const obs::JsonValue* rid = args->get("request_id");
    if (rid == nullptr) continue;  // not request-scoped (e.g. load())
    const auto id = static_cast<std::uint64_t>(rid->number_or(0));
    EXPECT_EQ(report_ids.count(id), 1u)
        << "span '" << e.name << "' carries unknown request_id " << id;
    ++spans_per_request[id];
  }
  EXPECT_EQ(spans_per_request.size(), report_ids.size());
  for (const std::uint64_t id : report_ids) {
    EXPECT_GE(spans_per_request[id], 1u) << "request " << id;
  }
  rec.clear();
}

TEST_F(ServiceTest, StatlogRecordsEveryResolvedRequest) {
  const std::string path = ::testing::TempDir() + "serve_statlog.jsonl";
  std::remove(path.c_str());
  ServeConfig cfg;
  cfg.statlog_path = path;
  {
    ContractionService svc(cfg);
    svc.load("X", x_);
    svc.load("Y", y_);
    ASSERT_TRUE(svc.contract_sync(request(Algorithm::kSparta)).ok());
    ASSERT_TRUE(svc.contract_sync(request(Algorithm::kSparta)).ok());
    ServeRequest bad = request(Algorithm::kSpa);
    bad.y = "missing";
    EXPECT_FALSE(svc.contract_sync(bad).ok());
    EXPECT_EQ(svc.statlog_lines(), 3u);
  }
  std::ifstream in(path);
  std::string line;
  std::set<std::uint64_t> ids;
  std::map<std::string, int> outcomes;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const std::optional<obs::JsonValue> rec = obs::json_parse(line);
    ASSERT_TRUE(rec.has_value()) << line;
    EXPECT_EQ(rec->get("schema_version")->number_or(0), 2.0);
    ids.insert(
        static_cast<std::uint64_t>(rec->get("request_id")->number_or(0)));
    ++outcomes[rec->get("outcome")->string_or("?")];
    ASSERT_NE(rec->get("variant"), nullptr);
    ASSERT_NE(rec->get("exec_seconds"), nullptr);
    ASSERT_NE(rec->get("stages"), nullptr);
    ASSERT_NE(rec->get("perf"), nullptr);
    // Schema-2 additions: feature-vector version, environment, and the
    // deciding model — always present, even on failed requests.
    EXPECT_EQ(rec->get("feature_version")->number_or(0), 1.0);
    ASSERT_NE(rec->get("key"), nullptr);
    ASSERT_NE(rec->get("simd_isa"), nullptr);
    EXPECT_EQ(rec->get("swiss_tables"), nullptr);
    ASSERT_NE(rec->get("model_id"), nullptr);
    EXPECT_EQ(rec->get("selector_prior")->string_or("?"), "analytic");
    ASSERT_NE(rec->get("est_hty_bytes"), nullptr);
    ASSERT_NE(rec->get("hty_bytes"), nullptr);
    ASSERT_NE(rec->get("pred_seconds"), nullptr);
    // Operand features resolved at log time for live tensors.
    if (rec->get("outcome")->string_or("") == "ok") {
      ASSERT_NE(rec->get("nnz_x"), nullptr) << line;
      ASSERT_NE(rec->get("density_x"), nullptr) << line;
      EXPECT_EQ(rec->get("nnz_x")->number_or(0),
                static_cast<double>(x_.nnz()));
      // Second request hit the plan cache.
    }
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(ids.size(), 3u);  // one record per request, ids distinct
  EXPECT_EQ(outcomes["ok"], 2);
  EXPECT_EQ(outcomes["error"], 1);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, HardFailureDumpsFlightRecorder) {
  const std::string dump = ::testing::TempDir() + "serve_flight.json";
  std::remove(dump.c_str());
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.clear();
  fr.enable();
  ServeConfig cfg;
  cfg.flight_dump_path = dump;
  {
    ContractionService svc(cfg);
    svc.load("X", x_);
    svc.load("Y", y_);
    // A healthy request must NOT dump.
    ASSERT_TRUE(svc.contract_sync(request(Algorithm::kSpa)).ok());
    std::ifstream probe(dump);
    EXPECT_FALSE(probe.good()) << "dump written for a healthy request";
    // A hard failure (unknown operand -> error outcome) must dump.
    ServeRequest bad = request(Algorithm::kSpa);
    bad.y = "missing";
    EXPECT_FALSE(svc.contract_sync(bad).ok());
  }
  fr.disable();
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << "no flight dump at " << dump;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(obs::json_valid(ss.str()));
  EXPECT_NE(ss.str().find("\"flight_recorder\":true"), std::string::npos);
  // The healthy request's engine spans are in the ring, so the dump
  // carries its correlation id — post-mortem context, not just the
  // failing request.
  EXPECT_NE(ss.str().find("\"request_id\":"), std::string::npos);
  std::remove(dump.c_str());
  fr.clear();
}

// --- Workload scripts -------------------------------------------------

TEST(Workload, ParsesEveryOpKind) {
  std::istringstream in(
      "# comment\n"
      "gen A dims=8x8x4 nnz=100 seed=3\n"
      "\n"
      "contract Z A A cx=0,1 cy=0,1 repeat=3 variant=sparta\n"
      "contract K A A cx=0 cy=0 store\n"
      "drop A\n");
  const std::vector<WorkloadOp> ops = parse_workload(in);
  ASSERT_EQ(ops.size(), 4u);

  EXPECT_EQ(ops[0].kind, WorkloadOp::Kind::kGen);
  EXPECT_EQ(ops[0].name, "A");
  EXPECT_EQ(ops[0].gen.nnz, 100u);
  ASSERT_EQ(ops[0].gen.dims.size(), 3u);
  EXPECT_EQ(ops[0].gen.dims[2], 4);

  EXPECT_EQ(ops[1].kind, WorkloadOp::Kind::kContract);
  EXPECT_EQ(ops[1].repeat, 3);
  EXPECT_TRUE(ops[1].request.force_variant);
  EXPECT_EQ(ops[1].request.variant, Algorithm::kSparta);
  EXPECT_TRUE(ops[1].request.store_as.empty());

  EXPECT_EQ(ops[2].request.store_as, "K");
  EXPECT_FALSE(ops[2].request.force_variant);

  EXPECT_EQ(ops[3].kind, WorkloadOp::Kind::kDrop);
  EXPECT_EQ(ops[3].line, 6);
}

TEST(Workload, ParseErrorsNameTheLine) {
  const auto expect_fail = [](const std::string& script,
                              const std::string& needle) {
    std::istringstream in(script);
    try {
      (void)parse_workload(in);
      FAIL() << "expected Error for: " << script;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_fail("gen A dims=8x8\n", "line 1");
  expect_fail("\nbogus A\n", "line 2");
  expect_fail("contract Z A B cx=0,1 repeat=2\n", "cx= and cy=");
  expect_fail("contract Z A B cx=0 cy=0 repeat=2 store\n",
              "store and repeat");
  expect_fail("contract Z A B cx=0 cy=0 variant=magic\n",
              "unknown variant");
}

TEST(Workload, RunsDeterministicallyAcrossClientCounts) {
  const std::string script =
      "gen A dims=10x10x6 nnz=200 seed=5\n"
      "gen B dims=10x10x8 nnz=300 seed=6\n"
      "contract Z A B cx=0,1 cy=0,1 repeat=6\n"
      "contract S A B cx=0,1 cy=0,1 variant=sparta store\n"
      "contract W S S cx=0 cy=0\n"
      "drop A\n";
  const auto run = [&](int clients) {
    std::istringstream in(script);
    const std::vector<WorkloadOp> ops = parse_workload(in);
    ContractionService svc;
    WorkloadOptions wopts;
    wopts.clients = clients;
    WorkloadResult res = run_workload(svc, ops, wopts);
    EXPECT_FALSE(svc.tensors().contains("A"));
    EXPECT_TRUE(svc.tensors().contains("S"));
    return res;
  };
  const WorkloadResult one = run(1);
  const WorkloadResult four = run(4);
  ASSERT_EQ(one.reports.size(), 8u);
  ASSERT_EQ(four.reports.size(), 8u);
  for (std::size_t i = 0; i < one.reports.size(); ++i) {
    ASSERT_TRUE(one.reports[i].ok()) << one.reports[i].error;
    ASSERT_TRUE(four.reports[i].ok()) << four.reports[i].error;
    expect_identical(*one.reports[i].z, *four.reports[i].z);
  }
}

}  // namespace
}  // namespace sparta::serve
