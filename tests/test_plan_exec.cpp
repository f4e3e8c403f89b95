// Tests for the contraction-plan compiler's back half: anonymous
// "__tmp/" registry intermediates, the PlanExecutor's multi-step
// execution through the ContractionService (results, cleanup, store,
// deadlines), the NetworkPlanCache, plan-stamped statlog rows, and the
// workload grammar's `network` statement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/json_parse.hpp"
#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "plan/planner.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "tensor/generators.hpp"

namespace sparta::plan {
namespace {

using serve::ContractionService;
using serve::ServeConfig;
using serve::TensorRegistry;

SparseTensor make_tensor(std::vector<index_t> dims, std::size_t nnz,
                         std::uint64_t seed) {
  GeneratorSpec spec;
  spec.dims = std::move(dims);
  spec.nnz = nnz;
  spec.seed = seed;
  // Exact small integers: chained contractions stay exact in doubles,
  // so executor results can be compared to references with ==.
  spec.value_lo = 1.0;
  spec.value_hi = 4.0;
  SparseTensor t = generate_random(spec);
  for (std::size_t n = 0; n < t.nnz(); ++n) {
    t.value(n) = static_cast<value_t>(
        static_cast<int>(t.value(n)));
  }
  return t;
}

// -------------------------------------------------------- temp names

TEST(TensorRegistryTemps, RegisterTempNamesAreReservedAndDroppable) {
  TensorRegistry reg;
  const std::string a = reg.register_temp(make_tensor({8, 8}, 10, 1));
  const std::string b = reg.register_temp(make_tensor({8, 8}, 10, 2));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.compare(0, 6, TensorRegistry::kTempPrefix), 0) << a;
  EXPECT_TRUE(reg.try_get(a).valid());
  reg.drop(a);
  EXPECT_FALSE(reg.try_get(a).valid());
  EXPECT_TRUE(reg.try_get(b).valid());
}

TEST(TensorRegistryTemps, UserPutUnderReservedPrefixIsRejected) {
  TensorRegistry reg;
  try {
    reg.put("__tmp/7", make_tensor({4, 4}, 4, 3));
    FAIL() << "reserved-prefix put accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("reserved prefix"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- executor

const char* kChain = "Z[i,l] = A[i,j] * B[j,k] * C[k,l]";

void load_chain(ContractionService& svc) {
  svc.load("A", make_tensor({24, 24}, 160, 11));
  svc.load("B", make_tensor({24, 24}, 160, 12));
  svc.load("C", make_tensor({24, 6}, 40, 13));
}

// Brute-force reference: dense accumulation of the full 3-operand
// chain, exact in doubles because all values are small integers.
std::map<std::pair<index_t, index_t>, value_t> dense_chain_reference(
    const SparseTensor& a, const SparseTensor& b,
    const SparseTensor& c) {
  std::map<std::pair<index_t, index_t>, value_t> ab;  // (i,k) -> sum
  for (std::size_t n = 0; n < a.nnz(); ++n) {
    for (std::size_t m = 0; m < b.nnz(); ++m) {
      if (a.index(n, 1) != b.index(m, 0)) continue;
      ab[{a.index(n, 0), b.index(m, 1)}] += a.value(n) * b.value(m);
    }
  }
  std::map<std::pair<index_t, index_t>, value_t> z;  // (i,l) -> sum
  for (const auto& [ik, v] : ab) {
    for (std::size_t m = 0; m < c.nnz(); ++m) {
      if (ik.second != c.index(m, 0)) continue;
      z[{ik.first, c.index(m, 1)}] += v * c.value(m);
    }
  }
  // Explicit zeros can arise from cancellation; the engine drops
  // nothing (integer values are positive), but keep the filter honest.
  for (auto it = z.begin(); it != z.end();) {
    it = it->second == 0.0 ? z.erase(it) : std::next(it);
  }
  return z;
}

TEST(PlanExecutor, ChainResultMatchesBruteForceReference) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  PlanExecutor exec(svc);
  const PlanExecution ex = exec.run(net);
  ASSERT_TRUE(ex.ok()) << ex.error;
  ASSERT_NE(ex.z, nullptr);
  ASSERT_EQ(ex.steps.size(), 2u);

  const auto ref = dense_chain_reference(*svc.tensors().get("A").tensor,
                                         *svc.tensors().get("B").tensor,
                                         *svc.tensors().get("C").tensor);
  ASSERT_EQ(ex.z->nnz(), ref.size());
  ASSERT_EQ(ex.z->order(), 2);
  for (std::size_t n = 0; n < ex.z->nnz(); ++n) {
    const auto it =
        ref.find({ex.z->index(n, 0), ex.z->index(n, 1)});
    ASSERT_NE(it, ref.end()) << "unexpected coordinate at nz " << n;
    EXPECT_EQ(ex.z->value(n), it->second) << "at nz " << n;
  }
}

TEST(PlanExecutor, IntermediatesAreDroppedAfterExecution) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  PlanExecutor exec(svc);
  const PlanExecution ex = exec.run(net);
  ASSERT_TRUE(ex.ok()) << ex.error;
  EXPECT_GT(ex.peak_temp_bytes, 0u);
  // No anonymous entry outlives the run.
  for (const std::string& name : svc.tensors().names()) {
    EXPECT_NE(name.compare(0, 6, TensorRegistry::kTempPrefix), 0)
        << "leaked intermediate: " << name;
  }
}

TEST(PlanExecutor, StoreAsRegistersTheResult) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  PlanExecutor exec(svc);
  ExecOptions opts;
  opts.store_as = "Zkeep";
  const PlanExecution ex = exec.run(net, opts);
  ASSERT_TRUE(ex.ok()) << ex.error;
  const TensorRegistry::Handle h = svc.tensors().try_get("Zkeep");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.tensor->nnz(), ex.z->nnz());
}

TEST(PlanExecutor, RepeatedNetworkHitsThePlanCache) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  PlanExecutor exec(svc);
  const PlanExecution cold = exec.run(net);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.plan_cache_hit);
  const PlanExecution hot = exec.run(net);
  ASSERT_TRUE(hot.ok()) << hot.error;
  EXPECT_TRUE(hot.plan_cache_hit);
  EXPECT_EQ(exec.cache().stats().hits, 1u);
  EXPECT_EQ(exec.cache().stats().misses, 1u);
  // Same plan object, same step estimates — and distinct plan ids.
  EXPECT_NE(cold.plan_id, hot.plan_id);

  // Reloading an input bumps its registry id: the cache key changes
  // and the next run re-plans.
  svc.load("C", make_tensor({24, 6}, 40, 99));
  const PlanExecution after = exec.run(net);
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_FALSE(after.plan_cache_hit);
}

TEST(PlanExecutor, UnknownInputFailsGracefully) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  svc.load("A", make_tensor({8, 8}, 20, 21));
  // B missing entirely.
  const ContractionNetwork net =
      parse_network("Z[i,k] = A[i,j] * B[j,k]");
  PlanExecutor exec(svc);
  const PlanExecution ex = exec.run(net);
  EXPECT_FALSE(ex.ok());
  EXPECT_NE(ex.error.find("B"), std::string::npos) << ex.error;
}

TEST(PlanExecutor, ExpiredDeadlineUnwindsWithoutLeakingTemps) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  PlanExecutor exec(svc);
  ExecOptions opts;
  opts.deadline_ms = 1e-6;  // expires before any step can run
  const PlanExecution ex = exec.run(net, opts);
  EXPECT_FALSE(ex.ok());
  EXPECT_NE(ex.error.find("deadline"), std::string::npos) << ex.error;
  for (const std::string& name : svc.tensors().names()) {
    EXPECT_NE(name.compare(0, 6, TensorRegistry::kTempPrefix), 0)
        << "leaked intermediate: " << name;
  }
}

TEST(PlanExecutor, ExecutionJsonIsValid) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  PlanExecutor exec(svc);
  const PlanExecution ex = exec.run(net);
  ASSERT_TRUE(ex.ok()) << ex.error;
  const std::string doc = ex.to_json();
  const auto parsed = obs::json_parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  EXPECT_NE(parsed->get("plan_id"), nullptr);
  EXPECT_NE(parsed->get("steps"), nullptr);
  // The final permute + store is its own measured part of exec time.
  const obs::JsonValue* fin = parsed->get("finalize_seconds");
  ASSERT_NE(fin, nullptr) << doc;
  EXPECT_EQ(fin->number_or(-1.0), ex.finalize_seconds);
  EXPECT_GT(ex.finalize_seconds, 0.0);
  EXPECT_LE(ex.finalize_seconds, ex.exec_seconds);
}

// ------------------------------------- selector keys on intermediates

std::vector<BoundInput> bind_inputs(ContractionService& svc,
                                    const ContractionNetwork& net) {
  std::vector<BoundInput> out;
  for (const NetworkTensor& t : net.inputs) {
    const TensorRegistry::Handle h = svc.tensors().get(t.name);
    out.push_back({t.name, h.tensor->dims(), h.tensor->nnz(), h.id});
  }
  return out;
}

std::uint64_t selector_keys(const ContractionService& svc) {
  const auto doc = obs::json_parse(svc.selector().stats_json());
  return static_cast<std::uint64_t>(doc->get("keys")->number_or(-1.0));
}

TEST(PlanExecutor, RepeatedChainLearnsAndRunsSpartaOnRegisteredYs) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  const std::size_t n = net.inputs.size();
  PlanExecutor exec(svc);
  // Warm-up: the explore-first round tries COOY+SPA, then COOY+HtA,
  // then HtY+HtA on each step's key.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(exec.run(net).ok());
  std::uint64_t keys = 0;
  for (int i = 0; i < 21; ++i) {
    const PlanExecution ex = exec.run(net);
    ASSERT_TRUE(ex.ok()) << ex.error;
    ASSERT_EQ(ex.steps.size(), ex.plan->steps.size());
    bool registered_y = false;
    for (std::size_t k = 0; k < ex.steps.size(); ++k) {
      const serve::ServeReport& rep = ex.steps[k];
      // An intermediate operand is keyed by its dims, not its name.
      const PlanStepSpec& spec = ex.plan->steps[k];
      for (const std::size_t node : {spec.x, spec.y}) {
        if (node < n) continue;
        std::string dims_key(TensorRegistry::kTempPrefix);
        for (const index_t d : ex.plan->steps[node - n].out_dims) {
          if (!dims_key.ends_with('/')) dims_key += 'x';
          dims_key += std::to_string(d);
        }
        // Key fields end in '|': "__tmp/6" is a prefix of "__tmp/6x24".
        const std::string& name = node == spec.x ? rep.x : rep.y;
        EXPECT_EQ(rep.key.find(name + "|"), std::string::npos) << rep.key;
        EXPECT_NE(rep.key.find(dims_key + "|"), std::string::npos)
            << rep.key << " lacks " << dims_key;
      }
      if (ex.plan->steps[k].y >= n) continue;
      registered_y = true;
      EXPECT_EQ(rep.variant, Algorithm::kSparta)
          << "execution " << i << " step " << k << " key " << rep.key;
      EXPECT_TRUE(rep.plan_cached) << "execution " << i << " step " << k;
    }
    EXPECT_TRUE(registered_y);
    if (i == 0) keys = selector_keys(svc);
  }
  // One key per step, however often the network runs.
  EXPECT_EQ(keys, 2u);
  EXPECT_EQ(selector_keys(svc), keys);
}

// With every Y registered and its HtY served from the plan cache, no
// hash table is a temp: the measured peak is the live intermediates,
// the step's result and its HtA.
TEST(PlanExecutor, PeakTempBytesLeavesOutCachedHtYs) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  load_chain(svc);
  const ContractionNetwork net = parse_network(kChain);
  const std::size_t n = net.inputs.size();
  PlanExecutor exec(svc);
  ExecOptions opts;
  opts.force_variant = true;
  opts.variant = Algorithm::kSparta;
  ASSERT_TRUE(exec.run(net, opts).ok());  // builds each Y's HtY
  const PlanExecution ex = exec.run(net, opts);
  ASSERT_TRUE(ex.ok()) << ex.error;
  const NetworkPlan& plan = *ex.plan;
  ASSERT_EQ(ex.steps.size(), plan.steps.size());
  std::vector<std::size_t> temp_bytes(plan.steps.size(), 0);
  std::size_t live = 0;
  std::size_t want = 0;
  for (std::size_t k = 0; k < plan.steps.size(); ++k) {
    const PlanStepSpec& spec = plan.steps[k];
    const serve::ServeReport& rep = ex.steps[k];
    ASSERT_LT(spec.y, n);
    EXPECT_TRUE(rep.plan_cached) << "step " << k;
    EXPECT_GT(rep.stats.hty_bytes, 0u) << "step " << k;
    // Intermediates are dropped from the report once registered; their
    // arrays are exactly nnz long.
    const bool last = k + 1 == plan.steps.size();
    const std::size_t z_bytes =
        last ? rep.z->footprint_bytes()
             : rep.stats.nnz_z * (spec.out_labels.size() * sizeof(index_t) +
                                  sizeof(value_t));
    want = std::max(want, live + z_bytes + rep.stats.hta_bytes);
    if (!last) {
      temp_bytes[k] = z_bytes;
      live += z_bytes;
    }
    if (spec.x >= n) live -= temp_bytes[spec.x - n];
  }
  EXPECT_EQ(ex.peak_temp_bytes, want);
}

TEST(PlanExecutor, DroppedTempsReleaseTheirCachedPlans) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  svc.load("A", make_tensor({64, 64}, 300, 31));
  svc.load("B", make_tensor({64, 64}, 300, 32));
  svc.load("C", make_tensor({64, 64}, 300, 33));
  svc.load("D", make_tensor({64, 64}, 300, 34));
  const ContractionNetwork net =
      parse_network("Z[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]");
  const std::size_t n = net.inputs.size();
  // A bushy plan, (A B)(C D): its last step's Y is an intermediate, so
  // a forced HtY+HtA builds (and the cache retains) a table on it.
  std::shared_ptr<const NetworkPlan> bushy;
  for (NetworkPlan& p : enumerate_plans(net, bind_inputs(svc, net))) {
    if (p.steps.back().x >= n && p.steps.back().y >= n) {
      bushy = std::make_shared<NetworkPlan>(std::move(p));
      break;
    }
  }
  ASSERT_NE(bushy, nullptr);
  PlanExecutor exec(svc);
  ExecOptions opts;
  opts.force_variant = true;
  opts.variant = Algorithm::kSparta;
  ASSERT_TRUE(exec.run_plan(net, bushy, opts).ok());
  const serve::PlanCache::Stats first = svc.cache_stats();
  for (int i = 0; i < 4; ++i) {
    const PlanExecution ex = exec.run_plan(net, bushy, opts);
    ASSERT_TRUE(ex.ok()) << ex.error;
  }
  const serve::PlanCache::Stats last = svc.cache_stats();
  EXPECT_EQ(last.entries, first.entries);
  EXPECT_EQ(last.retained_bytes, first.retained_bytes);
  EXPECT_EQ(svc.tensors().names().size(), 4u);
}

// ------------------------------------------------ final permute

// The executor's one-pass final permute against the three steps it
// replaces: copy, permute_modes, sort.
void expect_final_permute_bitwise(ContractionService& svc,
                                  const char* expr,
                                  std::vector<std::size_t> order) {
  SCOPED_TRACE(expr);
  const ContractionNetwork net = parse_network(expr);
  auto plan = std::make_shared<NetworkPlan>(
      plan_fixed_order(net, bind_inputs(svc, net), order));
  ASSERT_FALSE(plan->final_perm.empty());
  PlanExecutor exec(svc);
  const PlanExecution ex = exec.run_plan(net, plan);
  ASSERT_TRUE(ex.ok()) << ex.error;
  ASSERT_NE(ex.steps.back().z, nullptr);
  SparseTensor ref(*ex.steps.back().z);
  ref.permute_modes(plan->final_perm);
  ref.sort();
  ASSERT_GT(ref.nnz(), 0u);
  EXPECT_EQ(ex.z->dims(), ref.dims());
  for (int m = 0; m < ref.order(); ++m) {
    EXPECT_TRUE(std::ranges::equal(ex.z->mode_indices(m),
                                   ref.mode_indices(m)))
        << "mode " << m;
  }
  ASSERT_EQ(ex.z->nnz(), ref.nnz());
  EXPECT_EQ(std::memcmp(ex.z->values().data(), ref.values().data(),
                        ref.nnz() * sizeof(value_t)),
            0);
}

TEST(PlanExecutor, FinalPermuteIsBitwiseEqualToPermuteThenSort) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  svc.load("A", make_tensor({40, 30}, 300, 41));
  svc.load("B", make_tensor({30, 50}, 300, 42));
  svc.load("T", make_tensor({30, 12, 9}, 600, 43));
  svc.load("C", make_tensor({50, 20}, 300, 46));
  // Each step yields (free X, free Y), and the planner may orient a
  // step between peers either way, so these outputs are ones no
  // orientation produces. A 2-mode transpose: the last step has the
  // intermediate as X and the input C as Y, so it yields (i,l), and
  // the output asks for (l,i).
  expect_final_permute_bitwise(svc, "Z[l,i] = A[i,j] * B[j,k] * C[k,l]",
                               {0, 1, 2});
  // 3 modes: the step yields (i,k,l) or (k,l,i).
  expect_final_permute_bitwise(svc, "Z[k,i,l] = A[i,j] * T[j,k,l]",
                               {0, 1});
  // An output LN space of 2^66 cells: the comparison-sort fallback.
  svc.load("H", make_tensor({1u << 22, 8}, 200, 44));
  svc.load("G", make_tensor({8, 1u << 22, 1u << 22}, 200, 45));
  expect_final_permute_bitwise(svc, "Z[k,i,l] = H[i,j] * G[j,k,l]",
                               {0, 1});
}

// ----------------------------------------------------- statlog stamps

TEST(PlanExecutor, StatlogRowsCarryPlanIdAndStepIndex) {
  const std::string path =
      ::testing::TempDir() + "plan_statlog.jsonl";
  std::remove(path.c_str());
  {
    ServeConfig cfg;
    cfg.num_workers = 1;
    cfg.statlog_path = path;
    ContractionService svc(cfg);
    load_chain(svc);
    const ContractionNetwork net = parse_network(kChain);
    PlanExecutor exec(svc);
    const PlanExecution ex = exec.run(net);
    ASSERT_TRUE(ex.ok()) << ex.error;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t stamped = 0;
  std::vector<std::int64_t> step_indices;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const obs::JsonValue* plan_id = doc->get("plan_id");
    if (plan_id == nullptr) continue;
    ++stamped;
    EXPECT_GT(plan_id->number_or(0.0), 0.0);
    const obs::JsonValue* step = doc->get("step_index");
    ASSERT_NE(step, nullptr) << "plan_id without step_index: " << line;
    step_indices.push_back(
        static_cast<std::int64_t>(step->number_or(-1.0)));
  }
  ASSERT_EQ(stamped, 2u);  // two steps in the 3-operand chain
  EXPECT_EQ(step_indices, (std::vector<std::int64_t>{0, 1}));
}

// ---------------------------------------------------- workload plumbing

TEST(WorkloadNetwork, StatementsParseAndRouteThroughTheRunner) {
  std::istringstream script(
      "gen A dims=24x24 nnz=160 seed=11\n"
      "gen B dims=24x24 nnz=160 seed=12\n"
      "gen C dims=24x6 nnz=40 seed=13\n"
      "network Z[i,l] = A[i,j] * B[j,k] * C[k,l] repeat=2\n");
  const std::vector<serve::WorkloadOp> ops =
      serve::parse_workload(script);

  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  PlanExecutor exec(svc);
  int runner_calls = 0;
  serve::WorkloadOptions wopts;
  wopts.network_runner = [&](ContractionService&,
                             const serve::NetworkRequest& nreq) {
    ++runner_calls;
    const ContractionNetwork net = parse_network(nreq.expr);
    ExecOptions eopts;
    if (nreq.store) eopts.store_as = net.output_name;
    const PlanExecution ex = exec.run(net, eopts);
    EXPECT_TRUE(ex.ok()) << ex.error;
    return ex.steps;
  };
  const serve::WorkloadResult res = run_workload(svc, ops, wopts);
  EXPECT_EQ(runner_calls, 2);
  EXPECT_EQ(res.reports.size(), 4u);  // 2 runs x 2 steps
  for (const auto& r : res.reports) EXPECT_TRUE(r.ok()) << r.error;
}

TEST(WorkloadNetwork, MissingRunnerIsAStructuredError) {
  std::istringstream script(
      "gen A dims=8x8 nnz=20 seed=1\n"
      "gen B dims=8x8 nnz=20 seed=2\n"
      "network Z[i,k] = A[i,j] * B[j,k]\n");
  const std::vector<serve::WorkloadOp> ops =
      serve::parse_workload(script);
  ServeConfig cfg;
  cfg.num_workers = 1;
  ContractionService svc(cfg);
  try {
    (void)run_workload(svc, ops);
    FAIL() << "network statement ran without a runner";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("network runner"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sparta::plan
