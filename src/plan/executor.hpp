// Multi-step plan execution through the ContractionService.
//
// The executor is the glue between the planner and the service: it
// resolves the network's inputs from the service's TensorRegistry,
// searches (or cache-hits) a NetworkPlan, then submits one ServeRequest
// per step. Intermediates are registered as anonymous "__tmp/" entries
// (budget-charged like any tensor) and dropped as soon as their single
// consumer step finishes; each step's request carries the plan's
// correlation pair (plan_id/step_index) so traces, statlog rows and the
// autotune loop see chain traffic as chains. The per-step deadline is
// the plan deadline minus time already spent, so a stuck chain unwinds
// exactly like a stuck request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/cache.hpp"
#include "plan/ir.hpp"
#include "plan/planner.hpp"
#include "serve/service.hpp"

namespace sparta::plan {

struct ExecOptions {
  /// End-to-end deadline across all steps, ms; 0 = none.
  double deadline_ms = 0.0;
  /// When non-empty, the final result is registered under this name.
  std::string store_as;
  /// Pin every step's variant instead of consulting the selector.
  bool force_variant = false;
  Algorithm variant = Algorithm::kSparta;
  /// Consult/populate the executor's NetworkPlanCache.
  bool use_cache = true;
  /// Search options. budget_bytes 0 inherits the service's DRAM
  /// budget (the plan must fit where it will run).
  PlanOptions plan;
};

/// Everything about one executed (or failed) network request.
struct PlanExecution {
  std::uint64_t plan_id = 0;
  bool plan_cache_hit = false;
  double plan_seconds = 0.0;  ///< search (or cache lookup) wall time
  double exec_seconds = 0.0;  ///< all steps, submit to final result
  /// The part of exec_seconds after the last step: the final permute
  /// into the output's mode order and store_as (trace span
  /// "plan.finalize").
  double finalize_seconds = 0.0;
  /// Max over steps of live "__tmp/" bytes + the step's result and
  /// HtA, + its HtY when Y is an intermediate (a registered Y's HtY is
  /// retained by the service's plan cache, not a temp) — the measured
  /// counterpart of NetworkPlan's est_peak_bytes.
  std::size_t peak_temp_bytes = 0;
  std::shared_ptr<const NetworkPlan> plan;
  std::vector<serve::ServeReport> steps;
  std::shared_ptr<const SparseTensor> z;  ///< null on failure
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }

  /// {"plan_id":..,"plan_cache_hit":..,...,"plan":{...},"steps":[...]}
  [[nodiscard]] std::string to_json() const;
};

class PlanExecutor {
 public:
  explicit PlanExecutor(serve::ContractionService& svc) : svc_(svc) {}

  /// Parses nothing — `net` is already validated. Resolves inputs,
  /// plans (through the cache), executes. Failures (unknown tensor,
  /// budget, per-step errors, deadline) are reported in the returned
  /// PlanExecution, not thrown.
  [[nodiscard]] PlanExecution run(const ContractionNetwork& net,
                                  const ExecOptions& opts = {});

  /// Executes a caller-supplied plan (bench baselines, fuzz orders)
  /// without consulting the cache or the search.
  [[nodiscard]] PlanExecution run_plan(
      const ContractionNetwork& net,
      std::shared_ptr<const NetworkPlan> plan, const ExecOptions& opts = {});

  [[nodiscard]] NetworkPlanCache& cache() { return cache_; }

 private:
  PlanExecution execute(const ContractionNetwork& net,
                        std::shared_ptr<const NetworkPlan> plan,
                        const ExecOptions& opts, PlanExecution exec);

  serve::ContractionService& svc_;
  NetworkPlanCache cache_;
};

}  // namespace sparta::plan
