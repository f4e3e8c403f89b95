#include "plan/executor.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/sparse_tensor.hpp"

namespace sparta::plan {

namespace {

/// Process-wide monotonic plan correlation ids (1-based, like request
/// ids); shared across executors so merged traces never collide.
std::uint64_t next_plan_id() {
  static std::atomic<std::uint64_t> n{0};
  return n.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<BoundInput> resolve_inputs(serve::ContractionService& svc,
                                       const ContractionNetwork& net) {
  std::vector<BoundInput> out;
  out.reserve(net.inputs.size());
  for (const NetworkTensor& t : net.inputs) {
    const serve::TensorRegistry::Handle h = svc.tensors().get(t.name);
    BoundInput b;
    b.name = t.name;
    b.dims = h.tensor->dims();
    b.nnz = h.tensor->nnz();
    b.registry_id = h.id;
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

std::string PlanExecution::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("plan_id").value(plan_id);
  w.key("plan_cache_hit").value(plan_cache_hit);
  w.key("plan_seconds").value(plan_seconds);
  w.key("exec_seconds").value(exec_seconds);
  w.key("finalize_seconds").value(finalize_seconds);
  w.key("peak_temp_bytes")
      .value(static_cast<std::uint64_t>(peak_temp_bytes));
  w.key("nnz_z").value(
      static_cast<std::uint64_t>(z != nullptr ? z->nnz() : 0));
  if (!error.empty()) w.key("error").value(std::string_view(error));
  if (plan != nullptr) w.key("plan").raw(plan->to_json());
  w.key("steps").begin_array();
  for (const serve::ServeReport& r : steps) w.raw(r.to_json());
  w.end_array();
  w.end_object();
  return w.str();
}

PlanExecution PlanExecutor::run(const ContractionNetwork& net,
                                const ExecOptions& opts) {
  PlanExecution exec;
  exec.plan_id = next_plan_id();
  Timer plan_timer;
  std::shared_ptr<const NetworkPlan> plan;
  try {
    ExecOptions eff = opts;
    if (eff.plan.budget_bytes == 0) {
      eff.plan.budget_bytes = svc_.config().dram_budget_bytes;
    }
    const std::vector<BoundInput> inputs = resolve_inputs(svc_, net);
    const std::string key = NetworkPlanCache::key(net, inputs, eff.plan);
    if (eff.use_cache) plan = cache_.get(key);
    exec.plan_cache_hit = plan != nullptr;
    if (plan == nullptr) {
      plan = std::make_shared<NetworkPlan>(
          plan_network(net, inputs, eff.plan));
      if (eff.use_cache) cache_.put(key, plan);
    }
    exec.plan_seconds = plan_timer.seconds();
    return execute(net, std::move(plan), eff, std::move(exec));
  } catch (const std::exception& e) {
    exec.plan_seconds = plan_timer.seconds();
    exec.error = e.what();
    return exec;
  }
}

PlanExecution PlanExecutor::run_plan(const ContractionNetwork& net,
                                     std::shared_ptr<const NetworkPlan> plan,
                                     const ExecOptions& opts) {
  PlanExecution exec;
  exec.plan_id = next_plan_id();
  try {
    return execute(net, std::move(plan), opts, std::move(exec));
  } catch (const std::exception& e) {
    exec.error = e.what();
    return exec;
  }
}

PlanExecution PlanExecutor::execute(const ContractionNetwork& net,
                                    std::shared_ptr<const NetworkPlan> plan,
                                    const ExecOptions& opts,
                                    PlanExecution exec) {
  exec.plan = plan;
  const std::size_t n = net.inputs.size();
  Timer exec_timer;
  if (obs::trace_enabled()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("plan_id").value(exec.plan_id);
    w.key("num_steps")
        .value(static_cast<std::uint64_t>(plan->steps.size()));
    w.key("cache_hit").value(exec.plan_cache_hit);
    w.end_object();
    obs::trace_instant("plan.start", w.str());
  }

  // node id -> registered name; ids < n are the (persistent) inputs,
  // the rest are "__tmp/" entries this execution owns.
  std::vector<std::string> node_name(n + plan->steps.size());
  for (std::size_t i = 0; i < n; ++i) node_name[i] = net.inputs[i].name;
  std::vector<std::string> live_temps;
  std::size_t live_temp_bytes = 0;
  auto drop_temp = [&](const std::string& name) {
    const auto it =
        std::find(live_temps.begin(), live_temps.end(), name);
    if (it == live_temps.end()) return;
    const serve::TensorRegistry::Handle h = svc_.tensors().try_get(name);
    if (h.valid()) live_temp_bytes -= h.tensor->footprint_bytes();
    // Through the service, so the plan cache also drops any HtY built
    // on the intermediate.
    svc_.drop(name);
    live_temps.erase(it);
  };
  auto cleanup = [&] {
    // Drop every still-live intermediate (error paths); reverse order
    // releases consumers before producers, though order is cosmetic —
    // in-flight handles keep tensors alive regardless.
    while (!live_temps.empty()) drop_temp(live_temps.back());
  };

  for (std::size_t k = 0; k < plan->steps.size(); ++k) {
    const PlanStepSpec& step = plan->steps[k];
    serve::ServeRequest req;
    req.x = node_name[step.x];
    req.y = node_name[step.y];
    req.cx = step.cx;
    req.cy = step.cy;
    req.force_variant = opts.force_variant;
    req.variant = opts.variant;
    req.plan_id = exec.plan_id;
    req.step_index = static_cast<int>(k);
    if (opts.deadline_ms > 0.0) {
      const double remaining =
          opts.deadline_ms - exec_timer.seconds() * 1000.0;
      if (remaining <= 0.0) {
        exec.error = "step " + std::to_string(k) + " (" + req.x + " x " +
                     req.y + "): plan deadline exceeded before submit";
        cleanup();
        exec.exec_seconds = exec_timer.seconds();
        return exec;
      }
      req.deadline_ms = remaining;
    }

    serve::ServeReport rep;
    try {
      rep = svc_.submit(std::move(req)).get();
    } catch (const std::exception& e) {
      exec.error = "step " + std::to_string(k) + " (" + step.x_name +
                   " x " + step.y_name + "): " + e.what();
      cleanup();
      exec.exec_seconds = exec_timer.seconds();
      return exec;
    }
    const bool final_step = k + 1 == plan->steps.size();
    if (!rep.ok() || rep.z == nullptr) {
      exec.error = "step " + std::to_string(k) + " (" + step.x_name +
                   " x " + step.y_name + "): " +
                   (rep.error.empty() ? "no result" : rep.error);
      exec.steps.push_back(std::move(rep));
      cleanup();
      exec.exec_seconds = exec_timer.seconds();
      return exec;
    }

    // Measured peak: operand/working temps were live while the step's
    // HtA and result existed simultaneously. An HtY counts only when
    // built on an intermediate: a registered Y's stays in the service's
    // plan cache, whichever request built it.
    const std::size_t step_peak =
        live_temp_bytes + rep.z->footprint_bytes() +
        (step.y >= n ? rep.stats.hty_bytes : 0) + rep.stats.hta_bytes;
    exec.peak_temp_bytes = std::max(exec.peak_temp_bytes, step_peak);

    if (final_step) {
      Timer finalize_timer;
      obs::Span finalize_span("plan.finalize");
      try {
        std::shared_ptr<const SparseTensor> z = rep.z;
        if (!plan->final_perm.empty()) {
          // The merge tree's free-X/free-Y ordering need not match the
          // declared output spec: one sorted copy in the output's mode
          // order, on the calling thread.
          z = std::make_shared<SparseTensor>(
              sorted_permuted_copy(*z, plan->final_perm, 0, 1,
                                   CancelToken{}, "sort.radix_pass")
                  .t);
        }
        exec.z = std::move(z);
        if (!opts.store_as.empty()) {
          svc_.load(opts.store_as, SparseTensor(*exec.z));
        }
      } catch (const std::exception& e) {
        // Recorded, not thrown: the temps below are still dropped.
        exec.error = exec.z == nullptr
                         ? std::string("final permute: ") + e.what()
                         : std::string("storing '") + opts.store_as +
                               "': " + e.what();
      }
      exec.finalize_seconds = finalize_timer.seconds();
    } else {
      try {
        const std::string temp =
            svc_.tensors().register_temp(SparseTensor(*rep.z));
        node_name[n + k] = temp;
        live_temps.push_back(temp);
        live_temp_bytes += rep.z->footprint_bytes();
      } catch (const std::exception& e) {
        // Typically BudgetExceeded: the intermediate does not fit.
        exec.error = "step " + std::to_string(k) +
                     ": registering intermediate: " + e.what();
        exec.steps.push_back(std::move(rep));
        cleanup();
        exec.exec_seconds = exec_timer.seconds();
        return exec;
      }
      rep.z.reset();  // the registry copy is the live one now
    }
    exec.steps.push_back(std::move(rep));
    // A temp's single consumer has finished: release it immediately so
    // its budget charge does not overlap the next step's working set.
    if (step.x >= n) drop_temp(node_name[step.x]);
    if (step.y >= n) drop_temp(node_name[step.y]);
  }
  cleanup();
  exec.exec_seconds = exec_timer.seconds();
  SPARTA_COUNTER_ADD("plan.executions", 1);
  if (obs::trace_enabled()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("plan_id").value(exec.plan_id);
    w.key("ok").value(exec.ok());
    w.end_object();
    obs::trace_instant("plan.done", w.str());
  }
  return exec;
}

}  // namespace sparta::plan
