// Concurrent contraction service: bounded request queue, worker pool,
// budget-aware admission control, plan cache, adaptive variant choice.
//
// One ContractionService owns
//   * a TensorRegistry of named immutable operands,
//   * a PlanCache holding prebuilt HtYs under a slice of the DRAM
//     budget,
//   * a VariantSelector picking COOY+SPA / COOY+HtA / HtY+HtA per
//     request,
//   * an AllocationRegistry with capacity = the DRAM budget, charged by
//     registered tensors, retained plans and every in-flight request's
//     working set, and
//   * a pool of worker threads draining a bounded submission queue
//     (submit() blocks when full — backpressure, not unbounded memory).
//
// Admission control runs per request against the *remaining* budget
// (capacity minus live bytes): a request whose Eq. 5 estimate cannot
// fit is degraded through contract_resilient() (or rejected when
// degradation is disabled); a request that passes admission but trips
// the runtime budget mid-flight falls back the same way.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "contraction/contract.hpp"
#include "obs/statlog.hpp"
#include "serve/plan_cache.hpp"
#include "serve/registry.hpp"
#include "serve/selector.hpp"
#include "tensor/types.hpp"

namespace sparta::serve {

struct ServeConfig {
  /// Total DRAM budget for tensors + cached plans + in-flight working
  /// sets; 0 = unlimited (admission always accepts).
  std::size_t dram_budget_bytes = 0;

  /// Fraction of the DRAM budget the plan cache may retain. Ignored
  /// when the budget is unlimited (the cache is then unlimited too).
  double cache_fraction = 0.5;

  /// Worker threads draining the queue; 0 = derived from the OpenMP
  /// thread budget (max_threads / threads_per_request, at least 1).
  int num_workers = 0;

  /// OpenMP threads per contraction; 0 = share the machine evenly
  /// (max_threads / num_workers, at least 1).
  int threads_per_request = 0;

  /// Bounded submission queue; submit() blocks while full.
  std::size_t queue_capacity = 64;

  /// Degrade over-budget requests down the resilience ladder instead
  /// of rejecting them.
  bool allow_degrade = true;

  /// Overload policy when the queue is full: instead of blocking the
  /// submitter (backpressure, the default), shed the NEWEST queued
  /// request — its promise resolves immediately with rejected=true —
  /// and enqueue the incoming one. Oldest work keeps its place, the
  /// caller learns about overload deterministically, and submit()
  /// never blocks.
  bool shed_on_overload = false;

  SelectorConfig selector;

  /// Stat store: when non-empty, every request appends one JSONL record
  /// (features, variant, cost, outcome) to this path, size-rotated at
  /// statlog_max_bytes across statlog_max_files files. Aggregate with
  /// tools/sparta_stats. See obs/statlog.hpp.
  std::string statlog_path;
  std::size_t statlog_max_bytes = 16u << 20;
  int statlog_max_files = 4;

  /// When non-empty, a request that fails hard (error outcome — not
  /// rejected, not cancelled) dumps the flight-recorder rings to this
  /// path as a Chrome trace. The caller is responsible for enabling
  /// the flight recorder (sparta_serve --flight-dump does both).
  std::string flight_dump_path;
};

/// One contraction request against registered tensors.
struct ServeRequest {
  std::string x;  ///< registry name of the first operand
  std::string y;  ///< registry name of the second operand
  Modes cx;
  Modes cy;
  /// When non-empty, Z is registered under this name (and also
  /// returned in the report).
  std::string store_as;
  /// Pin the variant instead of consulting the selector; kSparta with
  /// a cacheable plan still goes through the cache.
  bool force_variant = false;
  Algorithm variant = Algorithm::kSparta;

  /// End-to-end deadline in milliseconds, measured from submit(); 0 =
  /// none. Queue wait counts: a request whose deadline passes while
  /// queued is reported deadline-exceeded without ever occupying a
  /// worker, and one that trips mid-contraction unwinds cooperatively
  /// (see common/cancel.hpp) with its budget charges released.
  double deadline_ms = 0.0;

  /// Set by the plan executor (src/plan/) when this request is one
  /// step of a multi-step network plan: the plan's correlation id and
  /// this request's step index within it. 0 = not part of a plan. The
  /// pair rides the ambient correlation into every engine trace span
  /// and is appended to the request's statlog record, so autotune
  /// learns from chain traffic too.
  std::uint64_t plan_id = 0;
  int step_index = -1;
};

/// Everything the service knows about one completed (or failed)
/// request.
struct ServeReport {
  /// Monotonic correlation id assigned at submit() (1-based; 0 only in
  /// a default-constructed report). The same id is stamped into every
  /// engine trace span/instant this request emitted (args key
  /// "request_id") and into its statlog record, so a slow request in a
  /// merged concurrent trace maps back to exactly this report.
  std::uint64_t request_id = 0;
  std::string x;
  std::string y;
  /// Contraction key (x|y|cx|cy) scoping the selector's EWMAs and the
  /// statlog's `key` column; an intermediate "__tmp/<n>" operand
  /// appears as "__tmp/" and its dims ("__tmp/256x256").
  std::string key;
  Algorithm variant = Algorithm::kSparta;
  bool cache_hit = false;   ///< plan served from cache without a build
  bool plan_cached = false; ///< ran against a cache-retained plan
  bool degraded = false;    ///< served via the resilience ladder
  bool rejected = false;    ///< admission refused or shed the request
  bool cancelled = false;   ///< unwound via CancelToken (any reason)
  bool deadline_exceeded = false;  ///< the cancel was a deadline trip
  bool budget_exceeded = false;    ///< failure traces back to the budget
  /// The loaded cost model's predicted wall seconds for the chosen
  /// variant (0 when serving on the analytic prior) — logged next to
  /// exec_seconds so prediction error is a first-class quantity.
  double pred_seconds = 0.0;
  std::string error;        ///< empty on success
  std::string resilience;   ///< ladder summary when degraded

  double queue_seconds = 0.0;  ///< submit → worker pickup
  double exec_seconds = 0.0;   ///< contraction wall time
  /// Cancel trip → worker return; 0 unless cancelled mid-execution.
  /// Bounded by one chunk of work (the engine's poll granularity).
  double cancel_seconds = 0.0;
  /// Client-side resubmissions that preceded this report (filled by
  /// the workload runner's retry loop, not the service).
  int retries = 0;

  StageTimes stage_times;
  ContractStats stats;
  std::shared_ptr<const SparseTensor> z;  ///< null on failure

  [[nodiscard]] bool ok() const { return error.empty(); }

  /// One JSON object per request — the tools/sparta_serve --json
  /// "requests" rows.
  [[nodiscard]] std::string to_json() const;
};

class ContractionService {
 public:
  explicit ContractionService(ServeConfig cfg = {});

  /// Drains the queue (every submitted request completes), then joins
  /// the workers.
  ~ContractionService();

  ContractionService(const ContractionService&) = delete;
  ContractionService& operator=(const ContractionService&) = delete;

  /// Registers (or replaces) a named tensor; plans built from a
  /// replaced registration are invalidated. Throws BudgetExceeded when
  /// the tensor does not fit the DRAM budget.
  std::uint64_t load(const std::string& name, SparseTensor t);

  /// Drops a name and invalidates its cached plans. In-flight requests
  /// holding the tensor finish normally.
  bool drop(const std::string& name);

  /// Queues a request. Blocks while the submission queue is full
  /// (backpressure); throws sparta::Error after shutdown(). Operand
  /// names are resolved when a worker picks the request up, so an
  /// unknown name surfaces in the report, not here.
  [[nodiscard]] std::future<ServeReport> submit(ServeRequest req);

  /// submit() + wait, for tests and simple callers.
  [[nodiscard]] ServeReport contract_sync(ServeRequest req);

  /// Graceful drain: stops accepting new requests, lets every queued
  /// request run to completion, joins workers. Idempotent.
  void shutdown();

  /// Immediate drain: stops accepting new requests, resolves every
  /// still-queued promise with cancelled=true (deterministically, in
  /// submission order), trips the CancelToken of every in-flight
  /// contraction (each unwinds within one poll interval and reports
  /// cancelled), then joins workers. Idempotent; safe after
  /// shutdown().
  void shutdown_now();

  [[nodiscard]] TensorRegistry& tensors() { return registry_; }
  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  [[nodiscard]] int workers() const { return num_workers_; }
  [[nodiscard]] int threads_per_request() const {
    return threads_per_request_;
  }
  [[nodiscard]] PlanCache::Stats cache_stats() const {
    return cache_->stats();
  }

  /// The variant selector, exposed for state snapshots, the Prometheus
  /// extra section, and model installation in tests/benchmarks.
  [[nodiscard]] VariantSelector& selector() { return selector_; }
  [[nodiscard]] const VariantSelector& selector() const {
    return selector_;
  }

  struct AdmissionStats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t degraded = 0;
  };
  [[nodiscard]] AdmissionStats admission_stats() const;

  /// Remaining DRAM budget right now (capacity − live bytes); SIZE_MAX
  /// when unlimited.
  [[nodiscard]] std::size_t remaining_budget() const;

  /// Live tracked bytes across tiers — the chaos harness's "budget
  /// returns to baseline" invariant probe.
  [[nodiscard]] std::size_t live_bytes() const;

  /// Drops every retained plan (in-flight leases stay valid). Lets
  /// invariant checks separate cache-held charges from leaks.
  void clear_plan_cache();

  /// {"cache":{...},"admission":{...},"selector":{...},
  ///  "budget":{"capacity":..,"live":..}}
  [[nodiscard]] std::string counters_json() const;

  /// Records appended to the stat store so far (0 when disabled).
  [[nodiscard]] std::uint64_t statlog_lines() const {
    return statlog_.lines_written();
  }

 private:
  struct Queued {
    ServeRequest req;
    std::promise<ServeReport> promise;
    Timer queued_at;
    CancelToken cancel;  ///< live from submit(); deadline token if set
    std::uint64_t request_id = 0;
  };

  void worker_loop(int idx);
  ServeReport execute(const ServeRequest& req, const CancelToken& cancel,
                      std::uint64_t request_id);
  /// Appends the request's statlog record (when configured) and bumps
  /// the labelled outcome counters; called exactly once per resolved
  /// request, including shed and shutdown drops.
  void log_request(const ServeRequest& req, const ServeReport& rep);

  ServeConfig cfg_;
  int num_workers_ = 1;
  int threads_per_request_ = 1;

  AllocationRegistry alloc_;
  TensorRegistry registry_;
  std::unique_ptr<PlanCache> cache_;
  VariantSelector selector_;

  std::mutex qmu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::unique_ptr<Queued>> queue_;
  bool stopping_ = false;
  /// Per-worker token of the request being executed (inert when idle);
  /// guarded by qmu_. shutdown_now() trips these to cancel in-flight
  /// work.
  std::vector<CancelToken> active_;

  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> next_request_id_{0};

  obs::StatLog statlog_;
};

}  // namespace sparta::serve
