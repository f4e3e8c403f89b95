#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "contraction/estimators.hpp"
#include "contraction/resilient.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/costmodel.hpp"
#include "simd/dispatch.hpp"
#include "simd/swiss_table.hpp"

namespace sparta::serve {

namespace {

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

// Statlog/metrics outcome label; the enum check_statlog.py validates.
const char* outcome_of(const ServeReport& rep) {
  if (rep.ok()) return rep.degraded ? "degraded" : "ok";
  if (rep.rejected) return "rejected";
  if (rep.deadline_exceeded) return "deadline";
  if (rep.cancelled) return "cancelled";
  if (rep.budget_exceeded) return "budget";
  return "error";
}

// nnz / Π(dims) in double arithmetic: mode-size products overflow
// uint64 routinely (that is why they exist), doubles do not care.
double density_of(std::size_t nnz, const std::vector<index_t>& dims) {
  double cells = 1.0;
  for (const index_t d : dims) cells *= static_cast<double>(d);
  return cells > 0.0 ? static_cast<double>(nnz) / cells : 0.0;
}

void write_dims(obs::JsonWriter& w, const std::vector<index_t>& dims) {
  w.begin_array();
  for (const index_t d : dims) w.value(static_cast<std::uint64_t>(d));
  w.end_array();
}

void write_modes(obs::JsonWriter& w, const Modes& modes) {
  w.begin_array();
  for (const int m : modes) w.value(m);
  w.end_array();
}

std::string modes_str(const Modes& modes) {
  std::string out;
  for (const int m : modes) {
    if (!out.empty()) out += ',';
    out += std::to_string(m);
  }
  return out;
}

// An operand's part of the contraction key: its registry name, except
// that an intermediate's one-shot "__tmp/<n>" name becomes "__tmp/" and
// its dims ("__tmp/256x256"), so every execution of a network step
// shares one key.
std::string operand_key(const std::string& name,
                        const TensorRegistry::Handle& h) {
  if (!h.valid() || !name.starts_with(TensorRegistry::kTempPrefix)) {
    return name;
  }
  std::string out = TensorRegistry::kTempPrefix;
  for (std::size_t m = 0; m < h.tensor->dims().size(); ++m) {
    if (m > 0) out += 'x';
    out += std::to_string(h.tensor->dims()[m]);
  }
  return out;
}

// The selector's EWMA scope: one entry per (operands, contract modes)
// tuple, matching the statlog's `key` column and the regret replay's
// oracle table.
std::string contraction_key(const ServeRequest& req,
                            const TensorRegistry::Handle& hx,
                            const TensorRegistry::Handle& hy) {
  return operand_key(req.x, hx) + "|" + operand_key(req.y, hy) + "|" +
         modes_str(req.cx) + "|" + modes_str(req.cy);
}

}  // namespace

std::string ServeReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("request_id").value(request_id);
  w.key("x").value(std::string_view(x));
  w.key("y").value(std::string_view(y));
  w.key("variant").value(algorithm_name(variant));
  w.key("ok").value(ok());
  w.key("cache_hit").value(cache_hit);
  w.key("plan_cached").value(plan_cached);
  w.key("degraded").value(degraded);
  w.key("rejected").value(rejected);
  w.key("cancelled").value(cancelled);
  w.key("deadline_exceeded").value(deadline_exceeded);
  w.key("budget_exceeded").value(budget_exceeded);
  w.key("queue_seconds").value(queue_seconds);
  w.key("exec_seconds").value(exec_seconds);
  w.key("cancel_seconds").value(cancel_seconds);
  w.key("retries").value(retries);
  w.key("pred_seconds").value(pred_seconds);
  w.key("nnz_z").value(static_cast<std::uint64_t>(stats.nnz_z));
  if (!error.empty()) w.key("error").value(std::string_view(error));
  if (!resilience.empty()) {
    w.key("resilience").value(std::string_view(resilience));
  }
  w.key("stages").raw(stage_times.to_json());
  w.key("counters").raw(stats.to_json());
  w.end_object();
  return w.str();
}

ContractionService::ContractionService(ServeConfig cfg)
    : cfg_(cfg), registry_(&alloc_), selector_(cfg.selector) {
  SPARTA_CHECK(cfg_.cache_fraction >= 0.0 && cfg_.cache_fraction <= 1.0,
               "cache_fraction must be in [0, 1]");
  SPARTA_CHECK(cfg_.queue_capacity > 0,
               "queue_capacity must be positive");
  SPARTA_CHECK(cfg_.num_workers >= 0 && cfg_.threads_per_request >= 0,
               "worker/thread counts must be >= 0 (0 = auto)");

  // Size the pool against the OpenMP thread budget: workers ×
  // threads-per-request ≈ the machine, never oversubscribing by
  // default. Explicit values win over the derived ones.
  const int machine = std::max(1, max_threads());
  if (cfg_.num_workers > 0) {
    num_workers_ = cfg_.num_workers;
  } else {
    const int tpr =
        cfg_.threads_per_request > 0 ? cfg_.threads_per_request : 1;
    num_workers_ = std::max(1, machine / tpr);
  }
  threads_per_request_ = cfg_.threads_per_request > 0
                             ? cfg_.threads_per_request
                             : std::max(1, machine / num_workers_);

  alloc_.set_capacity(cfg_.dram_budget_bytes);
  PlanCacheConfig pc;
  pc.budget_bytes =
      cfg_.dram_budget_bytes == 0
          ? 0
          : static_cast<std::size_t>(
                static_cast<double>(cfg_.dram_budget_bytes) *
                cfg_.cache_fraction);
  pc.registry = &alloc_;
  cache_ = std::make_unique<PlanCache>(pc);

  if (!cfg_.statlog_path.empty()) {
    statlog_.open({cfg_.statlog_path, cfg_.statlog_max_bytes,
                   cfg_.statlog_max_files});
  }

  active_.resize(static_cast<std::size_t>(num_workers_));
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ContractionService::~ContractionService() { shutdown(); }

std::uint64_t ContractionService::load(const std::string& name,
                                       SparseTensor t) {
  const TensorRegistry::Handle old = registry_.try_get(name);
  const std::uint64_t id = registry_.put(name, std::move(t));
  // Plans built from a replaced registration are stale; their HtY
  // describes a tensor no one can name any more.
  if (old.valid()) cache_->invalidate_tensor(old.id);
  return id;
}

bool ContractionService::drop(const std::string& name) {
  const std::uint64_t id = registry_.drop(name);
  if (id == 0) return false;
  cache_->invalidate_tensor(id);
  return true;
}

std::future<ServeReport> ContractionService::submit(ServeRequest req) {
  auto q = std::make_unique<Queued>();
  q->req = std::move(req);
  // 1-based so a report (or span) with request_id 0 is unambiguously
  // "never submitted".
  q->request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The deadline clock starts here: queue wait spends it exactly like
  // execution time does.
  q->cancel = q->req.deadline_ms > 0.0
                  ? CancelToken::with_deadline(q->req.deadline_ms / 1e3)
                  : CancelToken::make();
  std::future<ServeReport> fut = q->promise.get_future();
  std::unique_ptr<Queued> shed;
  {
    std::unique_lock<std::mutex> lk(qmu_);
    if (cfg_.shed_on_overload) {
      // Load shedding: make room by dropping the newest queued request
      // — the one whose submitter has waited least and loses least by
      // retrying — instead of blocking this submitter.
      if (!stopping_ && queue_.size() >= cfg_.queue_capacity) {
        shed = std::move(queue_.back());
        queue_.pop_back();
      }
    } else {
      not_full_.wait(lk, [this] {
        return stopping_ || queue_.size() < cfg_.queue_capacity;
      });
    }
    if (stopping_) {
      throw Error("contraction service is shut down");
    }
    q->queued_at.reset();  // queue wait starts now, not at construction
    queue_.push_back(std::move(q));
    SPARTA_GAUGE_MAX("serve.queue.depth", queue_.size());
    // Last-sampled depth (vs the high-water mark above) — the live
    // exposition's instantaneous backlog signal.
    SPARTA_GAUGE_SET("serve.queue_depth", queue_.size());
  }
  not_empty_.notify_one();
  if (shed != nullptr) {
    SPARTA_COUNTER_ADD("serve.shed", 1);
    ServeReport rep;
    rep.request_id = shed->request_id;
    rep.x = shed->req.x;
    rep.y = shed->req.y;
    rep.rejected = true;
    rep.error = "shed on overload: queue full";
    rep.queue_seconds = shed->queued_at.seconds();
    log_request(shed->req, rep);
    shed->promise.set_value(std::move(rep));
  }
  return fut;
}

ServeReport ContractionService::contract_sync(ServeRequest req) {
  return submit(std::move(req)).get();
}

void ContractionService::shutdown() {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Learned state outlives the process: the next service constructed
  // with the same state_path resumes with these EWMAs instead of cold.
  selector_.save_state();
}

void ContractionService::shutdown_now() {
  std::vector<std::unique_ptr<Queued>> dropped;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    stopping_ = true;
    dropped.reserve(queue_.size());
    while (!queue_.empty()) {
      dropped.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    for (const CancelToken& t : active_) {
      t.request_cancel("service shutdown");
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  // Resolve dropped promises in submission order — a deterministic
  // rejection, not a broken future.
  for (std::unique_ptr<Queued>& q : dropped) {
    SPARTA_COUNTER_ADD("serve.cancelled", 1);
    ServeReport rep;
    rep.request_id = q->request_id;
    rep.x = q->req.x;
    rep.y = q->req.y;
    rep.cancelled = true;
    rep.error = "cancelled: service shutdown";
    rep.queue_seconds = q->queued_at.seconds();
    log_request(q->req, rep);
    q->promise.set_value(std::move(rep));
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  selector_.save_state();
}

ContractionService::AdmissionStats ContractionService::admission_stats()
    const {
  return {accepted_.load(std::memory_order_relaxed),
          rejected_.load(std::memory_order_relaxed),
          degraded_.load(std::memory_order_relaxed)};
}

std::size_t ContractionService::remaining_budget() const {
  const std::size_t cap = alloc_.capacity();
  if (cap == 0) return kUnlimited;
  const std::size_t live =
      alloc_.live_bytes(Tier::kDram) + alloc_.live_bytes(Tier::kPmm);
  return live >= cap ? 0 : cap - live;
}

std::size_t ContractionService::live_bytes() const {
  return alloc_.live_bytes(Tier::kDram) + alloc_.live_bytes(Tier::kPmm);
}

void ContractionService::clear_plan_cache() { cache_->clear(); }

std::string ContractionService::counters_json() const {
  const AdmissionStats a = admission_stats();
  obs::JsonWriter w;
  w.begin_object();
  w.key("cache").raw(cache_->stats_json());
  w.key("admission").begin_object();
  w.key("accepted").value(a.accepted);
  w.key("rejected").value(a.rejected);
  w.key("degraded").value(a.degraded);
  w.end_object();
  w.key("selector").raw(selector_.stats_json());
  w.key("budget").begin_object();
  w.key("capacity").value(static_cast<std::uint64_t>(alloc_.capacity()));
  w.key("live")
      .value(static_cast<std::uint64_t>(
          alloc_.live_bytes(Tier::kDram) +
          alloc_.live_bytes(Tier::kPmm)));
  w.end_object();
  w.end_object();
  return w.str();
}

void ContractionService::worker_loop(int idx) {
  const auto slot = static_cast<std::size_t>(idx);
  for (;;) {
    std::unique_ptr<Queued> q;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      not_empty_.wait(lk,
                      [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      q = std::move(queue_.front());
      queue_.pop_front();
      // Publish the in-flight token while still holding qmu_, so
      // shutdown_now() sees either the queued item or the active token
      // — never neither.
      active_[slot] = q->cancel;
      SPARTA_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    not_full_.notify_one();
    const double waited = q->queued_at.seconds();
    SPARTA_HISTOGRAM_RECORD("serve.queue_wait_us", waited * 1e6);

    // Every span/instant from here to the promise resolution — the
    // serve.request umbrella span and everything the engine emits —
    // carries this request's correlation id.
    obs::RequestIdScope rid_scope(q->request_id);
    // Plan-step requests additionally carry their plan's correlation
    // pair so multi-step traces nest under one plan id.
    obs::PlanStepScope plan_scope(q->req.plan_id, q->req.step_index);
    obs::Span request_span(obs::TraceRecorder::global(), "serve.request");
    if (request_span.active()) {
      obs::JsonWriter aw;
      aw.begin_object();
      aw.key("x").value(std::string_view(q->req.x));
      aw.key("y").value(std::string_view(q->req.y));
      // Which brain decided: empty = analytic prior, else the loaded
      // cost model's content id.
      aw.key("model_id").value(std::string_view(selector_.model_id()));
      aw.end_object();
      request_span.set_args(aw.str());
    }

    ServeReport rep;
    if (q->cancel.cancelled()) {
      // The deadline (or a shutdown cancel) expired while the request
      // was queued: report it without occupying the worker.
      rep.x = q->req.x;
      rep.y = q->req.y;
      rep.cancelled = true;
      rep.deadline_exceeded = q->cancel.deadline_expired();
      rep.error = rep.deadline_exceeded
                      ? "deadline exceeded while queued"
                      : std::string("cancelled: ") + q->cancel.reason();
    } else {
      try {
        rep = execute(q->req, q->cancel, q->request_id);
      } catch (const Cancelled& e) {
        // Cancellation unwound the contraction (all charges released
        // by RAII on the way out). Not a worker failure.
        rep.x = q->req.x;
        rep.y = q->req.y;
        rep.cancelled = true;
        rep.deadline_exceeded = q->cancel.deadline_expired();
        rep.error = e.what();
        rep.cancel_seconds = q->cancel.seconds_since_cancel();
        SPARTA_HISTOGRAM_RECORD("serve.cancel_latency_us",
                                rep.cancel_seconds * 1e6);
      } catch (const std::exception& e) {
        // execute() converts expected failures into report fields; this
        // is the backstop so a worker can never die with the promise
        // unfulfilled.
        rep.x = q->req.x;
        rep.y = q->req.y;
        rep.error = e.what();
      }
    }
    if (rep.cancelled) {
      SPARTA_COUNTER_ADD("serve.cancelled", 1);
      if (rep.deadline_exceeded) {
        SPARTA_COUNTER_ADD("serve.deadline_exceeded", 1);
      }
    }
    rep.request_id = q->request_id;
    rep.queue_seconds = waited;
    SPARTA_HISTOGRAM_RECORD("serve.exec_us", rep.exec_seconds * 1e6);
    request_span.finish();
    // A hard failure (not an admission rejection, not a cancel) is the
    // flight recorder's moment: dump the rings while the evidence —
    // the last few thousand events across every thread — is fresh.
    if (!rep.ok() && !rep.rejected && !rep.cancelled &&
        !cfg_.flight_dump_path.empty() && obs::flight_enabled()) {
      obs::FlightRecorder::global().dump_file(cfg_.flight_dump_path);
    }
    log_request(q->req, rep);
    {
      std::lock_guard<std::mutex> lk(qmu_);
      active_[slot] = CancelToken{};
    }
    q->promise.set_value(std::move(rep));
  }
}

ServeReport ContractionService::execute(const ServeRequest& req,
                                        const CancelToken& cancel,
                                        std::uint64_t request_id) {
  ServeReport rep;
  rep.request_id = request_id;
  rep.x = req.x;
  rep.y = req.y;

  TensorRegistry::Handle hx = registry_.try_get(req.x);
  TensorRegistry::Handle hy = registry_.try_get(req.y);
  rep.key = contraction_key(req, hx, hy);
  if (!hx.valid() || !hy.valid()) {
    rep.error = "tensor '" + (hx.valid() ? req.y : req.x) +
                "' is not registered";
    return rep;
  }
  const SparseTensor& x = *hx.tensor;
  const SparseTensor& y = *hy.tensor;
  try {
    (void)validate_modes(x, y, req.cx, req.cy);
  } catch (const Error& e) {
    rep.error = e.what();
    return rep;
  }

  // Serves the request down the resilience ladder under whatever
  // budget is left. Used for over-budget admission and as the fallback
  // when an accepted request trips the runtime budget mid-flight.
  const auto run_degraded = [&](ServeReport& r) {
    ContractOptions o;
    o.request_id = request_id;
    o.num_threads = threads_per_request_;
    o.cancel = cancel;  // every rung polls; Cancelled aborts the ladder
    const std::size_t rem = remaining_budget();
    o.budget.bytes =
        rem == kUnlimited ? 0 : std::max<std::size_t>(rem, 1);
    Timer t;
    ResilientResult rr =
        contract_resilient(x, y, req.cx, req.cy, o);
    r.exec_seconds = t.seconds();
    r.degraded = true;
    r.resilience = rr.report.summary();
    r.variant = rr.report.serving().algorithm;
    r.stage_times = rr.result.stage_times;
    r.stats = rr.result.stats;
    r.z = std::make_shared<SparseTensor>(std::move(rr.result.z));
    degraded_.fetch_add(1, std::memory_order_relaxed);
    SPARTA_COUNTER_ADD("serve.admit.degrade", 1);
  };

  // Admission: even the lightest monolithic rung copies X (permuted)
  // and Y (sorted); when that floor exceeds the remaining budget the
  // request cannot run as submitted.
  const std::size_t remaining = remaining_budget();
  const std::size_t floor_bytes =
      x.footprint_bytes() + y.footprint_bytes();
  if (remaining != kUnlimited && floor_bytes > remaining) {
    if (!cfg_.allow_degrade) {
      rep.rejected = true;
      rep.error = "admission rejected: operand copies need " +
                  std::to_string(floor_bytes) + " bytes, " +
                  std::to_string(remaining) + " remaining";
      rejected_.fetch_add(1, std::memory_order_relaxed);
      SPARTA_COUNTER_ADD("serve.admit.reject", 1);
      return rep;
    }
    try {
      run_degraded(rep);
    } catch (const Error& e) {
      rep.error = e.what();
    }
    return rep;
  }

  const bool cached_plan = cache_->peek(hy.id, req.cy);
  RequestFeatures feats;
  feats.nnz_x = x.nnz();
  feats.nnz_y = y.nnz();
  feats.order_y = y.order();
  feats.num_contract_modes = static_cast<int>(req.cx.size());
  feats.density_x = density_of(x.nnz(), x.dims());
  feats.density_y = density_of(y.nnz(), y.dims());
  feats.key = rep.key;
  feats.plan_cached = cached_plan;
  feats.budget_remaining = remaining == kUnlimited ? 0 : remaining;
  const Algorithm variant =
      req.force_variant ? req.variant : selector_.choose(feats);
  rep.variant = variant;
  rep.pred_seconds = selector_.predicted_seconds(feats, variant);

  // Eq. 5 admission for the HtY path: the selector already avoids
  // kSparta when the table cannot fit, so this bites only on forced
  // variants — degrade (or reject) instead of failing mid-flight.
  if (variant == Algorithm::kSparta && !cached_plan &&
      remaining != kUnlimited) {
    const std::size_t est_hty = estimate_hty_bytes(
        y.nnz(), y.order(), simd::detail::swiss_slots_for(y.nnz()));
    if (floor_bytes + est_hty > remaining) {
      if (!cfg_.allow_degrade) {
        rep.rejected = true;
        rep.error = "admission rejected: Eq. 5 footprint " +
                    std::to_string(floor_bytes + est_hty) + " bytes, " +
                    std::to_string(remaining) + " remaining";
        rejected_.fetch_add(1, std::memory_order_relaxed);
        SPARTA_COUNTER_ADD("serve.admit.reject", 1);
        return rep;
      }
      try {
        run_degraded(rep);
      } catch (const Error& e) {
        rep.error = e.what();
      }
      return rep;
    }
  }

  ContractOptions opts;
  opts.request_id = request_id;
  opts.num_threads = threads_per_request_;
  opts.algorithm = variant;
  opts.cancel = cancel;
  // Charges flow to the shared registry, whose capacity (the DRAM
  // budget) enforces the runtime gate across all concurrent requests.
  opts.registry = &alloc_;

  try {
    Timer t;
    ContractResult res;
    if (variant == Algorithm::kSparta) {
      PlanLease lease = cache_->acquire(hy.id, y, req.cy, cancel);
      rep.cache_hit = lease.hit;
      rep.plan_cached = lease.cached;
      opts.hty_charged_externally = lease.cached;
      res = contract(x, *lease.plan, req.cx, opts);
    } else {
      res = contract(x, y, req.cx, req.cy, opts);
    }
    rep.exec_seconds = t.seconds();
    rep.stage_times = res.stage_times;
    rep.stats = res.stats;
    rep.z = std::make_shared<SparseTensor>(std::move(res.z));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    SPARTA_COUNTER_ADD("serve.admit.accept", 1);
    selector_.record(feats.key, variant, rep.exec_seconds,
                     x.nnz() + y.nnz());
  } catch (const BudgetExceeded& e) {
    rep.budget_exceeded = true;
    if (!cfg_.allow_degrade) {
      rep.error = e.what();
      return rep;
    }
    try {
      run_degraded(rep);
    } catch (const Error& e2) {
      rep.error = e2.what();
      return rep;
    }
  } catch (const Error& e) {
    rep.error = e.what();
    return rep;
  }

  if (!req.store_as.empty() && rep.z != nullptr) {
    try {
      // load() handles replacement + plan invalidation. The stored
      // copy is the service's; the report keeps its own reference.
      load(req.store_as, SparseTensor(*rep.z));
    } catch (const BudgetExceeded& e) {
      rep.budget_exceeded = true;
      rep.error = "store '" + req.store_as + "' failed: " + e.what();
    }
  }
  return rep;
}

void ContractionService::log_request(const ServeRequest& req,
                                     const ServeReport& rep) {
  const char* outcome = outcome_of(rep);
  // Labelled counters: one series per outcome and per served variant,
  // so the exposition endpoint shows the mix without parsing statlogs.
  obs::counter_add(std::string("serve.outcome.") + outcome, 1);
  if (!rep.rejected) {
    obs::counter_add(std::string("serve.requests.variant.") +
                         std::string(algorithm_name(rep.variant)),
                     1);
  }

  if (!statlog_.enabled()) return;

  // Operand features are resolved at log time: a shed or shutdown-
  // dropped request never touched the registry, and the tensors may
  // have been dropped since — both degrade to absent keys, never to a
  // blocked logger.
  const TensorRegistry::Handle hx = registry_.try_get(req.x);
  const TensorRegistry::Handle hy = registry_.try_get(req.y);

  obs::JsonWriter w;
  w.begin_object();
  // Schema 2 = schema 1 plus the feature vector the cost model trains
  // on (feature_version stamps its basis), the environment (SIMD tier),
  // the deciding model, and the Eq. 5/6 predictions next
  // to their measured counterparts.
  w.key("schema_version").value(2);
  w.key("feature_version").value(kCostFeatureVersion);
  w.key("request_id").value(rep.request_id);
  if (req.plan_id != 0) {
    // Optional keys (schema 2 tolerates extras): present only for
    // plan-step requests so single-request logs stay byte-identical.
    w.key("plan_id").value(req.plan_id);
    w.key("step_index").value(req.step_index);
  }
  w.key("x").value(std::string_view(req.x));
  w.key("y").value(std::string_view(req.y));
  // A request that never reached execute() (shed, dropped at
  // shutdown) or unwound out of it has no key yet.
  const std::string key =
      rep.key.empty() ? contraction_key(req, hx, hy) : rep.key;
  w.key("key").value(std::string_view(key));
  w.key("cx");
  write_modes(w, req.cx);
  w.key("cy");
  write_modes(w, req.cy);
  w.key("num_contract_modes").value(
      static_cast<std::uint64_t>(req.cx.size()));
  w.key("variant").value(algorithm_name(rep.variant));
  w.key("outcome").value(outcome);
  w.key("cache_hit").value(rep.cache_hit);
  w.key("plan_cached").value(rep.plan_cached);
  w.key("degraded").value(rep.degraded);
  w.key("budget_exceeded").value(rep.budget_exceeded);
  w.key("simd_isa").value(simd::isa_name(simd::active_isa()));
  const std::string model_id = selector_.model_id();
  w.key("model_id").value(std::string_view(model_id));
  w.key("selector_prior")
      .value(model_id.empty() ? "analytic" : "learned");
  if (hx.valid()) {
    w.key("nnz_x").value(static_cast<std::uint64_t>(hx.tensor->nnz()));
    w.key("density_x").value(density_of(hx.tensor->nnz(),
                                        hx.tensor->dims()));
    w.key("dims_x");
    write_dims(w, hx.tensor->dims());
  }
  if (hy.valid()) {
    w.key("nnz_y").value(static_cast<std::uint64_t>(hy.tensor->nnz()));
    w.key("density_y").value(density_of(hy.tensor->nnz(),
                                        hy.tensor->dims()));
    w.key("dims_y");
    write_dims(w, hy.tensor->dims());
  }
  w.key("nnz_z").value(static_cast<std::uint64_t>(rep.stats.nnz_z));
  // Predicted (Eq. 5/6, same inputs the budget gates use) next to
  // measured, so estimator error is a logged quantity, not a rerun.
  const std::size_t est_hty =
      hy.valid() ? estimate_hty_bytes(
                       hy.tensor->nnz(), hy.tensor->order(),
                       simd::detail::swiss_slots_for(hy.tensor->nnz()))
                 : 0;
  const std::size_t est_hta =
      hy.valid() && rep.stats.max_y_group > 0
          ? estimate_hta_bytes(
                rep.stats.max_x_subtensor, rep.stats.max_y_group,
                hy.tensor->order() - static_cast<int>(req.cy.size()),
                simd::detail::swiss_slots_for(
                    std::max<std::size_t>(rep.stats.max_y_group, 64)))
          : 0;
  w.key("est_hty_bytes").value(static_cast<std::uint64_t>(est_hty));
  w.key("est_hta_bytes").value(static_cast<std::uint64_t>(est_hta));
  w.key("hty_bytes")
      .value(static_cast<std::uint64_t>(rep.stats.hty_bytes));
  w.key("hta_bytes")
      .value(static_cast<std::uint64_t>(rep.stats.hta_bytes));
  w.key("pred_seconds").value(rep.pred_seconds);
  w.key("queue_seconds").value(rep.queue_seconds);
  w.key("exec_seconds").value(rep.exec_seconds);
  w.key("cancel_seconds").value(rep.cancel_seconds);
  w.key("stages").raw(rep.stage_times.to_json());
  w.key("perf").raw(rep.stats.perf.to_json());
  if (!rep.error.empty()) {
    w.key("error").value(std::string_view(rep.error));
  }
  w.end_object();
  statlog_.append(w.str());
}

}  // namespace sparta::serve
