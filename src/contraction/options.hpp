// Algorithm selection and tuning knobs for sparse tensor contraction.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/json.hpp"
#include "obs/perfctr.hpp"

namespace sparta {

class AllocationRegistry;  // memsim/allocator.hpp

/// The three algorithm variants evaluated in the paper (Fig. 4), plus a
/// binary-search COO variant this reproduction adds as an ablation
/// point between the O(nnz_Y) linear scan and the O(1) HtY probe.
enum class Algorithm : int {
  kSpa = 0,        ///< COO Y + sparse accumulator (Algorithm 1, "SpTC-SPA")
  kCooHta = 1,     ///< COO Y + hash-table accumulator, linear search
  kSparta = 2,     ///< HtY + HtA (Algorithm 2, "Sparta")
  kCooBinary = 3,  ///< COO Y + HtA, O(log nnz_Y) binary search (extension)
};

[[nodiscard]] constexpr std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kSpa:
      return "COOY+SPA";
    case Algorithm::kCooHta:
      return "COOY+HtA";
    case Algorithm::kSparta:
      return "HtY+HtA";
    case Algorithm::kCooBinary:
      return "COOY(bin)+HtA";
  }
  return "?";
}

/// Memory ceiling for one contraction, enforced two ways (both on by
/// default once `bytes` is set):
///  * pre-flight — the paper's Eq. 5/6 estimators run against the budget
///    before HtY / HtA are allocated, throwing BudgetExceeded when the
///    predicted footprint cannot fit;
///  * runtime — the engine charges its major data objects (X copy, Y/HtY,
///    HtA, Z_local, Z) against a tracked AllocationRegistry with a hard
///    cap, throwing BudgetExceeded at the charge that overflows.
/// See docs/ROBUSTNESS.md for the exact per-algorithm formulas and the
/// degradation ladder contract_resilient() builds on this.
struct MemoryBudget {
  std::size_t bytes = 0;  ///< 0 = unlimited (both gates disabled)
  bool preflight = true;  ///< Eq. 5/6 estimator gate
  bool runtime = true;    ///< tracked-charge enforcement
};

struct ContractOptions {
  Algorithm algorithm = Algorithm::kSparta;

  /// 0 = use the ambient OpenMP thread count.
  int num_threads = 0;

  /// Sort Z after computation (the paper's default; stage ⑤).
  bool sort_output = true;

  /// Apply the paper's §3.3 heuristic: when nnz(X) > nnz(Y), swap the
  /// operands (and the contract-mode lists) so the larger tensor is the
  /// one represented as HtY, reducing index-search frequency. The output
  /// mode order then changes accordingly; off by default so results are
  /// predictable.
  bool swap_operands_if_larger_x = false;

  /// Record the per-stage × per-object AccessProfile for the memory
  /// simulator. Cheap (arithmetic only) but off by default.
  bool collect_access_profile = false;

  /// ABLATION ONLY: write results into one shared, lock-protected output
  /// buffer instead of thread-local Z_local staging. Quantifies what the
  /// paper's thread-local Z_local design (§3.5) buys; never use in
  /// production.
  bool ablation_shared_writeback = false;

  /// Enables the global trace recorder (obs::TraceRecorder::global())
  /// before the contraction starts, so its per-stage spans are
  /// collected even without SPARTA_TRACE in the environment. The
  /// recorder stays enabled afterwards; the caller owns writing it out
  /// (TraceRecorder::write_file) unless SPARTA_TRACE set an output path.
  bool trace = false;

  /// Set by callers contracting against a prebuilt YPlan whose HtY is
  /// owned and budget-charged by an external cache (see
  /// serve/plan_cache.hpp): the engine then neither pre-flights the
  /// Eq. 5 HtY term nor charges the HtY bytes to this request's
  /// registry — the cache already holds that charge, and double-charging
  /// would shrink the apparent remaining budget by every cached plan a
  /// request reuses. Ignored (and harmless) without a prebuilt plan.
  bool hty_charged_externally = false;

  /// Correlation id stamped into every trace span/instant the engine
  /// emits for this contraction (args key "request_id") and into the
  /// flight-recorder ring, so spans from concurrently served requests
  /// are attributable. 0 = not request-scoped (standalone callers):
  /// events are then emitted exactly as before correlation existed.
  /// The serving layer assigns these monotonically per ServeRequest.
  std::uint64_t request_id = 0;

  /// Cooperative cancellation/deadline token. The engine polls it at
  /// every stage head, per X-sub-tensor chunk, per sort pass, and along
  /// the HtY build; check() throws Cancelled, which unwinds through the
  /// same ExceptionCollector path as injected faults (all ScopedCharge
  /// budget released, no partial output escapes). Default-constructed =
  /// inert: checks cost one pointer test.
  CancelToken cancel;

  /// Memory ceiling; see MemoryBudget. Default: unlimited.
  MemoryBudget budget;

  /// Optional registry receiving the engine's tracked charges (tier
  /// kDram, tagged per DataObject), e.g. for footprint assertions in
  /// tests. When null and a runtime budget is set, the engine uses a
  /// private registry. When set together with budget.runtime, the
  /// registry's capacity is set to budget.bytes for the call.
  AllocationRegistry* registry = nullptr;

  /// Validates the option set, throwing sparta::Error on misuse
  /// (negative thread counts, contradictory flags). Called by every
  /// public contraction entry point before any parallel region starts.
  void validate() const {
    SPARTA_CHECK(num_threads >= 0,
                 "num_threads must be >= 0 (0 = ambient OpenMP count)");
    SPARTA_CHECK(num_threads <= (1 << 16), "num_threads implausibly large");
    const int a = static_cast<int>(algorithm);
    SPARTA_CHECK(a >= 0 && a <= static_cast<int>(Algorithm::kCooBinary),
                 "algorithm is not a valid Algorithm enumerator");
    SPARTA_CHECK(!hty_charged_externally || algorithm == Algorithm::kSparta,
                 "hty_charged_externally applies only to Algorithm::kSparta "
                 "(only HtY plans can be cached externally)");
    SPARTA_CHECK(budget.bytes == 0 || budget.preflight || budget.runtime,
                 "memory budget set but both enforcement modes disabled");
    SPARTA_CHECK(!ablation_shared_writeback || budget.bytes == 0,
                 "the shared-writeback ablation is not budget-tracked; "
                 "unset ablation_shared_writeback or the budget");
  }
};

/// Per-stage hardware-counter deltas for one contraction, summed across
/// the worker threads that executed each stage (obs/perfctr.hpp). Only
/// populated when perfctr_enabled(); available() false otherwise — and
/// on kernels/containers where perf_event_open is off limits, in which
/// case consumers must report "unavailable", not zeros.
struct StagePerf {
  std::array<obs::PerfDelta, kNumStages> stage{};

  obs::PerfDelta& at(Stage s) { return stage[static_cast<std::size_t>(s)]; }
  [[nodiscard]] const obs::PerfDelta& at(Stage s) const {
    return stage[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] bool available() const {
    for (const obs::PerfDelta& d : stage) {
      if (d.available) return true;
    }
    return false;
  }

  [[nodiscard]] obs::PerfDelta total() const {
    obs::PerfDelta t;
    for (const obs::PerfDelta& d : stage) t += d;
    return t;
  }

  StagePerf& operator+=(const StagePerf& o) {
    for (int i = 0; i < kNumStages; ++i) {
      stage[static_cast<std::size_t>(i)] +=
          o.stage[static_cast<std::size_t>(i)];
    }
    return *this;
  }

  /// {"available":bool,"total":{...},"stages":{"<stage>":{...}}} — the
  /// bench --json per-case "perf" section.
  [[nodiscard]] std::string to_json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("available").value(available());
    w.key("total").raw(total().to_json());
    w.key("stages").begin_object();
    for (int i = 0; i < kNumStages; ++i) {
      w.key(stage_name(static_cast<Stage>(i)))
          .raw(stage[static_cast<std::size_t>(i)].to_json());
    }
    w.end_object();
    w.end_object();
    return w.str();
  }
};

/// Counters describing what one contraction did; used by benchmarks and
/// the placement estimators.
struct ContractStats {
  std::size_t nnz_x = 0;
  std::size_t nnz_y = 0;
  std::size_t nnz_z = 0;
  std::size_t num_x_subtensors = 0;   ///< N_F, mode-F_X sub-tensors of X
  std::size_t num_y_keys = 0;         ///< distinct contract tuples in Y
  std::size_t max_y_group = 0;        ///< nnz_Fmax^Y (Eq. 6)
  std::size_t max_x_subtensor = 0;    ///< nnz_Fmax^X (Eq. 6)
  std::size_t searches = 0;           ///< index-search probes issued
  std::size_t hits = 0;               ///< probes that found a Y group
  std::size_t multiplies = 0;         ///< scalar multiply-accumulates
  std::size_t hty_bytes = 0;          ///< measured HtY footprint
  std::size_t hta_bytes = 0;          ///< measured accumulators, all threads
  std::size_t zlocal_bytes = 0;       ///< measured Z_local, all threads
                                      ///< (with ⑤'s sort buffers)
  std::size_t z_bytes = 0;            ///< measured output footprint

  /// Hardware-counter deltas per stage (empty/unavailable unless
  /// perfctr_enabled() during the run). Deliberately NOT part of
  /// to_json(): the "counters" report section stays deterministic so
  /// sparta_perfdiff can gate it exactly; perf lives in its own
  /// machine-dependent section.
  StagePerf perf;

  /// Validates the cross-counter invariants every contraction must
  /// satisfy, throwing sparta::Error on violation:
  ///   * hits <= searches (a probe can't succeed more than it ran)
  ///   * nnz_z <= multiplies when any multiply happened (every output
  ///     non-zero is produced by at least one multiply-accumulate)
  ///   * num_x_subtensors / max_x_subtensor bounded by nnz_x, and
  ///     num_y_keys / max_y_group bounded by nnz_y
  ///   * when `stage_times` is given and nonzero, its per-stage
  ///     fractions sum to ~1.0
  /// contract() asserts this at the end of every debug-build run; tests
  /// and tools may call it in any build.
  void check(const StageTimes* stage_times = nullptr) const {
    SPARTA_CHECK(hits <= searches, "stats: more index-search hits ("
                                       + std::to_string(hits) +
                                       ") than searches (" +
                                       std::to_string(searches) + ")");
    SPARTA_CHECK(nnz_z <= multiplies || nnz_z == 0,
                 "stats: " + std::to_string(nnz_z) +
                     " output non-zeros from only " +
                     std::to_string(multiplies) + " multiplies");
    SPARTA_CHECK(num_x_subtensors <= nnz_x,
                 "stats: more X sub-tensors than X non-zeros");
    SPARTA_CHECK(max_x_subtensor <= nnz_x,
                 "stats: largest X sub-tensor exceeds nnz(X)");
    SPARTA_CHECK(num_y_keys <= nnz_y,
                 "stats: more distinct Y keys than Y non-zeros");
    SPARTA_CHECK(max_y_group <= nnz_y,
                 "stats: largest Y group exceeds nnz(Y)");
    if (stage_times != nullptr && stage_times->total() > 0.0) {
      double frac = 0.0;
      for (int i = 0; i < kNumStages; ++i) {
        frac += stage_times->fraction(static_cast<Stage>(i));
      }
      SPARTA_CHECK(std::abs(frac - 1.0) < 1e-6,
                   "stats: stage fractions sum to " + std::to_string(frac) +
                       ", not ~1.0");
    }
  }

  /// JSON object of every counter — the bench --json "counters" field.
  [[nodiscard]] std::string to_json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("nnz_x").value(static_cast<std::uint64_t>(nnz_x));
    w.key("nnz_y").value(static_cast<std::uint64_t>(nnz_y));
    w.key("nnz_z").value(static_cast<std::uint64_t>(nnz_z));
    w.key("num_x_subtensors")
        .value(static_cast<std::uint64_t>(num_x_subtensors));
    w.key("num_y_keys").value(static_cast<std::uint64_t>(num_y_keys));
    w.key("max_y_group").value(static_cast<std::uint64_t>(max_y_group));
    w.key("max_x_subtensor")
        .value(static_cast<std::uint64_t>(max_x_subtensor));
    w.key("searches").value(static_cast<std::uint64_t>(searches));
    w.key("hits").value(static_cast<std::uint64_t>(hits));
    w.key("multiplies").value(static_cast<std::uint64_t>(multiplies));
    w.key("hty_bytes").value(static_cast<std::uint64_t>(hty_bytes));
    w.key("hta_bytes").value(static_cast<std::uint64_t>(hta_bytes));
    w.key("zlocal_bytes").value(static_cast<std::uint64_t>(zlocal_bytes));
    w.key("z_bytes").value(static_cast<std::uint64_t>(z_bytes));
    w.end_object();
    return w.str();
  }
};

}  // namespace sparta
