// Shared pieces of the repository benchmark (README.md): run options,
// the benchmark's own span log, the per-layer tally every workload
// fills from the reports the library returns, and output-check helpers.
//
// The benchmark only calls the library's public APIs and times those
// calls from outside; nothing here reaches into src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/timer.hpp"
#include "contraction/options.hpp"
#include "serve/service.hpp"
#include "tensor/sparse_tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// OpenMP threads every workload may use in total.
inline constexpr int kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< shrink every input (self-test size)
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string trace_out;  ///< where the traced run writes its spans
};

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds
/// for every generated tensor and request draw.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

[[nodiscard]] double seconds_between(Clock::time_point a,
                                     Clock::time_point b);

/// One span of the benchmark's own trace. Roots wrap a public call;
/// children are laid out from the report that call returned.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< from the log's origin
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request_id = 0;
  std::uint64_t plan_id = 0;
};

/// In-memory span store, written once at the end of the traced run.
/// Disabled logs drop every add() (the untraced runs).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Returns the span's id, or -1 when disabled.
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::uint64_t request_id = 0, std::uint64_t plan_id = 0);

  /// Lays the five engine stages end to end from `start` as children
  /// of `parent` (the engine runs them in order; gaps between them are
  /// the parent's self time).
  void add_stages(const sparta::StageTimes& st, Clock::time_point start,
                  std::int64_t parent, std::uint64_t request_id = 0,
                  std::uint64_t plan_id = 0);

  [[nodiscard]] std::size_t size() const;

  /// Chrome trace-event JSON; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer sums over the operations of one measured phase. Every
/// per-layer metric is one of these divided by `ops` (or a ratio).
struct Tally {
  std::uint64_t ops = 0;
  double op_s = 0.0;  ///< Σ end-to-end operation time

  // contraction: every engine call the operations made
  std::array<double, sparta::kNumStages> stage_s{};
  double unattributed_s = 0.0;  ///< engine wall − Σ stages, no HtY build
  double searches = 0, hits = 0, multiplies = 0, nnz_z = 0;
  double hty_bytes = 0, hta_bytes = 0, zlocal_bytes = 0;

  // serve: every request that went through a ContractionService
  std::uint64_t requests = 0, sparta_requests = 0;
  double queue_s = 0.0, exec_s = 0.0, overhead_s = 0.0;
  double exec_outside_stages_s = 0.0, non_hty_exec_s = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t degraded = 0, rejected = 0;
  std::uint64_t loads = 0;
  double load_s = 0.0;

  // plan
  std::uint64_t plan_runs = 0, plan_cache_hits = 0;
  double parse_s = 0.0, search_s = 0.0, steps_s = 0.0, rollup_s = 0.0;
  double peak_temp_bytes = 0.0, peak_est_ratio = 0.0;

  /// Adds one engine call's stage times and counters; `wall_s` is its
  /// wall time, or < 0 when it included an HtY build that the stages
  /// do not cover (a served plan-cache miss).
  void add_engine(const sparta::StageTimes& st,
                  const sparta::ContractStats& stats, double wall_s);

  /// Adds one served request's queue/exec split, variant and engine
  /// numbers. `submit_to_ready_s` < 0 leaves the overhead out (plan
  /// steps, whose submit→ready the executor does not expose).
  void add_request(const sparta::serve::ServeReport& rep,
                   double submit_to_ready_s);
};

/// FNV-1a over a tensor's shape, coordinates and value bits.
[[nodiscard]] std::uint64_t content_hash(const sparta::SparseTensor& t);

/// verify_contraction (Freivalds) with a memo: an output whose content
/// hash was already verified for the same case is accepted without
/// re-running the check. Not thread-safe; call outside timed intervals.
class Verifier {
 public:
  [[nodiscard]] bool check(std::uint64_t case_id,
                           const sparta::SparseTensor& x,
                           const sparta::SparseTensor& y,
                           const sparta::Modes& cx, const sparta::Modes& cy,
                           const sparta::SparseTensor& z);

 private:
  std::unordered_set<std::uint64_t> verified_;
};

/// What one measured phase produced.
struct Phase {
  /// Latency of each completed operation, in completion order.
  std::vector<double> op_ms;
  /// When each completed, in seconds from the phase start. For the
  /// single-caller workloads the clock runs only inside operations, so
  /// output checks between them do not count.
  std::vector<double> done_s;
  /// Operations per traffic cycle; windows hold whole cycles so every
  /// window sees the same mix.
  std::size_t cycle = 1;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;          ///< errors, rejections and bad outputs
  std::uint64_t wrong_outputs = 0;   ///< outputs that failed verification

  void complete(double op_s, double at_s) {
    op_ms.push_back(op_s * 1e3);
    done_s.push_back(at_s);
  }
  [[nodiscard]] double wall_s() const {
    return done_s.empty() ? 0.0 : done_s.back();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed, builds the service (if any),
  /// registers tensors and warms up. Called several times per run; each
  /// call discards the previous state.
  virtual void setup() = 0;

  /// Runs operations for `seconds` (then to the end of the current
  /// cycle when `whole_cycles`), verifying every output outside the
  /// timed intervals. Spans go to `spans`; layer sums to `tally`.
  virtual Phase run(double seconds, bool whole_cycles, SpanLog& spans,
                    Tally& tally) = 0;

  /// Σ over the workload's distinct pairwise contractions of the Fig. 7
  /// modelled seconds under sparta_placement.
  [[nodiscard]] virtual double memsim_model_s() = 0;

  /// Worker/thread shape and table kind for the context stamp.
  [[nodiscard]] virtual std::string shape() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_engine_sweep(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_serve_repeated_y(
    const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_network_chain(
    const Options& o);

/// Modelled seconds of one access-profiled HtY+HtA run of (x, y).
[[nodiscard]] double memsim_case_s(const sparta::SparseTensor& x,
                                   const sparta::SparseTensor& y,
                                   const sparta::Modes& cx,
                                   const sparta::Modes& cy);

/// Registers `t` as `name`, timing the load() call into `tally`.
void timed_load(sparta::serve::ContractionService& svc,
                const std::string& name, sparta::SparseTensor t,
                Tally& tally);

/// A uniform random tensor of `nnz` non-zeros over `dims`.
[[nodiscard]] sparta::SparseTensor random_tensor(
    std::vector<sparta::index_t> dims, std::size_t nnz,
    std::uint64_t seed);

}  // namespace perfbench
