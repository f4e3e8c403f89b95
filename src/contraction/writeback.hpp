// The per-sub-tensor half of the pipeline shared by contract() and
// contract_csf(): the stage-③ accumulator policies, the parallel loop
// over X sub-tensors, stage ⑤ (each sub-tensor's output sorted by its
// Y free-mode LN key), stage ④ (the drain into thread-local Z_local)
// and the gather that lays the runs out in sub-tensor order.
//
// Why per-sub-tensor sorting yields sorted Z: X is sorted by its free
// modes first, so its sub-tensors arrive in ascending free-prefix
// order; each sub-tensor's rows share that prefix and carry unique Y
// free keys; and LN keys keep lexicographic order. Z in sub-tensor
// order, each run sorted by its free key, is therefore exactly the
// globally sorted Z.
//
// Internal to src/contraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "common/radix.hpp"
#include "common/timer.hpp"
#include "contraction/contract.hpp"
#include "hashtable/spa.hpp"
#include "memsim/allocator.hpp"
#include "obs/perfctr.hpp"
#include "obs/trace.hpp"
#include "simd/sort.hpp"
#include "tensor/linearize.hpp"

namespace sparta::engine {

// Samples the calling thread's counter group around one stage segment.
// finish() accumulates the delta into `into` and, when the surrounding
// span is being traced, attaches it as the span's args so per-segment
// counter values land next to the timing in the Chrome trace. Disabled
// cost (the default): one relaxed load + branch at each end.
class PerfScope {
 public:
  PerfScope(obs::Span& span, obs::PerfDelta& into)
      : span_(span), into_(into), on_(obs::perfctr_enabled()) {
    if (on_) start_ = obs::PerfCounterGroup::for_current_thread().sample();
  }
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;
  ~PerfScope() { finish(); }

  void finish() {
    if (done_) return;
    done_ = true;
    if (!on_) return;
    const obs::PerfDelta d = obs::PerfCounterGroup::delta(
        start_, obs::PerfCounterGroup::for_current_thread().sample());
    into_ += d;
    if (d.available && span_.active()) span_.set_args(d.to_json());
  }

 private:
  obs::Span& span_;
  obs::PerfDelta& into_;
  bool on_;
  bool done_ = false;
  obs::PerfSample start_;
};

// Per-thread tallies for the stages run per sub-tensor: wall times, the
// matching hardware-counter deltas (zero/unavailable unless
// perfctr_enabled() — see obs/perfctr.hpp), work counters, and the
// accumulator's peak footprint. Each worker writes only its own entry;
// reduce_thread_times() folds them into the result.
struct ThreadTimes {
  double search = 0;
  double accumulate = 0;
  double writeback = 0;
  double sort = 0;
  obs::PerfDelta search_perf;
  obs::PerfDelta accumulate_perf;
  obs::PerfDelta writeback_perf;
  obs::PerfDelta sort_perf;
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
  std::uint64_t multiplies = 0;
  std::uint64_t scanned = 0;  // Y rows touched by COO searches
  std::size_t acc_peak_bytes = 0;
  // The accumulator's sort buffers. They only grow, so this is their
  // peak; they are counted with the thread's Z_local (§3.5), which
  // they stage runs for, not with HtA.
  std::size_t sort_buffer_bytes = 0;
};

// ---------------------------------------------------------------------
// Thread-local output staging (Z_local, §3.5)
// ---------------------------------------------------------------------

struct ZLocal {
  std::vector<index_t> coords;  // z_order entries per element, row-major
  std::vector<value_t> vals;

  [[nodiscard]] std::size_t rows() const { return vals.size(); }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return coords.capacity() * sizeof(index_t) +
           vals.capacity() * sizeof(value_t);
  }
  // Appends one output element: X free prefix ++ Y free indices.
  void append(std::span<const index_t> fx, std::span<const index_t> fy,
              value_t v) {
    coords.insert(coords.end(), fx.begin(), fx.end());
    coords.insert(coords.end(), fy.begin(), fy.end());
    vals.push_back(v);
  }
};

// One X sub-tensor's output: rows [first, first + count) of
// zlocals[zlocal].
struct ZRun {
  std::size_t zlocal = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

// ---------------------------------------------------------------------
// Stage ③ accumulator policies: HtA or SPA
// ---------------------------------------------------------------------
//
// One per thread, reused across that thread's sub-tensors:
//   begin()             — start a sub-tensor
//   add(key|tuple, v)   — one multiply's contribution
//   sort(cancel)        — ⑤ order the entries by Y free LN key
//   drain(fyc, emit)    — ④ emit(fy_tuple, value) per entry, in key
//                         order after sort(), else in table order
//   footprint_bytes()   — the accumulator (HtA or SPA), Eq. 6's object
//   sort_buffer_bytes() — the sort buffers, counted with Z_local

// HtA over any LN-keyed table (HashAccumulator, LinearProbeAccumulator,
// simd::SwissAccumulator). Located items arrive keyed; iterated items
// arrive as tuples and are linearized here.
template <typename Table>
class HtaPolicy {
 public:
  HtaPolicy(std::size_t expected_keys, const LinearIndexer& fylin,
            std::size_t nfy, bool sorted_output)
      : table_(expected_keys),
        expected_keys_(expected_keys),
        buckets_(table_.num_buckets()),
        fylin_(&fylin),
        nfy_(nfy),
        key_bits_(significant_bits(fylin.size() - 1)),
        sorted_output_(sorted_output) {}

  // Unsorted output keeps each run in table order. A table that grew is
  // rebuilt at its constructed size, so that order depends on the
  // sub-tensor's own entries, not on which sub-tensors this thread
  // handled before (and so not on the thread count).
  void begin() {
    if (!sorted_output_ && table_.num_buckets() != buckets_) {
      table_ = Table(expected_keys_);
    } else {
      table_.clear();
    }
  }
  void add(lnkey_t free_key, value_t v) { table_.accumulate(free_key, v); }
  void add(std::span<const index_t> free_tuple, value_t v) {
    add(free_tuple.empty() ? 0 : fylin_->linearize(free_tuple), v);
  }
  void sort(const CancelToken& cancel) {
    run_.clear();
    table_.drain([&](lnkey_t key, value_t v) { run_.emplace_back(key, v); });
    simd::sort_ln_pairs(run_, key_bits_, cancel, scratch_);
    staged_ = true;
  }
  template <typename Emit>
  void drain(std::span<index_t> fyc, Emit&& emit) {
    auto put = [&](lnkey_t key, value_t v) {
      fylin_->delinearize(key, fyc);
      emit(std::span<const index_t>(fyc.data(), nfy_), v);
    };
    if (staged_) {
      for (const auto& [key, v] : run_) put(key, v);
      staged_ = false;
    } else {
      table_.drain(put);
    }
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return table_.footprint_bytes();
  }
  [[nodiscard]] std::size_t sort_buffer_bytes() const {
    return (run_.capacity() + scratch_.capacity()) * sizeof(Pair);
  }

 private:
  using Pair = std::pair<lnkey_t, value_t>;
  Table table_;
  std::size_t expected_keys_;
  std::size_t buckets_;
  const LinearIndexer* fylin_;
  std::size_t nfy_;
  int key_bits_;
  bool sorted_output_;
  bool staged_ = false;
  std::vector<Pair> run_;
  std::vector<Pair> scratch_;
};

// SPA (Algorithm 1): full free tuples compared element-wise; they are
// linearized only to sort. Each sub-tensor starts from a fresh SPA, so
// the baseline keeps its per-sub-tensor allocation.
class SpaPolicy {
 public:
  SpaPolicy(std::size_t nfy, const LinearIndexer& fylin)
      : spa_(nfy),
        fylin_(&fylin),
        key_bits_(significant_bits(fylin.size() - 1)) {}

  void begin() { spa_ = SpaAccumulator(spa_.arity()); }
  void add(std::span<const index_t> free_tuple, value_t v) {
    spa_.accumulate(free_tuple, v);
  }
  void sort(const CancelToken& cancel) {
    order_.clear();
    for (std::size_t i = 0; i < spa_.size(); ++i) {
      order_.emplace_back(
          spa_.arity() == 0 ? 0 : fylin_->linearize(spa_.key(i)), i);
    }
    simd::sort_ln_pairs(order_, key_bits_, cancel, scratch_);
    staged_ = true;
  }
  template <typename Emit>
  void drain(std::span<index_t> /*fyc*/, Emit&& emit) {
    if (staged_) {
      for (const auto& [key, i] : order_) emit(spa_.key(i), spa_.value(i));
      staged_ = false;
    } else {
      for (std::size_t i = 0; i < spa_.size(); ++i) {
        emit(spa_.key(i), spa_.value(i));
      }
    }
    spa_.clear();
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return spa_.footprint_bytes();
  }
  [[nodiscard]] std::size_t sort_buffer_bytes() const {
    return (order_.capacity() + scratch_.capacity()) * sizeof(Pair);
  }

 private:
  using Pair = std::pair<lnkey_t, std::size_t>;
  SpaAccumulator spa_;
  const LinearIndexer* fylin_;
  int key_bits_;
  bool staged_ = false;
  std::vector<Pair> order_;
  std::vector<Pair> scratch_;
};

// ---------------------------------------------------------------------
// The parallel loop over sub-tensors, and stages ⑤④ for one of them
// ---------------------------------------------------------------------

// Runs body(tid, f, zl, run, tt) for every sub-tensor f < num_sub, with
// per-thread Z_local staging and tallies. `run` is runs[f] with its
// buffer index set; the body's write_back() fills the rest.
template <typename Body>
void parallel_over_subtensors(std::size_t num_sub, int nthreads, bool shared,
                              std::vector<ZLocal>& zlocals,
                              std::vector<ZRun>& runs,
                              std::vector<ThreadTimes>& times,
                              AllocationRegistry* reg,
                              const CancelToken& cancel, Body&& body) {
  const auto n = static_cast<std::ptrdiff_t>(num_sub);
  const std::ptrdiff_t chunk = subtensor_chunk(n, nthreads);
  // Shared-writeback ablation: one buffer, serialized by the caller's
  // mutex, instead of one staging buffer per thread.
  zlocals.assign(shared ? 1 : static_cast<std::size_t>(nthreads), {});
  runs.assign(num_sub, {});
  times.assign(static_cast<std::size_t>(nthreads), {});

  // Tracked Z_local charges, one per staging buffer plus its thread's
  // sort buffers (shared mode is ablation-only and never budget-tracked;
  // validate() enforces that).
  std::vector<ScopedCharge> zl_charges;
  if (reg && !shared) {
    zl_charges.reserve(zlocals.size());
    for (std::size_t t = 0; t < zlocals.size(); ++t) {
      zl_charges.emplace_back(reg, Tier::kDram, DataObject::kZlocal);
    }
  }

  // A worker that throws (budget overflow, bad_alloc, injected fault)
  // must not unwind across the omp boundary: capture, drain, rethrow.
  ExceptionCollector ec;
  // OpenMP pool threads keep thread-locals across regions, so the
  // spawning thread's request id must be re-established inside the
  // region — otherwise a pooled worker would stamp this request's
  // spans with whatever id its previous request left behind.
  const obs::Correlation corr = obs::current_correlation();
#pragma omp parallel num_threads(nthreads)
  {
    obs::RequestIdScope rid_scope(corr);
    const auto tid = static_cast<std::size_t>(thread_id());
    const std::size_t zi = shared ? 0 : tid;
#pragma omp for schedule(dynamic, chunk)
    for (std::ptrdiff_t f = 0; f < n; ++f) {
      ec.run([&] {
        // Cooperative cancel point, once per X sub-tensor: Cancelled is
        // captured by the collector like any worker fault, the remaining
        // chunks drain as no-ops, and the spawning thread rethrows —
        // bounding cancel-to-return latency by one chunk's work.
        cancel.check("contract.chunk");
        ZRun& run = runs[static_cast<std::size_t>(f)];
        run.zlocal = zi;
        body(tid, static_cast<std::size_t>(f), zlocals[zi], run, times[tid]);
        if (!zl_charges.empty()) {
          zl_charges[tid].update(zlocals[zi].footprint_bytes() +
                                 times[tid].sort_buffer_bytes);
        }
      });
    }
  }
  ec.rethrow();
}

// Stages ⑤ and ④ for one sub-tensor: sorts the accumulator's entries
// by Y free LN key (when `sorted`), then appends them to `zl` behind
// the sub-tensor's X free prefix `fx` and records their rows in `run`.
// `shared` is the shared-writeback ablation's lock, null otherwise.
template <typename Acc>
void write_back(Acc& acc, bool sorted, std::mutex* shared,
                std::span<const index_t> fx, std::span<index_t> fyc,
                ZLocal& zl, ZRun& run, ThreadTimes& tt,
                const CancelToken& cancel) {
  if (sorted) {
    Timer t;
    obs::Span sp_sort("output_sorting");
    PerfScope pp_sort(sp_sort, tt.sort_perf);
    SPARTA_FAILPOINT("contract.sort");
    cancel.check("contract.sort");
    acc.sort(cancel);
    pp_sort.finish();
    sp_sort.finish();
    tt.sort += t.seconds();
  }
  Timer t;
  obs::Span sp_wb("writeback");
  PerfScope pp_wb(sp_wb, tt.writeback_perf);
  SPARTA_FAILPOINT("contract.writeback");
  cancel.check("contract.writeback");
  std::unique_lock<std::mutex> lock;
  if (shared != nullptr) lock = std::unique_lock<std::mutex>(*shared);
  run.first = zl.rows();
  acc.drain(fyc, [&](std::span<const index_t> fy, value_t v) {
    zl.append(fx, fy, v);
  });
  run.count = zl.rows() - run.first;
  lock = {};
  tt.sort_buffer_bytes = acc.sort_buffer_bytes();
  pp_wb.finish();
  sp_wb.finish();
  tt.writeback += t.seconds();
}

// Folds the per-thread tallies into `res`. Stage wall times are
// averaged — equal to wall time when threads are balanced, and the
// paper's per-stage presentation. Hardware and work counters sum (a
// cycle spent on any core is a cycle of work). The accumulator
// footprint is the per-thread peak × thread count; the sort buffers
// start the Z_local footprint, to which gather_runs() adds the staging
// buffers. Returns the Y rows the COO searches touched.
std::uint64_t reduce_thread_times(ContractResult& res,
                                  const std::vector<ThreadTimes>& times,
                                  int nthreads);

// The rest of ④: lays the runs out in sub-tensor order as Z's columns,
// in parallel over row chunks with one cancel poll per chunk. Z's size
// is charged to `reg` (when non-null) before Z is allocated. Sets res.z
// and its stats, adds the staging buffers to res.stats.zlocal_bytes and
// the gather's time to stage ④.
void gather_runs(ContractResult& res, std::vector<index_t> zdims,
                 const std::vector<ZLocal>& zlocals,
                 const std::vector<ZRun>& runs, int nthreads,
                 AllocationRegistry* reg, const CancelToken& cancel);

}  // namespace sparta::engine
