// The per-sub-tensor half of the pipeline shared by contract() and
// contract_csf(): the stage-③ accumulator policies, the parallel loop
// over X sub-tensors, stage ⑤ (each sub-tensor's output sorted by its
// Y free-mode LN key), stage ④ (the drain into thread-local Z_local, as
// (key, value) pairs) and the gather that decodes the runs into Z's
// columns in sub-tensor order.
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
#include "common/timer.hpp"
#include "contraction/contract.hpp"
#include "hashtable/spa.hpp"
#include "memsim/allocator.hpp"
#include "obs/perfctr.hpp"
#include "obs/trace.hpp"
#include "simd/sort.hpp"
#include "simd/swiss_table.hpp"
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
//
// Z's X free levels are constant over a sub-tensor's run, so Z_local
// holds only what varies along it: one (Y free LN key, value) pair per
// output row. Each run's X free prefix is stored once, and the gather
// decodes the keys straight into Z's columns.

using ZLocal = std::vector<std::pair<lnkey_t, value_t>>;

// One X sub-tensor's output: rows [first, first + count) of
// zlocals[zlocal].
struct ZRun {
  std::size_t zlocal = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

// Everything ④ stages for the gather.
struct ZStaging {
  std::vector<ZLocal> zlocals;  // one per thread (one when shared)
  std::vector<ZRun> runs;       // one per X sub-tensor
  std::vector<index_t> run_fx;  // each run's X free prefix, nfx apiece
  std::size_t nfx = 0;

  [[nodiscard]] std::span<index_t> fx(std::size_t run) {
    return {run_fx.data() + run * nfx, nfx};
  }
  [[nodiscard]] std::span<const index_t> fx(std::size_t run) const {
    return {run_fx.data() + run * nfx, nfx};
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    std::size_t bytes = run_fx.capacity() * sizeof(index_t);
    for (const ZLocal& zl : zlocals) {
      bytes += zl.capacity() * sizeof(zl[0]);
    }
    return bytes;
  }
};

// ---------------------------------------------------------------------
// Stage ③ accumulator policies: HtA or SPA
// ---------------------------------------------------------------------
//
// One per thread, reused across that thread's sub-tensors:
//   begin()             — start a sub-tensor
//   add(key|tuple, v)   — one multiply's contribution
//   sort(cancel)        — ⑤ order the entries by Y free LN key
//   drain(zl)           — ④ append the (key, value) entries to zl, in
//                         key order after sort(), else in table order
//   footprint_bytes()   — the accumulator (HtA or SPA), Eq. 6's object
//   sort_buffer_bytes() — the sort buffers, counted with Z_local

// ⑤'s buffers: one sub-tensor's (key, value) pairs, sorted by key and
// held until ④ appends them to Z_local. They only grow.
class SortedRun {
 public:
  explicit SortedRun(const LinearIndexer& fylin)
      : key_bits_(simd::significant_bits(fylin.size() - 1)) {}

  // The emptied buffer to fill before sort().
  ZLocal& start() {
    run_.clear();
    return run_;
  }
  void sort(const CancelToken& cancel) {
    simd::sort_ln_pairs(run_, key_bits_, cancel, scratch_);
    staged_ = true;
  }
  // Appends the staged run to zl; false when none is staged.
  bool flush(ZLocal& zl) {
    if (!staged_) return false;
    zl.insert(zl.end(), run_.begin(), run_.end());
    staged_ = false;
    return true;
  }
  [[nodiscard]] std::size_t bytes() const {
    return (run_.capacity() + scratch_.capacity()) * sizeof(run_[0]);
  }

 private:
  int key_bits_;
  bool staged_ = false;
  ZLocal run_;
  ZLocal scratch_;
};

// HtA over simd::SwissAccumulator. Located items arrive keyed; iterated
// items arrive as tuples and are linearized here. Unsorted output keeps
// each run in the table's insertion order, which depends on the
// sub-tensor's own multiplies alone — not on the table's size, nor on
// which sub-tensors this thread handled before (so not on the thread
// count).
class HtaPolicy {
 public:
  HtaPolicy(std::size_t expected_keys, const LinearIndexer& fylin)
      : table_(expected_keys), fylin_(&fylin), sorted_(fylin) {}

  void begin() { table_.clear(); }
  void add(lnkey_t free_key, value_t v) { table_.accumulate(free_key, v); }
  void add(std::span<const index_t> free_tuple, value_t v) {
    add(free_tuple.empty() ? 0 : fylin_->linearize(free_tuple), v);
  }
  void sort(const CancelToken& cancel) {
    drain_into(sorted_.start());
    sorted_.sort(cancel);
  }
  void drain(ZLocal& zl) {
    if (!sorted_.flush(zl)) drain_into(zl);
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return table_.footprint_bytes();
  }
  [[nodiscard]] std::size_t sort_buffer_bytes() const {
    return sorted_.bytes();
  }

 private:
  void drain_into(ZLocal& out) const {
    table_.drain([&](lnkey_t key, value_t v) { out.emplace_back(key, v); });
  }

  simd::SwissAccumulator table_;
  const LinearIndexer* fylin_;
  SortedRun sorted_;
};

// SPA (Algorithm 1): full free tuples compared element-wise; they are
// linearized only as they leave it. Each sub-tensor starts from a fresh
// SPA, so the baseline keeps its per-sub-tensor allocation.
class SpaPolicy {
 public:
  SpaPolicy(std::size_t nfy, const LinearIndexer& fylin)
      : spa_(nfy), fylin_(&fylin), sorted_(fylin) {}

  void begin() { spa_ = SpaAccumulator(spa_.arity()); }
  void add(std::span<const index_t> free_tuple, value_t v) {
    spa_.accumulate(free_tuple, v);
  }
  void sort(const CancelToken& cancel) {
    drain_into(sorted_.start());
    sorted_.sort(cancel);
  }
  void drain(ZLocal& zl) {
    if (!sorted_.flush(zl)) drain_into(zl);
    spa_.clear();
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return spa_.footprint_bytes();
  }
  [[nodiscard]] std::size_t sort_buffer_bytes() const {
    return sorted_.bytes();
  }

 private:
  void drain_into(ZLocal& out) const {
    for (std::size_t i = 0; i < spa_.size(); ++i) {
      out.emplace_back(spa_.arity() == 0 ? 0 : fylin_->linearize(spa_.key(i)),
                       spa_.value(i));
    }
  }

  SpaAccumulator spa_;
  const LinearIndexer* fylin_;
  SortedRun sorted_;
};

// ---------------------------------------------------------------------
// The parallel loop over sub-tensors, and stages ⑤④ for one of them
// ---------------------------------------------------------------------

// Runs body(tid, f, zl, run, fx, tt) for every sub-tensor f < num_sub,
// with per-thread Z_local staging and tallies. `run` is
// staging.runs[f] with its buffer index set; the body's write_back()
// fills the rest. The body stores the sub-tensor's X free prefix in
// `fx`, its nfx entries of staging.run_fx.
template <typename Body>
void parallel_over_subtensors(std::size_t num_sub, std::size_t nfx,
                              int nthreads, bool shared, ZStaging& staging,
                              std::vector<ThreadTimes>& times,
                              AllocationRegistry* reg,
                              const CancelToken& cancel, Body&& body) {
  const auto n = static_cast<std::ptrdiff_t>(num_sub);
  const std::ptrdiff_t chunk = subtensor_chunk(n, nthreads);
  times.assign(static_cast<std::size_t>(nthreads), {});

  // Tracked Z_local charges: the run prefixes, then one per staging
  // buffer plus its thread's sort buffers (shared mode is ablation-only
  // and never budget-tracked; validate() enforces that).
  ScopedCharge fx_charge(shared ? nullptr : reg, Tier::kDram,
                         DataObject::kZlocal);
  fx_charge.update(num_sub * nfx * sizeof(index_t));
  // Shared-writeback ablation: one buffer, serialized by the caller's
  // mutex, instead of one staging buffer per thread.
  staging.zlocals.assign(shared ? 1 : static_cast<std::size_t>(nthreads),
                         {});
  staging.runs.assign(num_sub, {});
  staging.nfx = nfx;
  staging.run_fx.assign(num_sub * nfx, 0);
  std::vector<ScopedCharge> zl_charges;
  if (reg && !shared) {
    zl_charges.reserve(staging.zlocals.size());
    for (std::size_t t = 0; t < staging.zlocals.size(); ++t) {
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
    ZLocal& zl = staging.zlocals[shared ? 0 : tid];
#pragma omp for schedule(dynamic, chunk)
    for (std::ptrdiff_t f = 0; f < n; ++f) {
      ec.run([&] {
        // Cooperative cancel point, once per X sub-tensor: Cancelled is
        // captured by the collector like any worker fault, the remaining
        // chunks drain as no-ops, and the spawning thread rethrows —
        // bounding cancel-to-return latency by one chunk's work.
        cancel.check("contract.chunk");
        const auto s = static_cast<std::size_t>(f);
        ZRun& run = staging.runs[s];
        run.zlocal = shared ? 0 : tid;
        body(tid, s, zl, run, staging.fx(s), times[tid]);
        if (!zl_charges.empty()) {
          zl_charges[tid].update(zl.capacity() * sizeof(zl[0]) +
                                 times[tid].sort_buffer_bytes);
        }
      });
    }
  }
  ec.rethrow();
}

// Stages ⑤ and ④ for one sub-tensor: sorts the accumulator's entries
// by Y free LN key (when `sorted`), then appends them to `zl` and
// records their rows in `run`. `clock` was last read at the end of ③;
// each stage's closing read opens the next. `shared` is the
// shared-writeback ablation's lock, null otherwise.
template <typename Acc>
void write_back(Acc& acc, bool sorted, std::mutex* shared, ZLocal& zl,
                ZRun& run, ThreadTimes& tt, Timer& clock,
                const CancelToken& cancel) {
  if (sorted) {
    obs::Span sp_sort("output_sorting");
    PerfScope pp_sort(sp_sort, tt.sort_perf);
    SPARTA_FAILPOINT("contract.sort");
    cancel.check("contract.sort");
    acc.sort(cancel);
    pp_sort.finish();
    sp_sort.finish();
    tt.sort += clock.lap();
  }
  obs::Span sp_wb("writeback");
  PerfScope pp_wb(sp_wb, tt.writeback_perf);
  SPARTA_FAILPOINT("contract.writeback");
  cancel.check("contract.writeback");
  std::unique_lock<std::mutex> lock;
  if (shared != nullptr) lock = std::unique_lock<std::mutex>(*shared);
  run.first = zl.size();
  acc.drain(zl);
  run.count = zl.size() - run.first;
  lock = {};
  tt.sort_buffer_bytes = acc.sort_buffer_bytes();
  pp_wb.finish();
  sp_wb.finish();
  tt.writeback += clock.lap();
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
// in parallel over row chunks with one cancel poll per chunk. Each run
// fills its X free prefix columns once and decodes its keys into the Y
// free columns; every index written is checked against zdims. Z's size
// is charged to `reg` (when non-null) before Z is allocated. Sets res.z
// and its stats, adds the staging to res.stats.zlocal_bytes and the
// gather's time to stage ④.
void gather_runs(ContractResult& res, std::vector<index_t> zdims,
                 const ZStaging& staging, int nthreads,
                 AllocationRegistry* reg, const CancelToken& cancel);

}  // namespace sparta::engine
