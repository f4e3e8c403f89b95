// The computation half of the pipeline shared by contract() and
// contract_csf(): the stage-③ accumulator policies; the one parallel
// loop over scheduled chunks of X sub-tensors, which runs each stage
// once per chunk — ② searches every sub-tensor of the chunk, ③
// accumulates each and appends its entries to the thread's Z_local as
// that sub-tensor's run of (Y free LN key, value) pairs, ⑤ sorts each
// run in place by key; and ④, the gather that decodes the runs into
// Z's columns in sub-tensor order.
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
#include "common/uninit_vector.hpp"
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

// Per-thread tallies for the stages run per chunk: wall times, the
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
  // ⑤'s scratch buffer. It only grows, so this is its peak; it is
  // counted with the thread's Z_local (§3.5), whose runs it sorts.
  std::size_t sort_scratch_bytes = 0;
};

// ---------------------------------------------------------------------
// Thread-local output staging (Z_local, §3.5)
// ---------------------------------------------------------------------
//
// Z's X free levels are constant over a sub-tensor's run, so Z_local
// holds only what varies along it: one (Y free LN key, value) pair per
// output row. Each run's X free prefix is stored once, and the gather
// decodes the keys straight into Z's columns. Z_local grows without a
// zero fill: ③ writes every pair it adds.

using ZPair = simd::LnPair<value_t>;
using ZLocal = UninitVector<ZPair>;

// One X sub-tensor's output: rows [first, first + count) of
// zlocals[zlocal].
struct ZRun {
  std::size_t zlocal = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

// Everything ②–⑤ stage for the gather.
struct ZStaging {
  // One per thread; the shared-writeback ablation adds the shared one.
  std::vector<ZLocal> zlocals;
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

// Adds n unwritten rows to zl and returns the first.
inline ZPair* grow(ZLocal& zl, std::size_t n) {
  const std::size_t old = zl.size();
  zl.resize(old + n);
  return zl.data() + old;
}

// ---------------------------------------------------------------------
// Stage ③ accumulator policies: HtA or SPA
// ---------------------------------------------------------------------
//
// One per thread, reused across that thread's sub-tensors:
//   begin()             — start a sub-tensor
//   add(key|tuple, v)   — one multiply's contribution
//   append(zl)          — end it: append its (key, value) entries to zl
//                         in one block, in the accumulator's order
//   footprint_bytes()   — the accumulator (HtA or SPA), Eq. 6's object

// HtA over simd::SwissAccumulator. Located items arrive keyed; iterated
// items arrive as tuples and are linearized here. A run leaves in the
// table's insertion order, which depends on the sub-tensor's own
// multiplies alone — not on the table's size, nor on which sub-tensors
// this thread handled before (so not on the thread count).
class HtaPolicy {
 public:
  HtaPolicy(std::size_t expected_keys, const LinearIndexer& fylin)
      : table_(expected_keys), fylin_(&fylin) {}

  void begin() { table_.clear(); }
  void add(lnkey_t free_key, value_t v) { table_.accumulate(free_key, v); }
  void add(std::span<const index_t> free_tuple, value_t v) {
    add(free_tuple.empty() ? 0 : fylin_->linearize(free_tuple), v);
  }
  void append(ZLocal& zl) const {
    ZPair* out = grow(zl, table_.size());
    table_.drain([&](lnkey_t key, value_t v) { *out++ = {key, v}; });
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return table_.footprint_bytes();
  }

 private:
  simd::SwissAccumulator table_;
  const LinearIndexer* fylin_;
};

// SPA (Algorithm 1): full free tuples compared element-wise; they are
// linearized only as they leave it. Each sub-tensor starts from a fresh
// SPA, so the baseline keeps its per-sub-tensor allocation.
class SpaPolicy {
 public:
  SpaPolicy(std::size_t nfy, const LinearIndexer& fylin)
      : spa_(nfy), fylin_(&fylin) {}

  void begin() { spa_ = SpaAccumulator(spa_.arity()); }
  void add(std::span<const index_t> free_tuple, value_t v) {
    spa_.accumulate(free_tuple, v);
  }
  void append(ZLocal& zl) {
    ZPair* out = grow(zl, spa_.size());
    for (std::size_t i = 0; i < spa_.size(); ++i) {
      out[i] = {spa_.arity() == 0 ? 0 : fylin_->linearize(spa_.key(i)),
                spa_.value(i)};
    }
    spa_.clear();
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return spa_.footprint_bytes();
  }

 private:
  SpaAccumulator spa_;
  const LinearIndexer* fylin_;
};

// ---------------------------------------------------------------------
// The parallel loop over chunks of sub-tensors: stages ②③⑤ and ④'s
// per-chunk part
// ---------------------------------------------------------------------

// One X non-zero's index-search result: the Y items it matched (a
// Y-access policy's Match, with size()) and its value.
template <typename Match>
struct Hit {
  Match match;
  value_t xval;
};

// Work a search adds to.
struct SearchCounts {
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
  std::uint64_t scanned = 0;  // Y rows touched by COO searches
};

// One thread's stage state, reused across its chunks.
template <typename H, typename Acc>
struct Worker {
  Acc acc;
  std::vector<H> hits;            // the chunk's, sub-tensor by sub-tensor
  std::vector<std::size_t> ends;  // its i-th sub-tensor's hits end here
  ZLocal scratch;                 // ⑤'s second buffer
};

// Runs ②③⑤④ over the num_sub X sub-tensors, one subtensor_chunk() block
// of consecutive sub-tensors at a time, handed to threads as they come
// free. Each stage takes one clock lap, one span, one PerfScope, one
// failpoint and one cancel check per chunk:
//   ② search(tid, s, fx, hits, counts) for each sub-tensor s of the
//     chunk: appends its Hits, adds to counts and stores its X free
//     prefix in fx (nfx entries of staging.run_fx);
//   ③ for each sub-tensor: acc.begin(), accumulate(tid, hit, acc) per
//     hit (returning its multiplies), then acc.append() into the
//     thread's Z_local as the sub-tensor's run (staging.runs[s]);
//   ⑤ (opts.sort_output) each run of the chunk sorted in place by its
//     key_bits-bit keys;
//   ④ the shared-writeback ablation appends the chunk's runs to the
//     one shared buffer under a lock; otherwise only the Z_local charge
//     is brought up to date.
// `acc_charges`, one per thread when non-null, follow each
// accumulator's footprint.
template <typename H, typename Acc, typename Search, typename Accumulate>
void run_stages(std::size_t num_sub, std::size_t nfx, int nthreads,
                int key_bits, const ContractOptions& opts,
                AllocationRegistry* reg,
                std::vector<ScopedCharge>* acc_charges,
                std::vector<Worker<H, Acc>>& workers, ZStaging& staging,
                std::vector<ThreadTimes>& times, Search&& search,
                Accumulate&& accumulate) {
  const std::size_t chunk = static_cast<std::size_t>(
      subtensor_chunk(static_cast<std::ptrdiff_t>(num_sub), nthreads));
  const auto num_chunks = static_cast<std::ptrdiff_t>(
      (num_sub + chunk - 1) / chunk);
  const auto nt = static_cast<std::size_t>(nthreads);
  const bool shared = opts.ablation_shared_writeback;
  const CancelToken& cancel = opts.cancel;
  times.assign(nt, {});

  // Tracked Z_local charges: the run prefixes, then one per staging
  // buffer plus its thread's sort scratch (shared mode is ablation-only
  // and never budget-tracked; validate() enforces that).
  ScopedCharge fx_charge(shared ? nullptr : reg, Tier::kDram,
                         DataObject::kZlocal);
  fx_charge.update(num_sub * nfx * sizeof(index_t));
  // Shared-writeback ablation: zlocals[nt], one buffer every thread
  // appends its chunks to under `shared_mutex`.
  staging.zlocals.assign(nt + (shared ? 1 : 0), {});
  staging.runs.assign(num_sub, {});
  staging.nfx = nfx;
  staging.run_fx.assign(num_sub * nfx, 0);
  std::mutex shared_mutex;
  std::vector<ScopedCharge> zl_charges;
  if (reg && !shared) {
    zl_charges.reserve(nt);
    for (std::size_t t = 0; t < nt; ++t) {
      zl_charges.emplace_back(reg, Tier::kDram, DataObject::kZlocal);
    }
  }

  // A worker that throws (budget overflow, bad_alloc, injected fault,
  // Cancelled) must not unwind across the omp boundary: capture, drain
  // the remaining chunks as no-ops, rethrow on the spawning thread.
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
    Worker<H, Acc>& w = workers[tid];
    ThreadTimes& tt = times[tid];
    ZLocal& zl = staging.zlocals[tid];
#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t c = 0; c < num_chunks; ++c) {
      ec.run([&] {
        // Cooperative cancel point before each chunk: Cancelled is
        // captured like any worker fault, so cancel-to-return latency
        // is bounded by one chunk's work.
        cancel.check("contract.chunk");
        const std::size_t first = static_cast<std::size_t>(c) * chunk;
        const std::size_t last = std::min(num_sub, first + chunk);
        // One clock read per stage boundary: each stage's closing read
        // opens the next.
        Timer clock;

        obs::Span sp_search("index_search");
        PerfScope pp_search(sp_search, tt.search_perf);
        SPARTA_FAILPOINT("contract.search");
        cancel.check("contract.search");
        SearchCounts counts;
        w.hits.clear();
        w.ends.clear();
        for (std::size_t s = first; s < last; ++s) {
          search(tid, s, staging.fx(s), w.hits, counts);
          w.ends.push_back(w.hits.size());
        }
        pp_search.finish();
        sp_search.finish();
        tt.search += clock.lap();

        obs::Span sp_acc("accumulation");
        PerfScope pp_acc(sp_acc, tt.accumulate_perf);
        SPARTA_FAILPOINT("contract.accumulate");
        cancel.check("contract.accumulate");
        std::uint64_t mults = 0;
        std::size_t h = 0;
        for (std::size_t s = first; s < last; ++s) {
          w.acc.begin();
          for (const std::size_t end = w.ends[s - first]; h < end; ++h) {
            mults += accumulate(tid, w.hits[h], w.acc);
          }
          // The append keeps the accumulator's capacity, so this is
          // also its size after it.
          const std::size_t acc_bytes = w.acc.footprint_bytes();
          if (acc_charges) (*acc_charges)[tid].update(acc_bytes);
          tt.acc_peak_bytes = std::max(tt.acc_peak_bytes, acc_bytes);
          ZRun& run = staging.runs[s];
          run.zlocal = tid;
          run.first = zl.size();
          w.acc.append(zl);
          run.count = zl.size() - run.first;
        }
        pp_acc.finish();
        sp_acc.finish();
        tt.accumulate += clock.lap();

        if (opts.sort_output) {
          obs::Span sp_sort("output_sorting");
          PerfScope pp_sort(sp_sort, tt.sort_perf);
          SPARTA_FAILPOINT("contract.sort");
          cancel.check("contract.sort");
          for (std::size_t s = first; s < last; ++s) {
            const ZRun& run = staging.runs[s];
            simd::sort_ln_pairs(zl.data() + run.first, run.count, key_bits,
                                cancel, w.scratch);
          }
          tt.sort_scratch_bytes = w.scratch.capacity() * sizeof(ZPair);
          pp_sort.finish();
          sp_sort.finish();
          tt.sort += clock.lap();
        }

        obs::Span sp_wb("writeback");
        PerfScope pp_wb(sp_wb, tt.writeback_perf);
        SPARTA_FAILPOINT("contract.writeback");
        cancel.check("contract.writeback");
        if (shared) {
          // The chunk's runs fill this thread's buffer, which is emptied
          // after every chunk. Every thread grows the shared buffer, so
          // it is only touched under the lock.
          {
            std::lock_guard<std::mutex> lock(shared_mutex);
            ZLocal& dst = staging.zlocals[nt];
            const std::size_t at = dst.size();
            dst.insert(dst.end(), zl.begin(), zl.end());
            for (std::size_t s = first; s < last; ++s) {
              staging.runs[s].zlocal = nt;
              staging.runs[s].first += at;
            }
          }
          zl.clear();
        } else if (!zl_charges.empty()) {
          zl_charges[tid].update(zl.capacity() * sizeof(ZPair) +
                                 tt.sort_scratch_bytes);
        }
        pp_wb.finish();
        sp_wb.finish();
        tt.writeback += clock.lap();

        tt.searches += counts.searches;
        tt.hits += counts.hits;
        tt.scanned += counts.scanned;
        tt.multiplies += mults;
      });
    }
  }
  ec.rethrow();
}

// Folds the per-thread tallies into `res`. Stage wall times are
// averaged — equal to wall time when threads are balanced, and the
// paper's per-stage presentation. Hardware and work counters sum (a
// cycle spent on any core is a cycle of work). The accumulator
// footprint is the per-thread peak × thread count; the sort scratch
// starts the Z_local footprint, to which gather_runs() adds the staging
// buffers. Returns the Y rows the COO searches touched.
std::uint64_t reduce_thread_times(ContractResult& res,
                                  const std::vector<ThreadTimes>& times,
                                  int nthreads);

// ④: lays the runs out in sub-tensor order as Z's columns,
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
