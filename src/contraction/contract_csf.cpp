#include "contraction/contract_csf.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "hashtable/accumulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/csf.hpp"
#include "tensor/linearize.hpp"

namespace sparta {

namespace {

// One free-prefix sub-tensor: its free coordinates and its CSF node at
// the deepest free level (the root of the contract-level subtree).
struct CsfSubtensor {
  std::vector<index_t> free_coords;
  std::size_t node;
};

// Enumerates the sub-tensor roots by walking the free levels.
void enumerate_subtensors(const CsfTensor& csf, std::size_t num_free,
                          std::size_t level, std::size_t begin,
                          std::size_t end, std::vector<index_t>& prefix,
                          std::vector<CsfSubtensor>& out) {
  const auto idx = csf.level_indices(static_cast<int>(level));
  for (std::size_t node = begin; node < end; ++node) {
    prefix[level] = idx[node];
    if (level + 1 == num_free) {
      out.push_back(CsfSubtensor{prefix, node});
    } else {
      const auto ptr = csf.level_ptr(static_cast<int>(level));
      enumerate_subtensors(csf, num_free, level + 1, ptr[node],
                           ptr[node + 1], prefix, out);
    }
  }
}

// Walks the contract levels below one sub-tensor root, accumulating the
// LN key incrementally (stride per level precomputed), and invokes
// f(key, value) per leaf.
template <typename F>
void walk_contract(const CsfTensor& csf, std::size_t num_free,
                   const std::vector<lnkey_t>& strides, std::size_t level,
                   std::size_t begin, std::size_t end, lnkey_t partial,
                   F&& f) {
  const auto last = static_cast<std::size_t>(csf.order()) - 1;
  const auto idx = csf.level_indices(static_cast<int>(level));
  if (level == last) {
    const auto vals = csf.values();
    for (std::size_t node = begin; node < end; ++node) {
      f(partial + strides[level - num_free] * idx[node], vals[node]);
    }
    return;
  }
  const auto ptr = csf.level_ptr(static_cast<int>(level));
  for (std::size_t node = begin; node < end; ++node) {
    walk_contract(csf, num_free, strides, level + 1, ptr[node],
                  ptr[node + 1],
                  partial + strides[level - num_free] * idx[node], f);
  }
}

}  // namespace

ContractResult contract_csf(const SparseTensor& x, const YPlan& plan,
                            const Modes& cx, const ContractOptions& opts) {
  opts.validate();
  if (opts.trace) obs::TraceRecorder::global().enable();
  const Modes fx = validate_plan_modes(x, plan, cx).fx;
  const std::size_t nfx = fx.size();
  const std::size_t nfy = plan.fy().size();
  const std::size_t m = cx.size();
  const int nthreads =
      opts.num_threads > 0 ? opts.num_threads : max_threads();

  ContractResult res;
  res.stats.nnz_x = x.nnz();
  res.stats.nnz_y = plan.nnz_y();
  res.stats.num_y_keys = plan.num_keys();
  res.stats.max_y_group = plan.max_group();
  res.stats.hty_bytes = plan.hty_footprint_bytes();

  std::vector<index_t> zdims;
  for (int mode : fx) zdims.push_back(x.dim(mode));
  zdims.insert(zdims.end(), plan.free_dims().begin(),
               plan.free_dims().end());
  const std::size_t zorder = zdims.size();

  if (x.empty() || plan.nnz_y() == 0) {
    res.z = SparseTensor(zdims);
    return res;
  }

  obs::Span sp_contract("contract_csf");

  // --- ① input processing: permute, sort, coalesce, CSF-ify ----------
  Timer t_input;
  obs::Span sp_input("input_processing");
  SparseTensor xp = x;
  {
    Modes order = fx;
    order.insert(order.end(), cx.begin(), cx.end());
    xp.permute_modes(order);
    xp.coalesce();  // CSF needs distinct coordinates; also sorts
  }
  const CsfTensor csf = CsfTensor::from_sorted(xp);

  // Contract-level LN strides (same linearization as the plan's keys).
  std::vector<lnkey_t> strides(m, 1);
  {
    const auto& cdims = plan.contract_dims();
    for (std::size_t k = m; k-- > 1;) {
      strides[k - 1] = strides[k] * cdims[k];
    }
  }

  // Sub-tensor roots.
  std::vector<CsfSubtensor> subs;
  if (nfx == 0) {
    subs.push_back(CsfSubtensor{{}, 0});
  } else {
    std::vector<index_t> prefix(nfx);
    enumerate_subtensors(csf, nfx, 0, 0, csf.level_size(0), prefix, subs);
  }
  res.stats.num_x_subtensors = subs.size();
  sp_input.finish();
  res.stage_times[Stage::kInputProcessing] = t_input.seconds();

  // --- ②③④ computation ------------------------------------------------
  struct ZLocal {
    std::vector<index_t> coords;
    std::vector<value_t> vals;
  };
  std::vector<ZLocal> zlocals(static_cast<std::size_t>(nthreads));
  // Per-thread work counters and accumulator peak, each written once by
  // its own thread and reduced after the parallel region.
  struct Tally {
    std::uint64_t searches = 0, hits = 0, mults = 0;
    std::size_t acc_peak_bytes = 0;
  };
  std::vector<Tally> tallies(static_cast<std::size_t>(nthreads));

  struct Match {
    std::span<const FreeItem> items;
    value_t xval;
  };

  Timer t_compute;
  // The CSF walk interleaves search and accumulation per sub-tensor, so
  // one span covers both stages (their seconds are split below).
  obs::Span sp_compute("index_search+accumulation");
  ExceptionCollector compute_ec;
  // Pooled team threads must carry the spawning thread's request id
  // (stale thread-locals would mis-attribute cancel/fault instants).
  const obs::Correlation ambient = obs::current_correlation();
  // One visit per call binds the plan's HtY kind; the probes inside are
  // statically dispatched.
  const std::ptrdiff_t chunk =
      subtensor_chunk(static_cast<std::ptrdiff_t>(subs.size()), nthreads);
  plan.visit_hty([&](const auto& hty) {
#pragma omp parallel num_threads(nthreads)
    {
      obs::RequestIdScope rid_scope(ambient);
      const auto tid = static_cast<std::size_t>(thread_id());
      // Built under the guard: every thread must still reach the `omp
      // for` below even if an accumulator constructor throws.
      std::unique_ptr<HashAccumulator> acc;
      std::vector<Match> matches;
      std::vector<index_t> fyc;
      compute_ec.run([&] {
        acc = std::make_unique<HashAccumulator>(
            std::max<std::size_t>(plan.max_group(), 64));
        fyc.resize(std::max<std::size_t>(nfy, 1));
      });
      std::uint64_t searches = 0, hits = 0, mults = 0;

#pragma omp for schedule(dynamic, chunk)
      for (std::ptrdiff_t s = 0;
           s < static_cast<std::ptrdiff_t>(subs.size()); ++s) {
        compute_ec.run([&] {
          const CsfSubtensor& sub = subs[static_cast<std::size_t>(s)];
          acc->clear();
          matches.clear();

          // ② index search: walk the contract subtree; the partial LN
          // key is computed once per internal fiber, not once per leaf.
          std::size_t begin = 0;
          std::size_t end = 0;
          if (nfx == 0) {
            begin = 0;
            end = csf.level_size(0);
          } else {
            const auto ptr = csf.level_ptr(static_cast<int>(nfx) - 1);
            begin = ptr[sub.node];
            end = ptr[sub.node + 1];
          }
          walk_contract(csf, nfx, strides, nfx, begin, end, 0,
                        [&](lnkey_t key, value_t xval) {
                          ++searches;
                          const auto items = hty.find(key);
                          if (!items.empty()) {
                            ++hits;
                            matches.push_back(Match{items, xval});
                          }
                        });

          // ③ accumulation.
          for (const Match& mt : matches) {
            for (const FreeItem& it : mt.items) {
              acc->accumulate(it.free_key, mt.xval * it.val);
              ++mults;
            }
          }

          // ④ writeback into the thread-local buffer.
          ZLocal& zl = zlocals[tid];
          acc->drain([&](lnkey_t fkey, value_t v) {
            plan.fy_indexer().delinearize(fkey, fyc);
            zl.coords.insert(zl.coords.end(), sub.free_coords.begin(),
                             sub.free_coords.end());
            zl.coords.insert(
                zl.coords.end(), fyc.begin(),
                fyc.begin() + static_cast<std::ptrdiff_t>(nfy));
            zl.vals.push_back(v);
          });
        });
      }

      tallies[tid] = Tally{searches, hits, mults,
                           acc ? acc->footprint_bytes() : 0};
    }
  });
  compute_ec.rethrow();
  std::size_t acc_peak_bytes = 0;
  for (const Tally& t : tallies) {
    res.stats.searches += t.searches;
    res.stats.hits += t.hits;
    res.stats.multiplies += t.mults;
    acc_peak_bytes = std::max(acc_peak_bytes, t.acc_peak_bytes);
  }
  res.stats.hta_bytes = acc_peak_bytes * static_cast<std::size_t>(nthreads);
  sp_compute.finish();
  // The walk interleaves search and accumulation per sub-tensor; report
  // the combined computation under index search + accumulation halves.
  const double compute = t_compute.seconds();
  res.stage_times[Stage::kIndexSearch] = compute / 2;
  res.stage_times[Stage::kAccumulation] = compute / 2;

  // Gather thread-local buffers into Z.
  Timer t_gather;
  obs::Span sp_wb("writeback");
  std::size_t total_z = 0;
  std::vector<std::size_t> offsets(zlocals.size() + 1, 0);
  for (std::size_t t = 0; t < zlocals.size(); ++t) {
    offsets[t] = total_z;
    total_z += zlocals[t].vals.size();
  }
  std::vector<std::vector<index_t>> zcols(zorder);
  for (auto& col : zcols) col.resize(total_z);
  std::vector<value_t> zvals(total_z);
  ExceptionCollector gather_ec;
#pragma omp parallel for schedule(static) num_threads(nthreads)
  for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(zlocals.size());
       ++t) {
    gather_ec.run([&, t] {
      const ZLocal& zl = zlocals[static_cast<std::size_t>(t)];
      std::size_t dst = offsets[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < zl.vals.size(); ++i, ++dst) {
        for (std::size_t mcol = 0; mcol < zorder; ++mcol) {
          zcols[mcol][dst] = zl.coords[i * zorder + mcol];
        }
        zvals[dst] = zl.vals[i];
      }
    });
  }
  gather_ec.rethrow();
  std::size_t zlocal_bytes = 0;
  for (const ZLocal& zl : zlocals) {
    zlocal_bytes += zl.coords.capacity() * sizeof(index_t) +
                    zl.vals.capacity() * sizeof(value_t);
  }
  res.stats.zlocal_bytes = zlocal_bytes;
  res.z = SparseTensor::from_columns(std::move(zdims), std::move(zcols),
                                     std::move(zvals));
  sp_wb.finish();
  res.stage_times[Stage::kWriteback] = t_gather.seconds();
  res.stats.nnz_z = res.z.nnz();
  res.stats.z_bytes = res.z.footprint_bytes();

  // --- ⑤ output sorting ------------------------------------------------
  if (opts.sort_output) {
    Timer t_sort;
    obs::Span sp_sort("output_sorting");
    res.z.sort();
    sp_sort.finish();
    res.stage_times[Stage::kOutputSorting] = t_sort.seconds();
  }

  if (obs::metrics_enabled()) {
    auto& mreg = obs::MetricsRegistry::global();
    mreg.counter("contract_csf.calls").add_unchecked(1);
    mreg.counter("contract_csf.searches")
        .add_unchecked(static_cast<std::uint64_t>(res.stats.searches));
    mreg.counter("contract_csf.multiplies")
        .add_unchecked(static_cast<std::uint64_t>(res.stats.multiplies));
  }

#ifndef NDEBUG
  res.stats.check(&res.stage_times);
#endif

  return res;
}

}  // namespace sparta
