#include "contraction/contract_csf.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "contraction/writeback.hpp"
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

  // --- ②③⑤④ per chunk of sub-tensors, then the ordered gather -------
  using H = engine::Hit<std::span<const FreeItem>>;
  using Acc = engine::HtaPolicy;
  std::vector<engine::Worker<H, Acc>> workers(
      static_cast<std::size_t>(nthreads),
      {Acc(std::max<std::size_t>(plan.max_group(), 64), plan.fy_indexer()),
       {},
       {},
       {}});
  engine::ZStaging staging;
  std::vector<engine::ThreadTimes> times;

  const simd::SwissYMap& hty = plan.hty();
  engine::run_stages(
      subs.size(), nfx, nthreads,
      simd::significant_bits(plan.fy_indexer().size() - 1), opts,
      /*reg=*/nullptr, /*acc_charges=*/nullptr, workers, staging, times,
      // ② index search: walk the contract subtree; the partial LN key
      // is computed once per internal fiber, not once per leaf.
      [&](std::size_t /*tid*/, std::size_t s, std::span<index_t> fx,
          std::vector<H>& hits, engine::SearchCounts& counts) {
        const CsfSubtensor& sub = subs[s];
        std::copy(sub.free_coords.begin(), sub.free_coords.end(),
                  fx.begin());
        std::size_t begin = 0;
        std::size_t end = csf.level_size(0);
        if (nfx > 0) {
          const auto ptr = csf.level_ptr(static_cast<int>(nfx) - 1);
          begin = ptr[sub.node];
          end = ptr[sub.node + 1];
        }
        walk_contract(csf, nfx, strides, nfx, begin, end, 0,
                      [&](lnkey_t key, value_t xval) {
                        ++counts.searches;
                        const auto items = hty.find(key);
                        if (!items.empty()) {
                          ++counts.hits;
                          hits.push_back({items, xval});
                        }
                      });
      },
      [](std::size_t /*tid*/, const H& hit, Acc& acc) {
        for (const FreeItem& it : hit.match) {
          acc.add(it.free_key, hit.xval * it.val);
        }
        return hit.match.size();
      });
  engine::reduce_thread_times(res, times, nthreads);
  engine::gather_runs(res, std::move(zdims), staging, nthreads,
                      /*reg=*/nullptr, opts.cancel);

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
