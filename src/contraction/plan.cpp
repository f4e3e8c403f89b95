#include "contraction/plan.hpp"

#include "contraction/contract.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace sparta {

namespace {

using HtY = std::variant<GroupedHashMap, simd::SwissYMap>;

std::vector<index_t> dims_of(const SparseTensor& y, const Modes& modes) {
  std::vector<index_t> dims;
  for (int m : modes) dims.push_back(y.dim(m));
  return dims;
}

// The bulk HtY build. The key pass is the only parallel step and writes
// each non-zero's pair at its own index, so the pairs — and everything
// sorted and gathered from them — are the same at any thread count.
HtY build_hty(const SparseTensor& y, const Modes& cy, const Modes& fy,
              const std::vector<index_t>& cdims, const LinearIndexer& fylin,
              std::size_t hty_buckets, int num_threads, bool use_swiss_tables,
              const CancelToken& cancel) {
  // Covers all four steps — the "HtY build" sub-phase of input
  // processing (nested there when called from contract_impl).
  obs::Span sp_build("build_hty");
  SPARTA_FAILPOINT("plan.build");
  cancel.check("plan.build");
  const LinearIndexer clin(cdims);
  const int nthreads = num_threads > 0 ? num_threads : max_threads();
  const auto n = static_cast<std::ptrdiff_t>(y.nnz());
  const std::span<const int> cy_span(cy);
  const std::span<const int> fy_span(fy);
  const bool has_free = !fy.empty();

  // 1. Key pass: (contract key, free key, value) per non-zero.
  std::vector<std::pair<lnkey_t, FreeItem>> pairs(y.nnz());
  ExceptionCollector ec;
  // Re-establish the spawning thread's request id on the pooled team
  // threads so cancel instants inside the build stay attributable.
  const obs::Correlation corr = obs::current_correlation();
#pragma omp parallel num_threads(nthreads)
  {
    obs::RequestIdScope rid_scope(corr);
    std::vector<index_t> c(static_cast<std::size_t>(y.order()));
#pragma omp for schedule(static)
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      ec.run([&] {
        const auto n_i = static_cast<std::size_t>(i);
        // Strided poll: one deadline read per 256 non-zeros per thread
        // bounds build cancellation latency without an atomic load per
        // non-zero.
        if ((n_i & 255u) == 0) cancel.check("plan.build");
        y.coords(n_i, c);
        pairs[n_i] = {clin.linearize_gather(c, cy_span),
                      FreeItem{has_free ? fylin.linearize_gather(c, fy_span)
                                        : 0,
                               y.value(n_i)}};
      });
    }
  }
  ec.rethrow();

  // 2–3. Stable radix sort by contract key, gathered into one run per
  // key. Keys are < clin.size(), so only its significant bits are
  // sorted on.
  HtyRuns runs =
      group_by_key(pairs, std::bit_width(clin.size() - 1), cancel);
  pairs = {};  // freed before the index is built: lowers the build's peak

  // 4. Each distinct key enters the table's index once.
  if (use_swiss_tables) {
    return HtY(std::in_place_type<simd::SwissYMap>, std::move(runs));
  }
  return HtY(std::in_place_type<GroupedHashMap>, std::move(runs),
             hty_buckets > 0 ? hty_buckets
                             : std::max<std::size_t>(y.nnz(), 16));
}

}  // namespace

YPlan::YPlan(const SparseTensor& y, Modes cy, std::size_t hty_buckets,
             int num_threads, bool use_swiss_tables, CancelToken cancel)
    : cy_(std::move(cy)),
      fy_(free_modes(y, cy_, "cy")),
      ydims_(y.dims()),
      cdims_(dims_of(y, cy_)),
      fydims_(dims_of(y, fy_)),
      fylin_(fydims_.empty() ? std::vector<index_t>{1} : fydims_),
      hty_(build_hty(y, cy_, fy_, cdims_, fylin_, hty_buckets, num_threads,
                     use_swiss_tables, cancel)),
      nnz_y_(y.nnz()),
      y_footprint_(y.footprint_bytes()) {}

std::vector<ContractResult> contract_batch(
    const std::vector<const SparseTensor*>& xs, const YPlan& plan,
    const Modes& cx, const ContractOptions& opts) {
  std::vector<ContractResult> results;
  results.reserve(xs.size());
  for (const SparseTensor* x : xs) {
    SPARTA_CHECK(x != nullptr, "contract_batch: null operand");
    results.push_back(contract(*x, plan, cx, opts));
  }
  return results;
}

}  // namespace sparta
