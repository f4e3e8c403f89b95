#include "contraction/plan.hpp"

#include "contraction/contract.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace sparta {

namespace {

using HtY = std::variant<GroupedHashMap, simd::SwissYMap>;

// Neither table is movable (both hold locks), so the variant is built
// in place and handed out as a prvalue.
HtY make_hty(bool use_swiss_tables, std::size_t expected_keys) {
  if (use_swiss_tables) {
    return HtY(std::in_place_type<simd::SwissYMap>, expected_keys);
  }
  return HtY(std::in_place_type<GroupedHashMap>, expected_keys);
}

}  // namespace

YPlan::YPlan(const SparseTensor& y, Modes cy, std::size_t hty_buckets,
             int num_threads, bool use_swiss_tables, CancelToken cancel)
    : cy_(std::move(cy)),
      fy_(free_modes(y, cy_, "cy")),
      ydims_(y.dims()),
      hty_(make_hty(use_swiss_tables,
                    hty_buckets > 0 ? hty_buckets
                                    : std::max<std::size_t>(y.nnz(), 16))) {
  for (int m : fy_) fydims_.push_back(y.dim(m));
  for (int m : cy_) cdims_.push_back(y.dim(m));

  const LinearIndexer clin(cdims_);
  fylin_ = LinearIndexer(fydims_.empty() ? std::vector<index_t>{1}
                                         : fydims_);

  nnz_y_ = y.nnz();
  y_footprint_ = y.footprint_bytes();

  // Covers the parallel insert loop below — the "HtY build" sub-phase of
  // input processing (nested there when called from contract_impl).
  obs::Span sp_build("build_hty");
  const int nthreads = num_threads > 0 ? num_threads : max_threads();
  const auto n = static_cast<std::ptrdiff_t>(y.nnz());
  const std::span<const int> cy_span(cy_);
  const std::span<const int> fy_span(fy_);
  const bool has_free = !fy_.empty();
  SPARTA_FAILPOINT("plan.build");
  cancel.check("plan.build");
  // The two table kinds share insert_locked(key, FreeItem); the build
  // loop is generic over whichever this plan holds.
  auto build_into = [&](auto& table) {
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
          // Strided poll: one deadline read per 256 inserts per thread
          // keeps build cancellation latency bounded without putting an
          // atomic load in every table insert.
          if ((n_i & 255u) == 0) cancel.check("plan.build");
          y.coords(n_i, c);
          const lnkey_t ckey = clin.linearize_gather(c, cy_span);
          const lnkey_t fkey =
              has_free ? fylin_.linearize_gather(c, fy_span) : 0;
          table.insert_locked(ckey, FreeItem{fkey, y.value(n_i)});
        });
      }
    }
    ec.rethrow();
    max_group_ = table.max_group_size();
  };
  std::visit(build_into, hty_);
}

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
