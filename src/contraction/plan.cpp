#include "contraction/plan.hpp"

#include "contraction/contract.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace sparta {

namespace {

std::vector<index_t> dims_of(const SparseTensor& y, const Modes& modes) {
  std::vector<index_t> dims;
  for (int m : modes) dims.push_back(y.dim(m));
  return dims;
}

// The bulk HtY build. Every step writes by position or joins the sort's
// ranges in order, so HtY is the same at any thread count.
simd::SwissYMap build_hty(const SparseTensor& y, const Modes& cy,
                          const Modes& fy, const std::vector<index_t>& cdims,
                          const LinearIndexer& fylin, int num_threads,
                          const CancelToken& cancel) {
  // Covers every step — the "HtY build" sub-phase of input
  // processing (nested there when called from contract_impl).
  obs::Span sp_build("build_hty");
  SPARTA_FAILPOINT("plan.build");
  cancel.check("plan.build");
  const LinearIndexer clin(cdims);
  const std::size_t n = y.nnz();

  // The (column, stride) terms of the LN key over `modes`.
  auto key_terms = [&y](const LinearIndexer& lin, const Modes& modes) {
    std::vector<std::pair<const index_t*, lnkey_t>> terms;
    for (std::size_t k = 0; k < modes.size(); ++k) {
      terms.emplace_back(y.mode_indices(modes[k]).data(), lin.strides()[k]);
    }
    return terms;
  };
  const auto cterms = key_terms(clin, cy);
  const auto fterms = key_terms(fylin, fy);

  // 1–2. Key pass: each non-zero's (contract key, position), and its
  // (free key, value) item at the same position; then a stable radix
  // sort by contract key, gathered into one run per key. Keys are
  // < clin.size(), so only its significant bits are sorted on.
  HtyRuns runs = group_by_key(
      n, std::bit_width(clin.size() - 1), num_threads, cancel,
      [&](std::size_t b, std::size_t e,
          simd::KeyPos* keys, FreeItem* items) {
        for (std::size_t i = b; i < e; ++i) {
          lnkey_t ckey = 0;
          for (const auto& [col, stride] : cterms) ckey += stride * col[i];
          lnkey_t fkey = 0;
          for (const auto& [col, stride] : fterms) fkey += stride * col[i];
          keys[i] = {ckey, static_cast<std::uint32_t>(i)};
          items[i] = FreeItem{fkey, y.value(i)};
        }
      });

  // 3. Each distinct key enters the table's index once.
  return simd::SwissYMap(std::move(runs));
}

}  // namespace

YPlan::YPlan(const SparseTensor& y, Modes cy, int num_threads,
             CancelToken cancel)
    : cy_(std::move(cy)),
      fy_(free_modes(y, cy_, "cy")),
      ydims_(y.dims()),
      cdims_(dims_of(y, cy_)),
      fydims_(dims_of(y, fy_)),
      fylin_(fydims_.empty() ? std::vector<index_t>{1} : fydims_),
      hty_(build_hty(y, cy_, fy_, cdims_, fylin_, num_threads, cancel)),
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
