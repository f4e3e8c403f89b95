// Reusable contraction plan for the second operand.
//
// Building HtY costs O(nnz_Y); when the same Y is contracted against
// many different X tensors — applying one operator to many states, or
// sweeping a tensor network — the hash table can be built once and
// reused:
//
//   YPlan plan(y, /*cy=*/{0, 1});
//   for (const auto& x : states) {
//     auto z = contract(x, plan, /*cx=*/{2, 3}).z;
//   }
//
// contract(x, y, cx, cy) with Algorithm::kSparta routes through a
// one-shot YPlan internally, so both paths share one implementation.
#pragma once

#include "contraction/options.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/linearize.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/types.hpp"

namespace sparta {

class YPlan {
 public:
  /// Builds HtY (a simd::SwissYMap) from `y` keyed on contract modes
  /// `cy` (validated). `num_threads` 0 = ambient.
  ///
  /// The build is one bulk pass, not per-item inserts: a parallel pass
  /// computes each non-zero's (contract key, free key, value), a stable
  /// radix sort groups them by contract key, the items are gathered
  /// into one flat array, and each distinct key enters the table once.
  /// Every group therefore holds its items in Y storage order, and the
  /// plan's content does not depend on `num_threads`. `cancel` is
  /// polled along the key pass (every 4 096 non-zeros) and the sort;
  /// Cancelled unwinds before the plan object exists, so no half-built
  /// HtY can escape.
  YPlan(const SparseTensor& y, Modes cy, int num_threads = 0,
        CancelToken cancel = {});

  YPlan(const YPlan&) = delete;
  YPlan& operator=(const YPlan&) = delete;

  [[nodiscard]] const Modes& cy() const { return cy_; }
  [[nodiscard]] const Modes& fy() const { return fy_; }
  /// Full shape of the Y the plan was built from.
  [[nodiscard]] const std::vector<index_t>& y_dims() const { return ydims_; }
  /// Sizes of the contract modes, in cy order (X's cx sizes must match).
  [[nodiscard]] const std::vector<index_t>& contract_dims() const {
    return cdims_;
  }
  /// Sizes of Y's free modes (ascending mode order).
  [[nodiscard]] const std::vector<index_t>& free_dims() const {
    return fydims_;
  }

  /// The HtY this plan holds.
  [[nodiscard]] const simd::SwissYMap& hty() const { return hty_; }

  [[nodiscard]] std::size_t nnz_y() const { return nnz_y_; }
  [[nodiscard]] std::size_t num_keys() const { return hty_.num_keys(); }
  [[nodiscard]] std::size_t max_group() const {
    return hty_.max_group_size();
  }
  [[nodiscard]] std::size_t hty_footprint_bytes() const {
    return hty_.footprint_bytes();
  }
  [[nodiscard]] std::size_t y_footprint_bytes() const {
    return y_footprint_;
  }

  /// Linearizer for Y's free-index tuples (HtA keys).
  [[nodiscard]] const LinearIndexer& fy_indexer() const { return fylin_; }

 private:
  Modes cy_;
  Modes fy_;
  std::vector<index_t> ydims_;
  std::vector<index_t> cdims_;
  std::vector<index_t> fydims_;
  LinearIndexer fylin_;
  simd::SwissYMap hty_;
  std::size_t nnz_y_ = 0;
  std::size_t y_footprint_ = 0;
};

struct ContractResult;  // contract.hpp

/// Contracts X against a prebuilt plan (always the Sparta algorithm;
/// opts.algorithm is ignored). X's cx mode sizes must match the plan's
/// contract_dims(). Output modes: free X then free Y, as usual.
[[nodiscard]] ContractResult contract(const SparseTensor& x,
                                      const YPlan& plan, const Modes& cx,
                                      const ContractOptions& opts = {});

/// Contracts a stream of X operands against one plan (all with the same
/// cx). Each contraction is internally parallel; results are returned
/// in input order.
[[nodiscard]] std::vector<ContractResult> contract_batch(
    const std::vector<const SparseTensor*>& xs, const YPlan& plan,
    const Modes& cx, const ContractOptions& opts = {});

}  // namespace sparta
