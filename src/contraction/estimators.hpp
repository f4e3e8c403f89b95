// Memory-consumption estimators for the placement engine (paper §4.2).
//
// Eq. 5 predicts HtY's footprint exactly from tensor metadata; Eq. 6
// upper-bounds one thread's HtA. Both are evaluated before the object is
// allocated, which is what lets Sparta place data statically.
#pragma once

#include <cstddef>

#include "tensor/types.hpp"

namespace sparta {

/// Documented accuracy contract, asserted by test_estimator_accuracy
/// against the tracked-allocator peaks and relied on by the budget
/// pre-flight gate (ContractOptions::budget):
///  * Eq. 5 models HtY's steady-state layout exactly; container growth
///    slack and padding keep the measured peak within a factor of
///    kEstimatorAccuracyFactor of the estimate, in both directions.
///  * Eq. 6 upper-bounds one thread's HtA from worst-case pairing; the
///    measured per-thread peak stays below kEstimatorAccuracyFactor ×
///    estimate (it may undershoot arbitrarily on skewed inputs — that
///    is the bound doing its job).
///  * The Z_local estimate models the staged payload; measured stays
///    within kEstimatorAccuracyFactor × estimate.
inline constexpr double kEstimatorAccuracyFactor = 4.0;

/// Struct-size constants the estimators plug into the paper's formulas.
/// The defaults are Eq. 6's, an upper bound on simd::SwissAccumulator:
/// a slot costs a control byte and a 4-byte entry index (5 bytes, under
/// Size_ep = 16), and an entry its 24-byte {key, value, slot} record
/// (under Size_idx·|F_Y| + Size_val + Size_ep ≥ 28 for |F_Y| ≥ 1). The
/// bucket term is the table's slot count (simd::detail::swiss_slots_for
/// at the engine's size hint).
struct EstimatorSizes {
  std::size_t entry_pointer = 16;           ///< Size_ep: per slot/entry
  std::size_t index = sizeof(index_t);      ///< Size_idx
  std::size_t value = sizeof(value_t);      ///< Size_val
};

/// Eq. 5's constants for simd::SwissYMap. The bucket term is the slot
/// count a table sized for nnz_Y keys would have (the distinct-key count
/// is unknown before the build; at most nnz_Y). A slot costs 17 bytes
/// (a control byte and a 16-byte {key, begin, count} run); Size_ep = 8
/// per slot charges about half of it, because the build sizes from the
/// distinct keys and so holds at most as many slots as the estimate.
/// Per item, Size_idx·N_Y + Size_val stands in for the 16-byte FreeItem,
/// and Size_ep for the item's share of its key's slot.
inline constexpr EstimatorSizes kHtySizes{8, sizeof(index_t),
                                          sizeof(value_t)};

/// Eq. 5: Size_HtY = Size_ep·#Buckets + nnz_Y·(Size_idx·N_Y + Size_val
///                   + Size_ep).
[[nodiscard]] std::size_t estimate_hty_bytes(
    std::size_t nnz_y, int order_y, std::size_t num_buckets,
    const EstimatorSizes& sz = kHtySizes);

/// Eq. 6 (upper bound): Size_HtA = Size_ep·#Buckets + nnz_Fmax^X ·
///   nnz_Fmax^Y · (Size_idx·|F_Y| + Size_val + Size_ep).
/// nnz_fmax_x / nnz_fmax_y are the largest X sub-tensor and largest HtY
/// group, both known after input processing and before the accumulator
/// is touched.
[[nodiscard]] std::size_t estimate_hta_bytes(std::size_t nnz_fmax_x,
                                             std::size_t nnz_fmax_y,
                                             int num_free_y,
                                             std::size_t num_buckets,
                                             const EstimatorSizes& sz = {});

/// Z_local bound (§4.2): one (Y free LN key, value) pair per HtA entry,
/// plus each run's free-X indices, stored once per X sub-tensor. The
/// key is one LN integer however many Y free modes it packs, so
/// num_free_y does not enter; num_runs = 0 leaves the prefixes out.
[[nodiscard]] std::size_t estimate_zlocal_bytes(std::size_t nnz_hta,
                                                int num_free_x,
                                                int num_free_y,
                                                std::size_t num_runs = 0,
                                                const EstimatorSizes& sz = {});

}  // namespace sparta
