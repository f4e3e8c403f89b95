// Coordinate-format (COO) sparse tensor of arbitrary order.
//
// Storage is structure-of-arrays: one index array per mode plus one value
// array, mirroring HiParTI's layout. Mode permutation is O(order) (just
// swaps the per-mode arrays — the paper's "switch the pointers of their
// indices"), while sorting rearranges all non-zeros lexicographically.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/types.hpp"

namespace sparta {

class CancelToken;

class SparseTensor {
 public:
  SparseTensor() = default;

  /// Creates an empty tensor with the given mode sizes.
  explicit SparseTensor(std::vector<index_t> dims);

  // --- Shape ---------------------------------------------------------

  [[nodiscard]] int order() const { return static_cast<int>(dims_.size()); }
  [[nodiscard]] const std::vector<index_t>& dims() const { return dims_; }
  [[nodiscard]] index_t dim(int mode) const {
    return dims_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] std::size_t nnz() const { return vals_.size(); }
  [[nodiscard]] bool empty() const { return vals_.empty(); }

  /// nnz / product(dims), computed in double to avoid overflow.
  [[nodiscard]] double density() const;

  /// Heap bytes used by the index and value arrays.
  [[nodiscard]] std::size_t footprint_bytes() const;

  // --- Element access ------------------------------------------------

  /// Index of non-zero `n` in mode `mode`.
  [[nodiscard]] index_t index(std::size_t n, int mode) const {
    return inds_[static_cast<std::size_t>(mode)][n];
  }
  [[nodiscard]] value_t value(std::size_t n) const { return vals_[n]; }
  [[nodiscard]] value_t& value(std::size_t n) { return vals_[n]; }

  /// Copies the full coordinate tuple of non-zero `n` into `out`
  /// (out.size() must equal order()).
  void coords(std::size_t n, std::span<index_t> out) const;

  /// Whole index column for one mode (size nnz()).
  [[nodiscard]] std::span<const index_t> mode_indices(int mode) const {
    return inds_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] std::span<const value_t> values() const { return vals_; }
  [[nodiscard]] std::span<value_t> values() { return vals_; }

  // --- Construction --------------------------------------------------

  void reserve(std::size_t n);

  /// Appends one non-zero. Coordinates are bounds-checked.
  void append(std::span<const index_t> coords, value_t val);

  /// Appends one non-zero without bounds checking (hot path for the
  /// writeback stage; caller guarantees validity).
  void append_unchecked(std::span<const index_t> coords, value_t val);

  void clear();

  /// Takes ownership of fully-built index columns + values (one column
  /// per mode, all the same length). Column lengths and bounds are
  /// validated.
  [[nodiscard]] static SparseTensor from_columns(
      std::vector<index_t> dims, std::vector<std::vector<index_t>> columns,
      std::vector<value_t> values);

  /// from_columns() without the bounds scan (lengths are still checked):
  /// the caller guarantees every index is within its mode's size. Used
  /// by the parallel writeback gather, which checks each index as it
  /// writes it.
  [[nodiscard]] static SparseTensor from_columns_unchecked(
      std::vector<index_t> dims, std::vector<std::vector<index_t>> columns,
      std::vector<value_t> values);

  // --- Reordering ----------------------------------------------------

  /// Reorders modes so that new mode k is old mode `new_order[k]`.
  /// O(order) pointer swaps; non-zeros are untouched.
  void permute_modes(const Modes& new_order);

  /// Sorts non-zeros lexicographically by (mode 0, mode 1, ...):
  /// sorted_permuted_copy() in mode order on the calling thread where
  /// the LN key space fits, else an OpenMP task quicksort (parallel
  /// when large).
  void sort();

  /// Cancellable sort: `cancel` is polled once per radix pass, block of
  /// a parallel pass, or partition task, and Cancelled unwinds with the
  /// tensor untouched (the result is built on side buffers and only
  /// adopted at the end).
  void sort(const CancelToken& cancel);

  /// True when non-zeros are in lexicographic order.
  [[nodiscard]] bool is_sorted() const;

  /// Sorts, then merges duplicate coordinates by summing their values and
  /// drops explicit zeros produced by cancellation.
  void coalesce();

  // --- Comparison ----------------------------------------------------

  /// Exact shape + coordinate equality with value tolerance. Both tensors
  /// are compared in canonical (sorted, coalesced) form; inputs are
  /// untouched (copies are made when needed).
  [[nodiscard]] static bool approx_equal(const SparseTensor& a,
                                         const SparseTensor& b,
                                         double tol = 1e-9);

  /// One-line human-readable summary ("order-4 [6186x24x77x32] nnz=5330").
  [[nodiscard]] std::string summary() const;

 private:
  friend class TensorBuilder;

  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> inds_;  // inds_[mode][nz]
  std::vector<value_t> vals_;
};

/// A sorted copy of a tensor with reordered modes, and the rows where
/// its leading modes' indices change.
struct SortedCopy {
  SparseTensor t;  ///< modes in the requested order, sorted
  /// 0, every row whose first `prefix_modes` indices differ from the
  /// row before, then nnz; just {0} when empty.
  std::vector<std::size_t> prefix_starts;
};

/// Copies `t`, permute_modes(order), sort() and scans for prefix_starts,
/// bitwise equal to those steps, in one fused pass when the permuted LN
/// key space fits 64 bits (and nnz < 2^32): one
/// simd::sort_ln_pairs_team() reads the unpermuted columns into
/// (key, position) pairs, sorts them stably, and gathers each sorted
/// range's rows while finding where key / (the product of the
/// non-prefix mode sizes) changes; the calling thread joins the
/// ranges' starts. Otherwise it runs those steps with the comparison
/// sort. Before the fused pass, a scan on the calling thread looks for
/// a descent in the requested order and stops at the first; rows with
/// none are copied as they are, with no key pass or sort. Runs on
/// `num_threads` threads (0 = OpenMP's default), or on the calling
/// thread for small tensors (team_size()). `site` names the scan's and
/// the key pass's cancel polls and failpoint, one per 4 096 rows.
[[nodiscard]] SortedCopy sorted_permuted_copy(const SparseTensor& t,
                                              const Modes& order,
                                              std::size_t prefix_modes,
                                              int num_threads,
                                              const CancelToken& cancel,
                                              const char* site);

}  // namespace sparta
