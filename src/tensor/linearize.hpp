// Large-number (LN) index linearization (paper §3.3).
//
// Converts a sparse multi-index tuple over a set of modes into a single
// dense 64-bit integer: LN(i0,...,ik) = ((i0*D1 + i1)*D2 + i2)... .
// Unique LN keys make hash-table key comparison a single integer compare,
// which is the heart of both HtY and HtA.
#pragma once

#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tensor/types.hpp"

namespace sparta {

/// True when the product of `dims` fits the 64-bit LN representation
/// (every dim must also be positive). The cheap O(order) predicate
/// behind check_ln_space(); shared with sorted_permuted_copy()'s fused
/// LN-pair path.
[[nodiscard]] inline bool ln_space_fits(std::span<const index_t> dims) {
  lnkey_t total = 1;
  for (index_t d : dims) {
    if (d == 0) return false;
    if (total > std::numeric_limits<lnkey_t>::max() / d) return false;
    total *= d;
  }
  return true;
}

/// Validates that the linearized index space over `dims` fits 64 bits,
/// throwing a diagnostic that names the offending mode sizes. Called at
/// plan time — before any O(nnz) work — by contract() and YPlan, so an
/// overflowing LN key space is rejected up front instead of surfacing
/// mid-pipeline (the paper's LN-key contract, §3.3, assumes the
/// linearized index fits 64 bits).
inline void check_ln_space(const char* what, std::span<const index_t> dims) {
  if (ln_space_fits(dims)) return;
  std::string sizes;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) sizes += "x";
    sizes += std::to_string(dims[i]);
  }
  throw Error(std::string(what) + ": linearized index space " + sizes +
              " exceeds the 64-bit LN representation; reduce mode sizes "
              "or contract fewer modes");
}

/// Row-major linearizer over a fixed list of mode sizes.
class LinearIndexer {
 public:
  LinearIndexer() = default;

  /// `dims` are the sizes of the modes being linearized, in the order the
  /// indices will be supplied. Throws if the product overflows 64 bits.
  explicit LinearIndexer(std::vector<index_t> dims) : dims_(std::move(dims)) {
    for (index_t d : dims_) {
      SPARTA_CHECK(d > 0, "mode size must be positive");
    }
    check_ln_space("LinearIndexer", dims_);
    strides_.assign(dims_.size(), 1);
    lnkey_t total = 1;
    for (std::size_t i = dims_.size(); i-- > 0;) {
      strides_[i] = total;
      total *= dims_[i];
    }
    size_ = total;
  }

  [[nodiscard]] std::size_t num_modes() const { return dims_.size(); }
  [[nodiscard]] const std::vector<index_t>& dims() const { return dims_; }

  /// Row-major strides: mode i's index is weighted by strides()[i].
  [[nodiscard]] const std::vector<lnkey_t>& strides() const {
    return strides_;
  }

  /// Total number of addressable positions (product of dims).
  [[nodiscard]] lnkey_t size() const { return size_; }

  /// Linearize a full tuple (one index per mode).
  [[nodiscard]] lnkey_t linearize(std::span<const index_t> idx) const {
    SPARTA_ASSERT(idx.size() == dims_.size());
    lnkey_t key = 0;
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      SPARTA_ASSERT(idx[i] < dims_[i]);
      key += strides_[i] * idx[i];
    }
    return key;
  }

  /// Linearize indices gathered from `coords` at positions `modes`.
  /// coords is a full coordinate tuple of some tensor; modes selects which
  /// of its entries correspond to this indexer's dims, in order.
  [[nodiscard]] lnkey_t linearize_gather(std::span<const index_t> coords,
                                         std::span<const int> modes) const {
    SPARTA_ASSERT(modes.size() == dims_.size());
    lnkey_t key = 0;
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      const index_t v = coords[static_cast<std::size_t>(modes[i])];
      SPARTA_ASSERT(v < dims_[i]);
      key += strides_[i] * v;
    }
    return key;
  }

  /// Inverse of linearize(); writes one index per mode into `out`.
  void delinearize(lnkey_t key, std::span<index_t> out) const {
    SPARTA_ASSERT(out.size() == dims_.size());
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      out[i] = static_cast<index_t>(key / strides_[i]);
      key %= strides_[i];
    }
  }

 private:
  std::vector<index_t> dims_;
  std::vector<lnkey_t> strides_;
  lnkey_t size_ = 1;
};

}  // namespace sparta
