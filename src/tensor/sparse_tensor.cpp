#include "tensor/sparse_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "simd/sort.hpp"
#include "tensor/linearize.hpp"

namespace sparta {

SparseTensor::SparseTensor(std::vector<index_t> dims)
    : dims_(std::move(dims)), inds_(dims_.size()) {
  SPARTA_CHECK(!dims_.empty(), "tensor must have at least one mode");
  for (index_t d : dims_) {
    SPARTA_CHECK(d > 0, "every mode size must be positive");
  }
}

double SparseTensor::density() const {
  double cells = 1.0;
  for (index_t d : dims_) cells *= static_cast<double>(d);
  return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
}

std::size_t SparseTensor::footprint_bytes() const {
  std::size_t bytes = vals_.capacity() * sizeof(value_t);
  for (const auto& col : inds_) bytes += col.capacity() * sizeof(index_t);
  return bytes;
}

void SparseTensor::coords(std::size_t n, std::span<index_t> out) const {
  SPARTA_ASSERT(out.size() == inds_.size());
  for (std::size_t m = 0; m < inds_.size(); ++m) out[m] = inds_[m][n];
}

void SparseTensor::reserve(std::size_t n) {
  vals_.reserve(n);
  for (auto& col : inds_) col.reserve(n);
}

void SparseTensor::append(std::span<const index_t> coords, value_t val) {
  SPARTA_CHECK(coords.size() == inds_.size(),
               "coordinate arity does not match tensor order");
  for (std::size_t m = 0; m < inds_.size(); ++m) {
    SPARTA_CHECK(coords[m] < dims_[m], "coordinate out of bounds");
  }
  append_unchecked(coords, val);
}

void SparseTensor::append_unchecked(std::span<const index_t> coords,
                                    value_t val) {
  for (std::size_t m = 0; m < inds_.size(); ++m) {
    inds_[m].push_back(coords[m]);
  }
  vals_.push_back(val);
}

void SparseTensor::clear() {
  for (auto& col : inds_) col.clear();
  vals_.clear();
}

SparseTensor SparseTensor::from_columns(
    std::vector<index_t> dims, std::vector<std::vector<index_t>> columns,
    std::vector<value_t> values) {
  SparseTensor t = from_columns_unchecked(std::move(dims), std::move(columns),
                                          std::move(values));
  for (std::size_t m = 0; m < t.inds_.size(); ++m) {
    for (index_t v : t.inds_[m]) {
      SPARTA_CHECK(v < t.dims_[m], "index out of bounds in column");
    }
  }
  return t;
}

SparseTensor SparseTensor::from_columns_unchecked(
    std::vector<index_t> dims, std::vector<std::vector<index_t>> columns,
    std::vector<value_t> values) {
  SparseTensor t(std::move(dims));
  SPARTA_CHECK(columns.size() == t.dims_.size(),
               "one index column per mode required");
  for (const auto& col : columns) {
    SPARTA_CHECK(col.size() == values.size(),
                 "column length must match value count");
  }
  t.inds_ = std::move(columns);
  t.vals_ = std::move(values);
  return t;
}

void SparseTensor::permute_modes(const Modes& new_order) {
  SPARTA_CHECK(new_order.size() == dims_.size(),
               "permutation arity does not match tensor order");
  std::vector<bool> seen(dims_.size(), false);
  for (int m : new_order) {
    SPARTA_CHECK(m >= 0 && m < order(), "mode out of range in permutation");
    SPARTA_CHECK(!seen[static_cast<std::size_t>(m)],
                 "duplicate mode in permutation");
    seen[static_cast<std::size_t>(m)] = true;
  }
  std::vector<index_t> new_dims(dims_.size());
  std::vector<std::vector<index_t>> new_inds(dims_.size());
  for (std::size_t k = 0; k < new_order.size(); ++k) {
    const auto src = static_cast<std::size_t>(new_order[k]);
    new_dims[k] = dims_[src];
    new_inds[k] = std::move(inds_[src]);
  }
  dims_ = std::move(new_dims);
  inds_ = std::move(new_inds);
}

namespace {

// When the whole index space fits in 64 bits we sort (LN key, position)
// pairs — one integer compare per element instead of `order` compares.
bool fits_ln(const std::vector<index_t>& dims) { return ln_space_fits(dims); }

}  // namespace

void SparseTensor::sort() { sort(CancelToken{}); }

void SparseTensor::sort(const CancelToken& cancel) {
  const std::size_t n = nnz();
  if (n < 2) return;

  std::vector<std::size_t> perm(n);
  if (fits_ln(dims_)) {
    LinearIndexer lin(dims_);
    std::vector<std::pair<lnkey_t, std::size_t>> keyed(n);
    std::vector<index_t> c(dims_.size());
    for (std::size_t i = 0; i < n; ++i) {
      coords(i, c);
      keyed[i] = {lin.linearize(c), i};
    }
    // ISA-dispatched stable LSD radix on the LN key (simd/sort.hpp):
    // linear passes instead of O(n log n) compares, and — being stable —
    // an identical permutation on every SIMD tier, which the
    // scalar-vs-simd differential CI jobs rely on.
    simd::sort_ln_pairs(keyed, significant_bits(lin.size() - 1), cancel);
    for (std::size_t i = 0; i < n; ++i) perm[i] = keyed[i].second;
  } else {
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    parallel_sort(perm.begin(), perm.end(),
                  [this](std::size_t a, std::size_t b) {
                    for (const auto& col : inds_) {
                      if (col[a] != col[b]) return col[a] < col[b];
                    }
                    return false;
                  },
                  cancel);
  }

  // Apply the permutation column by column (gather).
  std::vector<index_t> tmp_idx(n);
  for (auto& col : inds_) {
    for (std::size_t i = 0; i < n; ++i) tmp_idx[i] = col[perm[i]];
    col.swap(tmp_idx);
  }
  std::vector<value_t> tmp_val(n);
  for (std::size_t i = 0; i < n; ++i) tmp_val[i] = vals_[perm[i]];
  vals_.swap(tmp_val);
}

bool SparseTensor::is_sorted() const {
  for (std::size_t i = 1; i < nnz(); ++i) {
    for (const auto& col : inds_) {
      if (col[i - 1] != col[i]) {
        if (col[i - 1] > col[i]) return false;
        break;
      }
    }
  }
  return true;
}

void SparseTensor::coalesce() {
  if (nnz() < 2) {
    return;
  }
  sort();
  const std::size_t n = nnz();
  std::size_t out = 0;
  auto same_coords = [this](std::size_t a, std::size_t b) {
    for (const auto& col : inds_) {
      if (col[a] != col[b]) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    value_t sum = vals_[i];
    while (j < n && same_coords(i, j)) {
      sum += vals_[j];
      ++j;
    }
    if (sum != value_t{0}) {
      for (auto& col : inds_) col[out] = col[i];
      vals_[out] = sum;
      ++out;
    }
    i = j;
  }
  for (auto& col : inds_) col.resize(out);
  vals_.resize(out);
}

bool SparseTensor::approx_equal(const SparseTensor& a, const SparseTensor& b,
                                double tol) {
  if (a.dims_ != b.dims_) return false;
  SparseTensor ca = a;
  SparseTensor cb = b;
  ca.coalesce();
  cb.coalesce();
  if (ca.nnz() != cb.nnz()) return false;
  for (std::size_t m = 0; m < ca.inds_.size(); ++m) {
    if (ca.inds_[m] != cb.inds_[m]) return false;
  }
  for (std::size_t i = 0; i < ca.nnz(); ++i) {
    const double diff = std::abs(ca.vals_[i] - cb.vals_[i]);
    const double scale =
        std::max({1.0, std::abs(ca.vals_[i]), std::abs(cb.vals_[i])});
    if (diff > tol * scale) return false;
  }
  return true;
}

std::string SparseTensor::summary() const {
  std::ostringstream os;
  os << "order-" << order() << " [";
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    if (m) os << "x";
    os << dims_[m];
  }
  os << "] nnz=" << nnz();
  return os.str();
}

}  // namespace sparta
