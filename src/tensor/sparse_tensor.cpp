#include "tensor/sparse_tensor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
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

// The fused path sorts (LN key, 32-bit position) pairs: the key space
// must fit 64 bits and every position 32.
bool fused_sort_fits(std::span<const index_t> dims, std::size_t nnz) {
  return ln_space_fits(dims) &&
         nnz <= std::numeric_limits<std::uint32_t>::max();
}

}  // namespace

void SparseTensor::sort() { sort(CancelToken{}); }

void SparseTensor::sort(const CancelToken& cancel) {
  const std::size_t n = nnz();
  if (n < 2) return;

  // On the calling thread: callers with their own thread budget (the
  // network executor's final sort inside a served request) sort here.
  if (fused_sort_fits(dims_, n)) {
    Modes identity(dims_.size());
    std::iota(identity.begin(), identity.end(), 0);
    *this = sorted_permuted_copy(*this, identity, 0, 1, cancel,
                                 "sort.radix_pass")
                .t;
    return;
  }

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  parallel_sort(perm.begin(), perm.end(),
                [this](std::size_t a, std::size_t b) {
                  for (const auto& col : inds_) {
                    if (col[a] != col[b]) return col[a] < col[b];
                  }
                  return false;
                },
                cancel);

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

SortedCopy sorted_permuted_copy(const SparseTensor& t, const Modes& order,
                                std::size_t prefix_modes, int num_threads,
                                const CancelToken& cancel, const char* site) {
  SPARTA_CHECK(order.size() == static_cast<std::size_t>(t.order()),
               "permutation arity does not match tensor order");
  SPARTA_CHECK(prefix_modes <= order.size(),
               "prefix longer than the permutation");
  const std::size_t n = t.nnz();
  const std::size_t nmodes = order.size();
  std::vector<index_t> dims(nmodes);
  std::vector<bool> seen(nmodes, false);
  for (std::size_t k = 0; k < nmodes; ++k) {
    const int m = order[k];
    SPARTA_CHECK(m >= 0 && m < t.order(), "mode out of range in permutation");
    SPARTA_CHECK(!seen[static_cast<std::size_t>(m)],
                 "duplicate mode in permutation");
    seen[static_cast<std::size_t>(m)] = true;
    dims[k] = t.dim(m);
  }
  SortedCopy out;
  out.prefix_starts.push_back(0);

  if (!fused_sort_fits(dims, n)) {
    out.t = t;
    out.t.permute_modes(order);
    out.t.sort(cancel);
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t m = 0; m < prefix_modes; ++m) {
        if (out.t.index(i - 1, static_cast<int>(m)) !=
            out.t.index(i, static_cast<int>(m))) {
          out.prefix_starts.push_back(i);
          break;
        }
      }
    }
    if (n > 0) out.prefix_starts.push_back(n);
    return out;
  }

  const LinearIndexer lin(dims);
  const std::vector<lnkey_t>& strides = lin.strides();
  // Rows in one prefix group share key / span.
  const lnkey_t span = prefix_modes == 0 ? lin.size()
                                         : strides[prefix_modes - 1];
  std::vector<const index_t*> src(nmodes);
  for (std::size_t k = 0; k < nmodes; ++k) {
    src[k] = t.mode_indices(order[k]).data();
  }
  const value_t* src_vals = t.values().data();

  // Presorted path: rows already in the requested order (a network
  // intermediate whose contract modes trail, an input sorted that way)
  // make the stable sort the identity. The scan stops at the first
  // descent; without one, the copy is the columns as they are, with
  // the prefix starts the scan found. It polls at the key pass's
  // cadence, once per simd::kBlockItems rows, and the key pass skips
  // the blocks the scan polled, so each block polls once either way.
  std::size_t polled_rows = 0;
  {
    std::vector<std::size_t> starts{0};
    bool sorted = true;
    lnkey_t prev = 0;
    lnkey_t next = 0;  // keys below `next` share the previous row's prefix
    for (std::size_t b = 0; b < n && sorted; b += simd::kBlockItems) {
      SPARTA_FAILPOINT(site);
      cancel.check(site);
      const std::size_t e = std::min(n, b + simd::kBlockItems);
      polled_rows = e;
      for (std::size_t i = b; i < e; ++i) {
        lnkey_t key = 0;
        for (std::size_t k = 0; k < nmodes; ++k) key += strides[k] * src[k][i];
        if (key < prev) {
          sorted = false;
          break;
        }
        if (key >= next) {
          if (i > 0) starts.push_back(i);
          next = (key / span + 1) * span;
        }
        prev = key;
      }
    }
    if (sorted) {
      std::vector<std::vector<index_t>> cols(nmodes);
      for (std::size_t k = 0; k < nmodes; ++k) {
        cols[k].assign(src[k], src[k] + n);
      }
      if (n > 0) starts.push_back(n);
      out.prefix_starts = std::move(starts);
      out.t = SparseTensor::from_columns_unchecked(
          std::move(dims), std::move(cols),
          std::vector<value_t>(src_vals, src_vals + n));
      return out;
    }
  }

  const int team = team_size(n, num_threads);
  // The pairs are not zero-filled: the team's key pass writes them first.
  UninitVector<simd::KeyPos> keys(n);
  std::vector<std::vector<index_t>> cols(nmodes, std::vector<index_t>(n));
  std::vector<value_t> vals(n);
  // Range d of the sort: its first row, and how many rows after it
  // start a prefix group.
  std::array<std::size_t, 256> range_begin{};
  std::array<std::size_t, 256> range_starts{};
  std::array<bool, 256> visited{};
  simd::sort_ln_pairs_team(
      keys, simd::significant_bits(lin.size() - 1), team, cancel,
      // Key pass: one (LN key, position) pair per row, read column by
      // column from t's unpermuted storage.
      [&](std::size_t b, std::size_t e) {
        if (b >= polled_rows) {
          SPARTA_FAILPOINT(site);
          cancel.check(site);
        }
        for (std::size_t i = b; i < e; ++i) {
          keys[i] = {0, static_cast<std::uint32_t>(i)};
        }
        for (std::size_t k = 0; k < nmodes; ++k) {
          const index_t* col = src[k];
          for (std::size_t i = b; i < e; ++i) {
            keys[i].first += strides[k] * col[i];
          }
        }
      },
      // Gather the sorted rows of one range. The rows after its first
      // that start a prefix group go, in order, into the range's own
      // position slots, which the gather has finished reading.
      [&](std::size_t d, std::size_t b, std::size_t e) {
        for (std::size_t k = 0; k < nmodes; ++k) {
          const index_t* col = src[k];
          index_t* dst = cols[k].data();
          for (std::size_t i = b; i < e; ++i) dst[i] = col[keys[i].second];
        }
        for (std::size_t i = b; i < e; ++i) {
          vals[i] = src_vals[keys[i].second];
        }
        visited[d] = true;
        range_begin[d] = b;
        if (prefix_modes == 0) return;
        std::size_t c = 0;
        // Keys below `next` share the previous row's prefix.
        lnkey_t next = (keys[b].first / span + 1) * span;
        for (std::size_t i = b + 1; i < e; ++i) {
          if (keys[i].first >= next) {
            keys[b + c++].second = static_cast<std::uint32_t>(i);
            next = (keys[i].first / span + 1) * span;
          }
        }
        range_starts[d] = c;
      });

  // Join the ranges' starts in order; a range's first row starts a
  // group where its prefix differs from the previous range's last.
  if (prefix_modes > 0) {
    std::size_t total = 2;
    for (std::size_t d = 0; d < 256; ++d) total += range_starts[d] + 1;
    out.prefix_starts.reserve(total);
    for (std::size_t d = 0; d < 256; ++d) {
      if (!visited[d]) continue;
      const std::size_t b = range_begin[d];
      if (b > 0 && keys[b].first / span != keys[b - 1].first / span) {
        out.prefix_starts.push_back(b);
      }
      for (std::size_t c = 0; c < range_starts[d]; ++c) {
        out.prefix_starts.push_back(keys[b + c].second);
      }
    }
  }
  if (n > 0) out.prefix_starts.push_back(n);
  out.t = SparseTensor::from_columns_unchecked(std::move(dims),
                                               std::move(cols),
                                               std::move(vals));
  return out;
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
