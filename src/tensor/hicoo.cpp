#include "tensor/hicoo.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "simd/sort.hpp"
#include "tensor/linearize.hpp"

namespace sparta {

HicooTensor HicooTensor::from_coo(const SparseTensor& t, int block_bits) {
  SPARTA_CHECK(block_bits >= 1 && block_bits <= 8,
               "block_bits must be in [1, 8] so offsets fit one byte");
  HicooTensor h;
  h.dims_ = t.dims();
  h.block_bits_ = block_bits;
  const auto order = static_cast<std::size_t>(t.order());
  const std::size_t n = t.nnz();
  h.vals_.resize(n);
  h.einds_.resize(n * order);
  if (n == 0) {
    h.bptr_.push_back(0);
    return h;
  }

  // Block-grid linearizer for grouping.
  std::vector<index_t> grid(order);
  for (std::size_t m = 0; m < order; ++m) {
    grid[m] = ((t.dim(static_cast<int>(m)) - 1) >> block_bits) + 1;
  }
  const LinearIndexer grid_lin(grid);

  // Sort non-zeros by (block key, within-block key): one radix pass over
  // a combined key when it fits, else lexicographic fallback.
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(n);
  {
    const int wbits = static_cast<int>(order) * block_bits;
    SPARTA_CHECK(
        wbits < 64 && grid_lin.size() <=
                          (std::uint64_t{1} << (63 - wbits)),
        "index space too large for HiCOO's combined sort key; use fewer "
        "block bits or smaller modes");
    std::vector<index_t> c(order);
    std::vector<index_t> bc(order);
    for (std::size_t i = 0; i < n; ++i) {
      t.coords(i, c);
      std::uint64_t within = 0;
      for (std::size_t m = 0; m < order; ++m) {
        bc[m] = c[m] >> block_bits;
        within = (within << block_bits) |
                 (c[m] & ((index_t{1} << block_bits) - 1));
      }
      keyed[i] = {(grid_lin.linearize(bc) << wbits) | within, i};
    }
    simd::sort_ln_pairs(keyed);
  }

  const int wbits = static_cast<int>(order) * block_bits;
  std::uint64_t prev_block = ~std::uint64_t{0};
  std::vector<index_t> c(order);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [key, src] = keyed[i];
    const std::uint64_t block_key = key >> wbits;
    if (block_key != prev_block) {
      h.bptr_.push_back(i);
      std::vector<index_t> bc(order);
      grid_lin.delinearize(block_key, bc);
      h.binds_.insert(h.binds_.end(), bc.begin(), bc.end());
      prev_block = block_key;
    }
    t.coords(src, c);
    for (std::size_t m = 0; m < order; ++m) {
      h.einds_[i * order + m] = static_cast<std::uint8_t>(
          c[m] & ((index_t{1} << block_bits) - 1));
    }
    h.vals_[i] = t.value(src);
  }
  h.bptr_.push_back(n);
  return h;
}

std::size_t HicooTensor::footprint_bytes() const {
  return bptr_.capacity() * sizeof(std::size_t) +
         binds_.capacity() * sizeof(index_t) +
         einds_.capacity() * sizeof(std::uint8_t) +
         vals_.capacity() * sizeof(value_t);
}

SparseTensor HicooTensor::to_coo() const {
  SparseTensor out(dims_);
  out.reserve(nnz());
  for_each([&](std::span<const index_t> coords, value_t v) {
    out.append_unchecked(coords, v);
  });
  out.sort();
  return out;
}

}  // namespace sparta
