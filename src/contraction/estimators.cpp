#include "contraction/estimators.hpp"

namespace sparta {

std::size_t estimate_hty_bytes(std::size_t nnz_y, int order_y,
                               std::size_t num_buckets,
                               const EstimatorSizes& sz) {
  return sz.entry_pointer * num_buckets +
         nnz_y * (sz.index * static_cast<std::size_t>(order_y) + sz.value +
                  sz.entry_pointer);
}

std::size_t estimate_hta_bytes(std::size_t nnz_fmax_x, std::size_t nnz_fmax_y,
                               int num_free_y, std::size_t num_buckets,
                               const EstimatorSizes& sz) {
  return sz.entry_pointer * num_buckets +
         nnz_fmax_x * nnz_fmax_y *
             (sz.index * static_cast<std::size_t>(num_free_y) + sz.value +
              sz.entry_pointer);
}

std::size_t estimate_zlocal_bytes(std::size_t nnz_hta, int num_free_x,
                                  int /*num_free_y*/, std::size_t num_runs,
                                  const EstimatorSizes& sz) {
  return nnz_hta * (sizeof(lnkey_t) + sz.value) +
         num_runs * sz.index * static_cast<std::size_t>(num_free_x);
}

}  // namespace sparta
