#include "spgemm/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "simd/swiss_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparta {

namespace {

// Gilbert sparse accumulator: dense value workspace plus a list of
// occupied columns, reset per row in O(row nnz).
class DenseSpaRow {
 public:
  explicit DenseSpaRow(index_t cols)
      : vals_(cols, 0.0), occupied_(cols, false) {}

  void accumulate(index_t col, value_t v) {
    if (!occupied_[col]) {
      occupied_[col] = true;
      cols_.push_back(col);
    }
    vals_[col] += v;
  }

  [[nodiscard]] std::size_t size() const { return cols_.size(); }

  // Emits (col, value) sorted by column and resets.
  template <typename F>
  void drain_sorted(F&& f) {
    std::sort(cols_.begin(), cols_.end());
    for (index_t c : cols_) {
      f(c, vals_[c]);
      vals_[c] = 0.0;
      occupied_[c] = false;
    }
    cols_.clear();
  }

 private:
  std::vector<value_t> vals_;
  std::vector<bool> occupied_;
  std::vector<index_t> cols_;
};

// Multiplies one row of A into an accumulator via `accumulate(col, v)`.
template <typename Acc>
std::size_t multiply_row(const CsrMatrix& a, const CsrMatrix& b, index_t row,
                         Acc&& accumulate) {
  std::size_t flops = 0;
  const auto acols = a.row_cols(row);
  const auto avals = a.row_vals(row);
  for (std::size_t i = 0; i < acols.size(); ++i) {
    const index_t k = acols[i];
    const value_t av = avals[i];
    const auto bcols = b.row_cols(k);
    const auto bvals = b.row_vals(k);
    for (std::size_t j = 0; j < bcols.size(); ++j) {
      accumulate(bcols[j], av * bvals[j]);
      ++flops;
    }
  }
  return flops;
}

}  // namespace

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 const SpgemmOptions& opts, SpgemmStats* stats) {
  SPARTA_CHECK(a.cols() == b.rows(),
               "inner dimensions must match (A.cols == B.rows)");
  obs::Span sp_spgemm("spgemm");
  const index_t rows = a.rows();
  const int nthreads =
      opts.num_threads > 0 ? opts.num_threads : max_threads();

  std::vector<std::size_t> row_nnz(rows, 0);
  std::atomic<std::size_t> total_flops{0};

  // Per-row result staging (progressive) or exact layout (two-phase).
  std::vector<std::vector<index_t>> row_cols_out;
  std::vector<std::vector<value_t>> row_vals_out;

  if (opts.sizing == SpgemmSizing::kTwoPhase) {
    // Symbolic phase: count each row's distinct output columns.
    obs::Span sp_symbolic("spgemm.symbolic");
    ExceptionCollector ec;
#pragma omp parallel num_threads(nthreads)
    {
      // Thread-local state built under the guard: every thread must
      // still reach the `omp for` below even if construction throws.
      std::unique_ptr<simd::SwissAccumulator> acc;
      ec.run([&] { acc = std::make_unique<simd::SwissAccumulator>(64); });
#pragma omp for schedule(dynamic, 64)
      for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(rows);
           ++r) {
        ec.run([&, r] {
          acc->clear();
          multiply_row(a, b, static_cast<index_t>(r),
                       [&](index_t c, value_t) { acc->accumulate(c, 0.0); });
          row_nnz[static_cast<std::size_t>(r)] = acc->size();
        });
      }
    }
    ec.rethrow();
  }

  row_cols_out.resize(rows);
  row_vals_out.resize(rows);

  obs::Span sp_numeric("spgemm.numeric");
  ExceptionCollector numeric_ec;
#pragma omp parallel num_threads(nthreads)
  {
    // Thread-local accumulators, constructed once — under the guard so a
    // throwing constructor cannot skip the worksharing constructs below.
    std::unique_ptr<DenseSpaRow> spa;
    std::unique_ptr<simd::SwissAccumulator> hash;
    numeric_ec.run([&] {
      if (opts.accumulator == SpgemmAccumulator::kDenseSpa) {
        spa = std::make_unique<DenseSpaRow>(b.cols());
      }
      hash = std::make_unique<simd::SwissAccumulator>(256);
    });
    std::size_t flops = 0;

#pragma omp for schedule(dynamic, 64)
    for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(rows); ++r) {
      numeric_ec.run([&, r] {
      const auto row = static_cast<index_t>(r);
      const auto ri = static_cast<std::size_t>(r);
      auto& cols_out = row_cols_out[ri];
      auto& vals_out = row_vals_out[ri];
      if (opts.sizing == SpgemmSizing::kTwoPhase) {
        cols_out.reserve(row_nnz[ri]);
        vals_out.reserve(row_nnz[ri]);
      }
      if (opts.accumulator == SpgemmAccumulator::kDenseSpa) {
        flops += multiply_row(a, b, row, [&](index_t c, value_t v) {
          spa->accumulate(c, v);
        });
        spa->drain_sorted([&](index_t c, value_t v) {
          cols_out.push_back(c);
          vals_out.push_back(v);
        });
      } else {
        hash->clear();
        flops += multiply_row(a, b, row, [&](index_t c, value_t v) {
          hash->accumulate(c, v);
        });
        hash->drain([&](lnkey_t c, value_t v) {
          cols_out.push_back(static_cast<index_t>(c));
          vals_out.push_back(v);
        });
        // Hash drain order is insertion order; sort the row by column.
        std::vector<std::size_t> perm(cols_out.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
          return cols_out[x] < cols_out[y];
        });
        std::vector<index_t> sc(cols_out.size());
        std::vector<value_t> sv(vals_out.size());
        for (std::size_t i = 0; i < perm.size(); ++i) {
          sc[i] = cols_out[perm[i]];
          sv[i] = vals_out[perm[i]];
        }
        cols_out.swap(sc);
        vals_out.swap(sv);
      }
      row_nnz[ri] = cols_out.size();
      });
    }
    total_flops += flops;
  }
  numeric_ec.rethrow();
  sp_numeric.finish();

  // Assemble CSR from the per-row pieces.
  std::vector<std::size_t> rowptr(rows + 1, 0);
  for (index_t r = 0; r < rows; ++r) rowptr[r + 1] = rowptr[r] + row_nnz[r];
  const std::size_t nnz = rowptr[rows];
  std::vector<index_t> colidx(nnz);
  std::vector<value_t> vals(nnz);
  ExceptionCollector gather_ec;
#pragma omp parallel for schedule(static) num_threads(nthreads)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(rows); ++r) {
    gather_ec.run([&, r] {
      const auto ri = static_cast<std::size_t>(r);
      std::copy(row_cols_out[ri].begin(), row_cols_out[ri].end(),
                colidx.begin() + static_cast<std::ptrdiff_t>(rowptr[ri]));
      std::copy(row_vals_out[ri].begin(), row_vals_out[ri].end(),
                vals.begin() + static_cast<std::ptrdiff_t>(rowptr[ri]));
    });
  }
  gather_ec.rethrow();

  if (stats) {
    stats->flops = total_flops.load();
    stats->symbolic_nnz =
        opts.sizing == SpgemmSizing::kTwoPhase ? nnz : 0;
  }
  SPARTA_COUNTER_ADD("spgemm.calls", 1);
  SPARTA_COUNTER_ADD("spgemm.flops", total_flops.load());
  return CsrMatrix::from_parts(rows, b.cols(), std::move(rowptr),
                               std::move(colidx), std::move(vals));
}

std::vector<value_t> spmv(const CsrMatrix& a, std::span<const value_t> x,
                          int num_threads) {
  SPARTA_CHECK(x.size() == a.cols(),
               "spmv: vector length must equal A.cols()");
  const int nthreads =
      num_threads > 0 ? num_threads : max_threads();
  std::vector<value_t> y(a.rows(), value_t{0});
  ExceptionCollector ec;
#pragma omp parallel for schedule(static) num_threads(nthreads)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(a.rows());
       ++r) {
    ec.run([&, r] {
      const auto row = static_cast<index_t>(r);
      const auto cols = a.row_cols(row);
      const auto vals = a.row_vals(row);
      value_t acc{0};
      for (std::size_t i = 0; i < cols.size(); ++i) {
        acc += vals[i] * x[cols[i]];
      }
      y[static_cast<std::size_t>(r)] = acc;
    });
  }
  ec.rethrow();
  return y;
}

}  // namespace sparta
