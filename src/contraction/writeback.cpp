#include "contraction/writeback.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sparta::engine {

namespace {

// From this many Z rows up, the gather's team zero-fills Z's arrays, one
// thread per array, at the cost of one more barrier; below it the
// calling thread does. Measured with perfbench on a 4-vCPU VM: a team
// fill at every size slowed network_chain, whose gathers all fall below
// this cut-off (5 of 6 rounds); above it lie engine_sweep's largest
// cases, whose op_p95_ms the team fill cut from 71 to 59 ms (9 of 10
// pairs). serve_repeated_y's gathers are all under 4 096 rows.
constexpr std::size_t kParallelSizingRows = std::size_t{1} << 16;

}  // namespace

std::uint64_t reduce_thread_times(ContractResult& res,
                                  const std::vector<ThreadTimes>& times,
                                  int nthreads) {
  double search_s = 0, accumulate_s = 0, writeback_s = 0, sort_s = 0;
  std::uint64_t scanned = 0;
  std::size_t acc_peak_bytes = 0;
  std::size_t sort_scratch_bytes = 0;
  for (const ThreadTimes& tt : times) {
    search_s += tt.search;
    accumulate_s += tt.accumulate;
    writeback_s += tt.writeback;
    sort_s += tt.sort;
    res.stats.perf.at(Stage::kIndexSearch) += tt.search_perf;
    res.stats.perf.at(Stage::kAccumulation) += tt.accumulate_perf;
    res.stats.perf.at(Stage::kWriteback) += tt.writeback_perf;
    res.stats.perf.at(Stage::kOutputSorting) += tt.sort_perf;
    res.stats.searches += tt.searches;
    res.stats.hits += tt.hits;
    res.stats.multiplies += tt.multiplies;
    scanned += tt.scanned;
    acc_peak_bytes = std::max(acc_peak_bytes, tt.acc_peak_bytes);
    sort_scratch_bytes += tt.sort_scratch_bytes;
  }
  const auto nt = static_cast<double>(nthreads);
  res.stage_times[Stage::kIndexSearch] = search_s / nt;
  res.stage_times[Stage::kAccumulation] = accumulate_s / nt;
  res.stage_times[Stage::kWriteback] = writeback_s / nt;
  res.stage_times[Stage::kOutputSorting] = sort_s / nt;
  res.stats.hta_bytes = acc_peak_bytes * static_cast<std::size_t>(nthreads);
  res.stats.zlocal_bytes = sort_scratch_bytes;
  return scanned;
}

void gather_runs(ContractResult& res, std::vector<index_t> zdims,
                 const ZStaging& staging, int nthreads,
                 AllocationRegistry* reg, const CancelToken& cancel) {
  Timer t_gather;
  obs::Span sp_gather("gather");
  PerfScope pp_gather(sp_gather, res.stats.perf.at(Stage::kWriteback));
  const std::vector<ZRun>& runs = staging.runs;
  const std::size_t zorder = zdims.size();
  const std::size_t nfx = staging.nfx;
  const std::size_t nfy = zorder - nfx;
  const index_t* fy_dims = zdims.data() + nfx;

  // Row-major LN strides of Y's free modes (the keys' linearization).
  std::vector<lnkey_t> fy_strides(nfy, 1);
  for (std::size_t k = nfy; k-- > 1;) {
    fy_strides[k - 1] = fy_strides[k] * fy_dims[k];
  }

  // offsets[s] = Z row where sub-tensor s's run starts.
  std::vector<std::size_t> offsets(runs.size() + 1, 0);
  for (std::size_t s = 0; s < runs.size(); ++s) {
    offsets[s + 1] = offsets[s] + runs[s].count;
  }
  const std::size_t total = offsets.back();

  // Z's size is exact here; gate the gather arrays before allocating.
  ScopedCharge z_charge(reg, Tier::kDram, DataObject::kZ);
  z_charge.update(total * (zorder * sizeof(index_t) + sizeof(value_t)));

  // The calling thread allocates every array, whoever fills it: worker
  // threads would allocate from their own malloc arenas, which keep
  // freed pages and raise peak RSS.
  std::vector<std::vector<index_t>> zcols(zorder);
  std::vector<value_t> zvals;
  std::vector<index_t*> cols(zorder);
  zvals.reserve(total);
  for (auto& col : zcols) col.reserve(total);
  // Within capacity, resize() allocates nothing and cannot throw.
  auto size_array = [&](std::size_t a) {
    if (a == 0) {
      zvals.resize(total);
    } else {
      zcols[a - 1].resize(total);
      cols[a - 1] = zcols[a - 1].data();
    }
  };
  const bool team_fill = total >= kParallelSizingRows;
  if (!team_fill) {
    for (std::size_t a = 0; a <= zorder; ++a) size_array(a);
  }

  // Equal row chunks, not one task per run: the work stays balanced
  // when one sub-tensor holds most of Z (a single one when X has no
  // free modes).
  const auto nt = static_cast<std::size_t>(std::max(nthreads, 1));
  const std::size_t chunk_rows =
      std::max<std::size_t>(4096, (total + 8 * nt - 1) / (8 * nt));
  const auto num_chunks =
      static_cast<std::ptrdiff_t>((total + chunk_rows - 1) / chunk_rows);
  const auto num_arrays = static_cast<std::ptrdiff_t>(zorder + 1);
  ExceptionCollector ec;
  const obs::Correlation corr = obs::current_correlation();
#pragma omp parallel num_threads(nthreads)
  {
    obs::RequestIdScope rid_scope(corr);
    if (team_fill) {
      // One thread per array, so the zero fill and the page faults of a
      // large Z are spread over the team. The loop's closing barrier
      // publishes the sizes to the copy.
#pragma omp for schedule(dynamic, 1)
      for (std::ptrdiff_t a = 0; a < num_arrays; ++a) {
        size_array(static_cast<std::size_t>(a));
      }
    }
#pragma omp for schedule(static)
    for (std::ptrdiff_t c = 0; c < num_chunks; ++c) {
      ec.run([&] {
        cancel.check("contract.gather");
        std::size_t row = static_cast<std::size_t>(c) * chunk_rows;
        const std::size_t end = std::min(total, row + chunk_rows);
        // Z adopts the columns unchecked, so the bounds check is here:
        // every index written is compared with its mode's size.
        bool out_of_bounds = false;
        // The run holding `row`: the last one starting at or before it
        // (empty runs before it share its offset and are skipped).
        auto s = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), row) -
            offsets.begin() - 1);
        for (; row < end; ++s) {
          const std::size_t stop = std::min(end, offsets[s + 1]);
          if (stop == row) continue;
          const std::span<const index_t> fx = staging.fx(s);
          for (std::size_t k = 0; k < nfx; ++k) {
            out_of_bounds |= fx[k] >= zdims[k];
            std::fill_n(cols[k] + row, stop - row, fx[k]);
          }
          const ZRun& run = runs[s];
          const auto* pair = staging.zlocals[run.zlocal].data() + run.first +
                             (row - offsets[s]);
          for (; row < stop; ++row, ++pair) {
            lnkey_t key = pair->first;
            for (std::size_t k = 0; k + 1 < nfy; ++k) {
              const lnkey_t q = key / fy_strides[k];
              key -= q * fy_strides[k];
              out_of_bounds |= q >= fy_dims[k];
              cols[nfx + k][row] = static_cast<index_t>(q);
            }
            if (nfy > 0) {
              out_of_bounds |= key >= fy_dims[nfy - 1];
              cols[zorder - 1][row] = static_cast<index_t>(key);
            }
            zvals[row] = pair->second;
          }
        }
        SPARTA_CHECK(!out_of_bounds, "index out of bounds in column");
      });
    }
  }
  ec.rethrow();

  res.stats.zlocal_bytes += staging.footprint_bytes();
  res.z = SparseTensor::from_columns_unchecked(
      std::move(zdims), std::move(zcols), std::move(zvals));
  pp_gather.finish();
  sp_gather.finish();
  res.stage_times[Stage::kWriteback] += t_gather.seconds();
  res.stats.nnz_z = res.z.nnz();
  res.stats.z_bytes = res.z.footprint_bytes();
}

}  // namespace sparta::engine
