// Google-benchmark microbenchmarks of the core data structures: the
// LN-keyed hash probes that replace multi-dimensional search, and the
// hash accumulator that replaces the SPA's linear scan.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hashtable/spa.hpp"
#include "contraction/plan.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"
#include "tensor/hicoo.hpp"
#include "tensor/linearize.hpp"

namespace sparta {
namespace {

// --- index search: HtY probe vs COO linear scan ------------------------

void BM_HtyProbe(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<lnkey_t> keys(n);
  for (auto& k : keys) k = rng();
  const simd::SwissYMap m(
      group_by_key(n, 64, 1, {},
                   [&](std::size_t b, std::size_t e,
                       simd::KeyPos* pos,
                       FreeItem* items) {
                     for (std::size_t i = b; i < e; ++i) {
                       pos[i] = {keys[i], static_cast<std::uint32_t>(i)};
                       items[i] = {i, 1.0};
                     }
                   }));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.find(keys[i]));
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HtyProbe)->Range(1 << 10, 1 << 18);

void BM_CooLinearScan(benchmark::State& state) {
  // Linear scan over a sorted key column to a random target — the
  // SpTC-SPA index search cost.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<index_t> col(n);
  for (std::size_t i = 0; i < n; ++i) col[i] = static_cast<index_t>(i);
  Rng rng(2);
  for (auto _ : state) {
    const index_t target = static_cast<index_t>(rng.uniform(n));
    std::size_t i = 0;
    while (i < n && col[i] < target) ++i;
    benchmark::DoNotOptimize(i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CooLinearScan)->Range(1 << 10, 1 << 18);

// --- accumulation: HtA vs SPA ------------------------------------------

void BM_HtaAccumulate(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  simd::SwissAccumulator acc(distinct);
  for (auto _ : state) {
    acc.accumulate(rng.uniform(distinct), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HtaAccumulate)->Range(64, 1 << 14);

void BM_SpaAccumulate(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  SpaAccumulator acc(2);
  std::vector<index_t> key(2);
  std::size_t inserted = 0;
  for (auto _ : state) {
    const auto k = rng.uniform(distinct);
    key[0] = static_cast<index_t>(k / 128);
    key[1] = static_cast<index_t>(k % 128);
    acc.accumulate(key, 1.0);
    if (++inserted == distinct) {  // bound |SPA| like a sub-tensor reset
      acc.clear();
      inserted = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaAccumulate)->Range(64, 1 << 14);

// --- LN linearization ----------------------------------------------------

void BM_Linearize(benchmark::State& state) {
  LinearIndexer lin({1650, 1100, 2, 100, 89});
  Rng rng(5);
  std::vector<index_t> c(5);
  for (auto _ : state) {
    for (std::size_t m = 0; m < 5; ++m) {
      c[m] = static_cast<index_t>(rng.uniform(lin.dims()[m]));
    }
    benchmark::DoNotOptimize(lin.linearize(c));
  }
}
BENCHMARK(BM_Linearize);

// Tuple comparison — what key matching costs WITHOUT the LN compression.
void BM_TupleCompare(benchmark::State& state) {
  Rng rng(6);
  std::vector<index_t> a(5), b(5);
  for (std::size_t m = 0; m < 5; ++m) {
    a[m] = static_cast<index_t>(rng.uniform(1000));
    b[m] = a[m];
  }
  for (auto _ : state) {
    bool eq = true;
    for (std::size_t m = 0; m < 5; ++m) {
      if (a[m] != b[m]) {
        eq = false;
        break;
      }
    }
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_TupleCompare);


// --- tensor container operations ----------------------------------------

void BM_TensorSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GeneratorSpec spec;
  spec.dims = {2000, 2000, 2000};
  spec.nnz = n;
  spec.seed = 11;
  const SparseTensor base = generate_random(spec);
  // Shuffle so each iteration sorts real work.
  for (auto _ : state) {
    state.PauseTiming();
    SparseTensor t = base;
    t.permute_modes({2, 0, 1});  // breaks sortedness cheaply
    state.ResumeTiming();
    t.sort();
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TensorSort)->Range(1 << 14, 1 << 18);

void BM_CsfBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GeneratorSpec spec;
  spec.dims = {300, 300, 300};
  spec.nnz = n;
  spec.seed = 12;
  const SparseTensor t = generate_random(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsfTensor::from_sorted(t).nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CsfBuild)->Range(1 << 14, 1 << 17);

void BM_HicooBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GeneratorSpec spec;
  spec.dims = {300, 300, 300};
  spec.nnz = n;
  spec.seed = 13;
  const SparseTensor t = generate_random(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HicooTensor::from_coo(t).nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HicooBuild)->Range(1 << 14, 1 << 17);

// The whole HtY build through YPlan: parallel key pass, radix sort by
// contract key, run gather and index. Args: nnz, threads.
void BM_YPlanBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  GeneratorSpec spec;
  spec.dims = {500, 400, 300};
  spec.nnz = n;
  spec.seed = 14;
  const SparseTensor y = generate_random(spec);
  for (auto _ : state) {
    const YPlan plan(y, {0, 1}, threads);
    benchmark::DoNotOptimize(plan.num_keys());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_YPlanBuild)
    ->ArgNames({"nnz", "threads"})
    ->ArgsProduct({{1 << 14, 1 << 17}, {1, 4}});

}  // namespace
}  // namespace sparta

// Custom main instead of BENCHMARK_MAIN(): translates the repo-wide
// --smoke flag into a minimal measurement time so the CI bitrot sweep
// can run every registered benchmark once, fast.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char min_time[] = "--benchmark_min_time=0.001";
  const auto smoke =
      std::remove_if(args.begin(), args.end(),
                     [](char* a) { return std::strcmp(a, "--smoke") == 0; });
  if (smoke != args.end()) {
    args.erase(smoke, args.end());
    args.push_back(min_time);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
