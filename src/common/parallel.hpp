// OpenMP helpers used across the library.
//
// The paper parallelizes all five SpTC stages with OpenMP: parallel-for
// over sub-tensors for the computation stages and task-based quicksort
// for the sorting stages (§3.5). These wrappers keep the OpenMP surface
// in one place and degrade gracefully when built without OpenMP.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/cancel.hpp"
#include "obs/trace.hpp"

namespace sparta {

/// Exception-safe OpenMP region wrapper. An exception escaping an
/// `omp parallel` (or task) boundary calls std::terminate, so every
/// parallel region in the library funnels its per-iteration work through
/// one of these: the first exception is captured, the remaining
/// iterations become no-ops, the region joins normally, and the caller
/// rethrows on the spawning thread.
///
///   ExceptionCollector ec;
///   #pragma omp parallel
///   {
///   #pragma omp for
///     for (...) ec.run([&] { work(i); });
///   }
///   ec.rethrow();
class ExceptionCollector {
 public:
  /// Invokes `f`, capturing any exception. Iterations after a failure
  /// are skipped so a poisoned region drains quickly.
  template <typename F>
  void run(F&& f) noexcept {
    if (failed_.load(std::memory_order_relaxed)) return;
    try {
      f();
    } catch (...) {
      capture();
    }
  }

  /// Records the in-flight exception (first one wins). Only call from a
  /// catch block.
  void capture() noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    if (!eptr_) eptr_ = std::current_exception();
    failed_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Rethrows the captured exception, if any. Call after the region.
  void rethrow() {
    if (eptr_) std::rethrow_exception(eptr_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr eptr_;
  std::atomic<bool> failed_{false};
};

/// Number of OpenMP threads a parallel region would use.
[[nodiscard]] inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Calling thread's index inside a parallel region (0 outside).
[[nodiscard]] inline int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Sets the global OpenMP thread count; no-op without OpenMP.
inline void set_num_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Chunk size for `schedule(dynamic, chunk)` over `n` sub-tensors on
/// `nthreads` threads: 16 when there is plenty of work, shrinking so
/// every thread can take about 64 chunks, never below 1. A fixed 16
/// hands every sub-tensor to one thread when there are 16 or fewer. The
/// join waits for the last chunk to finish, so a thread slowed by a
/// busy CPU delays the loop by up to one of its chunks: many small
/// chunks keep that delay a small share of the loop.
[[nodiscard]] inline std::ptrdiff_t subtensor_chunk(std::ptrdiff_t n,
                                                    int nthreads) {
  return std::clamp<std::ptrdiff_t>(
      n / (64 * std::max<std::ptrdiff_t>(nthreads, 1)), 1, 16);
}

/// Items below which a parallel pass over memory (a key pass, a sort,
/// a gather) costs more on a team than it saves. Measured on a 4-vCPU
/// VM, key pass + team radix sort + gather of 16-byte pairs with 32-bit
/// keys (medians of 41): 4 threads lost at 2^13 items (236 vs 174 us),
/// broke even at 2^14 (546 vs 574 us) and won at 3 x 2^13 (746 vs
/// 878 us).
inline constexpr std::size_t kParallelMinItems = std::size_t{3} << 13;

/// Threads for one parallel pass over `n` items: one below
/// kParallelMinItems, else `nthreads` (OpenMP's default when 0 or
/// less). Never a count in between: libgomp ends and starts pool
/// threads whenever consecutive regions ask for different counts
/// (regions alternating 4 and 3 threads started a new OS thread per
/// region), so every region of a call asks for the same one.
[[nodiscard]] inline int team_size(std::size_t n, int nthreads) {
  if (n < kParallelMinItems) return 1;
  return std::max(nthreads > 0 ? nthreads : max_threads(), 1);
}

/// RAII guard that overrides the OpenMP thread count and restores the
/// previous value on destruction. Used by benchmarks sweeping threads.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : previous_(max_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(previous_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int previous_;
};

namespace detail {

// Below this size a sequential sort beats task spawning.
inline constexpr std::ptrdiff_t kParallelSortCutoff = 1 << 14;

template <typename It, typename Cmp>
void quicksort_task(It first, It last, const Cmp& cmp, int depth,
                    ExceptionCollector& ec, const CancelToken& cancel,
                    obs::Correlation corr = {}) {
  if (ec.failed()) return;
  // Tasks run on arbitrary pooled threads: re-establish the submitting
  // thread's correlation so a cancel instant fired here is attributed
  // to the right request (and plan step), not whatever the thread ran
  // last.
  obs::RequestIdScope rid_scope(corr);
  // One cancel poll per partition task — each task touches at most
  // one kParallelSortCutoff-sized range before re-checking.
  cancel.check("sort.partition");
  while (last - first > kParallelSortCutoff && depth > 0) {
    // Median-of-three pivot to dodge pathological splits on sorted input.
    It mid = first + (last - first) / 2;
    if (cmp(*mid, *first)) std::iter_swap(first, mid);
    if (cmp(*(last - 1), *first)) std::iter_swap(first, last - 1);
    if (cmp(*(last - 1), *mid)) std::iter_swap(mid, last - 1);
    auto pivot = *mid;
    It split = std::partition(
        first, last, [&](const auto& v) { return cmp(v, pivot); });
    // Guard against zero-progress partitions on many-duplicate inputs.
    if (split == first) {
      split = std::partition(
          first, last, [&](const auto& v) { return !cmp(pivot, v); });
      first = split;
      continue;
    }
#ifdef _OPENMP
#pragma omp task firstprivate(first, split, depth, corr) \
    shared(cmp, ec, cancel)
    ec.run([&] {
      quicksort_task(first, split, cmp, depth - 1, ec, cancel, corr);
    });
#else
    quicksort_task(first, split, cmp, depth - 1, ec, cancel, corr);
#endif
    first = split;
    --depth;
  }
  std::sort(first, last, cmp);
}

}  // namespace detail

/// Parallel quicksort using OpenMP tasks (the paper's approach for the
/// input-processing and output-sorting stages). A comparator (or pivot
/// copy) that throws is rethrown on the calling thread, never across the
/// task/region boundary. `cancel` is polled once per partition task
/// (Cancelled unwinds the same way); an inert token costs one pointer
/// test per task.
template <typename It, typename Cmp>
void parallel_sort(It first, It last, Cmp cmp,
                   const CancelToken& cancel = {}) {
  if (last - first <= detail::kParallelSortCutoff) {
    cancel.check("sort.partition");
    std::sort(first, last, cmp);
    return;
  }
  ExceptionCollector ec;
  const obs::Correlation corr = obs::current_correlation();
#ifdef _OPENMP
#pragma omp parallel
#pragma omp single nowait
  ec.run([&] {
    detail::quicksort_task(first, last, cmp, /*depth=*/16, ec, cancel, corr);
  });
#else
  ec.run([&] {
    detail::quicksort_task(first, last, cmp, 16, ec, cancel, corr);
  });
#endif
  ec.rethrow();
}

/// Exclusive prefix sum: out[i] = sum of in[0..i). Returns the grand total.
/// `out` may alias `in`.
template <typename T>
T exclusive_scan(const std::vector<T>& in, std::vector<T>& out) {
  out.resize(in.size());
  T running{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    const T v = in[i];
    out[i] = running;
    running += v;
  }
  return running;
}

}  // namespace sparta
