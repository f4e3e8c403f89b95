// Tests for common utilities: RNG, parallel sort, scan, timers, format.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace sparta {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.uniform(8)];
  for (int c : counts) {
    EXPECT_GT(c, 800);  // expectation 1000, generous slack
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(ParallelSort, SortsCorrectly) {
  Rng rng(5);
  std::vector<std::uint64_t> v(200'000);
  for (auto& x : v) x = rng();
  std::vector<std::uint64_t> expect = v;
  std::sort(expect.begin(), expect.end());
  parallel_sort(v.begin(), v.end(), std::less<>{});
  EXPECT_EQ(v, expect);
}

TEST(ParallelSort, HandlesManyDuplicates) {
  Rng rng(6);
  std::vector<int> v(100'000);
  for (auto& x : v) x = static_cast<int>(rng.uniform(4));
  parallel_sort(v.begin(), v.end(), std::less<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(ParallelSort, HandlesPresortedAndReversed) {
  std::vector<int> v(50'000);
  std::iota(v.begin(), v.end(), 0);
  parallel_sort(v.begin(), v.end(), std::less<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  std::reverse(v.begin(), v.end());
  parallel_sort(v.begin(), v.end(), std::less<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(ParallelSort, EmptyAndSingle) {
  std::vector<int> v;
  parallel_sort(v.begin(), v.end(), std::less<>{});
  v = {3};
  parallel_sort(v.begin(), v.end(), std::less<>{});
  EXPECT_EQ(v[0], 3);
}

TEST(Scan, ExclusivePrefixSum) {
  std::vector<int> in{3, 1, 4, 1, 5};
  std::vector<int> out;
  EXPECT_EQ(exclusive_scan(in, out), 14);
  EXPECT_EQ(out, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(Scan, AliasesInPlace) {
  std::vector<int> v{2, 2, 2};
  EXPECT_EQ(exclusive_scan(v, v), 6);
  EXPECT_EQ(v, (std::vector<int>{0, 2, 4}));
}

TEST(ThreadGuard, RestoresThreadCount) {
  const int before = max_threads();
  {
    ThreadCountGuard g(std::max(1, before - 1));
  }
  EXPECT_EQ(max_threads(), before);
}

TEST(StageTimesTest, TotalsAndFractions) {
  StageTimes t;
  t[Stage::kIndexSearch] = 3.0;
  t[Stage::kAccumulation] = 1.0;
  EXPECT_DOUBLE_EQ(t.total(), 4.0);
  EXPECT_DOUBLE_EQ(t.fraction(Stage::kIndexSearch), 0.75);
  StageTimes u;
  u[Stage::kWriteback] = 2.0;
  t += u;
  EXPECT_DOUBLE_EQ(t.total(), 6.0);
}

TEST(StageTimesTest, FractionOfEmptyIsZero) {
  StageTimes t;
  EXPECT_DOUBLE_EQ(t.fraction(Stage::kIndexSearch), 0.0);
}

TEST(StageNames, AreDistinct) {
  for (int a = 0; a < kNumStages; ++a) {
    for (int b = a + 1; b < kNumStages; ++b) {
      EXPECT_NE(stage_name(static_cast<Stage>(a)),
                stage_name(static_cast<Stage>(b)));
    }
  }
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(3ull << 30), "3.00 GB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.5), "2.50 s");
  EXPECT_EQ(format_seconds(0.002), "2.0 ms");
  EXPECT_EQ(format_seconds(2e-6), "2.0 us");
  EXPECT_EQ(format_seconds(5e-9), "5.0 ns");
}

TEST(Timer, MeasuresForward) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100'000; ++i) sink = sink + i;
  EXPECT_GT(t.nanos(), 0);
  const double s1 = t.seconds();
  EXPECT_GE(t.seconds(), s1);
}

// team_size: one thread below the cutoff, else every thread asked for
// (the ambient count for 0), never a count in between.
TEST(Parallel, TeamSizeIsOneOrAll) {
  EXPECT_EQ(team_size(0, 4), 1);
  EXPECT_EQ(team_size(kParallelMinItems - 1, 4), 1);
  EXPECT_EQ(team_size(kParallelMinItems, 4), 4);
  EXPECT_EQ(team_size(kParallelMinItems, 3), 3);
  EXPECT_EQ(team_size(100 * kParallelMinItems, 1), 1);
  EXPECT_EQ(team_size(kParallelMinItems, 0), max_threads());
}

}  // namespace
}  // namespace sparta
