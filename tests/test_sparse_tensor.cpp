// Unit tests for the COO SparseTensor container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "tensor/sparse_tensor.hpp"

namespace sparta {
namespace {

SparseTensor small_tensor() {
  SparseTensor t({4, 3, 5});
  t.append(std::vector<index_t>{3, 2, 4}, 1.0);
  t.append(std::vector<index_t>{0, 1, 0}, 2.0);
  t.append(std::vector<index_t>{0, 0, 1}, 3.0);
  t.append(std::vector<index_t>{3, 2, 0}, 4.0);
  return t;
}

TEST(SparseTensor, ShapeAndCounts) {
  const SparseTensor t = small_tensor();
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 4u);
  EXPECT_EQ(t.dim(0), 4u);
  EXPECT_EQ(t.dim(2), 5u);
  EXPECT_DOUBLE_EQ(t.density(), 4.0 / (4 * 3 * 5));
}

TEST(SparseTensor, RejectsOutOfBoundsAppend) {
  SparseTensor t({2, 2});
  EXPECT_THROW(t.append(std::vector<index_t>{2, 0}, 1.0), Error);
  EXPECT_THROW(t.append(std::vector<index_t>{0}, 1.0), Error);
}

TEST(SparseTensor, RejectsZeroSizedMode) {
  EXPECT_THROW(SparseTensor({3, 0}), Error);
}

TEST(SparseTensor, SortOrdersLexicographically) {
  SparseTensor t = small_tensor();
  EXPECT_FALSE(t.is_sorted());
  t.sort();
  EXPECT_TRUE(t.is_sorted());
  // First element should now be (0,0,1) -> 3.0.
  EXPECT_EQ(t.index(0, 0), 0u);
  EXPECT_EQ(t.index(0, 1), 0u);
  EXPECT_EQ(t.index(0, 2), 1u);
  EXPECT_DOUBLE_EQ(t.value(0), 3.0);
  // Last element should be (3,2,4) -> 1.0.
  EXPECT_EQ(t.index(3, 2), 4u);
  EXPECT_DOUBLE_EQ(t.value(3), 1.0);
}

TEST(SparseTensor, SortKeepsCoordValuePairsTogether) {
  Rng rng(123);
  SparseTensor t({50, 50});
  std::vector<index_t> c(2);
  for (int i = 0; i < 500; ++i) {
    c[0] = static_cast<index_t>(rng.uniform(50));
    c[1] = static_cast<index_t>(rng.uniform(50));
    // Encode the coordinate into the value so pairing is verifiable.
    t.append(c, static_cast<double>(c[0] * 1000 + c[1]));
  }
  t.sort();
  for (std::size_t n = 0; n < t.nnz(); ++n) {
    EXPECT_DOUBLE_EQ(t.value(n),
                     static_cast<double>(t.index(n, 0) * 1000 + t.index(n, 1)));
  }
}

TEST(SparseTensor, PermuteModesSwapsColumnsCheaply) {
  SparseTensor t = small_tensor();
  t.permute_modes({2, 0, 1});
  EXPECT_EQ(t.dim(0), 5u);
  EXPECT_EQ(t.dim(1), 4u);
  EXPECT_EQ(t.dim(2), 3u);
  // (3,2,4) becomes (4,3,2).
  EXPECT_EQ(t.index(0, 0), 4u);
  EXPECT_EQ(t.index(0, 1), 3u);
  EXPECT_EQ(t.index(0, 2), 2u);
}

TEST(SparseTensor, PermuteRejectsBadPermutations) {
  SparseTensor t = small_tensor();
  EXPECT_THROW(t.permute_modes({0, 0, 1}), Error);
  EXPECT_THROW(t.permute_modes({0, 1}), Error);
  EXPECT_THROW(t.permute_modes({0, 1, 3}), Error);
}

TEST(SparseTensor, PermuteRoundTripIsIdentity) {
  SparseTensor t = small_tensor();
  const SparseTensor orig = t;
  t.permute_modes({1, 2, 0});
  t.permute_modes({2, 0, 1});  // inverse
  EXPECT_TRUE(SparseTensor::approx_equal(orig, t));
}

TEST(SparseTensor, CoalesceMergesDuplicates) {
  SparseTensor t({3, 3});
  t.append(std::vector<index_t>{1, 1}, 2.0);
  t.append(std::vector<index_t>{1, 1}, 3.0);
  t.append(std::vector<index_t>{0, 2}, 1.0);
  t.coalesce();
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_DOUBLE_EQ(t.value(1), 5.0);  // sorted: (0,2) then (1,1)
}

TEST(SparseTensor, CoalesceDropsCancellations) {
  SparseTensor t({3, 3});
  t.append(std::vector<index_t>{1, 1}, 2.0);
  t.append(std::vector<index_t>{1, 1}, -2.0);
  t.append(std::vector<index_t>{2, 0}, 1.0);
  t.coalesce();
  EXPECT_EQ(t.nnz(), 1u);
  EXPECT_EQ(t.index(0, 0), 2u);
}

TEST(SparseTensor, ApproxEqualIgnoresElementOrder) {
  SparseTensor a({3, 3});
  a.append(std::vector<index_t>{0, 1}, 1.0);
  a.append(std::vector<index_t>{2, 2}, 2.0);
  SparseTensor b({3, 3});
  b.append(std::vector<index_t>{2, 2}, 2.0);
  b.append(std::vector<index_t>{0, 1}, 1.0);
  EXPECT_TRUE(SparseTensor::approx_equal(a, b));
}

TEST(SparseTensor, ApproxEqualDetectsDifferences) {
  SparseTensor a({3, 3});
  a.append(std::vector<index_t>{0, 1}, 1.0);
  SparseTensor b({3, 3});
  b.append(std::vector<index_t>{0, 1}, 1.0 + 1e-3);
  EXPECT_FALSE(SparseTensor::approx_equal(a, b));
  SparseTensor c({3, 4});
  c.append(std::vector<index_t>{0, 1}, 1.0);
  EXPECT_FALSE(SparseTensor::approx_equal(a, c));  // different shape
}

TEST(SparseTensor, ApproxEqualToleratesTinyError) {
  SparseTensor a({3, 3});
  a.append(std::vector<index_t>{0, 1}, 1.0);
  SparseTensor b({3, 3});
  b.append(std::vector<index_t>{0, 1}, 1.0 + 1e-12);
  EXPECT_TRUE(SparseTensor::approx_equal(a, b));
}

TEST(SparseTensor, FromColumnsValidates) {
  std::vector<std::vector<index_t>> cols{{0, 1}, {2, 0}};
  std::vector<value_t> vals{1.0, 2.0};
  const SparseTensor t =
      SparseTensor::from_columns({2, 3}, cols, vals);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.index(0, 1), 2u);

  std::vector<std::vector<index_t>> bad_len{{0, 1}, {2}};
  EXPECT_THROW(
      SparseTensor::from_columns({2, 3}, bad_len, vals), Error);
  std::vector<std::vector<index_t>> oob{{0, 5}, {2, 0}};
  EXPECT_THROW(SparseTensor::from_columns({2, 3}, oob, vals), Error);
}

TEST(SparseTensor, SortLargeRandomIsStableUnderLnPath) {
  // Exercises the LN fast path (dims product < 2^64) on a bigger input.
  Rng rng(7);
  SparseTensor t({200, 200, 200});
  std::vector<index_t> c(3);
  for (int i = 0; i < 50'000; ++i) {
    for (auto& v : c) v = static_cast<index_t>(rng.uniform(200));
    t.append_unchecked(c, 1.0);
  }
  t.sort();
  EXPECT_TRUE(t.is_sorted());
  EXPECT_EQ(t.nnz(), 50'000u);
}

TEST(SparseTensor, SummaryMentionsShapeAndNnz) {
  const SparseTensor t = small_tensor();
  const std::string s = t.summary();
  EXPECT_NE(s.find("order-3"), std::string::npos);
  EXPECT_NE(s.find("4x3x5"), std::string::npos);
  EXPECT_NE(s.find("nnz=4"), std::string::npos);
}

TEST(SparseTensor, EmptyTensorBehaves) {
  SparseTensor t({5, 5});
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.is_sorted());
  t.sort();
  t.coalesce();
  EXPECT_EQ(t.nnz(), 0u);
}

// --- sorted_permuted_copy: the fused sorted copy ----------------------

// Random coordinates drawn with replacement, so duplicates occur.
SparseTensor random_with_duplicates(std::vector<index_t> dims,
                                    std::size_t nnz, std::uint64_t seed) {
  SparseTensor t(dims);
  Rng rng(seed);
  std::vector<index_t> c(dims.size());
  for (std::size_t i = 0; i < nnz; ++i) {
    for (std::size_t m = 0; m < dims.size(); ++m) {
      c[m] = static_cast<index_t>(rng.uniform(dims[m]));
    }
    t.append_unchecked(c, rng.uniform_double(-1.0, 1.0));
  }
  return t;
}

// The unfused steps, with a stable lexicographic sort: equal
// coordinates keep their input order, which is exactly what a stable
// sort by LN key yields.
SortedCopy unfused_copy(const SparseTensor& t, const Modes& order,
                        std::size_t prefix_modes) {
  SparseTensor p = t;
  p.permute_modes(order);
  std::vector<std::size_t> perm(p.nnz());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    for (int m = 0; m < p.order(); ++m) {
      if (p.index(a, m) != p.index(b, m)) return p.index(a, m) < p.index(b, m);
    }
    return false;
  });
  SortedCopy out;
  out.t = SparseTensor(p.dims());
  std::vector<index_t> c(static_cast<std::size_t>(p.order()));
  for (std::size_t i : perm) {
    p.coords(i, c);
    out.t.append_unchecked(c, p.value(i));
  }
  out.prefix_starts.push_back(0);
  for (std::size_t i = 1; i < out.t.nnz(); ++i) {
    for (std::size_t m = 0; m < prefix_modes; ++m) {
      if (out.t.index(i - 1, static_cast<int>(m)) !=
          out.t.index(i, static_cast<int>(m))) {
        out.prefix_starts.push_back(i);
        break;
      }
    }
  }
  if (out.t.nnz() > 0) out.prefix_starts.push_back(out.t.nnz());
  return out;
}

void expect_bitwise_equal(const SortedCopy& got, const SortedCopy& want,
                          const std::string& what) {
  ASSERT_EQ(got.t.dims(), want.t.dims()) << what;
  ASSERT_EQ(got.t.nnz(), want.t.nnz()) << what;
  for (int m = 0; m < got.t.order(); ++m) {
    const auto a = got.t.mode_indices(m);
    const auto b = want.t.mode_indices(m);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << what << ", mode " << m;
  }
  const auto a = got.t.values();
  const auto b = want.t.values();
  if (!a.empty()) {  // memcmp takes no null pointer, even for 0 bytes
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)),
              0)
        << what;
  }
  EXPECT_EQ(got.prefix_starts, want.prefix_starts) << what;
}

// Every mode order and prefix length, on one thread and on a team (the
// 70 000-row tensor is above the team cutoff), with duplicates.
TEST(SortedPermutedCopy, MatchesCopyPermuteSortScan) {
  for (const std::size_t nnz : {0ul, 1ul, 700ul, 70'000ul}) {
    const SparseTensor t = random_with_duplicates({30, 7, 20}, nnz, nnz + 1);
    Modes order{0, 1, 2};
    do {
      for (std::size_t prefix = 0; prefix <= 3; ++prefix) {
        const SortedCopy want = unfused_copy(t, order, prefix);
        for (const int threads : {1, 4}) {
          expect_bitwise_equal(
              sorted_permuted_copy(t, order, prefix, threads, CancelToken{},
                                   "test"),
              want,
              "nnz " + std::to_string(nnz) + ", order " +
                  std::to_string(order[0]) + std::to_string(order[1]) +
                  std::to_string(order[2]) + ", prefix " +
                  std::to_string(prefix) + ", " + std::to_string(threads) +
                  " threads");
        }
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// A key space over 64 bits takes the comparison-sort fallback, which is
// the unfused steps themselves.
TEST(SortedPermutedCopy, WideKeySpaceFallsBackToComparisonSort) {
  const std::vector<index_t> dims{index_t{1} << 30, 3, index_t{1} << 30,
                                  index_t{1} << 10};
  const SparseTensor t = random_with_duplicates(dims, 3000, 5);
  // Duplicates, since mode 1 has three values and the rest are few.
  SparseTensor few(dims);
  for (std::size_t i = 0; i < t.nnz(); ++i) {
    const index_t c[] = {t.index(i, 0) % 5, t.index(i, 1), t.index(i, 2) % 4,
                         t.index(i, 3) % 3};
    few.append(c, t.value(i));
  }
  const Modes order{2, 1, 3, 0};
  SortedCopy want;
  want.t = few;
  want.t.permute_modes(order);
  want.t.sort();
  want.prefix_starts = unfused_copy(few, order, 2).prefix_starts;
  for (const int threads : {1, 4}) {
    const SortedCopy got =
        sorted_permuted_copy(few, order, 2, threads, CancelToken{}, "test");
    expect_bitwise_equal(got, want, std::to_string(threads) + " threads");
    EXPECT_TRUE(got.t.is_sorted());
  }
}

// `t`'s rows reordered so that the copy in `order` finds them sorted:
// t's modes stay where they are.
SparseTensor presorted_for(const SparseTensor& t, const Modes& order) {
  SparseTensor s = unfused_copy(t, order, 0).t;
  Modes inverse(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    inverse[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  s.permute_modes(inverse);
  return s;
}

// `t` with row `i` set to coordinates `c` (unpermuted modes).
SparseTensor with_row(const SparseTensor& t, std::size_t i,
                      const std::vector<index_t>& c) {
  std::vector<std::vector<index_t>> cols;
  for (int m = 0; m < t.order(); ++m) {
    const auto col = t.mode_indices(m);
    cols.emplace_back(col.begin(), col.end());
    cols.back()[i] = c[static_cast<std::size_t>(m)];
  }
  return SparseTensor::from_columns(
      t.dims(), std::move(cols),
      std::vector<value_t>(t.values().begin(), t.values().end()));
}

// Rows already in the requested order take the scan, not the sort; the
// copy must not differ by a bit, duplicates and sizes 0 and 1 included.
// A descent in the last row sends the scan on to the sort.
TEST(SortedPermutedCopy, PresortedInputMatchesTheSortedCopy) {
  for (const std::size_t nnz : {0ul, 1ul, 700ul, 70'000ul}) {
    const SparseTensor t = random_with_duplicates({30, 7, 20}, nnz, nnz + 7);
    Modes order{0, 1, 2};
    do {
      const SparseTensor sorted = presorted_for(t, order);
      // The smallest coordinates in the last row: one descent, at the
      // end (unless the rows before it are all that small too).
      const SparseTensor late =
          nnz > 1 ? with_row(sorted, nnz - 1, {0, 0, 0}) : sorted;
      for (std::size_t prefix = 0; prefix <= 3; ++prefix) {
        for (const SparseTensor* in : {&sorted, &late}) {
          const SortedCopy want = unfused_copy(*in, order, prefix);
          for (const int threads : {1, 4}) {
            expect_bitwise_equal(
                sorted_permuted_copy(*in, order, prefix, threads,
                                     CancelToken{}, "test"),
                want,
                std::string(in == &sorted ? "presorted" : "late descent") +
                    ", nnz " + std::to_string(nnz) + ", order " +
                    std::to_string(order[0]) + std::to_string(order[1]) +
                    std::to_string(order[2]) + ", prefix " +
                    std::to_string(prefix) + ", " +
                    std::to_string(threads) + " threads");
          }
        }
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// The scan polls like the key pass, once per 4 096-row block, and the
// key pass skips what the scan polled: a call hits its failpoint once
// per block whether it scans, sorts, or scans and then sorts.
TEST(SortedPermutedCopy, FailpointHitsOncePerBlockOnEveryPath) {
  const Modes order{1, 0};
  for (const std::size_t nnz : {0ul, 1ul, 4096ul, 4097ul, 9000ul}) {
    const SparseTensor t = random_with_duplicates({300, 70}, nnz, nnz + 3);
    const SparseTensor sorted = presorted_for(t, order);
    // The largest coordinates at row 5 000: a descent inside block 1.
    const SparseTensor half =
        nnz > 6000 ? with_row(sorted, 5000, {299, 69}) : sorted;
    for (const SparseTensor* in : {&t, &sorted, &half}) {
      for (const int threads : {1, 4}) {
        failpoint::arm("test.site", {failpoint::Action::kError,
                                     std::uint64_t{1} << 40, 1});
        (void)sorted_permuted_copy(*in, order, 1, threads, CancelToken{},
                                   "test.site");
        EXPECT_EQ(failpoint::hit_count("test.site"), (nnz + 4095) / 4096)
            << "nnz " << nnz << ", " << threads << " threads";
        failpoint::disarm_all();
      }
    }
  }
}

TEST(SortedPermutedCopy, RejectsBadPermutations) {
  const SparseTensor t = small_tensor();
  EXPECT_THROW((void)sorted_permuted_copy(t, {0, 1}, 0, 1, {}, "test"),
               Error);
  EXPECT_THROW((void)sorted_permuted_copy(t, {0, 0, 1}, 0, 1, {}, "test"),
               Error);
  EXPECT_THROW((void)sorted_permuted_copy(t, {0, 1, 3}, 0, 1, {}, "test"),
               Error);
  EXPECT_THROW((void)sorted_permuted_copy(t, {0, 1, 2}, 4, 1, {}, "test"),
               Error);
}

}  // namespace
}  // namespace sparta
