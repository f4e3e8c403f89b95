// Correctness tests for the three SpTC algorithms against independent
// oracles (dense contraction and brute-force sparse pairing).
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "contraction/contract.hpp"
#include "contraction/contract_csf.hpp"
#include "contraction/plan.hpp"
#include "contraction/reference.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

constexpr Algorithm kAll[] = {Algorithm::kSpa, Algorithm::kCooHta,
                              Algorithm::kSparta};

SparseTensor random_tensor(std::vector<index_t> dims, std::size_t nnz,
                           std::uint64_t seed) {
  GeneratorSpec spec;
  spec.dims = std::move(dims);
  spec.nnz = nnz;
  spec.seed = seed;
  return generate_random(spec);
}

// --- Hand-checked example -------------------------------------------

TEST(Contract, Figure1WalkThrough) {
  SparseTensor x({2, 2, 2, 2});
  x.append(std::vector<index_t>{0, 1, 0, 0}, 2.0);
  SparseTensor y({2, 2, 2, 4});
  y.append(std::vector<index_t>{0, 0, 0, 3}, 4.0);

  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    const SparseTensor z = contract_tensor(x, y, {2, 3}, {0, 1}, o);
    ASSERT_EQ(z.nnz(), 1u) << algorithm_name(alg);
    std::vector<index_t> c(4);
    z.coords(0, c);
    EXPECT_EQ(c, (std::vector<index_t>{0, 1, 0, 3}));
    EXPECT_DOUBLE_EQ(z.value(0), 8.0);
  }
}

TEST(Contract, MatrixMultiplyIsSpecialCase) {
  // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
  SparseTensor a({2, 2});
  a.append(std::vector<index_t>{0, 0}, 1.0);
  a.append(std::vector<index_t>{0, 1}, 2.0);
  a.append(std::vector<index_t>{1, 0}, 3.0);
  a.append(std::vector<index_t>{1, 1}, 4.0);
  SparseTensor b({2, 2});
  b.append(std::vector<index_t>{0, 0}, 5.0);
  b.append(std::vector<index_t>{0, 1}, 6.0);
  b.append(std::vector<index_t>{1, 0}, 7.0);
  b.append(std::vector<index_t>{1, 1}, 8.0);

  const double expect[2][2] = {{19, 22}, {43, 50}};
  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    const SparseTensor z = contract_tensor(a, b, {1}, {0}, o);
    ASSERT_EQ(z.nnz(), 4u);
    std::vector<index_t> c(2);
    for (std::size_t n = 0; n < z.nnz(); ++n) {
      z.coords(n, c);
      EXPECT_DOUBLE_EQ(z.value(n), expect[c[0]][c[1]])
          << algorithm_name(alg);
    }
  }
}

// --- Validation ------------------------------------------------------

TEST(Contract, RejectsAridityMismatch) {
  const SparseTensor x = random_tensor({4, 4}, 4, 1);
  const SparseTensor y = random_tensor({4, 4}, 4, 2);
  EXPECT_THROW((void)contract(x, y, {0, 1}, {0}, {}), Error);
  EXPECT_THROW((void)contract(x, y, {}, {}, {}), Error);
}

TEST(Contract, RejectsSizeMismatch) {
  const SparseTensor x = random_tensor({4, 5}, 4, 1);
  const SparseTensor y = random_tensor({6, 3}, 4, 2);
  EXPECT_THROW((void)contract(x, y, {1}, {0}, {}), Error);
}

TEST(Contract, RejectsDuplicateAndOutOfRangeModes) {
  const SparseTensor x = random_tensor({4, 4, 4}, 4, 1);
  const SparseTensor y = random_tensor({4, 4, 4}, 4, 2);
  EXPECT_THROW((void)contract(x, y, {0, 0}, {0, 1}, {}), Error);
  EXPECT_THROW((void)contract(x, y, {3}, {0}, {}), Error);
  EXPECT_THROW((void)contract(x, y, {-1}, {0}, {}), Error);
}

TEST(Contract, RejectsFullContractionToScalar) {
  const SparseTensor x = random_tensor({4, 4}, 4, 1);
  const SparseTensor y = random_tensor({4, 4}, 4, 2);
  EXPECT_THROW((void)contract(x, y, {0, 1}, {0, 1}, {}), Error);
}

TEST(Contract, EmptyOperandsGiveEmptyOutput) {
  const SparseTensor x(std::vector<index_t>{4, 4});
  const SparseTensor y = random_tensor({4, 4}, 4, 2);
  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    const ContractResult r = contract(x, y, {1}, {0}, o);
    EXPECT_EQ(r.z.nnz(), 0u);
    EXPECT_EQ(r.z.order(), 2);
  }
}

TEST(Contract, DisjointContractIndicesGiveEmptyOutput) {
  SparseTensor x({4, 4});
  x.append(std::vector<index_t>{0, 0}, 1.0);
  SparseTensor y({4, 4});
  y.append(std::vector<index_t>{3, 3}, 1.0);
  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    EXPECT_EQ(contract_tensor(x, y, {1}, {0}, o).nnz(), 0u);
  }
}

// --- Oracle sweeps (parameterized) -----------------------------------

struct OracleCase {
  std::string name;
  std::vector<index_t> xdims;
  std::vector<index_t> ydims;
  Modes cx;
  Modes cy;
  std::size_t xnnz;
  std::size_t ynnz;
};

class ContractOracle
    : public ::testing::TestWithParam<std::tuple<OracleCase, Algorithm>> {};

TEST_P(ContractOracle, MatchesDenseReference) {
  const auto& [cse, alg] = GetParam();
  const SparseTensor x = random_tensor(cse.xdims, cse.xnnz, 11);
  const SparseTensor y = random_tensor(cse.ydims, cse.ynnz, 22);

  ContractOptions o;
  o.algorithm = alg;
  const SparseTensor z = contract_tensor(x, y, cse.cx, cse.cy, o);

  const DenseTensor dz = contract_dense(DenseTensor::from_sparse(x),
                                        DenseTensor::from_sparse(y), cse.cx,
                                        cse.cy);
  EXPECT_TRUE(SparseTensor::approx_equal(z, dz.to_sparse(), 1e-9))
      << cse.name << " with " << algorithm_name(alg);
}

TEST_P(ContractOracle, MatchesBruteForceReference) {
  const auto& [cse, alg] = GetParam();
  const SparseTensor x = random_tensor(cse.xdims, cse.xnnz, 33);
  const SparseTensor y = random_tensor(cse.ydims, cse.ynnz, 44);

  ContractOptions o;
  o.algorithm = alg;
  const SparseTensor z = contract_tensor(x, y, cse.cx, cse.cy, o);
  const SparseTensor ref = contract_reference(x, y, cse.cx, cse.cy);
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9))
      << cse.name << " with " << algorithm_name(alg);
}

std::vector<OracleCase> oracle_cases() {
  return {
      {"mat_mat", {8, 8}, {8, 8}, {1}, {0}, 20, 20},
      {"order3_1mode", {6, 7, 8}, {8, 5, 4}, {2}, {0}, 40, 40},
      {"order3_2mode", {6, 7, 8}, {7, 8, 5}, {1, 2}, {0, 1}, 60, 60},
      {"order4_1mode", {4, 5, 6, 7}, {7, 3, 4, 2}, {3}, {0}, 80, 60},
      {"order4_2mode", {4, 5, 6, 7}, {6, 7, 3, 4}, {2, 3}, {0, 1}, 80, 80},
      {"order4_3mode", {4, 5, 6, 7}, {5, 6, 7, 3}, {1, 2, 3}, {0, 1, 2}, 100,
       100},
      {"fig1_shape", {2, 2, 2, 2}, {2, 2, 2, 4}, {2, 3}, {0, 1}, 8, 12},
      {"middle_modes", {5, 6, 7, 4}, {3, 6, 4, 5}, {1, 3}, {1, 2}, 70, 70},
      {"reversed_mode_order", {5, 6, 7}, {7, 6, 4}, {2, 1}, {0, 1}, 50, 50},
      {"order5_2mode", {3, 4, 5, 4, 3}, {4, 3, 5, 2}, {1, 4}, {0, 1}, 90, 60},
      {"asym_free_counts", {4, 9}, {4, 3, 3, 3}, {0}, {0}, 30, 60},
      {"dense_operands", {4, 4, 4}, {4, 4, 4}, {2}, {0}, 64, 64},
  };
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<OracleCase, Algorithm>>& info) {
  const auto& [cse, alg] = info.param;
  std::string alg_name(algorithm_name(alg));
  for (char& ch : alg_name) {
    if (ch == '+') ch = '_';
  }
  return cse.name + "_" + alg_name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractOracle,
    ::testing::Combine(::testing::ValuesIn(oracle_cases()),
                       ::testing::Values(Algorithm::kSpa, Algorithm::kCooHta,
                                         Algorithm::kSparta)),
    case_name);

// --- Cross-algorithm equivalence on bigger random inputs -------------

TEST(ContractEquivalence, AllAlgorithmsAgreeOnLargerInputs) {
  PairedSpec ps;
  ps.x.dims = {40, 30, 25, 20};
  ps.x.nnz = 3000;
  ps.x.seed = 5;
  ps.y.dims = {40, 30, 15, 10};
  ps.y.nnz = 2500;
  ps.y.seed = 6;
  ps.num_contract_modes = 2;
  ps.match_fraction = 0.7;
  const TensorPair pair = generate_contraction_pair(ps);

  const Modes cx{0, 1};
  const Modes cy{0, 1};
  ContractOptions o;
  o.algorithm = Algorithm::kSpa;
  const SparseTensor z_spa = contract_tensor(pair.x, pair.y, cx, cy, o);
  o.algorithm = Algorithm::kCooHta;
  const SparseTensor z_coo = contract_tensor(pair.x, pair.y, cx, cy, o);
  o.algorithm = Algorithm::kSparta;
  const SparseTensor z_sparta = contract_tensor(pair.x, pair.y, cx, cy, o);

  EXPECT_GT(z_sparta.nnz(), 0u);
  EXPECT_TRUE(SparseTensor::approx_equal(z_spa, z_coo, 1e-9));
  EXPECT_TRUE(SparseTensor::approx_equal(z_spa, z_sparta, 1e-9));
}

// --- Options ---------------------------------------------------------

TEST(ContractOptionsTest, UnsortedOutputHasSameContent) {
  const SparseTensor x = random_tensor({10, 12, 8}, 150, 1);
  const SparseTensor y = random_tensor({8, 9, 7}, 120, 2);
  ContractOptions sorted;
  ContractOptions unsorted;
  unsorted.sort_output = false;
  const SparseTensor zs = contract_tensor(x, y, {2}, {0}, sorted);
  const SparseTensor zu = contract_tensor(x, y, {2}, {0}, unsorted);
  EXPECT_TRUE(zs.is_sorted());
  EXPECT_TRUE(SparseTensor::approx_equal(zs, zu, 1e-9));
}

TEST(ContractOptionsTest, SwapHeuristicPreservesResultModuloModeOrder) {
  // Swapping operands exchanges the free-X and free-Y groups in Z, so
  // compare against the explicitly swapped contraction.
  const SparseTensor x = random_tensor({6, 7, 8}, 120, 1);  // larger
  const SparseTensor y = random_tensor({8, 5, 4}, 40, 2);   // smaller
  ContractOptions swap;
  swap.swap_operands_if_larger_x = true;
  const SparseTensor z_swapped = contract_tensor(x, y, {2}, {0}, swap);
  const SparseTensor z_manual = contract_tensor(y, x, {0}, {2}, {});
  EXPECT_TRUE(SparseTensor::approx_equal(z_swapped, z_manual, 1e-9));
}

TEST(ContractOptionsTest, ExplicitThreadCountsAgree) {
  const SparseTensor x = random_tensor({20, 20, 20}, 800, 3);
  const SparseTensor y = random_tensor({20, 10, 20}, 600, 4);
  ContractOptions o1;
  o1.num_threads = 1;
  ContractOptions o4;
  o4.num_threads = 4;
  for (Algorithm alg : kAll) {
    o1.algorithm = alg;
    o4.algorithm = alg;
    const SparseTensor z1 = contract_tensor(x, y, {1, 2}, {0, 2}, o1);
    const SparseTensor z4 = contract_tensor(x, y, {1, 2}, {0, 2}, o4);
    EXPECT_TRUE(SparseTensor::approx_equal(z1, z4, 1e-9))
        << algorithm_name(alg);
  }
}

// --- Stats -----------------------------------------------------------

TEST(ContractStatsTest, CountersAreConsistent) {
  const SparseTensor x = random_tensor({10, 10, 10}, 300, 7);
  const SparseTensor y = random_tensor({10, 10, 10}, 300, 8);
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  const ContractResult r = contract(x, y, {1, 2}, {0, 1}, o);
  EXPECT_EQ(r.stats.nnz_x, 300u);
  EXPECT_EQ(r.stats.nnz_y, 300u);
  EXPECT_EQ(r.stats.nnz_z, r.z.nnz());
  EXPECT_EQ(r.stats.searches, 300u);  // one probe per X non-zero
  EXPECT_LE(r.stats.hits, r.stats.searches);
  EXPECT_GE(r.stats.multiplies, r.stats.hits);  // ≥1 item per hit
  EXPECT_GT(r.stats.num_x_subtensors, 0u);
  EXPECT_GT(r.stats.num_y_keys, 0u);
  EXPECT_GE(r.stats.max_y_group, 1u);
}

// --- Plan-time LN-space gate (§3.3) ---------------------------------

TEST(Contract, RejectsOverflowingContractKeySpaceAtPlanTime) {
  // Three contract modes of 2^32-1 × 2^32-1 × 4: the linearized
  // contract-tuple space exceeds 64 bits (two maxed modes alone still
  // fit: (2^32-1)^2 < 2^64). Must throw up front with a diagnostic
  // naming the dims — not wrap silently deep in stage ①.
  SparseTensor x({0xffffffffu, 0xffffffffu, 4, 3});
  x.append(std::vector<index_t>{5, 6, 1, 2}, 1.0);
  SparseTensor y({0xffffffffu, 0xffffffffu, 4, 2});
  y.append(std::vector<index_t>{5, 6, 2, 1}, 2.0);
  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    try {
      (void)contract(x, y, {0, 1, 2}, {0, 1, 2}, o);
      FAIL() << "expected Error for " << algorithm_name(alg);
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("contract-mode key space"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("4294967295x4294967295x4"), std::string::npos)
          << msg;
    }
  }
}

TEST(Contract, RejectsOverflowingFreeKeySpaceAtPlanTime) {
  // The contract tuple fits, but Y's free-mode space (HtA keys) does
  // not.
  SparseTensor x({4, 3});
  x.append(std::vector<index_t>{1, 2}, 1.0);
  SparseTensor y({4, 0xffffffffu, 0xffffffffu, 2});
  y.append(std::vector<index_t>{1, 7, 8, 1}, 2.0);
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  try {
    (void)contract(x, y, {0}, {0}, o);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Y free-mode key space"),
              std::string::npos)
        << e.what();
  }
}

// --- Sorted writeback ------------------------------------------------
//
// Stage ③ appends each X sub-tensor's run to Z_local, ⑤ sorts it in
// place, and the gather lays the runs out in sub-tensor order. The
// result must be exactly the global sort of the unsorted output, for
// every engine configuration and thread count.

// How the engine reaches Y.
enum class Path {
  kDirect,  // contract(x, y)
  kPlan,    // contract(x, plan) through a YPlan
  kCsf,     // contract_csf() through a YPlan
};

struct Engine {
  const char* name;
  Algorithm algorithm;
  Path path;
};

constexpr Engine kEngines[] = {
    {"spa", Algorithm::kSpa, Path::kDirect},
    {"coohta", Algorithm::kCooHta, Path::kDirect},
    {"sparta", Algorithm::kSparta, Path::kDirect},
    {"coobinary", Algorithm::kCooBinary, Path::kDirect},
    {"plan", Algorithm::kSparta, Path::kPlan},
    {"csf", Algorithm::kSparta, Path::kCsf},
};

constexpr int kThreadCounts[] = {1, 2, 4};

struct Shape {
  std::string name;
  SparseTensor x;
  SparseTensor y;
  Modes cx;
  Modes cy;
};

std::vector<Shape> writeback_shapes() {
  std::vector<Shape> s;
  // Sub-tensors of uneven size, the larger ones past every HtA's
  // initial capacity.
  s.push_back({"grow", random_tensor({40, 30}, 300, 11),
               random_tensor({30, 1500}, 6000, 12), {1}, {0}});
  // The first sub-tensor grows its thread's HtA; every later one fits
  // the initial table. At one thread they all run in the grown table,
  // at four most run in fresh ones, and their unsorted runs must not
  // tell the two apart.
  {
    SparseTensor x({40, 30});
    for (index_t j = 0; j < 30; ++j) x.append(std::vector<index_t>{0, j}, 1.0);
    for (index_t i = 1; i < 40; ++i) {
      x.append(std::vector<index_t>{i, (i * 7) % 30}, 0.5 + i);
    }
    s.push_back({"small_after_grow", std::move(x),
                 random_tensor({30, 1500}, 6000, 12), {1}, {0}});
  }
  s.push_back({"three_mode", random_tensor({10, 12, 8}, 150, 13),
               random_tensor({8, 9, 7}, 120, 14), {2}, {0}});
  // X fully contracted: one sub-tensor holds all of Z.
  s.push_back({"nfx0", random_tensor({12, 9}, 60, 15),
               random_tensor({12, 9, 300}, 2000, 16), {0, 1}, {0, 1}});
  // Y fully contracted: at most one element per sub-tensor.
  s.push_back({"nfy0", random_tensor({50, 12, 9}, 900, 17),
               random_tensor({12, 9}, 60, 18), {1, 2}, {0, 1}});
  // Z's index space exceeds 64 bits, so SparseTensor::sort() compares
  // tuples instead of LN keys; the runs' free keys still fit.
  s.push_back({"wide", random_tensor({2000000000u, 3}, 60, 19),
               random_tensor({3, 2000000000u, 2000000000u}, 60, 20), {1},
               {0}});
  // A Y free key space of 10^10 > 2^32, with enough rows that the
  // gather's decode runs over several row chunks.
  s.push_back({"fy_key_above_2_32", random_tensor({30, 20}, 400, 21),
               random_tensor({20, 100000, 100000}, 2000, 22), {1}, {0}});
  // Z of order 1 holding only Y's free mode (nfx = 0, nfy = 1): one
  // run spans every row chunk.
  s.push_back({"order1_fy_only", random_tensor({12, 9}, 60, 23),
               random_tensor({12, 9, 100000}, 24000, 24), {0, 1}, {0, 1}});
  // Z of order 1 holding only X's free mode (nfx = 1, nfy = 0): tens of
  // thousands of runs of at most one row each.
  s.push_back({"order1_fx_only", random_tensor({60000, 4}, 30000, 25),
               random_tensor({4}, 3, 26), {1}, {0}});
  // Both kinds of free mode, and mostly one-row runs.
  s.push_back({"one_row_runs", random_tensor({60000, 4}, 30000, 27),
               random_tensor({4, 1}, 4, 28), {1}, {0}});
  return s;
}

ContractResult run_engine(const Engine& e, const Shape& s, int threads,
                          bool sorted, bool shared_writeback = false) {
  ContractOptions o;
  o.algorithm = e.algorithm;
  o.num_threads = threads;
  o.sort_output = sorted;
  o.ablation_shared_writeback = shared_writeback;
  if (e.path == Path::kDirect) return contract(s.x, s.y, s.cx, s.cy, o);
  const YPlan plan(s.y, s.cy, /*num_threads=*/1);
  return e.path == Path::kPlan ? contract(s.x, plan, s.cx, o)
                               : contract_csf(s.x, plan, s.cx, o);
}

// Dims, every index and every value's bits.
::testing::AssertionResult bitwise_equal(const SparseTensor& a,
                                         const SparseTensor& b) {
  if (a.dims() != b.dims() || a.nnz() != b.nnz()) {
    return ::testing::AssertionFailure()
           << a.summary() << " vs " << b.summary();
  }
  for (std::size_t n = 0; n < a.nnz(); ++n) {
    for (int m = 0; m < a.order(); ++m) {
      if (a.index(n, m) != b.index(n, m)) {
        return ::testing::AssertionFailure()
               << "index [" << n << "][" << m << "] differs";
      }
    }
    if (std::bit_cast<std::uint64_t>(a.value(n)) !=
        std::bit_cast<std::uint64_t>(b.value(n))) {
      return ::testing::AssertionFailure() << "value [" << n << "] differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class SortedWriteback : public ::testing::TestWithParam<Engine> {};

TEST_P(SortedWriteback, EqualsGlobalSortOfUnsortedOutput) {
  const Engine& e = GetParam();
  for (const Shape& s : writeback_shapes()) {
    const SparseTensor ref = contract_reference(s.x, s.y, s.cx, s.cy);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(s.name + " at " + std::to_string(threads) + " threads");
      const ContractResult sorted = run_engine(e, s, threads, true);
      ContractResult unsorted = run_engine(e, s, threads, false);
      EXPECT_GT(sorted.z.nnz(), 0u);
      EXPECT_TRUE(sorted.z.is_sorted());
      EXPECT_TRUE(SparseTensor::approx_equal(sorted.z, ref, 1e-9));
      unsorted.z.sort();
      EXPECT_TRUE(bitwise_equal(sorted.z, unsorted.z));
    }
  }
}

TEST_P(SortedWriteback, UnsortedOutputIsThreadCountIndependent) {
  const Engine& e = GetParam();
  for (const Shape& s : writeback_shapes()) {
    SCOPED_TRACE(s.name);
    const SparseTensor one = run_engine(e, s, 1, false).z;
    for (const int threads : {2, 4}) {
      EXPECT_TRUE(bitwise_equal(one, run_engine(e, s, threads, false).z))
          << threads << " threads";
    }
  }
}

// The shared-writeback ablation appends every thread's chunks to one
// buffer under a lock; sorted or not, Z is bitwise the same.
TEST_P(SortedWriteback, SharedWritebackAblationMatches) {
  const Engine& e = GetParam();
  for (const Shape& s : writeback_shapes()) {
    for (const int threads : kThreadCounts) {
      for (const bool sorted : {true, false}) {
        SCOPED_TRACE(s.name + " at " + std::to_string(threads) +
                     " threads, " + (sorted ? "sorted" : "unsorted"));
        EXPECT_TRUE(
            bitwise_equal(run_engine(e, s, threads, sorted, true).z,
                          run_engine(e, s, threads, sorted).z));
      }
    }
  }
}

// Each stage's failpoint fires once per scheduled chunk of sub-tensors,
// ⌈num_sub / subtensor_chunk⌉ times, on inputs whose chunk is 1 and 16.
TEST_P(SortedWriteback, StageSitesFireOncePerChunk) {
  const Engine& e = GetParam();
  constexpr const char* kSites[] = {"contract.search", "contract.accumulate",
                                    "contract.sort", "contract.writeback"};
  struct Case {
    Shape shape;
    int threads;
    std::ptrdiff_t chunk;
  };
  std::vector<Case> cases;
  // 40 sub-tensors: far fewer than 64 per thread, so chunks of one.
  cases.push_back({{"chunk1", random_tensor({40, 30}, 300, 31),
                    random_tensor({30, 50}, 400, 32), {1}, {0}},
                   2,
                   1});
  // Thousands of sub-tensors on one thread: chunks of 16.
  cases.push_back({{"chunk16", random_tensor({3000, 20}, 6000, 33),
                    random_tensor({20, 50}, 400, 34), {1}, {0}},
                   1,
                   16});
  for (const Case& c : cases) {
    for (const bool sorted : {true, false}) {
      SCOPED_TRACE(c.shape.name + (sorted ? " sorted" : " unsorted"));
      for (const char* site : kSites) {
        failpoint::arm(site, {failpoint::Action::kError,
                              std::numeric_limits<std::uint64_t>::max(), 1});
      }
      const ContractResult r = run_engine(e, c.shape, c.threads, sorted);
      const auto num_sub =
          static_cast<std::ptrdiff_t>(r.stats.num_x_subtensors);
      ASSERT_EQ(subtensor_chunk(num_sub, c.threads), c.chunk);
      const auto chunks =
          static_cast<std::uint64_t>((num_sub + c.chunk - 1) / c.chunk);
      for (const char* site : kSites) {
        const bool runs = sorted || std::string(site) != "contract.sort";
        EXPECT_EQ(failpoint::hit_count(site), runs ? chunks : 0u) << site;
      }
      failpoint::disarm_all();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryEngine, SortedWriteback, ::testing::ValuesIn(kEngines),
    [](const ::testing::TestParamInfo<Engine>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sparta
