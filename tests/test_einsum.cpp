// Tests for the einsum multi-tensor contraction API.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "contraction/reference.hpp"
#include "plan/einsum.hpp"
#include "plan/planner.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generators.hpp"
#include "tensor/ops.hpp"

namespace sparta {
namespace {

SparseTensor rand_t(std::vector<index_t> dims, std::size_t nnz,
                    std::uint64_t seed) {
  GeneratorSpec s;
  s.dims = std::move(dims);
  s.nnz = nnz;
  s.seed = seed;
  return generate_random(s);
}

TEST(Einsum, MatrixMultiply) {
  const SparseTensor a = rand_t({8, 9}, 30, 1);
  const SparseTensor b = rand_t({9, 7}, 25, 2);
  const SparseTensor z = einsum("ij,jk->ik", {a, b});
  const SparseTensor ref = contract_reference(a, b, {1}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

TEST(Einsum, ImplicitOutputFollowsNumpyRule) {
  const SparseTensor a = rand_t({8, 9}, 30, 3);
  const SparseTensor b = rand_t({9, 7}, 25, 4);
  // "ij,jk" -> output "ik" (alphabetical once-occurring labels).
  const SparseTensor implicit = einsum("ij,jk", {a, b});
  const SparseTensor explicit_out = einsum("ij,jk->ik", {a, b});
  EXPECT_TRUE(SparseTensor::approx_equal(implicit, explicit_out, 1e-12));
}

TEST(Einsum, OutputPermutation) {
  const SparseTensor a = rand_t({8, 9}, 30, 5);
  const SparseTensor b = rand_t({9, 7}, 25, 6);
  const SparseTensor ki = einsum("ij,jk->ki", {a, b});
  SparseTensor ik = einsum("ij,jk->ik", {a, b});
  ik.permute_modes({1, 0});
  EXPECT_TRUE(SparseTensor::approx_equal(ki, ik, 1e-12));
}

TEST(Einsum, HighOrderContraction) {
  const SparseTensor x = rand_t({5, 6, 7, 4}, 120, 7);
  const SparseTensor y = rand_t({7, 4, 8}, 80, 8);
  const SparseTensor z = einsum("abcd,cde->abe", {x, y});
  const SparseTensor ref = contract_reference(x, y, {2, 3}, {0, 1});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

TEST(Einsum, ThreeOperandChain) {
  const SparseTensor a = rand_t({6, 10}, 25, 9);
  const SparseTensor b = rand_t({10, 8}, 30, 10);
  const SparseTensor c = rand_t({8, 5}, 20, 11);
  const SparseTensor z = einsum("ab,bc,cd->ad", {a, b, c});
  const SparseTensor ab = contract_reference(a, b, {1}, {0});
  const SparseTensor ref = contract_reference(ab, c, {1}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

TEST(Einsum, FourOperandRing) {
  const SparseTensor a = rand_t({4, 6}, 15, 12);
  const SparseTensor b = rand_t({6, 5}, 18, 13);
  const SparseTensor c = rand_t({5, 7}, 16, 14);
  const SparseTensor d = rand_t({7, 4}, 14, 15);
  // Ring with open ends a..h: (ab)(bc)(cd)(de) -> ae.
  const SparseTensor z = einsum("ab,bc,cd,de->ae", {a, b, c, d});
  const SparseTensor ab = contract_reference(a, b, {1}, {0});
  const SparseTensor abc = contract_reference(ab, c, {1}, {0});
  const SparseTensor ref = contract_reference(abc, d, {1}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

TEST(Einsum, SumsOutDroppedLabels) {
  const SparseTensor x = rand_t({5, 6, 7}, 60, 16);
  const SparseTensor z = einsum("abc->ac", {x});
  const SparseTensor ref = reduce_mode(x, 1);
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));

  // A dropped label at the end of a chain: contracted first, then summed.
  const SparseTensor a = rand_t({6, 10}, 25, 30);
  const SparseTensor b = rand_t({10, 8}, 30, 31);
  const SparseTensor c = rand_t({8, 5}, 20, 32);
  const SparseTensor zc = einsum("ab,bc,cd->a", {a, b, c});
  const SparseTensor abc = contract_reference(
      contract_reference(a, b, {1}, {0}), c, {1}, {0});
  ASSERT_GT(abc.nnz(), 0u);
  EXPECT_TRUE(SparseTensor::approx_equal(zc, reduce_mode(abc, 1), 1e-9));
}

TEST(Einsum, SingleOperandPermutation) {
  const SparseTensor x = rand_t({5, 6, 7}, 60, 17);
  const SparseTensor z = einsum("abc->cab", {x});
  SparseTensor ref = x;
  ref.permute_modes({2, 0, 1});
  ref.sort();
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-12));
}

TEST(Einsum, OuterProduct) {
  const SparseTensor a = rand_t({4, 3}, 6, 18);
  const SparseTensor b = rand_t({5}, 3, 19);
  const SparseTensor z = einsum("ab,c->abc", {a, b});
  // Check against dense.
  const DenseTensor da = DenseTensor::from_sparse(a);
  const DenseTensor db = DenseTensor::from_sparse(b);
  DenseTensor expect({4, 3, 5});
  std::vector<index_t> ca(2), cb(1), cz(3);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      for (index_t k = 0; k < 5; ++k) {
        ca = {i, j};
        cb = {k};
        cz = {i, j, k};
        expect.at(cz) = da.at(ca) * db.at(cb);
      }
    }
  }
  EXPECT_TRUE(SparseTensor::approx_equal(z, expect.to_sparse(), 1e-9));

  // A connected pair and a disconnected operand: the pair is contracted,
  // then joined to the other by an outer product.
  const SparseTensor p = rand_t({5, 6}, 12, 33);
  const SparseTensor q = rand_t({6, 4}, 10, 34);
  const SparseTensor r = rand_t({3}, 2, 35);
  const SparseTensor mixed = einsum("ab,bc,d->adc", {p, q, r});
  const SparseTensor pq = contract_reference(p, q, {1}, {0});
  ASSERT_GT(pq.nnz(), 0u);
  SparseTensor ref({5, 3, 4});
  std::vector<index_t> cpq(2), cr(1);
  for (std::size_t i = 0; i < pq.nnz(); ++i) {
    pq.coords(i, cpq);
    for (std::size_t j = 0; j < r.nnz(); ++j) {
      r.coords(j, cr);
      const std::vector<index_t> adc{cpq[0], cr[0], cpq[1]};
      ref.append(adc, pq.value(i) * r.value(j));
    }
  }
  ref.sort();
  EXPECT_TRUE(SparseTensor::approx_equal(mixed, ref, 1e-9));
}

TEST(Einsum, PlannedOrderHandlesMixedSizes) {
  // A large×small×small chain where the planner should contract the small
  // pair first; correctness is what we verify.
  const SparseTensor big = rand_t({40, 50}, 900, 20);
  const SparseTensor s1 = rand_t({50, 6}, 40, 21);
  const SparseTensor s2 = rand_t({6, 5}, 12, 22);
  const SparseTensor z = einsum("ab,bc,cd->ad", {big, s1, s2});
  const SparseTensor r1 = contract_reference(s1, s2, {1}, {0});
  const SparseTensor ref = contract_reference(big, r1, {1}, {0});
  EXPECT_TRUE(SparseTensor::approx_equal(z, ref, 1e-9));
}

TEST(Einsum, RejectsMalformedSpecs) {
  const SparseTensor a = rand_t({4, 4}, 5, 23);
  const SparseTensor b = rand_t({4, 4}, 5, 24);
  // Wrong operand count.
  EXPECT_THROW((void)einsum("ij,jk,kl->il", {a, b}), Error);
  // Arity mismatch.
  EXPECT_THROW((void)einsum("ijk,jk->i", {a, b}), Error);
  // Trace within one operand.
  EXPECT_THROW((void)einsum("ii,jk->jk", {a, b}), Error);
  // Contracted label in output.
  EXPECT_THROW((void)einsum("ij,jk->ijk", {a, b}), Error);
  // Output label not in inputs.
  EXPECT_THROW((void)einsum("ij,jk->iz", {a, b}), Error);
  // Bad character.
  EXPECT_THROW((void)einsum("i2,2k->ik", {a, b}), Error);
  // Label in 3+ operands.
  const SparseTensor c = rand_t({4, 4}, 5, 25);
  EXPECT_THROW((void)einsum("ij,jk,jl->ikl", {a, b, c}), Error);
}

// A scalar result, explicit or implicit, is rejected by the spec parser
// with one message, whichever operands would reach the engine.
TEST(Einsum, RejectsScalarOutputUpFront) {
  const SparseTensor a = rand_t({4, 5}, 8, 40);
  const SparseTensor b = rand_t({5, 6}, 8, 41);
  const SparseTensor c = rand_t({6, 4}, 8, 42);
  const std::vector<std::pair<std::string, std::vector<SparseTensor>>>
      cases = {{"ab,ab->", {a, a}},
               {"ab,bc,ca->", {a, b, c}},
               {"ab,bc->", {a, b}},
               {"ab,ab", {a, a}}};
  for (const auto& [spec, ops] : cases) {
    try {
      (void)einsum(spec, ops);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "einsum: the output names no label"),
                std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(Einsum, RejectsInconsistentDims) {
  const SparseTensor a = rand_t({4, 5}, 5, 26);
  const SparseTensor b = rand_t({6, 4}, 5, 27);
  EXPECT_THROW((void)einsum("ij,jk->ik", {a, b}), Error);
}

TEST(Einsum, WhitespaceTolerated) {
  const SparseTensor a = rand_t({4, 5}, 8, 28);
  const SparseTensor b = rand_t({5, 3}, 7, 29);
  const SparseTensor z1 = einsum(" ij , jk -> ik ", {a, b});
  const SparseTensor z2 = einsum("ij,jk->ik", {a, b});
  EXPECT_TRUE(SparseTensor::approx_equal(z1, z2, 1e-12));
}


TEST(Einsum, RandomChainsMatchPairwiseReference) {
  Rng rng(77);
  // Ten 3-matrix chains, then two long chains with more operands than
  // plan::kMaxDpOperands, which the planner orders greedily.
  constexpr std::size_t kLongChain = 18;
  static_assert(kLongChain > plan::kMaxDpOperands);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t len = trial < 10 ? 3 : kLongChain;
    std::vector<index_t> dims;
    for (std::size_t i = 0; i <= len; ++i) {
      dims.push_back(static_cast<index_t>(3 + rng.uniform(6)));
    }
    std::string spec;
    std::vector<SparseTensor> ops;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t cells = dims[i] * dims[i + 1];
      // Long chains need dense links, or the product is empty.
      const std::size_t nnz = len > 3 ? cells / 2 + rng.uniform(cells / 2)
                                      : 1 + rng.uniform(cells / 2);
      ops.push_back(rand_t({dims[i], dims[i + 1]}, nnz,
                           1000 * (i + 1) + static_cast<std::uint64_t>(trial)));
      spec += std::string(i ? "," : "") + static_cast<char>('a' + i) +
              static_cast<char>('a' + i + 1);
    }
    spec += std::string("->a") + static_cast<char>('a' + len);
    SparseTensor ref = ops.front();
    for (std::size_t i = 1; i < len; ++i) {
      ref = contract_reference(ref, ops[i], {1}, {0});
    }
    if (len > 3) {
      EXPECT_GT(ref.nnz(), 0u) << trial;
    }
    EXPECT_TRUE(SparseTensor::approx_equal(einsum(spec, ops), ref, 1e-9))
        << spec << " trial " << trial;
  }
}

}  // namespace
}  // namespace sparta
