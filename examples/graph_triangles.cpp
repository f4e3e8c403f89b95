// Graph analytics on the SpGEMM substrate: triangle counting via
//   triangles = Σ (A² ∘ A) / 6
// for an undirected adjacency matrix A — a classic SpGEMM application
// (the kernel family SpTC generalizes, paper §2.2). The same count is
// computed three ways (dedicated SpGEMM, the SpTC pipeline, einsum) and
// cross-checked.
#include <cstdio>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "plan/einsum.hpp"
#include "spgemm/spgemm.hpp"
#include "tensor/ops.hpp"

namespace {

// Random undirected graph with n vertices, ~avg_degree·n/2 edges.
sparta::SparseTensor random_graph(sparta::index_t n, double avg_degree,
                                  std::uint64_t seed) {
  using namespace sparta;
  Rng rng(seed);
  const auto edges =
      static_cast<std::size_t>(avg_degree * static_cast<double>(n) / 2.0);
  SparseTensor a({n, n});
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<index_t>(rng.uniform(n));
    const auto v = static_cast<index_t>(rng.uniform(n));
    if (u == v) continue;
    a.append_unchecked(std::vector<index_t>{u, v}, 1.0);
    a.append_unchecked(std::vector<index_t>{v, u}, 1.0);
  }
  a.coalesce();
  // Multi-edges collapse to weight 1.
  for (value_t& w : a.values()) w = 1.0;
  return a;
}

}  // namespace

int main() {
  using namespace sparta;

  const SparseTensor a = random_graph(3000, 12.0, 17);
  std::printf("graph: %u vertices, %zu directed edges\n\n", a.dim(0),
              a.nnz());

  // 1) dedicated SpGEMM: A², then mask by A and sum.
  Timer t1;
  const CsrMatrix a_csr = CsrMatrix::from_coo(a);
  const CsrMatrix a2 = spgemm(a_csr, a_csr);
  const SparseTensor masked1 = hadamard(a2.to_coo(), a);
  const double tri_spgemm = sum(masked1) / 6.0;
  const double secs1 = t1.seconds();

  // 2) the general SpTC pipeline on the same matrices.
  Timer t2;
  const SparseTensor a2_sptc = contract_tensor(a, a, {1}, {0}, {});
  const double tri_sptc = sum(hadamard(a2_sptc, a)) / 6.0;
  const double secs2 = t2.seconds();

  // 3) einsum formulation.
  Timer t3;
  const SparseTensor a2_einsum = einsum("ij,jk->ik", {a, a});
  const double tri_einsum = sum(hadamard(a2_einsum, a)) / 6.0;
  const double secs3 = t3.seconds();

  std::printf("%-22s %12s %12s\n", "method", "triangles", "time");
  std::printf("%-22s %12.0f %12s\n", "SpGEMM (CSR, hash)", tri_spgemm,
              format_seconds(secs1).c_str());
  std::printf("%-22s %12.0f %12s\n", "SpTC pipeline", tri_sptc,
              format_seconds(secs2).c_str());
  std::printf("%-22s %12.0f %12s\n", "einsum", tri_einsum,
              format_seconds(secs3).c_str());
  std::printf("\nagreement: %s\n",
              (tri_spgemm == tri_sptc && tri_sptc == tri_einsum) ? "yes"
                                                                 : "NO");
  return 0;
}
