// Differential fuzzing of the contraction-plan compiler
// (`fuzz_sptc --network`).
//
// Each seed draws a small random connected tensor network (3–4
// operands, dims 2–8, a few dozen non-zeros each) whose values are
// small exact integers, then executes EVERY legal contraction order,
// in each orientation the planner may choose (plan::enumerate_plans:
// presorted and re-sorted X, permuting and non-permuting roots), plus
// the planner's own searched order through a private
// ContractionService. Because every value, product and
// partial sum stays far below 2^53, floating-point arithmetic is exact
// and all orders must produce BITWISE identical results — any
// divergence is a real bug in the planner's step emission (cx/cy/perm
// bookkeeping), the executor's intermediate plumbing, or the engine.
// Divergent cases are minimized by greedy non-zero removal before
// reporting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/differential.hpp"
#include "plan/ir.hpp"
#include "tensor/sparse_tensor.hpp"

namespace sparta::fuzz {

struct NetworkLimits {
  std::size_t max_operands = 4;  ///< 3..max_operands inputs
  index_t max_dim = 8;           ///< per-label dimension 2..max_dim
  std::size_t max_nnz = 40;      ///< per-operand non-zero cap
};

struct NetworkCase {
  std::uint64_t seed = 0;
  std::string expr;  ///< the textual IR, e.g. "Z[a,c] = T0[a,b] * ..."
  plan::ContractionNetwork net;
  /// Parallel to net.inputs; values are exact integers in [1, 4].
  std::vector<SparseTensor> tensors;
  [[nodiscard]] std::string label() const;
};

/// Draws the network case for `seed`. Deterministic across platforms
/// (integer RNG only; no floating-point-order dependence).
[[nodiscard]] NetworkCase draw_network_case(std::uint64_t seed,
                                            const NetworkLimits& limits = {});

/// Executes every legal order and the planner's searched order;
/// findings are bitwise divergences (or failed executions). Also checks
/// the searched order is admissible: its estimated cost must not exceed
/// every enumerated alternative's (the DP must never pick a plan it
/// itself estimates as the unique worst).
[[nodiscard]] DiffReport run_network_differential(const NetworkCase& c);

/// Full textual dump (expr + every operand's non-zeros).
[[nodiscard]] std::string dump_network_case(const NetworkCase& c);

/// Greedy ddmin-style shrink: removes non-zeros (chunked, then single)
/// while `still_fails(candidate)` holds. Bounded predicate calls.
[[nodiscard]] NetworkCase minimize_network(
    const NetworkCase& c,
    const std::function<bool(const NetworkCase&)>& still_fails,
    int* predicate_calls = nullptr);

}  // namespace sparta::fuzz
