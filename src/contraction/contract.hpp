// Sparse tensor contraction — the library's primary entry point.
//
//   Z = X ×_{cx}^{cy} Y
//
// contracts tensor X with tensor Y along the mode lists cx (modes of X)
// and cy (modes of Y), which must have equal arity and matching sizes.
// Z's modes are the free modes of X in ascending original order followed
// by the free modes of Y in ascending original order.
//
// The algorithm follows the paper's five-stage pipeline (§3.1):
//   ① input processing  — permute + sort X; sort Y (COO variants) or
//                          convert Y to the HtY hash table (Sparta)
//   ② index search      — locate the Y sub-tensor matching each X
//                          non-zero's contract indices
//   ③ accumulation      — multiply and accumulate into SPA or HtA
//   ④ writeback         — drain each sub-tensor's accumulator into
//                          thread-local Z_local, then gather the runs
//                          into Z in sub-tensor order
//   ⑤ output sorting    — sort each sub-tensor's entries by Y free-mode
//                          LN key before ④ drains them, which leaves Z
//                          sorted lexicographically
// All stages are OpenMP-parallel (§3.5).
#pragma once

#include "common/timer.hpp"
#include "contraction/options.hpp"
#include "memsim/access_profile.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/types.hpp"

namespace sparta {

struct ContractResult {
  SparseTensor z;
  StageTimes stage_times;
  ContractStats stats;
  AccessProfile profile;  ///< filled when opts.collect_access_profile
};

/// Contracts X with Y. Throws sparta::Error on invalid mode lists,
/// mismatched contract-mode sizes, or index spaces exceeding the 64-bit
/// LN representation.
[[nodiscard]] ContractResult contract(const SparseTensor& x,
                                      const SparseTensor& y, const Modes& cx,
                                      const Modes& cy,
                                      const ContractOptions& opts = {});

/// Convenience wrapper returning just the output tensor.
[[nodiscard]] inline SparseTensor contract_tensor(
    const SparseTensor& x, const SparseTensor& y, const Modes& cx,
    const Modes& cy, const ContractOptions& opts = {}) {
  return contract(x, y, cx, cy, opts).z;
}

/// Validates a contraction's mode lists against the operand shapes and
/// returns the free modes of each operand (ascending). Shared by the
/// sparse algorithms, the dense reference, and the estimators.
struct ModeSplit {
  Modes fx;  ///< free modes of X, ascending
  Modes fy;  ///< free modes of Y, ascending
};
[[nodiscard]] ModeSplit validate_modes(const SparseTensor& x,
                                       const SparseTensor& y, const Modes& cx,
                                       const Modes& cy);

/// validate_modes for a contraction against a prebuilt plan: checks cx
/// against X and the plan's contract modes; fy is the plan's.
class YPlan;  // plan.hpp
[[nodiscard]] ModeSplit validate_plan_modes(const SparseTensor& x,
                                            const YPlan& plan,
                                            const Modes& cx);

/// Checks `modes` as a contract-mode list of `t` — non-empty, in range,
/// no duplicates; `which` ("cx"/"cy") prefixes the diagnostics — and
/// returns t's remaining free modes, ascending.
[[nodiscard]] Modes free_modes(const SparseTensor& t, const Modes& modes,
                               const char* which);

}  // namespace sparta
