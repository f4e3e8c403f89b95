// einsum-style multi-tensor contraction on sparse tensors.
//
//   einsum("abc,cd->abd", {&x, &y})        — matrix-style contraction
//   einsum("ab,bc,cd->ad", {&a, &b, &c})   — chain, order searched
//   einsum("abc->ac", {&x})                — sum out modes
//
// Subscript grammar (numpy-compatible subset):
//   * one letter per mode, [a-zA-Z];
//   * a label may appear in at most two inputs — twice means the modes
//     contract (and the label must not appear in the output), once
//     means it is free;
//   * labels within one operand must be distinct (no traces/diagonals);
//   * "->out" is optional: the default output is the once-occurring
//     labels in alphabetical order (numpy's rule).
//
// The operands split into connected groups over shared labels. Each
// group of two or more is ordered by plan::plan_network — the same
// search the network executor uses — and contracted pairwise; the
// groups' results are then combined by outer products, dropped labels
// summed out, and the result permuted to the output order. This is the
// driver a "long sequence of tensor contractions" (paper §1) needs.
#pragma once

#include <string>
#include <vector>

#include "contraction/contract.hpp"
#include "tensor/sparse_tensor.hpp"

namespace sparta {

/// Contracts `operands` per `spec`. Throws sparta::Error on malformed
/// specs, arity/dimension mismatches, or unsupported patterns (traces,
/// labels shared by 3+ operands).
[[nodiscard]] SparseTensor einsum(
    const std::string& spec, const std::vector<const SparseTensor*>& operands,
    const ContractOptions& opts = {});

/// Convenience overload for value arguments.
[[nodiscard]] SparseTensor einsum(const std::string& spec,
                                  const std::vector<SparseTensor>& operands,
                                  const ContractOptions& opts = {});

}  // namespace sparta
