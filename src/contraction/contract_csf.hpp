// CSF-driven Sparta contraction — the paper's §6 future-work item
// realized: X is stored as a compressed-sparse-fiber tree whose upper
// levels are exactly the free-prefix sub-tensors the pipeline iterates,
// and whose contract-level walk accumulates the LN search key
// incrementally (shared prefixes are linearized once instead of per
// non-zero).
//
// Semantics match contract(x, plan, cx) with Algorithm::kSparta, except
// duplicate X coordinates are pre-merged (CSF requires distinct
// coordinates; the sum is numerically identical).
#pragma once

#include "contraction/contract.hpp"
#include "contraction/plan.hpp"

namespace sparta {

/// Z = X ×_{cx} plan.Y via a CSF representation of X. Honors
/// opts.num_threads, sort_output and cancel; algorithm is always Sparta.
[[nodiscard]] ContractResult contract_csf(const SparseTensor& x,
                                          const YPlan& plan, const Modes& cx,
                                          const ContractOptions& opts = {});

}  // namespace sparta
