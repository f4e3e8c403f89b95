// Cost-driven contraction-order search over a validated network.
//
// The planner turns a ContractionNetwork plus per-input metadata
// (dims/nnz, known at plan time from TensorRegistry) into a binary merge
// tree of pairwise contraction steps. Search is exact bitmask dynamic
// programming over connected subnetworks for <= kMaxDpOperands inputs
// (the CoNST / "Minimum Cost Loop Nests" formulation specialized to
// pairwise steps), with a greedy cheapest-merge fallback above that.
//
// Each candidate step is costed with the paper's own machinery:
//   * intermediate nnz via uniform density propagation (the same model
//     test_estimator_accuracy holds to kEstimatorAccuracyFactor);
//   * bytes via Eq. 5 (HtY) + Eq. 6 (HtA) + COO payloads;
//   * seconds via the learned per-variant CostModel when one is loaded
//     (--selector-model), else an analytic operation-count proxy;
//   * the two sorted passes layout decides: stage ① re-sorts X unless
//     its contract modes already trail its free modes, and the root's
//     result is permuted unless it lands in the declared output order.
//     The search tracks each subtree's result layout (X free, then Y
//     free, as the engine emits Z) and keeps the cheapest plan per
//     (subset, layout), so orientation between peers is a choice.
//
// PlanOptions::budget_bytes prunes candidates whose *peak intermediate
// footprint* — computed with the Sethi–Ullman recurrence over the two
// possible subtree evaluation orders — exceeds the budget, mirroring
// ContractOptions::budget semantics. The result is an explainable
// NetworkPlan: every step's predictions, the search method, and how
// many alternatives were rejected (and how many of those by budget).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "plan/ir.hpp"
#include "serve/costmodel.hpp"
#include "tensor/types.hpp"

namespace sparta::plan {

/// Above this operand count the exact subset DP (3^n splits) is
/// replaced by the greedy cheapest-pair search.
inline constexpr std::size_t kMaxDpOperands = 16;

/// Predicted cost of one sorted pass (stage ①'s X sort, or the final
/// permute) per non-zero: the network executor's final permute of a
/// 62 658-non-zero 2-mode result measured 1.46 ms on a 4-vCPU VM.
inline constexpr double kSortedPassSecondsPerNnz = 23e-9;

/// Plan-time metadata for one network input, resolved from the registry
/// (or synthesized by --gen in tools).
struct BoundInput {
  std::string name;
  std::vector<index_t> dims;  ///< one per mode label, same order
  std::size_t nnz = 0;
  std::uint64_t registry_id = 0;  ///< staleness component of cache keys
};

/// One pairwise step of the plan. Operand references are node ids:
/// id < num_inputs names that input; id >= num_inputs names the result
/// of step (id - num_inputs). Steps are emitted in execution order, and
/// a step's operands always refer to earlier steps.
struct PlanStepSpec {
  std::size_t x = 0;  ///< node id of the X operand
  std::size_t y = 0;  ///< node id of the Y operand
  std::string x_name;  ///< input name, or "step<k>" for intermediates
  std::string y_name;
  Modes cx;  ///< contract-mode positions in X
  Modes cy;  ///< matching positions in Y
  std::vector<std::string> out_labels;  ///< free-X then free-Y order
  std::vector<index_t> out_dims;
  /// X arrives with its contract modes trailing its free modes, so
  /// stage ① scans it instead of sorting (inputs are taken as sorted).
  bool x_presorted = false;
  std::size_t est_nnz = 0;
  std::size_t est_bytes = 0;  ///< COO(x)+COO(y)+Eq.5+Eq.6+COO(out)
  /// Includes X's re-sort when not presorted and, on the last step,
  /// the final permute.
  double est_seconds = 0.0;
};

/// The chosen plan plus its explanation.
struct NetworkPlan {
  std::vector<PlanStepSpec> steps;
  /// Permutation taking the last step's mode order to the network's
  /// declared output-label order (empty = already in order).
  Modes final_perm;
  double est_total_seconds = 0.0;
  /// Peak intermediate footprint (temps + transient hash structures)
  /// of the chosen evaluation order; what budget pruning bounds.
  std::size_t est_peak_bytes = 0;
  std::uint64_t rejected_alternatives = 0;  ///< candidate merges not chosen
  std::uint64_t budget_pruned = 0;  ///< rejected specifically by budget
  std::string search;  ///< "dp", "greedy", or "fixed"

  /// Byte-deterministic JSON document (CI diffs two --dry-run runs).
  [[nodiscard]] std::string to_json() const;
};

struct PlanOptions {
  /// Peak-intermediate budget in bytes; 0 = unlimited. A network with
  /// no admissible plan under the budget throws sparta::Error.
  std::size_t budget_bytes = 0;
  /// Learned per-variant prior (may be null or empty — analytic proxy
  /// is used for variants the model cannot predict).
  const serve::CostModel* model = nullptr;
};

/// Searches the contraction order for `net`. `inputs` must parallel
/// net.inputs (same count/order, dims arity matching each label list;
/// shared labels must agree on dimension). Throws sparta::Error on
/// metadata mismatch or when the budget admits no plan.
[[nodiscard]] NetworkPlan plan_network(const ContractionNetwork& net,
                                       const std::vector<BoundInput>& inputs,
                                       const PlanOptions& opts = {});

/// Costs a caller-chosen left-deep order instead of searching:
/// `order` is a permutation of input indices; step k merges the
/// accumulated intermediate with inputs[order[k+1]] (as Y). The first
/// step's orientation is the cheaper one. Every step must be
/// connected (share a label). Budget is NOT enforced (this is the
/// baseline/bench path); estimates and peak are still reported.
[[nodiscard]] NetworkPlan plan_fixed_order(
    const ContractionNetwork& net, const std::vector<BoundInput>& inputs,
    const std::vector<std::size_t>& order, const PlanOptions& opts = {});

/// Every legal plan (all binary merge trees whose every step is
/// connected, in every orientation plan_network may choose: both
/// between peers, the input as Y beside an intermediate), costed like
/// plan_network but without budget pruning.
/// Exponential in operand count — callers (fuzz --network, bench_plan)
/// keep networks tiny. Deterministic order.
[[nodiscard]] std::vector<NetworkPlan> enumerate_plans(
    const ContractionNetwork& net, const std::vector<BoundInput>& inputs,
    const PlanOptions& opts = {});

}  // namespace sparta::plan
