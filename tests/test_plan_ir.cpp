// Tests for the contraction-plan compiler's front half (src/plan/):
// the network IR parser and its hardened diagnostics, the bitmask-DP
// order search and its budget pruning, fixed-order and enumerated
// plans, and the byte-determinism of the plan's JSON explanation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/json_parse.hpp"
#include "plan/ir.hpp"
#include "plan/planner.hpp"

namespace sparta::plan {
namespace {

// ------------------------------------------------------------- parser

TEST(PlanIr, ParsesChainAndCanonicalizes) {
  const ContractionNetwork net =
      parse_network("  Z[i,l]=A[i,j] *B [j,k]* C[k,l] ");
  EXPECT_EQ(net.output_name, "Z");
  ASSERT_EQ(net.inputs.size(), 3u);
  EXPECT_EQ(net.inputs[1].name, "B");
  ASSERT_EQ(net.inputs[1].labels.size(), 2u);
  EXPECT_EQ(net.inputs[1].labels[0], "j");
  EXPECT_EQ(net.canonical(), "Z[i,l] = A[i,j] * B[j,k] * C[k,l]");
}

// Each rejected statement names the problem precisely; diagnostics are
// part of the IR's contract (tools echo them verbatim).
struct BadSpec {
  const char* text;
  const char* expect_substr;
};

TEST(PlanIr, RejectsMalformedStatementsWithPointedDiagnostics) {
  const BadSpec cases[] = {
      {"Z[i] = A[i,j]", "at least two input tensors"},
      {"Z[i,j] = A[i,k] * B[k,j] * ", "expected input tensor name"},
      {"Z[i,j] A[i,k] * B[k,j]", "expected '='"},
      {"Z[i,j] = A[i,k] B[k,j]", "expected '*' or end of statement"},
      {"Z[] = A[i] * B[i]", "expected mode label"},
      {"Z[i,i] = A[i,j] * B[j,i]", "repeats mode label 'i'"},
      {"Z[i,j] = A[i,i] * B[i,j]", "repeats mode label 'i'"},
      {"Z[i,k] = A[i,j] * B[j,k] * C[j,k]", "at most two tensors"},
      {"Z[i,q] = A[i,j] * B[j,q] * C[q,i]", "contracted"},
      {"Z[i,x] = A[i,j] * B[j,k]", "does not appear in any input"},
      {"Z[i] = A[i,j] * B[j,k]", "missing from the output"},
      {"Z[i,l,p,q] = A[i,j] * B[j,l] * C[p,q]", "shares no mode label"},
      {"Z[i,j] = A[i,j] * A[i,j]", "appears twice"},
      {"Z[i,j] = Z[i,k] * B[k,j]", "also appears as an input"},
      {"__tmp/1[i,j] = A[i,k] * B[k,j]", "reserved prefix"},
      {"Z[i,j] = __tmp/9[i,k] * B[k,j]", "reserved prefix"},
  };
  for (const BadSpec& c : cases) {
    try {
      (void)parse_network(c.text);
      FAIL() << "accepted: " << c.text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr),
                std::string::npos)
          << "spec: " << c.text << "\n  diagnostic: " << e.what()
          << "\n  wanted substring: " << c.expect_substr;
    }
  }
}

TEST(PlanIr, ColumnNumbersPointAtTheOffendingToken) {
  try {
    (void)parse_network("Z[i,j] = A[i,k] ? B[k,j]");
    FAIL() << "accepted '?'";
  } catch (const Error& e) {
    // The '?' sits at 1-based column 17.
    EXPECT_NE(std::string(e.what()).find("col 17"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ planner

std::vector<BoundInput> chain_inputs() {
  // Funnel chain: contracting from the right keeps intermediates tiny.
  //   A[i,j] 256x256 nnz 20000, B[j,k] 256x256 nnz 20000,
  //   C[k,l] 256x256 nnz 2000, D[l,m] 256x4 nnz 512
  std::vector<BoundInput> in(4);
  in[0] = {"A", {256, 256}, 20000, 1};
  in[1] = {"B", {256, 256}, 20000, 2};
  in[2] = {"C", {256, 256}, 2000, 3};
  in[3] = {"D", {256, 4}, 512, 4};
  return in;
}

const char* kChain = "Z[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";

TEST(Planner, DpAvoidsTheLeftToRightBlowUp) {
  const ContractionNetwork net = parse_network(kChain);
  const NetworkPlan plan = plan_network(net, chain_inputs());
  EXPECT_EQ(plan.search, "dp");
  ASSERT_EQ(plan.steps.size(), 3u);
  // The searched order must be strictly cheaper than naive
  // left-to-right, whose first step materializes the A*B blow-up.
  std::vector<std::size_t> ltr = {0, 1, 2, 3};
  const NetworkPlan left = plan_fixed_order(net, chain_inputs(), ltr);
  EXPECT_EQ(left.search, "fixed");
  EXPECT_LT(plan.est_total_seconds, left.est_total_seconds);
  EXPECT_LT(plan.est_peak_bytes, left.est_peak_bytes);
  // The first searched step must not be the A*B merge.
  const PlanStepSpec& s0 = plan.steps[0];
  EXPECT_FALSE((s0.x_name == "A" && s0.y_name == "B") ||
               (s0.x_name == "B" && s0.y_name == "A"));
  EXPECT_GT(plan.rejected_alternatives, 0u);
}

// The equal-nnz chain: every tree costs the same steps, so layout
// decides. (P x Q) x R, with P as X, lands in the declared (i,l).
const char* kEqualChain = "W[i,l] = P[i,j] * Q[j,k] * R[k,l]";

std::vector<BoundInput> equal_chain_inputs() {
  return {{"P", {256, 256}, 2600, 1},
          {"Q", {256, 256}, 2600, 2},
          {"R", {256, 256}, 2600, 3}};
}

TEST(Planner, SearchedPlanIsTheEnumeratedOptimum) {
  const std::pair<const char*, std::vector<BoundInput>> cases[] = {
      {kChain, chain_inputs()}, {kEqualChain, equal_chain_inputs()}};
  for (const auto& [expr, inputs] : cases) {
    SCOPED_TRACE(expr);
    const ContractionNetwork net = parse_network(expr);
    const NetworkPlan plan = plan_network(net, inputs);
    const std::vector<NetworkPlan> all = enumerate_plans(net, inputs);
    ASSERT_FALSE(all.empty());
    double best = all.front().est_total_seconds;
    bool presorted = false, resorted = false;
    bool permuted = false, in_order = false;
    for (const NetworkPlan& p : all) {
      best = std::min(best, p.est_total_seconds);
      for (const PlanStepSpec& s : p.steps) {
        (s.x_presorted ? presorted : resorted) = true;
      }
      (p.final_perm.empty() ? in_order : permuted) = true;
    }
    EXPECT_LE(plan.est_total_seconds, best * 1.000001);
    // Orientations are enumerated: both layouts of X and of the root.
    EXPECT_TRUE(presorted && resorted && permuted && in_order);
  }
  // 3-operand chain: two trees, each with one step between peers.
  EXPECT_EQ(enumerate_plans(parse_network(kEqualChain),
                            equal_chain_inputs())
                .size(),
            4u);
}

TEST(Planner, ChainLandsInDeclaredOrder) {
  const ContractionNetwork net = parse_network(kEqualChain);
  const NetworkPlan plan = plan_network(net, equal_chain_inputs());
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_TRUE(plan.final_perm.empty());
  EXPECT_EQ(plan.steps.back().out_labels,
            (std::vector<std::string>{"i", "l"}));
  // P x Q as (i,k): the root reads its X presorted, and the input P,
  // whose contract mode j trails, is presorted too.
  EXPECT_TRUE(plan.steps.back().x_presorted);
  EXPECT_TRUE(plan.steps.front().x_presorted);
  EXPECT_EQ(plan.steps.front().x_name, "P");
  EXPECT_EQ(plan.steps.front().y_name, "Q");
  EXPECT_EQ(plan.steps.back().y_name, "R");
}

TEST(Planner, BudgetPrunesAndEventuallyRejects) {
  const ContractionNetwork net = parse_network(kChain);
  const NetworkPlan unbounded = plan_network(net, chain_inputs());

  // A budget just under the unbounded optimum's peak forces the DP to
  // either find a pricier-but-smaller order or prune candidates.
  PlanOptions tight;
  tight.budget_bytes = unbounded.est_peak_bytes;
  const NetworkPlan fitted = plan_network(net, chain_inputs(), tight);
  EXPECT_LE(fitted.est_peak_bytes, tight.budget_bytes);

  // An absurd budget admits no plan at all — and says why.
  PlanOptions absurd;
  absurd.budget_bytes = 1;
  try {
    (void)plan_network(net, chain_inputs(), absurd);
    FAIL() << "1-byte budget accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
        << e.what();
  }
}

TEST(Planner, MetadataMismatchesAreRejected) {
  const ContractionNetwork net = parse_network(kChain);
  auto in = chain_inputs();
  in[1].dims = {256};  // arity disagrees with B[j,k]
  EXPECT_THROW((void)plan_network(net, in), Error);
  in = chain_inputs();
  in[2].dims = {99, 256};  // shared label k disagrees: B says 256
  EXPECT_THROW((void)plan_network(net, in), Error);
  in = chain_inputs();
  in.pop_back();  // count mismatch
  EXPECT_THROW((void)plan_network(net, in), Error);
}

TEST(Planner, StepSpecsChainNodeIdsConsistently) {
  const ContractionNetwork net = parse_network(kChain);
  const NetworkPlan plan = plan_network(net, chain_inputs());
  const std::size_t n = net.inputs.size();
  for (std::size_t k = 0; k < plan.steps.size(); ++k) {
    const PlanStepSpec& s = plan.steps[k];
    // Operands refer to inputs or strictly earlier steps.
    EXPECT_LT(s.x, n + k);
    EXPECT_LT(s.y, n + k);
    EXPECT_NE(s.x, s.y);
    EXPECT_EQ(s.cx.size(), s.cy.size());
    EXPECT_EQ(s.out_labels.size(), s.out_dims.size());
  }
  // The final step's labels modulo final_perm spell the output.
  const PlanStepSpec& last = plan.steps.back();
  std::vector<std::string> labels = last.out_labels;
  if (!plan.final_perm.empty()) {
    std::vector<std::string> permuted(labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      permuted[i] =
          labels[static_cast<std::size_t>(plan.final_perm[i])];
    }
    labels = permuted;
  }
  EXPECT_EQ(labels, net.output_labels);
}

TEST(Planner, GreedyFallbackAboveDpLimit) {
  // A 17-operand chain: over kMaxDpOperands, so the search degrades to
  // greedy — which must still produce a valid, fully-connected plan.
  std::string expr = "Z[m0,m17] = ";
  std::vector<BoundInput> in;
  for (int i = 0; i < 17; ++i) {
    expr += (i ? " * T" : "T") + std::to_string(i) + "[m" +
            std::to_string(i) + ",m" + std::to_string(i + 1) + "]";
    BoundInput b;
    b.name = "T" + std::to_string(i);
    b.dims = {16, 16};
    b.nnz = 64;
    in.push_back(std::move(b));
  }
  const ContractionNetwork net = parse_network(expr);
  const NetworkPlan plan = plan_network(net, in);
  EXPECT_EQ(plan.search, "greedy");
  EXPECT_EQ(plan.steps.size(), 16u);
}

TEST(Planner, PlanJsonIsByteStableAndValid) {
  const ContractionNetwork net = parse_network(kChain);
  const std::string a = plan_network(net, chain_inputs()).to_json();
  const std::string b = plan_network(net, chain_inputs()).to_json();
  EXPECT_EQ(a, b);
  const auto doc = obs::json_parse(a);
  ASSERT_TRUE(doc.has_value()) << a;
  // --dry-run explains layout: the final permute, and per step whether
  // stage ① scans X instead of sorting it.
  const NetworkPlan plan = plan_network(net, chain_inputs());
  const obs::JsonValue* perm = doc->get("final_perm");
  ASSERT_NE(perm, nullptr) << a;
  ASSERT_TRUE(perm->is_array()) << a;
  EXPECT_EQ(perm->arr.size(), plan.final_perm.size());
  const obs::JsonValue* steps = doc->get("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_EQ(steps->arr.size(), plan.steps.size());
  for (std::size_t k = 0; k < plan.steps.size(); ++k) {
    const obs::JsonValue* p = steps->arr[k].get("x_presorted");
    ASSERT_NE(p, nullptr) << a;
    EXPECT_EQ(p->bool_or(!plan.steps[k].x_presorted),
              plan.steps[k].x_presorted);
  }
  // The funnel's cheapest plan folds from D and yields (m,i): the
  // declared (i,m) takes a transpose, and (m,i) none.
  EXPECT_NE(a.find("\"final_perm\":[1,0]"), std::string::npos) << a;
  const std::string in_order =
      plan_network(parse_network("Z[m,i] = A[i,j] * B[j,k] * C[k,l] * "
                                 "D[l,m]"),
                   chain_inputs())
          .to_json();
  EXPECT_NE(in_order.find("\"final_perm\":[]"), std::string::npos)
      << in_order;
}

}  // namespace
}  // namespace sparta::plan
