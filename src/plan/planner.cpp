#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "contraction/estimators.hpp"
#include "obs/json.hpp"
#include "simd/swiss_table.hpp"

namespace sparta::plan {

namespace {

using Mask = std::uint64_t;      // subset of operands (inputs)
using LabelMask = std::uint64_t; // subset of distinct mode labels

constexpr std::size_t kMaxOperands = 64;
constexpr std::size_t kMaxLabels = 64;
constexpr std::size_t kMaxEnumerateOperands = 6;
constexpr double kInfCost = std::numeric_limits<double>::infinity();
/// Result layouts the search keeps per subset (the cheapest). Small
/// networks reach fewer, so their search stays exact.
constexpr std::size_t kMaxLayoutsPerSubset = 16;

/// A subtree result's mode order, as label ids.
using Layout = std::vector<std::uint8_t>;

[[nodiscard]] int popcount(Mask m) {
  int n = 0;
  while (m != 0) {
    m &= m - 1;
    ++n;
  }
  return n;
}

[[nodiscard]] std::size_t coo_bytes(double nnz, int order) {
  const double per =
      static_cast<double>(order) * sizeof(index_t) + sizeof(value_t);
  const double v = std::min(nnz * per, 9.0e15);
  return v <= 0.0 ? 0 : static_cast<std::size_t>(v);
}

[[nodiscard]] std::size_t round_nnz(double v) {
  if (v <= 0.0) return 0;
  return static_cast<std::size_t>(std::llround(std::min(v, 9.0e15)));
}

/// Everything the search needs, resolved once per plan_* call: the
/// distinct label universe (order of first appearance), per-label dims
/// and user masks, per-input label masks and index spaces.
struct Ctx {
  const ContractionNetwork* net = nullptr;
  const std::vector<BoundInput>* inputs = nullptr;
  PlanOptions opts;

  std::vector<std::string> labels;
  std::vector<double> label_dim;
  std::vector<Mask> label_users;       // which inputs use each label
  std::vector<LabelMask> input_labels; // which labels each input uses
  std::vector<double> input_space;     // product of the input's dims
  std::vector<Layout> input_layout;    // each input's labels, in order
  Layout output_layout;                // the declared output's labels
};

Ctx make_ctx(const ContractionNetwork& net,
             const std::vector<BoundInput>& inputs,
             const PlanOptions& opts) {
  if (inputs.size() != net.inputs.size()) {
    throw Error("plan: bound-input count (" + std::to_string(inputs.size()) +
                ") does not match the network's operand count (" +
                std::to_string(net.inputs.size()) + ")");
  }
  if (net.inputs.size() > kMaxOperands) {
    throw Error("plan: network has " + std::to_string(net.inputs.size()) +
                " operands; the planner supports at most " +
                std::to_string(kMaxOperands));
  }
  Ctx ctx;
  ctx.net = &net;
  ctx.inputs = &inputs;
  ctx.opts = opts;
  ctx.input_labels.resize(inputs.size());
  ctx.input_space.resize(inputs.size(), 1.0);
  ctx.input_layout.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const NetworkTensor& t = net.inputs[i];
    const BoundInput& b = inputs[i];
    if (b.name != t.name) {
      throw Error("plan: bound input #" + std::to_string(i) + " is '" +
                  b.name + "' but the network names operand '" + t.name +
                  "'");
    }
    if (b.dims.size() != t.labels.size()) {
      throw Error("plan: tensor '" + t.name + "' has " +
                  std::to_string(b.dims.size()) + " modes but the network "
                  "labels " + std::to_string(t.labels.size()));
    }
    for (std::size_t m = 0; m < t.labels.size(); ++m) {
      const std::string& l = t.labels[m];
      const auto it =
          std::find(ctx.labels.begin(), ctx.labels.end(), l);
      std::size_t li;
      if (it == ctx.labels.end()) {
        li = ctx.labels.size();
        if (li >= kMaxLabels) {
          throw Error("plan: network uses more than " +
                      std::to_string(kMaxLabels) + " distinct mode labels");
        }
        ctx.labels.push_back(l);
        ctx.label_dim.push_back(static_cast<double>(b.dims[m]));
        ctx.label_users.push_back(0);
      } else {
        li = static_cast<std::size_t>(it - ctx.labels.begin());
        if (ctx.label_dim[li] != static_cast<double>(b.dims[m])) {
          throw Error("plan: mode label '" + l + "' has dimension " +
                      std::to_string(b.dims[m]) + " in tensor '" + t.name +
                      "' but " +
                      std::to_string(
                          static_cast<std::size_t>(ctx.label_dim[li])) +
                      " elsewhere");
        }
      }
      ctx.input_layout[i].push_back(static_cast<std::uint8_t>(li));
      ctx.label_users[li] |= Mask{1} << i;
      ctx.input_labels[i] |= LabelMask{1} << li;
      ctx.input_space[i] *= static_cast<double>(b.dims[m]);
    }
  }
  for (const std::string& l : net.output_labels) {
    ctx.output_layout.push_back(static_cast<std::uint8_t>(
        std::find(ctx.labels.begin(), ctx.labels.end(), l) -
        ctx.labels.begin()));
  }
  return ctx;
}

/// Labels of the result of contracting subset `s` together: a label
/// survives iff exactly one of its users is inside `s`.
[[nodiscard]] LabelMask result_labels(const Ctx& ctx, Mask s) {
  LabelMask out = 0;
  for (std::size_t li = 0; li < ctx.labels.size(); ++li) {
    if (popcount(ctx.label_users[li] & s) == 1) out |= LabelMask{1} << li;
  }
  return out;
}

[[nodiscard]] double label_space(const Ctx& ctx, LabelMask lm) {
  double space = 1.0;
  for (std::size_t li = 0; li < ctx.labels.size(); ++li) {
    if (lm & (LabelMask{1} << li)) space *= ctx.label_dim[li];
  }
  return space;
}

/// Uniform density propagation: the expected nnz of the subset's
/// result is (product of member nnz) / (space of the labels contracted
/// *within* the subset), capped by the result's index space. For a
/// singleton this reduces to the input's real nnz.
[[nodiscard]] double subset_est_nnz(const Ctx& ctx, Mask s) {
  double raw = 1.0;
  for (std::size_t i = 0; i < ctx.inputs->size(); ++i) {
    if (s & (Mask{1} << i)) {
      raw *= static_cast<double>((*ctx.inputs)[i].nnz);
    }
  }
  double contracted = 1.0;
  for (std::size_t li = 0; li < ctx.labels.size(); ++li) {
    const Mask users = ctx.label_users[li];
    if (popcount(users) == 2 && (users & s) == users) {
      contracted *= ctx.label_dim[li];
    }
  }
  const double free_space = label_space(ctx, result_labels(ctx, s));
  return std::min(free_space, raw / contracted);
}

/// True when the contract labels trail every free label of X's layout:
/// stage ①'s [free…, contract…] order is then X's own, and a sorted X
/// needs a scan instead of a sort.
[[nodiscard]] bool contract_labels_trail(const Layout& lx,
                                         LabelMask shared) {
  bool contract_seen = false;
  for (const std::uint8_t l : lx) {
    if ((shared >> l) & 1) {
      contract_seen = true;
    } else if (contract_seen) {
      return false;
    }
  }
  return true;
}

/// The layout the engine gives a merge's result: X's free labels, then
/// Y's, each in its operand's order.
[[nodiscard]] Layout merged_layout(const Layout& lx, const Layout& ly,
                                   LabelMask shared) {
  Layout out;
  for (const Layout* side : {&lx, &ly}) {
    for (const std::uint8_t l : *side) {
      if (((shared >> l) & 1) == 0) out.push_back(l);
    }
  }
  return out;
}

/// Metrics of one candidate pairwise merge, costed for a given
/// orientation.
struct StepEst {
  double seconds = 0.0;
  std::size_t bytes = 0;       ///< full working set of the step
  std::size_t hash_bytes = 0;  ///< transient Eq.5 + Eq.6 share of bytes
  std::size_t est_out_nnz = 0;
  int num_contract = 0;
};

StepEst cost_step(const Ctx& ctx, Mask x, Mask y, double nnz_x,
                  double nnz_y, double nnz_out, bool x_presorted) {
  const LabelMask lx = result_labels(ctx, x);
  const LabelMask ly = result_labels(ctx, y);
  const LabelMask shared = lx & ly;
  StepEst est;
  est.num_contract = popcount(shared);
  const int order_x = popcount(lx);
  const int order_y = popcount(ly);
  const int num_free_y = order_y - est.num_contract;
  const double contract_space = label_space(ctx, shared);

  // Eq. 5: HtY footprint for the Y side, with the slot count of a swiss
  // table sized for nnz_Y keys (the engine's pre-flight bucket term).
  const std::size_t rounded_y = round_nnz(nnz_y);
  const std::size_t hty = estimate_hty_bytes(
      rounded_y, order_y, simd::detail::swiss_slots_for(rounded_y));
  // Eq. 6 upper bound with uniform group sizes: the largest X
  // sub-tensor / HtY group is estimated as nnz over distinct groups.
  const double free_space_x = label_space(ctx, lx & ~shared);
  const double groups_x = std::max(1.0, std::min(nnz_x, free_space_x));
  const double groups_y = std::max(1.0, std::min(nnz_y, contract_space));
  const auto fmax_x =
      static_cast<std::size_t>(std::ceil(std::max(1.0, nnz_x / groups_x)));
  const auto fmax_y =
      static_cast<std::size_t>(std::ceil(std::max(1.0, nnz_y / groups_y)));
  // The engine sizes HtA from HtY's largest group (contract()'s Eq. 6
  // gate uses the same slot count).
  const std::size_t hta = estimate_hta_bytes(
      fmax_x, fmax_y, num_free_y,
      simd::detail::swiss_slots_for(std::max<std::size_t>(fmax_y, 64)));

  est.est_out_nnz = round_nnz(nnz_out);
  const int order_out = popcount((lx | ly) & ~shared);
  est.hash_bytes = hty + hta;
  est.bytes = coo_bytes(nnz_x, order_x) + coo_bytes(nnz_y, order_y) +
              est.hash_bytes + coo_bytes(nnz_out, order_out);

  // Expected scalar multiplies under the same uniformity assumption.
  const double multiplies = nnz_x * nnz_y / std::max(1.0, contract_space);
  double seconds = kInfCost;
  if (ctx.opts.model != nullptr && !ctx.opts.model->empty()) {
    serve::CostFeatures f;
    f.nnz_x = round_nnz(nnz_x);
    f.nnz_y = rounded_y;
    f.order_y = order_y;
    f.num_contract_modes = est.num_contract;
    f.density_x = std::min(1.0, nnz_x / std::max(1.0, label_space(ctx, lx)));
    f.density_y = std::min(1.0, nnz_y / std::max(1.0, label_space(ctx, ly)));
    for (const Algorithm v : serve::CostModel::kVariants) {
      if (!ctx.opts.model->has(v)) continue;
      seconds = std::min(seconds, ctx.opts.model->predict_seconds(v, f));
    }
  }
  if (seconds == kInfCost) {
    // Analytic proxy: touch every input non-zero once, every expected
    // multiply once, every output non-zero once.
    seconds = 1e-8 * (nnz_x + nnz_y + multiplies + nnz_out);
  }
  // Stage ① sorts X unless it already arrives in its order.
  if (!x_presorted) seconds += kSortedPassSecondsPerNnz * nnz_x;
  est.seconds = seconds;
  return est;
}

/// Per-subtree annotation shared by the search and the emitter.
struct SubInfo {
  double est_nnz = 0.0;
  std::size_t temp_bytes = 0;  ///< COO bytes of the intermediate (0: leaf)
  std::size_t peak = 0;        ///< Sethi–Ullman peak of intermediates
  double seconds = 0.0;        ///< total predicted seconds of the subtree
  bool x_first = true;         ///< evaluate the X side first
};

/// Computes a subtree's annotation from its two annotated children.
/// The peak recurrence considers both evaluation orders: whichever
/// subtree runs second does so with the first one's result resident.
SubInfo combine(const Ctx& ctx, Mask s, double nnz_out, const SubInfo& ix,
                const SubInfo& iy, const StepEst& step) {
  SubInfo out;
  out.est_nnz = nnz_out;
  const bool is_root = s == (Mask{1} << ctx.inputs->size()) - 1;
  // The root result is the request's Z (returned / stored under its own
  // name), not a "__tmp/" intermediate — it does not count toward the
  // intermediate peak.
  out.temp_bytes =
      is_root ? 0
              : coo_bytes(out.est_nnz, popcount(result_labels(ctx, s)));
  const std::size_t live_at_merge =
      ix.temp_bytes + iy.temp_bytes + step.hash_bytes + out.temp_bytes;
  const std::size_t x_first_peak =
      std::max(ix.peak, ix.temp_bytes + iy.peak);
  const std::size_t y_first_peak =
      std::max(iy.peak, iy.temp_bytes + ix.peak);
  out.x_first = x_first_peak <= y_first_peak;
  out.peak =
      std::max(live_at_merge, std::min(x_first_peak, y_first_peak));
  out.seconds = ix.seconds + iy.seconds + step.seconds;
  return out;
}

/// One way to contract a subset: its annotation, its result's layout,
/// and the root step and child states that reach it. The search keeps
/// one State per (subset, layout).
struct State {
  SubInfo info;
  Layout layout;
  StepEst step;                ///< the root step (leaf: unused)
  Mask x = 0;                  ///< X side of the root step; 0 = leaf
  std::uint32_t x_state = 0;   ///< the X side's chosen State
  std::uint32_t y_state = 0;   ///< the Y side's chosen State
  bool x_presorted = false;
  Mask split = 0;              ///< the side holding the lowest operand
  bool legacy = true;          ///< the orientation "hash the smaller" picks
};
using States = std::vector<State>;

[[nodiscard]] State leaf_state(const Ctx& ctx, std::size_t i) {
  State st;
  st.info.est_nnz = static_cast<double>((*ctx.inputs)[i].nnz);
  st.layout = ctx.input_layout[i];
  return st;
}

/// Merges X state `sx` with Y state `sy` into the subset x|y, whose
/// result is expected to hold `nnz_out` non-zeros. At the root, a
/// layout other than the declared output adds the final permute.
State merge(const Ctx& ctx, Mask x, Mask y, const State& sx,
            std::uint32_t x_state, const State& sy, std::uint32_t y_state,
            double nnz_out) {
  const Mask s = x | y;
  const LabelMask shared = result_labels(ctx, x) & result_labels(ctx, y);
  State out;
  out.x = x;
  out.x_state = x_state;
  out.y_state = y_state;
  out.x_presorted = contract_labels_trail(sx.layout, shared);
  out.layout = merged_layout(sx.layout, sy.layout, shared);
  out.step = cost_step(ctx, x, y, sx.info.est_nnz, sy.info.est_nnz,
                       nnz_out, out.x_presorted);
  if (s == (Mask{1} << ctx.inputs->size()) - 1 &&
      out.layout != ctx.output_layout) {
    out.step.seconds += kSortedPassSecondsPerNnz * nnz_out;
  }
  out.info = combine(ctx, s, nnz_out, sx.info, sy.info, out.step);
  out.split = (x & s & (~s + 1)) != 0 ? x : y;
  const bool peers = (popcount(x) == 1) == (popcount(y) == 1);
  out.legacy = !peers || sy.info.est_nnz < sx.info.est_nnz ||
               (sy.info.est_nnz == sx.info.est_nnz && y < x);
  return out;
}

/// Strict preference between two states of one subset: cheaper, then
/// smaller peak, then the lower split mask, then the orientation that
/// hashes the smaller operand (on a tie, the lower mask).
[[nodiscard]] bool better(const State& c, const State& e) {
  if (c.info.seconds != e.info.seconds) {
    return c.info.seconds < e.info.seconds;
  }
  if (c.info.peak != e.info.peak) return c.info.peak < e.info.peak;
  if (c.split != e.split) return c.split < e.split;
  return c.legacy && !e.legacy;
}

/// Keeps `cand` if no state of the subset with its layout is at least
/// as good, and at most kMaxLayoutsPerSubset states in all.
void keep(States& states, State&& cand) {
  for (State& e : states) {
    if (e.layout != cand.layout) continue;
    if (better(cand, e)) e = std::move(cand);
    return;
  }
  states.push_back(std::move(cand));
  if (states.size() > kMaxLayoutsPerSubset) {
    states.erase(std::max_element(states.begin(), states.end(), better));
  }
}

[[nodiscard]] std::uint32_t best_state(const States& states) {
  return static_cast<std::uint32_t>(
      std::min_element(states.begin(), states.end(), better) -
      states.begin());
}

/// Adds to `out` every state of the split {a, b}: each admissible
/// orientation over every pair of child states. An input merged with
/// an intermediate is always Y (its HtY stays in the service's plan
/// cache); between peers both orientations compete. Candidates whose
/// peak exceeds a non-zero `budget` are dropped. Returns whether any
/// candidate fit.
bool add_split(const Ctx& ctx, Mask a, Mask b, const States& sa,
               const States& sb, double nnz_out, std::size_t budget,
               States& out) {
  bool fit = false;
  auto orient = [&](Mask x, Mask y, const States& sx, const States& sy) {
    for (std::uint32_t i = 0; i < sx.size(); ++i) {
      for (std::uint32_t j = 0; j < sy.size(); ++j) {
        State c = merge(ctx, x, y, sx[i], i, sy[j], j, nnz_out);
        if (budget != 0 && c.info.peak > budget) continue;
        fit = true;
        keep(out, std::move(c));
      }
    }
  };
  const bool peers = (popcount(a) == 1) == (popcount(b) == 1);
  if (peers || popcount(b) == 1) orient(a, b, sa, sb);
  if (peers || popcount(a) == 1) orient(b, a, sb, sa);
  return fit;
}

/// A full plan shape: for every internal subset, its root step's X side.
using XSides = std::map<Mask, Mask>;

/// The X sides of the plan that ends in state `k` of `full`, following
/// each state's chosen children. `states_of(s)` returns s's states.
template <typename StatesOf>
XSides chosen_sides(const StatesOf& states_of, Mask full, std::uint32_t k) {
  XSides xs;
  auto collect = [&](auto&& self, Mask s, std::uint32_t i) -> void {
    const State& st = states_of(s)[i];
    if (st.x == 0) return;
    xs[s] = st.x;
    self(self, st.x, st.x_state);
    self(self, s ^ st.x, st.y_state);
  };
  collect(collect, full, k);
  return xs;
}

/// Turns a plan shape into the final NetworkPlan: annotates each
/// subtree, emits steps in the chosen evaluation order, resolves
/// contract-mode positions and the final output permutation.
NetworkPlan emit_plan(const Ctx& ctx, const XSides& xs,
                      const std::string& search) {
  const std::size_t n = ctx.inputs->size();
  NetworkPlan plan;
  plan.search = search;

  std::map<Mask, State> info;
  auto annotate = [&](auto&& self, Mask s) -> const State& {
    const auto it = info.find(s);
    if (it != info.end()) return it->second;
    if (popcount(s) == 1) {
      std::size_t i = 0;
      while ((s & (Mask{1} << i)) == 0) ++i;
      return info.emplace(s, leaf_state(ctx, i)).first->second;
    }
    const Mask x = xs.at(s);
    const State& sx = self(self, x);
    const State& sy = self(self, s ^ x);
    return info
        .emplace(s, merge(ctx, x, s ^ x, sx, 0, sy, 0,
                          subset_est_nnz(ctx, s)))
        .first->second;
  };
  const Mask full = (Mask{1} << n) - 1;
  annotate(annotate, full);

  // Emission: walk the tree in the annotated evaluation order, handing
  // each subtree a node id (inputs: 0..n-1, steps: n, n+1, ...).
  struct Node {
    std::size_t id = 0;
    std::string name;
    std::vector<std::string> labels;
    std::vector<index_t> dims;
  };
  auto emit = [&](auto&& self, Mask s) -> Node {
    if (popcount(s) == 1) {
      std::size_t i = 0;
      while ((s & (Mask{1} << i)) == 0) ++i;
      Node node;
      node.id = i;
      node.name = (*ctx.inputs)[i].name;
      node.labels = ctx.net->inputs[i].labels;
      node.dims = (*ctx.inputs)[i].dims;
      return node;
    }
    const Mask x = xs.at(s);
    const State& st = info.at(s);
    Node nx, ny;
    if (st.info.x_first) {
      nx = self(self, x);
      ny = self(self, s ^ x);
    } else {
      ny = self(self, s ^ x);
      nx = self(self, x);
    }

    PlanStepSpec spec;
    spec.x = nx.id;
    spec.y = ny.id;
    spec.x_name = nx.name;
    spec.y_name = ny.name;
    // einsum convention: scan X's labels in order; each label also in Y
    // becomes the next (cx, cy) pair, the rest stay free.
    for (std::size_t i = 0; i < nx.labels.size(); ++i) {
      const auto it =
          std::find(ny.labels.begin(), ny.labels.end(), nx.labels[i]);
      if (it == ny.labels.end()) continue;
      spec.cx.push_back(static_cast<int>(i));
      spec.cy.push_back(static_cast<int>(it - ny.labels.begin()));
    }
    auto push_free = [&](const Node& node, const Node& other) {
      for (std::size_t i = 0; i < node.labels.size(); ++i) {
        if (std::find(other.labels.begin(), other.labels.end(),
                      node.labels[i]) != other.labels.end()) {
          continue;
        }
        spec.out_labels.push_back(node.labels[i]);
        spec.out_dims.push_back(node.dims[i]);
      }
    };
    push_free(nx, ny);
    push_free(ny, nx);
    spec.x_presorted = st.x_presorted;
    spec.est_nnz = st.step.est_out_nnz;
    spec.est_bytes = st.step.bytes;
    spec.est_seconds = st.step.seconds;

    Node node;
    node.id = n + plan.steps.size();
    node.name = "step" + std::to_string(plan.steps.size());
    node.labels = spec.out_labels;
    node.dims = spec.out_dims;
    plan.steps.push_back(std::move(spec));
    return node;
  };
  const Node root = emit(emit, full);

  plan.est_total_seconds = info.at(full).info.seconds;
  plan.est_peak_bytes = info.at(full).info.peak;

  // Map the declared output-label order onto the last step's order.
  bool identity = root.labels.size() == ctx.net->output_labels.size();
  plan.final_perm.clear();
  for (std::size_t k = 0; k < ctx.net->output_labels.size(); ++k) {
    const auto it = std::find(root.labels.begin(), root.labels.end(),
                              ctx.net->output_labels[k]);
    SPARTA_ASSERT(it != root.labels.end());
    const auto pos = static_cast<int>(it - root.labels.begin());
    if (pos != static_cast<int>(k)) identity = false;
    plan.final_perm.push_back(pos);
  }
  if (identity) plan.final_perm.clear();
  return plan;
}

}  // namespace

std::string NetworkPlan::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("search").value(std::string_view(search));
  w.key("num_steps").value(static_cast<std::uint64_t>(steps.size()));
  auto modes = [&](const char* key, const Modes& m) {
    w.key(key).begin_array();
    for (const int v : m) w.value(v);
    w.end_array();
  };
  w.key("steps").begin_array();
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const PlanStepSpec& s = steps[k];
    w.begin_object();
    w.key("step_index").value(static_cast<std::uint64_t>(k));
    w.key("x").value(std::string_view(s.x_name));
    w.key("y").value(std::string_view(s.y_name));
    modes("cx", s.cx);
    modes("cy", s.cy);
    w.key("x_presorted").value(s.x_presorted);
    w.key("out_labels").begin_array();
    for (const std::string& l : s.out_labels) w.value(std::string_view(l));
    w.end_array();
    w.key("est_nnz").value(static_cast<std::uint64_t>(s.est_nnz));
    w.key("est_bytes").value(static_cast<std::uint64_t>(s.est_bytes));
    w.key("est_seconds").value(s.est_seconds);
    w.end_object();
  }
  w.end_array();
  modes("final_perm", final_perm);
  w.key("est_total_seconds").value(est_total_seconds);
  w.key("est_peak_bytes").value(static_cast<std::uint64_t>(est_peak_bytes));
  w.key("rejected_alternatives").value(rejected_alternatives);
  w.key("budget_pruned").value(budget_pruned);
  w.end_object();
  return w.str();
}

NetworkPlan plan_network(const ContractionNetwork& net,
                         const std::vector<BoundInput>& inputs,
                         const PlanOptions& opts) {
  const Ctx ctx = make_ctx(net, inputs, opts);
  const std::size_t n = inputs.size();
  const Mask full = (Mask{1} << n) - 1;

  if (n > kMaxDpOperands) {
    // Greedy cheapest-connected-merge fallback: no optimality claim,
    // but linear-ish in merges and deterministic. Each merge keeps its
    // cheapest orientation.
    struct Live {
      Mask mask;
      State st;
    };
    std::vector<Live> live;
    for (std::size_t i = 0; i < n; ++i) {
      live.push_back({Mask{1} << i, leaf_state(ctx, i)});
    }
    XSides xs;
    std::uint64_t considered = 0;
    while (live.size() > 1) {
      double best_cost = kInfCost;
      std::size_t bi = 0, bj = 0;
      State best;
      for (std::size_t i = 0; i < live.size(); ++i) {
        for (std::size_t j = i + 1; j < live.size(); ++j) {
          const Mask a = live[i].mask;
          const Mask b = live[j].mask;
          if ((result_labels(ctx, a) & result_labels(ctx, b)) == 0) continue;
          ++considered;
          States cands;
          (void)add_split(ctx, a, b, {live[i].st}, {live[j].st},
                          subset_est_nnz(ctx, a | b), 0, cands);
          for (State& c : cands) {
            if (c.step.seconds < best_cost) {
              best_cost = c.step.seconds;
              bi = i;
              bj = j;
              best = std::move(c);
            }
          }
        }
      }
      SPARTA_ASSERT(best_cost != kInfCost);  // network is connected
      xs[live[bi].mask | live[bj].mask] = best.x;
      live[bi] = {live[bi].mask | live[bj].mask, std::move(best)};
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(bj));
    }
    NetworkPlan plan = emit_plan(ctx, xs, "greedy");
    plan.rejected_alternatives = considered - (n - 1);
    if (opts.budget_bytes != 0 && plan.est_peak_bytes > opts.budget_bytes) {
      throw Error(
          "plan: greedy order's estimated peak intermediate footprint (" +
          std::to_string(plan.est_peak_bytes) + " bytes) exceeds the " +
          std::to_string(opts.budget_bytes) + "-byte budget");
    }
    return plan;
  }

  // Exact bitmask DP over connected subsets and their result layouts.
  // dp[s] holds, per layout, the cheapest way to fully contract subset
  // s; infeasible subsets (disconnected, or every candidate over
  // budget) stay empty.
  std::vector<States> dp(static_cast<std::size_t>(full) + 1);
  for (std::size_t i = 0; i < n; ++i) {
    dp[std::size_t{1} << i].push_back(leaf_state(ctx, i));
  }
  std::uint64_t considered = 0;
  std::uint64_t budget_pruned = 0;
  for (Mask s = 1; s <= full; ++s) {
    if (popcount(s) < 2) continue;
    const double out_nnz = subset_est_nnz(ctx, s);
    // Enumerate proper splits once per unordered pair by anchoring the
    // lowest operand of s on the `a` side.
    const Mask low = s & (~s + 1);
    for (Mask a = (s - 1) & s; a != 0; a = (a - 1) & s) {
      if ((a & low) == 0) continue;
      const Mask b = s ^ a;
      if (dp[a].empty() || dp[b].empty()) continue;
      const LabelMask shared =
          result_labels(ctx, a) & result_labels(ctx, b);
      if (shared == 0) continue;  // would be an outer product
      ++considered;
      if (!add_split(ctx, a, b, dp[a], dp[b], out_nnz, opts.budget_bytes,
                     dp[s])) {
        ++budget_pruned;
      }
    }
  }
  if (dp[full].empty()) {
    if (opts.budget_bytes != 0 && budget_pruned > 0) {
      throw Error("plan: no contraction order fits the " +
                  std::to_string(opts.budget_bytes) +
                  "-byte peak-intermediate budget (" +
                  std::to_string(budget_pruned) +
                  " candidate merges pruned); raise the budget");
    }
    throw Error("plan: network admits no connected contraction order");
  }
  const XSides xs = chosen_sides(
      [&](Mask s) -> const States& { return dp[s]; }, full,
      best_state(dp[full]));
  NetworkPlan plan = emit_plan(ctx, xs, "dp");
  plan.rejected_alternatives =
      considered - static_cast<std::uint64_t>(xs.size());
  plan.budget_pruned = budget_pruned;
  return plan;
}

NetworkPlan plan_fixed_order(const ContractionNetwork& net,
                             const std::vector<BoundInput>& inputs,
                             const std::vector<std::size_t>& order,
                             const PlanOptions& opts) {
  const Ctx ctx = make_ctx(net, inputs, opts);
  const std::size_t n = inputs.size();
  if (order.size() != n) {
    throw Error("plan: fixed order lists " + std::to_string(order.size()) +
                " operands, network has " + std::to_string(n));
  }
  std::vector<bool> seen(n, false);
  for (const std::size_t i : order) {
    if (i >= n || seen[i]) {
      throw Error("plan: fixed order is not a permutation of 0.." +
                  std::to_string(n - 1));
    }
    seen[i] = true;
  }
  // The tree is fixed; only the first step, between two inputs, has
  // an orientation to choose.
  std::map<Mask, States> states;
  for (std::size_t i = 0; i < n; ++i) {
    states[Mask{1} << i].push_back(leaf_state(ctx, i));
  }
  Mask acc = Mask{1} << order[0];
  for (std::size_t k = 1; k < n; ++k) {
    const Mask next = Mask{1} << order[k];
    if ((result_labels(ctx, acc) & result_labels(ctx, next)) == 0) {
      throw Error("plan: fixed order reaches tensor '" +
                  inputs[order[k]].name +
                  "' before any label connects it (outer product)");
    }
    (void)add_split(ctx, acc, next, states.at(acc), states.at(next),
                    subset_est_nnz(ctx, acc | next), 0,
                    states[acc | next]);
    acc |= next;
  }
  const XSides xs = chosen_sides(
      [&](Mask s) -> const States& { return states.at(s); }, acc,
      best_state(states.at(acc)));
  return emit_plan(ctx, xs, "fixed");
}

std::vector<NetworkPlan> enumerate_plans(
    const ContractionNetwork& net, const std::vector<BoundInput>& inputs,
    const PlanOptions& opts) {
  const Ctx ctx = make_ctx(net, inputs, opts);
  const std::size_t n = inputs.size();
  if (n > kMaxEnumerateOperands) {
    throw Error("plan: enumerate_plans supports at most " +
                std::to_string(kMaxEnumerateOperands) + " operands, got " +
                std::to_string(n));
  }
  const Mask full = (Mask{1} << n) - 1;
  // All ways to contract subset s, orientations included, as partial
  // plan shapes.
  auto trees = [&](auto&& self, Mask s) -> std::vector<XSides> {
    if (popcount(s) == 1) return {XSides{}};
    std::vector<XSides> out;
    const Mask low = s & (~s + 1);
    for (Mask a = (s - 1) & s; a != 0; a = (a - 1) & s) {
      if ((a & low) == 0) continue;
      const Mask b = s ^ a;
      if ((result_labels(ctx, a) & result_labels(ctx, b)) == 0) continue;
      const std::vector<XSides> ta = self(self, a);
      const std::vector<XSides> tb = self(self, b);
      const bool peers = (popcount(a) == 1) == (popcount(b) == 1);
      for (const Mask x : {a, b}) {
        if (!peers && popcount(x) == 1) continue;  // inputs stay Y
        for (const XSides& xa : ta) {
          for (const XSides& xb : tb) {
            XSides m = xa;
            m.insert(xb.begin(), xb.end());
            m[s] = x;
            out.push_back(std::move(m));
          }
        }
      }
    }
    return out;
  };
  std::vector<NetworkPlan> plans;
  for (const XSides& m : trees(trees, full)) {
    plans.push_back(emit_plan(ctx, m, "fixed"));
  }
  return plans;
}

}  // namespace sparta::plan
