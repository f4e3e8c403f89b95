#include "fuzz/network.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "plan/einsum.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "serve/service.hpp"

namespace sparta::fuzz {

namespace {

/// Label names a, b, c, ... (the generator never needs more than ~12).
std::string label_name(std::size_t i) {
  return std::string(1, static_cast<char>('a' + i));
}

struct DrawnOperand {
  std::vector<std::size_t> labels;  ///< label ids, in mode order
};

/// Fills `t` with `want` distinct random cells valued with exact small
/// integers. Retry-bounded; tiny dense tensors may end up with fewer
/// non-zeros than asked, which is fine for the differential.
void fill_tensor(Rng& rng, SparseTensor& t, std::size_t want) {
  const auto& dims = t.dims();
  std::set<std::uint64_t> seen;
  std::vector<index_t> c(dims.size());
  std::size_t attempts = 0;
  while (t.nnz() < want && attempts < want * 20 + 64) {
    ++attempts;
    std::uint64_t key = 0;
    for (std::size_t m = 0; m < dims.size(); ++m) {
      c[m] = static_cast<index_t>(rng.uniform(dims[m]));
      key = key * dims[m] + c[m];
    }
    if (!seen.insert(key).second) continue;
    t.append(c, static_cast<value_t>(1 + rng.uniform(4)));
  }
  t.sort();
}

/// Sorted copy for order-independent comparison (engine outputs are
/// sorted already, but the final permute re-sorts only when non-empty;
/// normalizing here keeps the comparison assumption-free).
SparseTensor sorted_copy(const SparseTensor& t) {
  SparseTensor s(t);
  s.sort();
  return s;
}

/// Bitwise comparison; returns a description of the first difference or
/// an empty string when identical.
std::string diff_tensors(const SparseTensor& a, const SparseTensor& b) {
  if (a.dims() != b.dims()) return "result dims differ";
  if (a.nnz() != b.nnz()) {
    return "nnz " + std::to_string(a.nnz()) + " vs " +
           std::to_string(b.nnz());
  }
  for (std::size_t n = 0; n < a.nnz(); ++n) {
    for (int m = 0; m < a.order(); ++m) {
      if (a.index(n, m) != b.index(n, m)) {
        return "coordinate mismatch at non-zero " + std::to_string(n);
      }
    }
    if (a.value(n) != b.value(n)) {  // exact compare: integers
      return "value mismatch at non-zero " + std::to_string(n) + " (" +
             std::to_string(a.value(n)) + " vs " +
             std::to_string(b.value(n)) + ")";
    }
  }
  return {};
}

/// The network as an einsum spec ("ab,bc->ac"); the generator's labels
/// are single letters.
std::string einsum_spec(const plan::ContractionNetwork& net) {
  std::string spec;
  for (const plan::NetworkTensor& t : net.inputs) {
    if (!spec.empty()) spec += ',';
    for (const std::string& l : t.labels) spec += l;
  }
  spec += "->";
  for (const std::string& l : net.output_labels) spec += l;
  return spec;
}

std::string order_string(const plan::NetworkPlan& p) {
  std::string s;
  for (const plan::PlanStepSpec& st : p.steps) {
    if (!s.empty()) s += "; ";
    s += st.x_name + "*" + st.y_name;
  }
  return s;
}

}  // namespace

std::string NetworkCase::label() const {
  std::ostringstream os;
  os << "seed=" << seed << " " << expr << " nnz={";
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    os << (i ? "," : "") << tensors[i].nnz();
  }
  os << "}";
  return os.str();
}

NetworkCase draw_network_case(std::uint64_t seed,
                              const NetworkLimits& limits) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xa076'1d64'78bd'642fULL);
  NetworkCase c;
  c.seed = seed;

  const std::size_t n =
      3 + rng.uniform(std::max<std::size_t>(1, limits.max_operands - 2));
  std::vector<DrawnOperand> ops(n);
  std::vector<index_t> label_dims;
  std::vector<int> label_users;  // how many operands use each label

  auto new_label = [&](index_t dim) {
    label_dims.push_back(dim);
    label_users.push_back(0);
    return label_dims.size() - 1;
  };
  auto attach = [&](std::size_t op, std::size_t lbl) {
    ops[op].labels.push_back(lbl);
    ++label_users[lbl];
  };

  // Connectivity spine: operand i shares a fresh label with a random
  // earlier operand, so the network is connected by construction.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rng.uniform(i);
    const std::size_t lbl =
        new_label(2 + static_cast<index_t>(rng.uniform(limits.max_dim - 1)));
    attach(j, lbl);
    attach(i, lbl);
  }
  // Extra contracted pairs (multi-mode contractions, cycles).
  const std::size_t extra = rng.uniform(n - 1);
  for (std::size_t e = 0; e < extra; ++e) {
    const std::size_t i = rng.uniform(n);
    std::size_t j = rng.uniform(n);
    if (i == j) continue;
    const std::size_t lbl =
        new_label(2 + static_cast<index_t>(rng.uniform(limits.max_dim - 1)));
    attach(i, lbl);
    attach(j, lbl);
  }
  // Free labels: each operand gets 0–2, so outputs have shape.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t frees = rng.uniform(3);
    for (std::size_t f = 0; f < frees; ++f) {
      attach(i, new_label(2 + static_cast<index_t>(
                                  rng.uniform(limits.max_dim - 1))));
    }
  }
  // The output must have at least one mode (no scalar results).
  if (std::count(label_users.begin(), label_users.end(), 1) == 0) {
    attach(rng.uniform(n),
           new_label(2 + static_cast<index_t>(
                             rng.uniform(limits.max_dim - 1))));
  }
  // Shuffle each operand's mode order: the planner's cx/cy and the
  // final permutation must survive arbitrary layouts.
  for (DrawnOperand& op : ops) {
    for (std::size_t i = op.labels.size(); i > 1; --i) {
      std::swap(op.labels[i - 1], op.labels[rng.uniform(i)]);
    }
  }

  // Spell the expression. Free labels (exactly one user) form the
  // output, in shuffled order.
  std::vector<std::size_t> out;
  for (std::size_t l = 0; l < label_users.size(); ++l) {
    if (label_users[l] == 1) out.push_back(l);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.uniform(i)]);
  }
  std::ostringstream ex;
  ex << "Z[";
  for (std::size_t i = 0; i < out.size(); ++i) {
    ex << (i ? "," : "") << label_name(out[i]);
  }
  ex << "] =";
  for (std::size_t i = 0; i < n; ++i) {
    ex << (i ? " * T" : " T") << i << "[";
    for (std::size_t m = 0; m < ops[i].labels.size(); ++m) {
      ex << (m ? "," : "") << label_name(ops[i].labels[m]);
    }
    ex << "]";
  }
  c.expr = ex.str();
  c.net = plan::parse_network(c.expr);

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<index_t> dims;
    dims.reserve(ops[i].labels.size());
    double cells = 1.0;
    for (const std::size_t l : ops[i].labels) {
      dims.push_back(label_dims[l]);
      cells *= static_cast<double>(label_dims[l]);
    }
    SparseTensor t(std::move(dims));
    std::size_t want =
        1 + rng.uniform(std::min<std::uint64_t>(
                limits.max_nnz, static_cast<std::uint64_t>(cells)));
    if (rng.uniform(16) == 0) want = 0;  // empty-operand corner
    fill_tensor(rng, t, want);
    c.tensors.push_back(std::move(t));
  }
  return c;
}

DiffReport run_network_differential(const NetworkCase& c) {
  DiffReport rep;
  serve::ServeConfig cfg;
  cfg.num_workers = 1;
  serve::ContractionService svc(cfg);
  std::vector<plan::BoundInput> inputs;
  for (std::size_t i = 0; i < c.net.inputs.size(); ++i) {
    svc.load(c.net.inputs[i].name, SparseTensor(c.tensors[i]));
    plan::BoundInput b;
    b.name = c.net.inputs[i].name;
    b.dims = c.tensors[i].dims();
    b.nnz = c.tensors[i].nnz();
    inputs.push_back(std::move(b));
  }
  plan::PlanExecutor exec(svc);

  // Reference: the planner's own searched order.
  const plan::PlanExecution searched = exec.run(c.net);
  ++rep.variants_run;
  if (!searched.ok() || searched.z == nullptr) {
    rep.findings.push_back(
        {"planner", "searched order failed: " + searched.error});
    return rep;
  }
  const SparseTensor ref = sorted_copy(*searched.z);

  // einsum searches the same network with plan_network but runs its
  // steps with contract() directly, outside the service.
  ++rep.variants_run;
  try {
    const std::string diff =
        diff_tensors(ref, einsum(einsum_spec(c.net), c.tensors));
    if (!diff.empty()) {
      rep.findings.push_back({"einsum", diff + " vs searched order"});
    }
  } catch (const std::exception& e) {
    rep.findings.push_back({"einsum", std::string("failed: ") + e.what()});
  }

  std::vector<plan::NetworkPlan> all =
      plan::enumerate_plans(c.net, inputs);
  if (all.empty()) {
    rep.findings.push_back(
        {"planner", "enumerate_plans returned no legal order"});
    return rep;
  }
  double best_est = all.front().est_total_seconds;
  for (const plan::NetworkPlan& p : all) {
    best_est = std::min(best_est, p.est_total_seconds);
  }
  // The search must agree with enumeration about the optimum: both
  // walk the same cost model, so a gap means the DP recurrence and the
  // tree enumeration disagree about some step's cost or legality.
  if (searched.plan != nullptr &&
      searched.plan->est_total_seconds > best_est * 1.000001) {
    rep.findings.push_back(
        {"planner",
         "searched order estimate " +
             std::to_string(searched.plan->est_total_seconds) +
             "s exceeds best enumerated " + std::to_string(best_est) +
             "s"});
  }

  for (std::size_t o = 0; o < all.size(); ++o) {
    auto p = std::make_shared<plan::NetworkPlan>(all[o]);
    const plan::PlanExecution ex = exec.run_plan(c.net, p);
    ++rep.variants_run;
    if (!ex.ok() || ex.z == nullptr) {
      rep.findings.push_back(
          {"order " + std::to_string(o) + " (" + order_string(*p) + ")",
           "execution failed: " + ex.error});
      continue;
    }
    const std::string diff = diff_tensors(ref, sorted_copy(*ex.z));
    if (!diff.empty()) {
      rep.findings.push_back(
          {"order " + std::to_string(o) + " (" + order_string(*p) + ")",
           diff + " vs searched order"});
    }
  }
  return rep;
}

std::string dump_network_case(const NetworkCase& c) {
  std::ostringstream os;
  os << "  expr: " << c.expr << "\n";
  for (std::size_t i = 0; i < c.tensors.size(); ++i) {
    const SparseTensor& t = c.tensors[i];
    os << "  " << c.net.inputs[i].name << " dims=";
    for (int m = 0; m < t.order(); ++m) {
      os << (m ? "x" : "") << t.dim(m);
    }
    os << " nnz=" << t.nnz() << "\n";
    for (std::size_t n = 0; n < t.nnz(); ++n) {
      os << "    (";
      for (int m = 0; m < t.order(); ++m) {
        os << (m ? "," : "") << t.index(n, m);
      }
      os << ") = " << t.value(n) << "\n";
    }
  }
  return os.str();
}

NetworkCase minimize_network(
    const NetworkCase& c,
    const std::function<bool(const NetworkCase&)>& still_fails,
    int* predicate_calls) {
  NetworkCase best = c;
  int calls = 0;
  const int budget = 250;

  // Drop a contiguous [lo, lo+len) run of non-zeros from tensor ti.
  const auto without = [](const NetworkCase& base, std::size_t ti,
                          std::size_t lo, std::size_t len) {
    NetworkCase cand = base;
    const SparseTensor& src = base.tensors[ti];
    SparseTensor t(src.dims());
    std::vector<index_t> coords(static_cast<std::size_t>(src.order()));
    for (std::size_t n = 0; n < src.nnz(); ++n) {
      if (n >= lo && n < lo + len) continue;
      src.coords(n, coords);
      t.append(coords, src.value(n));
    }
    cand.tensors[ti] = std::move(t);
    return cand;
  };

  bool shrunk = true;
  while (shrunk && calls < budget) {
    shrunk = false;
    for (std::size_t ti = 0; ti < best.tensors.size(); ++ti) {
      for (std::size_t len = std::max<std::size_t>(
               1, best.tensors[ti].nnz() / 2);
           len >= 1 && calls < budget; len /= 2) {
        for (std::size_t lo = 0; lo + len <= best.tensors[ti].nnz() &&
                                 calls < budget;) {
          const NetworkCase cand = without(best, ti, lo, len);
          ++calls;
          if (still_fails(cand)) {
            best = cand;
            shrunk = true;
          } else {
            lo += len;
          }
        }
        if (len == 1) break;
      }
    }
  }
  if (predicate_calls != nullptr) *predicate_calls = calls;
  return best;
}

}  // namespace sparta::fuzz
