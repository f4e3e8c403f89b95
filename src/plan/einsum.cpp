#include "plan/einsum.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "common/error.hpp"
#include "plan/planner.hpp"
#include "tensor/ops.hpp"

namespace sparta {

namespace {

struct Operand {
  SparseTensor tensor;
  std::string labels;  // one char per mode
};

struct ParsedSpec {
  std::vector<std::string> inputs;
  std::string output;
};

ParsedSpec parse_spec(const std::string& spec, std::size_t num_operands) {
  ParsedSpec p;
  std::string inputs_part = spec;
  const auto arrow = spec.find("->");
  if (arrow != std::string::npos) {
    inputs_part = spec.substr(0, arrow);
    for (char c : spec.substr(arrow + 2)) {
      if (!std::isspace(static_cast<unsigned char>(c))) p.output.push_back(c);
    }
  }

  std::string cur;
  for (char c : inputs_part) {
    if (c == ',') {
      p.inputs.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      SPARTA_CHECK(std::isalpha(static_cast<unsigned char>(c)),
                   std::string("einsum: bad subscript character '") + c +
                       "'");
      cur.push_back(c);
    }
  }
  p.inputs.push_back(cur);
  SPARTA_CHECK(p.inputs.size() == num_operands,
               "einsum: spec names " + std::to_string(p.inputs.size()) +
                   " operands but " + std::to_string(num_operands) +
                   " were given");

  // Count label occurrences; validate per-operand uniqueness.
  std::map<char, int> count;
  for (const std::string& in : p.inputs) {
    std::set<char> seen;
    for (char c : in) {
      SPARTA_CHECK(seen.insert(c).second,
                   std::string("einsum: repeated label '") + c +
                       "' within one operand (traces unsupported)");
      ++count[c];
    }
  }
  for (const auto& [label, n] : count) {
    SPARTA_CHECK(n <= 2, std::string("einsum: label '") + label +
                             "' appears in more than two operands");
  }

  if (arrow == std::string::npos) {
    // Implicit output: once-occurring labels, alphabetical.
    for (const auto& [label, n] : count) {
      if (n == 1) p.output.push_back(label);
    }
  } else {
    std::set<char> out_seen;
    for (char c : p.output) {
      SPARTA_CHECK(std::isalpha(static_cast<unsigned char>(c)),
                   "einsum: bad character in output subscripts");
      SPARTA_CHECK(out_seen.insert(c).second,
                   "einsum: repeated label in output");
      SPARTA_CHECK(count.count(c),
                   std::string("einsum: output label '") + c +
                       "' missing from inputs");
      SPARTA_CHECK(count[c] == 1,
                   std::string("einsum: contracted label '") + c +
                       "' cannot appear in the output");
    }
  }
  SPARTA_CHECK(!p.output.empty(),
               "einsum: the output names no label (a scalar result is "
               "not supported)");
  return p;
}

// Sparse outer product (no shared labels): every pair of non-zeros.
Operand outer_product(const Operand& a, const Operand& b) {
  std::vector<index_t> dims = a.tensor.dims();
  dims.insert(dims.end(), b.tensor.dims().begin(), b.tensor.dims().end());
  SparseTensor out(dims);
  out.reserve(a.tensor.nnz() * b.tensor.nnz());
  std::vector<index_t> ca(static_cast<std::size_t>(a.tensor.order()));
  std::vector<index_t> cb(static_cast<std::size_t>(b.tensor.order()));
  std::vector<index_t> c(dims.size());
  for (std::size_t i = 0; i < a.tensor.nnz(); ++i) {
    a.tensor.coords(i, ca);
    std::copy(ca.begin(), ca.end(), c.begin());
    for (std::size_t j = 0; j < b.tensor.nnz(); ++j) {
      b.tensor.coords(j, cb);
      std::copy(cb.begin(), cb.end(),
                c.begin() + static_cast<std::ptrdiff_t>(ca.size()));
      out.append_unchecked(c, a.tensor.value(i) * b.tensor.value(j));
    }
  }
  return Operand{std::move(out), a.labels + b.labels};
}

// Contracts the connected group `members` (operand indices, ascending,
// two or more) in the order plan::plan_network searches. The group's
// once-occurring labels form the network's output: those einsum keeps
// first, in output order, then those it sums out afterwards.
Operand contract_group(const std::vector<std::size_t>& members,
                       const std::vector<const SparseTensor*>& operands,
                       const ParsedSpec& parsed, const ContractOptions& opts) {
  plan::ContractionNetwork net;
  std::vector<plan::BoundInput> bound;
  std::map<char, int> uses;
  for (std::size_t k = 0; k < members.size(); ++k) {
    const SparseTensor& t = *operands[members[k]];
    plan::NetworkTensor nt;
    nt.name = "T" + std::to_string(k);
    for (char c : parsed.inputs[members[k]]) {
      nt.labels.emplace_back(1, c);
      ++uses[c];
    }
    plan::BoundInput b;
    b.name = nt.name;
    b.dims = t.dims();
    b.nnz = t.nnz();
    bound.push_back(std::move(b));
    net.inputs.push_back(std::move(nt));
  }
  net.output_name = "Z";
  for (char c : parsed.output) {
    if (uses.count(c)) net.output_labels.emplace_back(1, c);
  }
  for (const auto& [c, n] : uses) {
    if (n == 1 && parsed.output.find(c) == std::string::npos) {
      net.output_labels.emplace_back(1, c);
    }
  }
  const plan::NetworkPlan plan = plan::plan_network(net, bound);

  // Node ids follow the planner: members first, then step results. Each
  // intermediate has one consumer and is freed once it has run.
  const std::size_t n = members.size();
  std::vector<SparseTensor> temps(plan.steps.size());
  auto node = [&](std::size_t id) -> const SparseTensor& {
    return id < n ? *operands[members[id]] : temps[id - n];
  };
  for (std::size_t k = 0; k < plan.steps.size(); ++k) {
    const plan::PlanStepSpec& s = plan.steps[k];
    temps[k] = contract_tensor(node(s.x), node(s.y), s.cx, s.cy, opts);
    for (const std::size_t id : {s.x, s.y}) {
      if (id >= n) temps[id - n] = SparseTensor();
    }
  }
  Operand out{std::move(temps.back()), {}};
  for (const std::string& l : plan.steps.back().out_labels) out.labels += l;
  return out;
}

}  // namespace

SparseTensor einsum(const std::string& spec,
                    const std::vector<const SparseTensor*>& operands,
                    const ContractOptions& opts) {
  SPARTA_CHECK(!operands.empty(), "einsum: need at least one operand");
  const ParsedSpec parsed = parse_spec(spec, operands.size());

  // Validate arities and dimension agreement.
  std::map<char, index_t> label_dim;
  for (std::size_t k = 0; k < operands.size(); ++k) {
    const SparseTensor& t = *operands[k];
    const std::string& labels = parsed.inputs[k];
    SPARTA_CHECK(labels.size() == static_cast<std::size_t>(t.order()),
                 "einsum: operand " + std::to_string(k) + " has " +
                     std::to_string(t.order()) + " modes but spec names " +
                     std::to_string(labels.size()));
    for (std::size_t m = 0; m < labels.size(); ++m) {
      const index_t d = t.dim(static_cast<int>(m));
      auto [it, inserted] = label_dim.try_emplace(labels[m], d);
      SPARTA_CHECK(inserted || it->second == d,
                   std::string("einsum: label '") + labels[m] +
                       "' has inconsistent sizes");
    }
  }

  // Connected groups over shared labels, in order of lowest operand.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<bool> grouped(operands.size(), false);
  for (std::size_t k = 0; k < operands.size(); ++k) {
    if (grouped[k]) continue;
    grouped[k] = true;
    std::vector<std::size_t> members{k};
    for (std::size_t next = 0; next < members.size(); ++next) {
      const std::string& labels = parsed.inputs[members[next]];
      for (std::size_t j = k + 1; j < operands.size(); ++j) {
        if (!grouped[j] &&
            labels.find_first_of(parsed.inputs[j]) != std::string::npos) {
          grouped[j] = true;
          members.push_back(j);
        }
      }
    }
    std::sort(members.begin(), members.end());
    groups.push_back(std::move(members));
  }

  // Contract each group, then join the groups by outer products.
  std::vector<Operand> parts;
  for (const std::vector<std::size_t>& g : groups) {
    parts.push_back(g.size() == 1
                        ? Operand{*operands[g[0]], parsed.inputs[g[0]]}
                        : contract_group(g, operands, parsed, opts));
  }
  Operand result = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    result = outer_product(result, parts[i]);
  }

  // Sum out labels absent from the output (once-occurring but dropped).
  for (std::size_t m = 0; m < result.labels.size();) {
    if (parsed.output.find(result.labels[m]) == std::string::npos) {
      result.tensor = reduce_mode(result.tensor, static_cast<int>(m));
      result.labels.erase(m, 1);
    } else {
      ++m;
    }
  }

  // Permute to the requested output order.
  SPARTA_CHECK(result.labels.size() == parsed.output.size(),
               "einsum: internal label bookkeeping mismatch");
  Modes perm;
  for (char c : parsed.output) {
    const auto pos = result.labels.find(c);
    SPARTA_ASSERT(pos != std::string::npos);
    perm.push_back(static_cast<int>(pos));
  }
  result.tensor.permute_modes(perm);
  result.tensor.sort();
  return std::move(result.tensor);
}

SparseTensor einsum(const std::string& spec,
                    const std::vector<SparseTensor>& operands,
                    const ContractOptions& opts) {
  std::vector<const SparseTensor*> ptrs;
  ptrs.reserve(operands.size());
  for (const SparseTensor& t : operands) ptrs.push_back(&t);
  return einsum(spec, ptrs, opts);
}

}  // namespace sparta
