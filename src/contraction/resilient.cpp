#include "contraction/resilient.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace sparta {

namespace {

// Memory "weight" of each algorithm: a rung may only degrade to a
// strictly lighter one. kSparta carries HtY + HtA; the COO variants
// carry HtA only; kSpa carries the (lightest) sparse accumulator.
int weight(Algorithm a) {
  switch (a) {
    case Algorithm::kSparta:
      return 3;
    case Algorithm::kCooBinary:
    case Algorithm::kCooHta:
      return 2;
    case Algorithm::kSpa:
      return 1;
  }
  return 1;
}

// Per-rung options: same budget/threads/registry, different algorithm.
// Sparta-only knobs must be cleared off-rung or validate() rejects them.
ContractOptions rung_options(const ContractOptions& base, Algorithm a) {
  ContractOptions o = base;
  o.algorithm = a;
  if (a != Algorithm::kSparta) o.hty_charged_externally = false;
  return o;
}

// X[begin, end) as a standalone tensor with X's shape. Contraction is
// linear in X, so contracting the pieces and summing the Zs is exact
// (floating-point association aside).
SparseTensor nnz_chunk(const SparseTensor& x, std::size_t begin,
                       std::size_t end) {
  SparseTensor c(x.dims());
  c.reserve(end - begin);
  std::vector<index_t> coord(static_cast<std::size_t>(x.order()));
  for (std::size_t i = begin; i < end; ++i) {
    x.coords(i, coord);
    c.append_unchecked(coord, x.value(i));
  }
  return c;
}

// Folds one chunk's counters into the merged result.
void merge_stats(ContractResult& into, const ContractResult& piece) {
  into.stage_times += piece.stage_times;
  into.stats.searches += piece.stats.searches;
  into.stats.hits += piece.stats.hits;
  into.stats.multiplies += piece.stats.multiplies;
  into.stats.num_x_subtensors += piece.stats.num_x_subtensors;
  into.stats.hta_bytes = std::max(into.stats.hta_bytes,
                                  piece.stats.hta_bytes);
  into.stats.zlocal_bytes = std::max(into.stats.zlocal_bytes,
                                     piece.stats.zlocal_bytes);
}

}  // namespace

std::string RungAttempt::describe() const {
  std::string s(algorithm_name(algorithm));
  if (chunks > 1) {
    s += " [" + std::to_string(chunks) + " chunks]";
  }
  return s;
}

std::string ResilienceReport::summary() const {
  std::string s;
  for (const RungAttempt& a : attempts) {
    if (!s.empty()) s += "; ";
    s += a.describe();
    s += a.succeeded ? ": ok" : ": " + a.error;
  }
  return s;
}

ResilientResult contract_resilient(const SparseTensor& x,
                                   const SparseTensor& y, const Modes& cx,
                                   const Modes& cy,
                                   const ContractOptions& opts) {
  // Deterministic input errors are not rung failures: reject them before
  // the ladder so they surface identically to contract().
  opts.validate();
  (void)validate_modes(x, y, cx, cy);

  ResilientResult out;

  // Runs one configuration, recording the attempt. Returns true on
  // success; false on a recoverable failure (budget, allocation, or
  // sparta::Error raised mid-attempt, e.g. an injected fault).
  // Cancelled is deliberately NOT caught: a deadline or cancel must
  // abort the whole ladder — degrading to a lighter algorithm cannot
  // recover exhausted time — so it unwinds through here untouched.
  auto attempt = [&](const ContractOptions& o, std::size_t chunks,
                     auto&& body) {
    RungAttempt rec;
    rec.algorithm = o.algorithm;
    rec.chunks = chunks;
    // One span per ladder rung; the name carries the rung description
    // ("HtY+HtA", "COOY+SPA [4 chunks]", ...) so a trace shows the
    // degradation path at a glance. Built only when some recorder —
    // full trace or flight ring — will keep it.
    obs::Span sp(obs::TraceRecorder::global(),
                 obs::trace_enabled() || obs::flight_enabled()
                     ? "rung:" + rec.describe()
                     : std::string());
    SPARTA_COUNTER_ADD("resilient.attempts", 1);
    try {
      out.result = body();
      rec.succeeded = true;
      out.report.attempts.push_back(std::move(rec));
      return true;
    } catch (const BudgetExceeded& e) {
      rec.error = e.what();
    } catch (const Error& e) {
      rec.error = e.what();
    } catch (const std::bad_alloc&) {
      rec.error = "std::bad_alloc";
    }
    SPARTA_COUNTER_ADD("resilient.rung_failures", 1);
    out.report.attempts.push_back(std::move(rec));
    return false;
  };

  // Monolithic rungs: the requested algorithm, then every strictly
  // lighter standard rung in descending weight.
  std::vector<Algorithm> ladder{opts.algorithm};
  for (Algorithm a : {Algorithm::kCooHta, Algorithm::kSpa}) {
    if (weight(a) < weight(opts.algorithm)) ladder.push_back(a);
  }
  for (Algorithm a : ladder) {
    const ContractOptions o = rung_options(opts, a);
    if (attempt(o, 1, [&] { return contract(x, y, cx, cy, o); })) {
      return out;
    }
  }

  // Chunked execution: k nnz-blocks of X, each contracted with the
  // lightest algorithm under the same budget, partial Zs merged with
  // add(). The merged Z itself is not budget-tracked (it is the
  // caller's deliverable); each chunk's working set is.
  const ContractOptions chunk_opts = rung_options(opts, Algorithm::kSpa);
  const std::size_t nnz = x.nnz();
  for (std::size_t k = 2; k <= 256; k *= 2) {
    const std::size_t chunks = std::min(k, std::max<std::size_t>(nnz, 1));
    const bool ok = attempt(chunk_opts, chunks, [&] {
      ContractResult merged;
      merged.stats.nnz_x = nnz;
      merged.stats.nnz_y = y.nnz();
      bool first = true;
      for (std::size_t c = 0; c < chunks; ++c) {
        // Between chunks is the cheapest place to notice a cancel: the
        // per-chunk contract() polls internally too, but this check
        // skips even building the next chunk tensor.
        opts.cancel.check("contract.chunk");
        const std::size_t begin = nnz * c / chunks;
        const std::size_t end = nnz * (c + 1) / chunks;
        ContractResult piece = contract(nnz_chunk(x, begin, end), y, cx,
                                        cy, chunk_opts);
        if (first) {
          merged.z = std::move(piece.z);
          first = false;
        } else {
          merged.z = add(merged.z, piece.z);
        }
        merge_stats(merged, piece);
      }
      merged.stats.nnz_z = merged.z.nnz();
      merged.stats.z_bytes = merged.z.footprint_bytes();
      return merged;
    });
    if (ok) return out;
    // One nnz per chunk is as fine as the partition gets.
    if (chunks >= nnz) break;
  }

  throw Error("contract_resilient: every rung failed under the " +
              std::to_string(opts.budget.bytes) + "-byte budget [" +
              out.report.summary() + "]");
}

}  // namespace sparta
