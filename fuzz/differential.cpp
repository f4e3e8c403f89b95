#include "fuzz/differential.hpp"

#include <bit>
#include <cstdint>
#include <exception>
#include <span>
#include <sstream>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "contraction/contract.hpp"
#include "contraction/contract_csf.hpp"
#include "contraction/plan.hpp"
#include "contraction/reference.hpp"
#include "contraction/resilient.hpp"
#include "contraction/verify.hpp"
#include "simd/dispatch.hpp"
#include "spgemm/spgemm.hpp"
#include "tensor/dense_tensor.hpp"

namespace sparta::fuzz {

namespace {

// Adjacent-row duplicate scan; assumes `z` is sorted.
bool has_duplicate_coords(const SparseTensor& z) {
  const int order = z.order();
  for (std::size_t n = 1; n < z.nnz(); ++n) {
    bool same = true;
    for (int m = 0; m < order; ++m) {
      if (z.index(n - 1, m) != z.index(n, m)) {
        same = false;
        break;
      }
    }
    if (same) return true;
  }
  return false;
}

double cell_count(const SparseTensor& t) {
  double cells = 1.0;
  for (index_t d : t.dims()) cells *= static_cast<double>(d);
  return cells;
}

std::string shape_note(const SparseTensor& z, const SparseTensor& ref) {
  std::ostringstream os;
  os << " (got " << z.summary() << ", oracle " << ref.summary() << ")";
  return os.str();
}

// Bitwise tensor equality: dims, every index column, and exact (not
// tolerance-scaled) value compare. On mismatch returns a description of
// the first differing position; empty string means identical.
std::string bitwise_diff(const SparseTensor& a, const SparseTensor& b) {
  if (a.dims() != b.dims()) {
    return "shapes differ (" + a.summary() + " vs " + b.summary() + ")";
  }
  if (a.nnz() != b.nnz()) {
    return "nnz differs (" + std::to_string(a.nnz()) + " vs " +
           std::to_string(b.nnz()) + ")";
  }
  for (std::size_t n = 0; n < a.nnz(); ++n) {
    for (int m = 0; m < a.order(); ++m) {
      if (a.index(n, m) != b.index(n, m)) {
        return "index [" + std::to_string(n) + "][" + std::to_string(m) +
               "] differs (" + std::to_string(a.index(n, m)) + " vs " +
               std::to_string(b.index(n, m)) + ")";
      }
    }
    if (a.value(n) != b.value(n)) {
      return "value [" + std::to_string(n) + "] differs (" +
             std::to_string(a.value(n)) + " vs " +
             std::to_string(b.value(n)) + ")";
    }
  }
  return {};
}

// A plan's HtY flattened in for_each_group order: key, group size, then
// each item's free key and value bits.
std::vector<std::uint64_t> hty_groups(const YPlan& plan) {
  std::vector<std::uint64_t> out;
  plan.hty().for_each_group(
      [&](lnkey_t key, std::span<const FreeItem> items) {
        out.push_back(key);
        out.push_back(items.size());
        for (const FreeItem& it : items) {
          out.push_back(it.free_key);
          out.push_back(std::bit_cast<std::uint64_t>(it.val));
        }
      });
  return out;
}

// Every algorithm path of contract(): the SPA, and the swiss HtA behind
// each of the three Y-access policies.
constexpr Algorithm kAlgos[] = {Algorithm::kSpa, Algorithm::kCooHta,
                                Algorithm::kSparta, Algorithm::kCooBinary};

}  // namespace

DiffReport run_differential(const FuzzCase& c, const DiffOptions& opts) {
  DiffReport rep;
  auto fail = [&rep](std::string variant, std::string what) {
    rep.findings.push_back({std::move(variant), std::move(what)});
  };

  // Ground truth. A throw here means the generator produced an invalid
  // case — itself a bug worth reporting.
  SparseTensor ref;
  try {
    ref = contract_reference(c.x, c.y, c.cx, c.cy);
  } catch (const std::exception& e) {
    fail("oracle", std::string("contract_reference threw: ") + e.what());
    return rep;
  }

  const bool computed = !c.x.empty() && !c.y.empty();

  // approx_equal compares canonical (sorted, coalesced) forms, so legal
  // duplicate Z coordinates from duplicate-coordinate inputs are merged
  // before the comparison.
  auto compare = [&](const std::string& name, const SparseTensor& z) {
    if (!SparseTensor::approx_equal(z, ref, opts.tolerance)) {
      fail(name, "disagrees with the brute-force oracle" +
                     shape_note(z, ref));
    }
  };

  auto check_pipeline_invariants = [&](const std::string& name,
                                       const ContractResult& r,
                                       bool searches_are_per_nnz) {
    if (!r.z.is_sorted()) {
      fail(name, "output is not sorted despite sort_output=true");
    }
    if (!c.has_duplicates && has_duplicate_coords(r.z)) {
      fail(name, "output contains duplicate coordinates");
    }
    if (r.stats.nnz_x != c.x.nnz() || r.stats.nnz_y != c.y.nnz()) {
      fail(name, "stats.nnz_x/nnz_y do not echo the inputs");
    }
    if (r.stats.nnz_z != r.z.nnz()) {
      fail(name, "stats.nnz_z=" + std::to_string(r.stats.nnz_z) +
                     " but z.nnz()=" + std::to_string(r.z.nnz()));
    }
    if (searches_are_per_nnz &&
        r.stats.searches != (computed ? c.x.nnz() : 0)) {
      fail(name, "stats.searches=" + std::to_string(r.stats.searches) +
                     " != nnz_x=" + std::to_string(computed ? c.x.nnz() : 0));
    }
    if (r.stats.hits > r.stats.searches) {
      fail(name, "stats.hits exceeds stats.searches");
    }
    if (r.stats.nnz_z > r.stats.multiplies && computed) {
      fail(name, "stats.nnz_z exceeds stats.multiplies");
    }
  };

  // --- the four pipeline variants --------------------------------------
  for (Algorithm alg : kAlgos) {
    const std::string name{algorithm_name(alg)};
    try {
      ContractOptions o;
      o.algorithm = alg;
      o.num_threads = opts.num_threads;
      const ContractResult r = contract(c.x, c.y, c.cx, c.cy, o);
      ++rep.variants_run;
      check_pipeline_invariants(name, r, /*searches_are_per_nnz=*/true);
      compare(name, r.z);
    } catch (const std::exception& e) {
      fail(name, std::string("threw: ") + e.what());
    }
  }

  // --- prebuilt-plan entry point and the CSF path ----------------------
  // The plan is built at 1 and at 4 threads: the bulk build's groups
  // (content and visit order) and the contraction through them must not
  // depend on the build's thread count.
  try {
    const YPlan plan(c.y, c.cy, /*num_threads=*/1);
    const YPlan plan4(c.y, c.cy, /*num_threads=*/4);
    if (hty_groups(plan) != hty_groups(plan4)) {
      fail("YPlan", "1- and 4-thread builds hold different groups");
    }
    {
      const ContractResult r = contract(c.x, plan, c.cx);
      ++rep.variants_run;
      check_pipeline_invariants("YPlan", r, true);
      compare("YPlan", r.z);
      const std::string diff =
          bitwise_diff(r.z, contract(c.x, plan4, c.cx).z);
      if (!diff.empty()) {
        fail("YPlan", "output through the 4-thread build differs: " + diff);
      }
    }
    {
      const ContractResult r = contract_csf(c.x, plan, c.cx);
      ++rep.variants_run;
      // CSF pre-merges duplicate X coordinates, so its search count is
      // the distinct-coordinate count; only check when no dups exist.
      check_pipeline_invariants("CSF", r, !c.has_duplicates);
      compare("CSF", r.z);
    }
  } catch (const std::exception& e) {
    fail("YPlan/CSF", std::string("threw: ") + e.what());
  }

  // --- SpGEMM lowering (2-D, single contract mode) ---------------------
  if (c.x.order() == 2 && c.y.order() == 2 && c.cx.size() == 1) {
    try {
      CsrMatrix a = CsrMatrix::from_coo(c.x);
      if (c.cx[0] == 0) a = a.transposed();  // contract X's rows: use Xᵀ
      CsrMatrix b = CsrMatrix::from_coo(c.y);
      if (c.cy[0] == 1) b = b.transposed();  // contract Y's cols: use Yᵀ
      for (SpgemmAccumulator acc :
           {SpgemmAccumulator::kDenseSpa, SpgemmAccumulator::kHash}) {
        for (SpgemmSizing sz :
             {SpgemmSizing::kProgressive, SpgemmSizing::kTwoPhase}) {
          SpgemmOptions so;
          so.accumulator = acc;
          so.sizing = sz;
          so.num_threads = opts.num_threads;
          const CsrMatrix cmat = spgemm(a, b, so);
          ++rep.variants_run;
          const std::string name =
              std::string("SpGEMM[") +
              std::string(spgemm_accumulator_name(acc)) + "," +
              std::string(spgemm_sizing_name(sz)) + "]";
          compare(name, cmat.to_coo());
        }
      }
    } catch (const std::exception& e) {
      fail("SpGEMM", std::string("threw: ") + e.what());
    }
  }

  // --- dense oracle (small index spaces only) --------------------------
  if (opts.check_dense && cell_count(c.x) <= opts.dense_cell_limit &&
      cell_count(c.y) <= opts.dense_cell_limit &&
      cell_count(ref) <= opts.dense_cell_limit) {
    try {
      const DenseTensor dx = DenseTensor::from_sparse(c.x);
      const DenseTensor dy = DenseTensor::from_sparse(c.y);
      const DenseTensor dz = contract_dense(dx, dy, c.cx, c.cy);
      ++rep.variants_run;
      // The dense path accumulates duplicates on scatter, so no coalesce
      // subtleties; compare its extraction directly against the oracle.
      if (!SparseTensor::approx_equal(dz.to_sparse(), ref,
                                      opts.tolerance)) {
        fail("dense", "disagrees with the brute-force oracle");
      }
    } catch (const std::exception& e) {
      fail("dense", std::string("threw: ") + e.what());
    }
  }

  // --- determinism: repeat run and cross-thread agreement --------------
  try {
    ContractOptions o1;
    o1.num_threads = 1;
    const SparseTensor za = contract_tensor(c.x, c.y, c.cx, c.cy, o1);
    const SparseTensor zb = contract_tensor(c.x, c.y, c.cx, c.cy, o1);
    ++rep.variants_run;
    if (!SparseTensor::approx_equal(za, zb, 0.0)) {
      fail("determinism", "two identical 1-thread runs differ");
    }
    ContractOptions o3;
    o3.num_threads = 3;
    const SparseTensor zc = contract_tensor(c.x, c.y, c.cx, c.cy, o3);
    if (!SparseTensor::approx_equal(za, zc, 1e-12)) {
      fail("determinism", "1-thread and 3-thread results differ");
    }
  } catch (const std::exception& e) {
    fail("determinism", std::string("threw: ") + e.what());
  }

  // --- unsorted output: per-variant, bitwise -------------------------
  // Stage ⑤ only orders each X sub-tensor's run, and the gather always
  // lays runs out in sub-tensor order. So the unsorted output must not
  // depend on the thread count, and sorting it must give the sorted
  // output exactly.
  for (const Algorithm alg : kAlgos) {
    const std::string name = std::string(algorithm_name(alg)) + "[unsorted]";
    try {
      ContractOptions o;
      o.algorithm = alg;
      o.sort_output = false;
      o.num_threads = 1;
      SparseTensor z1 = contract_tensor(c.x, c.y, c.cx, c.cy, o);
      o.num_threads = 4;
      const SparseTensor z4 = contract_tensor(c.x, c.y, c.cx, c.cy, o);
      o.sort_output = true;
      const SparseTensor zs = contract_tensor(c.x, c.y, c.cx, c.cy, o);
      ++rep.variants_run;
      std::string diff = bitwise_diff(z1, z4);
      if (!diff.empty()) {
        fail(name, "1- and 4-thread outputs differ: " + diff);
      }
      z1.sort();
      diff = bitwise_diff(z1, zs);
      if (!diff.empty()) {
        fail(name, "sorted output is not the sorted unsorted output: " +
                       diff);
      }
    } catch (const std::exception& e) {
      fail(name, std::string("threw: ") + e.what());
    }
  }

  // --- Freivalds-style probabilistic verifier --------------------------
  if (computed) {
    try {
      ContractOptions o;
      o.num_threads = opts.num_threads;
      const SparseTensor z = contract_tensor(c.x, c.y, c.cx, c.cy, o);
      VerifyOptions vo;
      vo.seed = c.seed ^ 0xf00dULL;
      ++rep.variants_run;
      if (!verify_contraction(c.x, c.y, c.cx, c.cy, z, vo)) {
        fail("freivalds", "probabilistic verifier rejected Sparta output");
      }
    } catch (const std::exception& e) {
      fail("freivalds", std::string("threw: ") + e.what());
    }
  }

  return rep;
}

DiffReport run_isa_differential(const FuzzCase& c) {
  DiffReport rep;
  auto fail = [&rep](std::string variant, std::string what) {
    rep.findings.push_back({std::move(variant), std::move(what)});
  };

  // Every algorithm path, replayed scalar-vs-native with a BITWISE
  // compare. Single-threaded, so the ISA is the only variable.
  for (const Algorithm alg : kAlgos) {
    const std::string name{algorithm_name(alg)};
    try {
      ContractOptions o;
      o.algorithm = alg;
      o.num_threads = 1;
      SparseTensor z_scalar;
      {
        simd::ScopedIsaOverride force(simd::SimdIsa::kScalar);
        z_scalar = contract_tensor(c.x, c.y, c.cx, c.cy, o);
      }
      SparseTensor z_native;
      {
        simd::ScopedIsaOverride force(simd::detect_native_isa());
        z_native = contract_tensor(c.x, c.y, c.cx, c.cy, o);
      }
      ++rep.variants_run;
      const std::string diff = bitwise_diff(z_scalar, z_native);
      if (!diff.empty()) {
        fail(name, "scalar and " +
                       std::string(simd::isa_name(simd::detect_native_isa())) +
                       " outputs are not bitwise identical: " + diff);
      }
    } catch (const std::exception& e) {
      fail(name, std::string("threw: ") + e.what());
    }
  }
  return rep;
}

namespace {

// One deterministic failpoint schedule: which sites are armed and how.
struct Schedule {
  struct Entry {
    const char* site;
    failpoint::Spec spec;
  };
  std::vector<Entry> entries;
  std::size_t budget_bytes = 0;  ///< 0 = no budget this schedule

  [[nodiscard]] std::string describe() const {
    std::string s;
    for (const Entry& e : entries) {
      if (!s.empty()) s += ";";
      s += e.site;
      switch (e.spec.action) {
        case failpoint::Action::kBadAlloc:
          s += "=bad_alloc";
          break;
        case failpoint::Action::kError:
          s += "=error";
          break;
        case failpoint::Action::kBudget:
          s += "=budget";
          break;
      }
      s += '@';
      s += std::to_string(e.spec.fire_on);
      s += 'x';
      s += e.spec.times == 0 ? "*" : std::to_string(e.spec.times);
    }
    if (budget_bytes != 0) {
      s += " budget=";
      s += std::to_string(budget_bytes);
    }
    return s;
  }

  void arm() const {
    for (const Entry& e : entries) failpoint::arm(e.site, e.spec);
  }
};

Schedule draw_schedule(std::uint64_t case_seed, int index, bool try_budget) {
  Rng rng(case_seed ^ (0xFA117ULL * static_cast<std::uint64_t>(index + 1)));
  Schedule sched;
  constexpr std::size_t kNumSites =
      sizeof(failpoint::kContractSites) / sizeof(const char*);
  const std::size_t n = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n; ++i) {
    Schedule::Entry e;
    e.site = failpoint::kContractSites[rng.uniform(kNumSites)];
    e.spec.action = static_cast<failpoint::Action>(rng.uniform(3));
    e.spec.fire_on = 1 + rng.uniform(4);
    const std::uint64_t t = rng.uniform(10);
    e.spec.times = t < 7 ? 1 : (t < 9 ? 2 : 0);  // 0 = every hit
    sched.entries.push_back(e);
  }
  if (try_budget && (rng.uniform(2) == 1)) {
    // 4 KB … 4 MB: small enough to trip real charges on fuzz-sized
    // cases, large enough that some rung usually fits.
    sched.budget_bytes = std::size_t{4096} << rng.uniform(11);
  }
  return sched;
}

// Disarms every failpoint on scope exit, exception or not.
struct DisarmGuard {
  ~DisarmGuard() { failpoint::disarm_all(); }
};

}  // namespace

DiffReport run_fault_injection(const FuzzCase& c, const FaultOptions& opts) {
  DiffReport rep;
  auto fail = [&rep](std::string variant, std::string what) {
    rep.findings.push_back({std::move(variant), std::move(what)});
  };

  // Oracle runs with no faults armed.
  failpoint::disarm_all();
  SparseTensor ref;
  try {
    ref = contract_reference(c.x, c.y, c.cx, c.cy);
  } catch (const std::exception& e) {
    fail("oracle", std::string("contract_reference threw: ") + e.what());
    return rep;
  }

  for (int i = 0; i < opts.schedules; ++i) {
    const Schedule sched = draw_schedule(c.seed, i, opts.try_budget);
    const std::string tag = "fault[" + std::to_string(i) + "]";
    ContractOptions o;
    o.num_threads = opts.num_threads;
    o.budget.bytes = sched.budget_bytes;

    // contract_resilient(): correct (possibly degraded) result, or
    // sparta::Error. Nothing else may escape.
    {
      DisarmGuard guard;
      sched.arm();
      try {
        const ResilientResult r =
            contract_resilient(c.x, c.y, c.cx, c.cy, o);
        ++rep.variants_run;
        if (!SparseTensor::approx_equal(r.result.z, ref, opts.tolerance)) {
          fail(tag, "degraded result (rung " +
                        r.report.serving().describe() +
                        ") disagrees with the oracle; schedule " +
                        sched.describe() + shape_note(r.result.z, ref));
        }
      } catch (const Error&) {
        ++rep.variants_run;  // exhausting the ladder is a legal outcome
      } catch (const std::bad_alloc&) {
        fail(tag, "std::bad_alloc escaped contract_resilient; schedule " +
                      sched.describe());
      } catch (const std::exception& e) {
        fail(tag, std::string("unexpected exception escaped "
                              "contract_resilient: ") +
                      e.what() + "; schedule " + sched.describe());
      }
    }

    // Plain contract(): may fail with sparta::Error or std::bad_alloc,
    // but a success must be correct (faults abort work, never corrupt
    // it) and nothing else may escape the parallel regions.
    {
      DisarmGuard guard;
      sched.arm();
      try {
        const ContractResult r = contract(c.x, c.y, c.cx, c.cy, o);
        ++rep.variants_run;
        if (!SparseTensor::approx_equal(r.z, ref, opts.tolerance)) {
          fail(tag, "contract() survived injection but disagrees with "
                    "the oracle; schedule " +
                        sched.describe() + shape_note(r.z, ref));
        }
      } catch (const Error&) {
        ++rep.variants_run;
      } catch (const std::bad_alloc&) {
        ++rep.variants_run;
      } catch (const std::exception& e) {
        fail(tag,
             std::string("unexpected exception escaped contract(): ") +
                 e.what() + "; schedule " + sched.describe());
      }
    }
  }
  return rep;
}

}  // namespace sparta::fuzz
