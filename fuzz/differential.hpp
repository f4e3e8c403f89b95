// Differential execution of one contraction case across every
// implementation in the repository, with invariant checking.
//
// The variants compared (when applicable to the case's shape):
//   * the brute-force pairing oracle (contract_reference) — ground truth
//   * the four ContractAlgo pipeline variants: COOY+SPA, COOY+HtA,
//     HtY+HtA (Sparta) and the binary-search COO extension
//   * the prebuilt-YPlan entry point and the CSF-driven path, with the
//     plan built at 1 and at 4 threads (groups and outputs must be
//     identical)
//   * the SpGEMM lowering (2-D operands, one contract mode; all four
//     accumulator × sizing combinations)
//   * the dense oracle (small index spaces only)
// plus per-variant invariants (sorted output, no duplicate coordinates,
// stats consistency), cross-thread determinism, unsorted outputs that
// are bitwise equal at 1 and 4 threads and sort to the sorted output,
// and the O(nnz) Freivalds-style probabilistic verifier.
#pragma once

#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"

namespace sparta::fuzz {

struct DiffOptions {
  double tolerance = 1e-9;
  int num_threads = 0;     ///< 0 = ambient; the harness also runs 1-thread
  bool check_dense = true; ///< dense oracle on small cases
  /// Cell-count ceiling per tensor for the dense oracle (8 MB of
  /// doubles per operand at the default).
  double dense_cell_limit = 1 << 20;
};

/// One detected disagreement or invariant violation.
struct Finding {
  std::string variant;  ///< which implementation misbehaved
  std::string what;     ///< human-readable description
};

struct DiffReport {
  std::vector<Finding> findings;
  int variants_run = 0;
  [[nodiscard]] bool ok() const { return findings.empty(); }
};

/// Runs every applicable variant of `c` and cross-checks results.
/// Never throws on mismatches (they become findings); exceptions thrown
/// by a variant are caught and reported as findings too.
[[nodiscard]] DiffReport run_differential(const FuzzCase& c,
                                          const DiffOptions& opts = {});

/// Differential ISA sweep (`fuzz_sptc --isa-diff`): replays `c` through
/// every algorithm twice — SPARTA_SIMD forced to scalar, then to this
/// machine's native tier — and demands BITWISE identical outputs (exact
/// value compare, not tolerance). Runs single-threaded so the ISA is the
/// only variable.
[[nodiscard]] DiffReport run_isa_differential(const FuzzCase& c);

struct FaultOptions {
  double tolerance = 1e-9;
  int num_threads = 0;  ///< 0 = ambient
  int schedules = 4;    ///< random failpoint schedules per case
  bool try_budget = true;  ///< half the schedules also set a tight budget
};

/// Fault-injection mode (`fuzz_sptc --inject-alloc-failures`): derives
/// `opts.schedules` deterministic failpoint schedules from the case
/// seed — random sites, actions (bad_alloc / sparta::Error / budget),
/// hit indices and repeat counts, optionally plus a tight MemoryBudget —
/// and drives both contract_resilient() and plain contract() through
/// each. Findings:
///   * contract_resilient() must either return a result matching the
///     brute-force oracle (possibly served by a degraded rung) or throw
///     sparta::Error; an escaping std::bad_alloc is a bug.
///   * plain contract() may fail with sparta::Error or std::bad_alloc,
///     but when it succeeds its result must match the oracle (injected
///     faults may abort work, never corrupt it).
/// Leaks and std::terminate are caught by the sanitizer jobs running
/// this mode in CI.
[[nodiscard]] DiffReport run_fault_injection(const FuzzCase& c,
                                             const FaultOptions& opts = {});

}  // namespace sparta::fuzz
