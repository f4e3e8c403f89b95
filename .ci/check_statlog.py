#!/usr/bin/env python3
"""Validate a per-request JSONL stat store written by the contraction
service (sparta_serve --statlog / ServeConfig::statlog_path).

Checks, per line: parses as JSON, schema_version == 2, the required
keys are present (including the schema-2 feature/estimator/model
columns), the outcome is one of the known labels, the feature_version
matches the fitter's basis, selector_prior is a known label (and a
"learned" prior always names its model), and the timing fields are
non-negative numbers. Across lines: request_ids are positive and
unique. With --expect-count N the total record count must be exactly N
(the acceptance gate: one record per resolved request). With
--expect-model-id ID every record's model_id must be exactly ID (the
closed-loop gate: the re-served workload ran under the fitted brain).

Usage: check_statlog.py statlog.jsonl [more.jsonl ...]
           [--expect-count N] [--expect-model-id ID]
"""
import json
import sys

REQUIRED_KEYS = [
    "schema_version",
    "feature_version",
    "request_id",
    "x",
    "y",
    "key",
    "cx",
    "cy",
    "num_contract_modes",
    "variant",
    "outcome",
    "cache_hit",
    "plan_cached",
    "degraded",
    "budget_exceeded",
    "simd_isa",
    "model_id",
    "selector_prior",
    "nnz_z",
    "est_hty_bytes",
    "est_hta_bytes",
    "hty_bytes",
    "hta_bytes",
    "pred_seconds",
    "queue_seconds",
    "exec_seconds",
    "cancel_seconds",
    "stages",
    "perf",
]
OUTCOMES = {
    "ok",
    "degraded",
    "rejected",
    "deadline",
    "cancelled",
    "budget",
    "error",
}
PRIORS = {"analytic", "learned"}
TIMING_KEYS = ["queue_seconds", "exec_seconds", "cancel_seconds"]
NONNEG_KEYS = [
    "est_hty_bytes",
    "est_hta_bytes",
    "hty_bytes",
    "hta_bytes",
    "pred_seconds",
]
# The feature basis the offline fitter (tools/sparta_autotune) was
# built against; keep in sync with serve::kCostFeatureVersion.
FEATURE_VERSION = 1


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    paths = []
    expect_count = None
    expect_model_id = None
    args = sys.argv[1:]
    i = 0
    while i < len(args):
        if args[i] == "--expect-count":
            expect_count = int(args[i + 1])
            i += 2
        elif args[i] == "--expect-model-id":
            expect_model_id = args[i + 1]
            i += 2
        else:
            paths.append(args[i])
            i += 1
    if not paths:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    seen_ids = set()
    outcomes = {}
    total = 0
    for path in paths:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{where}: not valid JSON ({e})")
                if not isinstance(rec, dict):
                    fail(f"{where}: record is not an object")
                if rec.get("schema_version") != 2:
                    fail(f"{where}: schema_version != 2")
                missing = [k for k in REQUIRED_KEYS if k not in rec]
                if missing:
                    fail(f"{where}: missing keys {missing}")
                if rec["feature_version"] != FEATURE_VERSION:
                    fail(f"{where}: feature_version "
                         f"{rec['feature_version']!r} != {FEATURE_VERSION}")
                rid = rec["request_id"]
                if not isinstance(rid, int) or rid < 1:
                    fail(f"{where}: request_id must be a positive int, "
                         f"got {rid!r}")
                if rid in seen_ids:
                    fail(f"{where}: duplicate request_id {rid}")
                seen_ids.add(rid)
                outcome = rec["outcome"]
                if outcome not in OUTCOMES:
                    fail(f"{where}: unknown outcome '{outcome}' "
                         f"(expected one of {sorted(OUTCOMES)})")
                prior = rec["selector_prior"]
                if prior not in PRIORS:
                    fail(f"{where}: unknown selector_prior '{prior}' "
                         f"(expected one of {sorted(PRIORS)})")
                if prior == "learned" and not rec["model_id"]:
                    fail(f"{where}: selector_prior is 'learned' but "
                         f"model_id is empty")
                if expect_model_id is not None \
                        and rec["model_id"] != expect_model_id:
                    fail(f"{where}: model_id {rec['model_id']!r} != "
                         f"expected {expect_model_id!r}")
                for key in TIMING_KEYS + NONNEG_KEYS:
                    v = rec[key]
                    if not isinstance(v, (int, float)) or v < 0:
                        fail(f"{where}: {key} must be a non-negative "
                             f"number, got {v!r}")
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                total += 1

    if expect_count is not None and total != expect_count:
        fail(f"expected {expect_count} records, found {total}")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(f"{' '.join(paths)}: OK ({total} records, {summary})")


if __name__ == "__main__":
    main()
