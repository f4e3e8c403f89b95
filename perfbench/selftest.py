#!/usr/bin/env python3
"""Self-test of the repository benchmark at a tiny input size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py --tiny untraced and
traced and checks that
  * the last stdout line is the result object, correct, with no failed
    operation (error rate 0);
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed, finite, with its unit, and nothing else;
  * the context stamp names the SIMD tier, thread count, nproc, build
    type and source identity;
  * the traced run's per-layer timings add up to the operation time
    they decompose, and its span file is a well-formed tree;
and that run.py fails without a result in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 1 on any failure.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
STAGES = ("contraction.input_ms", "contraction.search_ms",
          "contraction.accumulate_ms", "contraction.writeback_ms",
          "contraction.sort_ms")
CONTEXT_KEYS = ("simd_isa", "threads", "nproc", "build_type", "git_sha",
                "src_digest")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def close(a, b, rel, what):
    check(abs(a - b) <= rel * max(abs(a), abs(b), 1e-9),
          f"{what}: {a:.6g} vs {b:.6g} (tolerance {rel:.0%})")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--tiny"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=600)
    check(r.returncode == 0, f"{workload} trace={trace} exit code "
          f"{r.returncode}: {r.stderr[-800:]}")
    lines = r.stdout.rstrip("\n").split("\n")
    ctx = [json.loads(l.split(" ", 1)[1]) for l in lines
           if l.startswith("context ")]
    return json.loads(lines[-1]), (ctx[0] if ctx else {})


def check_metrics(workload, result, specs):
    metrics = result["metrics"]
    check(set(metrics) == {s["name"] for s in specs},
          f"{workload}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ {s['name'] for s in specs})}")
    for s in specs:
        m = metrics.get(s["name"])
        if m is None:
            continue
        check(isinstance(m["value"], (int, float)) and
              math.isfinite(m["value"]),
              f"{workload}: {s['name']} is not a finite number")
        check(m["unit"] == s["unit"],
              f"{workload}: {s['name']} unit {m['unit']} != {s['unit']}")


def check_decomposition(workload, m):
    v = {k: x["value"] for k, x in m.items()}
    op = v["obs.op_mean_ms"]
    stages = sum(v[s] for s in STAGES)
    check(op > 0, f"{workload}: traced run timed no operation")
    if workload == "engine_sweep":
        # contract() wall = five stages + unattributed
        close(stages + v["contraction.unattributed_ms"], op, 0.001,
              f"{workload}: stages + unattributed vs op time")
    else:
        # served exec = stages + what the service does around them
        close(stages + v["serve.exec_outside_stages_ms"],
              v["serve.exec_ms"], 0.001,
              f"{workload}: stages + outside-stages vs exec")
    if workload == "serve_repeated_y":
        close(v["serve.queue_ms"] + v["serve.exec_ms"] +
              v["serve.overhead_ms"], op, 0.001,
              f"{workload}: queue + exec + overhead vs submit->ready")
    if workload == "network_chain":
        # plan-cache lookups on hits are the only untimed part
        parts = (v["plan.parse_ms"] + v["plan.search_ms"] +
                 v["plan.steps_ms"] + v["plan.rollup_ms"])
        close(parts, op, 0.10, f"{workload}: plan parts vs op time")
        close(v["plan.steps_ms"], v["serve.queue_ms"] + v["serve.exec_ms"],
              0.001, f"{workload}: steps vs queue + exec")


def check_trace(workload):
    path = ROOT / ".bench_build" / "traces" / f"{workload}-seed7.json"
    check(path.is_file(), f"{workload}: no span file at {path}")
    if not path.is_file():
        return
    events = json.loads(path.read_text())["traceEvents"]
    check(len(events) > 0, f"{workload}: span file is empty")
    for i, e in enumerate(events):
        p = e["args"].get("parent")
        if p is not None and not (0 <= p < i):
            check(False, f"{workload}: span {i} has bad parent {p}")
            return
        if e["dur"] < 0:
            check(False, f"{workload}: span {i} has negative duration")
            return


def check_bare_directory():
    """run.py must fail without a result where the library is absent."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                        "engine_sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True,
                       cwd=bare, timeout=180)
    check(r.returncode != 0, "bare directory: run.py exited 0")
    check('"metrics"' not in r.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace, specs in ((0, spec["end_to_end"]),
                             (1, spec["per_layer"])):
            result, ctx = run(w, trace)
            check(result.get("correct") is True, f"{w}: correct is false")
            check(result.get("attempted", 0) >= 1, f"{w}: nothing attempted")
            check(result.get("failed") == 0,
                  f"{w}: {result.get('failed')} failed operations")
            for k in CONTEXT_KEYS:
                check(k in ctx, f"{w}: context stamp lacks {k}")
            check_metrics(w, result, specs)
            if trace:
                check_decomposition(w, result["metrics"])
                check_trace(w)
            else:
                check(result["metrics"]["success_rate"]["value"] == 1.0,
                      f"{w}: error rate is not 0")
        print(f"ok {w}")
    check_bare_directory()
    print("ok bare directory")
    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
