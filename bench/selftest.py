"""Self-test of the benchmark itself, not of freemoment.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

For each workload (default: all in BENCHMARK.json) it checks that
* every run reports correct, with no failed operation;
* a --trace 0 run prints every end-to-end metric of BENCHMARK.json, with its
  unit and a positive value, and nothing else;
* two --trace 1 runs with the same seed print every per-layer metric with
  its unit, and agree exactly on every count (calls, pairs, iterations,
  bytes and the ratios of counts);
and once, that run.py in a directory holding only BENCHMARK.json and the
benchmark's files exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# metrics that are counts or ratios of counts, and must repeat exactly
EXACT_UNITS = {"count", "bytes"}
EXACT_NAMES = {"ncseries.tensor_multiply.kept_ratio", "moment1d.accept_ratio"}


def _run(cwd, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _result(workload, seed, seconds, trace):
    code, out, err = _run(ROOT, workload, seed, seconds, trace)
    if code != 0:
        raise AssertionError(f"run.py exited {code}: {err.strip()[-500:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if set(res) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(res)}")
    # the workloads are chosen so that every operation passes
    if not (1 <= res["attempted"] and res["failed"] == 0 and res["correct"] is True):
        raise AssertionError(f"correct={res['correct']} attempted={res['attempted']} "
                             f"failed={res['failed']}")
    return res


def _check_names(res, spec, positive):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise AssertionError(f"missing {missing} extra {extra} wrong unit {wrong}")
    if positive:
        bad = [k for k, v in res["metrics"].items() if not v["value"] > 0]
        if bad:
            raise AssertionError(f"not positive: {bad}")


def _check(label, fn, failures):
    try:
        fn()
    except (AssertionError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        failures.append(label)
        print(f"[FAIL] {label}: {exc}")
        return
    print(f"[PASS] {label}")


def check_end_to_end(workload, seed, seconds, spec):
    _check_names(_result(workload, seed, seconds, 0), spec["end_to_end"], positive=True)


def check_exact_counts(workload, seed, seconds, spec):
    first = _result(workload, seed, seconds, 1)
    second = _result(workload, seed, seconds, 1)
    _check_names(first, spec["per_layer"], positive=False)
    exact = [k for k, v in first["metrics"].items()
             if v["unit"] in EXACT_UNITS or k in EXACT_NAMES]
    differ = [k for k in exact
              if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
    if differ:
        raise AssertionError(f"counts differ between runs: {differ}")


def check_without_sources(spec):
    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, out, _ = _run(bare, spec["workloads"][0]["name"], 1, 1, 0)
        if code == 0:
            raise AssertionError("exited 0")
        lines = out.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            raise AssertionError("printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="self-test of the benchmark")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    failures = []
    _check("run.py without sources exits non-zero",
           lambda: check_without_sources(spec), failures)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        _check(f"{workload}: end-to-end metrics and units",
               lambda w=workload: check_end_to_end(w, args.seed, seconds, spec), failures)
        _check(f"{workload}: per-layer metrics, units and exact counts",
               lambda w=workload: check_exact_counts(w, args.seed, seconds, spec), failures)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
