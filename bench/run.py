"""Benchmark of freemoment: time to a verified solution, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
Workloads (see BENCHMARK.json for why each exists): line_forward,
line_inverse, transport_nc, cli_cold.  Operations run one at a time in a
closed loop, one client: the next starts when the previous one has finished
and been checked.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (solves_per_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones from a traced run, plus trace_overhead.  Earlier
lines, starting with "#", give the median seconds per operation overall
(solve_s.p50) and per family, and record the machine and the Python, NumPy
and SciPy versions, which belong to every result: numbers from different
machines are not comparable.

Exits 2 without a result when the checkout holds no freemoment sources or an
argument is invalid, and 1 when a benchmark process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("line_forward", "line_inverse", "transport_nc", "cli_cold")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# set-up samples per run: the worker's own and this many fresh interpreters
# that stop once their inputs are drawn
SETUP_PROBES = 2
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # fixed string hashing, so set iteration order cannot move exact counts
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, mode, env, deadline, probe=False):
    """Run worker.py in its own session; returns its parsed last line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(time.time())]
    if probe:
        cmd.append("--probe")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        raise BenchError(f"{args.workload} overran {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _latency_lines(ops):
    """Median seconds per operation, overall and per family, with counts;
    the 90th percentile only when at least ten operations lie above it."""
    times = [s for _, s, _ in ops]
    by_kind = {}
    for kind, s, _ in ops:
        by_kind.setdefault(kind, []).append(s)
    parts = ", ".join(f"{k} {statistics.median(v):.3f} s (n={len(v)})"
                      for k, v in by_kind.items())
    p90 = (f"solve_s.p90 = {statistics.quantiles(times, n=10)[-1]:.4f} s"
           if len(times) >= 100 else
           f"solve_s.p90 left out: {len(times)} operations leave fewer than ten above it")
    return [f"# solve_s.p50 = {statistics.median(times):.4f} s over {len(times)} "
            f"operations; per family: {parts}", f"# {p90}"]


def _machine(versions):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, **versions}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("seed must be >= 0 and seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "freemoment" / "__init__.py").is_file():
        print(f"no freemoment sources under {SRC}", file=sys.stderr)
        return 2

    env = _env()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = _worker(args, "plain", env, deadline)
            res = _worker(args, "traced", env, deadline)
            runs = [plain, res]
        else:
            res = _worker(args, "window", env, deadline)
            ready = [res["inputs_ready_s"]]
            for _ in range(SETUP_PROBES):
                ready.append(_worker(args, "window", env, deadline,
                                     probe=True)["inputs_ready_s"])
            runs = [res]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for run in runs for op in run["ops"]]
    failed = sum(not ok for _, _, ok in ops)
    if args.trace:
        metrics = res["metrics"]
        # same operations after the same set-up: the ratio of rates is a
        # ratio of times
        metrics["trace_overhead"] = {"value": plain["elapsed_s"] / res["elapsed_s"],
                                     "unit": "ratio"}
    else:
        metrics = {
            # every completed operation counts, so which seeds hit a failing
            # input does not move throughput; failures are reported in "failed"
            "solves_per_s": {"value": len(ops) / res["elapsed_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(ready) + res["warmup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    print("# machine " + json.dumps(_machine(res["versions"]), sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: attempted={len(ops)} "
          f"failed={failed} warmup_s={res['warmup_s']:.3f}"
          + ("" if args.trace else f" setup_samples={[round(r, 3) for r in ready]}"))
    for line in _latency_lines(runs[0]["ops"]):
        print(line)
    for kind, values in res["by_family"].items():
        print(f"# traced, per {kind} operation: "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items()))
    for run in runs:
        for note in run["failures"]:
            print(f"# failed {note}")
        for note in run["warmup_failures"]:
            print(f"# failed in the untimed warm-up: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
