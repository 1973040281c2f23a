"""One benchmark process: set up one workload, warm it up, then measure it.

Started by run.py, never by hand.  Its last line of output is one JSON
object with the raw results, which run.py turns into the benchmark's result
line.

Set-up is everything between the interpreter's start and the first timed
operation: `import freemoment`, drawing the inputs and one untimed warm-up
pass.  The warm-up pass runs cycle 0, on inputs of its own, so caches are
warm when timing starts, as in a parameter sweep; ``workloads.warmup_ops``
says which operations of it run on cli_cold and transport_nc.

In window mode the timed window runs whole cycles (cycles 1, 2, ...) until
--seconds have passed.  A traced run (--trace 1 of run.py) starts two
workers that run the same fixed number of cycles after the same set-up, one
plainly and one with the tracer installed, so the per-layer counts repeat
exactly for a seed and the ratio of their times is the tracing overhead.
"""

from __future__ import annotations

import os

# pin every BLAS/OpenMP pool to one thread before NumPy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# NumPy, freemoment and workloads (which imports freemoment) are imported
# inside functions, after main has timed `import freemoment`
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"

# per-layer metrics: name -> (unit, span name, field); fields are summed
# over the traced pass and divided by its number of operations
SPAN_METRICS = {
    "ncseries.tensor_multiply.calls": ("count", "ncseries.tensor_multiply", "calls"),
    "ncseries.tensor_multiply.s": ("s", "ncseries.tensor_multiply", "s"),
    "ncseries.tensor_multiply.pairs": ("count", "ncseries.tensor_multiply", "pairs"),
    "ncseries.log_neumann.s": ("s", "ncseries.log_neumann", "s"),
    "ncseries.multiply.s": ("s", "ncseries.multiply", "s"),
    "ncseries.substitute.s": ("s", "ncseries.substitute", "s"),
    "ncseries.trace_contract.s": ("s", "ncseries.trace_contract", "s"),
    "transport.solve_V.s": ("s", "transport.solve_V", "s"),
    "transport.solve_V.self_s": ("s", "transport.solve_V", "self_s"),
    "transport.picard_map.calls": ("count", "transport.picard_map", "calls"),
    "transport.picard_map.s": ("s", "transport.picard_map", "s"),
    "transport.verify_transport.s": ("s", "transport.verify_transport", "s"),
    "transport.inner_iterations": ("count", "transport.solve_V", "inner_iterations"),
    "sdmoments.solve_sd.calls": ("count", "sdmoments.solve_sd", "calls"),
    "sdmoments.solve_sd.s": ("s", "sdmoments.solve_sd", "s"),
    "sdmoments.pushforward_trace.s": ("s", "sdmoments.pushforward_trace", "s"),
    "sdmoments.sd_residual.s": ("s", "sdmoments.sd_residual", "s"),
    "moment1d.minimize_F.s": ("s", "moment1d.minimize_F", "s"),
    "moment1d.minimize_F.iterations": ("count", "moment1d.minimize_F", "iterations"),
    "moment1d.particle_objective.calls": ("count", "moment1d.particle_objective", "calls"),
    "moment1d.verify_solution.s": ("s", "moment1d.verify_solution", "s"),
    "gibbs1d.free_gibbs_measure.s": ("s", "gibbs1d.free_gibbs_measure", "s"),
    "gibbs1d.solve_radius.s": ("s", "gibbs1d.solve_radius", "s"),
    "gibbs1d.fourier_coefficients.calls": ("count", "gibbs1d.fourier_coefficients", "calls"),
    "gibbs1d.hilbert_residual.s": ("s", "gibbs1d.hilbert_residual", "s"),
    "measure1d.from_callable.s": ("s", "measure1d.from_callable", "s"),
    "measure1d.hilbert_transform.s": ("s", "measure1d.hilbert_transform", "s"),
    "measure1d.hilbert_transform.calls": ("count", "measure1d.hilbert_transform", "calls"),
    "measure1d.log_energy.s": ("s", "measure1d.log_energy", "s"),
    "measure1d.pushforward_monotone.s": ("s", "measure1d.pushforward_monotone", "s"),
    "measure1d.quantile.s": ("s", "measure1d.quantile", "s"),
    "measure1d.wasserstein2_sq.s": ("s", "measure1d.wasserstein2_sq", "s"),
    "measure1d.displacement_interpolate.s": ("s", "measure1d.displacement_interpolate", "s"),
}
CLI_COMMANDS = ("gibbs1d", "moment1d", "transport-nc", "verify")
# printed per problem family by a traced run, to tell the families apart
FAMILY_FIELDS = ("transport.solve_V.s", "transport.picard_map.calls",
                 "transport.picard_map.s", "ncseries.tensor_multiply.s",
                 "sdmoments.solve_sd.s", "moment1d.minimize_F.s",
                 "moment1d.minimize_F.iterations", "gibbs1d.free_gibbs_measure.s")


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("window", "plain", "traced"), required=True,
                   help="window: whole cycles for --seconds; plain, traced: the "
                        "fixed cycles of a traced run, without and with the tracer")
    p.add_argument("--t0", type=float, required=True,
                   help="wall-clock time at which run.py started this process")
    p.add_argument("--probe", action="store_true",
                   help="stop once the inputs are drawn (a set-up time sample)")
    return p.parse_args(argv)


class Runner:
    """Runs cycles of one workload and records every operation."""

    def __init__(self, name, seed):
        import numpy as np

        from workloads import IN_PROCESS_OPS, WORKLOADS

        self.name = name
        self.seed = seed
        self._draw = WORKLOADS[name]
        self._op = IN_PROCESS_OPS.get(name)
        self._rng = np.random.default_rng
        self.work = WORK_DIR / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.failures = []

    def draw(self, cycle):
        return self._draw(self._rng([self.seed, cycle]))

    def run(self, ops, trace_dir=None, start=0):
        """Run ops in order; returns one record per operation."""
        from workloads import run_cli_op

        records = []
        for k, (kind, param) in enumerate(ops, start=start):
            rec = {"kind": kind}
            t = time.perf_counter()
            try:
                if self._op is not None:
                    ok, note = self._op(kind, param)
                else:
                    path = None if trace_dir is None else trace_dir / f"op{k}.json"
                    ok, note, rec["bytes"] = run_cli_op(
                        param, self.work, self.env, path)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                ok, note = False, f"{type(exc).__name__}: {exc}"
            rec["s"] = time.perf_counter() - t
            rec["ok"] = ok
            if not ok:
                self.failures.append(f"{self.name}/{kind}: {note}")
            records.append(rec)
        return records

    def cycles(self, first, count=None, seconds=None):
        """Whole cycles from ``first``: ``count`` of them, or as many as it
        takes to pass ``seconds``.  Returns (records, wall seconds)."""
        records = []
        cycle = first
        start = time.perf_counter()
        while True:
            ops = self.draw(cycle)
            records += self.run(ops)
            cycle += 1
            elapsed = time.perf_counter() - start
            if (count is not None and cycle - first >= count) or \
                    (seconds is not None and elapsed >= seconds):
                return records, elapsed


def _peak_rss_mb(name):
    # cli_cold does its work in child interpreters: report the largest of them
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _traced(runner, import_s):
    """Run the fixed cycles with the tracer; returns (records, wall s,
    per-layer metrics, a few of them per problem family)."""
    from tracer import Tracer, aggregate
    from workloads import TRACE_CYCLES

    trace_dir = runner.work / f"trace-{runner.seed}"
    trace_dir.mkdir(exist_ok=True)
    for old in trace_dir.iterdir():
        old.unlink()
    records = []
    cycles = range(1, TRACE_CYCLES[runner.name] + 1)
    if runner.name == "cli_cold":
        start = time.perf_counter()
        for cycle in cycles:
            records += runner.run(runner.draw(cycle), trace_dir, start=len(records))
        elapsed = time.perf_counter() - start
        dumps = [json.loads((trace_dir / f"op{k}.json").read_text())
                 for k in range(len(records))]
        op_rows = [aggregate(d["spans"]).get(0, {}) for d in dumps]
        cli = {"import_s": statistics.mean(d["import_s"] for d in dumps)}
        for cmd in CLI_COMMANDS:
            spent = [d["cmd_s"] for d in dumps if d["command"] == cmd]
            cli[cmd] = statistics.mean(spent) if spent else 0.0
    else:
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            for cycle in cycles:
                for op in runner.draw(cycle):
                    tracer.op += 1
                    records += runner.run([op])
        finally:
            elapsed = time.perf_counter() - start
            tracer.uninstall()
        tracer.dump(trace_dir / "spans.jsonl")
        by_op = aggregate(tracer.spans)
        op_rows = [by_op.get(k, {}) for k in range(len(records))]
        cli = {"import_s": import_s, **{cmd: 0.0 for cmd in CLI_COMMANDS}}

    rows = _merge(op_rows)
    families = {}
    for rec, op_row in zip(records, op_rows):
        families.setdefault(rec["kind"], []).append(op_row)
    by_family = {kind: {f"{span}.{field}": value / len(ops)
                        for span, row in _merge(ops).items()
                        for field, value in row.items()
                        if f"{span}.{field}" in FAMILY_FIELDS}
                 for kind, ops in families.items()}
    n = len(records)
    metrics = {}
    for name, (unit, span, field) in SPAN_METRICS.items():
        metrics[name] = (rows.get(span, {}).get(field, 0) / n, unit)
    tm = rows.get("ncseries.tensor_multiply", {})
    metrics["ncseries.tensor_multiply.kept_ratio"] = (
        tm["kept"] / tm["pairs"] if tm.get("pairs") else 0.0, "ratio")
    mf = rows.get("moment1d.minimize_F", {})
    po = rows.get("moment1d.particle_objective", {})
    metrics["moment1d.accept_ratio"] = (
        mf["iterations"] / po["calls"] if po.get("calls") else 0.0, "ratio")
    metrics["cli.import_s"] = (cli["import_s"], "s")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.cmd_s.{cmd}"] = (cli[cmd], "s")
    metrics["cli.out_bytes"] = (sum(r.get("bytes", 0) for r in records) / n, "bytes")
    return records, elapsed, metrics, by_family


def _merge(row_dicts):
    out = {}
    for rows in row_dicts:
        for name, row in rows.items():
            acc = out.setdefault(name, {})
            for field, value in row.items():
                acc[field] = acc.get(field, 0) + value
    return out


def main(argv=None):
    args = _parse(argv)
    t = time.perf_counter()
    import freemoment  # noqa: F401 - timed: the import is part of set-up

    import_s = time.perf_counter() - t
    from workloads import TRACE_CYCLES, warmup_ops

    runner = Runner(args.workload, args.seed)
    warm_ops = warmup_ops(args.workload, runner.draw(0))
    inputs_ready_s = time.time() - args.t0
    if args.probe:
        print(json.dumps({"inputs_ready_s": inputs_ready_s}))
        return 0

    t = time.perf_counter()
    runner.run(warm_ops)
    warmup_s = time.perf_counter() - t
    warm_failures, runner.failures = runner.failures, []

    metrics, by_family = {}, {}
    if args.mode == "window":
        records, elapsed = runner.cycles(1, seconds=args.seconds)
    elif args.mode == "plain":
        records, elapsed = runner.cycles(1, count=TRACE_CYCLES[args.workload])
    else:
        records, elapsed, metrics, by_family = _traced(runner, import_s)

    import numpy
    import scipy

    print(json.dumps({
        "inputs_ready_s": inputs_ready_s,
        "warmup_s": warmup_s,
        "elapsed_s": elapsed,
        "ops": [[r["kind"], r["s"], r["ok"]] for r in records],
        "peak_rss_mb": _peak_rss_mb(args.workload),
        "failures": runner.failures,
        "warmup_failures": warm_failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "by_family": by_family,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
