"""Timing wrappers around the public functions of each freemoment module.

The benchmark traces from outside the program: ``Tracer.install`` rebinds
each target function to a wrapper, in the module that defines it and in
every freemoment module that imported it by name (``transport.log_neumann``
is the same object as ``ncseries.log_neumann``).  A wrapper appends one span
``[name, start, end, parent, op, extra]`` to an in-memory list; the list is
written out once, at the end of the run.  ``aggregate`` turns spans into the
per-layer metrics: inclusive seconds, self seconds and call counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> public functions timed in it; a classmethod is named "Class.method"
# here and "module.method" in the spans
TARGETS = {
    "ncseries": ["tensor_multiply", "log_neumann", "multiply", "substitute",
                 "trace_contract"],
    "transport": ["solve_V", "picard_map", "verify_transport"],
    "sdmoments": ["solve_sd", "pushforward_trace", "sd_residual"],
    "moment1d": ["minimize_F", "particle_objective", "verify_solution"],
    "gibbs1d": ["free_gibbs_measure", "solve_radius", "fourier_coefficients",
                "hilbert_residual"],
    "measure1d": ["GridMeasure.from_callable", "hilbert_transform", "log_energy",
                  "pushforward_monotone", "quantile", "wasserstein2_sq",
                  "displacement_interpolate"],
}


def _terms(args, result):
    a, b = args[0], args[1]
    return (len(a.terms) * len(b.terms), len(result.terms))


def _iterations(args, result):
    return (result.iterations,)


def _inner_iterations(diagnostics, seen):
    # separable solves nest one diagnostics dict per variable, and variables
    # with the same one-variable problem share one solve and one dict
    if id(diagnostics) in seen:
        return 0
    seen.add(id(diagnostics))
    total = sum(diagnostics.get("inner_iterations", []))
    return total + sum(_inner_iterations(d, seen) for d in diagnostics.get("components", []))


def _solve_v_extra(args, result):
    return (_inner_iterations(result.diagnostics, set()),)


# extra counts taken from a call's arguments and result: name -> (fields, fn)
EXTRAS = {
    "ncseries.tensor_multiply": (("pairs", "kept"), _terms),
    "moment1d.minimize_F": (("iterations",), _iterations),
    "transport.solve_V": (("inner_iterations",), _solve_v_extra),
}


class Tracer:
    """Span recorder; ``op`` is the id of the operation being run."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra_fn = EXTRAS[name][1] if name in EXTRAS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra_fn is not None:
                span[5] = extra_fn(args, result)
            return result

        return wrapper

    def install(self):
        """Rebind every target in all loaded freemoment modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "freemoment" or k.startswith("freemoment."))]
        for modname, names in TARGETS.items():
            home = sys.modules[f"freemoment.{modname}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    span_name = f"{modname}.{meth}"
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(span_name, orig.__func__)))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, qual)
                wrapper = self._wrap(f"{modname}.{qual}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def aggregate(spans):
    """Per operation id, per span name: calls, inclusive s (outermost spans
    only), self_s, and the summed extra counts (outermost spans only)."""
    out = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for idx, (name, t0, t1, parent, op, extra) in enumerate(spans):
        row = out[op][name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child_time[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent >= 0:
            continue  # nested inside a call of the same function
        row["s"] += t1 - t0
        if extra is not None:
            for field, value in zip(EXTRAS[name][0], extra):
                row[field] = row.get(field, 0) + value
    return {op: dict(rows) for op, rows in out.items()}
