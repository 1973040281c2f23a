"""Command-line front end.

One executable with subcommands:

    freemoment gibbs1d     --even-coeffs 0,0.25 --out sol.json
    freemoment moment1d    --target builtin:semicircle --out sol.json
    freemoment transport-nc --series W.json --degree 10 --out sol.json
    freemoment verify      --solution sol.json [--series W.json]

Exit codes: 0 success, 1 internal error, 2 invalid input (an input file that
is missing or is not JSON included), out-of-regime (any solver error, a solve
that does not converge included), an unconverged moment1d solve, a gibbs1d
solution past verify's residual bounds, or a solution that fails verify.
Every error path prints a structured JSON object {code, message, module},
from ``main`` alone.

The one module that opens files, by ``_read`` and ``_write``.  ``--series``,
``--solution`` and a ``--target`` that is not ``builtin:`` are paths, and
``--even-coeffs`` is one when that file exists: a name that is valid JSON
still names a file.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys

from . import gibbs1d, jsonio, measure1d, moment1d, transport
from .errors import FreeMomentError, InvalidInputError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
# the test and bound each report figure must pass: the residuals of a gibbs1d or
# moment1d solution, a gibbs1d radius condition and a transport moment deviation
PASS_BOUNDS = {
    "hilbert_residual": (operator.lt, 1e-3),
    "sd_scalar_error": (operator.lt, 1e-5),
    "radius_condition": (operator.le, gibbs1d.RADIUS_CONDITION_TOL),
    "max_moment_deviation": (operator.lt, 1e-3),
}


def _read(path):
    """The JSON object in the file at ``path``."""
    with open(path) as fh:
        return jsonio.loads(fh.read())


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _emit(obj, as_json, path=None):
    text = json.dumps(obj, sort_keys=True)
    if path:
        _write(path, text)
    if as_json:
        print(text)


def _load_potential(text):
    if os.path.exists(text):
        return gibbs1d.EvenPotential.from_dict(_read(text))
    return gibbs1d.EvenPotential.parse(text)


def cmd_gibbs1d(args):
    sol = gibbs1d.free_gibbs_measure(_load_potential(args.even_coeffs))
    report = _gibbs_report(sol)
    _emit(dict(sol.to_dict(), hilbert_residual=report["hilbert_residual"],
               sd_scalar=sol.sd_scalar()), args.json, args.out)
    if args.out:
        _write(os.path.splitext(args.out)[0] + ".csv", sol.measure.to_csv())
    if not args.json:
        print(f"radius r = {sol.radius!r}")
        print(f"hilbert residual = {report['hilbert_residual']:.3e}")
    return EXIT_OK if _passes(report) else EXIT_INVALID


def _gibbs_report(sol):
    """The figures of a gibbs1d solution that verify reports and both commands pass."""
    return {"hilbert_residual": gibbs1d.hilbert_residual(sol),
            "sd_scalar_error": abs(sol.sd_scalar() - 1.0),
            "radius_condition": abs(sol.radius * float(sol.fourier[1]) + 2.0)}


def _passes(report):
    """Whether each figure of ``report`` with an entry in PASS_BOUNDS passes it."""
    return all(test(report[key], bound) for key, (test, bound) in PASS_BOUNDS.items()
               if key in report)


def _load_target(text):
    if text.startswith("builtin:"):
        return moment1d.builtin_target(text[len("builtin:"):])
    return measure1d.GridMeasure.from_dict(_read(text))


def cmd_moment1d(args):
    target = _load_target(args.target)
    problem = moment1d.MomentProblem(target, n_particles=args.particles, tol=args.tol)
    sol = moment1d.minimize_F(problem)
    report = moment1d.verify_solution(sol, target)
    out = sol.to_dict()
    out["residuals"] = report
    _emit(out, args.json, args.out)
    if not args.json:
        print(f"functional value = {sol.diagnostics['objective'][-1]!r}")
        print(f"residuals = {report}")
    return EXIT_OK if sol.converged else EXIT_INVALID


def cmd_transport_nc(args):
    W = transport.NCSeries.from_dict(_read(args.series))
    degree = W.max_degree if args.degree is None else args.degree
    problem = transport.TransportProblem(W, degree, tol=args.tol)
    sol = transport.solve_V(problem)
    report = _transport_report(sol, W)
    out = sol.to_dict()
    out["verification"] = report
    _emit(out, args.json, args.out)
    if not args.json:
        print(f"V norm_A = {sol.diagnostics['v_norm_A']!r}")
        print(f"verification = {report}")
    return EXIT_OK if _passes(report) else EXIT_INVALID


def _transport_report(sol, W):
    """The report of ``verify_transport`` to degree min(6, D)."""
    return transport.verify_transport(sol, W, min(6, sol.V.max_degree))


def cmd_verify(args):
    data = _read(args.solution)
    if "radius" in data:
        report = _gibbs_report(gibbs1d.GibbsSolution.from_dict(data))
    elif "V" in data:
        if not args.series:
            raise InvalidInputError("verifying a transport solution needs --series W.json")
        W = transport.NCSeries.from_dict(_read(args.series))
        report = _transport_report(transport.TransportSolution.from_dict(data), W)
    elif "uprime" in data:
        report = moment1d.particle_residuals(*(jsonio.field(data["uprime"], key, jsonio.floats)
                                               for key in ("x", "value")))
    else:
        raise InvalidInputError("unrecognized solution file")
    _emit(report, args.json, args.out)
    if not args.json:
        print(f"verification = {report}")
    return EXIT_OK if _passes(report) else EXIT_INVALID


def build_parser():
    p = argparse.ArgumentParser(prog="freemoment",
                                description="free Gibbs measures, free moment measures, "
                                            "and noncommutative transport")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gibbs1d", help="free Gibbs measure of an even polynomial potential")
    g.add_argument("--even-coeffs", required=True,
                   help='inline "c2,c4,..." or a JSON file {"even_coeffs": [...]}')
    gm = sub.add_parser("moment1d", help="solve the free moment-measure problem for a target")
    gm.add_argument("--target", required=True,
                    help="measure JSON file or builtin:<semicircle|two_point:a|dirac:c|quartic_pushforward>")
    gm.add_argument("--particles", type=int, default=512)
    t = sub.add_parser("transport-nc", help="noncommutative transport for an even perturbation")
    t.add_argument("--series", required=True, help="W as an NCSeries JSON file")
    t.add_argument("--degree", type=int, default=None)
    v = sub.add_parser("verify", help="recheck a stored solution file")
    v.add_argument("--solution", required=True, help="a solution JSON file")
    v.add_argument("--series", default=None, help="W as an NCSeries JSON file")

    for q in (gm, t):
        q.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    for q in (g, gm, t, v):
        q.add_argument("--out", default=None)
        q.add_argument("--json", action="store_true")
    return p


# each command's handler and the module its invalid-input errors name
COMMANDS = {
    "gibbs1d": (cmd_gibbs1d, "free_gibbs_1d"),
    "moment1d": (cmd_moment1d, "moment_measure_1d"),
    "transport-nc": (cmd_transport_nc, "free_transport"),
    "verify": (cmd_verify, "cli"),
}


def _report(code, exc, module):
    print(json.dumps({"code": code, "message": str(exc), "module": module}), file=sys.stderr)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, module = COMMANDS[args.command]
    try:
        return handler(args)
    except (FreeMomentError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # invalid input, an unreadable input file, or out of any solver's regime
        return _report(EXIT_INVALID, exc, module)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        return _report(EXIT_INTERNAL, exc, "cli")


if __name__ == "__main__":
    sys.exit(main())
