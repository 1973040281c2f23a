"""Command-line front end.

One executable with subcommands:

    freemoment gibbs1d     --even-coeffs 0,0.25 --out sol.json
    freemoment moment1d    --target builtin:semicircle --out sol.json
    freemoment transport-nc --series W.json --degree 10 --out sol.json
    freemoment verify      --solution sol.json [--series W.json]

Exit codes: 0 success, 1 internal error, 2 invalid input or out-of-regime.
Every error path prints a structured JSON object {code, message, module}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import gibbs1d, measure1d, moment1d, sdmoments, transport
from .errors import FreeMomentError, InvalidInputError, RegimeError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
# largest moment deviation a transport solution may show and still pass
MOMENT_DEVIATION_TOL = 1e-3


def _emit(obj, as_json, path=None):
    text = json.dumps(obj, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    if as_json:
        print(text)


def _fail(exc, module):
    code = EXIT_INVALID if isinstance(exc, (InvalidInputError, RegimeError)) else EXIT_INTERNAL
    print(json.dumps({"code": code, "message": str(exc), "module": module}), file=sys.stderr)
    return code


def _load_potential(text):
    if os.path.exists(text):
        with open(text) as fh:
            return gibbs1d.EvenPotential(json.load(fh)["even_coeffs"])
    return gibbs1d.EvenPotential.parse(text)


def cmd_gibbs1d(args):
    try:
        u = _load_potential(args.even_coeffs)
        sol = gibbs1d.free_gibbs_measure(u)
        residual = gibbs1d.hilbert_residual(sol)
        out = sol.to_dict()
        out["hilbert_residual"] = residual
        out["sd_scalar"] = sol.sd_scalar()
        out["seed"] = args.seed
        _emit(out, args.json, args.out)
        if args.out:
            sol.measure.to_csv(os.path.splitext(args.out)[0] + ".csv")
        if not args.json:
            print(f"radius r = {sol.radius!r}")
            print(f"hilbert residual = {residual:.3e}")
        return EXIT_OK
    except FreeMomentError as exc:
        return _fail(exc, "free_gibbs_1d")


def _load_target(text):
    if text.startswith("builtin:"):
        return moment1d.builtin_target(text[len("builtin:"):])
    return measure1d.GridMeasure.from_json(text)


def cmd_moment1d(args):
    try:
        target = _load_target(args.target)
        problem = moment1d.MomentProblem(target, n_particles=args.particles,
                                         tol=args.tol if args.tol else 1e-10)
        sol = moment1d.minimize_F(problem)
        report = moment1d.verify_solution(sol, target)
        out = sol.to_dict()
        out["residuals"] = report
        out["seed"] = args.seed
        _emit(out, args.json, args.out)
        if not args.json:
            print(f"functional value = {sol.functional_value!r}")
            print(f"residuals = {report}")
        return EXIT_OK
    except FreeMomentError as exc:
        return _fail(exc, "moment_measure_1d")


def cmd_transport_nc(args):
    try:
        W = transport.NCSeries.from_json(args.series)
        degree = args.degree if args.degree else max(W.max_degree, W.degree())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem = transport.TransportProblem(
                W, degree, a_radius=args.norm_radius, ball_radius=args.ball_radius,
                cutoff=args.cutoff, tol=args.tol if args.tol else 1e-10)
        sol = transport.solve_V(problem)
        report = transport.verify_transport(sol, W, min(6, degree))
        out = sol.to_dict()
        out["verification"] = report
        out["seed"] = args.seed
        _emit(out, args.json, args.out)
        if not args.json:
            print(f"V norm_A = {sol.diagnostics['v_norm_A']!r}")
            print(f"verification = {report}")
        return EXIT_OK if report["max_moment_deviation"] < MOMENT_DEVIATION_TOL else EXIT_INVALID
    except FreeMomentError as exc:
        return _fail(exc, "free_transport")


def cmd_verify(args):
    try:
        with open(args.solution) as fh:
            data = json.load(fh)
        if "fourier" in data:
            sol = gibbs1d.GibbsSolution.from_dict(data)
            report = {
                "hilbert_residual": gibbs1d.hilbert_residual(sol),
                "sd_scalar_error": abs(sol.sd_scalar() - 1.0),
                "radius_condition": abs(sol.radius * sol.fourier[1] + 2.0),
            }
            ok = report["hilbert_residual"] < 1e-3 and report["sd_scalar_error"] < 1e-5
        elif "V" in data:
            if not args.series:
                raise InvalidInputError("verifying a transport solution needs --series W.json")
            W = transport.NCSeries.from_json(args.series)
            sol = transport.TransportSolution.from_dict(data)
            report = transport.verify_transport(sol, W, min(6, sol.V.max_degree))
            ok = report["max_moment_deviation"] < MOMENT_DEVIATION_TOL
        else:
            raise InvalidInputError("unrecognized solution file")
        _emit(report, args.json, args.out)
        if not args.json:
            print(f"verification = {report}")
        return EXIT_OK if ok else EXIT_INVALID
    except FreeMomentError as exc:
        return _fail(exc, "cli")


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
    t.add_argument("--series", required=True, help="W as NCSeries JSON")
    t.add_argument("--degree", type=int, default=None)
    t.add_argument("--norm-radius", type=float, default=transport.DEFAULT_A)
    t.add_argument("--ball-radius", type=float, default=transport.DEFAULT_R)
    t.add_argument("--cutoff", type=float, default=sdmoments.DEFAULT_CUTOFF)
    v = sub.add_parser("verify", help="recheck a stored solution file")
    v.add_argument("--solution", required=True)
    v.add_argument("--series", default=None)

    for q in (g, gm, t, v):
        q.add_argument("--tol", type=float, default=None)
        q.add_argument("--out", default=None)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--json", action="store_true")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "gibbs1d": cmd_gibbs1d,
        "moment1d": cmd_moment1d,
        "transport-nc": cmd_transport_nc,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(json.dumps({"code": EXIT_INTERNAL, "message": str(exc), "module": "cli"}),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
