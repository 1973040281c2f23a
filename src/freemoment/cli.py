"""Command-line front end.

One executable with subcommands:

    freemoment gibbs1d     --even-coeffs 0,0.25 --out sol.json
    freemoment moment1d    --target builtin:semicircle --out sol.json
    freemoment transport-nc --series W.json --degree 10 --out sol.json
    freemoment verify      --solution sol.json [--series W.json]

Exit codes: 0 success, 1 internal error, 2 invalid input (an input file that
is missing or is not JSON included), out-of-regime (any solver error, a solve
that does not converge included), an unconverged moment1d solve or a solution
that fails verification.  Every error path prints a structured JSON object
{code, message, module}, from ``main`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gibbs1d, jsonio, measure1d, moment1d, transport
from .errors import FreeMomentError, InvalidInputError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
# largest moment deviation a transport solution may show and still pass
MOMENT_DEVIATION_TOL = 1e-3
# largest Hilbert and scalar Schwinger-Dyson residuals a gibbs1d or moment1d
# solution may show and still pass
HILBERT_RESIDUAL_TOL = 1e-3
SD_SCALAR_TOL = 1e-5


def _emit(obj, as_json, path=None):
    text = json.dumps(obj, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    if as_json:
        print(text)


def _load_potential(text):
    if os.path.exists(text):
        with open(text) as fh:
            return gibbs1d.EvenPotential(jsonio.loads(fh.read())["even_coeffs"])
    return gibbs1d.EvenPotential.parse(text)


def cmd_gibbs1d(args):
    u = _load_potential(args.even_coeffs)
    sol = gibbs1d.free_gibbs_measure(u)
    residual = gibbs1d.hilbert_residual(sol)
    out = sol.to_dict()
    out["hilbert_residual"] = residual
    out["sd_scalar"] = sol.sd_scalar()
    _emit(out, args.json, args.out)
    if args.out:
        sol.measure.to_csv(os.path.splitext(args.out)[0] + ".csv")
    if not args.json:
        print(f"radius r = {sol.radius!r}")
        print(f"hilbert residual = {residual:.3e}")
    return EXIT_OK


def _load_target(text):
    if text.startswith("builtin:"):
        return moment1d.builtin_target(text[len("builtin:"):])
    target = measure1d.GridMeasure.from_json(text)
    target.validate()
    return target


def cmd_moment1d(args):
    target = _load_target(args.target)
    problem = moment1d.MomentProblem(target, n_particles=args.particles, tol=args.tol)
    sol = moment1d.minimize_F(problem)
    report = moment1d.verify_solution(sol, target)
    out = sol.to_dict()
    out["residuals"] = report
    _emit(out, args.json, args.out)
    if not args.json:
        print(f"functional value = {sol.functional_value!r}")
        print(f"residuals = {report}")
    return EXIT_OK if sol.converged else EXIT_INVALID


def cmd_transport_nc(args):
    W = transport.NCSeries.from_json(args.series)
    degree = args.degree if args.degree else max(W.max_degree, W.degree())
    problem = transport.TransportProblem(W, degree, tol=args.tol)
    sol = transport.solve_V(problem)
    report, ok = _check_transport(sol, W)
    out = sol.to_dict()
    out["verification"] = report
    _emit(out, args.json, args.out)
    if not args.json:
        print(f"V norm_A = {sol.diagnostics['v_norm_A']!r}")
        print(f"verification = {report}")
    return EXIT_OK if ok else EXIT_INVALID


def _check_transport(sol, W):
    """The report of ``verify_transport`` to degree min(6, D), and whether it passes."""
    report = transport.verify_transport(sol, W, min(6, sol.V.max_degree))
    return report, report["max_moment_deviation"] < MOMENT_DEVIATION_TOL


def _residuals_pass(report):
    return (report["hilbert_residual"] < HILBERT_RESIDUAL_TOL
            and report["sd_scalar_error"] < SD_SCALAR_TOL)


def cmd_verify(args):
    with open(args.solution) as fh:
        data = jsonio.loads(fh.read())
    if "fourier" in data:
        sol = gibbs1d.GibbsSolution.from_dict(data)
        report = {
            "hilbert_residual": gibbs1d.hilbert_residual(sol),
            "sd_scalar_error": abs(sol.sd_scalar() - 1.0),
            "radius_condition": abs(sol.radius * float(sol.fourier[1]) + 2.0),
        }
        ok = _residuals_pass(report)
    elif "V" in data:
        if not args.series:
            raise InvalidInputError("verifying a transport solution needs --series W.json")
        W = transport.NCSeries.from_json(args.series)
        sol = transport.TransportSolution.from_dict(data)
        report, ok = _check_transport(sol, W)
    elif "uprime" in data:
        report = moment1d.particle_residuals(data["uprime"]["x"], data["uprime"]["value"])
        ok = _residuals_pass(report)
    else:
        raise InvalidInputError("unrecognized solution file")
    _emit(report, args.json, args.out)
    if not args.json:
        print(f"verification = {report}")
    return EXIT_OK if ok else EXIT_INVALID


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
    v = sub.add_parser("verify", help="recheck a stored solution file")
    v.add_argument("--solution", required=True)
    v.add_argument("--series", default=None)

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
    except (FreeMomentError, OSError, json.JSONDecodeError) as exc:
        # invalid input, an unreadable input file, or out of any solver's regime
        return _report(EXIT_INVALID, exc, module)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        return _report(EXIT_INTERNAL, exc, "cli")


if __name__ == "__main__":
    sys.exit(main())
