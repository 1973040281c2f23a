import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import freemoment
from freemoment import cli, jsonio
from freemoment.errors import InvalidInputError
from freemoment.ncseries import NCSeries

from conftest import write_json


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gibbs1d_quartic(tmp_path, capsys):
    out = tmp_path / "quartic.json"
    code, stdout, _ = run(["gibbs1d", "--even-coeffs", "0,0.25", "--out", str(out),
                           "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert abs(data["radius"] - 2.0 / 3 ** 0.25) < 1e-10
    assert data["hilbert_residual"] < 1e-4
    assert (tmp_path / "quartic.csv").exists()
    rows = (tmp_path / "quartic.csv").read_text().splitlines()
    assert rows[0] == "node,density"


def test_gibbs1d_semicircle(tmp_path, capsys):
    # the samples are in the CSV next to the --out file, not in the JSON
    code, stdout, _ = run(["gibbs1d", "--even-coeffs", "0.5", "--out", str(tmp_path / "s.json"),
                           "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert abs(data["radius"] - 2.0) < 1e-12
    rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    nodes, dens = np.array([row.split(",") for row in rows], dtype=float).T
    target = np.sqrt(np.clip(4 - nodes ** 2, 0, None)) / (2 * np.pi)
    assert np.max(np.abs(dens - target)) < 1e-6


def test_solution_files_hold_what_determines_the_solution(tmp_path, capsys):
    # a gibbs1d file is the potential and the law's radius, with the two
    # residuals the command reports; a transport file is V with its
    # diagnostics and check, not the series derived from V or the law of Y
    g = tmp_path / "g.json"
    assert run(["gibbs1d", "--even-coeffs", "0.4,0.1,0.03", "--out", str(g)], capsys)[0] == 0
    assert set(json.loads(g.read_text())) == {"even_coeffs", "radius", "hilbert_residual",
                                              "sd_scalar"}
    _write_transport_inputs(tmp_path)
    t = tmp_path / "t.json"
    assert run(["transport-nc", "--series", str(tmp_path / "w2.json"), "--degree", "8",
                "--out", str(t)], capsys)[0] == 0
    assert set(json.loads(t.read_text())) == {"V", "diagnostics", "verification"}


def test_verify_judges_the_radius_condition(tmp_path, capsys):
    # a radius off by 1e-9 (relative) keeps the Hilbert residual in bounds,
    # but not the radius condition that the solve holds to RADIUS_CONDITION_TOL:
    # with a derived at the moved radius, r*a_1 + 2 = 2 - 2P(r^2/4) moves by
    # 4 z P'(z) 1e-9 = 7.35e-9 (z = r^2/4, P as in solve_radius)
    out = tmp_path / "g.json"
    assert run(["gibbs1d", "--even-coeffs", "0.4,0.1,0.03", "--out", str(out)], capsys)[0] == 0
    data = json.loads(out.read_text())
    data["radius"] *= 1.0 + 1e-9
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(data))
    assert run(["verify", "--solution", str(out)], capsys)[0] == 0
    code, stdout, _ = run(["verify", "--solution", str(moved), "--json"], capsys)
    rep = json.loads(stdout)
    assert rep["hilbert_residual"] < cli.PASS_BOUNDS["hilbert_residual"][1]
    assert 5e-9 < rep["radius_condition"] < 1e-8
    assert code == 2


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1e50, 1e100, 1e300])
def test_verify_rejects_a_radius_that_is_not_finite_and_positive(tmp_path, capsys, radius):
    # from about 1e40 the quartic law's figures overflow: at 1e50 its Schwinger-Dyson
    # number, at 1e100 its quadrature weights and at 1e300 its Fourier data
    out = tmp_path / "g.json"
    assert run(["gibbs1d", "--even-coeffs", "0,0.25", "--out", str(out)], capsys)[0] == 0
    data = json.loads(out.read_text())
    data["radius"] = radius
    out.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run(["verify", "--solution", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert "radius" in json.loads(stderr)["message"]


def test_verify_rejects_coefficients_of_a_negative_density(tmp_path, capsys):
    # at c2 = -1.0001 the density dips to -3.2e-5 at the origin; a file of
    # its coefficients fails the one-cut test as the solve does
    from freemoment import gibbs1d as G

    coeffs = [-1.0001, 0.25]
    u = G.EvenPotential(coeffs)
    r = G.solve_radius(u)
    a = G.fourier_coefficients(u.deriv, r, 3)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"even_coeffs": coeffs, "radius": r, "fourier": a.tolist()}))
    code, stdout, stderr = run(["verify", "--solution", str(path)], capsys)
    assert code == 2 and stdout == ""
    assert "negative" in json.loads(stderr)["message"]


def test_gibbs1d_one_cut_error(capsys):
    # leading dash requires the = form with argparse
    code, _, stderr = run(["gibbs1d", "--even-coeffs=-1.5,0.25"], capsys)
    assert code == 2
    err = json.loads(stderr)
    assert err["code"] == 2 and err["module"] == "free_gibbs_1d"


def test_near_critical_double_well_exits_2_naming_the_law(tmp_path, capsys, monkeypatch):
    # the density of x^2/2 - 1.5001 x^2 + 0.25 x^4 dips to -3.2e-5 at the
    # origin: transport-nc rejects its target law before solving, and writes
    # no file, as gibbs1d rejects the same law
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "w.json", NCSeries(1, 4, {(0, 0): -1.5001, (0, 0, 0, 0): 0.25}))
    for argv, module in ((["gibbs1d", "--even-coeffs=-1.0001,0.25", "--out", "x.json"],
                          "free_gibbs_1d"),
                         (["transport-nc", "--series", "w.json", "--out", "x.json"],
                          "free_transport")):
        code, stdout, stderr = run(argv, capsys)
        err = json.loads(stderr)
        assert code == 2 and stdout == "" and err["module"] == module
        assert "[-1.0001, 0.25]" in err["message"] and "negative" in err["message"]
        assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("degree", ["0", "2"])
def test_transport_degree_below_w_exits_2(degree, tmp_path, capsys):
    # --degree 0 is a degree like any other, not the default
    wfile = tmp_path / "w.json"
    write_json(wfile, NCSeries(1, 4, {(0, 0, 0, 0): 0.05}))
    code, stdout, stderr = run(["transport-nc", "--series", str(wfile), "--degree", degree],
                               capsys)
    assert code == 2 and stdout == ""
    assert "degree" in json.loads(stderr)["message"]


@pytest.mark.parametrize("atom", [[math.nan, 0.2], [math.inf, 0.2], [-math.inf, 0.2],
                                  [0.3031, math.nan]], ids=["nan", "inf", "-inf", "nan-mass"])
def test_target_with_a_non_finite_atom_exits_2_naming_atoms(atom, tmp_path, capsys):
    x = np.linspace(-1, 1, 301)
    data = freemoment.GridMeasure.from_density(x, 1 + x ** 2, atoms=[(0.3031, 0.2)],
                                               normalize=True).to_dict()
    data["atoms"] = [atom]
    path = tmp_path / "target.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run(["moment1d", "--target", str(path), "--particles", "128"],
                                   capsys)
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["message"].startswith("atoms must have finite")


def test_gibbs1d_potential_file(tmp_path, capsys):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"even_coeffs": [0.5]}))
    code, stdout, _ = run(["gibbs1d", "--even-coeffs", str(pot), "--json"], capsys)
    assert code == 0
    assert abs(json.loads(stdout)["radius"] - 2.0) < 1e-12


def test_moment1d_semicircle(capsys):
    code, stdout, _ = run(["moment1d", "--target", "builtin:semicircle",
                           "--particles", "256", "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["residuals"]["hilbert_residual"] < 1e-2
    assert data["residuals"]["sd_scalar_error"] < 1e-2
    xs = np.asarray(data["uprime"]["x"])
    vals = np.asarray(data["uprime"]["value"])
    inner = np.abs(xs) <= 1.5
    assert np.max(np.abs(vals[inner] - xs[inner])) < 5e-2


def test_moment1d_target_from_measure_file(tmp_path, capsys):
    from freemoment import measure1d as M

    target = tmp_path / "mu.json"
    write_json(target, M.two_point(1.0))
    code, stdout, _ = run(["moment1d", "--target", str(target), "--particles", "128",
                           "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert abs(data["rho_hat"]["support"][1] - math.pi) < 0.3


@pytest.mark.parametrize("uprime, builtin", [
    (lambda x: x ** 3, "builtin:quartic_pushforward"),
    (freemoment.EvenPotential([0.35, 0.11]).deriv, None),
], ids=["cube", "uprime"])
def test_moment1d_target_from_a_pushforward_file(uprime, builtin, tmp_path, capsys,
                                                 quartic_solution):
    # a pushforward's law is its quantile table, of mass one, not the
    # trapezoid mass of its pushed samples (1.002 for x^3)
    from freemoment import measure1d as M, moment1d

    mu = M.pushforward_monotone(quartic_solution.measure, uprime)
    path = tmp_path / "mu.json"
    write_json(path, mu)
    assert M.GridMeasure.from_dict(json.loads(path.read_text())).validate()
    code, stdout, _ = run(["moment1d", "--target", str(path), "--particles", "128", "--json"],
                          capsys)
    assert code == 0
    sol = moment1d.minimize_F(moment1d.MomentProblem(mu, n_particles=128))
    expected = dict(sol.to_dict(), residuals=moment1d.verify_solution(sol, mu))
    assert stdout == json.dumps(expected, sort_keys=True) + "\n"
    if builtin:
        assert run(["moment1d", "--target", builtin, "--particles", "128", "--json"],
                   capsys)[:2] == (0, stdout)


def test_moment1d_target_with_an_atom_inside_a_density_cell(tmp_path, capsys):
    from freemoment import measure1d as M

    x = np.linspace(-1.0, 1.0, 301)
    target = tmp_path / "mixed.json"
    write_json(target, M.GridMeasure.from_density(x, 1.0 + x ** 2, atoms=[(0.3031, 0.2)],
                                                  normalize=True))
    code, stdout, _ = run(["moment1d", "--target", str(target), "--particles", "128",
                           "--json"], capsys)
    assert code == 0 and json.loads(stdout)["converged"]


def test_moment1d_target_file_whose_table_contradicts_its_density_exits_2(semicircle, tmp_path,
                                                                          capsys):
    # a uniform quantile table on [-2, 2] with semicircle density samples: the
    # samples determine the table, so a file of samples holds none
    data = semicircle.to_dict()
    data["quantiles"] = list(np.linspace(-2.0, 2.0, semicircle.n_cells + 1)[1:-1])
    target = tmp_path / "target.json"
    target.write_text(json.dumps(data))
    code, stdout, stderr = run(["moment1d", "--target", str(target)], capsys)
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["message"].startswith("'quantiles' is derived from the samples")


@pytest.mark.parametrize("name", ["2", "null"])
@pytest.mark.parametrize("command", ["transport-nc", "moment1d", "verify"])
def test_input_file_whose_name_is_json_is_read_as_a_file(command, name, tmp_path, capsys,
                                                         monkeypatch):
    # the name of an input file is never parsed as JSON text
    from freemoment import measure1d as M

    monkeypatch.chdir(tmp_path)
    W = NCSeries(1, 4, {(0, 0, 0, 0): 0.05})
    if command == "moment1d":
        write_json(tmp_path / name, M.two_point(1.0))
        argv = ["moment1d", "--target", name, "--particles", "128"]
    else:
        write_json(tmp_path / name, W)
        argv = ["transport-nc", "--series", name, "--degree", "4"]
        if command == "verify":
            assert run(argv + ["--out", "sol.json"], capsys)[0] == 0
            argv = ["verify", "--solution", "sol.json", "--series", name]
    code, stdout, stderr = run(argv + ["--json"], capsys)
    assert code == 0 and stderr == ""
    assert json.loads(stdout)


@pytest.mark.parametrize("sample", [-0.1, math.nan], ids=["negative", "nan"])
def test_moment1d_target_file_is_validated(sample, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"nodes": [-1.0, 0.0, 1.0], "density": [0.5, sample, 0.5],
                                  "atoms": []}))
    code, stdout, stderr = run(["moment1d", "--target", str(target)], capsys)
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["message"] == "density must be nonnegative"


@pytest.mark.parametrize("argv, named", [
    (["gibbs1d", "--even-coeffs", "nan"], "[nan]"),
    (["gibbs1d", "--even-coeffs", "inf"], "[inf]"),
    (["gibbs1d", "--even-coeffs", "0.5,inf"], "[0.5, inf]"),
    (["gibbs1d", "--even-coeffs", "1e308,1e308"], "[1e+308, 1e+308]"),
    (["moment1d", "--target", "builtin:two_point:nan"], "(nan, 0.5)"),
    (["transport-nc", "--series", "w_nan.json"], "word [1, 2, 1, 2]"),
    (["moment1d", "--target", "builtin:two_point:1e200"], "support [-1e+200, 1e+200]"),
    (["moment1d", "--target", "builtin:two_point:1e308"], "support [-1e+308, 1e+308]"),
    (["moment1d", "--target", "builtin:semicircle", "--tol", "nan"], "tol"),
    (["moment1d", "--target", "builtin:semicircle", "--tol", "inf"], "tol"),
    (["moment1d", "--target", "builtin:semicircle", "--tol=-1"], "tol"),
    (["transport-nc", "--series", "c13.json", "--degree", "10", "--tol", "nan"], "tol"),
    (["transport-nc", "--series", "c13.json", "--degree", "10", "--tol", "inf"], "tol"),
    (["transport-nc", "--series", "c13.json", "--degree", "10", "--tol=-1"], "tol"),
], ids=["nan", "inf", "one-inf", "overflow", "two-point-nan", "w-nan", "target-1e200",
        "target-1e308", "moment1d-tol-nan", "moment1d-tol-inf", "moment1d-tol-negative",
        "transport-tol-nan", "transport-tol-inf", "transport-tol-negative"])
def test_non_finite_input_exits_2(argv, named, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w_nan.json").write_text(
        '{"n_vars": 2, "max_degree": 4, "terms": [{"word": [1, 1, 1, 1], "coeff": 0.01}, '
        '{"word": [1, 2, 1, 2], "coeff": NaN}, {"word": [2, 1, 2, 1], "coeff": NaN}]}')
    (tmp_path / "c13.json").write_text(
        '{"n_vars": 1, "max_degree": 4, "terms": [{"word": [1, 1, 1, 1], "coeff": 0.05}]}')
    code, stdout, stderr = run(argv + ["--json"], capsys)
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["code"] == 2 and named in err["message"]


def test_moment1d_dirac_rejected(capsys):
    code, _, stderr = run(["moment1d", "--target", "builtin:dirac"], capsys)
    assert code == 2
    assert "degenerate" in json.loads(stderr)["message"]


def test_moment1d_two_point(capsys):
    code, stdout, _ = run(["moment1d", "--target", "builtin:two_point:1",
                           "--particles", "256", "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    support = data["rho_hat"]["support"]
    assert abs(support[1] - math.pi) < 0.15


def test_moment1d_unconverged_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli.moment1d, "MAX_ITERS", 1)
    code, stdout, _ = run(["moment1d", "--target", "builtin:semicircle",
                           "--particles", "128", "--json"], capsys)
    data = json.loads(stdout)
    assert data["iterations"] == 1 and data["converged"] is False
    assert code == 2


def test_verify_moment1d_solution(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, _ = run(["moment1d", "--target", "builtin:semicircle", "--particles", "128",
                      "--out", str(out)], capsys)
    assert code == 0
    code2, stdout, _ = run(["verify", "--solution", str(out), "--json"], capsys)
    assert code2 == 0
    rep = json.loads(stdout)
    assert rep["hilbert_residual"] < 1e-8 and rep["sd_scalar_error"] < 1e-10

    data = json.loads(out.read_text())
    data["uprime"]["value"] = [2.0 * v for v in data["uprime"]["value"]]
    bad = tmp_path / "m_bad.json"
    bad.write_text(json.dumps(data))
    code3, _, _ = run(["verify", "--solution", str(bad), "--json"], capsys)
    assert code3 == 2


@pytest.mark.parametrize("edit", [
    lambda x, value: x.__setitem__(5, x[4]),
    lambda x, value: x.__setitem__(5, math.nan),
    lambda x, value: x.reverse(),
    lambda x, value: value.__setitem__(3, math.inf),
], ids=["repeated", "nan", "reversed", "value-inf"])
def test_verify_rejects_positions_that_are_not_increasing(edit, tmp_path, capsys):
    # a repeated position divided by zero, and a NaN one printed NaN, not JSON
    out = tmp_path / "m.json"
    assert run(["moment1d", "--target", "builtin:semicircle", "--particles", "64",
                "--out", str(out)], capsys)[0] == 0
    data = json.loads(out.read_text())
    edit(data["uprime"]["x"], data["uprime"]["value"])
    out.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run(["verify", "--solution", str(out), "--json"], capsys)
    assert code == 2 and stdout == ""
    assert "uprime" in json.loads(stderr)["message"]


@pytest.mark.parametrize("series, named", [
    ({"n_vars": 1, "max_degree": 2, "terms": [{"word": [1, 1, 1, 1], "coeff": 0.05}]},
     "word [1, 1, 1, 1] is longer than max_degree 2"),
    ({"n_vars": 1.9, "max_degree": 4, "terms": []}, "'n_vars'"),
    ({"n_vars": 1, "max_degree": True, "terms": []}, "'max_degree'"),
    ({"n_vars": 1, "max_degree": 4, "terms": [{"word": [1.7, 1], "coeff": 0.05}]}, "'word'"),
    ({"n_vars": 1, "max_degree": 4, "terms": [{"word": [2, 1], "coeff": 0.05}]},
     "word [2, 1] has a letter outside 1..1"),
], ids=["truncated", "n-vars", "max-degree", "letter", "letter-range"])
def test_series_file_is_read_as_written(series, named, tmp_path, capsys):
    # a word over the cap would be dropped and a count with a fraction cut to
    # an integer, so that another W than the file's was solved
    wfile, out = tmp_path / "w.json", tmp_path / "t.json"
    wfile.write_text(json.dumps(series))
    code, stdout, stderr = run(["transport-nc", "--series", str(wfile), "--out", str(out)],
                               capsys)
    assert code == 2 and stdout == "" and not out.exists()
    err = json.loads(stderr)
    assert err["module"] == "free_transport" and named in err["message"]


def test_transport_cli_zero_and_invalid(tmp_path, capsys):
    wfile = tmp_path / "w0.json"
    write_json(wfile, NCSeries.zero(1, 8))
    code, stdout, _ = run(["transport-nc", "--series", str(wfile), "--degree", "8",
                           "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["V"]["terms"] == []

    bad = tmp_path / "wodd.json"
    write_json(bad, NCSeries(1, 8, {(0, 0, 0): 0.1}))
    code, _, stderr = run(["transport-nc", "--series", str(bad)], capsys)
    assert code == 2
    assert "even degree" in json.loads(stderr)["message"]

    # x^2/2 - 0.05 x^4 has no one-cut law: the residue polynomial has no positive root
    no_law = tmp_path / "wneg.json"
    write_json(no_law, NCSeries(1, 4, {(0, 0, 0, 0): -0.05}))
    code, _, stderr = run(["transport-nc", "--series", str(no_law)], capsys)
    assert code == 2
    err = json.loads(stderr)
    assert err.keys() == {"code", "message", "module"}
    assert err["code"] == 2 and err["module"] == "free_transport"


def test_transport_cli_solver_errors_exit_2(tmp_path, capsys):
    # a strong mixed W leaves the Schwinger-Dyson cutoff ball: an out-of-regime
    # input, not an internal error
    strong = tmp_path / "wstrong.json"
    write_json(strong, NCSeries(2, 4, {(0, 1, 0, 1): 0.1, (1, 0, 1, 0): 0.1}))
    # a word too long for an int64 rank
    too_long = tmp_path / "wlong.json"
    too_long.write_text(json.dumps({"n_vars": 2, "max_degree": 80,
                                "terms": [{"word": [1] * 70, "coeff": 1.0}]}))
    for wfile, degree, words in ((strong, "4", "outside perturbative regime"),
                                 (too_long, "80", "int64")):
        code, _, stderr = run(["transport-nc", "--series", str(wfile), "--degree", degree],
                              capsys)
        assert code == 2
        err = json.loads(stderr)
        assert err.keys() == {"code", "message", "module"}
        assert err["code"] == 2 and err["module"] == "free_transport"
        assert words in err["message"]


def test_transport_cli_exit_code_ignores_tol(tmp_path, capsys, monkeypatch):
    # --tol is the solver tolerance; the verification threshold stays 1e-3
    def fake_verify(sol, W, degree):
        return {"max_moment_deviation": 1e-2, "worst_word": [1], "sd_residual": 0.0,
                "degree": degree}

    monkeypatch.setattr(cli.transport, "verify_transport", fake_verify)
    wfile = tmp_path / "w0.json"
    write_json(wfile, NCSeries.zero(1, 8))
    code, stdout, _ = run(["transport-nc", "--series", str(wfile), "--degree", "8",
                           "--tol", "0.5", "--json"], capsys)
    assert json.loads(stdout)["verification"]["max_moment_deviation"] == 1e-2
    assert code == 2


def test_tol_reaches_the_solver_as_given(tmp_path, capsys, monkeypatch):
    # --tol 0 is passed on as 0; the default is 1e-10
    seen = []

    def capture(*args, **kw):
        seen.append(kw["tol"])
        raise InvalidInputError("stop before solving")

    monkeypatch.setattr(cli.moment1d, "MomentProblem", capture)
    monkeypatch.setattr(cli.transport, "TransportProblem", capture)
    wfile = tmp_path / "w0.json"
    write_json(wfile, NCSeries.zero(1, 8))
    for argv in (["moment1d", "--target", "builtin:semicircle"],
                 ["transport-nc", "--series", str(wfile)]):
        assert run(argv + ["--tol", "0"], capsys)[0] == 2
        assert run(argv, capsys)[0] == 2
    assert seen == [0.0, 1e-10, 0.0, 1e-10]


@pytest.mark.parametrize("argv", [["gibbs1d", "--even-coeffs", "0.5"],
                                  ["verify", "--solution", "sol.json"]])
def test_tol_rejected_where_no_solver_uses_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--norm-radius", "3"], ["--ball-radius", "0.25"],
                                  ["--cutoff", "4"]])
def test_transport_cli_has_no_radius_flags(flag, tmp_path, capsys):
    # the regime test and the Schwinger-Dyson ball use fixed radii, so
    # transport-nc takes none
    wfile = tmp_path / "w.json"
    write_json(wfile, NCSeries(1, 4, {(0, 0, 0, 0): 0.01}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["transport-nc", "--series", str(wfile)] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_transport_cli_quartic(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    write_json(wfile, NCSeries(1, 10, {(0, 0, 0, 0): 0.05}))
    out = tmp_path / "sol.json"
    code, stdout, _ = run(["transport-nc", "--series", str(wfile), "--degree", "10",
                           "--out", str(out), "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["verification"]["max_moment_deviation"] < 1e-3

    # verify subcommand on the stored solution
    code2, stdout2, _ = run(["verify", "--solution", str(out), "--series", str(wfile),
                             "--json"], capsys)
    assert code2 == 0


@pytest.mark.parametrize("coeff", [1.0, -0.02], ids=["strong", "near-critical"])
def test_transport_cli_one_variable_check_reads_the_one_cut_law(coeff, tmp_path, capsys):
    # the one-cut law of 1.0 x^4's V has radius 3.74, past the Schwinger-Dyson
    # cutoff 3, and -0.02 x^4 lies near the critical coupling: a check on
    # Schwinger-Dyson tables rejected both solves, which converge
    wfile, out = tmp_path / "w.json", tmp_path / "sol.json"
    write_json(wfile, NCSeries(1, 4, {(0, 0, 0, 0): coeff}))
    code, stdout, _ = run(["transport-nc", "--series", str(wfile), "--degree", "10",
                           "--out", str(out), "--json"], capsys)
    assert code == 0
    assert json.loads(stdout)["verification"]["max_moment_deviation"] <= 1e-12
    code, stdout, _ = run(["verify", "--solution", str(out), "--series", str(wfile), "--json"],
                          capsys)
    assert code == 0 and json.loads(stdout)["max_moment_deviation"] <= 1e-12


def test_verify_gibbs_solution(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(["gibbs1d", "--even-coeffs", "0.5,0.25", "--out", str(out)], capsys)
    assert code == 0
    code2, stdout, _ = run(["verify", "--solution", str(out), "--json"], capsys)
    assert code2 == 0
    rep = json.loads(stdout)
    assert rep["hilbert_residual"] < 1e-3
    assert rep["radius_condition"] < 1e-9
    # the printed report shows plain floats, not NumPy scalar reprs
    code3, stdout3, _ = run(["verify", "--solution", str(out)], capsys)
    assert code3 == 0
    assert stdout3.startswith("verification = {") and "np." not in stdout3
    assert f"'radius_condition': {rep['radius_condition']!r}" in stdout3


def test_gibbs1d_exits_as_verify_on_its_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.json"
    argv = ["gibbs1d", "--even-coeffs", "0,0.25", "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    assert run(["verify", "--solution", str(out)], capsys)[0] == 0
    # past verify's Hilbert bound the file and its CSV are still written
    out.unlink()
    (tmp_path / "g.csv").unlink()
    monkeypatch.setattr(cli.gibbs1d, "hilbert_residual", lambda sol: 1.0)
    assert run(argv, capsys)[0] == 2
    assert json.loads(out.read_text())["hilbert_residual"] == 1.0
    assert (tmp_path / "g.csv").exists()
    assert run(["verify", "--solution", str(out)], capsys)[0] == 2


def test_determinism_byte_identical(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    write_json(wfile, NCSeries(1, 10, {(0, 0, 0, 0): 0.05}))
    commands = {
        "gibbs1d": ["gibbs1d", "--even-coeffs", "0.5,0.25"],
        "transport": ["transport-nc", "--series", str(wfile), "--degree", "10"],
    }
    for name, argv in commands.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"det_{name}_{tag}.json"
            code, _, _ = run(argv + ["--out", str(out)], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _write_transport_inputs(directory):
    write_json(directory / "w1.json", NCSeries(1, 10, {(0, 0, 0, 0): 0.05}))
    write_json(directory / "w2.json", NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02}))
    # 0.01 (x^4 + y^4) + 0.01 cyc(xyxy)
    write_json(directory / "w3.json", NCSeries(2, 4, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01,
                                                      (0, 1, 0, 1): 0.005, (1, 0, 1, 0): 0.005}))
    # the same W scaled by 1e-3, inside the guaranteed regime
    write_json(directory / "w4.json", NCSeries(2, 4, {(0, 0, 0, 0): 1e-5, (1, 1, 1, 1): 1e-5,
                                                      (0, 1, 0, 1): 5e-6, (1, 0, 1, 0): 5e-6}))
    write_json(directory / "w6.json", NCSeries(2, 6, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01,
                                                      (0, 1, 0, 1): 0.005, (1, 0, 1, 0): 0.005}))


def _run_fresh(script, cwd, **env_vars):
    src = os.path.dirname(os.path.dirname(freemoment.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env_vars)
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True)


@pytest.mark.parametrize("body", [
    "import freemoment, freemoment.cli",
    "import freemoment.cli\n"
    "assert freemoment.cli.main(['gibbs1d', '--even-coeffs', '0,0.25', '--json']) == 0",
    "import freemoment.cli\n"
    "assert freemoment.cli.main(['transport-nc', '--series', 'w1.json', '--degree', '10']) == 0",
    "import freemoment.cli\n"
    "assert freemoment.cli.main(['transport-nc', '--series', 'w2.json', '--degree', '8']) == 0",
    "import freemoment.cli\n"
    "assert freemoment.cli.main(['transport-nc', '--series', 'w3.json', '--degree', '4']) == 0",
    "import freemoment.cli\n"
    "assert freemoment.cli.main(['transport-nc', '--series', 'w4.json', '--degree', '4']) == 0",
    "import json, freemoment.cli\n"
    "assert freemoment.cli.main(['transport-nc', '--series', 'w6.json', '--degree', '6', "
    "'--out', 'v6.json']) == 0\n"
    "assert json.load(open('v6.json'))['diagnostics']['converged'] is True\n"
    "assert freemoment.cli.main(['verify', '--solution', 'v6.json', '--series', 'w6.json']) == 0",
    "import json, freemoment.cli\n"
    "assert freemoment.cli.main(['transport-nc', '--series', 'w2.json', '--degree', '8', "
    "'--out', 'v2.json']) == 0\n"
    "assert freemoment.cli.main(['verify', '--solution', 'v2.json', '--series', 'w2.json', "
    "'--json', '--out', 'r2.json']) == 0\n"
    "assert json.load(open('r2.json'))['max_moment_deviation'] <= 1e-8",
], ids=["import", "gibbs1d", "transport-n1", "transport-separable", "transport-mixed",
        "transport-mixed-guaranteed", "transport-mixed-d6-verify", "transport-separable-verify"])
def test_cli_does_not_load_scipy(body, tmp_path):
    # SciPy is imported only by moment1d.minimize_F; a fresh interpreter shows
    # whether anything else pulls it in.  The D = 6 mixed W must converge and
    # pass verify, and C14 must verify to a deviation of at most 1e-8.
    _write_transport_inputs(tmp_path)
    script = body + "\nimport sys\nassert not [m for m in sys.modules " \
                    "if m == 'scipy' or m.startswith('scipy.')]"
    proc = _run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_builds_no_gibbs1d_table(tmp_path):
    # the cached tables of the one-cut law are built on first use
    script = ("import freemoment\nfrom freemoment import gibbs1d as G\n"
              "tables = (G._gauss_theta, G._sines, G._boundary_grid, G._odd_powers)\n"
              "assert [f.cache_info().currsize for f in tables] == [0] * 4")
    proc = _run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_transport_files_do_not_depend_on_blas_threads(tmp_path):
    # the one-variable and separable paths factor no Hessian
    _write_transport_inputs(tmp_path)
    for threads in ("1", "2"):
        script = "import freemoment.cli\n" + "".join(
            f"assert freemoment.cli.main(['transport-nc', '--series', 'w{i}.json', '--degree', "
            f"'{d}', '--out', 't{threads}_{i}.json']) == 0\n" for i, d in ((1, 10), (2, 8)))
        proc = _run_fresh(script, tmp_path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
    for i in (1, 2):
        assert (tmp_path / f"t1_{i}.json").read_bytes() == (tmp_path / f"t2_{i}.json").read_bytes()


def test_gibbs1d_files_do_not_depend_on_blas_threads(tmp_path):
    # hilbert_residual reduces its rows with einsum, not with a BLAS gemv;
    # the CSV is written next to the --out file
    for threads in ("1", "2"):
        script = ("import freemoment.cli\n"
                  "assert freemoment.cli.main(['gibbs1d', '--even-coeffs', '0.05,0.25', "
                  f"'--out', 'g{threads}.json']) == 0\n")
        proc = _run_fresh(script, tmp_path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
    for ext in ("json", "csv"):
        assert (tmp_path / f"g1.{ext}").read_bytes() == (tmp_path / f"g2.{ext}").read_bytes()


def _mixed_transport_file(tmp_path, capsys):
    _write_transport_inputs(tmp_path)
    wfile, out = tmp_path / "w3.json", tmp_path / "sol.json"
    code, _, _ = run(["transport-nc", "--series", str(wfile), "--degree", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    return wfile, out, json.loads(out.read_text())


def _parent_series(data):
    """The V_tilde and transport_map entries that transport files held before
    the format dropped them, as the properties derive them."""
    from freemoment import transport

    sol = transport.TransportSolution.from_dict(data)
    return {"V_tilde": sol.V_tilde.to_dict(),
            "transport_map": [c.to_dict() for c in sol.transport_map]}


def _parent_tau_y(data):
    """The tau_Y entry that transport files held before the format dropped it:
    the law of Y at cap D + 4, its nonzero classes written as words from 1."""
    from freemoment import sdmoments, transport

    V = transport.TransportSolution.from_dict(data).V
    table = sdmoments.solve_sd(V.truncate(V.max_degree + 4), V.max_degree + 4)
    words = sdmoments._enumerate_canonical
    return {"n_vars": table.n_vars, "degree_cap": table.degree_cap, "cutoff": sdmoments.CUTOFF,
            "values": [{"word": [i + 1 for i in words(table.n_vars, length)[k]],
                        "value": float(vals[k])}
                       for length, vals in enumerate(table.values[1:], start=1)
                       for k in np.flatnonzero(vals)]}


# the derived entries of a transport file in a parent format, each with the
# keys of its items, of an item's value and of its cap: the series V_tilde and
# Y + DV, and the table tau_Y
_DERIVED = {"V_tilde": ("terms", "coeff", "max_degree"),
            "transport_map": ("terms", "coeff", "max_degree"),
            "tau_Y": ("values", "value", "degree_cap")}


@pytest.mark.parametrize("edit", [
    None,
    lambda e, items, value, cap: e[items][0].update({value: math.nan}),
    lambda e, items, value, cap: e[items][0].update({value: 1e300}),
    lambda e, items, value, cap: e[items].append({"word": [2, 1, 1], value: 0.1}),
    lambda e, items, value, cap: e[items].append({"word": [1] * 9, value: 0.1}),
    lambda e, items, value, cap: e[items].append({"word": [1, 3], value: 0.1}),
    lambda e, items, value, cap: e.update(cutoff=4.0),
    lambda e, items, value, cap: e.update({cap: 21}),
], ids=["deleted", "nan", "huge", "canonical", "length", "letter", "cutoff", "degree-cap"])
def test_verify_reads_v_and_w_alone(edit, tmp_path, capsys):
    # a parent-format file's V_tilde, transport map and tau_Y are not read
    wfile, out, data = _mixed_transport_file(tmp_path, capsys)
    data.update(_parent_series(data), tau_Y=_parent_tau_y(data))
    base = run(["verify", "--solution", str(out), "--series", str(wfile), "--json"], capsys)
    assert base[0] == 0
    for key, fields in _DERIVED.items():
        edited = json.loads(json.dumps(data))
        if edit is None:
            del edited[key]
        else:
            edit(edited[key][1] if key == "transport_map" else edited[key], *fields)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited))
        assert run(["verify", "--solution", str(path), "--series", str(wfile), "--json"],
                   capsys) == base


def test_verify_reads_parent_format_files(tmp_path, capsys):
    # a gibbs1d file with the sampled measure and the Fourier coefficients,
    # and a transport file with V_tilde, the transport map and tau_Y, as files
    # were written before, verify as the files without them
    from freemoment import gibbs1d

    g = tmp_path / "g.json"
    assert run(["gibbs1d", "--even-coeffs", "0.4,0.1,0.03", "--out", str(g)], capsys)[0] == 0
    data = json.loads(g.read_text())
    sol = gibbs1d.GibbsSolution.from_dict(data)
    data.update(measure=sol.measure.to_dict(), fourier=sol.fourier.tolist())
    wfile, t, tdata = _mixed_transport_file(tmp_path, capsys)
    tdata.update(_parent_series(tdata), tau_Y=_parent_tau_y(tdata))
    for path, parent, extra in ((g, data, []), (t, tdata, ["--series", str(wfile)])):
        old = tmp_path / "parent.json"
        old.write_text(json.dumps(parent))
        reports = [run(["verify", "--solution", str(p), "--json", *extra], capsys)
                   for p in (path, old)]
        assert reports[0][0] == 0 and reports[1] == reports[0]


@pytest.mark.parametrize("argv, module", [
    (["verify", "--solution", "missing.json"], "cli"),
    (["transport-nc", "--series", "bad.txt"], "free_transport"),
    (["moment1d", "--target", "missing.json"], "moment_measure_1d"),
    (["gibbs1d", "--even-coeffs", "bad.txt"], "free_gibbs_1d"),
    (["verify", "--solution", "binary.json"], "cli"),
], ids=["verify", "transport-nc", "moment1d", "gibbs1d", "not-utf-8"])
def test_unreadable_input_file_exits_2(argv, module, tmp_path, capsys, monkeypatch):
    # a missing file, one that is not JSON or one that is not text is invalid
    # input, not an internal error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("not json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    code, stdout, stderr = run(argv, capsys)
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err.keys() == {"code", "message", "module"}
    assert err["code"] == 2 and err["module"] == module


@pytest.mark.parametrize("argv, text, key, module", [
    (["gibbs1d", "--even-coeffs", "in.json"], {"coeffs": [0.5]}, "even_coeffs", "free_gibbs_1d"),
    (["transport-nc", "--series", "in.json"], {"max_degree": 4, "terms": []}, "n_vars",
     "free_transport"),
    (["moment1d", "--target", "in.json"], {"nodes": [], "density": []}, "atoms",
     "moment_measure_1d"),
    (["verify", "--solution", "in.json"], {"radius": 1.0}, "even_coeffs", "cli"),
], ids=["gibbs1d", "transport-nc", "moment1d", "verify"])
def test_input_without_a_key_exits_2(argv, text, key, module, tmp_path, capsys, monkeypatch):
    # a key that a reader needs is named in the error, not reported as internal
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(text))
    code, stdout, stderr = run(argv, capsys)
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err == {"code": 2, "message": f"missing key {key!r}", "module": module}


def test_written_types_have_no_reader_and_read_types_round_trip(semicircle, quartic_solution):
    # MomentSolution is written, never read back, and TraceTable not written
    from freemoment import moment1d, sdmoments, transport

    assert not hasattr(sdmoments.TraceTable, "from_dict")
    assert not hasattr(sdmoments.TraceTable, "to_dict")
    assert not hasattr(moment1d.MomentSolution, "from_dict")
    W = NCSeries(1, 4, {(0, 0, 0, 0): 0.05})
    for obj in (W, semicircle, quartic_solution,
                transport.solve_V(transport.TransportProblem(W, 4))):
        # one reader for every type, and none that takes a path
        assert not hasattr(obj, "from_json")
        text = obj.to_json()
        assert type(obj).from_dict(jsonio.loads(text)).to_json() == text


_TERM = {"word": [1, 1, 1, 1], "coeff": "x"}


@pytest.mark.parametrize("argv, text, message, module", [
    (["gibbs1d", "--even-coeffs", "in.json"], [0.5], "expected a JSON object, got list",
     "free_gibbs_1d"),
    (["gibbs1d", "--even-coeffs", "in.json"], {"even_coeffs": 0.5},
     "invalid value of key 'even_coeffs'", "free_gibbs_1d"),
    (["gibbs1d", "--even-coeffs", "0.5,x"], {}, "even coefficients '0.5,x' are not numbers",
     "free_gibbs_1d"),
    (["transport-nc", "--series", "in.json"], [0.5], "expected a JSON object, got list",
     "free_transport"),
    (["transport-nc", "--series", "in.json"], {"n_vars": 1, "max_degree": 4, "terms": [_TERM]},
     "invalid value of key 'coeff': could not convert string to float: 'x'", "free_transport"),
    (["moment1d", "--target", "in.json"], [0.5], "expected a JSON object, got list",
     "moment_measure_1d"),
    (["moment1d", "--target", "in.json"], {"support": [0, "a"], "quantiles": [0.5]},
     "invalid value of key 'support'", "moment_measure_1d"),
    (["moment1d", "--target", "in.json"],
     {"support": [-1, 1], "nodes": [-1, 0, 1], "density": [0.5, 0.5]},
     "'nodes' and 'density' differ in length: 3 and 2", "moment_measure_1d"),
    (["verify", "--solution", "in.json"], [0.5], "expected a JSON object, got list", "cli"),
    (["verify", "--solution", "in.json"], {"uprime": {"x": [0, 1], "value": "x"}},
     "invalid value of key 'value'", "cli"),
    (["moment1d", "--target", "builtin:two_point:abc"], {},
     "builtin target 'two_point:abc': parameter is not a number", "moment_measure_1d"),
    (["moment1d", "--target", "builtin:dirac:abc"], {},
     "builtin target 'dirac:abc': parameter is not a number", "moment_measure_1d"),
], ids=["gibbs1d-list", "gibbs1d-number", "gibbs1d-inline", "transport-nc-list",
        "transport-nc-string", "moment1d-list", "moment1d-string", "moment1d-lengths",
        "verify-list", "verify-string", "two-point-string", "dirac-string"])
def test_input_of_the_wrong_type_exits_2(argv, text, message, module, tmp_path, capsys,
                                         monkeypatch):
    # a top level that is not an object, or a value that does not convert,
    # is invalid input naming the key, not an internal error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(text))
    code, stdout, stderr = run(argv, capsys)
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["code"] == 2 and err["module"] == module and err["message"].startswith(message)
