import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import freemoment
from freemoment import cli
from freemoment.errors import InvalidInputError
from freemoment.ncseries import NCSeries


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


def test_gibbs1d_semicircle(capsys):
    code, stdout, _ = run(["gibbs1d", "--even-coeffs", "0.5", "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert abs(data["radius"] - 2.0) < 1e-12
    dens = np.asarray(data["measure"]["density"])
    nodes = np.asarray(data["measure"]["nodes"])
    target = np.sqrt(np.clip(4 - nodes ** 2, 0, None)) / (2 * np.pi)
    assert np.max(np.abs(dens - target)) < 1e-6


def test_gibbs1d_one_cut_error(capsys):
    # leading dash requires the = form with argparse
    code, _, stderr = run(["gibbs1d", "--even-coeffs=-1.5,0.25"], capsys)
    assert code == 2
    err = json.loads(stderr)
    assert err["code"] == 2 and err["module"] == "free_gibbs_1d"


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
    M.two_point(1.0).to_json(str(target))
    code, stdout, _ = run(["moment1d", "--target", str(target), "--particles", "128",
                           "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert abs(data["rho_hat"]["support"][1] - math.pi) < 0.3


@pytest.mark.parametrize("sample", [-0.1, math.nan], ids=["negative", "nan"])
def test_moment1d_target_file_is_validated(sample, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"support": [-1.0, 1.0], "nodes": [-1.0, 0.0, 1.0],
                                  "density": [0.5, sample, 0.5], "atoms": [],
                                  "quantiles": [-0.5, 0.0, 0.5]}))
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
    code, _, stderr = run(["moment1d", "--target", "builtin:dirac0"], capsys)
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


def test_transport_cli_zero_and_invalid(tmp_path, capsys):
    wfile = tmp_path / "w0.json"
    NCSeries.zero(1, 8).to_json(str(wfile))
    code, stdout, _ = run(["transport-nc", "--series", str(wfile), "--degree", "8",
                           "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["V"]["terms"] == []

    bad = tmp_path / "wodd.json"
    NCSeries(1, 8, {(0, 0, 0): 0.1}).to_json(str(bad))
    code, _, stderr = run(["transport-nc", "--series", str(bad)], capsys)
    assert code == 2
    assert "even degree" in json.loads(stderr)["message"]

    # x^2/2 - 0.05 x^4 has no one-cut law: the residue polynomial has no positive root
    no_law = tmp_path / "wneg.json"
    NCSeries(1, 4, {(0, 0, 0, 0): -0.05}).to_json(str(no_law))
    code, _, stderr = run(["transport-nc", "--series", str(no_law)], capsys)
    assert code == 2
    err = json.loads(stderr)
    assert err.keys() == {"code", "message", "module"}
    assert err["code"] == 2 and err["module"] == "free_transport"


def test_transport_cli_solver_errors_exit_2(tmp_path, capsys):
    # a strong mixed W leaves the Schwinger-Dyson cutoff ball: an out-of-regime
    # input, not an internal error
    strong = tmp_path / "wstrong.json"
    NCSeries(2, 4, {(0, 1, 0, 1): 0.1, (1, 0, 1, 0): 0.1}).to_json(str(strong))
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
    NCSeries.zero(1, 8).to_json(str(wfile))
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
    NCSeries.zero(1, 8).to_json(str(wfile))
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
    NCSeries(1, 4, {(0, 0, 0, 0): 0.01}).to_json(str(wfile))
    with pytest.raises(SystemExit) as exc:
        cli.main(["transport-nc", "--series", str(wfile)] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_transport_cli_quartic(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    NCSeries(1, 10, {(0, 0, 0, 0): 0.05}).to_json(str(wfile))
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
    NCSeries(1, 4, {(0, 0, 0, 0): coeff}).to_json(str(wfile))
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


def test_determinism_byte_identical(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    NCSeries(1, 10, {(0, 0, 0, 0): 0.05}).to_json(str(wfile))
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
    NCSeries(1, 10, {(0, 0, 0, 0): 0.05}).to_json(str(directory / "w1.json"))
    NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02}).to_json(str(directory / "w2.json"))
    # 0.01 (x^4 + y^4) + 0.01 cyc(xyxy)
    NCSeries(2, 4, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01, (0, 1, 0, 1): 0.005,
                    (1, 0, 1, 0): 0.005}).to_json(str(directory / "w3.json"))
    # the same W scaled by 1e-3, inside the guaranteed regime
    NCSeries(2, 4, {(0, 0, 0, 0): 1e-5, (1, 1, 1, 1): 1e-5, (0, 1, 0, 1): 5e-6,
                    (1, 0, 1, 0): 5e-6}).to_json(str(directory / "w4.json"))
    NCSeries(2, 6, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01, (0, 1, 0, 1): 0.005,
                    (1, 0, 1, 0): 0.005}).to_json(str(directory / "w6.json"))


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


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("tau_Y"),
    lambda d: d["tau_Y"]["values"][0].update(value=math.nan),
    lambda d: d["tau_Y"]["values"][0].update(value=1e300),
    lambda d: d["tau_Y"]["values"].append({"word": [2, 1, 1], "value": 0.1}),
    lambda d: d["tau_Y"]["values"].append({"word": [1] * 9, "value": 0.1}),
    lambda d: d["tau_Y"]["values"].append({"word": [1, 3], "value": 0.1}),
    lambda d: d["tau_Y"].update(cutoff=4.0),
    lambda d: d["tau_Y"].update(degree_cap=21),
], ids=["deleted", "nan", "huge", "canonical", "length", "letter", "cutoff", "degree-cap"])
def test_verify_reads_v_and_w_alone(edit, tmp_path, capsys):
    # the file's tau_Y is output only, like its transport_map and V_tilde
    wfile, out, data = _mixed_transport_file(tmp_path, capsys)
    edit(data)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    reports = [run(["verify", "--solution", str(path), "--series", str(wfile), "--json"], capsys)
               for path in (out, edited)]
    assert reports[0][0] == 0 and reports[1] == reports[0]


@pytest.mark.parametrize("argv, module", [
    (["verify", "--solution", "missing.json"], "cli"),
    (["transport-nc", "--series", "bad.txt"], "free_transport"),
    (["moment1d", "--target", "missing.json"], "moment_measure_1d"),
    (["gibbs1d", "--even-coeffs", "bad.txt"], "free_gibbs_1d"),
], ids=["verify", "transport-nc", "moment1d", "gibbs1d"])
def test_unreadable_input_file_exits_2(argv, module, tmp_path, capsys, monkeypatch):
    # a missing file or one that is not JSON is invalid input, not an internal error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("not json")
    code, stdout, stderr = run(argv, capsys)
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err.keys() == {"code", "message", "module"}
    assert err["code"] == 2 and err["module"] == module


@pytest.mark.parametrize("argv, text, key, module", [
    (["gibbs1d", "--even-coeffs", "in.json"], {"coeffs": [0.5]}, "even_coeffs", "free_gibbs_1d"),
    (["transport-nc", "--series", "in.json"], {"max_degree": 4, "terms": []}, "n_vars",
     "free_transport"),
    (["moment1d", "--target", "in.json"], {"nodes": [0.0], "density": [1.0]}, "support",
     "moment_measure_1d"),
    (["verify", "--solution", "in.json"], {"fourier": [0, 1]}, "even_coeffs", "cli"),
], ids=["gibbs1d", "transport-nc", "moment1d", "verify"])
def test_input_without_a_key_exits_2(argv, text, key, module, tmp_path, capsys, monkeypatch):
    # a key that a reader needs is named in the error, not reported as internal
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(text))
    code, stdout, stderr = run(argv, capsys)
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err == {"code": 2, "message": f"missing key {key!r}", "module": module}
