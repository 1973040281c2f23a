import json
import math

import numpy as np

from freemoment import cli
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


def test_verify_gibbs_solution(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(["gibbs1d", "--even-coeffs", "0.5,0.25", "--out", str(out)], capsys)
    assert code == 0
    code2, stdout, _ = run(["verify", "--solution", str(out), "--json"], capsys)
    assert code2 == 0
    rep = json.loads(stdout)
    assert rep["hilbert_residual"] < 1e-3
    assert rep["radius_condition"] < 1e-9


def test_determinism_byte_identical(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.json"
        code, _, _ = run(["gibbs1d", "--even-coeffs", "0.5,0.25", "--seed", "7",
                          "--out", str(out)], capsys)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
