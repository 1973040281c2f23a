"""Golden answers: the files that the README commands and the CI targets
write, with the ``verify`` report of each, are checked in under
tests/golden/, and the test writes them again and compares them key by key.

Keys, integers, strings and booleans must match exactly.  The floats under
one key (a list's entries count as one key) must agree to RTOL relative to
the largest of them in the golden file.  Changing a golden file is a visible
act: regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` and
list every key that moved, and by how much, in CHANGES.md.
"""

import csv
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

RTOL = 1e-12
# the Hilbert residual of a converged particle solve is round-off (4e-15 to
# 1e-11 on these targets), and its last digits move with the BLAS thread
# count of the Cholesky step; such a key gets 10x the relative spread
# measured between 1 and 2 OpenBLAS threads
SPREAD_RTOL = {
    ("moment1d_semicircle.json", "residuals/hilbert_residual"): 0.38,
    ("moment1d_semicircle.verify.json", "hilbert_residual"): 0.38,
    ("moment1d_mixed.json", "residuals/hilbert_residual"): 0.25,
    ("moment1d_mixed.verify.json", "hilbert_residual"): 0.25,
    ("moment1d_three.json", "residuals/hilbert_residual"): 2.5e-4,
    ("moment1d_three.verify.json", "hilbert_residual"): 2.5e-4,
}

# name -> (command line without --out, series file that verify reads)
COMMANDS = {
    "gibbs1d_quartic": (["gibbs1d", "--even-coeffs", "0,0.25"], None),
    "moment1d_semicircle": (["moment1d", "--target", "builtin:semicircle"], None),
    "moment1d_two_point": (["moment1d", "--target", "builtin:two_point:1"], None),
    "moment1d_mixed": (["moment1d", "--target", "mixed.json"], None),
    "moment1d_three": (["moment1d", "--target", "three.json"], None),
    "moment1d_qp": (["moment1d", "--target", "qp.json"], None),
    "transport_c13": (["transport-nc", "--series", "c13.json", "--degree", "10"], "c13.json"),
    "transport_separable": (["transport-nc", "--series", "separable.json", "--degree", "8"],
                            "separable.json"),
    "transport_mixed": (["transport-nc", "--series", "mixed_w.json", "--degree", "4"],
                        "mixed_w.json"),
}


def _write_inputs(directory):
    """The target and series files the commands read, built as CI builds them."""
    from freemoment import GridMeasure, moment1d
    from freemoment.ncseries import NCSeries

    x = np.linspace(-1.0, 1.0, 301)
    mixed = GridMeasure.from_density(x, 1 + x ** 2, atoms=[(0.3031, 0.2)], normalize=True)
    three = GridMeasure.from_density(x, 1 + x ** 2,
                                     atoms=[(0.3031, 0.2), (x[90], 0.1), (1.5, 0.05)],
                                     normalize=True)
    inputs = {
        "mixed.json": mixed,
        "three.json": three,
        "qp.json": moment1d.builtin_target("quartic_pushforward"),
        "c13.json": NCSeries(1, 4, {(0, 0, 0, 0): 0.05}),
        "separable.json": NCSeries(2, 4, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02}),
        # 0.01 (x^4 + y^4) + 0.005 (xyxy + yxyx)
        "mixed_w.json": NCSeries(2, 4, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01,
                                        (0, 1, 0, 1): 0.005, (1, 0, 1, 0): 0.005}),
    }
    for name, obj in inputs.items():
        (directory / name).write_text(obj.to_json())


def write_answers(out):
    """Run every golden command, and verify on its file, writing into ``out``."""
    from freemoment import cli

    with tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        _write_inputs(work)
        for name, (argv, series) in COMMANDS.items():
            argv = [str(work / a) if a.endswith(".json") else a for a in argv]
            if argv[0] == "moment1d":
                argv += ["--particles", "128"]
            solution = str(out / f"{name}.json")
            assert cli.main(argv + ["--out", solution]) == 0, name
            check = ["verify", "--solution", solution, "--out", str(out / f"{name}.verify.json")]
            if series:
                check += ["--series", str(work / series)]
            assert cli.main(check) == 0, name


def _floats_by_key(golden, new, key, out):
    """Check that two parsed files agree in everything but their floats, and
    collect the float pairs under each key."""
    assert type(new) is type(golden), key
    if isinstance(golden, dict):
        assert new.keys() == golden.keys(), key
        for k in golden:
            _floats_by_key(golden[k], new[k], f"{key}/{k}" if key else k, out)
    elif isinstance(golden, list):
        assert len(new) == len(golden), key
        for g, n in zip(golden, new):
            _floats_by_key(g, n, key, out)
    elif isinstance(golden, float):
        out.setdefault(key, []).append((golden, new))
    else:
        assert new == golden, key


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def _parse(path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text, parse_constant=_not_json)
    header, *rows = csv.reader(io.StringIO(text))
    return {"header": header, **{k: [float(r[i]) for r in rows] for i, k in enumerate(header)}}


def compare(golden_dir, new_dir):
    """Deviations beyond tolerance of the files in ``new_dir`` from the golden ones."""
    names = sorted(p.name for p in golden_dir.iterdir())
    assert names == sorted(p.name for p in new_dir.iterdir())
    bad = []
    for name in names:
        pairs = {}
        _floats_by_key(_parse(golden_dir / name), _parse(new_dir / name), "", pairs)
        for key, vals in pairs.items():
            g, n = np.array(vals).T
            err, scale = float(np.max(np.abs(n - g))), float(np.max(np.abs(g)))
            if not err <= SPREAD_RTOL.get((name, key), RTOL) * scale:
                bad.append(f"{name} {key}: {err:.3g} off at scale {scale:.3g}")
    return bad


def test_golden_answers(tmp_path):
    write_answers(tmp_path)
    assert compare(GOLDEN, tmp_path) == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_answers(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
