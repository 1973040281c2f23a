"""Reproduce the freemoment failures that the workloads leave out.

    python3 bench/defects.py

Every operation of a benchmark workload has to pass, so two inputs on which
the program fails are kept out of the workloads (see workloads.py).  This
script runs them and says, for each, whether the failure still stands:
* `freemoment verify` on a moment1d solution file exits 2
  ("unrecognized solution file");
* `solve_V` on C13 (c x^4, n=1, D=10) misses the 1e-3 moment cross-check
  against the one-variable solver for c = 0.048 and c = 0.0505, while the
  fixed c = 0.05 the workloads use passes.
Run from the root of a source checkout.  Exits 0 when every failure is gone,
so a fix can let the workloads draw these inputs again.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import subprocess  # noqa: E402

from workloads import cli_command, op_transport_nc  # noqa: E402


def verify_moment1d_file():
    work = ROOT / "bench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for argv in (["moment1d", "--target", "builtin:semicircle", "--particles", "64",
                      "--out", "m.json"], ["verify", "--solution", "m.json"]):
            proc = subprocess.run(cli_command(argv), cwd=tmp, capture_output=True,
                                  text=True, timeout=120)
        return proc.returncode == 0, f"verify exited {proc.returncode}"


def c13_cross_check():
    notes = []
    for c in (0.048, 0.0505):
        ok, note = op_transport_nc("c13", c)
        notes.append(f"c={c}: " + ("passes" if ok else note))
    return all(n.endswith("passes") for n in notes), "; ".join(notes)


def main():
    standing = 0
    for name, probe in (("verify on a moment1d file", verify_moment1d_file),
                        ("C13 cross-check off c = 0.05", c13_cross_check)):
        fixed, note = probe()
        standing += not fixed
        print(f"[{'fixed' if fixed else 'STANDS'}] {name}: {note}")
    return 1 if standing else 0


if __name__ == "__main__":
    sys.exit(main())
