import ast
import functools
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    """The TARGETS dict of bench/tracer.py, read from its source, not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_name_resolves():
    # the tracer rebinds each of these by name, so a traced benchmark run
    # fails on one that was renamed or removed
    targets = _targets()
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"freemoment.{module}")
        for name in names:
            assert callable(functools.reduce(getattr, name.split("."), mod)), f"{module}.{name}"
