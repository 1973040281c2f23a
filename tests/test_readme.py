import ast
import pathlib

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _run_tour():
    """Run the python block of README's library tour statement by statement,
    as an interactive session would, and return the values of its bare
    expressions, in order."""
    text = README.read_text()
    code = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return shown


def test_library_tour_matches_its_comments():
    radius, uprime, c13, c14 = _run_tour()
    # sol.radius: 2 / 3**0.25
    assert abs(radius - 2.0 / 3 ** 0.25) <= 1e-12
    # rec.uprime(np.linspace(-1, 1, 5)): ~ x**3
    x = np.linspace(-1, 1, 5)
    assert np.max(np.abs(uprime - x ** 3)) <= 5e-3
    # the C13 check: moment deviations ~ 4e-16
    assert c13["max_moment_deviation"] <= 1e-12
    # the separable degree-8 check: ~ 3e-14
    assert c14["max_moment_deviation"] <= 1e-12
