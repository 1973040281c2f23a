import numpy as np
import pytest

from freemoment import gibbs1d, measure1d


@pytest.fixture(scope="session")
def semicircle():
    return measure1d.semicircle()


@pytest.fixture(scope="session")
def quartic_solution():
    return gibbs1d.free_gibbs_measure(gibbs1d.EvenPotential([0.0, 0.25]))


def write_json(path, obj):
    """Write ``obj.to_json()`` to the file ``path``."""
    path.write_text(obj.to_json())


def random_bump_measure(rng, n_nodes=1024, n_cells=None):
    """A random smooth compactly supported probability measure; with
    ``n_cells``, its quantile table of that many cells, as a measure of the
    table alone."""
    k = int(rng.integers(1, 4))
    centers = rng.uniform(-2.0, 2.0, size=k)
    weights = rng.uniform(0.2, 1.0, size=k)
    widths = rng.uniform(0.25, 1.0, size=k)
    lo = float(centers.min() - 4.5 * widths.max())
    hi = float(centers.max() + 4.5 * widths.max())

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, w, s in zip(centers, weights, widths):
            out += w * np.exp(-(((x - c) / s) ** 2))
        return out

    m = measure1d.GridMeasure.from_callable(fn, (lo, hi), n_nodes=n_nodes)
    if n_cells is None:
        return m
    return measure1d.GridMeasure.from_quantile_edges(
        m._exact_quantile(np.linspace(0.0, 1.0, n_cells + 1)))


def atoms_in_cells_measures():
    """Two mixed measures with density 1 + x^2 on 301 nodes of [-1, 1]: one
    atom strictly inside a density cell, then that atom and one more on a
    node and one past the density's end."""
    nodes = np.linspace(-1.0, 1.0, 301)
    one = [(0.3031, 0.2)]
    three = one + [(float(nodes[90]), 0.1), (1.5, 0.05)]
    return [measure1d.GridMeasure.from_density(nodes, 1.0 + nodes ** 2, atoms=atoms,
                                               normalize=True)
            for atoms in (one, three)]


def noncrossing_pair_count(word):
    """Brute-force count of non-crossing pairings matching equal letters.

    Independent oracle for the moments of a free semicircular family; only
    intended for short words.
    """
    word = tuple(word)
    if len(word) % 2 == 1:
        return 0

    def rec(w):
        if not w:
            return 1
        first = w[0]
        total = 0
        for j in range(1, len(w)):
            if w[j] == first:
                total += rec(w[1:j]) * rec(w[j + 1:])
        return total

    return rec(word)
