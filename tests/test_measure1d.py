import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from freemoment import gibbs1d, measure1d as M
from freemoment.errors import InvalidInputError

from conftest import atoms_in_cells_measures, random_bump_measure


def test_moment_point_mass_at_origin():
    assert M.moment(M.dirac(0.0), 2) == 0.0


def test_moment_semicircle_first_and_second(semicircle):
    assert abs(M.moment(semicircle, 1)) < 1e-10
    # oracle: quadrature of x^2 sqrt(4-x^2)/(2 pi) equals 1 exactly
    assert abs(M.moment(semicircle, 2) - 1.0) < 1e-6


def test_quantile_uniform_and_dirac():
    assert abs(M.quantile(M.uniform(0.0, 1.0), 0.25) - 0.25) < 1e-12
    for s in (0.1, 0.5, 0.9):
        assert M.quantile(M.dirac(3.25), s) == 3.25


def test_quantile_semicircle_median(semicircle):
    assert abs(M.quantile(semicircle, 0.5)) < 1e-8


def test_quantile_rejects_bad_levels(semicircle):
    with pytest.raises(InvalidInputError):
        M.quantile(semicircle, 0.0)
    with pytest.raises(InvalidInputError):
        M.quantile(semicircle, 1.5)


def test_pushforward_identity(semicircle):
    out = M.pushforward_monotone(semicircle, lambda x: x)
    assert M.wasserstein2_sq(out, semicircle) < 1e-28
    assert np.max(np.abs(out.density - semicircle.density)) < 1e-10


def test_pushforward_flat_pieces_make_atoms(semicircle):
    out = M.pushforward_monotone(semicircle, lambda x: 0.5 * np.sign(x))
    assert len(out.atoms) == 2
    (x1, w1), (x2, w2) = out.atoms
    assert abs(x1 + 0.5) < 1e-12 and abs(x2 - 0.5) < 1e-12
    assert abs(w1 - 0.5) < 1e-12 and abs(w2 - 0.5) < 1e-12


def test_pushforward_flat_run_inside_the_density(semicircle):
    # f(x) = x - 0.5 sign(x) for |x| >= 0.5 and 0 inside: the run's atom at 0
    # lies inside one cell of the one pushed segment, whose cells beside the
    # run keep their mass (a gap there lost 1.6e-3 of it)
    from scipy import integrate

    mu = M.pushforward_monotone(
        semicircle, lambda x: np.where(np.abs(x) >= 0.5, x - 0.5 * np.sign(x), 0.0))
    # the semicircle's mass on [-0.5, 0.5]
    w = 2.0 * (0.5 * math.sqrt(3.75) / (4.0 * math.pi) + math.asin(0.25) / math.pi)
    (x0, w0), = mu.atoms
    assert x0 == 0.0 and abs(w0 - w) < 1e-6
    assert np.all(np.diff(mu.nodes) > 0)
    i = np.searchsorted(mu.nodes, 0.0)
    assert 0 < i < mu.nodes.size and mu.nodes[i - 1] < 0.0 < mu.nodes[i]
    assert abs(M.moment(mu, 0) - 1.0) <= 1e-5

    def rho(x):
        return math.sqrt(4.0 - x * x) / (2.0 * math.pi)

    # the exact H(mu)(1): y = f(x) = 1 at x = 1.5, where the principal value is
    # the Cauchy-weight quadrature
    left = integrate.quad(lambda x: rho(x) / (0.5 - x), -2.0, -0.5, epsabs=1e-14)[0]
    right = integrate.quad(rho, 0.5, 2.0, weight="cauchy", wvar=1.5, epsabs=1e-14)[0]
    exact = (left - right + w) / math.pi
    assert abs(M.hilbert_transform(mu, 1.0) - exact) <= 1e-6


def test_pushforward_rejects_decreasing(semicircle):
    with pytest.raises(InvalidInputError):
        M.pushforward_monotone(semicircle, lambda x: -x)


def test_pushforward_preserves_mass_and_quantile_order(semicircle):
    out = M.pushforward_monotone(semicircle, lambda x: x ** 3)
    assert not out.atoms
    assert np.all(np.diff(out._edges) >= -1e-12)
    # quantile table is exactly the composition f(Q(s)) on the table grid
    m = out.n_cells
    s = np.arange(1, m) / m
    assert np.max(np.abs(M.quantile(out, s) - M.quantile(semicircle, s) ** 3)) < 1e-10


def test_hilbert_semicircle_values(semicircle):
    assert abs(M.hilbert_transform(semicircle, 0.0)) < 1e-6
    assert abs(M.hilbert_transform(semicircle, 1.0) - 1.0 / (2 * math.pi)) < 1e-4
    # outside the support the transform matches the Cauchy-transform real part
    outside = (3.0 - math.sqrt(5.0)) / (2 * math.pi)
    assert abs(M.hilbert_transform(semicircle, 3.0) - outside) < 1e-10


def test_hilbert_at_segment_ends(semicircle):
    # the end nodes take the subtract-the-singularity rule; with zero density
    # there, rho log|(x - a)/(b - x)| is 0 rather than 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = M.hilbert_transform(semicircle, np.array([-2.0, 2.0]))
    assert np.max(np.abs(h - np.array([-1.0, 1.0]) / math.pi)) < 1e-4


def test_local_cubic_interpolates_cubics_and_short_segments():
    rng = np.random.default_rng(4)
    xs = np.sort(rng.uniform(-1.0, 2.0, 9))
    x = np.concatenate([xs, rng.uniform(-1.0, 2.0, 20)])
    for deg, k in ((3, 9), (2, 3), (1, 2)):
        c = rng.standard_normal(deg + 1)
        value, slope = M._local_cubic(xs[:k], np.polyval(c, xs[:k]), x)
        assert np.allclose(value, np.polyval(c, x), rtol=0, atol=1e-12)
        assert np.allclose(slope, np.polyval(np.polyder(c), x), rtol=0, atol=1e-11)
    # at a node the value is its sample exactly
    ds = rng.uniform(size=9)
    assert np.array_equal(M._local_cubic(xs, ds, xs)[0], ds)


def test_hilbert_odd_under_reflection(semicircle):
    for x in (0.3, 0.9, 1.5):
        h1 = M.hilbert_transform(semicircle, x)
        h2 = M.hilbert_transform(semicircle, -x)
        assert abs(h1 + h2) < 1e-8


def test_pushforward_flat_runs_at_the_density_ends_keep_its_mass():
    # clip(x, 0.25, 0.75) is flat on [0, 0.25] and on [0.75, 2], past both
    # ends of the density on [0, 1]: the pushed segment opens and closes at
    # the runs' ends with the density 0.5 there (it lost 2.9e-3 of the mass
    # when the nodes at those ends were pushed with a slope across the run)
    mu = M.pushforward_monotone(_mixed_measure(), lambda x: np.clip(x, 0.25, 0.75))
    assert abs(M.moment(mu, 0) - 1.0) <= 1e-6
    assert abs(mu.nodes[0] - 0.25) < 1e-11 and abs(mu.nodes[-1] - 0.75) < 1e-11
    assert np.max(np.abs(mu.density - 0.5)) < 1e-9


def test_pushforward_node_where_the_slope_vanishes_keeps_the_mass():
    # x^3 has slope 0 at the node x = 0, where its central difference reads
    # h^2 > 0: that node gets density 0, as an exactly flat one does, not rho/h^2
    x = np.linspace(-1.0, 1.0, 301)
    mu = M.GridMeasure.from_density(x, 1.0 + x ** 2, normalize=True)
    assert abs(M.moment(M.pushforward_monotone(mu, lambda t: t ** 3), 0) - 1.0) < 1e-3


def test_pushforward_keeps_an_input_atom_outside_every_flat_run():
    # max(x, 0.25) is flat on [0, 0.25], where the density holds 0.125; the
    # atom at 2 lies past that run and keeps its own image
    mu = M.pushforward_monotone(_mixed_measure(), lambda x: np.maximum(x, 0.25))
    (x0, w0), last = mu.atoms
    assert last == (2.0, 0.5)
    assert abs(x0 - 0.25) <= 1e-9 and abs(w0 - 0.125) <= 1e-9
    assert abs(M.moment(mu, 0) - 1.0) <= 1e-12
    # an atom of mass 1e-4 fills no table cell, so it makes no flat run of its
    # own and keeps its image exactly; the run on [-1, -0.5] has the mass up
    # to its bisected end, within 1e-11 of the CDF at -0.5
    x = np.linspace(-1.0, 1.0, 301)
    m = M.GridMeasure.from_density(x, 1 + x ** 2, atoms=[(0.3031, 1e-4)], normalize=True)
    (x0, w0), atom = M.pushforward_monotone(m, lambda t: np.maximum(t, -0.5)).atoms
    assert atom == (0.3031, 1e-4)
    assert x0 == -0.5 and abs(w0 - m.cdf(-0.5)) <= 1e-11
    # an atom of mass 0.2 fills table cells, which collapse to one point; f is
    # flat on no interval around it, so no flat run takes the atom and it keeps
    # its mass exactly
    m = M.GridMeasure.from_density(x, 1 + x ** 2, atoms=[(0.3031, 0.2)], normalize=True)
    ((xa, wa),) = M.pushforward_monotone(m, lambda t: t ** 3).atoms
    assert wa == 0.2 and abs(xa - 0.3031 ** 3) <= 1e-16
    (x0, w0), atom = M.pushforward_monotone(m, lambda t: np.maximum(t, -0.5)).atoms
    assert atom == (0.3031, 0.2)
    assert x0 == -0.5 and abs(w0 - m.cdf(-0.5)) <= 1e-11


def test_hilbert_rejects_atoms():
    with pytest.raises(InvalidInputError):
        M.hilbert_transform(M.dirac(0.5), 0.5)


def _mixed_measure():
    nodes = np.linspace(0.0, 1.0, 257)
    density = np.full(nodes.size, 0.5)
    return M.GridMeasure.from_density(nodes, density, atoms=[(2.0, 0.5)])


def test_mixed_measure_quantiles_and_moments():
    m = _mixed_measure()
    assert abs(m.cdf(math.inf) - 1.0) < 1e-12
    assert abs(M.quantile(m, 0.25) - 0.5) < 1e-12
    assert M.quantile(m, 0.75) == 2.0
    assert abs(M.moment(m, 1) - (0.5 * 0.5 + 0.5 * 2.0)) < 1e-12


def test_mixed_measure_hilbert_includes_atom_term():
    m = _mixed_measure()
    # at x = -1: smooth integral of 0.5/(x-t) over [0,1] plus 0.5/(x-2)
    expect = (0.5 * math.log(1.0 / 2.0) + 0.5 / (-3.0)) / math.pi
    assert abs(M.hilbert_transform(m, -1.0) - expect) < 1e-6


def test_hilbert_just_outside_a_segment_with_nonzero_end_density():
    # the end density 0.5 makes d(t)/(x - t) nearly singular just outside [0, 1]
    m = _mixed_measure()
    xs = np.array([-1e-9, -1e-6, -1e-3, -0.5, 1.0 + 1e-9, 1.5])
    exact = (0.5 * np.log(np.abs(xs / (xs - 1.0))) + 0.5 / (xs - 2.0)) / math.pi
    assert np.max(np.abs(M.hilbert_transform(m, xs) - exact)) < 1e-9


def test_pushforward_of_mixed_measure():
    m = _mixed_measure()
    out = M.pushforward_monotone(m, lambda x: x ** 2)
    assert any(abs(x - 4.0) < 1e-12 and abs(w - 0.5) < 1e-12 for x, w in out.atoms)
    assert abs(M.quantile(out, 0.25) - 0.25) < 1e-6


def test_pushforward_mass_preserved_smooth_map(semicircle):
    out = M.pushforward_monotone(semicircle, lambda x: x + 0.1 * x ** 3)
    # density view re-quadratured on the stretched grid; quantile view is exact
    assert abs(M.moment(out, 0) - 1.0) < 1e-6
    assert not out.atoms
    assert out._edges[0] == out.support[0] and out._edges[-1] == out.support[1]


def _log_kernel_primitive(u):
    # Second primitive of -log|u|; C^1 across 0 with value 0 there.
    a = np.abs(np.asarray(u, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a)
        out *= -2.0
        out += 3.0
        out *= 0.25 * a * a
    out[a == 0.0] = 0.0
    return out


def _brute_force_log_energy(fn, support, cells=2000):
    # independent oracle: piecewise-constant density on a uniform grid with
    # the log kernel integrated in closed form on every cell pair
    edges = np.linspace(support[0], support[1], cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = fn(mids)
    dens = dens / np.sum(dens * np.diff(edges))
    g = _log_kernel_primitive(np.subtract.outer(edges, edges))
    block = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
    return float(np.sum(block * np.outer(dens, dens)))


def test_log_energy_semicircle(semicircle):
    val = M.log_energy(semicircle)
    oracle = _brute_force_log_energy(
        lambda x: np.sqrt(np.clip(4.0 - x * x, 0, None)) / (2 * np.pi), (-2.0, 2.0))
    assert abs(val - oracle) < 1e-3
    assert abs(val - 0.25) < 1e-3  # analytic value for the unit-variance semicircle


def test_log_energy_atom_is_infinite():
    assert math.isinf(M.log_energy(M.dirac(1.0)))
    assert math.isinf(M.log_energy(M.two_point(1.0)))


def test_log_energy_translation_invariance(semicircle):
    assert abs(M.log_energy(semicircle.translate(2.31)) - M.log_energy(semicircle)) < 1e-8


def test_wasserstein_basics(semicircle):
    assert M.wasserstein2_sq(semicircle, semicircle) == 0.0
    assert abs(M.wasserstein2_sq(semicircle, semicircle.translate(1.5)) - 2.25) < 1e-12
    assert abs(M.wasserstein2_sq(M.dirac(0.0), M.dirac(1.0)) - 1.0) < 1e-14


def test_max_correlation_examples(semicircle):
    assert abs(M.max_correlation(semicircle, M.dirac(0.0))) < 1e-14
    assert abs(M.max_correlation(semicircle, semicircle)
               - M._block_moment(semicircle, 2)) < 1e-12
    # both laws' tables of 8192 cells
    sc, tp = (M.GridMeasure.from_quantile_edges(m._exact_quantile(np.linspace(0.0, 1.0, 8193)))
              for m in (semicircle, M.two_point(1.0)))
    # oracle: integral of |x| against the semicircle, 8/(3 pi)
    assert abs(M.max_correlation(sc, tp) - 8.0 / (3.0 * math.pi)) < 1e-6


def test_max_correlation_identity_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m1 = random_bump_measure(rng, n_cells=512)
        m2 = random_bump_measure(rng, n_cells=512)
        t = M.max_correlation(m1, m2)
        w2 = M.wasserstein2_sq(m1, m2)
        ident = 0.5 * (M._block_moment(m1, 2) + M._block_moment(m2, 2) - w2)
        assert abs(t - ident) < 1e-8 * max(1.0, abs(t))


def test_displacement_endpoints_and_translates(semicircle):
    m1 = semicircle.translate(1.0)
    assert M.wasserstein2_sq(M.displacement_interpolate(semicircle, m1, 0.0), semicircle) < 1e-24
    assert M.wasserstein2_sq(M.displacement_interpolate(semicircle, m1, 1.0), m1) < 1e-24
    mid = M.displacement_interpolate(semicircle, m1, 0.5)
    assert M.wasserstein2_sq(mid, semicircle.translate(0.5)) < 1e-24


def test_displacement_rejects_atomic_start():
    with pytest.raises(InvalidInputError):
        M.displacement_interpolate(M.two_point(1.0), M.dirac(0.0), 0.5)
    with pytest.raises(InvalidInputError):
        M.displacement_interpolate(M.uniform(), M.dirac(0.0), 1.5)


def test_quantile_table_with_flat_run_reads_its_block_model(semicircle):
    # a flat run is an atom, but the table's other cells carry mass too
    m = M.GridMeasure.from_quantile_edges([0.0, 0.5, 0.5, 0.5, 1.0])
    assert m.atoms == [(0.5, 0.5)] and not m.is_atomic()
    assert M.quantile(m, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert M.moment(m, 1) == M._block_moment(m, 1) == pytest.approx(0.5, abs=1e-15)
    # at t = 1 the two-point law's middle cell [-1, 1] keeps its mass 1/1024
    end = M.displacement_interpolate(semicircle, M.two_point(1.0), 1.0)
    assert sum(w for _, w in end.atoms) == 1023 / 1024
    assert M.moment(end, 0) == pytest.approx(1.0, abs=1e-15)
    assert M.moment(end, 2) == pytest.approx(1023 / 1024 + 1 / 3072, abs=1e-15)
    # measures from atoms keep their exact atom sums
    assert M.two_point(1.0).is_atomic() and M.moment(M.two_point(1.0), 2) == 1.0


def test_table_only_measure_reads_its_block_model_everywhere():
    # the flat run is an atom of mass 1/2; the cells on either side carry 1/4 each
    m = M.GridMeasure.from_quantile_edges([0.0, 0.5, 0.5, 0.5, 1.0])
    assert m.cdf(0.75) == pytest.approx(0.875, abs=1e-15)
    assert np.allclose(m.cdf(np.array([-1.0, 0.25, 0.5, 1.0, 2.0])), [0.0, 0.125, 0.75, 1.0, 1.0])
    assert m.cdf(math.inf) == 1.0
    with pytest.raises(InvalidInputError):
        M.hilbert_transform(m, 0.9)
    # its image is f of the table, alone, with the run's atom at f(0.5)
    mu = M.pushforward_monotone(m, lambda x: x ** 3)
    assert mu.nodes is None and np.array_equal(mu._edges, np.maximum.accumulate(m._edges ** 3))
    assert mu.atoms == [(0.125, 0.5)]


def test_translate_keeps_the_quantile_table_primary(semicircle):
    m = M.GridMeasure.from_quantile_edges([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]).translate(1.0)
    assert M.quantile(m, 0.1) == pytest.approx(1.125, abs=1e-15)
    pushed = M.pushforward_monotone(semicircle, lambda x: x ** 3)
    s = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(M.quantile(pushed.translate(0.7), s) - M.quantile(pushed, s) - 0.7)) < 1e-12


def test_first_moment_lower_bound_for_log_energy():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = random_bump_measure(rng, n_cells=512)
        absmom = M.absolute_moment(m)
        assert M.log_energy(m) >= -math.sqrt(2.0 * absmom)


def test_displacement_convexity_structural():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m0 = random_bump_measure(rng, n_cells=512)
        m1 = random_bump_measure(rng, n_cells=512)
        l0, l1 = M.log_energy(m0), M.log_energy(m1)
        for t in (0.25, 0.5, 0.75):
            lt = M.log_energy(M.displacement_interpolate(m0, m1, t))
            assert lt <= (1 - t) * l0 + t * l1 + 1e-8


def test_measure_validation(semicircle):
    assert semicircle.validate()
    with pytest.raises(InvalidInputError):
        M.GridMeasure.from_density([0.0, 1.0], [-1.0, 2.0])
    with pytest.raises(InvalidInputError):
        M.GridMeasure.from_atoms([(0.0, 0.4)])


def test_json_roundtrip(semicircle):
    text = semicircle.to_json()
    back = M.GridMeasure.from_dict(json.loads(text))
    assert np.max(np.abs(back.nodes - semicircle.nodes)) == 0.0
    assert np.max(np.abs(back.density - semicircle.density)) == 0.0
    assert np.max(np.abs(back.quantiles - semicircle.quantiles)) == 0.0
    tp = M.two_point(0.75)
    back2 = M.GridMeasure.from_dict(json.loads(tp.to_json()))
    assert back2.atoms == tp.atoms


def test_table_only_measures_write_no_samples(semicircle):
    # a measure without samples writes none, and no flag: its table carries it
    particles = M.GridMeasure.from_quantile_edges(
        np.sort(np.random.default_rng(1).standard_normal(129)))
    cubed = M.pushforward_monotone(semicircle, lambda x: x ** 3)
    for m in (particles, M.displacement_interpolate(semicircle, cubed, 0.5)):
        data = json.loads(m.to_json())
        assert data["nodes"] == data["density"] == []
        assert "quantiles_primary" not in data and "segment_lengths" not in data
        back = M.GridMeasure.from_dict(data)
        assert np.array_equal(back._edges, m._edges) and back.atoms == m.atoms
        assert M.wasserstein2_sq(back, m) == 0.0


def test_csv_export(semicircle):
    text = semicircle.to_csv()
    rows = text.strip().splitlines()
    assert rows[0] == "node,density"
    assert len(rows) == semicircle.nodes.size + 1
    first = rows[1].split(",")
    assert float(first[0]) == semicircle.nodes[0]
    # the text the csv module writes for the same rows, to the byte
    for m in (semicircle, M.two_point(0.75)):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["node", "density"])
        if m.nodes is not None:
            writer.writerows([repr(float(x)), repr(float(d))] for x, d in zip(m.nodes, m.density))
        assert m.to_csv() == buf.getvalue()


def test_center_and_barycenter(semicircle):
    shifted = semicircle.translate(0.8)
    assert abs(M.moment(shifted, 1) - 0.8) < 1e-10
    recentered = shifted.translate(-M.moment(shifted, 1))
    assert abs(M.moment(recentered, 1)) < 1e-10


# -- array paths against the per-element code they replaced --------------------


def _dense_log_energy(m):
    # every block pair of the full (n+1) x (n+1) kernel table
    if m.atoms:
        return math.inf
    e = m._edges
    d = np.diff(e)
    if np.any(d <= M._FLAT_TOL * (abs(e[-1] - e[0]) + 1.0)):
        return math.inf
    g = _log_kernel_primitive(np.subtract.outer(e, e))
    block = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
    n = d.size
    weights = 1.0 / np.outer(d, d)
    return float(np.sum(block * weights)) / (n * n)


@pytest.mark.parametrize("n_cells", [3, 63, 64, 65, 384, 1000, 1024])
def test_log_energy_strips_match_dense_sum(n_cells):
    rng = np.random.default_rng(n_cells)
    for m in (random_bump_measure(rng, n_cells=n_cells),
              random_bump_measure(rng, n_cells=n_cells).translate(-3.7)):
        ref = _dense_log_energy(m)
        assert abs(M.log_energy(m) - ref) <= 1e-11 * abs(ref)


def test_log_energy_strips_match_dense_sum_on_clustered_edges(quartic_solution):
    # the x^3 image of a Gibbs measure piles its quantile edges up near 0
    for m in (M.pushforward_monotone(quartic_solution.measure, lambda x: x ** 3),
              quartic_solution.measure.translate(2.31)):
        ref = _dense_log_energy(m)
        assert abs(M.log_energy(m) - ref) <= 1e-11 * abs(ref)


def _longdouble_log_energy(m):
    # the dense block sum of _dense_log_energy in extended precision, on the
    # same float64 edges
    e = m._edges.astype(np.longdouble)
    d = np.diff(e)
    u = np.abs(np.subtract.outer(e, e))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = u * u * (3 - 2 * np.log(u)) / 4
    g[u == 0] = 0
    block = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
    return float(np.sum(block / np.outer(d, d)) / d.size ** 2)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_log_energy_matches_extended_precision_sum(quartic_solution):
    gibbs = gibbs1d.free_gibbs_measure(gibbs1d.EvenPotential([0.4, 0.1, 0.03]))
    for nu in (quartic_solution.measure, gibbs.measure):
        mu = M.pushforward_monotone(nu, lambda x: x ** 3)
        for m in (mu, mu.translate(2.31), M.displacement_interpolate(nu, mu, 0.5)):
            ref = _longdouble_log_energy(m)
            assert abs(M.log_energy(m) - ref) <= 1e-11 * abs(ref)


def test_log_energy_forms_no_n_by_n_table():
    # at 1024 cells an n x n float table is 8.4 MB, the two strips of 65
    # rows 1.1 MB
    m = random_bump_measure(np.random.default_rng(5), n_cells=1024)
    tracemalloc.start()
    try:
        M.log_energy(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_log_energy_infinite_for_atoms_and_flat_cells():
    flat = M.GridMeasure.from_quantile_edges([0.0, 0.25, 0.25, 0.5, 1.0])
    for m in (M.dirac(0.3), M.two_point(1.0), _mixed_measure(), flat):
        assert M.log_energy(m) == _dense_log_energy(m) == math.inf


def test_sample_pieces_are_computed_once_per_measure(monkeypatch):
    calls = []
    compute = M.GridMeasure._compute_sample_pieces

    def counted(self):
        calls.append(self)
        return compute(self)

    monkeypatch.setattr(M.GridMeasure, "_compute_sample_pieces", counted)
    for make in (M.semicircle, _mixed_measure, lambda: M.two_point(1.0),
                 lambda: gibbs1d.free_gibbs_measure(gibbs1d.EvenPotential([0.4, 0.1])).measure):
        calls.clear()
        m = make()
        M.quantile(m, 0.3)
        m.cdf(0.1)
        assert calls == [m]


def _loop_exact_quantile(m, s):
    # one mass-carrying piece at a time, one level at a time
    items = []
    if m.nodes is not None:
        xs, ds = m.nodes, m.density
        # cut at the atoms inside the segment but not on a node
        cuts = [x for x, _ in m.atoms if xs[0] < x < xs[-1] and x not in xs]
        if cuts:
            split = sorted(xs.tolist() + cuts)
            xs, ds = np.array(split), np.array([np.interp(x, xs, ds) for x in split])
        masses = 0.5 * (ds[:-1] + ds[1:]) * np.diff(xs)
        for i in range(xs.size - 1):
            if masses[i] > 0:
                items.append(("cell", xs[i], xs[i + 1], ds[i], ds[i + 1], masses[i]))
    for x, w in m.atoms:
        items.append(("atom", x, x, 0.0, 0.0, w))
    items.sort(key=lambda it: (it[1], it[2]))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    cum = np.concatenate([[0.0], np.cumsum([it[5] for it in items])])
    total = cum[-1]
    out = np.empty_like(s)
    idx = np.clip(np.searchsorted(cum, s * total, side="left") - 1, 0, len(items) - 1)
    for k, (sk, i) in enumerate(zip(s, idx)):
        kind, x0, x1, d0, d1, mass = items[i]
        if kind == "atom":
            out[k] = x0
            continue
        rem = min(max(sk * total - cum[i], 0.0), mass)
        if rem == 0.0:
            out[k] = x0
            continue
        if sk * total >= cum[i + 1]:
            out[k] = x1
            continue
        disc = d0 * d0 + 2.0 * (d1 - d0) * rem / (x1 - x0)
        root = 2.0 * rem / (math.sqrt(max(disc, 0.0)) + d0)
        out[k] = min(max(x0 + root, x0), x1)
    return out


def test_exact_quantile_matches_level_loop(semicircle):
    nodes = np.linspace(-1.0, 1.0, 301)
    # an atom strictly inside a density cell, one on a node, one past the end
    atoms = [(0.3031, 0.2), (float(nodes[90]), 0.1), (1.5, 0.05)]
    inner = M.GridMeasure.from_density(nodes, 1.0 + nodes ** 2, atoms=atoms, normalize=True)
    # levels on every cumulative-mass boundary of _mixed_measure (multiples of 2^-9)
    # and at 0 and 1
    s = np.concatenate([np.linspace(0.0, 1.0, 1025), np.arange(513) / 512.0,
                        np.random.default_rng(2).uniform(size=300)])
    for m in (semicircle, M.uniform(-1.0, 2.0), M.two_point(0.75), M.dirac(1.5),
              _mixed_measure(), inner):
        assert np.array_equal(m._exact_quantile(s), _loop_exact_quantile(m, s))


def test_quantile_with_an_atom_inside_a_density_cell():
    # the atom at 0.3031 lies strictly inside a cell of the grid; the cell's
    # mass used to sort wholly before it, and the quantile fell back past it
    s = np.linspace(0.0, 1.0, 100001)[1:-1]
    for m in atoms_in_cells_measures():
        q = M.quantile(m, s)
        assert np.all(np.diff(q) >= 0.0)
        # a generalized inverse: F(q-) <= s <= F(q)
        cdf = m.cdf(q)
        jump = sum(np.where(q == x, w, 0.0) for x, w in m.atoms)
        assert np.all(cdf - jump <= s + 1e-12) and np.all(s <= cdf + 1e-12)


def test_cdf_inverts_the_quantile_of_table_measures(quartic_solution):
    # quantile and cdf of a pushforward both read its table; cdf used to read
    # the pushed density, and missed s by 2.3e-3 on x^3 and 1.4e-4 on u'
    s = np.linspace(0.0, 1.0, 10001)[1:-1]
    particles = M.GridMeasure.from_quantile_edges(
        np.sort(np.random.default_rng(1).standard_normal(129)))
    for m in (M.pushforward_monotone(quartic_solution.measure, lambda x: x ** 3),
              M.pushforward_monotone(quartic_solution.measure,
                                     gibbs1d.EvenPotential([0.35, 0.11]).deriv),
              particles):
        assert np.max(np.abs(m.cdf(M.quantile(m, s)) - s)) <= 1e-12


def _measures_of_each_kind(semicircle):
    """Samples and atoms, samples, atoms, a table alone with a flat run, and
    a pushforward."""
    edges = np.sort(np.random.default_rng(1).standard_normal(129))
    edges[40:60] = edges[40]
    return [*atoms_in_cells_measures(), semicircle, M.two_point(0.75),
            M.GridMeasure.from_quantile_edges(edges),
            M.pushforward_monotone(semicircle, lambda x: x ** 3)]


def test_the_table_inverts_the_cdf_and_ends_on_the_support(semicircle):
    # the check validate made of a stored table, F(q-) <= j/n <= F(q) at
    # every level j/n within 1e-8, now holds of every table by construction;
    # F(q-) is read one float below q, and the levels 0 and 1 are included
    for m in _measures_of_each_kind(semicircle):
        for k in (m, M.GridMeasure.from_dict(json.loads(m.to_json()))):
            q, s = k._edges, np.linspace(0.0, 1.0, k.n_cells + 1)
            below, at = k.cdf(np.stack([np.nextafter(q, -np.inf), q]))
            assert np.all(below - 1e-8 <= s) and np.all(s <= at + 1e-8)
            assert k.support == (q[0], q[-1])


def test_measure_files_round_trip_what_determines_them(semicircle):
    keys = [{"nodes", "density", "atoms"}] * 4 + [
        {"support", "nodes", "density", "quantiles"},
        {"support", "nodes", "density", "atoms", "quantiles", "quantiles_primary"}]
    for m, kind_keys in zip(_measures_of_each_kind(semicircle), keys):
        text = m.to_json()
        assert set(json.loads(text)) == kind_keys
        back = M.GridMeasure.from_dict(json.loads(text))
        assert back.to_json() == text
        assert back._edges.tobytes() == m._edges.tobytes()
        assert np.array(back.atoms).tobytes() == np.array(m.atoms).tobytes()
        assert np.array(back.support).tobytes() == np.array(m.support).tobytes()
    # 105,284 and 5,730 bytes when the files held the derived table
    assert len(semicircle.to_json()) <= 84_207 and len(M.two_point(1.0).to_json()) <= 100


def test_measure_files_hold_no_key_their_kind_derives(semicircle, quartic_solution):
    # samples and atoms derive the table and its ends, and a table alone its
    # atoms; a file holding such a key is invalid input naming it.  Read, the
    # edited support moved the semicircle's log energy 0.24999 -> 0.24879,
    # and the edited atoms made the particle cloud a two-point law
    one, particles = atoms_in_cells_measures()[0], _measures_of_each_kind(semicircle)[4]
    edits = [(semicircle, "support", [-3.0, 3.0]),
             (one, "quantiles", list(np.linspace(-1.0, 1.0, one.n_cells + 1)[1:-1])),
             (one, "support", [-1.0, 1.0]),
             (M.two_point(0.75), "support", [-0.75, 0.75]),
             (particles, "atoms", [[-1.0, 0.5], [1.0, 0.5]])]
    for m, key, value in edits:
        data = json.loads(m.to_json())
        data[key] = value
        with pytest.raises(InvalidInputError, match=f"^'{key}' is derived"):
            M.GridMeasure.from_dict(data)
    # nor can a support be given beside samples
    with pytest.raises(TypeError):
        M.GridMeasure.from_density(semicircle.nodes, semicircle.density, support=(-3.0, 3.0))
    # a pushforward's table is its CDF, and its density samples are still checked
    data = M.pushforward_monotone(quartic_solution.measure, lambda x: 2.0 * x).to_dict()
    assert M.GridMeasure.from_dict(data).validate()
    data["density"][100] = -1e-3
    with pytest.raises(InvalidInputError, match="nonnegative"):
        M.GridMeasure.from_dict(data).validate()
    # and so is a NaN in its table, which a check by diff < 0 let through
    data = M.pushforward_monotone(quartic_solution.measure, lambda x: 2.0 * x).to_dict()
    data["quantiles"][5] = math.nan
    with pytest.raises(InvalidInputError, match="nondecreasing"):
        M.GridMeasure.from_dict(data)


def test_quantile_table_ends_on_the_support(quartic_solution):
    # the quartic law's density vanishes at its ends, where the root of the
    # last cell misses the end by the square root of round-off
    m = quartic_solution.measure
    back = M.GridMeasure.from_dict(json.loads(m.to_json()))
    assert np.array_equal(back._edges, m._edges)
    mu = M.pushforward_monotone(m, lambda x: x ** 3)
    assert mu.support[1] == mu.nodes[-1]


def test_quantile_of_a_flat_cell_one_ulp_off_is_exact():
    # a uniform density with one sample one ulp high: the form of the root
    # that cancels misses the median by 2.4e-4 in CDF, and validate rejects it
    density = np.full(2048, 0.5)
    density[1024] = np.nextafter(0.5, 1.0)
    m = M.GridMeasure.from_density(np.linspace(-1.0, 1.0, 2048), density)
    s = np.linspace(0.0, 1.0, m.n_cells + 1)[1:-1]
    assert np.max(np.abs(m.cdf(m.quantiles) - s)) <= 1e-15


def _pointwise_pushforward(m, f):
    # one point per call of f; a one-element array rather than a 0-d value,
    # because NumPy's power rounds those two by up to 1 ulp apart and the
    # central difference below would amplify that
    def f1(x):
        return float(np.asarray(f(np.array([x])), dtype=float)[0])

    lo, hi = m.support
    scale = hi - lo
    fp = np.array([f1(x) for x in np.linspace(lo, hi, 1025)])
    fscale = abs(fp[-1] - fp[0]) + 1.0
    if np.any(np.diff(fp) < -1e-10 * fscale):
        raise InvalidInputError("f must be nondecreasing on the support")
    new_edges = np.maximum.accumulate(np.array([f1(x) for x in m._edges]))
    if m.is_atomic():
        merged = {}
        for x, w in m.atoms:
            y = f1(x)
            merged[y] = merged.get(y, 0.0) + w
        return M.GridMeasure.from_atoms(merged.items())
    flat_tol = 1e-12 * fscale
    mids = 0.5 * (m._edges[:-1] + m._edges[1:])
    fmids = np.array([f1(x) for x in mids])
    runs = []
    j = 0
    while j < mids.size - 1:
        if abs(fmids[j + 1] - fmids[j]) <= flat_tol:
            k = j
            while k < mids.size - 1 and abs(fmids[k + 1] - fmids[k]) <= flat_tol:
                k += 1
            runs.append((j, k, fmids[j]))
            j = k + 1
        else:
            j += 1
    atoms, flat_x = [], []
    # the segment's ends: the moving side of a run that reaches an end node of the density
    tol = 1e-13 * scale
    seg_lo, seg_hi = -math.inf, math.inf
    for j0, j1, v in runs:
        xl, move_l = M._refine_flat_boundary(f, mids[j0], lo, v, flat_tol)
        xr, move_r = M._refine_flat_boundary(f, mids[j1], hi, v, flat_tol)
        mass = float(m.cdf(xr) - m.cdf(xl))
        if mass > 1e-13:
            atoms.append((v, mass))
            flat_x.append((xl, xr))
            if xl - tol <= m.nodes[0] <= xr + tol:
                seg_lo = move_r
            elif xl - tol <= m.nodes[-1] <= xr + tol:
                seg_hi = move_l
    # the nodes outside every flat run, pushed as one segment
    keep = [seg_lo < x < seg_hi and not any(xl + tol < x < xr - tol for xl, xr in flat_x)
            for x in m.nodes]
    xs, rho = m.nodes[keep], m.density[keep]
    ys = [f1(x) for x in xs]
    fpv = np.empty(xs.size)
    for i, x in enumerate(xs):
        h = 6e-6 * max(abs(x), 0.05 * scale, 1e-12)
        fpv[i] = (f1(x + h) - f1(x - h)) / (2.0 * h)
    dens = list(np.divide(rho, fpv, out=np.zeros_like(fpv), where=fpv > 1e-300))
    # a run's end opens or closes the segment, with the density that gives the
    # cell beside it the mass of m's density there
    for x, k in ((seg_lo, 0), (seg_hi, -1)):
        if xs.size and math.isfinite(x):
            y = f1(x)
            cell = 0.5 * (np.interp(x, m.nodes, m.density) + rho[k]) * (xs[k] - x)
            d = max(2.0 * cell / (ys[k] - y) - dens[k], 0.0) if ys[k] != y else 0.0
            at = 0 if k == 0 else len(ys)
            ys.insert(at, y)
            dens.insert(at, d)
    ys, dens = np.array(ys), np.array(dens)
    good = np.concatenate([[True], np.diff(ys) > 0]) & np.isfinite(dens)
    for xa, wa in m.atoms:
        if not any(xl <= xa <= xr for xl, xr in flat_x):
            atoms.append((f1(xa), wa))
    if not np.trapezoid(dens[good], ys[good]) > 0.0:
        return M.GridMeasure.from_atoms(atoms)
    return M.GridMeasure(ys[good], dens[good], atoms, new_edges, quantiles_primary=True)


def _assert_within_ulps(a, b, ulps=4):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= ulps * np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b)))


def test_pushforward_matches_pointwise_reference(semicircle, quartic_solution):
    cases = [(_mixed_measure(), lambda x: x ** 2),
             # flat runs at both ends; the upper one swallows the input atom at 2
             (_mixed_measure(), lambda x: np.clip(x, 0.25, 0.75)),
             # a run at the lower end whose slope vanishes where it ends
             (_mixed_measure(), lambda x: 0.25 + np.maximum(x - 0.25, 0.0) ** 2),
             (semicircle, lambda x: 0.5 * np.sign(x)),
             (quartic_solution.measure, lambda x: x ** 3),
             (M.two_point(0.5), lambda x: x ** 3)]
    for m, f in cases:
        out, ref = M.pushforward_monotone(m, f), _pointwise_pushforward(m, f)
        assert out.atoms == ref.atoms
        assert out.support == ref.support
        _assert_within_ulps(out._edges, ref._edges)
        assert (out.nodes is None) == (ref.nodes is None)
        if out.nodes is not None:
            _assert_within_ulps(out.nodes, ref.nodes)
            _assert_within_ulps(out.density, ref.density)


def _full_table_hilbert(m, x):
    # the inside rule with the near-node test on every entry of the table and
    # np.trapezoid on each row; every x lies inside m's one segment
    scale = m.support[1] - m.support[0]
    xs, ds = m.nodes, m.density
    a, b = xs[0], xs[-1]
    rho, slope = M._local_cubic(xs, ds, x)
    dx = np.subtract.outer(x, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (ds - rho[:, None]) / dx
    g = np.where(np.abs(dx) < 1e-12 * scale, -slope[:, None], g)
    return (np.trapezoid(g, xs, axis=1) + rho * np.log(np.abs((x - a) / (b - x)))) / math.pi


def test_hilbert_near_nodes_matches_full_table_rule():
    # points at nodes and within 1e-12 * scale of them; the nodes 0 and 1e-13
    # are both that close to the points 0 and 1e-13
    nodes = np.concatenate([np.linspace(-1.0, 0.0, 40), [1e-13], np.linspace(0.05, 1.0, 30)])
    m = M.GridMeasure.from_density(nodes, 1.0 - nodes ** 2, normalize=True)
    x = np.concatenate([nodes[1:-1], nodes[1:-1] + 3e-13, [5e-14]])
    ref = _full_table_hilbert(m, x)
    assert np.all(np.isfinite(ref))
    assert np.max(np.abs(M.hilbert_transform(m, x) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_hilbert_transform_array_matches_points(semicircle):
    # 47 points span two batches of the semicircle's 2048-node table
    xs = np.concatenate([[-3.0, -1.999, -1.3, 0.05, 0.4, 1.99, 2.5], np.linspace(-1.9, 1.9, 40)])
    for m in (semicircle, _mixed_measure()):
        h = M.hilbert_transform(m, xs)
        assert isinstance(h, np.ndarray) and h.shape == xs.shape
        points = [M.hilbert_transform(m, x) for x in xs]
        assert all(isinstance(p, float) for p in points)
        assert np.array_equal(h, points)
