import math

import numpy as np
import pytest

from freemoment import gibbs1d as G
from freemoment import measure1d as M
from freemoment.errors import InvalidInputError, RegimeError

QUARTIC_RADIUS = 2.0 / 3.0 ** 0.25


def test_fourier_coefficients_cubic():
    r = 1.3
    a = G.fourier_coefficients(lambda x: x ** 3, r, 5)
    assert abs(a[1] + 3 * r ** 3 / 8) < 1e-12
    assert abs(a[3] + r ** 3 / 8) < 1e-12
    for n in (0, 2, 4, 5):
        assert abs(a[n]) < 1e-12


def test_fourier_coefficients_linear():
    r = 0.77
    a = G.fourier_coefficients(lambda x: x, r, 3)
    assert abs(a[1] + r / 2) < 1e-14
    assert max(abs(a[0]), abs(a[2]), abs(a[3])) < 1e-14


def test_fourier_odd_polynomial_kills_even_indices():
    a = G.fourier_coefficients(lambda x: 2 * x - 0.3 * x ** 5, 1.9, 7)
    assert abs(a[0]) < 1e-12
    assert max(abs(a[2]), abs(a[4]), abs(a[6])) < 1e-12


def test_solve_radius_quadratic_and_quartic():
    assert abs(G.solve_radius(G.EvenPotential([0.5])) - 2.0) < 1e-12
    assert abs(G.solve_radius(G.EvenPotential([0.0, 0.25])) - QUARTIC_RADIUS) < 1e-10


def test_solve_radius_scaling():
    c = 2.0
    scaled = G.EvenPotential([0.0, 0.25 / c ** 4])  # u(x/c) for u(x) = x^4/4
    assert abs(G.solve_radius(scaled) - c * QUARTIC_RADIUS) < 1e-9


def test_solve_radius_closed_form():
    # residue polynomial z^3/6 - z^2 + 11z/6 = 1 with roots z = 1, 2, 3: the
    # radius belongs to the smallest, where r*a_1 + 2 first changes sign
    assert abs(G.solve_radius(G.EvenPotential([11 / 12, -1 / 12, 1 / 360])) - 2.0) < 1e-12
    # the double nearest the exact root 1.53705494810657588...
    assert G.solve_radius(G.EvenPotential([-0.2, 0.0, 0.1])) == 1.5370549481065758
    for coeffs in ([11 / 12, -1 / 12, 1 / 360], [0.2, 0.05, 0.01, 0.002], [-0.2, 0.0, 0.1],
                   [-1.0, 0.25]):
        u = G.EvenPotential(coeffs)
        r = G.solve_radius(u)
        a = G.fourier_coefficients(u.deriv, r, u.degree - 1)
        assert abs(r * a[1] + 2.0) <= 1e-12


def test_semicircle_solution(semicircle):
    sol = G.free_gibbs_measure(G.EvenPotential([0.5]))
    assert abs(sol.radius - 2.0) < 1e-12
    xs = np.linspace(-1.99, 1.99, 101)
    target = np.sqrt(4.0 - xs ** 2) / (2 * np.pi)
    assert np.max(np.abs(sol.density(xs) - target)) < 1e-10
    assert abs(sol.radius * sol.fourier[1] + 2.0) < 1e-10


def test_quartic_density_closed_form(quartic_solution):
    r = quartic_solution.radius
    xs = np.linspace(-0.999 * r, 0.999 * r, 500)
    target = r ** 3 / (4 * np.pi) * (2 * (xs / r) ** 2 + 1) * np.sqrt(1 - (xs / r) ** 2)
    assert np.max(np.abs(quartic_solution.density(xs) - target)) < 1e-10


def test_density_vanishes_at_edges(quartic_solution):
    r = quartic_solution.radius
    assert quartic_solution.density(np.array([-r, r])).max() == 0.0


def test_even_law_samples_are_even_to_the_bit():
    # a round-off slope across the flat top cell of this law's samples made
    # GridMeasure's quantile solve cancel, and free_gibbs_measure reject it
    sol = G.free_gibbs_measure(G.EvenPotential([0.4851956472759906, 0.11473525167380104]))
    xs = np.linspace(0.0, sol.radius, 101)
    assert np.array_equal(sol.density(xs), sol.density(-xs))
    assert abs(M.quantile(sol.measure, 0.5)) < 1e-12


def test_mass_without_normalization(quartic_solution):
    assert abs(quartic_solution.moment(0) - 1.0) < 1e-12


def test_sd_scalar_identity():
    for coeffs in ([0.5], [0.0, 0.25], [0.5, 0.25]):
        sol = G.free_gibbs_measure(G.EvenPotential(coeffs))
        assert abs(sol.sd_scalar() - 1.0) < 1e-6


def test_evenness(quartic_solution):
    xs = np.linspace(0.01, 0.95 * quartic_solution.radius, 50)
    assert np.max(np.abs(quartic_solution.density(xs) - quartic_solution.density(-xs))) < 1e-12


def test_scaling_covariance():
    u = G.EvenPotential([0.0, 0.25])
    base = G.free_gibbs_measure(u)
    for c in (0.5, 2.0):
        scaled = G.free_gibbs_measure(G.EvenPotential([0.0, 0.25 * c ** 4]))  # u(c x)
        xs = np.linspace(-0.9 * base.radius / c, 0.9 * base.radius / c, 41)
        assert abs(scaled.radius - base.radius / c) < 1e-9
        assert np.max(np.abs(scaled.density(xs) - c * base.density(c * xs))) < 1e-8


def test_hilbert_residual_small_for_solutions(quartic_solution):
    sol2 = G.free_gibbs_measure(G.EvenPotential([0.5]))
    assert G.hilbert_residual(sol2) < 1e-4
    assert G.hilbert_residual(quartic_solution) < 1e-4
    # 1e-250 x^2 has radius 1.4e125, where the local cubic's unscaled products
    # overflow; its residual is relative to u'(r) = 1.4e-125
    tiny = G.free_gibbs_measure(G.EvenPotential([1e-250]))
    assert G.hilbert_residual(tiny) < 1e-4 * float(tiny.potential.deriv(tiny.radius))


def test_hilbert_residual_detects_wrong_density(semicircle):
    rng = np.random.default_rng(0)
    noisy = semicircle.density * (1.0 + 0.01 * rng.standard_normal(semicircle.density.size))
    pert = M.GridMeasure.from_density(semicircle.nodes, noisy, normalize=True)
    xs = np.linspace(-1.8, 1.8, 41)
    worst = max(abs(2 * math.pi * M.hilbert_transform(pert, x) - x) for x in xs)
    assert worst > 1e-2


def test_one_cut_violation():
    with pytest.raises(RegimeError):
        G.free_gibbs_measure(G.EvenPotential([-1.5, 0.25]))


def test_near_critical_double_well_is_not_one_cut():
    # at c2 = -1.0001 the density dips to -3.2e-5 at the origin, between the
    # nodes of the law's theta-Gauss rule; every caller of the one-cut test
    # rejects it, naming the law
    coeffs = [-1.0001, 0.25]
    for solve in (lambda: G.free_gibbs_measure(G.EvenPotential(coeffs)),
                  lambda: G._one_cut(coeffs),
                  lambda: G._moment_map(coeffs),
                  lambda: G._moment_map(coeffs)[1]()):
        with pytest.raises(RegimeError, match=r"\[-1\.0001, 0\.25\].*negative"):
            solve()


def test_one_cut_test_agrees_with_a_fine_grid(monkeypatch):
    # the density's polynomial factor P on 20000 points of [0, 1), against
    # the exact test, on seeded even laws of degree up to 8 and on double
    # wells around the critical c2 = -1, whose dips at the origin fall
    # between the nodes of their theta-Gauss rules; laws within 1e-6 of the
    # tolerance are left out, and the test must have taken its critical-point
    # branch on some law it accepts
    roots = []
    chebroots = np.polynomial.chebyshev.chebroots
    monkeypatch.setattr(np.polynomial.chebyshev, "chebroots",
                        lambda c: roots.append(c) or chebroots(c))
    rng = np.random.default_rng(11)
    y = np.linspace(0.0, 1.0, 20001)[:-1]
    laws = [list(rng.uniform(-1.5, 1.0, size=int(rng.integers(1, 5)))) for _ in range(400)]
    for coeffs in laws:
        coeffs[-1] = abs(coeffs[-1]) + 0.01
    verdicts = set()
    for coeffs in laws + [[c2, 0.25] for c2 in np.linspace(-1.01, -0.99, 21)]:
        try:
            r = G._float_radius(coeffs)
        except RegimeError:
            continue
        k = np.arange(1, len(coeffs) + 1)
        a = 2 * k * np.array(coeffs) * r ** (2 * k - 1) @ G._odd_powers(len(coeffs))[0]
        low = float(np.min(G._density(a, r, r * y) / np.sqrt(1.0 - y * y)))
        if abs(low + G.NEGATIVITY_TOL) < 1e-6:
            continue
        del roots[:]
        try:
            G._one_cut(coeffs, r)
            accepted = True
        except RegimeError:
            accepted = False
        assert accepted == (low >= -G.NEGATIVITY_TOL), coeffs
        verdicts.add((accepted, bool(roots)))
    assert {(True, False), (True, True), (False, True)} <= verdicts


def test_min_density_reads_the_kept_samples():
    # the sign check reads the unclipped density at the measure's nodes
    for coeffs in ([0.0, 0.25], [-1.0, 0.25], [0.4, 0.1, 0.03]):
        sol = G.free_gibbs_measure(G.EvenPotential(coeffs))
        samples = G._density(sol.fourier, sol.radius, sol.measure.nodes)
        assert sol.diagnostics["min_density"] == float(samples.min())


def test_free_gibbs_measure_tests_the_regime_once(monkeypatch):
    # the law's coefficients, rule and sign test come from one _one_cut call
    calls = []

    def counted(a, coeffs):
        calls.append(coeffs)
        return check(a, coeffs)

    check = G._check_one_cut
    monkeypatch.setattr(G, "_check_one_cut", counted)
    G.free_gibbs_measure(G.EvenPotential([0.4, 0.1, 0.03]))
    assert len(calls) == 1


def test_critical_double_well_still_one_cut():
    # at c2 = -1 the quartic density touches zero at the origin but stays nonnegative
    sol = G.free_gibbs_measure(G.EvenPotential([-1.0, 0.25]))
    assert abs(sol.radius - 2.0) < 1e-9
    assert abs(sol.density(0.0)) < 1e-12
    assert abs(sol.moment(0) - 1.0) < 1e-10


def test_potential_validation():
    with pytest.raises(InvalidInputError):
        G.EvenPotential([])
    with pytest.raises(InvalidInputError):
        G.EvenPotential([1.0, -0.5])
    u = G.EvenPotential.parse("0,0.25")
    assert u.even_coeffs == (0.0, 0.25)


def test_gibbs_measure_moment_quadrature(quartic_solution):
    # quartic Gibbs law: fourth moment is exactly 1 by Schwinger-Dyson
    assert abs(quartic_solution.moment(4) - 1.0) < 1e-12
    assert abs(quartic_solution.moment(1)) < 1e-14


def test_solution_integrals_take_the_one_cut_rule(quartic_solution):
    # moments, mass and the SD number are integrals by the one theta-Gauss
    # rule that _one_cut returns, to the last bit
    sol = quartic_solution
    a, x, weights = G._one_cut(sol.potential.even_coeffs, sol.radius)
    assert np.array_equal(a, sol.fourier)
    for k in range(7):
        assert sol.moment(k) == float(weights @ x ** k)
    assert sol.sd_scalar() == float(weights @ (x * sol.potential.deriv(x)))


def test_diagnostics_stay_out_of_json(quartic_solution):
    diag = quartic_solution.diagnostics
    assert {"iterations", "residual", "converged", "seconds", "min_density"} <= set(diag)
    assert diag["iterations"] == 0 and diag["converged"] and diag["residual"] <= 1e-10
    assert diag["min_density"] >= -G.NEGATIVITY_TOL
    assert set(quartic_solution.to_dict()) == {"even_coeffs", "radius"}
    # a solution read back samples its measure, and has no solve to time
    back = G.GibbsSolution.from_dict(quartic_solution.to_dict())
    assert back.diagnostics == {"min_density": diag["min_density"]}


def test_solution_json_roundtrip(quartic_solution):
    back = G.GibbsSolution.from_dict(quartic_solution.to_dict())
    assert back.radius == quartic_solution.radius
    assert np.max(np.abs(back.fourier - quartic_solution.fourier)) == 0.0
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.max(np.abs(back.density(xs) - quartic_solution.density(xs))) == 0.0
    # the file holds no measure: reading it back samples the same one
    m, m_back = quartic_solution.measure, back.measure
    for a, b in ((m.nodes, m_back.nodes), (m.density, m_back.density),
                 (m.quantiles, m_back.quantiles)):
        assert np.array_equal(a, b)


def test_cached_sines_are_the_sines_read_only():
    # the one grid: the nodes of the theta-Gauss rule of each order
    for order in (64, 80):
        theta = G._gauss_theta(order)[0]
        rows = G._sines(order, 9)
        assert not rows.flags.writeable and rows.shape == (9, order)
        for n, row in enumerate(rows, start=1):
            assert np.array_equal(row, np.sin(n * theta))
    nodes, cosines = G._boundary_grid(9)
    assert not nodes.flags.writeable and not cosines.flags.writeable
    # the odd powers of -cos at the boundary grid, as Fourier coefficients,
    # and at the nodes of the rule for those coefficients, 64 for 10 of them
    means, powers = G._odd_powers(5)
    assert not means.flags.writeable and not powers.flags.writeable
    odd = np.arange(1, 10, 2)[:, None]
    assert np.array_equal(means, G.fourier_coefficients(lambda y: y ** odd, 1.0, 9))
    theta = G._gauss_theta(64)[0]
    assert np.array_equal(powers, (-np.cos(theta)) ** odd)
