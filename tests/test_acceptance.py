"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np

from freemoment import gibbs1d as G
from freemoment import measure1d as M
from freemoment import moment1d as mo
from freemoment import ncseries as nc
from freemoment import sdmoments as sd
from freemoment import transport as T

from conftest import noncrossing_pair_count, random_bump_measure

QUARTIC_RADIUS = 2.0 / 3.0 ** 0.25


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_quartic_radius():
    t0 = time.time()
    sol = G.free_gibbs_measure(G.EvenPotential([0.0, 0.25]))
    err = abs(sol.radius - QUARTIC_RADIUS)
    dt = time.time() - t0
    _report("C01 quartic radius", err < 1e-10 and dt < 1.0,
            f"r={sol.radius!r} err={err:.2e} time={dt:.2f}s")


def test_c02_quartic_density(quartic_solution):
    # closed form (r^3/4pi)(2(x/r)^2+1) sqrt(1-(x/r)^2); the bare 2x^2+1 display
    # is not normalized (mass 1.44) and fails the Hilbert identity
    t0 = time.time()
    r = quartic_solution.radius
    xs = np.linspace(-r, r, 1002)[1:-1]
    target = r ** 3 / (4 * np.pi) * (2 * (xs / r) ** 2 + 1) * np.sqrt(1 - (xs / r) ** 2)
    err = float(np.max(np.abs(quartic_solution.density(xs) - target)))
    dt = time.time() - t0
    _report("C02 quartic density", err < 1e-8 and dt < 1.0,
            f"max err={err:.2e} over 1000 interior points, time={dt:.2f}s")


def test_c03_quartic_pushforward(quartic_solution):
    # change of variables for y = x^3: mu(y) = (r^3/12pi)(2/r^2+|y|^(-2/3)) sqrt(1-|y|^(2/3)/r^2)
    t0 = time.time()
    r = quartic_solution.radius
    pushed = M.pushforward_monotone(quartic_solution.measure, lambda x: x ** 3)
    ys = pushed.nodes
    keep = (np.abs(ys) > 0.05) & (np.abs(ys) < 0.999 * r ** 3)
    ay = np.abs(ys[keep])
    target = r ** 3 / (12 * np.pi) * (2 / r ** 2 + ay ** (-2.0 / 3.0)) \
        * np.sqrt(1 - ay ** (2.0 / 3.0) / r ** 2)
    err = float(np.max(np.abs(pushed.density[keep] - target)))
    dt = time.time() - t0
    _report("C03 quartic pushforward", err < 1e-6 and dt < 1.0,
            f"max density err={err:.2e} away from 0, time={dt:.2f}s")


def test_c04_semicircle():
    t0 = time.time()
    sol = G.free_gibbs_measure(G.EvenPotential([0.5]))
    r_err = abs(sol.radius - 2.0)
    xs = np.linspace(-2.0, 2.0, 1002)[1:-1]
    d_err = float(np.max(np.abs(sol.density(xs) - np.sqrt(4 - xs ** 2) / (2 * np.pi))))
    dt = time.time() - t0
    _report("C04 semicircle", r_err < 1e-12 and d_err < 1e-10 and dt < 1.0,
            f"r err={r_err:.2e} density err={d_err:.2e} time={dt:.2f}s")


def test_c05_hilbert_characterization():
    t0 = time.time()
    worst = 0.0
    for coeffs in ([0.5], [0.0, 0.25], [0.5, 0.25]):
        sol = G.free_gibbs_measure(G.EvenPotential(coeffs))
        worst = max(worst, G.hilbert_residual(sol))
    dt = time.time() - t0
    _report("C05 Hilbert characterization", worst < 1e-4 and dt < 5.0,
            f"max residual={worst:.2e} over three potentials, time={dt:.2f}s")


def test_c06_scalar_schwinger_dyson():
    t0 = time.time()
    worst = 0.0
    for coeffs in ([0.5], [0.0, 0.25], [0.5, 0.25]):
        sol = G.free_gibbs_measure(G.EvenPotential(coeffs))
        worst = max(worst, abs(sol.sd_scalar() - 1.0))
    dt = time.time() - t0
    _report("C06 scalar Schwinger-Dyson", worst < 1e-6 and dt < 5.0,
            f"max |int x u' dnu - 1| = {worst:.2e}, time={dt:.2f}s")


def test_c07_variational_recovery(semicircle):
    t0 = time.time()
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=512))
    w2 = math.sqrt(M.wasserstein2_sq(sol.rho_hat, semicircle))
    xs = np.linspace(-1.5, 1.5, 301)
    u_err = float(np.max(np.abs(sol.uprime(xs) - xs)))
    dt = time.time() - t0
    _report("C07 variational recovery", w2 < 2e-2 and u_err < 5e-2 and dt < 60.0,
            f"W2={w2:.3e} max|u'-x|={u_err:.3e} time={dt:.1f}s")


def test_c08_first_moment_bound_and_displacement_convexity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_pairs = 200
    worst_violation = -np.inf
    min_margin = np.inf
    bound_ok = True
    for _ in range(n_pairs):
        m0 = random_bump_measure(rng, n_nodes=768, n_cells=384)
        m1 = random_bump_measure(rng, n_nodes=768, n_cells=384)
        for m in (m0, m1):
            absmom = M.absolute_moment(m)
            if M.log_energy(m) < -math.sqrt(2.0 * absmom):
                bound_ok = False
        l0, l1 = M.log_energy(m0), M.log_energy(m1)
        for t in (0.25, 0.5, 0.75):
            lt = M.log_energy(M.displacement_interpolate(m0, m1, t))
            violation = lt - ((1 - t) * l0 + t * l1)
            worst_violation = max(worst_violation, violation)
            min_margin = min(min_margin, -violation)
    dt = time.time() - t0
    ok = bound_ok and worst_violation <= 1e-8 and min_margin > 1e-7 and dt < 60.0
    _report("C08 first-moment bound + displacement convexity", ok,
            f"{n_pairs} pairs, worst violation={worst_violation:.2e}, "
            f"min strictness margin={min_margin:.2e}, time={dt:.1f}s")


def test_c09_scaling_covariance(quartic_solution):
    t0 = time.time()
    mu1 = M.pushforward_monotone(quartic_solution.measure, lambda x: x ** 3)
    sol1 = mo.minimize_F(mo.MomentProblem(mu1, n_particles=512))
    worst_q = 0.0
    worst_u = 0.0
    for c in (0.5, 2.0):
        muc = M.pushforward_monotone(mu1, lambda x, c=c: c * x)
        solc = mo.minimize_F(mo.MomentProblem(muc, n_particles=512))
        worst_q = max(worst_q, float(np.max(np.abs(solc.positions - sol1.positions / c))))
        xs = np.linspace(-0.8 * quartic_solution.radius / c,
                         0.8 * quartic_solution.radius / c, 101)
        worst_u = max(worst_u, float(np.max(np.abs(solc.uprime(xs) - c * sol1.uprime(c * xs)))))
    dt = time.time() - t0
    _report("C09 scaling covariance", worst_q < 2e-2 and worst_u < 2e-2,
            f"quantile err={worst_q:.3e} u' err={worst_u:.3e} time={dt:.1f}s")


def test_c10_catalan_oracle():
    t0 = time.time()
    tab = sd.solve_sd(nc.NCSeries.zero(1, 12), 12)
    expect = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    err = max(abs((tab.value(tuple([0] * k)) or 0.0) - expect[k]) for k in range(11))
    tab2 = sd.solve_sd(nc.NCSeries.zero(2, 8), 8)
    err2 = 0.0
    for length in range(1, 9):
        for w in sd._enumerate_canonical(2, length):
            err2 = max(err2, abs((tab2.value(w) or 0.0) - noncrossing_pair_count(w)))
    dt = time.time() - t0
    _report("C10 Catalan oracle", err < 1e-10 and err2 < 1e-10 and dt < 10.0,
            f"n=1 err={err:.2e}, n=2 pairing err={err2:.2e}, time={dt:.1f}s")


def test_c11_lipschitz_bound_compliance():
    t0 = time.time()
    bound_value = T.lipschitz_bound(nc.NCSeries.zero(1, 8), 3.0, 0.25)
    exact = abs(bound_value - 59.0 / 68.0) < 1e-15

    rng = np.random.default_rng(77)
    tau = sd.solve_sd(nc.NCSeries.zero(2, 8), 8)
    W0 = nc.NCSeries.zero(2, 6)
    bound = T.lipschitz_bound(W0, 3.0, 0.25)
    worst_ratio = 0.0
    for _ in range(100):
        v1 = _even_ball(rng, 2, 6, 3.0, 0.25)
        v2 = _even_ball(rng, 2, 6, 3.0, 0.25)
        den = nc.norm_A(v1 - v2, 3.0)
        if den < 1e-12:
            continue
        f1 = T.picard_map(v1, W0, tau, 6)
        f2 = T.picard_map(v2, W0, tau, 6)
        worst_ratio = max(worst_ratio, nc.norm_A(f1 - f2, 3.0) / den)
    dt = time.time() - t0
    ok = exact and worst_ratio <= bound + 1e-12 and dt < 120.0
    _report("C11 Lipschitz-bound compliance", ok,
            f"bound=59/68={bound:.6f}, worst empirical ratio={worst_ratio:.6f}, "
            f"time={dt:.1f}s")


def _even_ball(rng, n, degree, a_radius, ball_radius):
    terms = {}
    for _ in range(int(rng.integers(2, 6))):
        k = 2 * int(rng.integers(1, degree // 2 + 1))
        terms[tuple(rng.integers(0, n, size=k))] = rng.standard_normal()
    f = nc.NCSeries(n, degree, terms)
    f = 0.5 * (f + nc.NCSeries(n, degree, {w[::-1]: c for w, c in f.terms.items()}))
    f = nc.cyclic_symmetrize(f)
    return f * (rng.uniform(0.05, 1.0) * ball_radius / max(nc.norm_A(f, a_radius), 1e-12))


def test_c12_evenness_preservation():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        v = _even_ball(rng, 2, 6, 3.0, 0.25)
        w = _even_ball(rng, 2, 6, 3.0, 0.15)
        values = [np.ones(1)]
        for length in range(1, 9):
            values.append(np.zeros(len(sd._enumerate_canonical(2, length))))
            if length % 2 == 0:
                for k in range(len(values[-1])):
                    values[-1][k] = rng.uniform(-1, 1) * 2.0 ** length
        tau = sd.TraceTable(2, 8, values)
        out = T.picard_map(v, w, tau, 6)
        worst = max(worst, out.odd_mass())
    dt = time.time() - t0
    _report("C12 evenness preservation", worst == 0.0 and dt < 30.0,
            f"odd coefficient mass over 100 triples = {worst!r}, time={dt:.1f}s")


def test_c13_transport_1d_cross_check():
    t0 = time.time()
    W = nc.NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 10))
    tau_y = sd.solve_sd(sol.V.truncate(44), 44)
    tau_x = sd.pushforward_trace(tau_y, [c.truncate(44) for c in sol.transport_map], 6)
    oracle = G.free_gibbs_measure(G.EvenPotential([0.5, 0.05]))
    worst = max(abs((tau_x.value(tuple([0] * k)) or 0.0) - oracle.moment(k))
                for k in range(1, 7))
    dt = time.time() - t0
    _report("C13 transport end-to-end (n=1)", worst < 1e-3 and dt < 60.0,
            f"max moment deviation vs one-variable solver oracle={worst:.2e}, time={dt:.1f}s")


def test_c14_transport_self_consistency_n2():
    t0 = time.time()
    W = nc.NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02})
    sol = T.solve_V(T.TransportProblem(W, 8))
    rep = T.verify_transport(sol, W, 6)
    dt = time.time() - t0
    ok = rep["sd_residual"] < 1e-3 and rep["max_moment_deviation"] < 1e-3 and dt < 300.0
    _report("C14 transport self-consistency (n=2)", ok,
            f"sd residual={rep['sd_residual']:.2e}, "
            f"deviation={rep['max_moment_deviation']:.2e}, time={dt:.1f}s")


def test_c15_identity_suites():
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        g = [_rand(rng, n, 6, 4) for _ in range(n)]
        lhs = nc.apply_to_vector(nc.jacobian(g),
                                 [nc.NCSeries.variable(i, n, 6) for i in range(n)])
        for i in range(n):
            d = lhs[i] - nc.number_op(g[i])
            worst = max(worst, max((abs(c) for c in d.terms.values()), default=0.0))
    for _ in range(200):
        n = int(rng.integers(1, 4))
        v = _rand(rng, n, 5, 4)
        dv = [g.truncate(10) for g in nc.cyclic_gradient_vector(v)]
        lhs = nc.apply_to_vector(nc.jacobian(dv), dv)
        sq = nc.NCSeries.zero(n, 10)
        for g in dv:
            sq = sq + nc.multiply(g, g, 10)
        for i in range(n):
            d = lhs[i] - nc.cyclic_gradient(sq * 0.5, i)
            worst = max(worst, max((abs(c) for c in d.terms.values()), default=0.0))
    for _ in range(200):
        n = int(rng.integers(1, 4))
        f = _rand(rng, n, 6, 5) + nc.NCSeries.constant(rng.standard_normal(), n, 6)
        i = int(rng.integers(0, n))
        d = nc.cyclic_gradient(nc.cyclic_symmetrize(nc.drop_constant(f)), i) \
            - nc.cyclic_gradient(f, i)
        worst = max(worst, max((abs(c) for c in d.terms.values()), default=0.0))
    deriv_ok = True
    for _ in range(200):
        coeffs = rng.standard_normal(6)
        f = nc.NCSeries(1, 7, {tuple([0] * (k + 1)): coeffs[k] for k in range(6)})
        d = nc.cyclic_gradient(f, 0)
        for k in range(6):
            expect = coeffs[k] * (k + 1)
            got = d.coeff(tuple([0] * k))
            if abs(got - expect) > 1e-12:
                deriv_ok = False
    dt = time.time() - t0
    ok = worst < 1e-10 and deriv_ok and dt < 30.0
    _report("C15 identity suites", ok,
            f"max identity residual={worst:.2e}, 1d derivative ok={deriv_ok}, time={dt:.1f}s")


def _rand(rng, n, d, terms):
    out = {}
    for _ in range(terms):
        k = int(rng.integers(1, d + 1))
        out[tuple(rng.integers(0, n, size=k))] = rng.standard_normal()
    return nc.NCSeries(n, d, out)


def test_c16_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(20):
        q = np.sort(rng.uniform(-2.0, 2.0, size=32))
        q += np.linspace(0.0, 2e-3, 32)
        y = np.sort(rng.standard_normal(32))
        eps = 1e-9 * (q[-1] - q[0])
        grad = mo.particle_gradient(q, y, eps)
        h = 1e-6
        for k in range(32):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            fd = (mo.particle_objective(qp, y, eps)
                  - mo.particle_objective(qm, y, eps)) / (2 * h)
            worst = max(worst, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    dt = time.time() - t0
    _report("C16 gradient check", worst < 1e-5 and dt < 10.0,
            f"max relative FD mismatch={worst:.2e} over 20x32 coordinates, time={dt:.1f}s")
