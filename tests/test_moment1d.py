import math

import numpy as np
import pytest

from freemoment import gibbs1d as G
from freemoment import measure1d as M
from freemoment import moment1d as mo
from freemoment.errors import InvalidInputError

from conftest import atoms_in_cells_measures, random_bump_measure


def test_functional_value_semicircle(semicircle):
    # L(sc) = 1/4 and T(sc, sc) = second moment = 1
    val = mo.functional_F(semicircle, semicircle)
    assert abs(val - 1.25) < 1e-3


def test_functional_joint_translation_shift(semicircle):
    # under joint translation by c the log energy is invariant and the
    # correlation term shifts by the exact constant c*(mean_rho + mean_mu) + c^2,
    # so minimizers are translation equivariant even though the value moves
    c = 1.3
    v0 = mo.functional_F(semicircle, semicircle)
    v1 = mo.functional_F(semicircle.translate(c), semicircle.translate(c))
    assert abs((v1 - v0) - c * c) < 1e-8


def test_functional_atomic_rho_is_infinite():
    assert math.isinf(mo.functional_F(M.two_point(1.0), M.semicircle()))


def test_degenerate_target_rejected():
    with pytest.raises(InvalidInputError):
        mo.MomentProblem(M.dirac(0.0))
    with pytest.raises(InvalidInputError):
        mo.MomentProblem(M.dirac(2.0))


def test_too_few_particles_rejected(semicircle):
    with pytest.raises(InvalidInputError):
        mo.MomentProblem(semicircle, n_particles=0)


def test_minimize_semicircle_target(semicircle):
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=512))
    assert sol.converged
    w2 = math.sqrt(M.wasserstein2_sq(sol.rho_hat, semicircle))
    assert w2 < 2e-2
    xs = np.linspace(-1.5, 1.5, 101)
    assert np.max(np.abs(sol.uprime(xs) - xs)) < 5e-2
    # objective decreased monotonically is enforced by the line search contract


def test_minimize_two_point_target_finds_abs_potential():
    sol = mo.minimize_F(mo.MomentProblem(M.two_point(1.0), n_particles=384))
    # minimizer is the free Gibbs measure of |x|, supported on [-pi, pi]
    lo, hi = sol.rho_hat.support
    assert abs(hi - math.pi) < 0.1 and abs(lo + math.pi) < 0.1

    def density_abs(x):
        u = np.clip(np.abs(np.asarray(x) / np.pi), 1e-300, 1.0 - 1e-16)
        return (1 / np.pi ** 2) * np.log((1 + np.sqrt(1 - u ** 2)) / u)

    target = M.GridMeasure.from_callable(density_abs, (-np.pi, np.pi), n_nodes=4096)
    assert math.sqrt(M.wasserstein2_sq(sol.rho_hat, target)) < 5e-2
    # recovered potential derivative is the unit sign function, so u = |x|
    assert abs(sol.uprime(2.0) - 1.0) < 5e-2
    assert abs(sol.uprime(-2.0) + 1.0) < 5e-2


def test_verify_solution_semicircle(semicircle):
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=512))
    rep = mo.verify_solution(sol, semicircle)
    assert rep["hilbert_residual"] < 1e-2
    assert rep["pushforward_w2"] < 1e-2
    assert rep["sd_scalar_error"] < 1e-2


def test_verify_detects_wrong_uprime(semicircle):
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=256))
    q = sol.positions
    wrong = 2.0 * q  # pretend u'(x) = 2x
    m = q.size
    diffs = q[:, None] - q[None, :]
    np.fill_diagonal(diffs, np.inf)
    hilb2pi = 2.0 / m * np.sum(1.0 / diffs, axis=1)
    resid = np.max(np.abs(hilb2pi - wrong))
    assert resid > 1.5  # roughly max|x| = 1.8 over the bulk


def test_minimize_quartic_target(quartic_solution):
    mu = M.pushforward_monotone(quartic_solution.measure, lambda x: x ** 3)
    sol = mo.minimize_F(mo.MomentProblem(mu, n_particles=384))
    rep = mo.verify_solution(sol, mu)
    assert rep["hilbert_residual"] < 1e-2
    assert rep["sd_scalar_error"] < 1e-2
    w2 = math.sqrt(M.wasserstein2_sq(sol.rho_hat, quartic_solution.measure))
    assert w2 < 2e-2
    r = quartic_solution.radius
    xs = np.linspace(-0.9 * r, 0.9 * r, 61)
    assert np.max(np.abs(sol.uprime(xs) - xs ** 3)) < 5e-2


def test_translation_quotient():
    base = random_bump_measure(np.random.default_rng(23))
    centered = base.translate(-M.moment(base, 1))
    sol0 = mo.minimize_F(mo.MomentProblem(centered, n_particles=256))
    sol1 = mo.minimize_F(mo.MomentProblem(centered.translate(1.7), n_particles=256))
    assert np.max(np.abs(sol0.positions - sol1.positions)) < 1e-3


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        q = np.sort(rng.uniform(-2, 2, size=32))
        q += np.linspace(0, 1e-3, 32)  # enforce separation
        y = np.sort(rng.standard_normal(32))
        grad = mo.particle_gradient(q, y)
        h = 1e-6
        for k in (0, 7, 31):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            fd = (mo.particle_objective(qp, y) - mo.particle_objective(qm, y)) / (2 * h)
            assert abs(fd - grad[k]) <= 1e-5 * max(1.0, abs(grad[k]))


def test_objective_monotone_along_solver_path(semicircle, monkeypatch):
    # rerun a short solve and confirm the line search never accepts an increase
    monkeypatch.setattr(mo, "MAX_ITERS", 300)
    prob = mo.MomentProblem(semicircle, n_particles=128)
    sol = mo.minimize_F(prob)
    assert sol.converged or sol.iterations == 300
    obj = np.asarray(sol.diagnostics["objective"])
    assert len(obj) == sol.iterations + 1
    # full steps near the minimizer may move F by its round-off only
    assert np.all(np.diff(obj) <= 1e-14 * np.maximum(1.0, np.abs(obj[:-1])))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        q = np.sort(rng.uniform(-2.0, 2.0, size=32))
        q += np.linspace(0.0, 2e-3, 32)
        y = np.sort(rng.standard_normal(32))
        table = np.subtract.outer(q, q)
        mo.particle_gradient(q, y, table)
        hess = mo.particle_hessian(table) - 1.0 / 32  # the pin 11^T/m taken off
        h = 1e-6
        for k in range(32):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            fd = (mo.particle_gradient(qp, y) - mo.particle_gradient(qm, y)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - hess[:, k])
                                            / np.maximum(1.0, np.abs(hess[:, k])))))
    assert worst < 1e-5
    # a weighted graph Laplacian: symmetric, zero row sums
    assert np.allclose(hess, hess.T) and np.max(np.abs(hess.sum(axis=1))) < 1e-9


def _fresh_tables(q, y):
    """F, its gradient and its Hessian pinned by 11^T/m, each from a table of
    q_i - q_j of its own."""
    m = q.size
    logs = np.abs(np.subtract.outer(q, q))
    np.fill_diagonal(logs, 1.0)
    fval = -1.0 / (m * (m - 1)) * float(np.sum(np.log(logs))) + float(np.mean(q * y))
    diffs = np.subtract.outer(q, q)
    np.fill_diagonal(diffs, np.inf)
    recips = 1.0 / diffs
    grad = -2.0 / (m * (m - 1)) * np.sum(recips, axis=1) + y / m
    hess = -2.0 / (m * (m - 1)) * recips ** 2
    np.fill_diagonal(hess, -np.sum(hess, axis=1))
    return fval, grad, hess + 1.0 / m


def test_shared_table_matches_fresh_tables():
    rng = np.random.default_rng(31)
    q = np.sort(rng.uniform(-2.0, 2.0, size=64)) + np.linspace(0.0, 1e-3, 64)
    y = np.sort(rng.standard_normal(64))
    fval, grad, hess = _fresh_tables(q, y)
    table = np.empty((64, 64))
    # F sums its logarithms in groups, so it agrees with the plain sum to round-off
    assert abs(mo.particle_objective(q, y, table) - fval) <= 1e-13 * max(1.0, abs(fval))
    assert np.array_equal(table, np.subtract.outer(q, q))
    assert np.array_equal(mo.particle_gradient(q, y, table), grad)
    assert mo.particle_hessian(table) is table and np.array_equal(table, hess)


def _longdouble_objective(q, y):
    ql = q.astype(np.longdouble)
    d = np.abs(np.subtract.outer(ql, ql))
    np.fill_diagonal(d, 1)
    m = q.size
    return float(-np.sum(np.log(d)) / (m * (m - 1)) + np.mean(ql * y))


def _objective_cases():
    rng = np.random.default_rng(44)
    for m in (2, 3, 17, 100, 257, 512):
        for spread in (1e-40, 1e-8, 1.0, 1e8, 1e40):
            q = np.sort(rng.uniform(-0.5, 0.5, size=m)) + np.linspace(0.0, 1e-3, m)
            q = spread * (q - q[0]) / (q[-1] - q[0]) - 0.3 * spread
            yield pytest.param(q, id=f"m{m}-spread{spread:g}")
        # one pair at twice minimize_F's separation floor
        q = np.linspace(-2.0, 2.0, m)
        q[m // 2] = q[m // 2 - 1] + 2e-9 * 4.0
        yield pytest.param(q, id=f"m{m}-pair")
    # a cluster of 40 gaps of 1e-22: products of 16 of them would leave the normal range
    q = np.concatenate([np.linspace(-1.0, -0.1, 60), 1e-22 * np.arange(40), np.linspace(0.1, 1.0, 60)])
    yield pytest.param(q, id="cluster")
    # a position whose scaled value is subnormal
    yield pytest.param(np.array([-1.0, 3e-310, 0.5, 1.0]), id="subnormal")
    # a subnormal gap: groups of one entry, which are taken unscaled
    yield pytest.param(np.array([-1.0, 0.0, 3e-310, 1.0]), id="subnormal-gap")


@pytest.mark.parametrize("q", _objective_cases())
def test_objective_matches_long_double_pair_sum(q):
    # F takes one logarithm per product of up to 16 scaled pair entries; it
    # must agree with the plain sum in extended precision and leave the table
    # of q_i - q_j, diagonal 0, in the buffer
    y = np.sort(np.random.default_rng(7).standard_normal(q.size))
    table = np.full((q.size, q.size), np.nan)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        fval = mo.particle_objective(q, y, table)
    ref = _longdouble_objective(q, y)
    assert abs(fval - ref) <= 1e-13 * max(1.0, abs(ref))
    assert np.array_equal(table, np.subtract.outer(q, q))


def test_newton_trials_share_one_table(monkeypatch):
    # two_point:1 at m = 512 backtracks twice on its first step: the gradient
    # must then read the accepted trial's table, which the rejected ones wrote
    # over before it
    objective, gradient, hessian = mo.particle_objective, mo.particle_gradient, mo.particle_hessian
    accepted = []

    def checked_objective(q, y, diffs):
        fval = objective(q, y, diffs)
        fresh = _fresh_tables(q, y)[0]
        assert abs(fval - fresh) <= 1e-13 * max(1.0, abs(fresh))
        return fval

    def checked_gradient(q, y, diffs):
        # no call without the table: the solution reuses the solver's residual
        assert np.array_equal(diffs, np.subtract.outer(q, q))
        accepted.append((q, y))
        grad = gradient(q, y, diffs)
        assert np.array_equal(grad, _fresh_tables(q, y)[1])
        return grad

    def checked_hessian(recips):
        hess = hessian(recips)
        assert np.array_equal(hess, _fresh_tables(*accepted[-1])[2])
        return hess

    monkeypatch.setattr(mo, "particle_objective", checked_objective)
    monkeypatch.setattr(mo, "particle_gradient", checked_gradient)
    monkeypatch.setattr(mo, "particle_hessian", checked_hessian)
    sol = mo.minimize_F(mo.MomentProblem(mo.builtin_target("two_point:1"), n_particles=512))
    assert sol.converged and sol.diagnostics["backtracks"][0] == 2
    # a rejected trial computes no gradient: one at the start, one per
    # accepted step, and one for a last step that no longer lowers the residual
    assert sol.iterations + 1 <= len(accepted) <= sol.iterations + 2


def test_minimize_F_holds_one_table():
    # the trial's table, its reciprocals, the pinned Hessian and its factor
    # share one m x m buffer; the objective's products of 16 entries take
    # m x m/16, and the solution reuses the solver's residual
    import tracemalloc

    m = 512
    prob = mo.MomentProblem(mo.builtin_target("two_point:1"), n_particles=m)
    mo.minimize_F(prob)  # SciPy is imported outside the trace
    tracemalloc.start()
    try:
        mo.minimize_F(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m * m * 8 + 2 ** 19


def test_solves_share_one_read_only_start():
    mo._start_quantiles.cache_clear()
    prob = mo.MomentProblem(mo.builtin_target("two_point:1"), n_particles=64)
    first, second = mo.minimize_F(prob), mo.minimize_F(prob)
    assert np.array_equal(first.positions, second.positions)
    assert mo._start_quantiles.cache_info().currsize == 1
    start = mo._start_quantiles(64)
    assert not start.flags.writeable
    with pytest.raises(ValueError):
        start[0] = 0.0
    # a solve that takes no step returns positions of its own
    sol = mo.minimize_F(mo.MomentProblem(mo.builtin_target("two_point:1"), n_particles=64, tol=1e9))
    assert sol.iterations == 0 and np.array_equal(sol.positions, start)
    assert sol.positions.flags.writeable


@pytest.mark.parametrize("target,m", [("semicircle", 256), ("quartic_pushforward", 384),
                                      ("two_point:1", 512)])
def test_newton_reaches_round_off(target, m):
    # two_point:1 at m=512 needs the full steps judged by the residual: its
    # last decrement, about 1e-17, is below what F can resolve
    sol = mo.minimize_F(mo.MomentProblem(mo.builtin_target(target), n_particles=m))
    diag = sol.diagnostics
    assert sol.converged and diag["converged"]
    assert sol.iterations == diag["iterations"] <= 20
    assert diag["residual"] <= 1e-10 and diag["seconds"] > 0.0
    assert sol.residuals["sd_scalar_error"] <= 1e-10
    assert sol.residuals["hilbert_residual"] <= 1e-8
    for key in ("decrements", "backtracks", "step_lengths"):
        assert len(diag[key]) == sol.iterations
    obj = np.asarray(diag["objective"])
    assert np.all(np.diff(obj) <= 1e-14 * np.maximum(1.0, np.abs(obj[:-1])))
    # close to the minimizer Newton takes full steps, down to round-off
    assert all(t == 1.0 for r, t in zip(diag["residuals"], diag["step_lengths"]) if r < 1e-3)
    assert "diagnostics" not in sol.to_dict()


@pytest.mark.parametrize("target", ["semicircle", "two_point:1.2", "quartic_pushforward"])
def test_hilbert_residual_is_the_solver_residual(target):
    # one Hilbert residual: m max|grad F| at the particles, which the solve stops on
    sol = mo.minimize_F(mo.MomentProblem(mo.builtin_target(target), n_particles=256))
    assert sol.residuals["hilbert_residual"] == sol.diagnostics["residual"]


@pytest.mark.parametrize("n_atoms,m", [(3, 128), (3, 256), (3, 512), (1, 128)])
def test_targets_with_atoms_converge(n_atoms, m):
    # the target quantiles are centred by their own mean, which no move of the
    # particles can remove; centred by the barycenter, the three-atom target
    # stopped unconverged at a Hilbert residual of 4e-4 to 1.5e-3, and the
    # one-atom target's residual read 3.7e-7
    one, three = atoms_in_cells_measures()
    sol = mo.minimize_F(mo.MomentProblem(three if n_atoms == 3 else one, n_particles=m))
    assert sol.converged and sol.residuals["hilbert_residual"] <= 1e-10


def test_round_off_floor_ends_the_solve(semicircle):
    # tol 0 cannot be met; the solve ends once a full step stops lowering the residual
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=128, tol=0.0))
    assert sol.converged and sol.iterations <= 10
    assert sol.diagnostics["residual"] < 1e-12


def test_iteration_cap_reports_not_converged(semicircle, monkeypatch):
    monkeypatch.setattr(mo, "MAX_ITERS", 2)
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=256))
    assert sol.iterations == 2
    assert not sol.converged and not sol.diagnostics["converged"]
    assert sol.diagnostics["residual"] > mo.GRAD_TOL


def test_scaling_law(quartic_solution):
    mu1 = M.pushforward_monotone(quartic_solution.measure, lambda x: x ** 3)
    sol1 = mo.minimize_F(mo.MomentProblem(mu1, n_particles=256))
    c = 2.0
    muc = M.pushforward_monotone(mu1, lambda x: c * x)
    solc = mo.minimize_F(mo.MomentProblem(muc, n_particles=256))
    xs = np.linspace(-0.6 * quartic_solution.radius / c, 0.6 * quartic_solution.radius / c, 41)
    assert np.max(np.abs(solc.uprime(xs) - c * sol1.uprime(c * xs))) < 2e-2


def test_builtin_targets():
    assert mo.builtin_target("semicircle").support == (-2.0, 2.0)
    tp = mo.builtin_target("two_point:1.5")
    assert tp.atoms == [(-1.5, 0.5), (1.5, 0.5)]
    qp = mo.builtin_target("quartic_pushforward")
    r3 = (2.0 / 3 ** 0.25) ** 3
    assert abs(qp.support[1] - r3) < 1e-8
    with pytest.raises(InvalidInputError):
        mo.builtin_target("nope")


def test_solution_serialization(semicircle, monkeypatch):
    monkeypatch.setattr(mo, "MAX_ITERS", 50)
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=64))
    d = sol.to_dict()
    assert "rho_hat" in d and "uprime" in d and "functional_value" in d


def test_solution_is_its_particles(semicircle, monkeypatch):
    # u' is the rearrangement of the positions onto the target quantiles, and
    # the file holds those two arrays as they are
    monkeypatch.setattr(mo, "MAX_ITERS", 50)
    sol = mo.minimize_F(mo.MomentProblem(semicircle, n_particles=64))
    xs = np.linspace(-2.5, 2.5, 101)
    assert np.array_equal(sol.uprime(xs), np.interp(xs, sol.positions, sol.target_quantiles))
    d = sol.to_dict()
    assert d["uprime"] == {"x": sol.positions.tolist(), "value": sol.target_quantiles.tolist()}
    assert d["functional_value"] == sol.diagnostics["objective"][-1]
    assert d["residuals"] == mo.particle_residuals(sol.positions, sol.target_quantiles)
    assert (d["iterations"], d["converged"]) == (sol.iterations, sol.converged)
    assert mo.verify_solution(sol, semicircle)["hilbert_residual"] == sol.residuals["hilbert_residual"]


def test_package_exports_no_monotone_map():
    import freemoment

    assert not hasattr(freemoment, "MonotoneMap") and not hasattr(mo, "MonotoneMap")


def test_target_support_bound():
    # a two-point target at 1e5 still converges; one far past the bound is
    # refused before the particle sums can overflow
    assert mo.MomentProblem(M.two_point(1e5)).target.support == (-1e5, 1e5)
    with pytest.raises(InvalidInputError, match="support"):
        mo.MomentProblem(M.two_point(10.0 * mo.SUPPORT_BOUND))
