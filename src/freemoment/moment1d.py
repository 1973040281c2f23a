"""Variational solver for the one-dimensional free moment-measure problem.

Given a target measure mu, minimize the functional

    F(rho) = L(rho) + T(rho, mu)

(logarithmic energy plus maximal correlation) over probability measures rho,
and recover the potential derivative u' as the monotone rearrangement from
the minimizer to mu.  The minimizer is the free Gibbs measure of u and mu is
its moment measure.

rho is discretized by m equal-mass particles at quantile positions q, which
makes T linear in the positions and L the pair sum
-2/(m(m-1)) sum_{i<j} log|q_i - q_j|.  The pair sum is normalized as a
U-statistic (the mean over distinct pairs), so that its Euler relation gives
mean(q y) = 1 exactly at the discrete minimizer, as the scalar
Schwinger-Dyson relation does in the continuum; the reported residuals then
measure the solver, not the discretization.  The minimizer is found by
damped Newton steps with the dense Hessian, a weighted graph Laplacian
pinned against translation, and an Armijo line search on the discrete F.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import measure1d
from .errors import InvalidInputError
from .jsonio import JSONWriter
from .measure1d import GridMeasure


class MomentProblem:
    """Target measure, particle count and stopping tolerance of the minimization of F."""

    def __init__(self, target, n_particles=512, tol=1e-10):
        if not isinstance(target, GridMeasure):
            raise InvalidInputError("target must be a GridMeasure")
        if target.is_atomic() and len(target.atoms) == 1:
            raise InvalidInputError("degenerate target: a single point mass has no moment potential")
        if max(map(abs, target.support)) > SUPPORT_BOUND:
            raise InvalidInputError(f"target support {list(target.support)} reaches past "
                                    f"|x| = {SUPPORT_BOUND:g}")
        if not 0.0 <= tol < math.inf:
            raise InvalidInputError(f"tol must be finite and nonnegative, got {tol}")
        self.target = target
        self.n_particles = int(n_particles)
        if self.n_particles < 2:
            raise InvalidInputError("need at least two particles")
        self.tol = float(tol)


class MomentSolution(JSONWriter):
    """Particle positions q minimizing the discrete F and the centred target quantiles
    y; u' is the monotone rearrangement q -> y, read by linear interpolation.

    The residuals are those of particle_residuals: the Hilbert residual is the
    solver's last one, diagnostics["residual"], which is m max|grad F| at q."""

    def __init__(self, positions, target_quantiles, diagnostics):
        self.positions = q = np.asarray(positions, dtype=float)
        self.target_quantiles = y = np.asarray(target_quantiles, dtype=float)
        # cells of mass 1/m split at the midpoints of neighbouring particles
        self.rho_hat = GridMeasure.from_quantile_edges(np.concatenate(
            [[q[0] - 0.5 * (q[1] - q[0])], 0.5 * (q[:-1] + q[1:]), [q[-1] + 0.5 * (q[-1] - q[-2])]]))
        self.residuals = _residual_report(float(diagnostics["residual"]), q, y)
        # solver history and timing, kept out of to_dict so output files stay byte-identical
        self.diagnostics = dict(diagnostics)
        self.iterations = int(self.diagnostics["iterations"])
        self.converged = bool(self.diagnostics["converged"])

    def uprime(self, x):
        return np.interp(x, self.positions, self.target_quantiles)

    def to_dict(self):
        return {
            "rho_hat": self.rho_hat.to_dict(),
            "uprime": {"x": list(map(float, self.positions)),
                       "value": list(map(float, self.target_quantiles))},
            "functional_value": float(self.diagnostics["objective"][-1]),
            "residuals": self.residuals,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def functional_F(rho, mu):
    """F(rho) = log-energy of rho plus maximal correlation with mu.

    Returns +inf for atomic rho (the log energy diverges).
    """
    energy = measure1d.log_energy(rho)
    if math.isinf(energy):
        return math.inf
    return energy + measure1d.max_correlation(rho, mu)


def particle_objective(q, y, diffs=None):
    """Discrete F on separated, sorted particle positions q against target quantiles y.

    The pair energy is the U-statistic -2/(m(m-1)) sum_{i<j} log|q_i - q_j|;
    the correlation is mean(q * y).  One logarithm serves the product of up
    to GROUP entries of a column of the pair table, taken over a block of
    rows.  Every entry enters scaled by 2^-e, with 2^e the power of two just
    above q[-1] - q[0], so that it lies in (0, 1), and m(m-1) e log 2 is
    added back.  A group is shorter than GROUP only when the smallest
    scaled gap, raised to GROUP, falls below the normal range, and a group
    of one entry is taken unscaled.  diffs, an
    m x m buffer, is left holding the table q_i - q_j, diagonal 0, that
    particle_gradient reads.
    """
    m = q.size
    e = math.frexp(float(q[-1] - q[0]))[1]
    low = math.ldexp(float(np.min(np.diff(q))), -e)
    group = GROUP
    while group > 1 and low ** group < TINY:
        group -= 1
    if group == 1:
        e = 0  # a lone factor needs no scale
    # a group of two or more keeps every scaled gap above 2^-511, so the
    # scaled table is the table times 2^-e to the bit, and so is its undoing
    scaled = np.ldexp(q, -e)
    diffs = np.subtract.outer(scaled, scaled, out=diffs)
    np.fill_diagonal(diffs, 1.0)
    full = m - m % group
    logs = 0.0
    for block in (diffs[:full].reshape(full // group, group, m), diffs[None, full:]):
        prods = np.multiply.reduce(block, axis=1)
        np.abs(prods, out=prods)
        logs += float(np.sum(np.log(prods, out=prods)))
    np.fill_diagonal(diffs, 0.0)
    diffs *= 2.0 ** e
    energy = -logs / (m * (m - 1)) - e * math.log(2.0)
    corr = float(np.mean(q * y))
    return energy + corr


def particle_gradient(q, y, diffs=None):
    """Analytic gradient of the discrete F at separated positions q.  diffs,
    the table q_i - q_j that particle_objective left, if given, is turned
    into 1/(q_i - q_j) in place."""
    m = q.size
    diffs = np.subtract.outer(q, q) if diffs is None else diffs
    np.fill_diagonal(diffs, np.inf)
    np.reciprocal(diffs, out=diffs)
    return -2.0 / (m * (m - 1)) * np.sum(diffs, axis=1) + y / m


def particle_hessian(recips):
    """Hessian of the discrete F pinned by 11^T/m, written over the table recips
    of 1/(q_i - q_j) that particle_gradient leaves.  The Hessian is the weighted
    graph Laplacian H_ij = -w/(q_i - q_j)^2, H_ii = w sum_{j != i} 1/(q_i - q_j)^2
    with w = 2/(m(m-1)): positive semidefinite, null on translations only."""
    m = recips.shape[0]
    np.square(recips, out=recips)
    recips *= -2.0 / (m * (m - 1))
    np.fill_diagonal(recips, -np.sum(recips, axis=1))
    recips += 1.0 / m
    return recips


# entries of the pair table whose product particle_objective takes one
# logarithm of, and the smallest normal float, which no product falls below
GROUP = 16
TINY = np.finfo(float).tiny
# Newton steps of a solve, and halvings of a step before the line search
# gives up
MAX_ITERS = 20000
MAX_BACKTRACKS = 40
# largest |x| of a target's support: targets out to 1e5 converge, and the
# particle sums overflow on a support out to 1e200
SUPPORT_BOUND = 1e100
# largest stationarity residual of a solve reported as converged
GRAD_TOL = 1e-6


@functools.lru_cache(maxsize=None)
def _start_quantiles(m):
    """Read-only quantiles of the semicircle at the mass levels (k + 1/2)/m:
    the start of minimize_F, built once per particle count."""
    q = measure1d.quantile(measure1d.semicircle(), (np.arange(m) + 0.5) / m)
    q.flags.writeable = False
    return q


def minimize_F(problem):
    """Damped Newton descent for the centered minimizer of the discrete F.

    Each step solves (H + 11^T/m) d = -grad by a Cholesky factorization of
    particle_hessian: the rank-one term pins the translation null direction,
    so d stays centered with the gradient.  The start is the semicircle's
    quantiles, cached per m.  One m x m buffer holds, in turn, a trial's
    table of q_i - q_j, its reciprocals once the trial is accepted, the
    pinned Hessian and its Cholesky factor; it is the solve's only m x m
    table, for particle_objective takes one logarithm per GROUP entries of
    it.  An Armijo line search on particle_objective halves the step until
    F decreases enough, and rejects any trial whose particles are not
    separated by more than the floor eps_sep.  Close to the minimizer,
    where the decrease a full step predicts is below the round-off of F,
    full steps are taken for as long as they lower the stationarity residual
    max_i |2/(m-1) sum_{j != i} 1/(q_i - q_j) - y_i|, the discrete Hilbert
    identity (m times the largest gradient entry).

    The iteration stops when that residual is at most problem.tol, when no
    step decreases F, or after MAX_ITERS steps; the result is converged when
    the residual is at most problem.tol or GRAD_TOL, whichever is larger.
    The last residual, at the returned positions, is the solution's
    hilbert_residual, so no pair table is built after the last trial.
    The solution's ``diagnostics`` hold the core keys ``iterations``,
    ``residual``, ``converged`` and ``seconds``, and per step the
    ``objective`` and ``residuals`` (both starting at the initial iterate),
    the squared Newton decrements grad^T (H + 11^T/m)^-1 grad, the
    line-search ``backtracks`` and the accepted ``step_lengths``.
    """
    # the only SciPy user: imported here, so that importing freemoment does not load SciPy
    from scipy import linalg

    t_start = time.perf_counter()
    m = problem.n_particles
    # the target's quantiles and the semicircle start at the same m mass levels
    y = measure1d.quantile(problem.target, (np.arange(m) + 0.5) / m)
    # centred by their own mean: the pair terms of the gradient sum to zero,
    # so no move of the particles can remove mean(y)
    y = y - np.mean(y)
    if float(np.max(y) - np.min(y)) <= 0.0:
        raise InvalidInputError("degenerate target")

    q = _start_quantiles(m).copy()  # a solve that takes no step returns it
    eps_sep = 1e-9 * max(q[-1] - q[0], 1.0)

    w = 2.0 / (m * (m - 1))
    hess = np.empty((m, m))
    fval = particle_objective(q, y, hess)
    grad = particle_gradient(q, y, hess)
    residual = m * float(np.max(np.abs(grad)))
    diagnostics = {"objective": [fval], "residuals": [residual], "decrements": [],
                   "backtracks": [], "step_lengths": []}
    it = 0
    while residual > problem.tol and it < MAX_ITERS:
        particle_hessian(hess)
        # hess is symmetric, so its transpose is the same matrix in the
        # Fortran order LAPACK factors in place
        factor = linalg.cho_factor(hess.T, overwrite_a=True, check_finite=False)
        step = -linalg.cho_solve(factor, grad, check_finite=False)
        decrement = -float(np.dot(grad, step))
        # F/w is self-concordant (log barriers plus a linear term).  Once its
        # squared Newton decrement decrement/w is at most 1/16, the full step
        # stays in the ordered cone and passes the Armijo test in exact
        # arithmetic, but the decrease it predicts soon falls below the
        # round-off of F; so there the step is judged by the residual.
        quadratic = decrement <= w / 16.0
        t = 1.0
        for backtracks in range(MAX_BACKTRACKS):
            q_new = q + t * step
            if np.min(np.diff(q_new)) > eps_sep:
                f_new = particle_objective(q_new, y, hess)
                if quadratic or f_new <= fval - 1e-4 * t * decrement:
                    break
            t *= 0.5
        else:
            break  # no step decreases F
        grad_new = particle_gradient(q_new, y, hess)
        residual_new = m * float(np.max(np.abs(grad_new)))
        if quadratic and residual_new >= residual:
            break  # the residual is at its round-off floor
        it += 1
        q, fval, grad, residual = q_new, f_new, grad_new, residual_new
        diagnostics["objective"].append(fval)
        diagnostics["residuals"].append(residual)
        diagnostics["decrements"].append(decrement)
        diagnostics["backtracks"].append(backtracks)
        diagnostics["step_lengths"].append(t)
    converged = residual <= max(problem.tol, GRAD_TOL)
    diagnostics.update(iterations=it, residual=residual, converged=converged,
                       seconds=time.perf_counter() - t_start)

    return MomentSolution(q, y, diagnostics)


def particle_residuals(q, y):
    """Residuals of particle positions q against target quantiles y: the
    discrete Hilbert identity max_i |2/(m-1) sum_{j != i} 1/(q_i - q_j) - y_i|,
    which is m max|grad F| as minimize_F reads it, and the scalar
    Schwinger-Dyson relation |mean(q y) - 1|.  Both vanish at the exact
    minimizer of the discrete F, so they measure the solver.  InvalidInputError,
    naming a file's ``uprime``, unless q is finite and strictly increasing and
    y finite."""
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    if q.ndim != 1 or q.size < 2 or q.shape != y.shape:
        raise InvalidInputError("need at least two positions and one target quantile for each")
    if not (np.isfinite(q).all() and (np.diff(q) > 0).all() and np.isfinite(y).all()):
        raise InvalidInputError("uprime needs finite, strictly increasing positions x "
                                "and finite values")
    return _residual_report(q.size * float(np.max(np.abs(particle_gradient(q, y)))), q, y)


def _residual_report(hres, q, y):
    return {"hilbert_residual": hres, "pushforward_w2": None,
            "sd_scalar_error": abs(float(np.mean(q * y)) - 1.0)}


def verify_solution(sol, mu):
    """Residual report: Hilbert-transform identity, pushforward error, and the
    scalar Schwinger-Dyson check."""
    y = sol.target_quantiles
    rep = dict(sol.residuals)
    pushed = GridMeasure.from_quantile_edges(
        np.concatenate([[y[0]], 0.5 * (y[:-1] + y[1:]), [y[-1]]]))
    mu_c = mu.translate(-measure1d.moment(mu, 1))
    rep["pushforward_w2"] = math.sqrt(max(measure1d.wasserstein2_sq(pushed, mu_c), 0.0))
    return rep


# -- builtin targets -------------------------------------------------------------


def builtin_target(name):
    """Named targets for the command line: semicircle, two_point:a, dirac:c,
    quartic_pushforward."""
    parts = name.split(":")
    kind = parts[0]

    def param(default):
        try:
            return float(parts[1]) if len(parts) > 1 else default
        except ValueError:
            raise InvalidInputError(f"builtin target '{name}': parameter is not a number") from None

    if kind == "semicircle":
        return measure1d.semicircle()
    if kind == "two_point":
        return measure1d.two_point(param(1.0))
    if kind == "dirac":
        return measure1d.dirac(param(0.0))
    if kind == "quartic_pushforward":
        from . import gibbs1d

        sol = gibbs1d.free_gibbs_measure(gibbs1d.EvenPotential([0.0, 0.25]))
        return measure1d.pushforward_monotone(sol.measure, lambda x: x ** 3)
    raise InvalidInputError(f"unknown builtin target '{name}'")
