"""Noncommutative transport to a perturbed semicircle law.

Given an even self-adjoint perturbation W, find the even series V such that
when Y has the free Gibbs law of (1/2)|Y|^2 + V, the tuple Y + DV(Y) has the
free Gibbs law of (1/2)|X|^2 + W.  In the guaranteed regime the paper gets V
as the fixed point of a contraction, the cyclic symmetrized Picard map on
Vtilde; ``picard_map`` and ``lipschitz_bound`` keep that map and its
constant.  ``solve_V`` solves the transport condition itself, by a route that
depends on W alone: a separable W (every W in one variable) decouples into
one-variable problems whose condition is closed form, which Newton solves on
the one-cut moments of ``gibbs1d``; any other W is solved by Gauss-Newton at
the truncation scale.
"""

from __future__ import annotations

import itertools
import time
import warnings

import numpy as np

from . import gibbs1d, sdmoments
from .errors import ConvergenceError, InvalidInputError, RegimeError
from .jsonio import JSONMixin
from .ncseries import (
    NCSeries,
    _canonical_classes,
    _digits,
    _positions,
    _ranks,
    _recode,
    _series,
    cyclic_gradient_vector,
    cyclic_symmetrize,
    difference_quotient,
    drop_constant,
    jacobian,
    log_neumann,
    multiply,
    norm_A,
    norm_AB,
    number_op,
    number_op_inverse,
    substitute,
    trace_contract,
)

# the radius A of the norm in v_norm_A, and the radius R of the ball that
# norm_bound_satisfied tests
DEFAULT_A = 3.0
DEFAULT_R = 0.25
GUARANTEE_NORM_RADIUS = 17.0 / 4.0
GUARANTEE_MARGIN = 9.0 / 68.0
# Newton steps per degree stage of the one-variable solve
NEWTON_STEPS = 10


class TransportProblem:
    """Problem data for the transport solve."""

    def __init__(self, W, degree, cutoff=sdmoments.DEFAULT_CUTOFF, tol=1e-10):
        if not isinstance(W, NCSeries):
            raise InvalidInputError("W must be an NCSeries")
        if W.coeff(()) != 0.0:
            raise InvalidInputError("W must have zero constant term")
        if not W.is_even():
            raise InvalidInputError("W must contain only terms of even degree")
        if not W.is_selfadjoint():
            raise InvalidInputError("W must be self-adjoint")
        self.W = W.truncate(degree)
        self.degree = int(degree)
        self.cutoff = float(cutoff)
        self.tol = float(tol)
        self.tau_cap = self.degree + 4
        self.verify_cap = self.degree + 10
        self.guaranteed = norm_A(self.W, GUARANTEE_NORM_RADIUS) < GUARANTEE_MARGIN * DEFAULT_R
        if not self.guaranteed:
            warnings.warn("W is outside the guaranteed contraction regime; "
                          "results are labeled unverified", stacklevel=2)


class TransportSolution(JSONMixin):
    def __init__(self, V, V_tilde, tau_Y, transport_map, diagnostics):
        self.V = V
        self.V_tilde = V_tilde
        self.tau_Y = tau_Y
        self.transport_map = transport_map
        self.diagnostics = dict(diagnostics)

    def to_dict(self):
        return {
            "V": self.V.to_dict(),
            "V_tilde": self.V_tilde.to_dict(),
            "tau_Y": self.tau_Y.to_dict(),
            "transport_map": [c.to_dict() for c in self.transport_map],
            "diagnostics": _stored(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(NCSeries.from_dict(d["V"]), NCSeries.from_dict(d["V_tilde"]),
                   sdmoments.TraceTable.from_dict(d["tau_Y"]),
                   [NCSeries.from_dict(c) for c in d["transport_map"]],
                   d.get("diagnostics", {}))


def _stored(diagnostics):
    """Diagnostics as written to JSON: without timings, so files stay byte-identical."""
    out = {k: v for k, v in diagnostics.items() if k not in ("seconds", "stage_seconds")}
    if "components" in out:
        out["components"] = [_stored(c) for c in out["components"]]
    return out


def _trace_log(jac, tau):
    """(1 (x) tau + tau (x) 1) Tr log(1 + jac) as it enters the Picard map.

    Write jac = M0 + N, with M0 the real matrix of degree-0 coefficients and
    N of positive degree, so 1 + jac = (1 + M0)(1 + K) with
    K = (1 + M0)^-1 N.  Then Tr log(1 + jac) = Tr log(1 + M0) + Tr log(1 + K)
    up to commutators.  The composite S o Pi o (1 (x) tau + tau (x) 1) o Tr
    vanishes on commutators of matrices over M (x) M^op: for X = a (x) b and
    Y = c (x) d, XY and YX contract to ac tau(db) + tau(ac) db and
    ca tau(bd) + tau(ca) bd, which agree after S since tau is tracial, and
    products keep total degree, so this holds under the cap as well.
    Tr log(1 + M0) is a constant, which Pi removes.  So only the contraction
    of Tr log(1 + K) is returned; it is exact because K is nilpotent under
    the cap.  Valid only for callers that apply S o Pi to the result.
    """
    n = tau.n_vars
    m0 = jac[(0, 0)][:, :, 0, 0] if (0, 0) in jac else np.zeros((n, n))
    inv = np.linalg.inv(np.eye(n) + m0)
    k = {key: np.einsum("ik,kjab->ijab", inv, blk) for key, blk in jac.items() if key != (0, 0)}
    return trace_contract(log_neumann(k, tau.degree_cap), tau)


def picard_map(vtilde, W, tau, degree):
    """One application of the symmetrized Picard map to Vtilde.

    Computes SPi[-W(Y + D Sigma Vtilde) + Sigma Vtilde - |D Sigma Vtilde|^2/2
    + (1 (x) tau + tau (x) 1) Tr log(1 + J D Sigma Vtilde)], truncated at the
    trace table's cap.

    The trace-log term is exact under the cap: the degree-0 part of the
    Jacobian is factored out (see ``_trace_log``), which relies on the final
    S o Pi projection applied here.
    """
    n = W.n_vars
    cap = tau.degree_cap
    sv = number_op_inverse(drop_constant(vtilde)).truncate(cap)
    grads = cyclic_gradient_vector(sv)

    args = [NCSeries.variable(i, n, cap) + grads[i] for i in range(n)]
    term_w = substitute(W, args, cap) * -1.0

    term_sigma = sv

    term_grad2 = NCSeries.zero(n, cap)
    for g in grads:
        term_grad2 = term_grad2 + multiply(g, g, cap)
    term_grad2 = term_grad2 * -0.5

    term_log = _trace_log(jacobian(grads), tau)

    total = term_w + term_sigma + term_grad2 + term_log
    return cyclic_symmetrize(drop_constant(total)).truncate(degree)


def lipschitz_bound(W, a_radius, ball_radius):
    """Upper bound for the Lipschitz constant of the Picard map on the even ball."""
    if a_radius < 1.0:
        raise InvalidInputError("norm radius must be >= 1")
    if a_radius * a_radius <= 2.0 * ball_radius:
        raise InvalidInputError("need A^2 > 2R")
    b = a_radius + ball_radius
    dq_norm = 0.0
    for i in range(W.n_vars):
        dq_norm += norm_AB(difference_quotient(W, i), b, b)
    return 0.5 + dq_norm + ball_radius + 4.0 * ball_radius / (a_radius ** 2 - 2.0 * ball_radius)


def _symmetric_basis(W, degree):
    """Orbits of the even words of at most ``degree`` letters under rotation,
    reversal and the permutations of the variables that leave W invariant,
    leaving out the words that one of W's sign-flip symmetries makes odd.

    Returns each orbit's least canonical code, grouped as (length, codes) in
    word order, and the ranks of all words in the orbits with the index of
    each word's orbit.
    """
    n = W.n_vars
    flips = np.flatnonzero(sdmoments._variable_parities(W))
    _, lengths, pos, _, letter, _ = _positions(W)
    perms = []
    for perm in map(np.array, itertools.permutations(range(n))):
        moved = _recode(W, perm[letter] * n ** (lengths - 1 - pos))
        if (np.abs((moved - W).coeffs) < 1e-14).all():
            perms.append(perm)
    classes, count = [], 0
    ranks, owners = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for length in range(2, degree + 1, 2):
        reps, inv = _canonical_classes(n, length)
        letters = _digits(np.arange(n ** length), n, length)
        alive = ((letters[:, :, None] == flips).sum(axis=1) % 2 == 0).all(axis=1)
        powers = n ** np.arange(length - 1, -1, -1)
        orbit = np.min([reps[inv[perm[letters] @ powers]] for perm in perms], axis=0)
        least, owner = np.unique(orbit[alive], return_inverse=True)
        classes.append((length, least))
        ranks.append(_ranks(np.full(len(owner), length), np.flatnonzero(alive), n))
        owners.append(count + owner)
        count += len(least)
    return classes, np.concatenate(ranks), np.concatenate(owners)


def _refine_by_moment_matching(problem):
    """Gauss-Newton on the transport condition at the truncation scale.

    Unknowns are the symmetric even-word-class coefficients of V; residuals
    are the word-wise deviations between the pushforward of the V-law under
    Y + DV and the directly solved law for W.  The target trace is computed
    at the full verification cap; the V-side solves run at a cheaper cap
    (the V coefficients are small, so their truncation bias is negligible).
    Returns V and the diagnostics: the max residual, the accepted steps, the
    stop test and the stage timings, of which ``start`` solves the target.
    """
    t0 = time.perf_counter()
    W = problem.W
    n = W.n_vars
    D = problem.degree
    verify_cap = problem.verify_cap
    eval_cap = D + 6
    tau_direct = sdmoments.solve_sd(W.truncate(verify_cap), verify_cap, cutoff=problem.cutoff)
    classes, support, owner = _symmetric_basis(W, D)

    def on_classes(tau):
        return np.concatenate([tau.at(length, codes) for length, codes in classes])

    target_vals = on_classes(tau_direct)
    t_start = time.perf_counter()
    hint = _series(n, D, support, np.ones(len(support)))
    warm = {"tau": None}

    def assemble(c):
        return _series(n, D, support, c[owner])

    def residual(c):
        V = assemble(c)
        try:
            tau_y = sdmoments.solve_sd(V.truncate(eval_cap), eval_cap,
                                       cutoff=problem.cutoff, init=warm["tau"],
                                       support_hint=hint)
        except ConvergenceError:
            return None
        warm["tau"] = tau_y
        fmap = [NCSeries.variable(i, n, eval_cap) + g.truncate(eval_cap)
                for i, g in enumerate(cyclic_gradient_vector(V))]
        tau_x = sdmoments.pushforward_trace(tau_y, fmap, D)
        return on_classes(tau_x) - target_vals

    c = np.zeros(len(target_vals))
    r = residual(c)
    if r is None:
        raise ConvergenceError("moment-matching refinement has no usable start")
    best = float(np.max(np.abs(r)))
    jac = None
    h = 1e-7
    steps = 0
    for _ in range(15):
        if best < problem.tol * 10:
            break
        if jac is None:
            jac = np.empty((len(c), len(c)))
            for j in range(len(c)):
                cp = c.copy()
                cp[j] += h
                col = residual(cp)
                if col is None:
                    cp[j] -= 2 * h
                    col = residual(cp)
                    if col is None:
                        raise ConvergenceError("refinement Jacobian column failed")
                    jac[:, j] = (r - col) / h
                else:
                    jac[:, j] = (col - r) / h
            fresh = True
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        scale = 1.0
        improved = False
        for _ in range(8):
            r_new = residual(c - scale * step)
            if r_new is not None and np.max(np.abs(r_new)) < best:
                c = c - scale * step
                r = r_new
                best = float(np.max(np.abs(r)))
                improved = True
                steps += 1
                break
            scale *= 0.5
        if not improved:
            if fresh:
                break
            jac = None
            continue
        fresh = False
    return assemble(c), {"iterations": steps, "residual": best, "converged": best < problem.tol * 10,
                         "stage_seconds": {"start": t_start - t0,
                                           "refinement": time.perf_counter() - t_start}}


def _solve_one_variable(w, degree, tol):
    """Newton on the closed-form transport condition for W = sum_k w[k-1] x^2k.

    y + V'(y) is U' for U = y^2/2 + V, which pushes the free Gibbs law of U
    onto that of x^2/2 + W (Cordero-Erausquin-Klartag): V solves the transport
    when the moments of U' under the one-cut law of U match those of
    x^2/2 + W at every even degree <= D.  Newton from V = 0 diverges at
    D = 10, so stage D' = 2, 4, ..., D starts from the last with v_D' = 0.
    A forward-difference Jacobian would cost Newton its quadratic convergence.
    Returns (v_2, ..., v_D) and the diagnostics; the last iterate is returned
    unconverged when U leaves the one-cut regime or a stage runs out of steps.
    """
    t0 = time.perf_counter()

    def moments(u, push):
        # moments 2, 4, ..., 2 len(u) of y, or of U'(y), under the one-cut law of U
        _, y, weights = gibbs1d._one_cut(u)
        fy = gibbs1d._even_deriv(u, y) if push else y
        return np.array([weights @ fy ** (2 * k) for k in range(1, len(u) + 1)])

    def residual(v):
        return moments(np.concatenate(([v[0] + 0.5], v[1:])), True) - target[:v.size]

    def newton_step(v, f):
        h = 1e-4 * np.abs(v) + 1e-9
        jac = np.column_stack([(residual(v + e) - residual(v - e)) / (2.0 * e[j])
                               for j, e in enumerate(np.diag(h))])
        v = v - np.linalg.solve(jac, f)
        return v, residual(v)

    u = np.zeros(max(degree // 2, 1))
    u[:len(w)] = w
    u[0] += 0.5
    try:
        target = moments(u, False)
    except RegimeError as exc:
        raise InvalidInputError(f"x^2/2 + W has no one-cut free Gibbs law ({exc})") from None
    t_newton = time.perf_counter()
    v, f = np.zeros(0), np.zeros(0)
    steps, converged = 0, False
    try:
        for _ in range(degree // 2):
            v = np.append(v, 0.0)
            f = residual(v)
            for _ in range(NEWTON_STEPS):
                if np.max(np.abs(f)) <= tol:
                    break
                v, f = newton_step(v, f)
                steps += 1
        converged = bool(np.max(np.abs(f), initial=0.0) <= tol)
        if converged and steps:
            # one step past tol: at quadratic convergence it lands near rounding
            v_new, f_new = newton_step(v, f)
            steps += 1
            if np.max(np.abs(f_new)) < np.max(np.abs(f)):
                v, f = v_new, f_new
    except (RegimeError, np.linalg.LinAlgError):
        pass  # U left the one-cut regime, or a singular Jacobian: the last iterate stands
    t_end = time.perf_counter()
    return v, {"iterations": steps, "residual": float(np.max(np.abs(f), initial=0.0)),
               "converged": converged, "seconds": t_end - t0,
               "stage_seconds": {"start": t_newton - t0, "refinement": t_end - t_newton}}


def _split_separable(W, degree):
    """Coefficients [i, L] of x_i^L in W, or None if W has other words."""
    word, lengths, pos, _, letter, _ = _positions(W)
    first = letter[pos == 0]
    if (W.ranks == 0).any() or (letter != first[word]).any():
        return None
    parts = np.zeros((W.n_vars, degree + 1))
    parts[first, lengths[pos == 0]] = W.coeffs
    return parts


def _solve_separable(problem):
    """Exact reduction for separable W (n = 1 included): each variable
    transports independently.

    The Picard map sends sums of single-variable series to sums of
    single-variable series and the free Gibbs law of a separable potential is
    the free product of the one-variable laws, so the n-variable solution is
    the sum of the one-variable solutions.  Returns V, the diagnostics of
    each variable and those of each distinct one-variable solve.
    """
    n, D = problem.W.n_vars, problem.degree
    V = NCSeries.zero(n, D)
    components, solved = [], {}
    for i, part in enumerate(_split_separable(problem.W, D)):
        w = tuple(part[2::2].tolist())
        if w not in solved:
            solved[w] = _solve_one_variable(w, D, problem.tol)
        v, component = solved[w]
        components.append(component)
        V = V + NCSeries(n, D, {(i,) * (2 * k): c for k, c in enumerate(v, start=1)})
    return V, components, [d for _, d in solved.values()]


def solve_V(problem):
    """Solve for the transport potential V, by one of two routes chosen from W.

    A separable W, every W in one variable included, decouples into
    one-variable problems, which Newton solves in closed form on the one-cut
    moments of ``gibbs1d``.  Any other W is solved by Gauss-Newton on the
    transport condition at the truncation scale, from V = 0.  Neither route
    depends on the regime, and neither takes a Picard step.  The
    diagnostics' ``iterations``, ``residual`` and ``converged`` are those of
    the route's solve, and ``stage_seconds`` times the ``start`` (the target
    law: its one-cut moments, or its Schwinger-Dyson solve), the
    ``refinement`` (Newton or Gauss-Newton) and the ``final_trace``; like
    ``seconds`` it is not written to JSON.
    """
    t0 = time.perf_counter()
    W, D = problem.W, problem.degree
    n = W.n_vars
    if _split_separable(W, D) is not None:
        V, components, distinct = _solve_separable(problem)
        diagnostics = {
            "iterations": sum(d["iterations"] for d in distinct),
            "residual": max(d["residual"] for d in distinct),
            "converged": all(d["converged"] for d in distinct),
            # the one-variable stages summed over the distinct components
            "stage_seconds": {k: sum(d["stage_seconds"][k] for d in distinct)
                              for k in ("start", "refinement")},
            "separable": True,
            "components": components,
        }
    else:
        V, diagnostics = _refine_by_moment_matching(problem)

    t_final = time.perf_counter()
    tau = sdmoments.solve_sd(V.truncate(problem.tau_cap), problem.tau_cap, cutoff=problem.cutoff)
    diagnostics["stage_seconds"]["final_trace"] = time.perf_counter() - t_final
    v_norm = norm_A(V, DEFAULT_A)
    vtilde = cyclic_symmetrize(drop_constant(number_op(V)))
    transport_map = [NCSeries.variable(i, n, D) + g
                     for i, g in enumerate(cyclic_gradient_vector(V))]
    diagnostics.update(v_norm_A=v_norm, norm_bound_satisfied=bool(v_norm <= DEFAULT_R + 1e-12),
                       guaranteed_regime=problem.guaranteed, seconds=time.perf_counter() - t0)
    return TransportSolution(V, vtilde, tau, transport_map, diagnostics)


def verify_transport(sol, W, degree):
    """Independent verification of a transport solution.

    Pushes the solved law through the transport map and compares it, word by
    word up to ``degree``, with the law solved directly for W; also reports
    the Schwinger-Dyson residual of the pushed-forward trace.  Both laws are
    solved at the cutoff of the solution's trace table.
    """
    n = W.n_vars
    if sol.V.n_vars != n:
        raise InvalidInputError("W and the solution have different numbers of variables")
    cap = max(max(6 * degree, 40) if n == 1 else degree + 12, sol.tau_Y.degree_cap)
    tau_y = sdmoments.solve_sd(sol.V.truncate(cap), cap, cutoff=sol.tau_Y.cutoff, init=sol.tau_Y)
    fmap = [c.truncate(cap) for c in sol.transport_map]
    tau_x = sdmoments.pushforward_trace(tau_y, fmap, degree)
    tau_direct = sdmoments.solve_sd(W.truncate(cap), cap, cutoff=sol.tau_Y.cutoff)

    # classes in word order; the first maximum wins, () when all agree
    dev = np.concatenate([np.abs(a - b) for a, b in zip(tau_x.values, tau_direct.values)])
    k = int(np.argmax(dev))
    words = [w for length in range(degree + 1) for w in sdmoments._enumerate_canonical(n, length)]
    worst, worst_word = float(dev[k]), words[k]
    resid = sdmoments.sd_residual(tau_x, W.truncate(degree), degree)
    return {
        "max_moment_deviation": worst,
        "worst_word": [i + 1 for i in worst_word],
        "sd_residual": resid,
        "degree": degree,
    }
