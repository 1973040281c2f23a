"""Noncommutative transport to a perturbed semicircle law.

Given an even self-adjoint perturbation W, find the even series V such that
when Y has the free Gibbs law of (1/2)|Y|^2 + V, the tuple Y + DV(Y) has the
free Gibbs law of (1/2)|X|^2 + W.  In the guaranteed regime the paper gets V
as the fixed point of a contraction, the cyclic symmetrized Picard map on
Vtilde; ``picard_map`` and ``lipschitz_bound`` keep that map and its
constant.  ``solve_V`` solves the transport condition itself, with one chord
Newton (``_newton``) for every W, each caller supplying its Jacobian.  The
diagonal part of W, its words x_i^L, decouples into one-variable problems
whose condition is closed form on the one-cut moments of ``gibbs1d``, with
an exact Jacobian.  Their solution is the answer for a separable W (every W
in one variable), and the start of the Gauss-Newton at the truncation scale
for any other W, whose Jacobian is one-sided differences.  V alone
determines a solution: the law of Y, the transport map and Vtilde are
derived from it, and ``verify_transport`` reads only V, W and the degree.
Every one-variable law (the solver's target, the separable check's, Y's for
n = 1) is a one-cut law from ``_one_cut_law``, not a Schwinger-Dyson table.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import gibbs1d, sdmoments
from .errors import ConvergenceError, InvalidInputError, RegimeError
from .jsonio import JSONMixin
from .ncseries import (
    NCSeries,
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
# chord Newton steps per degree stage of the one-variable solve, and of the
# Gauss-Newton
NEWTON_STEPS = 15


class TransportProblem:
    """Problem data for the transport solve."""

    def __init__(self, W, degree, tol=1e-10):
        if not isinstance(W, NCSeries):
            raise InvalidInputError("W must be an NCSeries")
        if not 0.0 <= tol < np.inf:
            raise InvalidInputError(f"tol must be finite and nonnegative, got {tol}")
        if W.coeff(()) != 0.0:
            raise InvalidInputError("W must have zero constant term")
        if not W.is_even():
            raise InvalidInputError("W must contain only terms of even degree")
        if not W.is_selfadjoint():
            raise InvalidInputError("W must be self-adjoint")
        if degree < W.degree():
            raise InvalidInputError("degree must be at least the degree of W")
        self.W = W.truncate(degree)
        self.degree = int(degree)
        self.tol = float(tol)
        # the one cap of every Schwinger-Dyson solve in the Gauss-Newton
        self.sd_cap = self.degree + 10
        self.guaranteed = norm_A(self.W, GUARANTEE_NORM_RADIUS) < GUARANTEE_MARGIN * DEFAULT_R


class TransportSolution(JSONMixin):
    """V and the diagnostics.  The trace table of the law of Y to cap
    ``V.max_degree + 4`` (its one-cut moments for an even V in one variable,
    else ``solve_sd``'s), the transport map Y + DV and Vtilde = S Pi N V are
    derived from V on each access; JSON keeps all three, and ``from_dict``
    reads V alone."""

    def __init__(self, V, diagnostics):
        self.V = V
        self.diagnostics = dict(diagnostics)

    @property
    def tau_Y(self):
        cap = self.V.max_degree + 4
        if self.V.n_vars > 1 or not self.V.is_even():
            return sdmoments.solve_sd(self.V.truncate(cap), cap)
        even = _split_diagonal(self.V, self.V.max_degree)[0][0, 2::2]
        _, y, weights = _one_cut_law(even, self.V.max_degree)
        moments = y ** np.arange(cap + 1)[:, None] @ weights
        moments[0], moments[1::2] = 1.0, 0.0
        return sdmoments.TraceTable(1, cap, moments[:, None])

    @property
    def V_tilde(self):
        return cyclic_symmetrize(drop_constant(number_op(self.V)))

    @property
    def transport_map(self):
        return _transport_map(self.V, self.V.max_degree)

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
        return cls(NCSeries.from_dict(d["V"]), d.get("diagnostics", {}))


def _transport_map(V, cap):
    """The transport map Y + DV, one series per variable, truncated at ``cap``."""
    return [NCSeries.variable(i, V.n_vars, cap) + g.truncate(cap)
            for i, g in enumerate(cyclic_gradient_vector(V))]


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
    flips = sdmoments._variable_parities(W)
    _, lengths, pos, _, letter, _ = _positions(W)
    perms = []
    # the identity comes first and moves no class
    for perm in map(np.array, itertools.islice(itertools.permutations(range(n)), 1, None)):
        moved = _recode(W, perm[letter] * n ** (lengths - 1 - pos))
        if (np.abs((moved - W).coeffs) < 1e-14).all():
            perms.append(perm)
    classes, count = [], 0
    ranks, owners = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for length in range(2, degree + 1, 2):
        least, orbit = sdmoments._orbits(n, length, True, flips, perms)
        owner = orbit[sdmoments._canonical_classes(n, length)[1]]
        words = np.flatnonzero(owner >= 0)
        classes.append((length, least))
        ranks.append(_ranks(np.full(len(words), length), words, n))
        owners.append(count + owner[words])
        count += len(least)
    return classes, np.concatenate(ranks), np.concatenate(owners)


def _newton(residual, jacobian, c, tol, max_steps):
    """Chord Newton on residual(c) = 0, until the max residual is at most tol.

    ``jacobian(c, r)`` gives the Jacobian at c, where the residual is r, or
    None where it cannot.  The Jacobian is kept while its least-squares step,
    halved up to 8 times, lowers the max residual.  When a step fails the
    Jacobian is rebuilt once; the solve stops when a fresh Jacobian fails too
    or cannot be built, or after ``max_steps`` accepted steps.  ``residual``
    returns None where it cannot be evaluated.  Returns the last c, its
    residual (None when the start has none) and the number of accepted steps.
    """
    r = residual(c)
    steps, jac = 0, None
    while r is not None and np.max(np.abs(r)) > tol and steps < max_steps:
        fresh = jac is None
        if fresh:
            jac = jacobian(c, r)
            if jac is None:
                break
        step = np.linalg.lstsq(jac, r, rcond=None)[0]
        for scale in 0.5 ** np.arange(9):
            r_new = residual(c - scale * step)
            if r_new is not None and np.max(np.abs(r_new)) < np.max(np.abs(r)):
                c, r, steps = c - scale * step, r_new, steps + 1
                break
        else:
            if fresh:
                break
            jac = None
    return c, r, steps


def _refine_by_moment_matching(problem, start, t0):
    """Gauss-Newton on the transport condition at the truncation scale, from
    the series ``start``.

    Unknowns are the symmetric even-word-class coefficients of V; residuals
    are the deviations, on one word of each fitted class, between the
    pushforward of the V-law under Y + DV and the directly solved law for W.
    Only those words are traced (``sdmoments._trace_words``), to the same
    values ``pushforward_trace`` gives them.  Both laws are solved at the
    one cap ``problem.sd_cap``: a V-law truncated below its target's cap
    leaves a residual floor that V is then fitted to.  The Jacobian is one-
    sided differences with step 1e-4 |c_j| + 1e-9 from the residual in hand,
    one Schwinger-Dyson solve per unknown: the mixed D = 4 test case takes 3
    steps on one Jacobian of 4 columns.  Returns V and the
    diagnostics: the max residual, the accepted steps, the stop test and the
    stage timings, of which ``start`` runs from ``t0`` to the solved target.
    """
    W = problem.W
    n = W.n_vars
    D = problem.degree
    cap = problem.sd_cap
    tau_direct = sdmoments.solve_sd(W.truncate(cap), cap)
    classes, support, owner = _symmetric_basis(W, D)
    target_vals = np.concatenate([tau_direct.at(length, codes) for length, codes in classes])
    # the words of the fitted classes: the residual traces no other word
    words = [tuple(w) for length, codes in classes for w in _digits(codes, n, length).tolist()]
    t_start = time.perf_counter()
    hint = _series(n, D, support, np.ones(len(support)))
    warm = {"tau": None}

    def assemble(c):
        return _series(n, D, support, c[owner])

    def residual(c):
        V = assemble(c)
        try:
            tau_y = sdmoments.solve_sd(V.truncate(cap), cap, init=warm["tau"],
                                       support_hint=hint)
        except ConvergenceError:
            return None
        warm["tau"] = tau_y
        return sdmoments._trace_words(tau_y, _transport_map(V, cap), words) - target_vals

    def jacobian(c, r):
        # one-sided differences from the residual r at c
        h = 1e-4 * np.abs(c) + 1e-9
        cols = [residual(c + e) for e in np.diag(h)]
        if any(f is None for f in cols):
            return None
        return np.column_stack([(f - r) / hj for f, hj in zip(cols, h)])

    # the start's words lie in the support, sorted like it
    c = np.zeros(len(target_vals))
    c[owner[np.searchsorted(support, start.ranks)]] = start.coeffs
    c, r, steps = _newton(residual, jacobian, c, 10 * problem.tol, NEWTON_STEPS)
    if r is None:
        raise ConvergenceError("moment-matching refinement has no usable start")
    best = float(np.max(np.abs(r)))
    return assemble(c), {"iterations": steps, "residual": best, "converged": best <= 10 * problem.tol,
                         "stage_seconds": {"start": t_start - t0,
                                           "refinement": time.perf_counter() - t_start}}


def _one_cut_law(even, degree):
    """The one-cut law of U = y^2/2 + sum_k even[k-1] y^2k: U's even
    coefficients, padded to degree ``degree``, and the theta-Gauss rule
    (y, weights) of ``gibbs1d._one_cut``, so that the integral of f is
    weights @ f(y).  InvalidInputError when U has no one-cut law."""
    u = np.zeros(max(degree // 2, 1))
    u[:len(even)] = even
    u[0] += 0.5
    try:
        _, y, weights = gibbs1d._one_cut(u)
    except RegimeError as exc:
        raise InvalidInputError(f"U = {u.tolist()} has no one-cut free Gibbs law: {exc}") from None
    return u, y, weights


def _solve_one_variable(w, degree, tol):
    """Newton on the closed-form transport condition for W = sum_k w[k-1] x^2k.

    y + V'(y) is U' for U = y^2/2 + V, which pushes the free Gibbs law of U onto
    that of x^2/2 + W (Cordero-Erausquin-Klartag): V solves the transport when
    the moments of U' under the one-cut law of U match those of x^2/2 + W
    (``_one_cut_law``) at every even degree <= D.  Newton from V = 0 diverges at
    D = 10, so stage D' = 2, 4, ..., D starts from the last with v_D' = 0 and
    runs ``_newton`` down to 1e-3 tol: below tol, short of round-off.  Its
    Jacobian is the exact derivative of ``gibbs1d._moment_map``, one one-cut law
    and its derivative per build: C13 (0.05 x^4, D = 10) takes 26 steps on one
    Jacobian per stage.  A stage that leaves the one-cut regime or runs out of
    steps hands its last iterate on.  Returns (v_2, ..., v_D) and the
    diagnostics; ``converged`` means a final residual of at most tol.
    """
    t0 = time.perf_counter()

    def moment_map(v, jac):
        try:
            return gibbs1d._moment_map(np.concatenate(([v[0] + 0.5], v[1:])), jac)
        except RegimeError:
            return None  # U has no one-cut law

    def residual(v):
        moments = moment_map(v, False)
        return None if moments is None else moments - target[:v.size]

    def jacobian(v, r):
        out = moment_map(v, True)
        return None if out is None else out[1]

    u, y, weights = _one_cut_law(w, degree)
    target = np.array([weights @ y ** (2 * k) for k in range(1, len(u) + 1)])
    t_newton = time.perf_counter()
    v, f, steps = np.zeros(0), np.zeros(0), 0
    for _ in range(degree // 2):
        # appending v_D' = 0 keeps U, whose residual was evaluated
        v, f, taken = _newton(residual, jacobian, np.append(v, 0.0), 1e-3 * tol, NEWTON_STEPS)
        steps += taken
    t_end = time.perf_counter()
    worst = float(np.max(np.abs(f), initial=0.0))
    return v, {"iterations": steps, "residual": worst, "converged": worst <= tol,
               "seconds": t_end - t0,
               "stage_seconds": {"start": t_newton - t0, "refinement": t_end - t_newton}}


def _split_diagonal(W, degree):
    """Coefficients [i, L] of W's words x_i^L, and whether W has any other
    word; a constant term is put in [0, 0]."""
    word, _, pos, _, letter, _ = _positions(W)
    first = np.zeros(len(W.ranks), dtype=np.int64)
    first[word[pos == 0]] = letter[pos == 0]
    diagonal = np.bincount(word, letter != first[word], len(W.ranks)) == 0
    parts = np.zeros((W.n_vars, degree + 1))
    lengths = np.bincount(word, minlength=len(W.ranks))
    parts[first[diagonal], lengths[diagonal]] = W.coeffs[diagonal]
    return parts, not diagonal.all()


def _solve_diagonal(problem, parts):
    """V for the diagonal part sum_i sum_L parts[i, L] x_i^L of W: each
    variable transports independently.

    The Picard map sends sums of single-variable series to sums of
    single-variable series and the free Gibbs law of a separable potential is
    the free product of the one-variable laws, so the n-variable solution is
    the sum of the one-variable solutions.  Returns V and the diagnostics,
    with each variable's under ``components``.
    """
    n, D = problem.W.n_vars, problem.degree
    V = NCSeries.zero(n, D)
    components, solved = [], {}
    for i, part in enumerate(parts):
        w = tuple(part[2::2].tolist())
        if w not in solved:
            solved[w] = _solve_one_variable(w, D, problem.tol)
        v, component = solved[w]
        components.append(component)
        V = V + NCSeries(n, D, {(i,) * (2 * k): c for k, c in enumerate(v, start=1)})
    distinct = [d for _, d in solved.values()]
    return V, {
        "iterations": sum(d["iterations"] for d in distinct),
        "residual": max(d["residual"] for d in distinct),
        "converged": all(d["converged"] for d in distinct),
        # the one-variable stages summed over the distinct components
        "stage_seconds": {k: sum(d["stage_seconds"][k] for d in distinct)
                          for k in ("start", "refinement")},
        "separable": True,
        "components": components,
    }


def solve_V(problem):
    """Solve for the transport potential V.

    The diagonal part of W (its words x_i^L) decouples into one-variable
    problems, which ``_newton`` solves in closed form on the one-cut moments
    of ``gibbs1d``.  For a separable W, every W in one variable included,
    that is the answer.  Any other W is solved by ``_newton`` as a
    Gauss-Newton on the transport condition at the truncation scale, started
    from the diagonal part's V, or from V = 0 when the diagonal part has no
    one-cut law.  No route depends on the regime or takes a Picard step.
    The diagnostics' ``iterations`` (accepted chord steps), ``residual`` and
    ``converged`` are those of the last solve, and ``stage_seconds`` times
    the ``start`` (the target law: its one-cut moments or, for a mixed W,
    the diagonal part's solve and the target's Schwinger-Dyson solve) and
    the ``refinement``; like ``seconds`` it is not written to JSON.  The
    law of Y is not solved here: ``TransportSolution.tau_Y`` derives it.
    """
    t0 = time.perf_counter()
    W, D = problem.W, problem.degree
    parts, mixed = _split_diagonal(W, D)
    try:
        V, diagnostics = _solve_diagonal(problem, parts)
    except InvalidInputError:
        if not mixed:
            raise
        V = NCSeries.zero(W.n_vars, D)
    if mixed:
        V, diagnostics = _refine_by_moment_matching(problem, V, t0)
    v_norm = norm_A(V, DEFAULT_A)
    diagnostics.update(v_norm_A=v_norm, norm_bound_satisfied=bool(v_norm <= DEFAULT_R + 1e-12),
                       guaranteed_regime=problem.guaranteed, seconds=time.perf_counter() - t0)
    return TransportSolution(V, diagnostics)


def _one_cut_deviations(v, w, degree):
    """For V = sum_L v[L] y^L and W = sum_L w[L] x^L, both even: the
    deviation at each degree 0..``degree`` of the moments of U'(y) under the
    one-cut law of U = y^2/2 + V from those of x under that of x^2/2 + W,
    and the pushed moments' Schwinger-Dyson residual for W."""
    u, y, weights = _one_cut_law(v[2::2], len(v) - 1)
    _, x, x_weights = _one_cut_law(w[2::2], len(w) - 1)
    powers = np.arange(degree + 1)[:, None]
    pushed = gibbs1d._even_deriv(u, y) ** powers @ weights
    W = NCSeries(1, degree, {(0,) * length: c for length, c in enumerate(w.tolist()) if length})
    return (np.abs(pushed - x ** powers @ x_weights),
            sdmoments.sd_residual(sdmoments.TraceTable(1, degree, pushed[:, None]), W))


def verify_transport(sol, W, degree):
    """Independent verification of a transport solution from its V alone:
    the largest deviation of the moments of the law of V pushed through
    Y + DV from those of the law of x^2/2 + W, its word and the pushed law's
    Schwinger-Dyson residual.

    When W and V are even and have no word other than the x_i^L, the law of
    x^2/2 + W and that of V are the free products of their one-cut
    marginals, and Y + DV acts letter by letter, so the two joint laws agree
    exactly when every marginal does; in one variable, free transport is the
    monotone rearrangement.  Each distinct pair (W_i, V_i) is then checked
    once by ``_one_cut_deviations``, and the worst word is the first maximum
    by length, then variable.  Any other solution is checked on every
    canonical word, both laws solved cold at cap degree + 12.
    """
    n = W.n_vars
    if sol.V.n_vars != n:
        raise InvalidInputError("W and the solution have different numbers of variables")
    w_parts, w_mixed = _split_diagonal(W, W.max_degree)
    v_parts, v_mixed = _split_diagonal(sol.V, sol.V.max_degree)
    if w_mixed or v_mixed or w_parts[:, 1::2].any() or v_parts[:, 1::2].any():
        cap = degree + 12
        tau_y = sdmoments.solve_sd(sol.V.truncate(cap), cap)
        tau_x = sdmoments.pushforward_trace(tau_y, _transport_map(sol.V, cap), degree)
        tau_w = sdmoments.solve_sd(W.truncate(cap), cap)
        dev = np.concatenate([np.abs(a - b) for a, b in zip(tau_x.values, tau_w.values)])
        resid = sdmoments.sd_residual(tau_x, W.truncate(degree), degree)
        words = [w for length in range(degree + 1)
                 for w in sdmoments._enumerate_canonical(n, length)]
    else:
        checked, rows = {}, []
        for w, v in zip(w_parts, v_parts):
            key = (w[1:].tobytes(), v[1:].tobytes())
            if key not in checked:
                checked[key] = _one_cut_deviations(v, w, degree)
            rows.append(checked[key][0])
        dev, resid = np.array(rows).T.ravel(), max(r for _, r in checked.values())
        words = [(i,) * length for length in range(degree + 1) for i in range(n)]
    # the first maximum wins, () when all agree
    k = int(np.argmax(dev))
    return {
        "max_moment_deviation": float(dev[k]),
        "worst_word": [i + 1 for i in words[k]],
        "sd_residual": resid,
        "degree": degree,
    }
