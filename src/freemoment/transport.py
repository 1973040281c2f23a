"""Fixed-point construction of noncommutative transport to a perturbed semicircle law.

Given an even self-adjoint perturbation W, find the even series V such that
when Y has the free Gibbs law of (1/2)|Y|^2 + V, the tuple Y + DV(Y) has the
free Gibbs law of (1/2)|X|^2 + W.  The inner iteration runs the cyclic
symmetrized Picard map on Vtilde with the trace frozen; the outer loop
refreshes the trace as the free Gibbs law of the current potential.
"""

from __future__ import annotations

import itertools
import json
import warnings

import numpy as np

from . import sdmoments
from .errors import ConvergenceError, InvalidInputError
from .ncseries import (
    MatrixTensor,
    NCSeries,
    TensorSeries,
    cyclic_gradient_vector,
    cyclic_symmetrize,
    difference_quotient,
    drop_constant,
    log_neumann,
    multiply,
    norm_A,
    norm_AB,
    number_op,
    number_op_inverse,
    substitute,
    trace_contract,
)

DEFAULT_A = 3.0
DEFAULT_R = 0.25
GUARANTEE_NORM_RADIUS = 17.0 / 4.0
GUARANTEE_MARGIN = 9.0 / 68.0


class TransportProblem:
    """Problem data for the transport fixed point."""

    def __init__(self, W, degree, a_radius=DEFAULT_A, ball_radius=DEFAULT_R,
                 cutoff=sdmoments.DEFAULT_CUTOFF, tol=1e-10, max_outer=40,
                 max_inner=200, tau_cap=None, verify_cap=None, warn_regime=True):
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
        self.a_radius = float(a_radius)
        self.ball_radius = float(ball_radius)
        self.cutoff = float(cutoff)
        self.tol = float(tol)
        self.max_outer = int(max_outer)
        self.max_inner = int(max_inner)
        self.tau_cap = int(tau_cap) if tau_cap is not None else self.degree + 4
        if verify_cap is None:
            # 1 variable is cheap enough for a deep table; more variables are not
            verify_cap = max(4 * self.degree, 40) if W.n_vars == 1 else self.degree + 10
        self.verify_cap = int(verify_cap)
        self.guaranteed = norm_A(self.W, GUARANTEE_NORM_RADIUS) < GUARANTEE_MARGIN * self.ball_radius
        if warn_regime and not self.guaranteed:
            warnings.warn("W is outside the guaranteed contraction regime; "
                          "results are labeled unverified", stacklevel=2)


class TransportSolution:
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
            "diagnostics": self.diagnostics,
        }

    def to_json(self, path=None):
        text = json.dumps(self.to_dict())
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_dict(cls, d):
        return cls(NCSeries.from_dict(d["V"]), NCSeries.from_dict(d["V_tilde"]),
                   sdmoments.TraceTable.from_dict(d["tau_Y"]),
                   [NCSeries.from_dict(c) for c in d["transport_map"]],
                   d.get("diagnostics", {}))


def _trace_log(jac, tau, cap):
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
    n = jac.n
    n_vars = jac.entries[0][0].n_vars
    unit = ((), ())
    m0 = np.array([[e.terms.get(unit, 0.0) for e in row] for row in jac.entries])
    inv = np.linalg.inv(np.eye(n) + m0)
    left = MatrixTensor([[TensorSeries(n_vars, cap, {unit: inv[i, j]}) for j in range(n)]
                         for i in range(n)])
    nil = MatrixTensor([[TensorSeries(n_vars, cap, {k: c for k, c in e.terms.items() if k != unit})
                         for e in row] for row in jac.entries])
    # K^(cap + 1) = 0, so the series ends by itself
    return trace_contract(log_neumann(left.matmul(nil), max(cap, 1)).trace(), tau, cap)


def picard_map(vtilde, W, tau, degree, tensor_cap=None):
    """One application of the symmetrized Picard map to Vtilde.

    Computes SPi[-W(Y + D Sigma Vtilde) + Sigma Vtilde - |D Sigma Vtilde|^2/2
    + (1 (x) tau + tau (x) 1) Tr log(1 + J D Sigma Vtilde)], truncated.

    The trace-log term is exact under the cap: the degree-0 part of the
    Jacobian is factored out (see ``_trace_log``), which relies on the final
    S o Pi projection applied here.
    """
    n = W.n_vars
    cap = tau.degree_cap if tensor_cap is None else tensor_cap
    if cap > tau.degree_cap:
        raise InvalidInputError("tensor cap exceeds the trace table cap")
    sv = number_op_inverse(drop_constant(vtilde)).truncate(cap)
    grads = cyclic_gradient_vector(sv)

    args = [NCSeries.variable(i, n, cap) + grads[i] for i in range(n)]
    term_w = substitute(W, args, cap) * -1.0

    term_sigma = sv

    term_grad2 = NCSeries.zero(n, cap)
    for g in grads:
        term_grad2 = term_grad2 + multiply(g, g, cap)
    term_grad2 = term_grad2 * -0.5

    jac = MatrixTensor([[difference_quotient(grads[i], j, cap) for j in range(n)]
                        for i in range(n)])
    term_log = _trace_log(jac, tau, cap)

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


def _variable_permutations(W):
    """Permutations of the variables that leave W invariant."""
    n = W.n_vars
    perms = []
    for perm in itertools.permutations(range(n)):
        mapped = {}
        for w, c in W.terms.items():
            mapped[tuple(perm[i] for i in w)] = mapped.get(tuple(perm[i] for i in w), 0.0) + c
        if all(abs(mapped.get(w, 0.0) - c) < 1e-14 for w, c in W.terms.items()) \
                and all(abs(c - W.terms.get(w, 0.0)) < 1e-14 for w, c in mapped.items()):
            perms.append(perm)
    return perms


def _symmetric_classes(W, degree, include_odd=False):
    """Orbit representatives of words under rotation, reversal, W's variable
    permutations, and W's sign-flip symmetries (flip-odd words are dropped)."""
    n = W.n_vars
    flips = sdmoments._variable_parities(W)
    perms = _variable_permutations(W)
    reps = []
    seen = set()
    for length in range(1, degree + 1):
        if length % 2 == 1 and not include_odd:
            continue
        for w in sdmoments._enumerate_canonical(n, length):
            if any(flips[i] and w.count(i) % 2 == 1 for i in range(n)):
                continue
            orbit_min = min(sdmoments.canonical_word(tuple(p[i] for i in w)) for p in perms)
            if orbit_min not in seen:
                seen.add(orbit_min)
                reps.append(orbit_min)
    return reps, perms


def _orbit_series(rep, perms, n, degree):
    """Series with coefficient 1 on every word of the full symmetry orbit of rep."""
    words = set()
    k = len(rep)
    for p in perms:
        w = tuple(p[i] for i in rep)
        for variant in (w, w[::-1]):
            for j in range(k):
                words.add(variant[j:] + variant[:j])
    return NCSeries(n, degree, {w: 1.0 for w in words})


def _refine_by_moment_matching(problem, v_init, tau_direct, verify_cap):
    """Gauss-Newton on the transport condition at the truncation scale.

    Unknowns are the symmetric even-word-class coefficients of V; residuals
    are the word-wise deviations between the pushforward of the V-law under
    Y + DV and the directly solved law for W.  The target trace is computed
    at the full verification cap; the V-side solves run at a cheaper cap
    (the V coefficients are small, so their truncation bias is negligible).
    """
    W = problem.W
    n = W.n_vars
    D = problem.degree
    eval_cap = verify_cap if n == 1 else min(verify_cap, D + 6)
    classes, perms = _symmetric_classes(W, D)
    basis = [_orbit_series(rep, perms, n, D) for rep in classes]
    targets = classes
    target_vals = np.array([tau_direct.value(w) for w in targets])
    support = frozenset(w for b in basis for w in b.terms)

    warm = {"tau": None}

    def assemble(c):
        V = NCSeries.zero(n, D)
        for coeff, b in zip(c, basis):
            V = V + b * float(coeff)
        return V

    def residual(c):
        V = assemble(c)
        try:
            tau_y = sdmoments.solve_sd(V.truncate(eval_cap), eval_cap,
                                       cutoff=problem.cutoff, init=warm["tau"],
                                       support_hint=support)
        except ConvergenceError:
            return None
        warm["tau"] = tau_y
        fmap = [NCSeries.variable(i, n, eval_cap) + g.truncate(eval_cap)
                for i, g in enumerate(cyclic_gradient_vector(V))]
        tau_x = sdmoments.pushforward_trace(tau_y, fmap, D)
        return np.array([tau_x.value(w) - t for w, t in zip(targets, target_vals)])

    c = np.array([v_init.coeff(rep) for rep in classes])
    r = residual(c)
    if r is None:
        c = np.zeros(len(classes))
        r = residual(c)
    if r is None:
        raise ConvergenceError("moment-matching refinement has no usable start")
    best = float(np.max(np.abs(r)))
    jac = None
    h = 1e-7
    for _ in range(15):
        if best < problem.tol * 10:
            break
        if jac is None:
            jac = np.empty((len(targets), len(classes)))
            for j in range(len(classes)):
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
                break
            scale *= 0.5
        if not improved:
            if fresh:
                break
            jac = None
            continue
        fresh = False
    return assemble(c), best


def _split_separable(W):
    """Single-variable components of W, or None if W has mixed words."""
    n = W.n_vars
    parts = [dict() for _ in range(n)]
    for w, c in W.terms.items():
        letters = set(w)
        if len(letters) != 1:
            return None
        parts[w[0]][len(w)] = c
    return parts


def _solve_separable(problem):
    """Exact reduction for separable W: each variable transports independently.

    The Picard map sends sums of single-variable series to sums of
    single-variable series and the free Gibbs law of a separable potential is
    the free product of the one-variable laws, so the n-variable solution is
    the sum of the one-variable solutions.
    """
    parts = _split_separable(problem.W)
    n = problem.W.n_vars
    D = problem.degree
    V = NCSeries.zero(n, D)
    diagnostics = {"separable": True, "components": []}
    solved = {}
    for i, part in enumerate(parts):
        key = tuple(sorted(part.items()))
        if key not in solved:
            if part:
                w1 = NCSeries(1, D, {tuple([0] * deg): c for deg, c in part.items()})
            else:
                w1 = NCSeries.zero(1, D)
            sub = TransportProblem(w1, D, a_radius=problem.a_radius,
                                   ball_radius=problem.ball_radius,
                                   cutoff=problem.cutoff, tol=problem.tol,
                                   max_outer=problem.max_outer,
                                   max_inner=problem.max_inner,
                                   warn_regime=False)
            solved[key] = solve_V(sub)
        sub_sol = solved[key]
        diagnostics["components"].append(sub_sol.diagnostics)
        for w, c in sub_sol.V.terms.items():
            V = V + NCSeries.monomial(tuple([i] * len(w)), c, n, D)
    tau = sdmoments.solve_sd(V.truncate(problem.tau_cap), problem.tau_cap,
                             cutoff=problem.cutoff)
    vtilde = cyclic_symmetrize(drop_constant(number_op(V)))
    v_norm = norm_A(V, problem.a_radius)
    transport_map = [NCSeries.variable(i, n, D) + g
                     for i, g in enumerate(cyclic_gradient_vector(V))]
    diagnostics.update({
        "v_norm_A": v_norm,
        "norm_bound_satisfied": bool(v_norm <= problem.ball_radius + 1e-12),
        "guaranteed_regime": problem.guaranteed,
    })
    return TransportSolution(V, vtilde, tau, transport_map, diagnostics)


def solve_V(problem):
    """Solve for the transport potential V.

    Inside the guaranteed contraction regime this is the plain outer/inner
    iteration: the outer loop refreshes the trace as the free Gibbs law of
    (1/2)|Y|^2 + V_k, the inner loop iterates the Picard map with the trace
    frozen.  Outside the regime the Picard pass (with automatic damping) is
    followed by a Gauss-Newton refinement that solves the transport condition
    directly at the truncation scale, because the hard-truncated Picard fixed
    point is no longer a faithful approximation there.  Separable W with more
    than one variable decouples exactly into one-variable problems.
    """
    W = problem.W
    if W.n_vars > 1 and not problem.guaranteed and _split_separable(W) is not None:
        return _solve_separable(problem)
    n = W.n_vars
    D = problem.degree
    A = problem.a_radius
    vtilde = NCSeries.zero(n, D)
    v_prev = NCSeries.zero(n, D)
    tau = None
    outer_changes = []
    tau_devs = []
    inner_counts = []
    converged = False
    damping = 1.0
    # outside the guaranteed regime the contraction argument fails; the Picard
    # pass is only a bounded-budget initializer for the refinement below
    max_outer = problem.max_outer if problem.guaranteed else min(problem.max_outer, 3)
    max_inner = problem.max_inner if problem.guaranteed else min(problem.max_inner, 12)
    for outer in range(max_outer):
        tau_new = sdmoments.solve_sd(v_prev.truncate(problem.tau_cap), problem.tau_cap,
                                     cutoff=problem.cutoff, tol=min(problem.tol, 1e-12),
                                     init=tau)
        if tau is not None:
            dev = max((abs((tau_new.value(w) or 0.0) - v) for w, v in tau.values.items()),
                      default=0.0)
            tau_devs.append(dev)
        tau = tau_new

        update = None
        grow_streak = 0
        inner_used = max_inner
        for inner in range(max_inner):
            f_val = picard_map(vtilde, W, tau, D, tensor_cap=problem.tau_cap)
            new = vtilde * (1.0 - damping) + f_val * damping
            delta = norm_A(new - vtilde, A)
            vtilde = new
            if update is not None and delta > update:
                grow_streak += 1
                if grow_streak >= 5:
                    if problem.guaranteed:
                        raise ConvergenceError("Picard iteration diverging")
                    damping *= 0.5
                    grow_streak = 0
            else:
                grow_streak = 0
            update = delta
            if delta < problem.tol * damping:
                inner_used = inner + 1
                break
        inner_counts.append(inner_used)

        v_new = number_op_inverse(drop_constant(vtilde))
        change = norm_A(v_new - v_prev, A)
        outer_changes.append(change)
        v_prev = v_new
        if change < problem.tol:
            converged = True
            break
    if problem.guaranteed and not converged:
        raise ConvergenceError("outer trace refresh did not converge")

    refine_residual = None
    if not problem.guaranteed:
        verify_cap = problem.verify_cap
        tau_direct = sdmoments.solve_sd(W.truncate(verify_cap), verify_cap,
                                        cutoff=problem.cutoff)
        v_prev, refine_residual = _refine_by_moment_matching(problem, v_prev,
                                                             tau_direct, verify_cap)
        vtilde = cyclic_symmetrize(drop_constant(number_op(v_prev)))

    tau = sdmoments.solve_sd(v_prev.truncate(problem.tau_cap), problem.tau_cap,
                             cutoff=problem.cutoff, init=tau)
    v_norm = norm_A(v_prev, A)
    transport_map = [NCSeries.variable(i, n, D) + g
                     for i, g in enumerate(cyclic_gradient_vector(v_prev))]
    diagnostics = {
        "outer_iterations": len(outer_changes),
        "inner_iterations": inner_counts,
        "outer_changes": outer_changes,
        "tau_refresh_deviation": tau_devs,
        "picard_damping": damping,
        "refinement_residual": refine_residual,
        "v_norm_A": v_norm,
        "norm_bound_satisfied": bool(v_norm <= problem.ball_radius + 1e-12),
        "guaranteed_regime": problem.guaranteed,
    }
    return TransportSolution(v_prev, vtilde, tau, transport_map, diagnostics)


def verify_transport(sol, W, degree, tau_cap=None, cutoff=sdmoments.DEFAULT_CUTOFF):
    """Independent verification of a transport solution.

    Pushes the solved law through the transport map and compares it, word by
    word up to ``degree``, with the law solved directly for W; also reports
    the Schwinger-Dyson residual of the pushed-forward trace.
    """
    n = W.n_vars
    if tau_cap is None:
        tau_cap = max(4 * degree, 40) if n == 1 else degree + 12
    cap = max(tau_cap, sol.tau_Y.degree_cap)
    tau_y = sdmoments.solve_sd(sol.V.truncate(cap), cap, cutoff=cutoff, init=sol.tau_Y)
    fmap = [c.truncate(cap) for c in sol.transport_map]
    tau_x = sdmoments.pushforward_trace(tau_y, fmap, degree)
    tau_direct = sdmoments.solve_sd(W.truncate(cap), cap, cutoff=cutoff)

    worst = 0.0
    worst_word = ()
    for w, v in tau_x.values.items():
        direct = tau_direct.value(w)
        dev = abs(v - (direct or 0.0))
        if dev > worst:
            worst, worst_word = dev, w
    resid = sdmoments.sd_residual(tau_x, W.truncate(degree), degree)
    return {
        "max_moment_deviation": worst,
        "worst_word": [i + 1 for i in worst_word],
        "sd_residual": resid,
        "degree": degree,
    }
