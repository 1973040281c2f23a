import warnings

import numpy as np
import pytest

from freemoment import gibbs1d as G
from freemoment import sdmoments as sd
from freemoment import transport as T
from freemoment.ncseries import (NCSeries, cyclic_gradient_vector, cyclic_symmetrize,
                                  drop_constant, jacobian, log_neumann, norm_A,
                                  number_op_inverse, trace_contract)
from freemoment.errors import InvalidInputError


def even_ball_sample(rng, n, degree, a_radius, ball_radius):
    """Random even self-adjoint series with norm_A at most ball_radius."""
    terms = {}
    for _ in range(int(rng.integers(2, 6))):
        k = 2 * int(rng.integers(1, degree // 2 + 1))
        w = tuple(rng.integers(0, n, size=k))
        terms[w] = rng.standard_normal()
    f = NCSeries(n, degree, terms)
    f = 0.5 * (f + NCSeries(n, degree, {w[::-1]: c for w, c in f.terms.items()}))
    f = cyclic_symmetrize(f)
    scale = rng.uniform(0.1, 1.0) * ball_radius / max(norm_A(f, a_radius), 1e-12)
    return f * scale


def quiet_problem(W, degree, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return T.TransportProblem(W, degree, **kw)


def test_problem_validation():
    with pytest.raises(InvalidInputError):
        T.TransportProblem(NCSeries(1, 6, {(0, 0, 0): 0.1}), 6)  # odd degree term
    with pytest.raises(InvalidInputError):
        T.TransportProblem(NCSeries(1, 6, {(): 0.5}), 6)  # constant term
    with pytest.raises(InvalidInputError):
        T.TransportProblem(NCSeries(2, 6, {(0, 1, 0, 1): 0.1}), 6)  # not self-adjoint
    with pytest.warns(UserWarning):
        T.TransportProblem(NCSeries(1, 6, {(0, 0, 0, 0): 0.05}), 6)


def test_picard_map_at_zero_is_zero():
    tau = sd.solve_sd(NCSeries.zero(1, 12), 12)
    out = T.picard_map(NCSeries.zero(1, 8), NCSeries.zero(1, 8), tau, 8)
    assert out.terms == {}


def test_picard_map_first_step_is_minus_w():
    tau = sd.solve_sd(NCSeries.zero(1, 12), 12)
    W = NCSeries(1, 8, {(0, 0, 0, 0): 0.05})
    out = T.picard_map(NCSeries.zero(1, 8), W, tau, 8)
    expect = cyclic_symmetrize(drop_constant(W * -1.0))
    assert out.terms == expect.terms


def test_picard_map_preserves_evenness():
    rng = np.random.default_rng(0)
    tau = sd.solve_sd(NCSeries.zero(2, 8), 8)
    for _ in range(25):
        v = even_ball_sample(rng, 2, 6, 3.0, 0.25)
        w = even_ball_sample(rng, 2, 6, 3.0, 0.1)
        out = T.picard_map(v, w, tau, 6, tensor_cap=8)
        assert out.odd_mass() == 0.0


def test_trace_log_matches_log_neumann_reference():
    # the off-diagonal quadratic part xy + yx makes the degree-0 Jacobian non-diagonal
    rng = np.random.default_rng(4)
    cap = 8
    tau = sd.solve_sd(NCSeries(2, cap, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02}), cap)
    quad = NCSeries(2, 6, {(0, 1): 0.1, (1, 0): 0.1, (0, 0): 0.05})
    for _ in range(2):
        vtilde = even_ball_sample(rng, 2, 6, 3.0, 0.25) + quad
        sv = number_op_inverse(drop_constant(vtilde)).truncate(cap)
        jac = jacobian(cyclic_gradient_vector(sv), cap)
        assert jac.entries[0][1].terms.get(((), ()), 0.0) != 0.0
        got = cyclic_symmetrize(drop_constant(T._trace_log(jac, tau, cap)))
        ref = cyclic_symmetrize(drop_constant(
            trace_contract(log_neumann(jac, 40).trace(), tau, cap)))
        diff = got - ref
        assert got.degree() >= 4
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-12


def test_lipschitz_bound_reference_value():
    val = T.lipschitz_bound(NCSeries.zero(1, 8), 3.0, 0.25)
    assert abs(val - 59.0 / 68.0) < 1e-15


def test_lipschitz_bound_limits_and_guard():
    assert abs(T.lipschitz_bound(NCSeries.zero(1, 8), 100.0, 1e-9) - 0.5) < 1e-6
    with pytest.raises(InvalidInputError):
        T.lipschitz_bound(NCSeries.zero(1, 8), 1.0, 0.5)  # A^2 <= 2R
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = even_ball_sample(rng, 2, 6, 3.0, 0.2)
        bound = T.lipschitz_bound(w, 3.0, 0.25)
        upper = norm_A(w, 3.0 + 0.25 + 1.0) + 0.5 + 0.25 + 1.0 / 8.5
        assert bound <= upper + 1e-10


def test_empirical_contraction_within_bound():
    rng = np.random.default_rng(2)
    tau = sd.solve_sd(NCSeries.zero(2, 8), 8)
    bound = T.lipschitz_bound(NCSeries.zero(2, 6), 3.0, 0.25)
    W0 = NCSeries.zero(2, 6)
    for _ in range(20):
        v1 = even_ball_sample(rng, 2, 6, 3.0, 0.25)
        v2 = even_ball_sample(rng, 2, 6, 3.0, 0.25)
        f1 = T.picard_map(v1, W0, tau, 6, tensor_cap=8)
        f2 = T.picard_map(v2, W0, tau, 6, tensor_cap=8)
        num = norm_A(f1 - f2, 3.0)
        den = norm_A(v1 - v2, 3.0)
        assert num <= bound * den + 1e-12


def test_picard_norm_bound():
    rng = np.random.default_rng(3)
    tau = sd.solve_sd(NCSeries.zero(2, 8), 8)
    a, r = 3.0, 0.25
    factor = 0.5 + r + 4 * r / (a * a - 2 * r)
    for _ in range(20):
        w = even_ball_sample(rng, 2, 6, a, 0.05)
        v = even_ball_sample(rng, 2, 6, a, r)
        out = T.picard_map(v, w, tau, 6, tensor_cap=8)
        assert norm_A(out, a) <= norm_A(w, a + r) + norm_A(v, a) * factor + 1e-10


def test_solve_zero_perturbation():
    prob = quiet_problem(NCSeries.zero(1, 8), 8)
    sol = T.solve_V(prob)
    assert sol.V.terms == {}
    assert sol.diagnostics["guaranteed_regime"]


def test_solve_guaranteed_regime_small_w():
    w_val = 0.5 * T.GUARANTEE_MARGIN * T.DEFAULT_R / T.GUARANTEE_NORM_RADIUS ** 4
    W = NCSeries(1, 8, {(0, 0, 0, 0): w_val})
    prob = T.TransportProblem(W, 8)
    assert prob.guaranteed
    sol = T.solve_V(prob)
    assert sol.diagnostics["norm_bound_satisfied"]
    rep = T.verify_transport(sol, W, 6)
    assert rep["max_moment_deviation"] < 1e-8


def test_solution_invariants_quartic():
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(quiet_problem(W, 10))
    assert sol.V.is_even()
    assert sol.V.is_selfadjoint(tol=1e-12)
    # V lies in the range of the cyclic symmetrizer
    diff = cyclic_symmetrize(drop_constant(sol.V)) - sol.V
    assert all(abs(c) < 1e-12 for c in diff.terms.values())
    # Vtilde = S Pi N V
    from freemoment.ncseries import number_op
    vt = cyclic_symmetrize(drop_constant(number_op(sol.V)))
    d2 = vt - sol.V_tilde
    assert all(abs(c) < 1e-12 for c in d2.terms.values())


def test_cyclic_derivative_of_bracket_vanishes_at_fixed_point():
    # at the converged potential, the cyclic gradient of
    # W(Y+DV) + (N-1)V + |DV|^2/2 - (1xTau+Taux1) Tr log(1+J DV) vanishes
    w_val = 0.5 * T.GUARANTEE_MARGIN * T.DEFAULT_R / T.GUARANTEE_NORM_RADIUS ** 4
    W = NCSeries(1, 8, {(0, 0, 0, 0): w_val})
    prob = T.TransportProblem(W, 8)
    sol = T.solve_V(prob)
    cap = prob.tau_cap
    from freemoment.ncseries import (MatrixTensor, NCSeries as NCS, cyclic_gradient,
                                     cyclic_gradient_vector, difference_quotient,
                                     log_neumann, multiply, number_op, substitute,
                                     trace_contract)
    V = sol.V
    dv = [g.truncate(cap) for g in cyclic_gradient_vector(V)]
    args = [NCS.variable(i, 1, cap) + dv[i] for i in range(1)]
    bracket = substitute(W, args, cap) + (number_op(V) - V)
    sq = NCS.zero(1, cap)
    for g in dv:
        sq = sq + multiply(g, g, cap)
    bracket = bracket + sq * 0.5
    jac = MatrixTensor([[difference_quotient(dv[i], j, cap) for j in range(1)]
                        for i in range(1)])
    bracket = bracket - trace_contract(log_neumann(jac, 12).trace(), sol.tau_Y, cap)
    resid = cyclic_gradient(bracket.truncate(8), 0)
    assert norm_A(resid, 3.0) < 1e-8


def test_end_to_end_matches_1d_oracle():
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(quiet_problem(W, 10))
    tau_y = sd.solve_sd(sol.V.truncate(44), 44)
    tau_x = sd.pushforward_trace(tau_y, [c.truncate(44) for c in sol.transport_map], 6)
    oracle = G.free_gibbs_measure(G.EvenPotential([0.5, 0.05]))
    for k in (2, 4, 6):
        assert abs(tau_x.value(tuple([0] * k)) - oracle.moment(k)) < 1e-3


def test_verify_transport_detects_truncated_v():
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(quiet_problem(W, 10))
    crippled = NCSeries(1, 10, {w: c for w, c in sol.V.terms.items() if len(w) <= 2})
    from freemoment.ncseries import cyclic_gradient_vector, NCSeries as NCS
    bad = T.TransportSolution(
        crippled, sol.V_tilde, sol.tau_Y,
        [NCS.variable(0, 1, 10) + g for g in cyclic_gradient_vector(crippled)],
        sol.diagnostics)
    rep = T.verify_transport(bad, W, 6)
    assert rep["max_moment_deviation"] >= 1e-2


def test_separable_two_variable_solution():
    W = NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02})
    sol = T.solve_V(quiet_problem(W, 8))
    assert sol.diagnostics.get("separable")
    # components agree across the exchange symmetry
    assert abs(sol.V.coeff((0, 0)) - sol.V.coeff((1, 1))) < 1e-14
    rep = T.verify_transport(sol, W, 6)
    assert rep["max_moment_deviation"] < 1e-3
    assert rep["sd_residual"] < 1e-3


def test_nonseparable_mixed_term_solution():
    # small mixed perturbation exercises the general refinement path
    W = NCSeries(2, 4, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01}) \
        + 0.01 * cyclic_symmetrize(NCSeries.monomial((0, 1, 0, 1), 1.0, 2, 4))
    sol = T.solve_V(quiet_problem(W, 4))
    rep = T.verify_transport(sol, W, 4)
    assert rep["max_moment_deviation"] < 1e-3
    assert rep["sd_residual"] < 1e-3


def test_solution_json_roundtrip():
    W = NCSeries(1, 8, {(0, 0, 0, 0): 0.01})
    sol = T.solve_V(quiet_problem(W, 8))
    back = T.TransportSolution.from_dict(sol.to_dict())
    assert back.V.terms == sol.V.terms
    assert back.tau_Y.value((0, 0)) == sol.tau_Y.value((0, 0))
