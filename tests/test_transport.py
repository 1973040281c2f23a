import itertools
import json
import warnings

import numpy as np
import pytest

from freemoment import gibbs1d as G
from freemoment import moment1d
from freemoment import sdmoments as sd
from freemoment import transport as T
from freemoment.ncseries import (NCSeries, _digits, _positions, _ranks, _recode, _series,
                                  cyclic_gradient, cyclic_symmetrize,
                                  drop_constant, jacobian, multiply, norm_A, number_op,
                                  number_op_inverse, substitute)
from freemoment.errors import ConvergenceError, InvalidInputError


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


def test_problem_validation():
    with pytest.raises(InvalidInputError):
        T.TransportProblem(NCSeries(1, 6, {(0, 0, 0): 0.1}), 6)  # odd degree term
    with pytest.raises(InvalidInputError):
        T.TransportProblem(NCSeries(1, 6, {(): 0.5}), 6)  # constant term
    with pytest.raises(InvalidInputError):
        T.TransportProblem(NCSeries(2, 6, {(0, 1, 0, 1): 0.1}), 6)  # not self-adjoint
    with pytest.raises(InvalidInputError, match="degree must be at least"):
        T.TransportProblem(NCSeries(2, 4, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02}), 2)
    assert not T.TransportProblem(NCSeries(1, 6, {(0, 0, 0, 0): 0.05}), 6).guaranteed
    # C13 lies outside the guaranteed regime too, and building it warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not T.TransportProblem(NCSeries(1, 10, {(0, 0, 0, 0): 0.05}), 10).guaranteed


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
        out = T.picard_map(v, w, tau, 6)
        assert out.is_even()


def reference_trace_log(jac, tau, order):
    """(1 (x) tau + tau (x) 1) Tr log(1 + jac) from the log series truncated at
    ``order``, on matrices of dicts keyed by (left word, right word), with no
    degree-0 factoring."""
    n, cap = tau.n_vars, tau.degree_cap
    m = [[{} for _ in range(n)] for _ in range(n)]
    for (l, r), blk in jac.items():
        left = list(itertools.product(range(n), repeat=l))
        right = list(itertools.product(range(n), repeat=r))
        for i, j, a, b in zip(*np.nonzero(blk)):
            m[i][j][(left[a], right[b])] = blk[i, j, a, b]

    def matmul(x, y):
        out = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, k in itertools.product(range(n), repeat=3):
            for (la, ra), ca in x[i][k].items():
                for (lb, rb), cb in y[k][j].items():
                    if len(la) + len(ra) + len(lb) + len(rb) <= cap:
                        key = (la + lb, rb + ra)
                        out[i][j][key] = out[i][j].get(key, 0.0) + ca * cb
        return out

    acc = {}
    power = m
    for p in range(1, order + 1):
        if p > 1:
            power = matmul(power, m)
        for i in range(n):
            for key, c in power[i][i].items():
                acc[key] = acc.get(key, 0.0) + (-1.0) ** (p + 1) / p * c
    terms = {}
    for (wl, wr), c in acc.items():
        terms[wr] = terms.get(wr, 0.0) + c * tau.value(wl)
        terms[wl] = terms.get(wl, 0.0) + c * tau.value(wr)
    return NCSeries(n, cap, terms)


@pytest.mark.parametrize("n, cap, degree", [(1, 8, 6), (2, 8, 6), (3, 6, 4)])
def test_trace_log_matches_pair_loop_reference(n, cap, degree):
    # the quadratic part with its xy + yx words makes the degree-0 Jacobian
    # non-diagonal; the log series of the reference needs no factoring of it
    rng = np.random.default_rng(4)
    W = NCSeries(n, cap, {(i,) * 4: 0.02 for i in range(n)})
    tau = sd.solve_sd(W, cap)
    quad = NCSeries(n, degree, {(0, 0): 0.02})
    for i in range(1, n):
        quad = quad + NCSeries(n, degree, {(0, i): 0.03, (i, 0): 0.03})
    for _ in range(2):
        # higher-degree words at unit radius, so that every power of K counts
        v = even_ball_sample(rng, n, degree, 1.0, 0.25)
        vtilde = NCSeries(n, degree, {w: c for w, c in v.terms.items() if len(w) > 2}) + quad
        sv = number_op_inverse(drop_constant(vtilde)).truncate(cap)
        jac = jacobian([cyclic_gradient(sv, i) for i in range(n)])
        m0 = jac[(0, 0)][:, :, 0, 0]
        if n > 1:
            assert m0[0, 1] != 0.0
        got = cyclic_symmetrize(drop_constant(T._trace_log(jac, tau)))
        ref = cyclic_symmetrize(drop_constant(reference_trace_log(jac, tau, 12)))
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
        f1 = T.picard_map(v1, W0, tau, 6)
        f2 = T.picard_map(v2, W0, tau, 6)
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
        out = T.picard_map(v, w, tau, 6)
        assert norm_A(out, a) <= norm_A(w, a + r) + norm_A(v, a) * factor + 1e-10


def test_picard_map_three_variables():
    rng = np.random.default_rng(5)
    tau = sd.solve_sd(NCSeries.zero(3, 6), 6)
    W0 = NCSeries.zero(3, 4)
    bound = T.lipschitz_bound(W0, 3.0, 0.25)
    for _ in range(10):
        v1 = even_ball_sample(rng, 3, 4, 3.0, 0.25)
        v2 = even_ball_sample(rng, 3, 4, 3.0, 0.25)
        w = even_ball_sample(rng, 3, 4, 3.0, 0.1)
        assert T.picard_map(v1, w, tau, 4).is_even()
        f1 = T.picard_map(v1, W0, tau, 4)
        f2 = T.picard_map(v2, W0, tau, 4)
        assert norm_A(f1 - f2, 3.0) <= bound * norm_A(v1 - v2, 3.0) + 1e-12


def test_solve_zero_perturbation():
    prob = T.TransportProblem(NCSeries.zero(1, 8), 8)
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
    sol = T.solve_V(T.TransportProblem(W, 10))
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
    V = sol.V
    # the law of Y at cap D + 4
    cap = 12
    tau = sd.solve_sd(V.truncate(cap), cap)
    dv = [cyclic_gradient(V, 0).truncate(cap)]
    args = [NCSeries.variable(i, 1, cap) + dv[i] for i in range(1)]
    bracket = substitute(W, args, cap) + (number_op(V) - V)
    sq = NCSeries.zero(1, cap)
    for g in dv:
        sq = sq + multiply(g, g, cap)
    bracket = bracket + sq * 0.5
    # the cyclic gradient does not see the constant and the commutators that
    # _trace_log leaves out
    bracket = bracket - T._trace_log(jacobian(dv), tau)
    resid = cyclic_gradient(bracket.truncate(8), 0)
    assert norm_A(resid, 3.0) < 1e-8


def test_end_to_end_matches_1d_oracle():
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 10))
    tau_y = sd.solve_sd(sol.V.truncate(44), 44)
    tau_x = sd.pushforward_trace(tau_y, [c.truncate(44) for c in sol.transport_map], 6)
    oracle = G.free_gibbs_measure(G.EvenPotential([0.5, 0.05]))
    for k in (2, 4, 6):
        assert abs(tau_x.value(tuple([0] * k)) - oracle.moment(k)) < 1e-3


def test_verify_transport_detects_truncated_v():
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 10))
    crippled = NCSeries(1, 10, {w: c for w, c in sol.V.terms.items() if len(w) <= 2})
    bad = T.TransportSolution(crippled, sol.diagnostics)
    rep = T.verify_transport(bad, W, 6)
    assert rep["max_moment_deviation"] >= 1e-2


def test_verify_transport_reads_v_not_the_stored_map():
    W = NCSeries(1, 6, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 6))
    d = json.loads(json.dumps(sol.to_dict()))
    d["transport_map"] = [NCSeries.variable(0, 1, 6).to_dict()]
    back = T.TransportSolution.from_dict(d)
    assert T.verify_transport(back, W, 6) == T.verify_transport(sol, W, 6)
    assert back.to_dict() == json.loads(json.dumps(sol.to_dict()))


def test_verify_transport_rejects_w_in_other_variables():
    # the other way round (an n=2 solution against an n=1 W) the separable check
    # would read the solution's first variable alone; the same check stops it first
    sol = T.solve_V(T.TransportProblem(NCSeries(1, 4, {(0,) * 4: 0.01}), 4))
    W2 = NCSeries(2, 4, {(0,) * 4: 0.01, (1,) * 4: 0.01})
    with pytest.raises(InvalidInputError):
        T.verify_transport(sol, W2, 4)


def test_separable_two_variable_solution():
    W = NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02})
    sol = T.solve_V(T.TransportProblem(W, 8))
    assert sol.diagnostics.get("separable")
    # components agree across the exchange symmetry
    assert abs(sol.V.coeff((0, 0)) - sol.V.coeff((1, 1))) < 1e-14
    rep = T.verify_transport(sol, W, 6)
    assert rep["max_moment_deviation"] < 1e-3
    assert rep["sd_residual"] < 1e-3


def test_split_diagonal_takes_a_constant_term():
    parts, mixed = T._split_diagonal(NCSeries(2, 4, {(): 0.3, (0, 0): 0.1, (1, 1): 0.2}), 4)
    assert not mixed
    assert np.array_equal(parts, [[0.3, 0.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.2, 0.0, 0.0]])
    parts, mixed = T._split_diagonal(NCSeries(2, 4, {(): 0.3, (0, 1, 0, 1): 0.1}), 4)
    assert mixed
    # a V read from a file may carry a constant, which moves neither law
    W, sol = c14()
    shifted = T.TransportSolution(sol.V + NCSeries.constant(0.3, 2, 8), {})
    assert T.verify_transport(shifted, W, 6) == T.verify_transport(sol, W, 6)


def c14():
    W = NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02})
    return W, T.solve_V(T.TransportProblem(W, 8))


def counting_solve_sd(monkeypatch):
    """Patch solve_sd to record the number of variables of each call."""
    seen = []
    solve_sd = sd.solve_sd

    def counted(W, *args, **kwargs):
        seen.append(W.n_vars)
        return solve_sd(W, *args, **kwargs)

    monkeypatch.setattr(sd, "solve_sd", counted)
    return seen


def counting_one_cut_law(monkeypatch):
    """Patch _one_cut_law to record the even coefficients of each call."""
    laws = []
    one_cut_law = T._one_cut_law

    def counted(even, degree):
        laws.append(tuple(even))
        return one_cut_law(even, degree)

    monkeypatch.setattr(T, "_one_cut_law", counted)
    return laws


def test_separable_check_is_exact_at_full_degree_in_one_variable(monkeypatch):
    W, sol = c14()
    seen = counting_solve_sd(monkeypatch)
    laws = counting_one_cut_law(monkeypatch)
    rep = T.verify_transport(sol, W, 8)
    # the n=2 check at cap 20 read 2.67e-3 here, its truncation error
    assert rep["max_moment_deviation"] <= 1e-12 and rep["sd_residual"] <= 1e-12
    assert rep["degree"] == 8
    # the two variables share one pair (W_i, V_i): one one-cut law of V_i and
    # one of W_i, and no Schwinger-Dyson table
    assert seen == []
    assert laws == [tuple(sol.V.coeff((0,) * k) for k in (2, 4, 6, 8)), (0.0, 0.02, 0.0, 0.0)]


def test_separable_check_reports_the_worse_variable():
    # a known deviation: 1e-6 added to one variable's x^4 coefficient of a
    # solved V, so that which variable is worse is not decided at round-off
    W = NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.03})
    V = T.solve_V(T.TransportProblem(W, 8)).V
    for i in range(2):
        moved = V + NCSeries(2, 8, {(i,) * 4: 1e-6})
        rep = T.verify_transport(T.TransportSolution(moved, {}), W, 8)
        alone = []
        for v, w in zip(T._split_diagonal(moved, 8)[0], T._split_diagonal(W, 8)[0]):
            V1, W1 = (NCSeries(1, 8, {(0,) * L: c for L, c in enumerate(p) if c}) for p in (v, w))
            alone.append(T.verify_transport(T.TransportSolution(V1, {}), W1, 8))
        assert alone[1 - i]["max_moment_deviation"] <= 1e-12
        assert rep["max_moment_deviation"] == alone[i]["max_moment_deviation"] > 1e-8
        assert rep["worst_word"] == [i + 1] * len(alone[i]["worst_word"])
        assert rep["sd_residual"] == max(r["sd_residual"] for r in alone)


def test_mixed_word_in_v_takes_the_joint_check(monkeypatch):
    W, sol = c14()
    V = sol.V + NCSeries(2, 8, {(0, 1, 0, 1): 1e-3, (1, 0, 1, 0): 1e-3})
    seen = counting_solve_sd(monkeypatch)
    rep = T.verify_transport(T.TransportSolution(V, {}), W, 4)
    assert seen == [2, 2]
    assert rep["max_moment_deviation"] >= 1e-2 and rep["worst_word"] == [1, 2, 1, 2]


def test_separable_check_does_not_depend_on_its_quadrature():
    # U's coefficients zero-padded give a larger theta-Gauss rule, and the
    # same moments of U'(y) under U's law and of x under that of x^2/2 + W
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 10))
    powers = np.arange(11)[:, None]
    for even, f in ((T._split_diagonal(sol.V, 10)[0][0, 2::2], G._even_deriv),
                    ((0.0, 0.05, 0.0, 0.0, 0.0), lambda u, y: y)):
        moments = []
        for degree in (10, 40):
            u, y, weights = T._one_cut_law(even, degree)
            assert len(u) == degree // 2
            moments.append(f(u, y) ** powers @ weights)
        assert np.max(np.abs(moments[1] - moments[0])) <= 1e-12
    assert T._one_cut_law(even, 10)[1].size < T._one_cut_law(even, 40)[1].size
    assert T.verify_transport(sol, W, 10)["max_moment_deviation"] <= 1e-12


def test_odd_diagonal_word_takes_the_joint_check(monkeypatch):
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 10))
    odd = NCSeries(1, 10, {(0, 0, 0): 1e-3})
    seen = counting_solve_sd(monkeypatch)
    laws = counting_one_cut_law(monkeypatch)
    for V, W_ in ((sol.V + odd, W), (sol.V, W + odd)):
        seen.clear()
        rep = T.verify_transport(T.TransportSolution(V, {}), W_, 4)
        # the law of V and that of W, solved at cap degree + 12
        assert seen == [1, 1] and laws == []
        assert rep["max_moment_deviation"] >= 1e-3 and rep["worst_word"] == [1, 1, 1]


def test_separable_check_catches_a_truncated_v():
    W, sol = c14()
    bad = T.TransportSolution(sol.V.truncate(6), {})
    assert T.verify_transport(bad, W, 6)["max_moment_deviation"] >= 1e-2


def test_three_variable_separable_check_runs_one_pair(monkeypatch):
    W = NCSeries(3, 4, {(i,) * 4: 0.01 for i in range(3)})
    sol = T.solve_V(T.TransportProblem(W, 4))
    seen = counting_solve_sd(monkeypatch)
    laws = counting_one_cut_law(monkeypatch)
    rep = T.verify_transport(sol, W, 4)
    assert seen == []
    assert laws == [(sol.V.coeff((0, 0)), sol.V.coeff((0,) * 4)), (0.0, 0.01)]
    assert rep["max_moment_deviation"] <= 1e-8


def test_joint_laws_of_a_separable_solution_agree_with_its_marginals():
    # the n=2 Schwinger-Dyson and pushforward tables of C14, against each
    # other on every word, mixed ones included, and against one-variable
    # tables at cap 40 on the one-letter words
    W, sol = c14()
    joint = {}
    V_x = NCSeries(1, 8, {w: c for w, c in sol.V.terms.items() if set(w) == {0}})
    for n, V, W_, cap in ((2, sol.V, W, 16), (1, V_x, NCSeries(1, 8, {(0, 0, 0, 0): 0.02}), 40)):
        tau_y = sd.solve_sd(V.truncate(cap), cap)
        pushed = sd.pushforward_trace(tau_y, pushed_map(V, cap), 4)
        joint[n] = pushed, sd.solve_sd(W_.truncate(cap), cap)
    pushed, direct = joint[2]
    dev = [np.abs(a - b).max() for a, b in zip(pushed.values, direct.values)]
    assert max(dev) <= 1e-4
    # a free product of centered laws: tau(xxyy) = tau(xx) tau(yy), tau(xyxy) = 0
    m2 = joint[1][0].value((0, 0))
    assert abs(pushed.value((0, 0, 1, 1)) - m2 ** 2) <= 1e-4
    assert abs(pushed.value((0, 1, 0, 1))) <= 1e-4
    for length in range(5):
        for i in range(2):
            for table, one in zip(joint[2], joint[1]):
                assert abs(table.value((i,) * length) - one.value((0,) * length)) <= 1e-4


def test_nonseparable_mixed_term_solution(monkeypatch):
    # a mixed perturbation takes the general refinement path, in either regime,
    # and no Picard step
    def no_picard(*args, **kwargs):
        raise AssertionError("picard_map called by solve_V")

    picard = T.picard_map
    monkeypatch.setattr(T, "picard_map", no_picard)
    for diag, mixed, guaranteed, bound in ((0.01, 0.01, False, 1e-3), (1e-5, 1e-5, True, 1e-9)):
        W = NCSeries(2, 4, {(0, 0, 0, 0): diag, (1, 1, 1, 1): diag}) \
            + mixed * cyclic_symmetrize(NCSeries.monomial((0, 1, 0, 1), 1.0, 2, 4))
        sol = T.solve_V(T.TransportProblem(W, 4))
        assert sol.diagnostics["converged"]
        assert sol.diagnostics["guaranteed_regime"] == guaranteed
        rep = T.verify_transport(sol, W, 4)
        assert rep["max_moment_deviation"] < bound
        assert rep["sd_residual"] < 1e-3
        stages = sol.diagnostics["stage_seconds"]
        assert stages.keys() == {"start", "refinement"}
        assert min(stages.values()) >= 0.0
        assert sum(stages.values()) <= sol.diagnostics["seconds"]
        assert "stage_seconds" not in json.dumps(sol.to_dict())
    # the guaranteed-regime solution is, to the truncation, a fixed point of
    # the paper's map
    step = picard(sol.V_tilde, W, sd.solve_sd(sol.V.truncate(8), 8), 4) - sol.V_tilde
    assert norm_A(step, T.DEFAULT_A) <= 1e-5


def test_mixed_w_at_degree_6_converges_with_one_sd_cap(monkeypatch):
    # V-laws solved below the target law's cap leave a residual floor that
    # the Gauss-Newton fits V to: here 7.7e-4 after 151 solve_sd calls
    calls = []
    solve_sd = sd.solve_sd

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_sd(*args, **kwargs)

    monkeypatch.setattr(sd, "solve_sd", counted)
    W = NCSeries(2, 6, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01,
                        (0, 1, 0, 1): 0.005, (1, 0, 1, 0): 0.005})
    problem = T.TransportProblem(W, 6)
    sol = T.solve_V(problem)
    assert sol.diagnostics["converged"] and sol.diagnostics["residual"] <= 1e-9
    assert len(calls) <= 40 and set(calls) == {problem.sd_cap}
    assert T.verify_transport(sol, W, 6)["max_moment_deviation"] <= 1e-5


def test_mixed_w_starts_from_its_diagonal_part(monkeypatch):
    calls = []
    one_variable = T._solve_one_variable

    def counted(w, degree, tol):
        calls.append(w)
        return one_variable(w, degree, tol)

    monkeypatch.setattr(T, "_solve_one_variable", counted)
    W = NCSeries(2, 4, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.02}) \
        + 0.01 * cyclic_symmetrize(NCSeries.monomial((0, 1, 0, 1), 1.0, 2, 4))
    sol = T.solve_V(T.TransportProblem(W, 4))
    assert calls == [(0.0, 0.01), (0.0, 0.02)]
    assert sol.diagnostics["converged"] and "separable" not in sol.diagnostics
    assert T.verify_transport(sol, W, 4)["max_moment_deviation"] < 1e-3


def test_mixed_word_alone_converges_from_zero():
    W = 0.01 * cyclic_symmetrize(NCSeries.monomial((0, 1, 0, 1), 1.0, 2, 4))
    assert not T._split_diagonal(W, 4)[0].any()
    sol = T.solve_V(T.TransportProblem(W, 4))
    assert sol.diagnostics["converged"]
    assert T.verify_transport(sol, W, 4)["max_moment_deviation"] < 1e-3


def test_mixed_w_without_one_cut_diagonal_part_starts_from_zero(monkeypatch):
    starts = []
    refine = T._refine_by_moment_matching

    def spy(problem, start, t0):
        starts.append(start)
        return refine(problem, start, t0)

    monkeypatch.setattr(T, "_refine_by_moment_matching", spy)
    W = NCSeries(2, 4, {(0, 0, 0, 0): -0.05, (1, 1, 1, 1): -0.05}) \
        + 0.05 * cyclic_symmetrize(NCSeries.monomial((0, 0, 1, 1), 1.0, 2, 4))
    with pytest.raises(InvalidInputError):
        T._solve_one_variable((0.0, -0.05), 4, 1e-10)
    with pytest.raises(ConvergenceError, match="cutoff bound persistently active"):
        T.solve_V(T.TransportProblem(W, 4))
    assert len(starts) == 1 and starts[0].terms == {}


def test_newton_halves_a_step_past_where_the_residual_is_undefined():
    # from c = 10 the full step of log(c) = 0 lands at c = -13
    seen = []

    def residual(c):
        seen.append(c[0])
        return None if c[0] <= 0.0 else np.log(c)

    c, r, steps = T._newton(residual, lambda c, r: np.diag(1.0 / c), np.array([10.0]), 1e-10, 50)
    assert min(seen) < 0.0
    assert np.max(np.abs(r)) <= 1e-10 and abs(c[0] - 1.0) < 1e-9 and steps < 50


def test_newton_builds_the_supplied_jacobian_once_while_steps_succeed():
    # c^3 = 8 from c = 3: the chord of the first Jacobian converges alone
    built = []

    def jacobian(c, r):
        built.append((c.copy(), r.copy()))
        return np.diag(3.0 * c ** 2)

    c, r, steps = T._newton(lambda c: c ** 3 - 8.0, jacobian, np.array([3.0]), 1e-12, 50)
    assert abs(c[0] - 2.0) < 1e-12 and np.abs(r).max() <= 1e-12 and steps > 2
    # built once, at the start, from the residual already in hand
    assert len(built) == 1 and built[0][0] == 3.0 and built[0][1] == 19.0
    # a fresh Jacobian pointing the wrong way fails its first step and stops
    # the solve where it started
    built.clear()
    c, r, steps = T._newton(lambda c: c ** 3 - 8.0, lambda c, r: built.append(c) or -np.eye(1),
                            np.array([3.0]), 1e-12, 50)
    assert steps == 0 and c[0] == 3.0 and r[0] == 19.0 and len(built) == 1
    # no Jacobian: no step
    assert T._newton(lambda c: c - 1.0, lambda c, r: None, np.array([3.0]), 1e-12, 50)[2] == 0


def _c13_u():
    sol = T.solve_V(T.TransportProblem(NCSeries(1, 10, {(0, 0, 0, 0): 0.05}), 10))
    return [0.5 + sol.V.coeff((0, 0))] + [sol.V.coeff((0,) * k) for k in range(4, 11, 2)]


MOMENT_MAP_CASES = pytest.mark.parametrize("coeffs", [
    _c13_u, lambda: [0.5, 1.0, 0.0, 0.0, 0.0], lambda: [0.5, -0.02],
    lambda: [0.6, 0.1, -0.01, 0.002, 3e-4],
], ids=["c13", "strong-quartic-d10", "non-confining-d4", "five-terms"])


@MOMENT_MAP_CASES
def test_moment_map_is_the_moments_of_the_free_gibbs_law(coeffs):
    # the integrals of U'^2k by the theta-Gauss rule of free_gibbs_measure's
    # solution, U' summed term by term at its nodes.  EvenPotential refuses
    # the non-confining top coefficient, which the one-cut law allows
    u = np.array(coeffs())
    potential = object.__new__(G.EvenPotential)
    potential.even_coeffs = tuple(u.tolist())
    sol = G.free_gibbs_measure(potential)
    expected = [sol._theta_integral(lambda x: potential.deriv(x) ** (2 * k))
                for k in range(1, len(u) + 1)]
    assert np.allclose(G._moment_map(u), expected, rtol=1e-14, atol=0.0)


def test_moment_map_solves_one_law_for_moments_and_jacobian(monkeypatch):
    calls = []
    for name in ("_float_radius", "_one_cut"):
        monkeypatch.setattr(G, name, lambda *args, f=getattr(G, name), name=name:
                            calls.append(name) or f(*args))
    G._moment_map(np.array([0.6, 0.1, -0.01, 0.002, 3e-4]), jac=True)
    assert calls == ["_float_radius", "_one_cut"]


def test_c13_one_variable_solve_stops_its_early_stages_at_sqrt_tol(monkeypatch):
    # each stage D' < D stops at sqrt(tol), the last at 1e-3 tol: 12 steps and
    # 22 evaluations of the moment map, where stopping every stage at 1e-3
    # tol took 26 and 36
    calls = []
    moment_map = G._moment_map
    monkeypatch.setattr(G, "_moment_map",
                        lambda c, jac=False: calls.append(jac) or moment_map(c, jac))
    sol = T.solve_V(T.TransportProblem(NCSeries(1, 10, {(0, 0, 0, 0): 0.05}), 10))
    diag = sol.diagnostics
    assert diag["converged"] and diag["residual"] <= 1e-12
    assert diag["iterations"] <= 14 and len(calls) <= 24


@MOMENT_MAP_CASES
def test_moment_map_jacobian_matches_central_differences(coeffs):
    u = np.array(coeffs())
    moments, jac = G._moment_map(u, jac=True)
    assert np.array_equal(moments, G._moment_map(u))
    # a step of 1e-5 on the scale r^-2j at which c_2j y^2j is of order one
    # on the support
    r = G._float_radius(u)
    h = 1e-5 * (np.abs(u) + r ** -np.arange(2.0, 2 * len(u) + 1, 2))
    diff = np.column_stack([(G._moment_map(u + e) - G._moment_map(u - e)) / (2 * hj)
                            for e, hj in zip(np.diag(h), h)])
    assert np.abs(jac - diff).max() <= 1e-6 * np.abs(diff).max()


def test_quartic_sweep_matches_1d_oracle_at_every_degree():
    # from a Picard start v_4 jumped with c and c = 0.0505 missed by 1.5e-2 at
    # degree 6.  Cap 60 keeps the reference's own truncation below the bound
    # at degree 10; at cap 44 it reads 1.2e-3 for c = 0.05
    v4 = []
    for c in (0.04, 0.045, 0.048, 0.05, 0.0505, 0.055, 0.06):
        W = NCSeries(1, 10, {(0, 0, 0, 0): c})
        sol = T.solve_V(T.TransportProblem(W, 10))
        tau_y = sd.solve_sd(sol.V.truncate(60), 60)
        tau_x = sd.pushforward_trace(tau_y, [m.truncate(60) for m in sol.transport_map], 10)
        oracle = G.free_gibbs_measure(G.EvenPotential([0.5, c]))
        for k in range(2, 11, 2):
            assert abs(tau_x.value((0,) * k) - oracle.moment(k)) < 1e-3, (c, k)
        v4.append(sol.V.coeff((0,) * 4))
    assert all(b < a for a, b in zip(v4, v4[1:]))


def test_non_confining_one_cut_target():
    # x^2/2 - 0.02 x^4 does not confine but has a one-cut law.  Near the
    # critical coupling -1/48 its SD table converges slowly in the cap (off by
    # 1.6e-4 at cap 40), so the reference is the exact law
    W = NCSeries(1, 4, {(0, 0, 0, 0): -0.02})
    sol = T.solve_V(T.TransportProblem(W, 4))
    assert sol.diagnostics["converged"]
    _, x, weights = G._one_cut([0.5, -0.02])
    tau_y = sd.solve_sd(sol.V.truncate(40), 40)
    tau_x = sd.pushforward_trace(tau_y, [m.truncate(40) for m in sol.transport_map], 4)
    for k in (2, 4):
        assert abs(tau_x.value((0,) * k) - weights @ x ** k) <= 1e-6


def test_c13_solution_is_exact_at_degree_10():
    W = NCSeries(1, 10, {(0, 0, 0, 0): 0.05})
    sol = T.solve_V(T.TransportProblem(W, 10))
    assert sol.diagnostics["converged"] and sol.diagnostics["residual"] <= 1e-12
    assert T.verify_transport(sol, W, 10)["max_moment_deviation"] <= 1e-12


def test_one_variable_solve_takes_no_picard_step_or_particles(monkeypatch):
    # n = 1, and each variable of a separable W, runs the closed-form Newton
    # in both regimes
    def refuse(*args, **kwargs):
        raise AssertionError("one-variable solve left the closed-form path")

    monkeypatch.setattr(T, "picard_map", refuse)
    monkeypatch.setattr(moment1d, "minimize_F", refuse)
    w_small = 0.5 * T.GUARANTEE_MARGIN * T.DEFAULT_R / T.GUARANTEE_NORM_RADIUS ** 4
    for W, degree, guaranteed in ((NCSeries(1, 8, {(0, 0, 0, 0): w_small}), 8, True),
                                  (NCSeries(1, 10, {(0, 0, 0, 0): 0.05}), 10, False),
                                  (NCSeries(2, 8, {(0,) * 4: 1e-6, (1,) * 4: 1e-6}), 8, True)):
        prob = T.TransportProblem(W, degree)
        assert prob.guaranteed == guaranteed
        diagnostics = T.solve_V(prob).diagnostics
        assert diagnostics["converged"] and diagnostics["separable"]


def test_diagnostics_core_keys_and_json():
    W = NCSeries(2, 8, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02})
    sol = T.solve_V(T.TransportProblem(W, 8))
    for diag in [sol.diagnostics] + sol.diagnostics["components"]:
        assert {"iterations", "residual", "converged", "seconds"} <= diag.keys()
        assert "picard_damping" not in diag
    stored = sol.to_dict()["diagnostics"]
    assert "seconds" not in stored
    assert all("seconds" not in d for d in stored["components"])
    assert "stage_seconds" not in json.dumps(stored)
    for diag in [sol.diagnostics] + sol.diagnostics["components"]:
        assert sum(diag["stage_seconds"].values()) <= diag["seconds"]
    assert stored["converged"] and stored["residual"] < 1e-8


def mixed_w(degree):
    return NCSeries(2, degree, {(0, 0, 0, 0): 0.01, (1, 1, 1, 1): 0.01,
                                (0, 1, 0, 1): 0.005, (1, 0, 1, 0): 0.005})


def test_solution_json_roundtrip():
    W = NCSeries(1, 8, {(0, 0, 0, 0): 0.01})
    sol = T.solve_V(T.TransportProblem(W, 8))
    back = T.TransportSolution.from_dict(json.loads(sol.to_json()))
    assert back.V.terms == sol.V.terms
    assert back.to_json() == sol.to_json()


def pushed_map(V, cap):
    return [NCSeries.variable(i, V.n_vars, cap) + cyclic_gradient(V, i).truncate(cap)
            for i in range(V.n_vars)]


@pytest.mark.parametrize("n,cap,degree", [(1, 44, 6), (2, 14, 4), (3, 8, 4)])
def test_trace_words_equals_pushforward_trace_exactly(n, cap, degree):
    if n == 1:
        V = T.solve_V(T.TransportProblem(NCSeries(1, 10, {(0, 0, 0, 0): 0.05}), 10)).V
    elif n == 2:
        V = T.solve_V(T.TransportProblem(mixed_w(4), 4)).V
    else:
        V = NCSeries(3, 4, {(0, 0): 0.03, (1, 1): -0.02, (2, 2, 2, 2): 0.01,
                            (0, 1, 0, 1): 0.005, (1, 0, 1, 0): 0.005})
    tau = sd.solve_sd(V.truncate(cap), cap)
    fmap = pushed_map(V, cap)
    full = sd.pushforward_trace(tau, fmap, degree)
    words = [w for length in range(1, degree + 1) for w in sd._enumerate_canonical(n, length)]
    assert np.array_equal(sd._trace_words(tau, fmap, words), np.concatenate(full.values[1:]))
    # out of order and with a repeat, each word's own value
    picked = words[::-3] + [words[1]]
    assert sd._trace_words(tau, fmap, picked).tolist() == [full.value(w) for w in picked]


def test_gauss_newton_residual_is_the_pushforward_on_the_fitted_classes(monkeypatch):
    newton_calls, tables = [], []
    newton, solve_sd = T._newton, sd.solve_sd

    def spy(residual, jacobian, c, tol, max_steps):
        out = newton(residual, jacobian, c, tol, max_steps)
        newton_calls.append((residual, out[0]))
        return out

    monkeypatch.setattr(T, "_newton", spy)
    W, D = mixed_w(4), 4
    problem = T.TransportProblem(W, D)
    T.solve_V(problem)
    # the Gauss-Newton is the last Newton of a mixed solve
    residual, c = newton_calls[-1]
    c = c * (1.0 + 1e-3)

    def recorded(*args, **kwargs):
        tables.append(solve_sd(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(sd, "solve_sd", recorded)
    r = residual(c)
    cap = problem.sd_cap
    classes, support, owner = T._symmetric_basis(W, D)

    def on_classes(tau):
        return np.concatenate([tau.at(length, codes) for length, codes in classes])

    V = _series(2, D, support, c[owner])
    target = on_classes(solve_sd(W.truncate(cap), cap))
    expected = on_classes(sd.pushforward_trace(tables[-1], pushed_map(V, cap), D)) - target
    assert len(tables) == 1 and len(r) == 4 and np.abs(r).max() > 1e-8
    assert np.array_equal(r, expected)


def test_mixed_solve_derives_each_support_once(monkeypatch):
    supports = []
    solve_sd = sd.solve_sd

    def counted(W, cap, *args, support_hint=None, **kwargs):
        hint = W.ranks if support_hint is None else support_hint.ranks
        supports.append((W.max_degree, np.union1d(W.ranks, hint).tobytes()))
        return solve_sd(W, cap, *args, support_hint=support_hint, **kwargs)

    monkeypatch.setattr(sd, "solve_sd", counted)
    sd._support.cache_clear()
    T.solve_V(T.TransportProblem(mixed_w(4), 4))
    info = sd._support.cache_info()
    # one support each for the target and the V-laws of every residual.  The
    # V-laws are those of the start, of the 4 one-sided difference columns of
    # the one Jacobian and of the 3 accepted steps
    assert len(supports) == 9 and len(set(supports)) == 2
    assert info.misses == len(set(supports)) and info.hits == len(supports) - info.misses


def test_strong_quartic_at_degree_10_reaches_round_off():
    # a Jacobian of one-sided differences stopped this case at 2.4e-5, not
    # converged; the exact Jacobian of gibbs1d._moment_map takes it to
    # round-off, as central differences did
    sol = T.solve_V(T.TransportProblem(NCSeries(1, 10, {(0, 0, 0, 0): 1.0}), 10))
    assert sol.diagnostics["converged"] and sol.diagnostics["residual"] <= 1e-12


def _all_code_orbits(W, degree):
    """The orbits of _symmetric_basis computed over every code of each length:
    each code's least canonical code under W's variable permutations, and
    the codes W's flip symmetries keep, both from the code's letters."""
    n = W.n_vars
    flips = np.flatnonzero(sd._variable_parities(W))
    _, lengths, pos, _, letter, _ = _positions(W)
    perms = []
    for perm in map(np.array, itertools.permutations(range(n))):
        moved = _recode(W, perm[letter] * n ** (lengths - 1 - pos))
        if (np.abs((moved - W).coeffs) < 1e-14).all():
            perms.append(perm)
    classes, count = [], 0
    ranks, owners = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for length in range(2, degree + 1, 2):
        reps, inv = sd._canonical_classes(n, length)
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


def _s3_w(x4):
    """0.005 (x_i x_j x_i x_j + x_j x_i x_j x_i) for i < j in three variables,
    plus x4[i] x_i^4."""
    terms = {(i,) * 4: c for i, c in enumerate(x4)}
    for i, j in itertools.combinations(range(3), 2):
        terms[(i, j, i, j)] = terms[(j, i, j, i)] = 0.005
    return NCSeries(3, 4, terms)


@pytest.mark.parametrize("W, degree", [
    (mixed_w(4), 6),
    (mixed_w(4) + NCSeries(2, 4, {(1, 1, 1, 1): 0.01}), 6),
    (_s3_w([0.01, 0.01, 0.01]), 4),
    (_s3_w([0.02, 0.01, 0.01]), 4),
], ids=["swap", "no-swap", "s3", "s2-of-s3"])
def test_symmetric_basis_matches_all_code_orbits(W, degree):
    classes, support, owner = T._symmetric_basis(W, degree)
    ref_classes, ref_support, ref_owner = _all_code_orbits(W, degree)
    assert [length for length, _ in classes] == [length for length, _ in ref_classes]
    for (_, codes), (_, ref) in zip(classes, ref_classes):
        assert np.array_equal(codes, ref)
    assert np.array_equal(support, ref_support)
    assert np.array_equal(owner, ref_owner)
