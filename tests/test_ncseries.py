import numpy as np
import pytest

from freemoment import ncseries as nc
from freemoment import sdmoments as sd
from freemoment.errors import InvalidInputError


def x(i, n=2, d=8):
    return nc.NCSeries.variable(i, n, d)


def rand_series(rng, n, d, terms, even=False, scale=1.0):
    out = {}
    for _ in range(terms):
        k = int(rng.integers(1, d + 1))
        if even:
            k = max(2, 2 * (k // 2))
        out[tuple(rng.integers(0, n, size=k))] = scale * rng.standard_normal()
    return nc.NCSeries(n, d, out)


def test_multiply_basic():
    a, b = x(0), x(1)
    assert nc.multiply(a, b).terms == {(0, 1): 1.0}
    p = nc.multiply(x(0) + x(1), x(0) - x(1))
    assert p.terms == {(0, 0): 1.0, (0, 1): -1.0, (1, 0): 1.0, (1, 1): -1.0}


def test_multiply_norm_submultiplicative():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = rand_series(rng, 2, 4, 4)
        b = rand_series(rng, 2, 4, 4)
        prod = nc.multiply(a, b, 8)
        assert nc.norm_A(prod, 2.0) <= nc.norm_A(a, 2.0) * nc.norm_A(b, 2.0) + 1e-12


def test_substitute_identity_and_shift():
    rng = np.random.default_rng(1)
    w = rand_series(rng, 2, 5, 6)
    args = [x(0, 2, 5), x(1, 2, 5)]
    assert nc.substitute(w, args).terms == w.terms
    sq = nc.NCSeries(2, 4, {(0, 0): 1.0})
    out = nc.substitute(sq, [x(0, 2, 4) + x(1, 2, 4), x(1, 2, 4)])
    assert out.terms == {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}


def test_substitution_preserves_evenness():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rand_series(rng, 2, 6, 4, even=True)
        v = rand_series(rng, 2, 6, 4, even=True)
        args = [x(i, 2, 6) + nc.cyclic_gradient(nc.number_op_inverse(v), i) for i in range(2)]
        assert nc.substitute(w, args, 6).is_even()


def test_cyclic_gradient_examples():
    cube = nc.NCSeries(1, 6, {(0, 0, 0): 1.0})
    assert nc.cyclic_gradient(cube, 0).terms == {(0, 0): 3.0}
    alt = nc.NCSeries(2, 6, {(0, 1, 0, 1): 1.0})
    assert nc.cyclic_gradient(alt, 0).terms == {(1, 0, 1): 2.0}
    const = nc.NCSeries.constant(4.0, 2, 6)
    assert nc.cyclic_gradient(const, 0).terms == {}


def test_difference_quotient_examples():
    sq = nc.NCSeries(1, 6, {(0, 0): 1.0})
    assert nc.difference_quotient(sq, 0).terms == {((), (0,)): 1.0, ((0,), ()): 1.0}
    xy = nc.NCSeries(2, 6, {(0, 1): 1.0})
    assert nc.difference_quotient(xy, 1).terms == {((0,), ()): 1.0}
    assert nc.difference_quotient(nc.NCSeries(2, 6, {(1, 1, 1): 1.0}), 0).terms == {}


def test_jacobian_of_coordinates_is_identity():
    p = [x(i, 3, 4) for i in range(3)]
    jac = nc.jacobian(p)
    for i in range(3):
        for j in range(3):
            expect = {((), ()): 1.0} if i == j else {}
            assert jac.entries[i][j].terms == expect


def test_jacobian_of_zero():
    z = [nc.NCSeries.zero(2, 4) for _ in range(2)]
    assert nc.jacobian(z).is_zero()


def test_jacobian_hand_fixture():
    # V = S(x1^2 x2^2); hand expansion of d_j (D_i V) recorded as a fixture
    v = nc.cyclic_symmetrize(nc.NCSeries(2, 6, {(0, 0, 1, 1): 1.0}))
    g = nc.cyclic_gradient_vector(v)
    assert g[0].terms == {(0, 1, 1): 1.0, (1, 1, 0): 1.0}
    jac = nc.jacobian(g)
    assert jac.entries[0][0].terms == {((), (1, 1)): 1.0, ((1, 1), ()): 1.0}
    assert jac.entries[0][1].terms == {((0,), (1,)): 1.0, ((0, 1), ()): 1.0,
                                       ((), (1, 0)): 1.0, ((1,), (0,)): 1.0}


def test_symmetrize_ops():
    xy = nc.NCSeries(2, 6, {(0, 1): 1.0})
    assert nc.symmetrize_ops(xy, "S").terms == {(0, 1): 0.5, (1, 0): 0.5}
    cube = nc.NCSeries(1, 6, {(0, 0, 0): 1.0})
    assert nc.symmetrize_ops(cube, "N").terms == {(0, 0, 0): 3.0}
    mixed = nc.NCSeries(1, 6, {(): 5.0, (0,): 1.0})
    assert nc.symmetrize_ops(mixed, "Pi").terms == {(0,): 1.0}
    rng = np.random.default_rng(3)
    f = rand_series(rng, 2, 5, 6)
    back = nc.number_op_inverse(nc.number_op(f))
    assert all(abs(back.coeff(w) - c) < 1e-14 for w, c in f.terms.items())
    with pytest.raises(InvalidInputError):
        nc.number_op_inverse(nc.NCSeries.constant(1.0, 2, 4))


def test_norms():
    f = nc.NCSeries(2, 6, {(0, 1): 1.0, (0,): 2.0})
    a = 1.7
    assert abs(nc.norm_A(f, a) - (a ** 2 + 2 * a)) < 1e-14
    assert nc.norm_A(nc.NCSeries.zero(2, 6), 3.0) == 0.0
    t = nc.TensorSeries(2, 8, {((0,), (1, 1)): -2.0})
    assert abs(nc.norm_AB(t, 2.0, 3.0) - 2 * 2 * 9) < 1e-14


def test_derivative_norm_bound():
    rng = np.random.default_rng(4)
    a = 2.0
    for _ in range(30):
        w = rand_series(rng, 2, 5, 6)
        total = 0.0
        for i in range(2):
            total += nc.norm_AB(nc.difference_quotient(w, i), a, a)
        assert total <= nc.norm_A(w, a + 1.0) + 1e-10


def test_trace_contract_examples():
    tau = sd.solve_sd(nc.NCSeries.zero(1, 8), 8)
    one = nc.TensorSeries(1, 8, {((), ()): 1.0})
    out = nc.trace_contract(one, tau)
    assert out.terms == {(): 2.0}
    t = nc.TensorSeries(1, 8, {((0,), (0,)): 1.0})
    assert nc.trace_contract(t, tau).terms == {}
    t2 = nc.TensorSeries(1, 8, {((0, 0), ()): 1.0})
    out2 = nc.trace_contract(t2, tau)
    assert out2.terms == {(0, 0): 1.0, (): 1.0}


def test_trace_contract_rejects_words_beyond_cap():
    tau = sd.solve_sd(nc.NCSeries.zero(1, 4), 4)
    too_deep = nc.TensorSeries(1, 12, {((0,) * 6, ()): 1.0})
    with pytest.raises(InvalidInputError):
        nc.trace_contract(too_deep, tau)


def rand_tensor(rng, n, max_leg, terms, cap):
    out = {}
    for _ in range(terms):
        left = tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(0, max_leg + 1))))
        right = tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(0, max_leg + 1))))
        out[(left, right)] = float(rng.standard_normal())
    return nc.TensorSeries(n, cap, out)


def test_tensor_multiply_matches_pair_loop():
    def pair_loop(a, b, cap):
        terms = {}
        for (la, ra), ca in a.terms.items():
            for (lb, rb), cb in b.terms.items():
                if len(la) + len(ra) + len(lb) + len(rb) <= cap:
                    key = (la + lb, rb + ra)
                    terms[key] = terms.get(key, 0.0) + ca * cb
        return {k: c for k, c in terms.items() if c != 0.0}

    rng = np.random.default_rng(11)
    for cap in (4, 7, 10):
        for n in (1, 2):
            a = rand_tensor(rng, n, 4, 40, cap)
            b = rand_tensor(rng, n, 4, 40, cap)
            degrees = [len(la) + len(ra) + len(lb) + len(rb)
                       for la, ra in a.terms for lb, rb in b.terms]
            assert min(degrees) <= cap < max(degrees)
            out = nc.tensor_multiply(a, b)
            assert out.max_degree == cap
            assert out.terms == pair_loop(a, b, cap)
            assert 0.0 not in out.terms.values()
    # exact cancellation leaves no 0.0 entry behind
    a = nc.TensorSeries(1, 4, {((), ()): 1.0, ((0,), ()): 1.0})
    b = nc.TensorSeries(1, 4, {((0,), ()): 1.0, ((), ()): -1.0})
    assert nc.tensor_multiply(a, b).terms == {((0, 0), ()): 1.0, ((), ()): -1.0}


def test_log_neumann_scalar_reduction():
    c = 0.21
    m = nc.MatrixTensor([[nc.TensorSeries(1, 10, {((), ()): c})]])
    out = nc.log_neumann(m, 12)
    got = out.entries[0][0].terms[((), ())]
    expect = sum((-1.0) ** (k + 1) / k * c ** k for k in range(1, 13))
    assert abs(got - expect) < 1e-14
    zero = nc.MatrixTensor.zero(2, 2, 6)
    assert nc.log_neumann(zero, 6).is_zero()


def test_log_neumann_stability_under_order_increase():
    rng = np.random.default_rng(5)
    v = rand_series(rng, 2, 4, 3, even=True, scale=0.05)
    g = nc.cyclic_gradient_vector(v)
    jac = nc.jacobian([gi.truncate(8) for gi in g])
    lo = nc.log_neumann(jac, 8)
    hi = nc.log_neumann(jac, 16)
    for i in range(2):
        for j in range(2):
            d = lo.entries[i][j] - hi.entries[i][j]
            # positive-degree parts are nilpotent; only the tiny scalar tail moves
            assert all(abs(c) < 1e-10 for c in d.terms.values())


def test_euler_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        g = [rand_series(rng, n, 6, 4) for _ in range(n)]
        jac = nc.jacobian(g)
        ys = [nc.NCSeries.variable(i, n, 6) for i in range(n)]
        lhs = jac.apply_to_vector(ys)
        for i in range(n):
            diff = lhs[i] - nc.number_op(g[i])
            assert all(abs(c) < 1e-12 for c in diff.terms.values())


def test_gradient_square_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        v = rand_series(rng, n, 5, 4)
        dv = [g.truncate(10) for g in nc.cyclic_gradient_vector(v)]
        jac = nc.jacobian(dv)
        lhs = jac.apply_to_vector(dv)
        sq = nc.NCSeries.zero(n, 10)
        for g in dv:
            sq = sq + nc.multiply(g, g, 10)
        for i in range(n):
            diff = lhs[i] - nc.cyclic_gradient(sq * 0.5, i)
            assert all(abs(c) < 1e-10 for c in diff.terms.values())


def test_cyclic_gradient_sees_only_cyclic_part():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        f = rand_series(rng, n, 6, 5) + nc.NCSeries.constant(rng.standard_normal(), n, 6)
        for i in range(n):
            d1 = nc.cyclic_gradient(nc.cyclic_symmetrize(nc.drop_constant(f)), i)
            d2 = nc.cyclic_gradient(f, i)
            diff = d1 - d2
            assert all(abs(c) < 1e-12 for c in diff.terms.values())


def test_single_variable_reduction():
    f = nc.NCSeries(1, 9, {(0,) * 5: 2.0, (0,) * 3: -1.5, (): 7.0})
    d = nc.cyclic_gradient(f, 0)
    assert d.terms == {(0,) * 4: 10.0, (0,) * 2: -4.5}


def test_operators_linear_and_preserve_selfadjointness():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        f = rand_series(rng, n, 5, 4)
        g = rand_series(rng, n, 5, 4)
        al, be = rng.standard_normal(2)
        for op in (nc.cyclic_symmetrize, nc.number_op, nc.drop_constant):
            lhs = op(al * f + be * g)
            rhs = al * op(f) + be * op(g)
            diff = lhs - rhs
            assert all(abs(c) < 1e-12 for c in diff.terms.values())
        sym = 0.5 * (f + nc.NCSeries(n, 5, {w[::-1]: c for w, c in f.terms.items()}))
        assert sym.is_selfadjoint(tol=1e-14)
        assert nc.cyclic_symmetrize(sym).is_selfadjoint(tol=1e-12)
        dv = nc.cyclic_gradient(sym, 0)
        assert dv.is_selfadjoint(tol=1e-12)


def test_series_json_roundtrip():
    f = nc.NCSeries(2, 6, {(0, 1, 1): 0.125, (): -3.0})
    back = nc.NCSeries.from_json(f.to_json())
    assert back.terms == f.terms
    t = nc.TensorSeries(2, 6, {((0,), (1,)): 2.5})
    back_t = nc.TensorSeries.from_dict(t.to_dict())
    assert back_t.terms == t.terms
