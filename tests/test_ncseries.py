import collections
import itertools
import json

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


def pairs(t, n):
    """A tensor's nonzero coefficients keyed by (left word, right word)."""
    out = {}
    for (l, r), blk in t.items():
        left = list(itertools.product(range(n), repeat=l))
        right = list(itertools.product(range(n), repeat=r))
        for a, b in zip(*np.nonzero(blk)):
            out[(left[a], right[b])] = float(blk[a, b])
    return out


def from_pairs(terms, n):
    """Inverse of ``pairs``: the tensor with the given coefficients."""
    def code(w):
        return sum(letter * n ** k for k, letter in enumerate(reversed(w)))

    out = {}
    for (wl, wr), c in terms.items():
        key = (len(wl), len(wr))
        blk = out.setdefault(key, np.zeros((n ** key[0], n ** key[1])))
        blk[code(wl), code(wr)] += c
    return out


def entry(jac, i, j, n):
    return pairs({key: blk[i, j] for key, blk in jac.items()}, n)


def test_difference_quotient_examples():
    sq = nc.NCSeries(1, 6, {(0, 0): 1.0})
    assert pairs(nc.difference_quotient(sq, 0), 1) == {((), (0,)): 1.0, ((0,), ()): 1.0}
    xy = nc.NCSeries(2, 6, {(0, 1): 1.0})
    assert pairs(nc.difference_quotient(xy, 1), 2) == {((0,), ()): 1.0}
    assert nc.difference_quotient(nc.NCSeries(2, 6, {(1, 1, 1): 1.0}), 0) == {}
    # blocks are indexed by base-n word codes, first letter most significant
    dq = nc.difference_quotient(nc.NCSeries(3, 6, {(2, 0, 1): 2.0}), 2)
    assert list(dq) == [(0, 2)] and dq[(0, 2)].shape == (1, 9)
    assert dq[(0, 2)][0, 1] == 2.0 and np.count_nonzero(dq[(0, 2)]) == 1


def test_jacobian_of_coordinates_is_identity():
    p = [x(i, 3, 4) for i in range(3)]
    jac = nc.jacobian(p)
    for i in range(3):
        for j in range(3):
            expect = {((), ()): 1.0} if i == j else {}
            assert entry(jac, i, j, 3) == expect


def test_jacobian_of_zero():
    z = [nc.NCSeries.zero(2, 4) for _ in range(2)]
    assert nc.jacobian(z) == {}


def test_jacobian_hand_fixture():
    # V = S(x1^2 x2^2); hand expansion of d_j (D_i V) recorded as a fixture
    v = nc.cyclic_symmetrize(nc.NCSeries(2, 6, {(0, 0, 1, 1): 1.0}))
    g = [nc.cyclic_gradient(v, i) for i in range(2)]
    assert g[0].terms == {(0, 1, 1): 1.0, (1, 1, 0): 1.0}
    jac = nc.jacobian(g)
    assert entry(jac, 0, 0, 2) == {((), (1, 1)): 1.0, ((1, 1), ()): 1.0}
    assert entry(jac, 0, 1, 2) == {((0,), (1,)): 1.0, ((0, 1), ()): 1.0,
                                   ((), (1, 0)): 1.0, ((1,), (0,)): 1.0}


def test_symmetrize_ops():
    xy = nc.NCSeries(2, 6, {(0, 1): 1.0})
    assert nc.cyclic_symmetrize(xy).terms == {(0, 1): 0.5, (1, 0): 0.5}
    cube = nc.NCSeries(1, 6, {(0, 0, 0): 1.0})
    assert nc.number_op(cube).terms == {(0, 0, 0): 3.0}
    mixed = nc.NCSeries(1, 6, {(): 5.0, (0,): 1.0})
    assert nc.drop_constant(mixed).terms == {(0,): 1.0}
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
    t = from_pairs({((0,), (1, 1)): -2.0}, 2)
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
    one = from_pairs({((), ()): 1.0}, 1)
    out = nc.trace_contract(one, tau)
    assert out.terms == {(): 2.0}
    t = from_pairs({((0,), (0,)): 1.0}, 1)
    assert nc.trace_contract(t, tau).terms == {}
    t2 = from_pairs({((0, 0), ()): 1.0}, 1)
    out2 = nc.trace_contract(t2, tau)
    assert out2.terms == {(0, 0): 1.0, (): 1.0}


def test_trace_contract_rejects_words_beyond_cap():
    tau = sd.solve_sd(nc.NCSeries.zero(1, 4), 4)
    too_deep = from_pairs({((0,) * 6, ()): 1.0}, 1)
    with pytest.raises(InvalidInputError):
        nc.trace_contract(too_deep, tau)


def rand_tensor(rng, n, max_leg, terms):
    out = {}
    for _ in range(terms):
        left = tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(0, max_leg + 1))))
        right = tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(0, max_leg + 1))))
        out[(left, right)] = float(rng.standard_normal())
    return out


def test_tensor_multiply_matches_pair_loop():
    def pair_loop(a, b, cap):
        terms = {}
        for (la, ra), ca in a.items():
            for (lb, rb), cb in b.items():
                if len(la) + len(ra) + len(lb) + len(rb) <= cap:
                    key = (la + lb, rb + ra)
                    terms[key] = terms.get(key, 0.0) + ca * cb
        return terms

    rng = np.random.default_rng(11)
    for cap in (4, 7, 10):
        for n in (1, 2):
            a = rand_tensor(rng, n, 4, 40)
            b = rand_tensor(rng, n, 4, 40)
            degrees = [len(la) + len(ra) + len(lb) + len(rb) for la, ra in a for lb, rb in b]
            assert min(degrees) <= cap < max(degrees)
            out = nc.tensor_multiply(from_pairs(a, n), from_pairs(b, n), cap)
            assert max(l + r for l, r in out) <= cap
            expect = pair_loop(a, b, cap)
            got = pairs(out, n)
            assert set(got) <= set(expect)
            assert all(abs(got.get(k, 0.0) - c) <= 1e-12 * (1.0 + abs(c))
                       for k, c in expect.items())
    # exact cancellation leaves a 0.0 entry, which pairs() does not list
    a = from_pairs({((), ()): 1.0, ((0,), ()): 1.0}, 1)
    b = from_pairs({((0,), ()): 1.0, ((), ()): -1.0}, 1)
    assert pairs(nc.tensor_multiply(a, b, 4), 1) == {((0, 0), ()): 1.0, ((), ()): -1.0}


def test_log_neumann_scalar_reduction():
    # for one variable and k = c (x (x) 1), Tr log(1 + k) = sum_p (-1)^(p+1) c^p/p x^p (x) 1
    c = 0.21
    out = nc.log_neumann({(1, 0): np.full((1, 1, 1, 1), c)}, 12)
    assert sorted(out) == [(p, 0) for p in range(1, 13)]
    for p in range(1, 13):
        assert abs(out[(p, 0)][0, 0] - (-1.0) ** (p + 1) / p * c ** p) < 1e-16
    assert nc.log_neumann({}, 6) == {}
    zero = nc.log_neumann({(1, 1): np.zeros((2, 2, 2, 2))}, 6)
    assert all(not blk.any() for blk in zero.values())
    with pytest.raises(InvalidInputError):
        nc.log_neumann({(0, 0): np.ones((1, 1, 1, 1))}, 6)


def test_log_neumann_stability_under_cap_increase():
    rng = np.random.default_rng(5)
    v = rand_series(rng, 2, 6, 4, even=True, scale=0.05)
    g = [nc.cyclic_gradient(v, i) for i in range(2)]
    jac = nc.jacobian([gi.truncate(8) for gi in g])
    k = {key: blk for key, blk in jac.items() if key != (0, 0)}
    lo = nc.log_neumann(k, 8)
    hi = nc.log_neumann(k, 16)
    # raising the cap adds higher-degree blocks and leaves the others alone
    assert max(l + r for l, r in hi) > 8
    for (l, r), blk in hi.items():
        if l + r <= 8:
            assert np.allclose(lo[(l, r)], blk, rtol=0.0, atol=1e-15)


def test_euler_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        g = [rand_series(rng, n, 6, 4) for _ in range(n)]
        jac = nc.jacobian(g)
        ys = [nc.NCSeries.variable(i, n, 6) for i in range(n)]
        lhs = nc.apply_to_vector(jac, ys)
        for i in range(n):
            diff = lhs[i] - nc.number_op(g[i])
            assert all(abs(c) < 1e-12 for c in diff.terms.values())


def test_gradient_square_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        v = rand_series(rng, n, 5, 4)
        dv = [nc.cyclic_gradient(v, i).truncate(10) for i in range(n)]
        jac = nc.jacobian(dv)
        lhs = nc.apply_to_vector(jac, dv)
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
    back = nc.NCSeries.from_dict(json.loads(f.to_json()))
    assert back.terms == f.terms


# -- word-dict oracle ----------------------------------------------------------------
#
# The algebra on plain {word tuple: coeff} dicts, one term at a time: the
# reference for the rank arrays.


def dict_add(out, word, coeff):
    out[word] = out.get(word, 0.0) + coeff


def dict_multiply(a, b, cap):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= cap:
                dict_add(out, wa + wb, ca * cb)
    return out


def dict_substitute(f, args, cap):
    out = {}
    for word, coeff in f.items():
        prod = {(): 1.0}
        for letter in word:
            prod = dict_multiply(prod, args[letter], cap)
        for w, c in prod.items():
            dict_add(out, w, coeff * c)
    return out


def dict_cyclic_gradient(f, i):
    out = {}
    for w, c in f.items():
        for pos in (p for p, letter in enumerate(w) if letter == i):
            dict_add(out, w[pos + 1:] + w[:pos], c)
    return out


def dict_cyclic_symmetrize(f):
    out = {}
    for w, c in f.items():
        for j in range(max(len(w), 1)):
            dict_add(out, w[j:] + w[:j], c / max(len(w), 1))
    return out


def dict_difference_quotient(f, i):
    out = {}
    for w, c in f.items():
        for pos in (p for p, letter in enumerate(w) if letter == i):
            dict_add(out, (w[:pos], w[pos + 1:]), c)
    return out


def assert_matches(got, ref, rtol=1e-14):
    """Same words, up to rtol of the largest reference coefficient; exact zeros absent."""
    assert all(c != 0.0 for c in got.values())
    scale = max((abs(c) for c in ref.values()), default=1.0)
    for w in set(got) | set(ref):
        assert abs(got.get(w, 0.0) - ref.get(w, 0.0)) <= rtol * scale, w


def rand_dict(rng, n, max_len, terms):
    return {tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(0, max_len + 1)))):
            float(rng.standard_normal()) for _ in range(terms)}


@pytest.mark.parametrize("n,cap,max_len,terms", [(1, 60, 30, 40), (2, 18, 9, 40), (3, 8, 4, 30)])
def test_rank_arrays_match_word_dict_oracle(n, cap, max_len, terms):
    rng = np.random.default_rng(12 + n)
    a, b = rand_dict(rng, n, max_len, terms), rand_dict(rng, n, max_len, terms)
    sa, sb = nc.NCSeries(n, cap, a), nc.NCSeries(n, cap, b)
    prod = dict_multiply(a, b, cap)
    # some word of the product is hit by three or more splits
    splits = collections.Counter(wa + wb for wa in a for wb in b if len(wa + wb) <= cap)
    assert max(splits.values()) >= 3
    assert_matches(nc.multiply(sa, sb).terms, prod)
    f = rand_dict(rng, n, 3, 6)
    args = [rand_dict(rng, n, max_len // 2, 6) for _ in range(n)]
    got = nc.substitute(nc.NCSeries(n, cap, f), [nc.NCSeries(n, cap, g) for g in args])
    assert_matches(got.terms, dict_substitute(f, args, cap))
    for i in range(n):
        assert_matches(nc.cyclic_gradient(sa, i).terms, dict_cyclic_gradient(a, i))
        assert_matches(pairs(nc.difference_quotient(sa, i), n), dict_difference_quotient(a, i))
    assert_matches(nc.cyclic_symmetrize(sa).terms, dict_cyclic_symmetrize(a))
    assert_matches(nc.number_op(sa).terms, {w: c * len(w) for w, c in a.items()})

    # a trace table with seeded class values, and tensors from the Jacobian
    values = [rng.standard_normal(len(sd._canonical_classes(n, length)[0]))
              for length in range(cap + 1)]
    tau = sd.TraceTable(n, cap, values)
    assert abs(tau.of_series(nc.NCSeries(n, cap, prod)) - sum(
        c * tau.value(w) for w, c in prod.items())) <= 1e-14 * sum(
        abs(c * tau.value(w)) for w, c in prod.items())
    vec = [nc.NCSeries(n, cap // 2, rand_dict(rng, n, max_len // 2, 8)) for _ in range(n)]
    jac = nc.jacobian([nc.NCSeries(n, cap // 2, rand_dict(rng, n, max_len // 2, 8))
                       for _ in range(n)])
    for i in range(n):
        ref = {}
        for j in range(n):
            for (wl, wr), c in entry(jac, i, j, n).items():
                for ws, cs in vec[j].terms.items():
                    if len(wl + ws + wr) <= cap // 2:
                        dict_add(ref, wl + ws + wr, c * cs)
        assert_matches(nc.apply_to_vector(jac, vec)[i].terms, ref)
        dq = nc.difference_quotient(sa, i)
        ref = {}
        for (wl, wr), c in pairs(dq, n).items():
            dict_add(ref, wr, c * tau.value(wl))
            dict_add(ref, wl, c * tau.value(wr))
        assert_matches(nc.trace_contract(dq, tau).terms, ref)


def test_exact_cancellations_drop_out():
    # (1 + x)(x - 1) = x^2 - 1: the two splits of x cancel exactly
    a = nc.NCSeries(1, 8, {(): 1.0, (0,): 1.0})
    b = nc.NCSeries(1, 8, {(0,): 1.0, (): -1.0})
    prod = nc.multiply(a, b)
    assert prod.terms == {(): -1.0, (0, 0): 1.0} and prod.coeff((0,)) == 0.0
    commutator = nc.NCSeries(2, 6, {(0, 1): 0.5, (1, 0): -0.5})
    assert nc.cyclic_symmetrize(commutator).terms == {}
    assert nc.cyclic_gradient(commutator, 0).terms == {}
    assert (commutator + commutator * -1.0).ranks.size == 0
    assert nc.NCSeries(2, 6, {(0, 1): 0.0}).terms == {}


def test_rank_overflow_is_invalid_input():
    # a word's rank must fit int64: up to 61 letters in two variables, 38 in three
    assert nc.NCSeries(2, 61, {(1,) * 61: 1.0}).terms == {(1,) * 61: 1.0}
    assert nc.NCSeries(3, 38, {(2,) * 38: 1.0}).coeff((2,) * 38) == 1.0
    with pytest.raises(InvalidInputError):
        nc.NCSeries(2, 62, {(1,) * 62: 1.0})
    with pytest.raises(InvalidInputError):
        nc.NCSeries(3, 39, {(2,) * 39: 1.0})
    with pytest.raises(InvalidInputError):
        nc.NCSeries.from_dict({"n_vars": 2, "max_degree": 80,
                               "terms": [{"word": [1] * 70, "coeff": 1.0}]})
    # a product whose words outgrow int64 ranks is rejected, not wrapped around
    w = nc.NCSeries(2, 100, {(1,) * 40: 1.0})
    with pytest.raises(InvalidInputError):
        nc.multiply(w, w)
    # a huge cap over short words stays valid, and words over the cap still drop out
    big = nc.NCSeries(2, 10 ** 6, {(0, 1): 2.0})
    assert nc.multiply(big, big).terms == {(0, 1, 0, 1): 4.0}
    assert nc.NCSeries(2, 10, {(1,) * 70: 1.0}).terms == {}
    assert nc.NCSeries(1, 10 ** 6, {(0,) * 500: 1.0}).degree() == 500
