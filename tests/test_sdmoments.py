import itertools

import numpy as np
import pytest

from freemoment import gibbs1d as G
from freemoment import sdmoments as sd
from freemoment.ncseries import NCSeries, cyclic_gradient
from freemoment.errors import ConvergenceError, InvalidInputError

from conftest import noncrossing_pair_count

CATALAN = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132]


def canonical_word(word):
    """Lexicographically minimal rotation among the word and its reversal."""
    k = len(word)
    if k <= 1:
        return tuple(word)
    word = tuple(word)
    rev = word[::-1]
    best = word
    for j in range(k):
        rot = word[j:] + word[:j]
        if rot < best:
            best = rot
        rot = rev[j:] + rev[:j]
        if rot < best:
            best = rot
    return best


def test_catalan_moments():
    tab = sd.solve_sd(NCSeries.zero(1, 12), 12)
    got = [tab.value(tuple([0] * k)) for k in range(13)]
    assert max(abs(g - e) for g, e in zip(got, CATALAN)) < 1e-12


def test_free_family_low_moments():
    tab = sd.solve_sd(NCSeries.zero(2, 8), 8)
    assert tab.value((0, 1)) == 0.0
    assert tab.value((0, 1, 0, 1)) == 0.0
    assert abs(tab.value((0, 0, 1, 1)) - 1.0) < 1e-12


def test_pairing_oracle_cross_check():
    tab = sd.solve_sd(NCSeries.zero(2, 8), 8)
    for length in range(1, 9):
        for w in sd._enumerate_canonical(2, length):
            assert abs((tab.value(w) or 0.0) - noncrossing_pair_count(w)) < 1e-12


def test_even_perturbation_matches_1d_oracle():
    W = NCSeries(1, 40, {(0,) * 4: 0.05})
    tab = sd.solve_sd(W, 40)
    oracle = G.free_gibbs_measure(G.EvenPotential([0.5, 0.05]))
    for k in (2, 4, 6, 8):
        assert abs(tab.value(tuple([0] * k)) - oracle.moment(k)) < 1e-6


def test_even_potential_kills_odd_moments():
    W = NCSeries(1, 20, {(0,) * 4: 0.04})
    tab = sd.solve_sd(W, 20)
    for k in range(1, 20, 2):
        assert tab.value(tuple([0] * k)) == 0.0


def test_cyclic_and_reversal_symmetry_structural():
    W = NCSeries(2, 10, {(0, 0, 0, 0): 0.02, (1, 1, 1, 1): 0.02})
    tab = sd.solve_sd(W, 10)
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 10))
        w = tuple(rng.integers(0, 2, size=k))
        v = tab.value(w)
        rot = w[3 % k:] + w[:3 % k]
        assert tab.value(rot) == v
        assert tab.value(w[::-1]) == v


def test_residual_solved_table_is_small():
    W = NCSeries(1, 24, {(0,) * 4: 0.05})
    tab = sd.solve_sd(W, 24)
    # convergence is controlled in the cutoff-weighted norm, so the absolute
    # residual grows with the degree window; both stay far below detection scale
    assert sd.sd_residual(tab, W, 12) < 1e-6
    assert sd.sd_residual(tab, W, 16) < 1e-5


def test_residual_detects_wrong_potential():
    tab = sd.solve_sd(NCSeries.zero(1, 12), 12)
    wrong = NCSeries(1, 12, {(0,) * 4: 0.3})
    assert sd.sd_residual(tab, wrong, 12) >= 0.1


def test_residual_detects_perturbed_table():
    tab = sd.solve_sd(NCSeries.zero(1, 12), 12)
    values = [v.copy() for v in tab.values]
    values[2][0] += 0.1  # tau(xx)
    bad = sd.TraceTable(1, 12, values)
    assert sd.sd_residual(bad, NCSeries.zero(1, 12), 12) >= 0.1


def test_residual_continuity_in_potential():
    base = NCSeries(1, 16, {(0,) * 4: 0.05})
    tab = sd.solve_sd(base, 16)
    rng = np.random.default_rng(1)
    ratios = []
    for _ in range(5):
        delta = 10.0 ** rng.uniform(-4, -2)
        bumped = NCSeries(1, 16, {(0,) * 4: 0.05 + delta})
        ratios.append(sd.sd_residual(tab, bumped, 12) / delta)
    spread = max(ratios) / min(ratios)
    assert spread < 10.0  # residual is Lipschitz in the perturbed coefficient
    print(f"residual continuity constant C ~ {np.mean(ratios):.3f}")


def test_pushforward_identity_and_cubic():
    tab = sd.solve_sd(NCSeries.zero(1, 12), 12)
    ident = sd.pushforward_trace(tab, [NCSeries.variable(0, 1, 12)], 8)
    for k in range(1, 9):
        assert ident.value(tuple([0] * k)) == tab.value(tuple([0] * k))
    eps = 0.1
    f = [NCSeries(1, 12, {(0,): 1.0, (0, 0, 0): eps})]
    pushed = sd.pushforward_trace(tab, f, 4)
    assert abs(pushed.value((0, 0)) - (1 + 4 * eps + 5 * eps ** 2)) < 1e-12


def test_pushforward_parity():
    tab = sd.solve_sd(NCSeries.zero(1, 16), 16)
    f = [NCSeries(1, 16, {(0,): 1.0, (0, 0, 0): 0.2})]
    pushed = sd.pushforward_trace(tab, f, 6)
    for k in (1, 3, 5):
        assert pushed.value(tuple([0] * k)) == 0.0


def test_pushforward_validates_caps():
    tab = sd.solve_sd(NCSeries.zero(1, 8), 8)
    with pytest.raises(InvalidInputError):
        sd.pushforward_trace(tab, [NCSeries.constant(1.0, 1, 8)], 4)
    with pytest.raises(InvalidInputError):
        sd.pushforward_trace(tab, [NCSeries.variable(0, 1, 8)], 10)


def test_cutoff_guard():
    # a large perturbation drives the iteration into the cutoff clamp
    W = NCSeries(1, 10, {(0,) * 4: -0.4})
    with pytest.raises(ConvergenceError):
        sd.solve_sd(W, 10)


def test_canonical_word():
    assert canonical_word((1, 0, 0)) == (0, 0, 1)
    assert canonical_word((0, 1, 1, 0)) == (0, 0, 1, 1)
    assert canonical_word(()) == ()
    # reversal included
    assert canonical_word((0, 1, 2)) == canonical_word((2, 1, 0))


def test_table_to_dict_writes_the_nonzero_classes():
    W = NCSeries(2, 4, {(0,) * 4: 0.02, (1,) * 4: 0.02, (0, 1, 0, 1): 0.01, (1, 0, 1, 0): 0.01})
    tab = sd.solve_sd(W, 10)
    data = tab.to_dict()
    # exact zeros (here every odd length, and odd letter counts) are implied
    assert all(item["value"] != 0.0 for item in data["values"])
    for item in data["values"]:
        assert tab.value(tuple(i - 1 for i in item["word"])) == item["value"]
    assert len(data["values"]) == sum(np.count_nonzero(v) for v in tab.values[1:])


def test_warm_start_from_lower_cap_matches_cold_solve(monkeypatch):
    W = NCSeries(2, 4, {(0,) * 4: 0.02, (1,) * 4: 0.02, (0, 1, 0, 1): 0.01, (1, 0, 1, 0): 0.01})
    # the sweeps stop on the step size, so two solves at tol agree only to a
    # small multiple of it; at tol 1e-13 they agree to 1e-12
    monkeypatch.setattr(sd, "SD_TOL", 1e-13)
    low = sd.solve_sd(W, 8)
    cold = sd.solve_sd(W, 14)
    warm = sd.solve_sd(W, 14, init=low)
    # the start is read from the table: a solved table is already a fixed point
    assert sd.solve_sd(W, 14, init=cold).diagnostics["iterations"] == 1
    gap = max(float(np.abs(a - b).max()) / 3.0 ** length
              for length, (a, b) in enumerate(zip(warm.values, cold.values)))
    assert gap <= 1e-12
    with pytest.raises(InvalidInputError):
        sd.solve_sd(NCSeries(1, 4, {(0,) * 4: 0.02}), 8, init=low)


def test_table_diagnostics_stay_out_of_json():
    tab = sd.solve_sd(NCSeries(1, 10, {(0,) * 4: 0.05}), 10)
    diag = tab.diagnostics
    assert set(diag) == {"iterations", "residual", "converged", "structure_cache", "seconds"}
    assert diag["converged"] and diag["residual"] < 1e-12
    assert diag["structure_cache"] in ("hit", "miss")
    assert "diagnostics" not in tab.to_dict()


def test_enumerate_canonical_matches_canonical_word():
    for n, max_len in ((2, 12), (3, 7)):
        for length in range(max_len + 1):
            expected = sorted({canonical_word(w)
                               for w in itertools.product(range(n), repeat=length)})
            assert list(sd._enumerate_canonical(n, length)) == expected


def test_canonical_codes_map_every_word_to_its_canonical_code():
    # _build_structure indexes this map at every word, not only at the representatives
    for n, max_len in ((1, 12), (2, 12), (3, 7), (4, 6)):
        for length in range(1, max_len + 1):
            canon = sd._canonical_codes(n, length)
            expected = [sum(letter * n ** k
                            for k, letter in enumerate(reversed(canonical_word(w))))
                        for w in itertools.product(range(n), repeat=length)]
            assert canon.tolist() == expected
            reps, inv = sd._canonical_classes(n, length)
            assert np.array_equal(reps[inv], canon)


def _gradient_terms(W):
    return tuple((i, gw) for i in range(W.n_vars)
                 for gw in sorted(cyclic_gradient(W, i).terms))


def _killed_by_symmetry(word, even_overall, flips):
    if even_overall and len(word) % 2 == 1:
        return True
    return any(flip and word.count(i) % 2 == 1 for i, flip in enumerate(flips))


def _reference_structure(n, cap, even_overall, flips, terms):
    """Plain per-word loop over canonical words, the oracle for _build_structure.

    For each canonical v = x_i w: the splits of w at the letter i and the
    couplings tau(w * gw) of the gradient terms (i, gw) whose word stays
    within the cap.
    """
    def index_of(word):
        if _killed_by_symmetry(word, even_overall, flips):
            return None
        return index[canonical_word(word)]

    words = [()] + [w for length in range(1, cap + 1)
                    for w in sd._enumerate_canonical(n, length)
                    if not _killed_by_symmetry(w, even_overall, flips)]
    index = {w: k for k, w in enumerate(words)}
    pair_lists, coupling_lists = [[]], [[]]
    for v in words[1:]:
        i, w = v[0], v[1:]
        pairs = []
        for pos, letter in enumerate(w):
            if letter == i:
                a, b = index_of(w[:pos]), index_of(w[pos + 1:])
                if a is not None and b is not None:
                    pairs.append((a, b))
        coups = []
        for t_i, gw in terms:
            if t_i != i:
                continue
            if len(w + gw) > cap:
                continue
            j = index_of(w + gw)
            if j is not None:
                coups.append((i, gw, j))
        pair_lists.append(pairs)
        coupling_lists.append(coups)
    return words, pair_lists, coupling_lists


STRUCTURE_CASES = [
    (1, 44, {(0,) * 4: 0.05}),
    (2, 18, {(0,) * 4: 0.02, (1,) * 4: 0.02}),
    (2, 16, {(0,) * 4: 0.02, (1,) * 4: 0.02, (0, 1, 0, 1): 0.01, (1, 0, 1, 0): 0.01}),
    (2, 12, {(0, 1): 0.05, (1, 0): 0.05, (0,) * 4: 0.01}),
    (3, 10, {(0,) * 4: 0.02, (1, 1, 2, 2): 0.01, (2, 2, 1, 1): 0.01,
             (1, 2, 2, 1): 0.01, (2, 1, 1, 2): 0.01}),
]


@pytest.mark.parametrize("n,cap,terms", STRUCTURE_CASES)
def test_build_structure_matches_per_word_loop(n, cap, terms):
    W = NCSeries(n, 4, terms)
    key = (n, cap, W.is_even(), tuple(sd._variable_parities(W)), _gradient_terms(W))
    st = sd._build_structure(*key)
    words, pair_lists, coupling_lists = _reference_structure(*key)
    # the word of each row, read back from the per-length class -> row index
    row_words = [None] * len(st.lengths)
    for length in range(cap + 1):
        rows = st.index[st.bounds[length]:st.bounds[length + 1]]
        for w, r in zip(sd._enumerate_canonical(n, length), rows):
            if r >= 0:
                row_words[r] = w
    assert row_words == words
    assert st.lengths.tolist() == [len(w) for w in words]
    pairs = [[] for _ in words]
    for r, a, b in zip(st.pair_rows, st.pair_left, st.pair_right):
        pairs[r].append((a, b))
    coups = [[] for _ in words]
    for r, t, j in zip(st.coup_rows, st.coup_terms, st.coup_targets):
        coups[r].append((*st.terms[t], j))
    assert pairs == pair_lists
    assert coups == coupling_lists


def _reference_gauss_seidel(W, cap, cutoff=3.0, tol=1e-12, damping=0.5):
    """Damped Gauss-Seidel sweeps in increasing degree over the oracle structure."""
    grads = [cyclic_gradient(W, i) for i in range(W.n_vars)]
    words, pair_lists, coupling_lists = _reference_structure(
        W.n_vars, cap, W.is_even(), sd._variable_parities(W), _gradient_terms(W))
    vals = [1.0] + [0.0] * (len(words) - 1)
    for k in range(1, len(words)):
        vals[k] = sum(vals[a] * vals[b] for a, b in pair_lists[k])
    for _ in range(2000):
        delta = 0.0
        for k in range(1, len(words)):
            rhs = sum(vals[a] * vals[b] for a, b in pair_lists[k])
            rhs -= sum(grads[i].terms[gw] * vals[j] for i, gw, j in coupling_lists[k])
            new = (1.0 - damping) * vals[k] + damping * rhs
            delta = max(delta, abs(new - vals[k]) / cutoff ** len(words[k]))
            vals[k] = new
        if delta < tol:
            return dict(zip(words[1:], vals[1:]))
    raise AssertionError("reference sweeps did not converge")


@pytest.mark.parametrize("n,cap,terms", [
    (1, 40, {(0,) * 4: 0.05}),
    (2, 14, {(0,) * 4: 0.02, (1,) * 4: 0.02, (0, 1, 0, 1): 0.01, (1, 0, 1, 0): 0.01}),
    (2, 12, {(0, 1): 0.05, (1, 0): 0.05, (0,) * 4: 0.01}),
])
def test_solve_sd_matches_gauss_seidel_reference(n, cap, terms):
    W = NCSeries(n, 4, terms)
    tab = sd.solve_sd(W, cap)
    ref = _reference_gauss_seidel(W, cap)
    # the reference's words laid out as class arrays, killed classes at 0
    ref_values = [np.zeros(len(sd._enumerate_canonical(n, length))) for length in range(cap + 1)]
    ref_values[0][0] = 1.0
    for w, v in ref.items():
        ref_values[len(w)][sd._enumerate_canonical(n, len(w)).index(w)] = v
    assert [len(v) for v in tab.values] == [len(v) for v in ref_values]
    killed = [np.flatnonzero(v == 0.0) for v in ref_values]
    assert all((tab.values[length][k] == 0.0).all() for length, k in enumerate(killed))
    assert max(float(np.abs(a - b).max()) / 3.0 ** length
               for length, (a, b) in enumerate(zip(tab.values, ref_values))) <= 1e-11


@pytest.mark.parametrize("n,cap,terms,extra", [
    (1, 30, {(0,) * 4: 0.05}, [(0, 0), (0,) * 6]),
    (2, 14, {(0,) * 4: 0.02, (1,) * 4: 0.02, (0, 1, 0, 1): 0.01, (1, 0, 1, 0): 0.01},
     [(0, 0), (1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)]),
    (3, 8, {(0,) * 4: 0.02, (1, 1, 2, 2): 0.01, (2, 2, 1, 1): 0.01,
            (1, 2, 2, 1): 0.01, (2, 1, 1, 2): 0.01}, [(0, 0), (2, 2, 2, 2), (0, 1, 0, 1)]),
])
def test_support_hint_of_zero_words_leaves_the_table_unchanged(n, cap, terms, extra):
    # the hint's words enter the cached support with coefficient 0
    W = NCSeries(n, 4, terms)
    hint = NCSeries(n, 6, {w: 1.0 for w in extra})
    plain = sd.solve_sd(W, cap)
    hinted = sd.solve_sd(W, cap, support_hint=hint)
    assert [len(v) for v in hinted.values] == [len(v) for v in plain.values]
    assert all(np.array_equal(a, b) for a, b in zip(hinted.values, plain.values))
    assert sd._support(n, 4, W.ranks.tobytes())[2] == _gradient_terms(W)
    # the cached letter-to-term map sums each term's coefficient as
    # cyclic_gradient does, to the last bit
    ranks = np.union1d(W.ranks, hint.truncate(4).ranks)
    _, _, terms, support, _, word, letter_terms = sd._support(n, 4, ranks.tobytes())
    c = np.zeros(len(support))
    c[np.searchsorted(support, W.ranks)] = W.coeffs
    summed = np.bincount(letter_terms, c[word], minlength=len(terms))
    assert summed.tolist() == [cyclic_gradient(W, i).coeff(gw) for i, gw in terms]


def test_solve_sd_rejects_a_w_that_is_not_self_adjoint():
    # the check reads each word's reversal off the cached support, with or
    # without a hint, and agrees with NCSeries.is_selfadjoint
    hint = NCSeries(2, 4, {(0, 1, 1, 1): 1.0, (1, 1, 1, 0): 1.0, (0, 0): 1.0})
    for terms, adjoint in (({(0, 1, 1, 1): 0.01}, False),
                           ({(0, 1, 1, 1): 0.01, (1, 1, 1, 0): 0.02}, False),
                           ({(0, 1, 1, 1): 0.01, (1, 1, 1, 0): 0.01}, True),
                           ({(0, 0, 1, 1): 0.01}, False),
                           ({(0, 1, 1, 0): 0.01}, True),
                           ({(0, 0, 1): 0.01, (1, 0, 0): 0.01}, True),
                           ({(0, 0, 1): 0.01, (1, 0, 0): 0.01, (0, 1, 0): -1e-3}, True),
                           ({(0, 0, 1): 0.01}, False)):
        W = NCSeries(2, 4, {(0, 0, 0, 0): 0.05, (1, 1, 1, 1): 0.05, **terms})
        assert W.is_selfadjoint() == adjoint
        for support_hint in (None, hint):
            if adjoint:
                sd.solve_sd(W, 8, support_hint=support_hint)
            else:
                with pytest.raises(InvalidInputError, match="self-adjoint"):
                    sd.solve_sd(W, 8, support_hint=support_hint)
