"""Truncated Schwinger-Dyson moment solver.

Computes the trace of the free Gibbs law with potential
(1/2)|X|^2 + W as the fixed point of the moment recursion

    tau(x_i w) = (tau (x) tau)(d_i w) - tau(w * D_i W),

over canonical cyclic words (indexed by base-n integer codes) up to a degree
cap, by damped Jacobi sweeps of the whole moment vector from the free
semicircular family, clamped to the cutoff ball |tau(w)| <= T^|w|.  Equations
that would reference moments above the cap drop those terms.
"""

from __future__ import annotations

import collections
import functools
import time

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .ncseries import (_code, _digits, _positions, _ranks, _series, _split, _word_products,
                       _word_tuples, cyclic_gradient)

# the radius T of the bounded-moment ball |tau(w)| <= T^|w|
CUTOFF = 3.0
# sweep budget, Jacobi damping and step tolerance of solve_sd
MAX_SWEEPS = 2000
DAMPING = 0.5
SD_TOL = 1e-12


def _reversed_codes(n, length):
    """Code of the reversed word for every base-n word code of a length.

    A word hi.lo reverses to rev(lo).rev(hi), so each length is built from
    the tables of its two halves.
    """
    codes = np.arange(n ** length, dtype=np.int64)
    if length <= 1:
        return codes
    half = length // 2
    hi, lo = np.divmod(codes, n ** half)
    return (_reversed_codes(n, half)[lo] * n ** (length - half)
            + _reversed_codes(n, length - half)[hi])


def _canonical_codes(n, length):
    """Least code among the rotations of each word code of a length and of its reversal.

    Word w_1..w_L has code sum_k w_k n^(L-k): codes of one length order like words.
    best[c] is the least code among the first ``span`` rotations of c; it is
    built by doubling, from best_{a+b}(c) = min(best_a(c), best_b(rot_a(c))).
    """
    codes = np.arange(n ** length, dtype=np.int64)

    def rotated(shift):
        # every code with its ``shift`` leading letters moved to the end
        head, rest = np.divmod(codes, n ** (length - shift))
        return rest * n ** shift + head

    best, span = codes, 1
    for bit in bin(length)[3:]:
        best = np.minimum(best, best[rotated(span)])
        span *= 2
        if bit == "1":
            best = np.minimum(best, rotated(span))
            span += 1
    return np.minimum(best, best[_reversed_codes(n, length)])


@functools.lru_cache(maxsize=None)
def _canonical_classes(n, length):
    """Sorted canonical codes of a length, and each code's index among them.

    A canonical code is its own canonical code, so the codes c with
    best[c] == c are the classes in order, and a running count numbers them.
    """
    best = _canonical_codes(n, length)
    is_rep = best == np.arange(len(best))
    reps = np.flatnonzero(is_rep)
    inv = (np.cumsum(is_rep) - 1)[best]
    reps.flags.writeable = inv.flags.writeable = False
    return reps, inv


def _variable_parities(W):
    """For each variable, whether W is invariant under flipping its sign.

    When the flip symmetry holds for variable i, every moment of a word with
    an odd count of letter i vanishes; those words are dropped structurally.
    """
    word, _, _, _, letter, _ = _positions(W)
    counts = np.zeros((len(W.ranks), W.n_vars), dtype=np.int64)
    np.add.at(counts, (word, letter), 1)
    return (counts % 2 == 0).all(axis=0).tolist()


@functools.lru_cache(maxsize=None)
def _enumerate_canonical(n, length):
    """Canonical representatives of all words of given length, via integer codes."""
    reps = _canonical_classes(n, length)[0]
    return tuple(map(tuple, _digits(reps, n, length).tolist()))


class TraceTable:
    """Trace values on canonical cyclic words up to a degree cap.

    ``values[L]`` holds tau on the canonical classes of length L, in the order
    of ``_canonical_classes(n, L)``; ``values[0]`` is [1.0] and classes killed
    by a symmetry of the potential hold 0.  A word is looked up by its code.
    """

    def __init__(self, n_vars, degree_cap, values):
        self.n_vars = int(n_vars)
        self.degree_cap = int(degree_cap)
        self.values = [np.asarray(v, dtype=float) for v in values]
        self.diagnostics = {}

    def at(self, length, codes):
        """tau on the words of one length with these codes."""
        return self.values[length][_canonical_classes(self.n_vars, length)[1][codes]]

    def value(self, word):
        """tau(word); None above the cap."""
        if len(word) > self.degree_cap:
            return None
        return float(self.at(len(word), _code(word, self.n_vars)))

    def of_series(self, series):
        """Linear extension of the trace to a series; words above the cap count 0."""
        lengths, codes = _split(series.ranks, self.n_vars)
        # ranks sort by length, so the words of each length are a slice
        starts = [0] + (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()
        total = 0.0
        for length, lo, hi in zip(lengths[starts].tolist(), starts, starts[1:] + [len(lengths)]):
            if length > self.degree_cap:
                break
            total += series.coeffs[lo:hi] @ self.at(length, codes[lo:hi])
        return float(total)


# Equations of the canonical words v = x_i w that no symmetry kills, one row
# each: index[bounds[L] + k] is the row of canonical class k of length L, -1 if
# killed, and rows run over the live classes by length, then class.  Row
# pair_rows[k] gets the split of w at a letter i into rows pair_left[k],
# pair_right[k]; row coup_rows[k] gets tau(w * gw) = row coup_targets[k] for the
# term terms[coup_terms[k]] = (i, gw) of D_i W.  Rows are sorted by word, then
# split position or term order; start is the free semicircular family.
_Structure = collections.namedtuple("_Structure", "index bounds lengths start pair_rows pair_left "
                                   "pair_right terms coup_rows coup_terms coup_targets")


@functools.lru_cache(maxsize=64)
def _support(n, max_degree, ranks):
    """Of a word support given as int64 rank bytes: whether it is even, its
    flip symmetries, its gradient terms (i, gw) by variable and then word,
    its ranks under ``max_degree``, the index among them of each word's
    reversal (-1 outside them), and for every letter of every word, flat as
    in ``_positions``, the word's index and its term's: the gradient term
    coefficients are the words' coefficients summed by term in that order,
    as ``cyclic_gradient`` sums them.  The arrays are read-only."""
    support = _series(n, max_degree, np.frombuffer(ranks, dtype=np.int64),
                      np.ones(len(ranks) // 8))
    word, length, pos, head, letter, rest = _positions(support)
    grad = _ranks(length - 1, rest * n ** pos + head, n)
    terms, letter_terms = [], np.zeros(len(word), dtype=np.int64)
    for i in range(n):
        hit = letter == i
        uniq, inv = np.unique(grad[hit], return_inverse=True)
        words = _word_tuples(uniq, n)
        order = sorted(range(len(words)), key=words.__getitem__)
        # the place of each gradient word among the variable's terms
        letter_terms[hit] = len(terms) + np.argsort(order).astype(np.int64)[inv]
        terms += [(i, words[k]) for k in order]
    codes = np.zeros(len(support.ranks), dtype=np.int64)
    np.add.at(codes, word, letter * n ** pos)
    mirrored = _ranks(_split(support.ranks, n)[0], codes, n)
    at = np.searchsorted(support.ranks, mirrored)
    reversal = np.where(np.append(support.ranks, -1)[at] == mirrored, at, -1)
    for a in (support.ranks, reversal, word, letter_terms):
        a.flags.writeable = False
    return (support.is_even(), tuple(_variable_parities(support)), tuple(terms),
            support.ranks, reversal, word, letter_terms)


def _orbits(n, length, even_overall, flips, perms):
    """Orbits of the canonical classes of one length under the letter
    permutations ``perms``: each live orbit's least code, in order, and the
    orbit of each class, -1 when it is of odd length and ``even_overall`` or
    has an odd count of a letter i with ``flips[i]``.  With no permutations
    the orbits are the live classes."""
    reps, inv = _canonical_classes(n, length)
    digits = _digits(reps, n, length)
    alive = np.full(len(reps), not (even_overall and length % 2 == 1))
    for i in np.flatnonzero(flips):
        alive &= (digits == i).sum(axis=1) % 2 == 0
    # classes order like their codes, so the least class is the least code
    least = np.arange(len(reps))
    for perm in perms:
        least = np.minimum(least, inv[perm[digits] @ n ** np.arange(length - 1, -1, -1)])
    heads, orbit = np.unique(least[alive], return_inverse=True)
    out = np.full(len(reps), -1, dtype=np.int64)
    out[alive] = orbit
    return reps[heads], out


@functools.lru_cache(maxsize=64)
def _build_structure(n, cap, even_overall, flips, terms):
    """Equation structure for gradient terms ``terms``, from integer word codes.

    The structure depends only on the word support of W (not its
    coefficients), so it is cached; callers plug in current gradient
    coefficients each solve.
    """
    # lookups[L][c]: row of the canonical word of code c, -1 if killed
    index, codes, lookups, nrows = [], [], [], 0
    for length in range(cap + 1):
        live, orbit = _orbits(n, length, even_overall, flips, ())
        rows = np.where(orbit >= 0, orbit + nrows, -1)
        nrows += len(live)
        index.append(rows)
        lookups.append(rows[_canonical_classes(n, length)[1]])
        codes.append(live)

    empty = np.zeros(0, dtype=np.int64)
    pairs, coups = [(empty,) * 3], [(empty,) * 3]
    for length in range(1, cap + 1):
        rows = lookups[length][codes[length]]
        m = length - 1
        first, w = np.divmod(codes[length], n ** m)
        for pos in range(m):
            left, tail = np.divmod(w, n ** (m - pos))
            letter, right = np.divmod(tail, n ** (m - pos - 1))
            a = lookups[pos][left]
            b = lookups[m - pos - 1][right]
            keep = (letter == first) & (a >= 0) & (b >= 0)
            pairs.append((rows[keep], a[keep], b[keep]))
        for t, (i, gw) in enumerate(terms):
            if m + len(gw) > cap:
                continue
            sel = first == i
            gcode = sum(letter * n ** k for k, letter in enumerate(reversed(gw)))
            j = lookups[m + len(gw)][w[sel] * n ** len(gw) + gcode]
            keep = j >= 0
            coups.append((rows[sel][keep], np.full(np.count_nonzero(keep), t), j[keep]))

    def by_row(parts):
        # parts were made per (length, position) and (length, term): a stable
        # sort by row keeps each word's own entries in position and term order
        rows, *cols = map(np.concatenate, zip(*parts))
        order = np.argsort(rows, kind="stable")
        return [a[order] for a in (rows, *cols)]

    pair_rows, pair_left, pair_right = by_row(pairs)
    coup_rows, coup_terms, coup_targets = by_row(coups)

    start = np.zeros(nrows)
    start[0] = 1.0
    # with couplings off each pass fixes the words one letter longer
    for _ in range(cap):
        start = np.bincount(pair_rows, start[pair_left] * start[pair_right],
                            minlength=nrows)
        start[0] = 1.0
    lengths = np.repeat(np.arange(cap + 1), [len(c) for c in codes])
    bounds = tuple(np.cumsum([0] + [len(rows) for rows in index]).tolist())
    return _Structure(np.concatenate(index), bounds, lengths, start, pair_rows, pair_left,
                      pair_right, terms, coup_rows, coup_terms, coup_targets)


def solve_sd(W, degree_cap, init=None, support_hint=None):
    """Solve the bounded Schwinger-Dyson equation for potential (1/2)|X|^2 + W.

    Damped Jacobi sweeps: each sweep evaluates the right-hand side of every
    word's equation from the current vector at once, starting from the free
    semicircular family (exact for W = 0) or from ``init``, until a step is
    below SD_TOL in the CUTOFF-weighted sup norm.  Raises ConvergenceError
    when MAX_SWEEPS sweeps do not get there or the cutoff clamp is active on
    the last sweep.  The returned table carries a ``diagnostics`` dict, whose
    ``residual`` is the last sweep's step, not the equation residual.

    ``support_hint``: a series whose words are treated as present in W with
    zero coefficient, so repeated solves over a family of potentials with
    varying coefficients share one support: its parities and gradient terms
    are derived once, and its equation structure is built once.  A call
    then only sums W's coefficients onto those terms and checks them against
    the reversal of each word.
    """
    t0 = time.perf_counter()
    if W.n_vars < 1:
        raise InvalidInputError("need at least one variable")
    n = W.n_vars
    ranks = W.ranks if support_hint is None else np.union1d(W.ranks, support_hint.ranks)
    even_overall, flips, terms, support, reversal, word, letter_terms = _support(
        n, W.max_degree, ranks.tobytes())
    # W's coefficients on the support; the last entry is the 0 that a
    # reversal outside the support reads
    c = np.zeros(len(support) + 1)
    c[np.searchsorted(support, W.ranks)] = W.coeffs
    if (c[:-1] - c[reversal] != 0.0).any():
        raise InvalidInputError("perturbation W must be self-adjoint")
    hits = _build_structure.cache_info().hits
    st = _build_structure(n, degree_cap, even_overall, flips, terms)
    cache = "hit" if _build_structure.cache_info().hits > hits else "miss"

    coeffs = np.bincount(letter_terms, c[word], minlength=len(terms))
    coup_coeffs = coeffs[st.coup_terms]
    vals = st.start.copy()
    if init is not None:
        if init.n_vars != n:
            raise InvalidInputError("warm-start table has the wrong number of variables")
        top = st.bounds[min(len(init.values), degree_cap + 1)]
        live = st.index[1:top] >= 0
        vals[st.index[1:top][live]] = np.concatenate(init.values)[1:top][live]

    # convergence is measured in the cutoff-weighted sup norm, the metric of
    # the bounded-moment space |tau(w)| <= T^|w|
    caps = CUTOFF ** st.lengths
    for sweeps in range(1, MAX_SWEEPS + 1):
        rhs = np.bincount(st.pair_rows, vals[st.pair_left] * vals[st.pair_right],
                          minlength=len(vals))
        rhs -= np.bincount(st.coup_rows, coup_coeffs * vals[st.coup_targets],
                           minlength=len(vals))
        new = (1.0 - DAMPING) * vals + DAMPING * rhs
        new[0] = 1.0
        clamped = np.minimum(np.maximum(new, -caps), caps)
        delta = float((np.abs(clamped - vals) / caps).max())
        vals = clamped
        if delta < SD_TOL:
            break
    else:
        raise ConvergenceError("Schwinger-Dyson sweeps did not converge")
    if (clamped != new).any():
        raise ConvergenceError("outside perturbative regime: cutoff bound persistently active")

    # killed classes (row -1) read the appended 0
    flat = np.append(vals, 0.0)[st.index]
    table = TraceTable(n, degree_cap, [flat[a:b] for a, b in zip(st.bounds, st.bounds[1:])])
    table.diagnostics = {"iterations": sweeps, "residual": delta, "converged": True,
                         "structure_cache": cache, "seconds": time.perf_counter() - t0}
    return table


def sd_residual(tau, W, degree_cap=None):
    """Max violation of tau(P (x_i + D_i W)) = (tau (x) tau)(d_i P).

    Scans all canonical monomials P with |P| small enough that every term
    stays inside the table cap, one length and letter at a time.
    """
    cap = tau.degree_cap if degree_cap is None else degree_cap
    n = tau.n_vars
    grads = [cyclic_gradient(W, i) for i in range(n)]
    deg_d = max((g.degree() for g in grads), default=0)
    p_max = cap - max(1, deg_d)
    worst = 0.0
    for length in range(0, p_max + 1):
        p = _canonical_classes(n, length)[0]
        letters = _digits(p, n, length)
        for i in range(n):
            lhs = tau.at(length + 1, p * n + i)
            for glen, gcode, gc in zip(*_split(grads[i].ranks, n), grads[i].coeffs):
                lhs = lhs + gc * tau.at(length + glen, p * n ** glen + gcode)
            # the splits P = head x_i rest at each position
            rhs = np.zeros(len(p))
            for pos in range(length):
                head, tail = np.divmod(p, n ** (length - pos))
                rest = tail % n ** (length - 1 - pos)
                hit = letters[:, pos] == i
                rhs[hit] += tau.at(pos, head[hit]) * tau.at(length - 1 - pos, rest[hit])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def pushforward_trace(tau, f, degree_cap):
    """Trace of the law of (f_1(X), ..., f_n(X)) under tau, up to degree_cap.

    Each canonical word is expanded by substituting the map components and
    truncating at the table cap; components must have zero constant term.
    The words go through ``_trace_words``, so a caller that needs only some
    of them gets the same values from it.
    """
    n = tau.n_vars
    if len(f) != n:
        raise InvalidInputError("need one map component per variable")
    for comp in f:
        if comp.coeff(()) != 0.0:
            raise InvalidInputError("map components must have zero constant term")
    if degree_cap > tau.degree_cap:
        raise InvalidInputError("output degree cap exceeds the trace table cap")
    words = [_enumerate_canonical(n, length) for length in range(1, degree_cap + 1)]
    flat = _trace_words(tau, f, [w for row in words for w in row])
    bounds = np.cumsum([0] + [len(row) for row in words])
    return TraceTable(n, degree_cap,
                      [np.ones(1)] + [flat[a:b] for a, b in zip(bounds, bounds[1:])])


def _trace_words(tau, f, words):
    """tau of each word of ``words`` with f_i substituted for letter i."""
    out = np.zeros(len(words))
    for k, prod in _word_products(f, words, tau.degree_cap):
        out[k] = tau.of_series(prod)
    return out
