"""Truncated Schwinger-Dyson moment solver.

Computes the trace of the free Gibbs law with potential
(1/2)|X|^2 + W as the fixed point of the moment recursion

    tau(x_i w) = (tau (x) tau)(d_i w) - tau(w * D_i W),

over canonical cyclic words (indexed by base-n integer codes) up to a degree
cap, by damped Jacobi sweeps of the whole moment vector from the free
semicircular family, clamped to the cutoff ball |tau(w)| <= T^|w|.  Equations
that would reference moments above the cap drop those terms; the dropped
coefficient mass is reported as a tail estimate.
"""

from __future__ import annotations

import collections
import functools
import time

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .jsonio import JSONMixin
from .ncseries import (NCSeries, _canonical_classes, _code, _digits, _positions, _series,
                       _split, _word_ranks, _word_tuples, cyclic_gradient, multiply)

DEFAULT_CUTOFF = 3.0
# sweep budget, Jacobi damping and step tolerance of solve_sd
MAX_SWEEPS = 2000
DAMPING = 0.5
SD_TOL = 1e-12


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


class TraceTable(JSONMixin):
    """Trace values on canonical cyclic words up to a degree cap.

    ``values[L]`` holds tau on the canonical classes of length L, in the order
    of ``_canonical_classes(n, L)``; ``values[0]`` is [1.0] and classes killed
    by a symmetry of the potential hold 0.  A word is looked up by its code.
    """

    def __init__(self, n_vars, degree_cap, cutoff, values, tail_estimate=0.0):
        self.n_vars = int(n_vars)
        self.degree_cap = int(degree_cap)
        self.cutoff = float(cutoff)
        self.values = [np.asarray(v, dtype=float) for v in values]
        self.tail_estimate = float(tail_estimate)
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

    def to_dict(self):
        # exact zeros are implied, so only the nonzero classes are written
        items = [{"word": [i + 1 for i in _enumerate_canonical(self.n_vars, length)[k]],
                  "value": float(vals[k])}
                 for length, vals in enumerate(self.values[1:], start=1)
                 for k in np.flatnonzero(vals)]
        return {"n_vars": self.n_vars, "degree_cap": self.degree_cap,
                "cutoff": self.cutoff, "values": items}

    @classmethod
    def from_dict(cls, d):
        n, cap = int(d["n_vars"]), int(d["degree_cap"])
        values = [np.ones(1)] + [np.zeros(len(_canonical_classes(n, length)[0]))
                                 for length in range(1, cap + 1)]
        for item in d.get("values", []):
            w = tuple(int(i) - 1 for i in item["word"])
            valid = 0 < len(w) <= cap and all(0 <= i < n for i in w)
            reps, inv = _canonical_classes(n, len(w) if valid else 0)
            # a canonical word's code is the representative of its class
            if not (valid and reps[inv[_code(w, n)]] == _code(w, n)):
                raise InvalidInputError("trace table words must be canonical, with 1 to "
                                        "degree_cap letters in 1..n_vars")
            values[len(w)][inv[_code(w, n)]] = float(item["value"])
        return cls(n, cap, d["cutoff"], values)


def noncrossing_pair_count(word):
    """Brute-force count of non-crossing pairings matching equal letters.

    Independent oracle for the moments of a free semicircular family; only
    intended for short words.
    """
    word = tuple(word)
    if len(word) % 2 == 1:
        return 0

    def rec(w):
        if not w:
            return 1
        first = w[0]
        total = 0
        for j in range(1, len(w)):
            if w[j] == first:
                total += rec(w[1:j]) * rec(w[j + 1:])
        return total

    return rec(word)


# Equations of the canonical words v = x_i w that no symmetry kills, one row
# each: index[bounds[L] + k] is the row of canonical class k of length L, -1 if
# killed, and rows run over the live classes by length, then class.  Row
# pair_rows[k] gets the split of w at a letter i into rows pair_left[k],
# pair_right[k]; row coup_rows[k] gets tau(w * gw) = row coup_targets[k] for the
# term terms[coup_terms[k]] = (i, gw) of D_i W.  Rows are sorted by word, then
# split position or term order.  dropped[t] counts the equations whose term t
# exceeds the cap; start is the free semicircular family.
_Structure = collections.namedtuple("_Structure", "index bounds lengths start pair_rows pair_left "
                                   "pair_right terms coup_rows coup_terms coup_targets dropped")


@functools.lru_cache(maxsize=64)
def _support(n, max_degree, ranks):
    """Of a word support given as int64 rank bytes: whether it is even, its
    flip symmetries, its gradient terms (i, gw) by variable and then word,
    and each variable's gw ranks."""
    support = _series(n, max_degree, np.frombuffer(ranks, dtype=np.int64),
                      np.ones(len(ranks) // 8))
    terms, term_ranks = [], []
    for i in range(n):
        words = sorted(_word_tuples(cyclic_gradient(support, i).ranks, n))
        terms += [(i, gw) for gw in words]
        term_ranks.append(_word_ranks(words, n))
        term_ranks[-1].flags.writeable = False
    return support.is_even(), tuple(_variable_parities(support)), tuple(terms), tuple(term_ranks)


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
    dropped = np.zeros(len(terms), dtype=np.int64)
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
            sel = first == i
            if m + len(gw) > cap:
                dropped[t] += np.count_nonzero(sel)
                continue
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
                      pair_right, terms, coup_rows, coup_terms, coup_targets, dropped)


def solve_sd(W, degree_cap, cutoff=DEFAULT_CUTOFF, init=None, support_hint=None):
    """Solve the bounded Schwinger-Dyson equation for potential (1/2)|X|^2 + W.

    Damped Jacobi sweeps: each sweep evaluates the right-hand side of every
    word's equation from the current vector at once, starting from the free
    semicircular family (exact for W = 0) or from ``init``, until a step is
    below SD_TOL in the cutoff-weighted sup norm.  Raises ConvergenceError
    when MAX_SWEEPS sweeps do not get there or the cutoff clamp is active on
    the last sweep.  The returned table carries a ``diagnostics`` dict.

    ``support_hint``: a series whose words are treated as present in W with
    zero coefficient, so repeated solves over a family of potentials with
    varying coefficients share one support: its parities and gradient terms
    are derived once, and its equation structure is built once.  A call
    then only reads W's gradient coefficients onto those terms.
    """
    t0 = time.perf_counter()
    if W.n_vars < 1:
        raise InvalidInputError("need at least one variable")
    if not W.is_selfadjoint(tol=0.0):
        raise InvalidInputError("perturbation W must be self-adjoint")
    if cutoff <= 2.0:
        raise InvalidInputError("cutoff must exceed 2")
    n = W.n_vars
    ranks = W.ranks if support_hint is None else np.union1d(W.ranks, support_hint.ranks)
    even_overall, flips, terms, term_ranks = _support(n, W.max_degree, ranks.tobytes())
    hits = _build_structure.cache_info().hits
    st = _build_structure(n, degree_cap, even_overall, flips, terms)
    cache = "hit" if _build_structure.cache_info().hits > hits else "miss"

    # one rank lookup per variable: each term's coefficient in D_i W, or 0
    grads = [cyclic_gradient(W, i) for i in range(n)]
    coeffs = np.concatenate([np.where(g.ranks == r[:, None], g.coeffs, 0.0).sum(axis=1)
                             for g, r in zip(grads, term_ranks)])
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
    caps = cutoff ** st.lengths
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
    clamp_active = bool((clamped != new).any())
    if clamp_active:
        raise ConvergenceError("outside perturbative regime: cutoff bound persistently active")

    tail = cutoff ** (degree_cap + 1) * float(np.abs(coeffs) @ st.dropped)
    # killed classes (row -1) read the appended 0
    flat = np.append(vals, 0.0)[st.index]
    table = TraceTable(n, degree_cap, cutoff,
                       [flat[a:b] for a, b in zip(st.bounds, st.bounds[1:])],
                       tail_estimate=tail)
    table.diagnostics = {"iterations": sweeps, "residual": delta, "converged": True,
                         "clamp_active": clamp_active, "tail_estimate": tail,
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
    return TraceTable(n, degree_cap, tau.cutoff,
                      [np.ones(1)] + [flat[a:b] for a, b in zip(bounds, bounds[1:])],
                      tail_estimate=tau.tail_estimate)


def _trace_words(tau, f, words):
    """tau of each word of ``words`` with f_i substituted for letter i.

    The words are expanded in lexicographic order, so each product starts
    from that of the common prefix with the previous word, and every word's
    product is the same left-to-right chain of ``multiply`` calls whatever
    the list holds.
    """
    cap = tau.degree_cap
    comps = [comp.truncate(cap) for comp in f]
    # prods[k] is the product of the first k letters of word
    word, prods = (), [NCSeries.constant(1.0, tau.n_vars, cap)]
    out = np.zeros(len(words))
    for k in sorted(range(len(words)), key=words.__getitem__):
        w = words[k]
        common = 0
        while common < min(len(word), len(w)) and word[common] == w[common]:
            common += 1
        del prods[common + 1:]
        for letter in w[common:]:
            prods.append(multiply(prods[-1], comps[letter], cap))
        word = w
        out[k] = tau.of_series(prods[-1])
    return out
