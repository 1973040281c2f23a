"""Truncated Schwinger-Dyson moment solver.

Computes the trace of the free Gibbs law with potential
(1/2)|X|^2 + W as the fixed point of the moment recursion

    tau(x_i w) = (tau (x) tau)(d_i w) - tau(w * D_i W),

iterated over canonical cyclic words up to a degree cap, starting from the
free semicircular family and clamped to the cutoff ball |tau(w)| <= T^|w|.
Equations that would reference moments above the cap drop those terms; the
dropped coefficient mass is reported as a tail estimate.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .ncseries import NCSeries, cyclic_gradient, multiply

DEFAULT_CUTOFF = 3.0


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


def _variable_parities(W):
    """For each variable, whether W is invariant under flipping its sign.

    When the flip symmetry holds for variable i, every moment of a word with
    an odd count of letter i vanishes; those words are dropped structurally.
    """
    n = W.n_vars
    flips = []
    for i in range(n):
        flips.append(all(w.count(i) % 2 == 0 for w in W.terms))
    return flips


def _killed_by_symmetry(word, even_overall, flips):
    if even_overall and len(word) % 2 == 1:
        return True
    for i, flip in enumerate(flips):
        if flip and word.count(i) % 2 == 1:
            return True
    return False


@functools.lru_cache(maxsize=None)
def _enumerate_canonical(n, length):
    """Canonical representatives of all words of given length, via integer codes."""
    if length == 0:
        return ((),)
    if n == 1:
        return (tuple([0] * length),)
    count = n ** length
    digits = np.zeros((count, length), dtype=np.int8)
    codes = np.arange(count)
    rem = codes.copy()
    for pos in range(length - 1, -1, -1):
        digits[:, pos] = rem % n
        rem //= n
    powers = n ** np.arange(length - 1, -1, -1, dtype=np.int64)
    best = codes.astype(np.int64)
    for j in range(1, length):
        rot = np.concatenate([digits[:, j:], digits[:, :j]], axis=1)
        np.minimum(best, rot @ powers, out=best)
    rdig = digits[:, ::-1]
    for j in range(length):
        rot = np.concatenate([rdig[:, j:], rdig[:, :j]], axis=1)
        np.minimum(best, rot @ powers, out=best)
    reps = np.unique(best)
    out = []
    for code in reps:
        w = []
        c = int(code)
        for _ in range(length):
            w.append(c % n)
            c //= n
        out.append(tuple(reversed(w)))
    return tuple(out)


class TraceTable:
    """Trace values on canonical cyclic words up to a degree cap."""

    def __init__(self, n_vars, degree_cap, cutoff, values, tail_estimate=0.0,
                 even_overall=False, flips=None):
        self.n_vars = int(n_vars)
        self.degree_cap = int(degree_cap)
        self.cutoff = float(cutoff)
        self.values = dict(values)
        self.tail_estimate = float(tail_estimate)
        self.even_overall = bool(even_overall)
        self.flips = list(flips) if flips is not None else [False] * n_vars

    def value(self, word):
        """tau(word); 0 for symmetry-killed words, None above the cap."""
        word = tuple(word)
        if len(word) > self.degree_cap:
            return None
        if not word:
            return 1.0
        if _killed_by_symmetry(word, self.even_overall, self.flips):
            return 0.0
        key = canonical_word(word)
        return self.values.get(key, 0.0)

    def of_series(self, series, strict=True):
        """Linear extension of the trace to a series."""
        total = 0.0
        for w, c in series.terms.items():
            v = self.value(w)
            if v is None:
                if strict:
                    raise InvalidInputError("series word exceeds the trace table cap")
                continue
            total += c * v
        return total

    def max_degree_words(self):
        return max((len(w) for w in self.values), default=0)

    def to_dict(self):
        items = sorted(self.values.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {
            "n_vars": self.n_vars,
            "degree_cap": self.degree_cap,
            "cutoff": self.cutoff,
            "values": [{"word": [i + 1 for i in w], "value": v} for w, v in items],
        }

    def to_json(self, path=None):
        text = json.dumps(self.to_dict())
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_dict(cls, d):
        values = {}
        for item in d.get("values", []):
            w = tuple(int(i) - 1 for i in item["word"])
            if w != canonical_word(w):
                raise InvalidInputError("trace table words must be canonical")
            values[w] = float(item["value"])
        return cls(d["n_vars"], d["degree_cap"], d["cutoff"], values)

    @classmethod
    def from_json(cls, text_or_path):
        try:
            d = json.loads(text_or_path)
        except (ValueError, TypeError):
            with open(text_or_path) as fh:
                d = json.load(fh)
        return cls.from_dict(d)


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


_STRUCTURE_CACHE = {}
_STRUCTURE_CACHE_LIMIT = 64


def _build_structure(W, cap, even_overall, flips):
    """Precompute index lists so each sweep is plain arithmetic.

    Returns (words, index, pair_lists, coupling_lists, dropped_words) where
    for each canonical word v = x_i w:
      pair_lists[k]  : list of (idxL, idxR) from splits of w at letter i,
      coupling_lists : list of (i, grad_word, idx) from tau(w * D_i W) terms.

    The structure depends only on the word support of W (not its
    coefficients), so it is cached; callers plug in current gradient
    coefficients each sweep.
    """
    n = W.n_vars
    grads = [cyclic_gradient(W, i) for i in range(n)]
    grad_support = tuple(tuple(sorted(g.terms.keys())) for g in grads)
    key = (n, cap, even_overall, tuple(flips), grad_support)
    if key in _STRUCTURE_CACHE:
        return _STRUCTURE_CACHE[key]

    words = [()]
    for length in range(1, cap + 1):
        for w in _enumerate_canonical(n, length):
            if not _killed_by_symmetry(w, even_overall, flips):
                words.append(w)
    index = {w: k for k, w in enumerate(words)}

    def idx_of(word):
        if _killed_by_symmetry(word, even_overall, flips):
            return None
        return index[canonical_word(word)]

    pair_lists = [None]
    coupling_lists = [None]
    dropped_words = []
    for v in words[1:]:
        i, w = v[0], v[1:]
        pairs = []
        for pos, letter in enumerate(w):
            if letter == i:
                l_idx = idx_of(w[:pos])
                r_idx = idx_of(w[pos + 1:])
                if l_idx is not None and r_idx is not None:
                    pairs.append((l_idx, r_idx))
        coup = []
        for gw in grads[i].terms:
            full = w + gw
            if len(full) > cap:
                dropped_words.append((i, gw))
                continue
            j = idx_of(full)
            if j is not None:
                coup.append((i, gw, j))
        pair_lists.append(pairs)
        coupling_lists.append(coup)
    result = (words, index, pair_lists, coupling_lists, dropped_words)
    if len(_STRUCTURE_CACHE) >= _STRUCTURE_CACHE_LIMIT:
        _STRUCTURE_CACHE.pop(next(iter(_STRUCTURE_CACHE)))
    _STRUCTURE_CACHE[key] = result
    return result


def solve_sd(W, degree_cap, cutoff=DEFAULT_CUTOFF, tol=1e-12, max_sweeps=2000,
             damping=0.5, init=None, support_hint=None):
    """Solve the bounded Schwinger-Dyson equation for potential (1/2)|X|^2 + W.

    Damped Gauss-Seidel sweeps in order of increasing degree, initialized at
    the free semicircular family (exact for W = 0).  Raises ConvergenceError
    when the sweep budget is exhausted or the cutoff clamp stays active.

    ``support_hint``: extra potential words treated as present with zero
    coefficient, so repeated solves over a family of potentials with varying
    coefficients share one cached equation structure.
    """
    if W.n_vars < 1:
        raise InvalidInputError("need at least one variable")
    if not W.is_selfadjoint(tol=0.0):
        raise InvalidInputError("perturbation W must be self-adjoint")
    if cutoff <= 2.0:
        raise InvalidInputError("cutoff must exceed 2")
    W_support = W
    if support_hint:
        sup_terms = {tuple(w): 1.0 for w in support_hint}
        for w in W.terms:
            sup_terms[w] = 1.0
        W_support = NCSeries(W.n_vars, W.max_degree, sup_terms)
    even_overall = W_support.is_even()
    flips = _variable_parities(W_support)
    words, index, pairs, coups, dropped = _build_structure(W_support, degree_cap,
                                                           even_overall, flips)
    grads = [cyclic_gradient(W, i) for i in range(W.n_vars)]
    nwords = len(words)
    vals = np.zeros(nwords)
    vals[0] = 1.0
    # ascending exact sweep with couplings off = free semicircular family
    for k in range(1, nwords):
        vals[k] = sum(vals[a] * vals[b] for a, b in pairs[k])
    if init is not None:
        for k, w in enumerate(words[1:], start=1):
            v = init.value(w)
            if v is not None:
                vals[k] = v

    coup_num = [None] + [[(grads[i].terms.get(gw, 0.0), j) for i, gw, j in coups[k]]
                         for k in range(1, nwords)]
    caps = np.array([cutoff ** len(w) for w in words])
    clamp_active = False
    for sweep in range(max_sweeps):
        # convergence is measured in the cutoff-weighted sup norm, the metric
        # of the bounded-moment space |tau(w)| <= T^|w|
        delta = 0.0
        clamp_active = False
        for k in range(1, nwords):
            rhs = sum(vals[a] * vals[b] for a, b in pairs[k])
            for c, j in coup_num[k]:
                rhs -= c * vals[j]
            new = (1.0 - damping) * vals[k] + damping * rhs
            if abs(new) > caps[k]:
                new = math.copysign(caps[k], new)
                clamp_active = True
            delta = max(delta, abs(new - vals[k]) / caps[k])
            vals[k] = new
        if delta < tol:
            break
    else:
        raise ConvergenceError("Schwinger-Dyson sweeps did not converge")
    if clamp_active:
        raise ConvergenceError("outside perturbative regime: cutoff bound persistently active")

    table = {w: float(vals[k]) for k, w in enumerate(words) if k > 0}
    dropped_mass = sum(abs(grads[i].terms.get(gw, 0.0)) for i, gw in dropped)
    tail = cutoff ** (degree_cap + 1) * dropped_mass
    return TraceTable(W.n_vars, degree_cap, cutoff, table, tail_estimate=tail,
                      even_overall=even_overall, flips=flips)


def sd_residual(tau, W, degree_cap=None):
    """Max violation of tau(P (x_i + D_i W)) = (tau (x) tau)(d_i P).

    Scans all canonical monomials P with |P| small enough that every term
    stays inside the table cap.
    """
    cap = tau.degree_cap if degree_cap is None else degree_cap
    n = tau.n_vars
    grads = [cyclic_gradient(W, i) for i in range(n)]
    deg_d = max((g.degree() for g in grads), default=0)
    p_max = cap - max(1, deg_d)
    worst = 0.0
    for length in range(0, p_max + 1):
        for p in _enumerate_canonical(n, length):
            for i in range(n):
                lhs = tau.value(p + (i,))
                for gw, gc in grads[i].terms.items():
                    v = tau.value(p + gw)
                    if v is None:
                        continue
                    lhs += gc * v
                rhs = 0.0
                for pos, letter in enumerate(p):
                    if letter == i:
                        rhs += tau.value(p[:pos]) * tau.value(p[pos + 1:])
                worst = max(worst, abs(lhs - rhs))
    return worst


def pushforward_trace(tau, f, degree_cap):
    """Trace of the law of (f_1(X), ..., f_n(X)) under tau, up to degree_cap.

    Each requested word is expanded by substituting the map components and
    truncating at the table cap; components must have zero constant term.
    """
    n = tau.n_vars
    if len(f) != n:
        raise InvalidInputError("need one map component per variable")
    for comp in f:
        if comp.coeff(()) != 0.0:
            raise InvalidInputError("map components must have zero constant term")
    if degree_cap > tau.degree_cap:
        raise InvalidInputError("output degree cap exceeds the trace table cap")
    inner_cap = tau.degree_cap
    comps = [comp.truncate(inner_cap) for comp in f]
    one = NCSeries.constant(1.0, n, inner_cap)

    values = {}
    for length in range(1, degree_cap + 1):
        for w in _enumerate_canonical(n, length):
            prod = one
            for letter in w:
                prod = multiply(prod, comps[letter], inner_cap)
                if not prod.terms:
                    break
            values[w] = tau.of_series(prod, strict=False)
    even = all(abs(v) < 1e-300 for w, v in values.items() if len(w) % 2 == 1)
    return TraceTable(n, degree_cap, tau.cutoff, values, tail_estimate=tau.tail_estimate,
                      even_overall=even, flips=[False] * n)

