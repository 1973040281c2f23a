"""Sparse noncommutative power series in n self-adjoint indeterminates.

A word w_1..w_L over the letters 0..n-1 has the base-n code
sum_k w_k n^(L-k), first letter most significant, and the shortlex rank
(n^L - 1)/(n - 1) + code, or L for n = 1: ranks order words by length, then
letter by letter.  A series holds the sorted ranks of its nonzero terms and
their coefficients, and is hard-truncated at its ``max_degree``; word tuples
appear only at its boundaries (the constructor, ``coeff``, JSON and
``terms``).  Tensors in M (x) M^op are dense blocks per bidegree on the same
codes, and right legs multiply in reversed order.  On top of the algebra sit
the cyclic gradient, the difference quotient, the Jacobian, the cyclic
symmetrization / number / projection operators, the weighted coefficient
norms, and the trace-contracted matrix logarithm used by the transport fixed
point.
"""

from __future__ import annotations

import functools

import numpy as np

from . import jsonio
from .errors import InvalidInputError


class NCSeries(jsonio.JSONWriter):
    """A real-coefficient noncommutative polynomial / truncated power series."""

    __slots__ = ("n_vars", "max_degree", "ranks", "coeffs")

    def __init__(self, n_vars, max_degree, terms=None):
        self.n_vars, self.max_degree = int(n_vars), int(max_degree)
        if self.n_vars < 1:
            raise InvalidInputError("need at least one variable")
        terms = {w: c for w, c in (terms or {}).items() if len(w) <= self.max_degree}
        self._store(_word_ranks(terms, self.n_vars), np.array(list(terms.values()), dtype=float))

    def _store(self, ranks, coeffs):
        """Hold the sum of the terms (ranks[k], coeffs[k]): equal ranks add in
        the order given, and words over the cap and zero sums drop out."""
        keep = _split(ranks, self.n_vars)[0] <= self.max_degree
        ranks, coeffs = ranks[keep], coeffs[keep]
        if (ranks[1:] <= ranks[:-1]).any():
            # a stable sort keeps equal ranks in the order given
            order = ranks.argsort(kind="stable")
            ranks, coeffs = ranks[order], coeffs[order]
            first = np.concatenate(([True], ranks[1:] != ranks[:-1]))
            ranks, coeffs = ranks[first], np.bincount(first.cumsum() - 1, coeffs)
        nonzero = coeffs != 0.0
        self.ranks, self.coeffs = ranks[nonzero], coeffs[nonzero]
        return self

    @property
    def terms(self):
        """The word -> coefficient dict, in shortlex order; built on each access."""
        return dict(zip(_word_tuples(self.ranks, self.n_vars), self.coeffs.tolist()))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n_vars, max_degree):
        return cls(n_vars, max_degree, {})

    @classmethod
    def constant(cls, value, n_vars, max_degree):
        return cls(n_vars, max_degree, {(): float(value)})

    @classmethod
    def variable(cls, i, n_vars, max_degree):
        if not 0 <= i < n_vars:
            raise InvalidInputError("variable index out of range")
        return cls(n_vars, max_degree, {(i,): 1.0})

    @classmethod
    def monomial(cls, word, coeff, n_vars, max_degree):
        return cls(n_vars, max_degree, {tuple(word): float(coeff)})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return _series(self.n_vars, min(self.max_degree, other.max_degree),
                       np.concatenate([self.ranks, other.ranks]),
                       np.concatenate([self.coeffs, other.coeffs]))

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        return _series(self.n_vars, self.max_degree, self.ranks, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if self.n_vars != other.n_vars:
            raise InvalidInputError("series over different variable counts")

    def coeff(self, word):
        """The coefficient of a word tuple, 0.0 when it is absent."""
        return float(self.coeffs[self.ranks == _word_ranks([word], self.n_vars)].sum())

    def degree(self):
        return int(_split(self.ranks[-1:], self.n_vars)[0].max(initial=0))

    def truncate(self, max_degree):
        return _series(self.n_vars, int(max_degree), self.ranks, self.coeffs)

    def is_even(self):
        return not (_split(self.ranks, self.n_vars)[0] % 2).any()

    def is_selfadjoint(self, tol=0.0):
        _, _, pos, _, letter, _ = _positions(self)
        mirrored = _recode(self, letter * self.n_vars ** pos)
        return bool((np.abs((self - mirrored).coeffs) <= tol).all())

    def __repr__(self):
        if not self.ranks.size:
            return "NCSeries(0)"
        parts = []
        for w, c in zip(_word_tuples(self.ranks[:8], self.n_vars), self.coeffs):
            mono = "*".join(f"x{i + 1}" for i in w) if w else "1"
            parts.append(f"{c:+.6g}*{mono}")
        more = "" if len(self.ranks) <= 8 else f" (+{len(self.ranks) - 8} terms)"
        return "NCSeries(" + " ".join(parts) + more + ")"

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        return {
            "n_vars": self.n_vars,
            "max_degree": self.max_degree,
            "terms": [{"word": [i + 1 for i in w], "coeff": c} for w, c in
                      zip(_word_tuples(self.ranks, self.n_vars), self.coeffs.tolist())],
        }

    @classmethod
    def from_dict(cls, d):
        """The series of a JSON object; InvalidInputError for a count, cap or
        letter that is not an integer, and for a word that the cap would drop."""
        n, cap = (jsonio.field(d, key, jsonio.integer) for key in ("n_vars", "max_degree"))
        terms = {}
        for item in jsonio.field(d, "terms", list, []):
            word = jsonio.field(item, "word", lambda w: tuple(jsonio.integer(i) - 1 for i in w))
            if any(i < 0 or i >= n for i in word):
                raise InvalidInputError(f"word {item['word']} has a letter outside 1..{n}")
            if len(word) > cap:
                raise InvalidInputError(f"word {item['word']} is longer than max_degree {cap}")
            coeff = jsonio.field(item, "coeff", float)
            if not np.isfinite(coeff):
                raise InvalidInputError(f"coefficient {coeff} of word {item['word']} is not finite")
            terms[word] = terms.get(word, 0.0) + coeff
        return cls(n, cap, terms)


# -- word ranks ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _offsets(n):
    """Rank (n^L - 1)/(n - 1) of the first word of each length L, for n >= 2: up to
    one past the longest words with a rank, those whose n^(L+1) fits int64."""
    top = 0
    while n ** (top + 2) <= np.iinfo(np.int64).max:
        top += 1
    offs = np.cumsum([0] + [n ** length for length in range(top + 1)])
    offs.flags.writeable = False
    return offs


def _ranks(lengths, codes, n):
    """Ranks of the words with these lengths and codes; InvalidInputError for a
    word too long for an int64 rank, whose code is not read (it may overflow)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if n == 1:
        return lengths
    if lengths.size and lengths.max() > len(_offsets(n)) - 2:
        raise InvalidInputError(f"a word of more than {len(_offsets(n)) - 2} letters in "
                                f"{n} variables has no int64 rank")
    return _offsets(n)[lengths] + np.asarray(codes, dtype=np.int64)


def _split(ranks, n):
    """Length and code of each rank."""
    if n == 1:
        return ranks, ranks * 0
    offs = _offsets(n)
    lengths = offs.searchsorted(ranks, side="right") - 1
    return lengths, ranks - offs[lengths]


def _word_ranks(words, n):
    """Ranks of word tuples."""
    words = [tuple(map(int, w)) for w in words]
    if any(not 0 <= letter < n for w in words for letter in w):
        raise InvalidInputError("word letter out of range")
    return _ranks([len(w) for w in words], [_code(w, n) for w in words], n)


def _word_tuples(ranks, n):
    """Word tuples of ranks."""
    lengths, codes = _split(ranks, n)
    top = int(lengths.max(initial=0))
    letters = _digits(codes, n, top).tolist()
    return [tuple(row[top - length:]) for row, length in zip(letters, lengths.tolist())]


def _series(n_vars, max_degree, ranks, coeffs):
    """The series of the terms (ranks[k], coeffs[k]), summed as in ``_store``."""
    f = NCSeries.__new__(NCSeries)
    f.n_vars, f.max_degree = n_vars, max_degree
    return f._store(ranks, coeffs)


def _positions(f):
    """Every letter of every word of f, flat in rank then position order: the
    word's index and length, the position, and the word split there as
    head.letter.rest, with ``pos`` letters in head."""
    n = f.n_vars
    lengths, codes = _split(f.ranks, n)
    word = np.repeat(np.arange(len(codes)), lengths)
    length = lengths[word]
    pos = np.arange(len(word)) - (np.cumsum(lengths) - lengths)[word]
    head, tail = np.divmod(codes[word], n ** (length - pos))
    letter, rest = np.divmod(tail, n ** (length - 1 - pos))
    return word, length, pos, head, letter, rest


def _recode(f, weights):
    """f with the code of each word replaced by the sum of ``weights`` over its
    letters, given flat as in ``_positions``."""
    codes = np.zeros(len(f.ranks), dtype=np.int64)
    np.add.at(codes, _positions(f)[0], weights)
    return _series(f.n_vars, f.max_degree, _ranks(_split(f.ranks, f.n_vars)[0], codes, f.n_vars),
                   f.coeffs)


def multiply(a, b, max_degree=None):
    """Concatenation product, truncated: one outer product of ranks and coefficients."""
    a._check(b)
    cap = min(a.max_degree, b.max_degree) if max_degree is None else max_degree
    n = a.n_vars
    la, ca = _split(a.ranks, n)
    lb, cb = _split(b.ranks, n)
    # pairs in a-major order, so each word sums its splits shortest prefix first
    ia, ib = np.nonzero(la[:, None] + lb <= cap)
    ranks = _ranks(la[ia] + lb[ib], ca[ia] * n ** lb[ib] + cb[ib], n)
    return _series(n, cap, ranks, a.coeffs[ia] * b.coeffs[ib])


def _word_products(args, words, cap):
    """Yield (k, product of args[i] over the letters i of words[k]), truncated at
    cap, for each word tuple.  The words go in lexicographic order, each product
    starting from that of the common prefix with the previous word, so a word's
    product is the same chain of ``multiply`` calls whatever the list holds."""
    args = [a.truncate(cap) for a in args]
    # prods[k] is the product of the first k letters of word
    word, prods = (), [NCSeries.constant(1.0, args[0].n_vars, cap)]
    for k in sorted(range(len(words)), key=words.__getitem__):
        w = words[k]
        common = 0
        while common < min(len(word), len(w)) and word[common] == w[common]:
            common += 1
        del prods[common + 1:]
        for letter in w[common:]:
            prods.append(multiply(prods[-1], args[letter], cap))
        word = w
        yield k, prods[-1]


def substitute(f, args, max_degree=None):
    """Evaluate f at the n-tuple ``args`` of series, truncating products.

    Stored series are always polynomials, so substitution is a finite sum
    even when arguments carry constant terms.
    """
    if len(args) != f.n_vars:
        raise InvalidInputError("need one substitution argument per variable")
    cap = f.max_degree if max_degree is None else max_degree
    # each word's terms in f's order, so equal ranks sum word by word
    terms = [(np.zeros(0, dtype=np.int64), np.zeros(0))] * (len(f.ranks) + 1)
    for k, prod in _word_products(args, _word_tuples(f.ranks, f.n_vars), cap):
        terms[k + 1] = prod.ranks, prod.coeffs * f.coeffs[k]
    return _series(args[0].n_vars, cap, *map(np.concatenate, zip(*terms)))


def cyclic_gradient(f, i):
    """Cyclic derivative in variable i: rotate each occurrence to the front and drop it."""
    word, length, pos, head, letter, rest = _positions(f)
    hit = letter == i
    ranks = _ranks(length[hit] - 1, (rest * f.n_vars ** pos + head)[hit], f.n_vars)
    return _series(f.n_vars, f.max_degree, ranks, f.coeffs[word[hit]])


# -- tensors over M (x) M^op ---------------------------------------------------------
#
# A tensor is a dict {(l, r): array of shape (n**l, n**r)}: entry [a, b] is the
# coefficient of left word code a (x) right word code b, with codes in base n,
# first letter most significant.  A matrix over M (x) M^op adds two leading
# matrix axes, {(l, r): array of shape (k, k, n**l, n**r)}.  Blocks may be
# absent or all zero.  The same codes index the words of the Schwinger-Dyson
# solver, whose trace tables hold one value per cyclic class of words.


def _digits(codes, n, length):
    """Base-n digits of word codes, most significant letter first."""
    return (codes[:, None] // n ** np.arange(length - 1, -1, -1)) % n


def _code(word, n):
    code = 0
    for letter in word:
        code = code * n + letter
    return code


def _product(a, b, max_degree, spec):
    """Blockwise product (x (x) y)(u (x) v) = xu (x) vy, keeping total degree
    <= max_degree; ``spec`` is the einsum of one block pair, with output axes
    ...(left of a)(left of b)(right of b)(right of a)."""
    out = {}
    for (l1, r1), x in a.items():
        for (l2, r2), y in b.items():
            if l1 + r1 + l2 + r2 > max_degree:
                continue
            z = np.einsum(spec, x, y)
            z = z.reshape(z.shape[:-4] + (x.shape[-2] * y.shape[-2], y.shape[-1] * x.shape[-1]))
            key = (l1 + l2, r1 + r2)
            out[key] = out[key] + z if key in out else z
    return out


def tensor_multiply(a, b, max_degree):
    """(a (x) b)(c (x) d) = ac (x) db: left legs concatenate, right legs reverse."""
    return _product(a, b, max_degree, "ab,cd->acdb")


def difference_quotient(f, i):
    """Split each occurrence of variable i into prefix (x) suffix, as a tensor."""
    n = f.n_vars
    word, length, pos, head, letter, rest = _positions(f)
    hit = letter == i
    out = {}
    for l, r in sorted(set(zip(pos[hit].tolist(), (length - 1 - pos)[hit].tolist()))):
        at = hit & (pos == l) & (length == l + r + 1)
        blk = out[(l, r)] = np.zeros((n ** l, n ** r))
        blk[head[at], rest[at]] = f.coeffs[word[at]]
    return out


def jacobian(p):
    """Matrix of difference quotients (J p)_{ij} = d_j p_i, as blocks (n, n, n**l, n**r)."""
    n = len(p)
    out = {}
    for i, s in enumerate(p):
        if s.n_vars != n:
            raise InvalidInputError("jacobian needs an n-vector of series in n variables")
        for j in range(n):
            for key, blk in difference_quotient(s, j).items():
                out.setdefault(key, np.zeros((n, n) + blk.shape))[i, j] = blk
    return out


def apply_to_vector(m, vec):
    """Action of a matrix over M (x) M^op on a vector of series: (a (x) b) # s = a s b."""
    n = vec[0].n_vars
    terms = [[(np.zeros(0, dtype=np.int64), np.zeros(0))] for _ in vec]
    for (l, r), blk in m.items():
        for i, j, a, b in zip(*np.nonzero(blk)):
            # a (x) b around every word s of vec[j] that stays under its cap
            lengths, codes = _split(vec[j].ranks, n)
            keep = l + lengths + r <= vec[j].max_degree
            code = (a * n ** lengths[keep] + codes[keep]) * n ** r + b
            terms[i].append((_ranks(l + lengths[keep] + r, code, n),
                             blk[i, j, a, b] * vec[j].coeffs[keep]))
    return [_series(n, s.max_degree, *map(np.concatenate, zip(*t))) for s, t in zip(vec, terms)]


# -- symmetrization-type operators ------------------------------------------------


def cyclic_symmetrize(f):
    """Average of all rotations of each word; identity on constants."""
    n = f.n_vars
    word, length, pos, head, letter, rest = _positions(f)
    # each word with its first ``pos`` letters moved to the end
    ranks = _ranks(length, (letter * n ** (length - 1 - pos) + rest) * n ** pos + head, n)
    const = f.ranks == 0
    return _series(n, f.max_degree, np.concatenate([f.ranks[const], ranks]),
                   np.concatenate([f.coeffs[const], f.coeffs[word] / length]))


def number_op(f):
    """Multiply each word by its length."""
    return _series(f.n_vars, f.max_degree, f.ranks, f.coeffs * _split(f.ranks, f.n_vars)[0])


def number_op_inverse(f):
    """Divide each word by its length; requires zero constant term."""
    if f.coeff(()) != 0.0:
        raise InvalidInputError("number operator is not invertible on constant terms")
    return _series(f.n_vars, f.max_degree, f.ranks, f.coeffs / _split(f.ranks, f.n_vars)[0])


def drop_constant(f):
    """Projection onto series with no constant term."""
    return _series(f.n_vars, f.max_degree, f.ranks[f.ranks > 0], f.coeffs[f.ranks > 0])


# -- norms -------------------------------------------------------------------------


def norm_A(f, a):
    """Weighted l1 norm: sum over words of |coeff| * a^len."""
    if a < 1.0:
        raise InvalidInputError("norm radius must be >= 1")
    return float(np.sum(np.abs(f.coeffs) * a ** _split(f.ranks, f.n_vars)[0]))


def norm_AB(t, a, b):
    """Tensor norm: a weights the left leg, b the right leg."""
    if a < 1.0 or b < 1.0:
        raise InvalidInputError("norm radii must be >= 1")
    return sum(a ** l * b ** r * float(np.abs(blk).sum()) for (l, r), blk in t.items())


# -- trace contraction and matrix logarithm ------------------------------------------


def trace_contract(t, tau):
    """Apply (1 (x) tau + tau (x) 1) to a tensor, yielding a series capped at tau's cap."""
    n, cap = tau.n_vars, tau.degree_cap
    top = max((max(key) for key in t), default=0)
    if top > cap:
        raise InvalidInputError("tensor word exceeds the trace table cap")
    # each length's class array, expanded to all word codes
    traces = [tau.at(length, np.arange(n ** length)) for length in range(top + 1)]
    out = {}
    for (l, r), blk in t.items():
        out[r] = out.get(r, 0.0) + traces[l] @ blk
        out[l] = out.get(l, 0.0) + blk @ traces[r]
    lengths = sorted(out)
    codes = [np.flatnonzero(out[length]) for length in lengths]
    ranks = _ranks(np.repeat(lengths, [len(c) for c in codes]),
                   np.concatenate([np.zeros(0, dtype=np.int64), *codes]), n)
    return _series(n, cap, ranks,
                   np.concatenate([np.zeros(0), *(out[k][c] for k, c in zip(lengths, codes))]))


def log_neumann(k, max_degree):
    """Tr log(1 + k) = sum_p (-1)^(p+1)/p Tr k^p as a tensor, truncated at max_degree.

    k is a matrix over M (x) M^op without a degree-0 block, so k^p vanishes
    under the cap once p exceeds it and the series ends by itself.  Tr k^p is
    taken as the trace of k^(p-1) k, formed on the diagonal only, and k^p is
    kept only below the cap, where one more factor k can still multiply it.
    """
    if (0, 0) in k:
        raise InvalidInputError("log_neumann needs a matrix without a degree-0 block")
    acc = {key: np.einsum("iiab->ab", blk) for key, blk in k.items()}
    power, p = k, 1
    while power:
        p += 1
        for key, blk in _product(power, k, max_degree, "ikab,kicd->acdb").items():
            acc[key] = acc.get(key, 0.0) + (-1.0) ** (p + 1) / p * blk
        power = _product(power, k, max_degree - 1, "ikab,kjcd->ijacdb")
    return acc
