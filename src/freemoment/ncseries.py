"""Sparse noncommutative power series in n self-adjoint indeterminates.

Words are tuples of 0-based variable indices; a series maps words to real
coefficients and is hard-truncated at its ``max_degree``.  Tensors in
M (x) M^op are dense blocks per bidegree on base-n word codes, and right
legs multiply in reversed order.  On top of the algebra sit the cyclic
gradient, the difference quotient, the Jacobian, the cyclic symmetrization /
number / projection operators, the weighted coefficient norms, and the
trace-contracted matrix logarithm used by the transport fixed point.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidInputError
from .jsonio import JSONMixin


class NCSeries(JSONMixin):
    """A real-coefficient noncommutative polynomial / truncated power series."""

    __slots__ = ("n_vars", "max_degree", "terms")

    def __init__(self, n_vars, max_degree, terms=None):
        self.n_vars = int(n_vars)
        self.max_degree = int(max_degree)
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff != 0.0 and len(word) <= self.max_degree:
                    clean[tuple(word)] = clean.get(tuple(word), 0.0) + float(coeff)
        self.terms = {w: c for w, c in clean.items() if c != 0.0}

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
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0.0) + c
        return NCSeries(self.n_vars, min(self.max_degree, other.max_degree), terms)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, NCSeries):
            return multiply(self, scalar)
        return NCSeries(self.n_vars, self.max_degree,
                        {w: c * float(scalar) for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def _check(self, other):
        if self.n_vars != other.n_vars:
            raise InvalidInputError("series over different variable counts")

    def coeff(self, word):
        return self.terms.get(tuple(word), 0.0)

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def truncate(self, max_degree):
        return NCSeries(self.n_vars, max_degree, self.terms)

    def is_even(self):
        return all(len(w) % 2 == 0 for w in self.terms)

    def is_selfadjoint(self, tol=0.0):
        return all(abs(c - self.terms.get(w[::-1], 0.0)) <= tol for w, c in self.terms.items())

    def odd_mass(self):
        """Total absolute coefficient mass on odd-degree words."""
        return sum(abs(c) for w, c in self.terms.items() if len(w) % 2 == 1)

    def __eq__(self, other):
        return isinstance(other, NCSeries) and self.n_vars == other.n_vars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "NCSeries(0)"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w))[:8]:
            mono = "*".join(f"x{i + 1}" for i in w) if w else "1"
            parts.append(f"{self.terms[w]:+.6g}*{mono}")
        more = "" if len(self.terms) <= 8 else f" (+{len(self.terms) - 8} terms)"
        return "NCSeries(" + " ".join(parts) + more + ")"

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {
            "n_vars": self.n_vars,
            "max_degree": self.max_degree,
            "terms": [{"word": [i + 1 for i in w], "coeff": c} for w, c in items],
        }

    @classmethod
    def from_dict(cls, d):
        terms = {}
        for item in d.get("terms", []):
            word = tuple(int(i) - 1 for i in item["word"])
            if any(i < 0 or i >= d["n_vars"] for i in word):
                raise InvalidInputError("word letter out of range")
            terms[word] = terms.get(word, 0.0) + float(item["coeff"])
        return cls(d["n_vars"], d["max_degree"], terms)


def multiply(a, b, max_degree=None):
    """Concatenation product, truncated."""
    a._check(b)
    cap = min(a.max_degree, b.max_degree) if max_degree is None else max_degree
    terms = {}
    for wa, ca in a.terms.items():
        if len(wa) > cap:
            continue
        for wb, cb in b.terms.items():
            if len(wa) + len(wb) > cap:
                continue
            w = wa + wb
            terms[w] = terms.get(w, 0.0) + ca * cb
    return NCSeries(a.n_vars, cap, terms)


def substitute(f, args, max_degree=None):
    """Evaluate f at the n-tuple ``args`` of series, truncating products.

    Stored series are always polynomials, so substitution is a finite sum
    even when arguments carry constant terms.
    """
    if len(args) != f.n_vars:
        raise InvalidInputError("need one substitution argument per variable")
    cap = f.max_degree if max_degree is None else max_degree
    n_vars = args[0].n_vars if args else f.n_vars
    out = NCSeries.zero(n_vars, cap)
    one = NCSeries.constant(1.0, n_vars, cap)
    for word, coeff in sorted(f.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        prod = one
        for letter in word:
            prod = multiply(prod, args[letter], cap)
            if not prod.terms:
                break
        out = out + prod * coeff
    return out


def cyclic_gradient(f, i):
    """Cyclic derivative in variable i: rotate each occurrence to the front and drop it."""
    terms = {}
    for word, coeff in f.terms.items():
        for pos, letter in enumerate(word):
            if letter == i:
                rotated = word[pos + 1:] + word[:pos]
                terms[rotated] = terms.get(rotated, 0.0) + coeff
    return NCSeries(f.n_vars, f.max_degree, terms)


def cyclic_gradient_vector(f):
    return [cyclic_gradient(f, i) for i in range(f.n_vars)]


# -- tensors over M (x) M^op ---------------------------------------------------------
#
# A tensor is a dict {(l, r): array of shape (n**l, n**r)}: entry [a, b] is the
# coefficient of left word code a (x) right word code b, with codes in base n,
# first letter most significant.  A matrix over M (x) M^op adds two leading
# matrix axes, {(l, r): array of shape (k, k, n**l, n**r)}.  Blocks may be
# absent or all zero.  The same codes index the words of the Schwinger-Dyson
# solver, whose trace tables hold one value per class of _canonical_classes.


def _digits(codes, n, length):
    """Base-n digits of word codes, most significant letter first."""
    return (codes[:, None] // n ** np.arange(length - 1, -1, -1)) % n


@functools.lru_cache(maxsize=None)
def _words(n, length):
    """All words of a length, in code order."""
    return tuple(map(tuple, _digits(np.arange(n ** length), n, length).tolist()))


def _code(word, n):
    code = 0
    for letter in word:
        code = code * n + letter
    return code


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
    """Code of sdmoments.canonical_word for every base-n word code of a length.

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
    """Sorted canonical codes of a length, and each code's index among them."""
    reps, inv = np.unique(_canonical_codes(n, length), return_inverse=True)
    reps.flags.writeable = inv.flags.writeable = False
    return reps, inv


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
    out = {}
    for word, coeff in f.terms.items():
        for pos, letter in enumerate(word):
            if letter == i:
                key = (pos, len(word) - pos - 1)
                blk = out.setdefault(key, np.zeros((n ** key[0], n ** key[1])))
                blk[_code(word[:pos], n), _code(word[pos + 1:], n)] += coeff
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
    out = [{} for _ in vec]
    for (l, r), blk in m.items():
        left, right = _words(vec[0].n_vars, l), _words(vec[0].n_vars, r)
        for i, j, a, b in zip(*np.nonzero(blk)):
            coeff = blk[i, j, a, b]
            for ws, cs in vec[j].terms.items():
                if l + len(ws) + r <= vec[j].max_degree:
                    w = left[a] + ws + right[b]
                    out[i][w] = out[i].get(w, 0.0) + coeff * cs
    return [NCSeries(s.n_vars, s.max_degree, terms) for s, terms in zip(vec, out)]


# -- symmetrization-type operators ------------------------------------------------


def cyclic_symmetrize(f):
    """Average of all rotations of each word; identity on constants."""
    terms = {}
    for word, coeff in f.terms.items():
        k = len(word)
        if k == 0:
            terms[word] = terms.get(word, 0.0) + coeff
            continue
        share = coeff / k
        for j in range(k):
            rot = word[j:] + word[:j]
            terms[rot] = terms.get(rot, 0.0) + share
    return NCSeries(f.n_vars, f.max_degree, terms)


def number_op(f):
    """Multiply each word by its length."""
    return NCSeries(f.n_vars, f.max_degree,
                    {w: c * len(w) for w, c in f.terms.items()})


def number_op_inverse(f):
    """Divide each word by its length; requires zero constant term."""
    if f.coeff(()) != 0.0:
        raise InvalidInputError("number operator is not invertible on constant terms")
    return NCSeries(f.n_vars, f.max_degree,
                    {w: c / len(w) for w, c in f.terms.items()})


def drop_constant(f):
    """Projection onto series with no constant term."""
    return NCSeries(f.n_vars, f.max_degree,
                    {w: c for w, c in f.terms.items() if w})


# -- norms -------------------------------------------------------------------------


def norm_A(f, a):
    """Weighted l1 norm: sum over words of |coeff| * a^len."""
    if a < 1.0:
        raise InvalidInputError("norm radius must be >= 1")
    return sum(abs(c) * a ** len(w) for w, c in f.terms.items())


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
    traces = [tau.values[length][_canonical_classes(n, length)[1]] for length in range(top + 1)]
    out = {}
    for (l, r), blk in t.items():
        out[r] = out.get(r, 0.0) + traces[l] @ blk
        out[l] = out.get(l, 0.0) + blk @ traces[r]
    terms = {}
    for length, vec in out.items():
        terms.update(zip(_words(n, length), vec.tolist()))
    return NCSeries(n, cap, terms)


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
