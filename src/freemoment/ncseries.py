"""Sparse noncommutative power series in n self-adjoint indeterminates.

Words are tuples of 0-based variable indices; a series maps words to real
coefficients and is hard-truncated at its ``max_degree``.  Tensor series live
in M (x) M^op: both legs are words, and right legs multiply in reversed
order.  On top of the algebra sit the cyclic gradient, the difference
quotient, the Jacobian, the cyclic symmetrization / number / projection
operators, the weighted coefficient norms, and the trace-contracted matrix
logarithm used by the transport fixed point.
"""

from __future__ import annotations

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


class TensorSeries:
    """Element of M (x) M^op with word legs; degree bound is on |left|+|right|."""

    __slots__ = ("n_vars", "max_degree", "terms")

    def __init__(self, n_vars, max_degree, terms=None):
        self.n_vars = int(n_vars)
        self.max_degree = int(max_degree)
        clean = {}
        if terms:
            for (wl, wr), coeff in terms.items():
                if coeff != 0.0 and len(wl) + len(wr) <= self.max_degree:
                    key = (tuple(wl), tuple(wr))
                    clean[key] = clean.get(key, 0.0) + float(coeff)
        self.terms = {k: c for k, c in clean.items() if c != 0.0}

    @classmethod
    def zero(cls, n_vars, max_degree):
        return cls(n_vars, max_degree, {})

    @classmethod
    def _from_clean(cls, n_vars, max_degree, terms):
        """Wrap float coefficients on tuple keys already within the cap,
        dropping only the zeros (the single pass left of ``__init__``)."""
        out = cls.__new__(cls)
        out.n_vars = n_vars
        out.max_degree = max_degree
        out.terms = {k: c for k, c in terms.items() if c != 0.0}
        return out

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        if self.max_degree != other.max_degree:
            return TensorSeries(self.n_vars, min(self.max_degree, other.max_degree), terms)
        return TensorSeries._from_clean(self.n_vars, self.max_degree, terms)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, TensorSeries):
            return tensor_multiply(self, scalar)
        scalar = float(scalar)
        return TensorSeries._from_clean(self.n_vars, self.max_degree,
                                        {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, TensorSeries) and self.terms == other.terms

    def apply_to(self, s):
        """The M (x) M^op action on M: (a (x) b) # s = a s b."""
        out = {}
        for (wl, wr), coeff in self.terms.items():
            for ws, cs in s.terms.items():
                w = wl + ws + wr
                if len(w) <= s.max_degree:
                    out[w] = out.get(w, 0.0) + coeff * cs
        return NCSeries(s.n_vars, s.max_degree, out)

    def to_dict(self):
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), kv[0]))
        return {
            "n_vars": self.n_vars,
            "max_degree": self.max_degree,
            "terms": [{"left": [i + 1 for i in wl], "right": [i + 1 for i in wr], "coeff": c}
                      for (wl, wr), c in items],
        }

    @classmethod
    def from_dict(cls, d):
        terms = {}
        for item in d.get("terms", []):
            key = (tuple(int(i) - 1 for i in item["left"]),
                   tuple(int(i) - 1 for i in item["right"]))
            terms[key] = terms.get(key, 0.0) + float(item["coeff"])
        return cls(d["n_vars"], d["max_degree"], terms)


def tensor_multiply(a, b, max_degree=None):
    """(a (x) b)(c (x) d) = ac (x) db: left legs concatenate, right legs reverse.

    b's terms are grouped by total degree so that only pairs within the cap
    are visited.  For a fixed term of a, distinct terms of b give distinct
    keys, so each coefficient is summed in a's order, as in the plain double
    loop.
    """
    cap = min(a.max_degree, b.max_degree) if max_degree is None else max_degree
    by_degree = {}
    for (lb, rb), cb in b.terms.items():
        by_degree.setdefault(len(lb) + len(rb), []).append((lb, rb, cb))
    groups = sorted(by_degree.items())
    terms = {}
    for (la, ra), ca in a.terms.items():
        room = cap - len(la) - len(ra)
        for deg, items in groups:
            if deg > room:
                break
            for lb, rb, cb in items:
                key = (la + lb, rb + ra)
                terms[key] = terms.get(key, 0.0) + ca * cb
    return TensorSeries._from_clean(a.n_vars, cap, terms)


def difference_quotient(f, i, max_degree=None):
    """Split each occurrence of variable i into prefix (x) suffix."""
    cap = f.max_degree if max_degree is None else max_degree
    terms = {}
    for word, coeff in f.terms.items():
        for pos, letter in enumerate(word):
            if letter == i:
                key = (word[:pos], word[pos + 1:])
                terms[key] = terms.get(key, 0.0) + coeff
    return TensorSeries(f.n_vars, cap, terms)


class MatrixTensor:
    """Square matrix over M (x) M^op."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise InvalidInputError("matrix must be square")

    @classmethod
    def zero(cls, n, n_vars, max_degree):
        return cls([[TensorSeries.zero(n_vars, max_degree) for _ in range(n)] for _ in range(n)])

    def __add__(self, other):
        return MatrixTensor([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, scalar):
        return MatrixTensor([[e * scalar for e in row] for row in self.entries])

    __rmul__ = __mul__

    def matmul(self, other, max_degree=None):
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    prod = tensor_multiply(self.entries[i][k], other.entries[k][j], max_degree)
                    acc = prod if acc is None else acc + prod
                row.append(acc)
            out.append(row)
        return MatrixTensor(out)

    def trace(self):
        acc = self.entries[0][0]
        for i in range(1, self.n):
            acc = acc + self.entries[i][i]
        return acc

    def apply_to_vector(self, vec):
        """Matrix action on a vector of plain series via the tensor action."""
        out = []
        for i in range(self.n):
            acc = None
            for j in range(self.n):
                term = self.entries[i][j].apply_to(vec[j])
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def is_zero(self):
        return all(not e.terms for row in self.entries for e in row)


def jacobian(p, max_degree=None):
    """Matrix of difference quotients (J p)_{ij} = d_j p_i."""
    n = len(p)
    for s in p:
        if s.n_vars != n:
            raise InvalidInputError("jacobian needs an n-vector of series in n variables")
    return MatrixTensor([[difference_quotient(p[i], j, max_degree) for j in range(n)]
                         for i in range(n)])


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
    return sum(abs(c) * a ** len(wl) * b ** len(wr) for (wl, wr), c in t.terms.items())


# -- trace contraction and matrix logarithm ------------------------------------------


def trace_contract(t, tau, max_degree=None):
    """Apply (1 (x) tau + tau (x) 1) to a tensor series, yielding a plain series."""
    cap = t.max_degree if max_degree is None else max_degree
    terms = {}
    for (wl, wr), coeff in t.terms.items():
        tl = tau.value(wl)
        tr = tau.value(wr)
        if tl is None or tr is None:
            raise InvalidInputError("tensor word exceeds the trace table cap")
        if tl != 0.0 and len(wr) <= cap:
            terms[wr] = terms.get(wr, 0.0) + coeff * tl
        if tr != 0.0 and len(wl) <= cap:
            terms[wl] = terms.get(wl, 0.0) + coeff * tr
    return NCSeries(t.n_vars, cap, terms)


def log_neumann(m, order):
    """Truncated series for log(1 + m) on a matrix over M (x) M^op."""
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    acc = m
    power = m
    for k in range(2, order + 1):
        power = power.matmul(m)
        if power.is_zero():
            break
        acc = acc + power * ((-1.0) ** (k + 1) / k)
    return acc
