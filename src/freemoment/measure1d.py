"""Compactly supported probability measures on the real line.

A measure is carried in two coupled representations:

* at most one density segment, samples on one increasing node grid, plus
  exact atoms (which may lie inside a density cell), used for pointwise
  work such as Hilbert transforms and moments, and
* a quantile table on a uniform mass grid, whose two ends are the support,
  used for every optimal-transport functional (Wasserstein distance,
  maximal correlation, displacement interpolation, logarithmic energy).

A measure holds only what determines it, and so does its file: samples and
atoms, or atoms alone, derive a table of DEFAULT_CELLS cells as the
generalized inverse of their CDF; a table alone (a particle cloud, an
interpolant) derives its atoms from its flat runs; a pushforward of a
measure with samples holds them, its atoms and its table, which is its CDF.
The transport functionals all evaluate the same piecewise-linear quantile
model (equal-mass blocks between quantile edges), so algebraic identities
between them hold to round-off rather than to quadrature tolerance.  CDF
and quantile read one set of mass pieces: the table's blocks where the
table determines the measure, the density cells and atoms elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from . import jsonio
from .errors import InvalidInputError

DEFAULT_NODES = 2048
DEFAULT_CELLS = 1024

_FLAT_TOL = 1e-14
# largest total-mass error of a measure with samples, and of an atomic one's atoms
_MASS_TOL = 1e-10
# block rows per strip of the log_energy pair sum; at 1024 cells strips of
# 32, 48 or 80 rows were no faster and 96 rows slower
_ENERGY_ROWS = 64
# quadrature-table entries per batch of points in hilbert_transform; tables
# of 512 KiB stay in cache and reuse their memory from batch to batch
_HILBERT_ENTRIES = 1 << 16
# stands in for the zero squared gap of an edge with itself, so that log()
# sees no zero; the kernel's value there, s (log s - 3) = -1.6e-305, is
# negligible next to any other pair's
_TINY = np.finfo(float).tiny


def chebyshev_nodes(a, b, n):
    """Chebyshev-Lobatto points on [a, b], increasing, endpoints included."""
    theta = np.linspace(0.0, np.pi, n)
    return 0.5 * (a + b) - 0.5 * (b - a) * np.cos(theta)


def _finite_atoms(atoms):
    """``atoms`` as sorted (location, mass) floats; InvalidInputError unless all are finite."""
    atoms = sorted((float(x), float(w)) for x, w in atoms)
    if not np.isfinite(atoms).all():
        raise InvalidInputError(f"atoms must have finite locations and masses, got {atoms}")
    return atoms


def _flat_cells(e, d):
    """Which cells of edges ``e`` (widths ``d``) are flat: atoms, not density blocks."""
    return d <= _FLAT_TOL * (abs(e[-1] - e[0]) + 1.0)


class GridMeasure(jsonio.JSONWriter):
    """A compactly supported probability measure on the line.

    Instances are immutable by convention; every operation returns a new
    measure.  Use the ``from_*`` constructors, not ``__init__`` directly.
    """

    def __init__(self, nodes, density, atoms, edges=None, quantiles_primary=False):
        # the one density segment, or None for both when the measure has no samples
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=float)
        self.density = None if density is None else np.asarray(density, dtype=float)
        # a pushforward's table is its CDF, and its samples serve only pointwise
        # work (moments, Hilbert transforms); without samples the table is the
        # measure anyway, so the flag is kept only on a measure with samples
        self._quantiles_primary = bool(quantiles_primary) and self.nodes is not None
        # the pieces of the samples and atoms, once _pieces has computed them
        self._sample_pieces = None
        if edges is not None and self.nodes is None:
            # a table alone: its atoms are its maximal runs of flat cells j..k-1
            e = np.asarray(edges, dtype=float)
            step = np.diff(np.concatenate([[0], _flat_cells(e, np.diff(e)).astype(np.int8), [0]]))
            atoms = [(e[j], (k - j) / (e.size - 1))
                     for j, k in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))]
        self.atoms = sorted((float(x), float(w)) for x, w in atoms)
        self._edges = (self._exact_quantile(np.linspace(0.0, 1.0, DEFAULT_CELLS + 1))
                       if edges is None else np.asarray(edges, dtype=float))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_density(cls, nodes, density, atoms=(), normalize=False):
        """Build a validated measure from density samples (piecewise linear
        between nodes) and atoms.

        ``normalize=True`` rescales the density so that the total mass
        (including any atoms) is exactly one.
        """
        nodes = np.asarray(nodes, dtype=float)
        density = np.asarray(density, dtype=float)
        atoms = _finite_atoms(atoms)
        if nodes.ndim != 1 or nodes.shape != density.shape or nodes.size < 2:
            raise InvalidInputError("nodes and density must be 1-d arrays of equal length >= 2")
        # written to fail on NaN as well
        if not (np.diff(nodes) > 0).all():
            raise InvalidInputError("nodes must be strictly increasing")
        if not (density >= -1e-9).all():
            raise InvalidInputError("density must be nonnegative")
        density = np.clip(density, 0.0, None)
        atom_mass = sum(w for _, w in atoms)
        ac_mass = float(np.trapezoid(density, nodes))
        if normalize:
            if not 0.0 < ac_mass < math.inf:
                raise InvalidInputError("cannot normalize a zero or infinite density")
            density = density * ((1.0 - atom_mass) / ac_mass)
        elif not abs(ac_mass + atom_mass - 1.0) <= _MASS_TOL:
            raise InvalidInputError(f"total mass {ac_mass + atom_mass} differs from 1")
        return cls(nodes, density, atoms).validate()

    @classmethod
    def from_callable(cls, fn, support, n_nodes=DEFAULT_NODES):
        """Sample a density callable on a Chebyshev-spaced node grid of
        ``support``; normalize to mass one."""
        nodes = chebyshev_nodes(support[0], support[1], n_nodes)
        vals = np.clip(np.asarray(fn(nodes), dtype=float), 0.0, None)
        return cls.from_density(nodes, vals, normalize=True)

    @classmethod
    def from_atoms(cls, atoms):
        """A purely atomic measure from (location, mass) pairs."""
        atoms = _finite_atoms(atoms)
        if not atoms or any(w <= 0 for _, w in atoms):
            raise InvalidInputError("atoms must be nonempty with positive masses")
        if abs(sum(w for _, w in atoms) - 1.0) > _MASS_TOL:
            raise InvalidInputError("atom masses must sum to one")
        return cls(None, None, atoms)

    @classmethod
    def from_quantile_edges(cls, edges):
        """Build a validated measure from quantile values on the uniform edge grid j/m.

        Runs of exactly equal edges become atoms; the rest is carried as the
        equal-mass block model with no density samples attached.
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 3:
            raise InvalidInputError("need at least 3 quantile edge values")
        if np.any(np.diff(edges) < -1e-12 * (abs(edges[-1] - edges[0]) + 1.0)):
            raise InvalidInputError("quantile edges must be nondecreasing")
        return cls(None, None, (), np.maximum.accumulate(edges)).validate()

    # -- basic accessors ---------------------------------------------------

    @property
    def support(self):
        """The table's two ends."""
        return float(self._edges[0]), float(self._edges[-1])

    @property
    def quantiles(self):
        """Quantile values on the interior uniform grid s_j = j/m."""
        return self._edges[1:-1]

    @property
    def n_cells(self):
        return self._edges.size - 1

    def is_atomic(self):
        # the atoms carry all the mass; a quantile table's other cells carry the rest
        return self.nodes is None and abs(sum(w for _, w in self.atoms) - 1.0) <= _MASS_TOL

    def _block_model(self):
        """True when the measure is its quantile table alone, read as the
        equal-mass block model: no density samples, and not purely atomic."""
        return self.nodes is None and not self.is_atomic()

    # -- exact CDF / quantile machinery -------------------------------------

    def _pieces(self):
        """Ordered mass pieces (x0, x1, d0, d1, mass) and their cumulative masses.

        A non-atomic measure whose table is primary or alone has the table's
        blocks, flat ones zero-width.  Any other has its density cells of
        positive mass, cut at the atoms inside them (where the density is
        linear), and its atoms, zero-width, stably ordered by (x0, x1); those
        are computed once and kept, as samples and atoms never change."""
        if not self.is_atomic() and (self._quantiles_primary or self.nodes is None):
            e, n = self._edges, self.n_cells
            w = np.diff(e)
            flat = _flat_cells(e, w)
            d = np.divide(1.0 / n, w, out=np.zeros(n), where=~flat)
            x1 = np.where(flat, e[:-1], e[1:])
            return (e[:-1], x1, d, d, np.full(n, 1.0 / n)), np.linspace(0.0, 1.0, n + 1)
        if self._sample_pieces is None:
            self._sample_pieces = self._compute_sample_pieces()
        return self._sample_pieces

    def _compute_sample_pieces(self):
        ax = np.array([x for x, _ in self.atoms], dtype=float)
        pieces = []
        if self.nodes is not None:
            xs, ds = self.nodes, self.density
            inner = ax[(ax > xs[0]) & (ax < xs[-1])]
            if inner.size:
                split = np.union1d(xs, inner)
                xs, ds = split, np.interp(split, xs, ds)
            mass = 0.5 * (ds[:-1] + ds[1:]) * np.diff(xs)
            pos = mass > 0
            pieces.append((xs[:-1][pos], xs[1:][pos], ds[:-1][pos], ds[1:][pos], mass[pos]))
        zero = np.zeros_like(ax)
        pieces.append((ax, ax, zero, zero, np.array([w for _, w in self.atoms], dtype=float)))
        cols = [np.concatenate(col) for col in zip(*pieces)]
        order = np.lexsort((cols[1], cols[0]))
        return tuple(c[order] for c in cols), np.concatenate([[0.0], np.cumsum(cols[4][order])])

    def _exact_quantile(self, s):
        """Generalized inverse of ``cdf``, exact on the mass pieces."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        pieces, cum = self._pieces()
        # mass level s*total falls in piece i when cum[i] < s*total <= cum[i+1]
        level = s * cum[-1]
        i = np.clip(np.searchsorted(cum, level, side="left") - 1, 0, cum.size - 2)
        x0, x1, d0, d1, mass = (a[i] for a in pieces)
        rem = np.minimum(np.maximum(level - cum[i], 0.0), mass)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the offset u of d0 u + (d1 - d0) u^2 / (2 w) = rem in a cell of
            # width w, by the root without cancellation: rem / d0 at slope 0
            w = x1 - x0
            u = 2.0 * rem / (np.sqrt(np.maximum(d0 * d0 + 2.0 * (d1 - d0) * rem / w, 0.0)) + d0)
        # a level at a piece's cumulative end is its right end, exactly
        out = np.where(level >= cum[i + 1], x1, np.minimum(np.maximum(x0 + u, x0), x1))
        return np.where((x1 == x0) | (rem == 0.0), x0, out)

    def cdf(self, x):
        """CDF at x (right-continuous): the mass of the pieces up to x."""
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        (x0, x1, d0, d1, _), cum = self._pieces()
        # x lies in or right of piece i, the last one starting at or before it
        i = np.searchsorted(x0, xq, side="right") - 1
        j = np.maximum(i, 0)
        w = x1[j] - x0[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip((xq - x0[j]) / w, 0.0, 1.0)
        inside = cum[j] + w * (d0[j] * t + 0.5 * (d1[j] - d0[j]) * t * t)
        out = np.where(i < 0, 0.0, np.where(xq >= x1[j], cum[j + 1], inside))
        return out if np.ndim(x) else float(out[0])

    # -- misc ----------------------------------------------------------------

    def translate(self, c):
        """The measure shifted by c, with the table it holds (an atomic one derived again)."""
        c = float(c)
        nodes = None if self.nodes is None else self.nodes + c
        atoms = [(x + c, w) for x, w in self.atoms]
        edges = None if self.is_atomic() else self._edges + c
        return GridMeasure(nodes, self.density, atoms, edges, self._quantiles_primary)

    def validate(self):
        """The measure itself once its state checks out; InvalidInputError if not."""
        lo, hi = self.support
        if not hi > lo or not np.isfinite([lo, hi]).all():
            raise InvalidInputError("support must be a finite nondegenerate interval")
        # written to fail on NaN as well
        if self.nodes is not None:
            if not (np.diff(self.nodes) > 0).all():
                raise InvalidInputError("nodes must be strictly increasing")
            if not (self.density >= 0).all():
                raise InvalidInputError("density must be nonnegative")
        if not all(w > 0 for _, w in self.atoms):
            raise InvalidInputError("atom masses must be positive")
        if not (np.diff(self._edges) >= -1e-12 * (hi - lo)).all():
            raise InvalidInputError("quantiles must be nondecreasing")
        return self

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        """What determines the measure: samples ([] when none), atoms unless a table alone
        carries them, and the table (support ends, quantiles) when primary or alone."""
        table = self._quantiles_primary or self._block_model()
        d = {"support": list(self.support)} if table else {}
        d["nodes"] = [] if self.nodes is None else list(map(float, self.nodes))
        d["density"] = [] if self.density is None else list(map(float, self.density))
        if not self._block_model():
            d["atoms"] = [[x, w] for x, w in self.atoms]
        if table:
            d["quantiles"] = list(map(float, self.quantiles))
        if self._quantiles_primary:
            d["quantiles_primary"] = True
        return d

    @classmethod
    def from_dict(cls, d):
        """Each kind through the constructor that derives the rest; a file
        holding a key that its kind derives is invalid input naming it."""
        nodes = jsonio.field(d, "nodes", jsonio.floats, [])
        density = jsonio.field(d, "density", jsonio.floats, [])
        if nodes.size != density.size:
            raise InvalidInputError(f"'nodes' and 'density' differ in length: "
                                    f"{nodes.size} and {density.size}")
        primary = bool(nodes.size) and bool(d.get("quantiles_primary"))
        kind = "samples" if nodes.size else "table" if "quantiles" in d else "atoms"
        derived = {"samples": ("support", "quantiles"), "table": ("atoms",), "atoms": ("support",)}
        for key in () if primary else derived[kind]:
            if key in d:
                raise InvalidInputError(f"{key!r} is derived from the {kind}, and a measure "
                                        f"file of this kind must not hold it")
        atoms = jsonio.field(d, "atoms", lambda a: [jsonio.floats(p, 2) for p in a],
                             *([] if kind == "atoms" else [[]]))
        if primary or kind == "table":
            support = jsonio.field(d, "support", lambda s: jsonio.floats(s, 2))
            edges = np.concatenate([support[:1], jsonio.field(d, "quantiles", jsonio.floats),
                                    support[1:]])
        if primary:
            return cls(nodes, density, atoms, edges, quantiles_primary=True).validate()
        if kind == "samples":
            return cls.from_density(nodes, density, atoms)
        return cls.from_quantile_edges(edges) if kind == "table" else cls.from_atoms(atoms)

    def to_csv(self):
        """Node and density columns as CSV text, with CRLF line ends."""
        rows = zip(self.nodes, self.density) if self.nodes is not None else ()
        return "node,density\r\n" + "".join(f"{float(x)!r},{float(d)!r}\r\n" for x, d in rows)

    def __repr__(self):
        kind = "atomic" if self.is_atomic() else ("mixed" if self.atoms else "ac")
        return (f"GridMeasure({kind}, support=[{self.support[0]:.6g}, {self.support[1]:.6g}], "
                f"atoms={len(self.atoms)})")


# -- standard measures --------------------------------------------------------


def semicircle():
    """The standard semicircle law, of radius 2 about 0."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        return 2.0 / (np.pi * 2.0 * 2.0) * np.sqrt(np.clip(4.0 - x * x, 0.0, None))

    return GridMeasure.from_callable(fn, (-2.0, 2.0))


def uniform(a=0.0, b=1.0):
    nodes = np.linspace(a, b, DEFAULT_NODES)
    return GridMeasure.from_density(nodes, np.full(DEFAULT_NODES, 1.0 / (b - a)))


def two_point(a=1.0):
    return GridMeasure.from_atoms([(-a, 0.5), (a, 0.5)])


def dirac(c=0.0):
    return GridMeasure.from_atoms([(c, 1.0)])


# -- operations ----------------------------------------------------------------


def moment(m, k):
    """k-th raw moment: trapezoid rule on the nodes plus atom sums.

    Measures carrying only a quantile table, flat runs (atoms) included, are
    integrated exactly against their equal-mass block model instead.
    """
    if k < 0 or int(k) != k:
        raise InvalidInputError("moment order must be a nonnegative integer")
    k = int(k)
    if m._block_model():
        return _block_moment(m, k)
    total = sum(w * x ** k for x, w in m.atoms)
    if m.nodes is not None:
        total += float(np.trapezoid(m.nodes ** k * m.density, m.nodes))
    return total


def _block_moment(m, k):
    # Exact k-th moment of the equal-mass block model.
    e = m._edges
    d = np.diff(e)
    flat = _flat_cells(e, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (e[1:] ** (k + 1) - e[:-1] ** (k + 1)) / ((k + 1) * d)
    vals[flat] = e[:-1][flat] ** k
    return float(np.mean(vals))


def absolute_moment(m):
    """Integral of |x|, exact against the equal-mass block model."""
    e = m._edges
    a, b = e[:-1], e[1:]
    d = b - a
    same = a * b >= 0
    vals = np.empty_like(d)
    vals[same] = 0.5 * np.abs(a + b)[same]
    cross = ~same
    vals[cross] = (a[cross] ** 2 + b[cross] ** 2) / (2.0 * d[cross])
    flat = _flat_cells(e, d)
    vals[flat] = np.abs(a[flat])
    return float(np.mean(vals))


def quantile(m, s):
    """Generalized inverse CDF, the exact inverse of ``m.cdf`` on the same
    mass pieces: the table's blocks for pushforwards, interpolants and
    particle clouds, the density cells and atoms for any other measure."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise InvalidInputError("quantile level must lie in (0, 1)")
    out = m._exact_quantile(s)
    return float(out[0]) if scalar else out


def _fprime(f, x, scale):
    h = 6e-6 * np.maximum(np.abs(x), max(0.05 * scale, 1e-12))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _refine_flat_boundary(f, x_flat, x_move, v, tol):
    # Monotone f: bisect for the boundary of the region where f == v; (flat, moving) side.
    lo, hi = (x_flat, x_move)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(f(mid) - v) <= tol:
            lo = mid
        else:
            hi = mid
    return lo, hi


def pushforward_monotone(m, f):
    """Law of f(X) for X ~ m, for nondecreasing f.

    f must be vectorized (array in, array out): it is called once on each
    grid of points, and on scalars only to bisect the ends of flat runs.
    Intervals where f is flat collapse to exact atoms.  The density nodes
    outside the flat runs are pushed as one segment, by the change-of-variables
    rule; a run inside the density leaves its atom inside one density cell,
    and one that reaches an end node of the density ends the segment there.
    The result's table is f of m's table, and its CDF (quantiles_primary)
    when it has samples.  The image of a table alone is f of the table,
    alone; the image of atoms alone, or of a density that falls wholly into
    flat runs, is its atoms.
    """
    lo, hi = m.support
    scale = hi - lo
    fp = np.asarray(f(np.linspace(lo, hi, 1025)), dtype=float)
    fscale = abs(fp[-1] - fp[0]) + 1.0
    if np.any(np.diff(fp) < -1e-10 * fscale):
        raise InvalidInputError("f must be nondecreasing on the support")

    new_edges = np.maximum.accumulate(np.asarray(f(m._edges), dtype=float))
    if m._block_model():
        # a table alone: its image is the law, and the image's flat runs its atoms
        return GridMeasure(None, None, (), new_edges)
    atom_y = np.asarray(f(np.array([x for x, _ in m.atoms], dtype=float)), dtype=float)

    if m.is_atomic():
        merged = {}
        for y, (_, w) in zip(atom_y.tolist(), m.atoms):
            merged[y] = merged.get(y, 0.0) + w
        return GridMeasure.from_atoms(merged.items())

    flat_tol = 1e-12 * fscale
    tol = 1e-13 * scale
    # the cells that collapse at a heavy input atom share one midpoint, where f need not be flat
    mids = 0.5 * (m._edges[:-1] + m._edges[1:])
    mids = mids[np.diff(mids, prepend=-np.inf) != 0.0]
    fmids = np.asarray(f(mids), dtype=float)
    # maximal runs of midpoints j0..j1 whose consecutive images agree within flat_tol
    flat = np.concatenate([[False], np.abs(np.diff(fmids)) <= flat_tol, [False]])
    step = np.diff(flat.astype(np.int8))
    runs = zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))

    atoms = []
    flat_x = []
    # the pushed nodes lie strictly between the moving-side ends of the runs
    # that reach the density's end nodes
    seg_lo, seg_hi = -math.inf, math.inf
    for j0, j1 in runs:
        v = fmids[j0]
        xl, move_l = _refine_flat_boundary(f, mids[j0], lo, v, flat_tol)
        xr, move_r = _refine_flat_boundary(f, mids[j1], hi, v, flat_tol)
        # CDF difference already includes any input atoms sitting inside the run
        mass = float(m.cdf(xr) - m.cdf(xl))
        if mass > 1e-13:
            atoms.append((v, mass))
            flat_x.append((xl, xr))
            if xl - tol <= m.nodes[0] <= xr + tol:
                seg_lo = move_r
            elif xl - tol <= m.nodes[-1] <= xr + tol:
                seg_hi = move_l

    keep = (m.nodes > seg_lo) & (m.nodes < seg_hi)
    for xl, xr in flat_x:
        keep &= ~((m.nodes > xl + tol) & (m.nodes < xr - tol))
    xs, rho = m.nodes[keep], m.density[keep]
    ys = np.asarray(f(xs), dtype=float)
    fpv = _fprime(f, xs, scale)
    # a node where f is flat within the runs' tolerance gets density 0
    dens = np.divide(rho, fpv, out=np.zeros_like(fpv), where=fpv > flat_tol / scale)
    for x, k in ((seg_lo, 0), (seg_hi, -1)):
        if xs.size and math.isfinite(x):
            # the run's end x pushed, with the density giving the cell beside it the mass of
            # m's density there: rho(x)/f' where f is linear, finite where f' vanishes at x
            y = float(np.asarray(f(np.array([x])), dtype=float)[0])
            cell = 0.5 * (np.interp(x, m.nodes, m.density) + rho[k]) * (xs[k] - x)
            d = max(2.0 * cell / (ys[k] - y) - dens[k], 0.0) if ys[k] != y else 0.0
            at = 0 if k == 0 else ys.size
            ys, dens = np.insert(ys, at, y), np.insert(dens, at, d)
    good = np.concatenate([[True], np.diff(ys) > 0]) & np.isfinite(dens)

    # input atoms outside every flat run keep their own image atoms
    for ya, (xa, wa) in zip(atom_y.tolist(), m.atoms):
        if not any(xl <= xa <= xr for xl, xr in flat_x):
            atoms.append((ya, wa))
    if not np.trapezoid(dens[good], ys[good]) > 0.0:
        # every density cell fell into a flat run: the law is its atoms
        return GridMeasure.from_atoms(atoms)
    return GridMeasure(ys[good], dens[good], atoms, new_edges, quantiles_primary=True)


def _local_cubic(xs, ds, x):
    """Value and slope at each x of the cubic through the 4 nodes around it.

    The nodes are the two on each side of x's cell, shifted inward at the
    ends; a segment of k < 4 nodes uses its degree k - 1 interpolant.  At a
    node the value is that node's sample exactly.
    """
    k = min(4, xs.size)
    first = np.clip(np.searchsorted(xs, x, side="right") - k // 2, 0, xs.size - k)
    # in a power-of-two unit near the segment width: exact, and no product overflows
    unit = math.ldexp(1.0, math.frexp(xs[-1] - xs[0])[1])
    xs, x = xs / unit, x / unit
    xn = [xs[first + i] for i in range(k)]
    dx = [x - xi for xi in xn]
    value = np.zeros_like(x)
    slope = np.zeros_like(x)
    for i in range(k):
        # Lagrange basis prod_{j != i} (x - x_j) / (x_i - x_j) and its slope
        num, dnum, den = 1.0, 0.0, 1.0
        for j in range(k):
            if j != i:
                dnum = dnum * dx[j] + num
                num = num * dx[j]
                den = den * (xn[i] - xn[j])
        value += ds[first + i] * (num / den)
        slope += ds[first + i] * (dnum / den)
    return value, slope / unit


def _segment_hilbert(xs, ds, tw, x, tol):
    """pi times the Hilbert transform at each x of one density segment.

    Each row of the quadrature table is one point and each column one node;
    its trapezoid sum is the reduction against the weights tw by einsum, not
    BLAS, so a row's value does not depend on the rest of the batch.
    """
    a, b = xs[0], xs[-1]
    inside = np.flatnonzero((a <= x) & (x <= b))
    xi = x[inside]
    rho, slope = _local_cubic(xs, ds, xi)
    # the subtracted value c, the local cubic's inside and the nearer end's
    # sample outside, integrates to c log|(x - a)/(b - x)|
    c = np.where(x < a, ds[0], ds[-1])
    c[inside] = rho
    g = ds - c[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g /= np.subtract.outer(x, xs)
        log_term = c * np.log(np.abs((x - a) / (b - x)))
    # nodes within tol of an inside point take the cubic's limit -slope; they
    # lie in the window j0..j1-1 that searchsorted finds around the point
    j0 = np.searchsorted(xs, xi - 2.0 * tol)
    j1 = np.searchsorted(xs, xi + 2.0 * tol, side="right")
    for off in range(int(np.max(j1 - j0, initial=0))):
        r = np.flatnonzero(j1 - j0 > off)
        col = j0[r] + off
        near = np.abs(xi[r] - xs[col]) < tol
        g[inside[r[near]], col[near]] = -slope[r[near]]
    log_term[inside[rho == 0.0]] = 0.0
    return np.einsum("ij,j->i", g, tw) + log_term


def hilbert_transform(m, x):
    """(1/pi) PV integral of dm(t)/(x - t), at a point or at each point of an array.

    Uses the subtract-the-singularity rule on the density segment [a, b]:
    inside, with the local cubic interpolant of the samples; outside, with the
    nearer end's sample, whose integral is closed-form.  So only a bounded
    integrand is quadratured, by the trapezoid rule on the nodes; requires
    density samples or a purely atomic measure.  At a segment end
    rho log|(x - a)/(b - x)| is taken as 0 where the interpolated density is
    0.  Returns a float for a scalar x and an array for an array x.
    """
    if m._block_model():
        raise InvalidInputError("Hilbert transform needs density samples or only atoms")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = m.support
    scale = max(hi - lo, 1e-12)
    for xa, wa in m.atoms:
        if np.any(np.abs(x - xa) < 1e-12 * (np.abs(x) + abs(xa) + 1.0)):
            raise InvalidInputError("Hilbert transform undefined at an atom")
    total = np.zeros_like(x)
    for xa, w in m.atoms:
        total += w / (x - xa)
    if m.nodes is not None:
        xs, ds = m.nodes, m.density
        h = 0.5 * np.diff(xs)
        tw = np.concatenate([h, [0.0]])
        tw[1:] += h
        rows = max(1, _HILBERT_ENTRIES // xs.size)
        for r0 in range(0, x.size, rows):
            total[r0:r0 + rows] += _segment_hilbert(xs, ds, tw, x[r0:r0 + rows], 1e-12 * scale)
    out = total / math.pi
    return float(out[0]) if scalar else out


def log_energy(m):
    """Double integral of -log|s - t|; +inf when the measure has atoms.

    Evaluates the equal-mass block model with the log kernel integrated in
    closed form on every block pair, including the diagonal: the pair (a, b)
    is the block second difference of G(u) = u^2 (3/4 - log(u)/2), the second
    primitive of -log|u|, over the two cells' edges, divided by the widths
    d_a d_b.  The kernel is evaluated on the squared edge gaps s = u^2 as
    s (log s - 3) = -4 G(u).  The pair sum is symmetric (the kernel is even),
    so it runs over the upper triangle in strips of _ENERGY_ROWS block rows:
    each strip's diagonal tile counts once and the tiles right of it count
    twice.  A strip is differenced down its rows only; the column difference
    is moved onto the column weights by summation by parts, so the strip is
    summed as w_r . (rows . c) with w = 1/d and c_j = wc_j - wc_(j-1), wc the
    strip's column weights.  No n x n table is formed.
    """
    if m.atoms:
        return math.inf
    e = m._edges
    d = np.diff(e)
    if np.any(_flat_cells(e, d)):
        return math.inf
    n = d.size
    w = 1.0 / d
    # w_j - w_(j-1) on edges 0..n, with w_(-1) = w_n = 0
    dw = np.diff(w, prepend=0.0, append=0.0)
    # two scratch tables of the first strip's size, reused by every strip
    size = (min(_ENERGY_ROWS, n) + 1) * (n + 1)
    sbuf, gbuf = np.empty(size), np.empty(size)
    total = 0.0
    for r0 in range(0, n, _ENERGY_ROWS):
        r1 = min(r0 + _ENERGY_ROWS, n)
        k = r1 - r0
        shape = (k + 1, n + 1 - r0)
        s = sbuf[:shape[0] * shape[1]].reshape(shape)
        g = gbuf[:s.size].reshape(shape)
        # squared gaps of edges r0..r1 against edges r0..n; the edges
        # increase, so only an edge against itself gives 0.  A row copy and
        # a column subtract take less time than one broadcast subtract
        np.copyto(s, e[r0:])
        s -= e[r0:r1 + 1, None]
        np.square(s, out=s)
        np.fill_diagonal(s, _TINY)
        # -4 G(u) = s (log s - 3); the factor -4 leaves the sum at the end
        np.log(s, out=g)
        g -= 3.0
        g *= s
        # the differences down the rows: where a cell is narrow, its
        # difference of nearly equal kernel values is exact
        rows = np.subtract(g[1:], g[:-1], out=s[:-1])
        # the column weights' differences; wc is w doubled right of the
        # diagonal tile and 0 outside the strip
        c = 2.0 * dw[r0:]
        c[:k] = dw[r0:r1]
        c[0] = w[r0]
        c[k] += w[r1 - 1]
        total += float(np.dot(w[r0:r1], rows @ c))
    return -0.25 * total / (n * n)


def _simpson_pl(valsA, valsB, s):
    # Exact integral over [0,1] of the product of two piecewise-linear
    # functions sharing the breakpoint grid s.
    h = np.diff(s)
    fa0, fa1 = valsA[:-1], valsA[1:]
    fb0, fb1 = valsB[:-1], valsB[1:]
    fam = 0.5 * (fa0 + fa1)
    fbm = 0.5 * (fb0 + fb1)
    return float(np.sum(h / 6.0 * (fa0 * fb0 + 4.0 * fam * fbm + fa1 * fb1)))


def _pair_grid(m1, m2):
    # the finer table's levels, and each measure's quantiles there
    n = max(m1.n_cells, m2.n_cells)
    s = np.linspace(0.0, 1.0, n + 1)
    q1, q2 = (m._edges if m.n_cells == n else m._exact_quantile(s) for m in (m1, m2))
    return s, q1, q2


def wasserstein2_sq(m1, m2):
    """Squared 2-Wasserstein distance via quantile functions."""
    s, q1, q2 = _pair_grid(m1, m2)
    d = q1 - q2
    return max(_simpson_pl(d, d, s), 0.0)


def max_correlation(m1, m2):
    """Maximal correlation T = integral of Q1(s) Q2(s) ds, on the quantile
    model of ``wasserstein2_sq``, so that T = (M2(m1) + M2(m2) - W2^2)/2."""
    s, q1, q2 = _pair_grid(m1, m2)
    return _simpson_pl(q1, q2, s)


def displacement_interpolate(m0, m1, t):
    """Measure at time t on the Wasserstein geodesic from m0 to m1."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("interpolation time must lie in [0, 1]")
    if m0.atoms:
        raise InvalidInputError("initial measure must be non-atomic")
    _, e0, e1 = _pair_grid(m0, m1)
    return GridMeasure.from_quantile_edges((1.0 - t) * e0 + t * e1)
