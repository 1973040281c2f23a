"""Compactly supported probability measures on the real line.

A measure is carried in two coupled representations:

* density samples on a node grid (plus optional exact atoms), used for
  pointwise work such as Hilbert transforms and moments, and
* a quantile table on a uniform mass grid, used for every optimal-transport
  functional (Wasserstein distance, maximal correlation, displacement
  interpolation, logarithmic energy).

The transport functionals all evaluate the same piecewise-linear quantile
model (equal-mass blocks between quantile edges), so algebraic identities
between them hold to round-off rather than to quadrature tolerance.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .errors import InvalidInputError
from .jsonio import JSONMixin

DEFAULT_NODES = 2048
DEFAULT_CELLS = 1024

_FLAT_TOL = 1e-14
# largest CDF mismatch of the quantile table and largest total-mass error
# that GridMeasure.validate accepts
_CDF_TOL = 1e-8
_MASS_TOL = 1e-10
# block rows per strip of the log_energy pair sum; strips of 16 or 32 rows
# were slower at 1024 cells
_ENERGY_ROWS = 64
# quadrature-table entries per batch of points in hilbert_transform; tables
# of 512 KiB stay in cache and reuse their memory from batch to batch
_HILBERT_ENTRIES = 1 << 16
# stands in for a zero kernel argument, so that log() sees no zero: its
# square underflows to 0, which is the kernel's value there
_TINY = np.finfo(float).tiny


def chebyshev_nodes(a, b, n):
    """Chebyshev-Lobatto points on [a, b], increasing, endpoints included."""
    theta = np.linspace(0.0, np.pi, n)
    return 0.5 * (a + b) - 0.5 * (b - a) * np.cos(theta)


def _flat_cells(e, d):
    """Which cells of edges ``e`` (widths ``d``) are flat: atoms, not density blocks."""
    return d <= _FLAT_TOL * (abs(e[-1] - e[0]) + 1.0)


class GridMeasure(JSONMixin):
    """A compactly supported probability measure on the line.

    Instances are immutable by convention; every operation returns a new
    measure.  Use the ``from_*`` constructors, not ``__init__`` directly.
    """

    def __init__(self, support, segments, atoms, edges, quantiles_primary=False):
        self.support = (float(support[0]), float(support[1]))
        self._segments = [(np.asarray(x, float), np.asarray(d, float)) for x, d in segments]
        self.atoms = sorted((float(x), float(w)) for x, w in atoms)
        self._edges = np.asarray(edges, dtype=float)
        self.mixed = bool(self._segments) and bool(self.atoms)
        # when True the stored quantile table is the authoritative view and
        # any density samples are a derived convenience (pushforwards,
        # displacement interpolants, particle clouds)
        self._quantiles_primary = bool(quantiles_primary)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_density(cls, nodes, density, support=None, atoms=(), normalize=False,
                     n_cells=DEFAULT_CELLS, validate=True):
        """Build a measure from density samples (piecewise linear between nodes).

        ``normalize=True`` rescales the density so that the total mass
        (including any atoms) is exactly one.
        """
        nodes = np.asarray(nodes, dtype=float)
        density = np.asarray(density, dtype=float)
        if nodes.ndim != 1 or nodes.shape != density.shape or nodes.size < 2:
            raise InvalidInputError("nodes and density must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidInputError("nodes must be strictly increasing")
        if np.min(density) < -1e-9:
            raise InvalidInputError("density must be nonnegative")
        density = np.clip(density, 0.0, None)
        atom_mass = sum(w for _, w in atoms)
        ac_mass = float(np.trapezoid(density, nodes))
        if normalize:
            if ac_mass <= 0:
                raise InvalidInputError("cannot normalize a zero density")
            density = density * ((1.0 - atom_mass) / ac_mass)
            ac_mass = 1.0 - atom_mass
        if support is None:
            lo = min([nodes[0]] + [x for x, _ in atoms])
            hi = max([nodes[-1]] + [x for x, _ in atoms])
            support = (lo, hi)
        m = cls(support, [(nodes, density)], list(atoms), np.zeros(2))
        m._edges = m._exact_quantile(np.linspace(0.0, 1.0, n_cells + 1))
        if validate:
            m.validate()
        return m

    @classmethod
    def from_callable(cls, fn, support, n_nodes=DEFAULT_NODES, n_cells=DEFAULT_CELLS):
        """Sample a density callable on a Chebyshev-spaced node grid; normalize to mass one."""
        nodes = chebyshev_nodes(support[0], support[1], n_nodes)
        vals = np.clip(np.asarray(fn(nodes), dtype=float), 0.0, None)
        return cls.from_density(nodes, vals, support=support, normalize=True, n_cells=n_cells)

    @classmethod
    def from_atoms(cls, atoms, n_cells=DEFAULT_CELLS):
        """A purely atomic measure from (location, mass) pairs."""
        atoms = sorted((float(x), float(w)) for x, w in atoms)
        if not np.isfinite(atoms).all():
            raise InvalidInputError(f"atom locations and masses must be finite, got {atoms}")
        if not atoms or any(w <= 0 for _, w in atoms):
            raise InvalidInputError("atoms must be nonempty with positive masses")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-10:
            raise InvalidInputError("atom masses must sum to one")
        support = (atoms[0][0], atoms[-1][0])
        m = cls(support, [], atoms, np.zeros(2))
        m._edges = m._exact_quantile(np.linspace(0.0, 1.0, n_cells + 1))
        return m

    @classmethod
    def from_quantile_edges(cls, edges, validate=True):
        """Build a measure from quantile values on the uniform edge grid j/m.

        Runs of exactly equal edges become atoms; the rest is carried as the
        equal-mass block model with no density samples attached.
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 3:
            raise InvalidInputError("need at least 3 quantile edge values")
        if np.any(np.diff(edges) < -1e-12 * (abs(edges[-1] - edges[0]) + 1.0)):
            raise InvalidInputError("quantile edges must be nondecreasing")
        edges = np.maximum.accumulate(edges)
        n = edges.size - 1
        flat = _flat_cells(edges, np.diff(edges))
        # maximal runs of flat cells j..k-1
        step = np.diff(np.concatenate([[0], flat.astype(np.int8), [0]]))
        atoms = [(float(edges[j]), (k - j) / n)
                 for j, k in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))]
        m = cls((edges[0], edges[-1]), [], atoms, edges, quantiles_primary=True)
        if validate:
            m.validate()
        return m

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self):
        if not self._segments:
            return None
        if len(self._segments) == 1:
            return self._segments[0][0]
        return np.concatenate([x for x, _ in self._segments])

    @property
    def density(self):
        if not self._segments:
            return None
        if len(self._segments) == 1:
            return self._segments[0][1]
        return np.concatenate([d for _, d in self._segments])

    @property
    def quantiles(self):
        """Quantile values on the interior uniform grid s_j = j/m."""
        return self._edges[1:-1]

    @property
    def n_cells(self):
        return self._edges.size - 1

    def is_atomic(self):
        # the atoms carry all the mass; a quantile table's other cells carry the rest
        return not self._segments and abs(sum(w for _, w in self.atoms) - 1.0) <= _MASS_TOL

    def _block_model(self):
        """True when the measure is its quantile table alone, read as the
        equal-mass block model: no density samples, and not purely atomic."""
        return not self._segments and not self.is_atomic()

    def total_mass(self):
        if self._block_model():
            return 1.0
        ac = sum(float(np.trapezoid(d, x)) for x, d in self._segments)
        return ac + sum(w for _, w in self.atoms)

    # -- exact CDF / quantile machinery -------------------------------------

    def _exact_quantile(self, s):
        """Generalized inverse CDF, exact for the stored representation."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        # mass-carrying pieces (x0, x1, d0, d1, mass): density cells of positive
        # mass, then atoms as zero-width pieces, stably ordered by (x0, x1)
        pieces = []
        for xs, ds in self._segments:
            mass = 0.5 * (ds[:-1] + ds[1:]) * np.diff(xs)
            pos = mass > 0
            pieces.append((xs[:-1][pos], xs[1:][pos], ds[:-1][pos], ds[1:][pos], mass[pos]))
        ax = np.array([x for x, _ in self.atoms], dtype=float)
        zero = np.zeros_like(ax)
        pieces.append((ax, ax, zero, zero, np.array([w for _, w in self.atoms], dtype=float)))
        x0, x1, d0, d1, mass = (np.concatenate(col) for col in zip(*pieces))
        order = np.lexsort((x1, x0))
        cum = np.concatenate([[0.0], np.cumsum(mass[order])])
        # mass level s*total falls in piece i when cum[i] < s*total <= cum[i+1]
        level = s * cum[-1]
        i = np.clip(np.searchsorted(cum, level, side="left") - 1, 0, mass.size - 1)
        x0, x1, d0, d1, mass = (a[order[i]] for a in (x0, x1, d0, d1, mass))
        rem = np.minimum(np.maximum(level - cum[i], 0.0), mass)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (d1 - d0) / (x1 - x0)
            linear = x0 + (rem / mass) * (x1 - x0)
            root = (np.sqrt(np.maximum(d0 * d0 + 2.0 * slope * rem, 0.0)) - d0) / slope
        out = np.where(np.abs(slope) < 1e-300, linear, np.minimum(np.maximum(x0 + root, x0), x1))
        return np.where(x1 == x0, x0, out)

    def cdf(self, x):
        """CDF at x (right-continuous), exact for the stored representation."""
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        if self._block_model():
            # with k edges <= x, x lies in block k - 1, of positive width when
            # 0 < k <= n; the blocks before it (flat ones are atoms) count whole
            e, n = self._edges, self.n_cells
            k = np.searchsorted(e, xq, side="right")
            j = np.clip(k - 1, 0, n - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.clip((xq - e[j]) / (e[j + 1] - e[j]), 0.0, 1.0)
            out = np.where(k > n, 1.0, (j + t) / n)
            return out if np.ndim(x) else float(out[0])
        out = np.zeros_like(xq)
        for xs, ds in self._segments:
            widths = np.diff(xs)
            cellmass = 0.5 * (ds[:-1] + ds[1:]) * widths
            cum = np.concatenate([[0.0], np.cumsum(cellmass)])
            pos = np.clip(np.searchsorted(xs, xq, side="right") - 1, 0, xs.size - 2)
            t = np.clip((xq - xs[pos]) / widths[pos], 0.0, 1.0)
            d0 = ds[pos]
            slope = (ds[pos + 1] - ds[pos])
            part = widths[pos] * (d0 * t + 0.5 * slope * t * t)
            inside = cum[pos] + part
            out += np.where(xq < xs[0], 0.0, np.where(xq >= xs[-1], cum[-1], inside))
        for xa, wa in self.atoms:
            out += np.where(xq >= xa, wa, 0.0)
        return out if np.ndim(x) else float(out[0])

    # -- model quantile (equal-mass block) -----------------------------------

    def _model_quantile(self, s):
        grid = np.linspace(0.0, 1.0, self._edges.size)
        return np.interp(s, grid, self._edges)

    def _resampled_edges(self, n_cells):
        if n_cells == self.n_cells:
            return self._edges
        return self._model_quantile(np.linspace(0.0, 1.0, n_cells + 1))

    # -- misc ----------------------------------------------------------------

    def translate(self, c):
        c = float(c)
        segs = [(x + c, d.copy()) for x, d in self._segments]
        atoms = [(x + c, w) for x, w in self.atoms]
        return GridMeasure((self.support[0] + c, self.support[1] + c),
                           segs, atoms, self._edges + c, self._quantiles_primary)

    def center(self):
        return self.translate(-barycenter(self))

    def validate(self):
        lo, hi = self.support
        if not hi > lo or not np.isfinite([lo, hi]).all():
            raise InvalidInputError("support must be a finite nondegenerate interval")
        for xs, ds in self._segments:
            # written to fail on NaN as well
            if not (np.diff(xs) > 0).all():
                raise InvalidInputError("nodes must be strictly increasing")
            if not (ds >= 0).all():
                raise InvalidInputError("density must be nonnegative")
            if xs[0] < lo - 1e-12 or xs[-1] > hi + 1e-12:
                raise InvalidInputError("nodes outside support")
        if any(w <= 0 for _, w in self.atoms):
            raise InvalidInputError("atom masses must be positive")
        total = self.total_mass()
        if self._segments and abs(total - 1.0) > _MASS_TOL:
            raise InvalidInputError(f"total mass {total} differs from 1")
        if np.any(np.diff(self._edges) < -1e-12 * (hi - lo)):
            raise InvalidInputError("quantiles must be nondecreasing")
        if self._segments and not self.atoms:
            # quantile table consistent with the density CDF at interior grid points
            s = np.linspace(0.0, 1.0, min(self.n_cells, 64) + 1)[1:-1]
            q = self._exact_quantile(s)
            f = self.cdf(q)
            if np.max(np.abs(f - s)) > _CDF_TOL:
                raise InvalidInputError("quantiles inconsistent with density CDF")
        return True

    # -- serialization -------------------------------------------------------

    def block_density_estimate(self):
        """Midpoint density samples of the equal-mass block model."""
        e = self._edges
        d = np.diff(e)
        keep = ~_flat_cells(e, d)
        mids = 0.5 * (e[:-1] + e[1:])[keep]
        dens = (1.0 / d.size) / d[keep]
        return mids, dens

    def to_dict(self):
        nodes, density = self.nodes, self.density
        if nodes is None and not self.is_atomic():
            nodes, density = self.block_density_estimate()
        d = {
            "support": [self.support[0], self.support[1]],
            "nodes": [] if nodes is None else list(map(float, nodes)),
            "density": [] if density is None else list(map(float, density)),
            "atoms": [[x, w] for x, w in self.atoms],
            "quantiles": list(map(float, self.quantiles)),
        }
        if self._quantiles_primary:
            d["quantiles_primary"] = True
        if len(self._segments) > 1 or (self._segments and self._quantiles_primary):
            d["segment_lengths"] = [int(x.size) for x, _ in self._segments]
        return d

    @classmethod
    def from_dict(cls, d):
        support = tuple(d["support"])
        atoms = [tuple(a) for a in d.get("atoms", [])]
        q = np.asarray(d.get("quantiles", []), dtype=float)
        edges = np.concatenate([[support[0]], q, [support[1]]])
        primary = bool(d.get("quantiles_primary"))
        segments = []
        if not primary or d.get("segment_lengths"):
            nodes = np.asarray(d.get("nodes", []), dtype=float)
            dens = np.asarray(d.get("density", []), dtype=float)
            if nodes.size:
                lengths = d.get("segment_lengths", [nodes.size])
                pos = 0
                for ln in lengths:
                    segments.append((nodes[pos:pos + ln], dens[pos:pos + ln]))
                    pos += ln
        return cls(support, segments, atoms, edges, quantiles_primary=primary)

    def to_csv(self, path=None):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["node", "density"])
        if self.nodes is not None:
            for x, d in zip(self.nodes, self.density):
                w.writerow([repr(float(x)), repr(float(d))])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def __repr__(self):
        kind = "atomic" if self.is_atomic() else ("mixed" if self.mixed else "ac")
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
    return GridMeasure.from_density(nodes, np.full(DEFAULT_NODES, 1.0 / (b - a)), support=(a, b))


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
    for xs, ds in m._segments:
        total += float(np.trapezoid(xs ** k * ds, xs))
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


def barycenter(m):
    return moment(m, 1)


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
    """Generalized inverse CDF.

    Exact inversion of the stored density/atom representation; measures whose
    quantile table is the authoritative or the only view (pushforwards,
    interpolants, particle clouds) interpolate that table instead.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise InvalidInputError("quantile level must lie in (0, 1)")
    if (m._quantiles_primary and not m.is_atomic()) or m._block_model():
        out = m._model_quantile(s)
    else:
        out = m._exact_quantile(s)
    return float(out[0]) if scalar else out


def _fprime(f, x, scale):
    h = 6e-6 * np.maximum(np.abs(x), max(0.05 * scale, 1e-12))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _refine_flat_boundary(f, x_flat, x_move, v, tol):
    # Monotone f: bisect for the boundary of the region where f == v.
    lo, hi = (x_flat, x_move)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(f(mid) - v) <= tol:
            lo = mid
        else:
            hi = mid
    return lo


def pushforward_monotone(m, f):
    """Law of f(X) for X ~ m, for nondecreasing f.

    f must be vectorized (array in, array out): it is called once on each
    grid of points, and on scalars only to bisect the ends of flat runs.
    Densities transform by the change-of-variables rule; intervals where f is
    flat collapse to exact atoms.
    """
    lo, hi = m.support
    scale = hi - lo
    fp = np.asarray(f(np.linspace(lo, hi, 1025)), dtype=float)
    fscale = abs(fp[-1] - fp[0]) + 1.0
    if np.any(np.diff(fp) < -1e-10 * fscale):
        raise InvalidInputError("f must be nondecreasing on the support")

    new_edges = np.maximum.accumulate(np.asarray(f(m._edges), dtype=float))
    atom_y = np.asarray(f(np.array([x for x, _ in m.atoms], dtype=float)), dtype=float)

    if m.is_atomic():
        merged = {}
        for y, (_, w) in zip(atom_y.tolist(), m.atoms):
            merged[y] = merged.get(y, 0.0) + w
        return GridMeasure((min(merged), max(merged)), [], sorted(merged.items()), new_edges)

    flat_tol = 1e-12 * fscale
    mids = 0.5 * (m._edges[:-1] + m._edges[1:])
    fmids = np.asarray(f(mids), dtype=float)
    # maximal runs of cells j0..j1 whose consecutive images agree within flat_tol
    flat = np.concatenate([[False], np.abs(np.diff(fmids)) <= flat_tol, [False]])
    step = np.diff(flat.astype(np.int8))
    runs = zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))

    atoms = []
    flat_x = []
    for j0, j1 in runs:
        v = fmids[j0]
        xl = _refine_flat_boundary(f, mids[j0], lo, v, flat_tol)
        xr = _refine_flat_boundary(f, mids[j1], hi, v, flat_tol)
        # CDF difference already includes any input atoms sitting inside the run
        mass = float(m.cdf(xr) - m.cdf(xl))
        if mass > 1e-13:
            atoms.append((v, mass))
            flat_x.append((xl, xr))

    segments = []
    for xs, ds in m._segments:
        keep = np.ones(xs.size, dtype=bool)
        for xl, xr in flat_x:
            keep &= ~((xs > xl + 1e-13 * scale) & (xs < xr - 1e-13 * scale))
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            continue
        # contiguous runs of kept indices form the surviving density pieces
        breaks = np.flatnonzero(np.diff(idx) > 1)
        pieces = np.split(idx, breaks + 1)
        for piece in pieces:
            if piece.size < 2:
                continue
            xs_p = xs[piece]
            ys = np.asarray(f(xs_p), dtype=float)
            fpv = _fprime(f, xs_p, scale)
            dens = np.divide(ds[piece], fpv, out=np.zeros_like(fpv), where=fpv > 1e-300)
            good = np.concatenate([[True], np.diff(ys) > 0]) & np.isfinite(dens)
            if np.count_nonzero(good) >= 2:
                segments.append((ys[good], dens[good]))

    # input atoms outside every flat run keep their own image atoms
    atoms_all = list(atoms)
    for ya, (xa, wa) in zip(atom_y.tolist(), m.atoms):
        if not any(xl <= xa <= xr for xl, xr in flat_x):
            atoms_all.append((ya, wa))
    support = (float(new_edges[0]), float(new_edges[-1]))
    return GridMeasure(support, segments, atoms_all, new_edges, quantiles_primary=True)


def _local_cubic(xs, ds, x):
    """Value and slope at each x of the cubic through the 4 nodes around it.

    The nodes are the two on each side of x's cell, shifted inward at the
    ends; a segment of k < 4 nodes uses its degree k - 1 interpolant.  At a
    node the value is that node's sample exactly.
    """
    k = min(4, xs.size)
    first = np.clip(np.searchsorted(xs, x, side="right") - k // 2, 0, xs.size - k)
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
    return value, slope


def _segment_hilbert(xs, ds, tw, x, tol):
    """pi times the Hilbert transform at each x of one density segment.

    Each row of the quadrature table is one point and each column one node;
    its trapezoid sum is the reduction against the weights tw by einsum, not
    BLAS, so a row's value does not depend on the rest of the batch.
    """
    a, b = xs[0], xs[-1]
    out = np.empty_like(x)
    inside = (a <= x) & (x <= b)
    xi = x[inside]
    rho, slope = _local_cubic(xs, ds, xi)
    g = ds - rho[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g /= np.subtract.outer(xi, xs)
        log_term = rho * np.log(np.abs((xi - a) / (b - xi)))
    # nodes within tol of a point take the cubic's limit -slope; they lie in
    # the window j0..j1-1 that searchsorted finds around the point
    j0 = np.searchsorted(xs, xi - 2.0 * tol)
    j1 = np.searchsorted(xs, xi + 2.0 * tol, side="right")
    for off in range(int(np.max(j1 - j0, initial=0))):
        r = np.flatnonzero(j1 - j0 > off)
        c = j0[r] + off
        near = np.abs(xi[r] - xs[c]) < tol
        g[r[near], c[near]] = -slope[r[near]]
    log_term[rho == 0.0] = 0.0
    out[inside] = np.einsum("ij,j->i", g, tw) + log_term
    # outside, the end value de integrates to de log|(x - a)/(x - b)|
    xo = x[~inside]
    de = np.where(xo < a, ds[0], ds[-1])
    g = ds - de[:, None]
    g /= np.subtract.outer(xo, xs)
    out[~inside] = np.einsum("ij,j->i", g, tw) + de * np.log(np.abs((xo - a) / (xo - b)))
    return out


def hilbert_transform(m, x):
    """(1/pi) PV integral of dm(t)/(x - t), at a point or at each point of an array.

    Uses the subtract-the-singularity rule on each density segment [a, b]:
    inside, with the local cubic interpolant of the samples; outside, with the
    nearer end's sample, whose integral is closed-form.  So only a bounded
    integrand is quadratured, by the trapezoid rule on the segment's nodes;
    requires density samples or a purely atomic measure.  At a segment end
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
    for xs, ds in m._segments:
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
    d_a d_b.  The pair sum is symmetric (the kernel is even), so it runs over
    the upper triangle in strips of _ENERGY_ROWS block rows: each strip's
    diagonal tile counts once and the tiles right of it count twice.  A strip
    is summed as the weighted row reduction w_r . (block . w_c), w = 1/d, so
    no n x n table is formed.
    """
    if m.atoms:
        return math.inf
    e = m._edges
    d = np.diff(e)
    if np.any(_flat_cells(e, d)):
        return math.inf
    n = d.size
    w = 1.0 / d
    # two scratch tables of the first strip's size, reused by every strip
    size = (min(_ENERGY_ROWS, n) + 1) * (n + 1)
    ubuf, gbuf = np.empty(size), np.empty(size)
    total = 0.0
    for r0 in range(0, n, _ENERGY_ROWS):
        r1 = min(r0 + _ENERGY_ROWS, n)
        k = r1 - r0
        shape = (k + 1, n + 1 - r0)
        u = ubuf[:shape[0] * shape[1]].reshape(shape)
        g = gbuf[:u.size].reshape(shape)
        # edges r0..r1 against edges r0..n; the edges increase, so u > 0
        # right of the diagonal tile
        np.subtract(e[r0:], e[r0:r1 + 1, None], out=u)
        tile = u[:, :k + 1]
        np.abs(tile, out=tile)
        np.maximum(tile, _TINY, out=tile)
        # -2 G(u) = u^2 (log u - 3/2); the factor -2 leaves the sum at the end
        np.log(u, out=g)
        g -= 1.5
        g *= u
        g *= u
        # the block second difference, as the difference along the columns
        # of the differences down the rows: where a cell is narrow, its
        # difference of nearly equal kernel values is exact
        rows = np.subtract(g[1:], g[:-1], out=u[:-1])
        block = np.subtract(rows[:, :-1], rows[:, 1:], out=g[:-1, :-1])
        wc = w[r0:].copy()
        wc[k:] *= 2.0
        total += float(np.dot(w[r0:r1], np.einsum("ij,j->i", block, wc)))
    return -0.5 * total / (n * n)


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
    n = max(m1.n_cells, m2.n_cells)
    s = np.linspace(0.0, 1.0, n + 1)
    return s, m1._resampled_edges(n), m2._resampled_edges(n)


def wasserstein2_sq(m1, m2):
    """Squared 2-Wasserstein distance via quantile functions."""
    s, q1, q2 = _pair_grid(m1, m2)
    d = q1 - q2
    return max(_simpson_pl(d, d, s), 0.0)


def max_correlation(m1, m2):
    """Maximal correlation T = integral of Q1(s) Q2(s) ds.

    The defining identity T = (M2(m1) + M2(m2) - W2^2)/2 is checked on the
    same quantile model before returning.
    """
    s, q1, q2 = _pair_grid(m1, m2)
    t = _simpson_pl(q1, q2, s)
    m2a = _simpson_pl(q1, q1, s)
    m2b = _simpson_pl(q2, q2, s)
    w2 = _simpson_pl(q1 - q2, q1 - q2, s)
    ident = 0.5 * m2a + 0.5 * m2b - 0.5 * w2
    if abs(t - ident) > 1e-8 * max(1.0, abs(t)):
        raise InvalidInputError("maximal-correlation identity violated")
    return t


def displacement_interpolate(m0, m1, t):
    """Measure at time t on the Wasserstein geodesic from m0 to m1."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("interpolation time must lie in [0, 1]")
    if m0.atoms:
        raise InvalidInputError("initial measure must be non-atomic")
    _, e0, e1 = _pair_grid(m0, m1)
    return GridMeasure.from_quantile_edges((1.0 - t) * e0 + t * e1, validate=False)
