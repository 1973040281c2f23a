"""Free Gibbs measures for even polynomial potentials.

The equilibrium condition 2*pi*H(rho) = u' on the support is solved through
the Cauchy transform: the transform is written as a power series in the
Riemann map of the complement of [-r, r], the series coefficients come from a
Fourier analysis of u' on the boundary circle, and the support radius r is
pinned by the residue condition r*a_1 = -2, a polynomial equation in r^2/4.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

import numpy as np

from . import jsonio, measure1d
from .errors import InvalidInputError, RegimeError
from .measure1d import GridMeasure

# most negative value the density's polynomial factor may take before the
# potential is taken to be outside the one-cut regime
NEGATIVITY_TOL = 1e-9
# largest |r*a_1 + 2| of a solve, and of a file that verify passes
RADIUS_CONDITION_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _gauss_theta(order):
    # Gauss-Legendre rule mapped to [0, pi]; exact to machine precision for
    # the trigonometric-polynomial integrands this module produces.
    x, w = np.polynomial.legendre.leggauss(order)
    theta, w = 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w
    theta.flags.writeable = w.flags.writeable = False
    return theta, w


@functools.lru_cache(maxsize=None)
def _sines(order, n_max):
    """Read-only sin(n theta), n = 1..n_max, at the nodes of the theta-Gauss rule of order."""
    rows = np.sin(np.multiply.outer(np.arange(1, n_max + 1), _gauss_theta(order)[0]))
    rows.flags.writeable = False
    return rows


def _even_deriv(coeffs, x):
    """u'(x) for u = sum_k coeffs[k-1] x^(2k)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, c in enumerate(coeffs, start=1):
        out = out + 2 * k * c * x ** (2 * k - 1)
    return out


def _sine_density(a, sines):
    """Density -(1/pi) sum_n a_n sin(n theta) from rows sin(n theta), n >= 1, per row of a."""
    return -(a[..., 1:] @ sines) / np.pi


def _density(a, r, x):
    """Density at x of the one-cut law with Fourier coefficients ``a`` at radius ``r``,
    unclipped: the sine series at |x|, so that the even law's flat top stays flat to the bit."""
    angles = np.multiply.outer(np.arange(1, a.size), np.arccos(np.clip(-np.abs(x) / r, -1.0, 1.0)))
    return _sine_density(a, np.sin(angles))


def _theta_rule(a, r):
    """The theta-Gauss rule ``(x, weights)`` of the one-cut law with Fourier
    coefficients ``a`` at radius ``r``, so that the integral of f is
    ``weights @ f(x)``.  The weights are linear in ``a``, and a stack of
    ``a`` gives a stack of them."""
    order = max(64, 4 * a.shape[-1] + 16)
    theta, w = _gauss_theta(order)
    sines = _sines(order, a.shape[-1] - 1)
    return -r * np.cos(theta), w * _sine_density(a, sines) * r * sines[0]


@functools.lru_cache(maxsize=None)
def _one_cut_tables(n):
    """Read-only matrices taking the odd Fourier coefficients a_1, a_3, ...,
    a_(2n-1) of an even law to the coefficients c_i of its density factor
    P(sqrt(z)) = sum_i c_i T_i(2z - 1) (see ``_check_one_cut``), and to its
    Bernstein coefficients of degree n - 1 on [0, 1], the Chebyshev-Bernstein
    change of basis in exact arithmetic (Rababah, Comput. Methods Appl.
    Math. 3, 2003)."""
    m = n - 1
    rows = [[sum((-1) ** (j - i) * math.comb(2 * j, 2 * i) * math.comb(m - j, k - i)
                 for i in range(max(0, k - m + j), min(j, k) + 1)) / math.comb(m, k)
             for j in range(n)] for k in range(n)]
    cheb = np.triu(np.full((n, n), -2.0 / np.pi))
    cheb[:1] /= 2.0
    bern = np.array(rows, dtype=float).reshape(n, n) @ cheb
    cheb.flags.writeable = bern.flags.writeable = False
    return cheb, bern


def _check_one_cut(a, coeffs):
    """RegimeError, naming the even coefficients ``coeffs``, unless the even
    law with Fourier coefficients ``a`` has a density of at least
    -NEGATIVITY_TOL on its whole support, or when ``a`` is not finite.

    At x = -r y the density is sqrt(1 - y^2) P(y), P = -(1/pi) sum_n a_n
    U_(n-1)(y).  The law's terms are the odd n (the even ones are round-off),
    and with U_2j = T_0 + 2 sum_(0<i<=j) T_2i and T_2i(y) = T_i(2y^2 - 1),
    P(sqrt(z)) = sum_i c_i T_i(2z - 1) on z in [0, 1].  Its least Bernstein
    coefficient bounds it below; only when that bound fails is its minimum
    taken at its critical points and ends.
    """
    odd = a[1::2]
    cheb, bern = _one_cut_tables(odd.size)
    if (bern @ odd >= -NEGATIVITY_TOL).all():
        return
    c, low = cheb @ odd, math.nan
    if np.isfinite(c).all():
        series = np.polynomial.chebyshev
        # trailing round-off would swamp the companion matrix of the derivative
        lead = series.chebtrim(c, 1e-14 * np.abs(c).max())
        w = np.append(series.chebroots(series.chebder(lead)).real.clip(-1.0, 1.0), (-1.0, 1.0))
        low = series.chebval(w, c).min()
    if not low >= -NEGATIVITY_TOL:
        raise RegimeError(f"even coefficients {[float(k) for k in coeffs]} are outside the "
                          f"one-cut regime: the density would be negative, its polynomial "
                          f"factor reaching {low:.3g}")


class EvenPotential:
    """Even polynomial u(x) = sum_k c_{2k} x^{2k} with positive leading term."""

    def __init__(self, even_coeffs):
        coeffs = [float(c) for c in even_coeffs]
        if not all(map(math.isfinite, coeffs)):
            raise InvalidInputError(f"even coefficients must be finite, got {coeffs}")
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            raise InvalidInputError("potential must have at least one nonzero even coefficient")
        if coeffs[-1] <= 0.0:
            raise InvalidInputError("leading coefficient must be positive (u must grow at infinity)")
        self.even_coeffs = tuple(coeffs)
        self.degree = 2 * len(coeffs)

    @classmethod
    def from_dict(cls, d):
        return cls(jsonio.field(d, "even_coeffs", jsonio.floats))

    @classmethod
    def parse(cls, text):
        """Parse the inline list "c2,c4,..."."""
        try:
            return cls([float(p) for p in text.split(",") if p.strip()])
        except ValueError:
            raise InvalidInputError(f"even coefficients {text!r} are not numbers") from None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, c in enumerate(self.even_coeffs, start=1):
            out = out + c * x ** (2 * k)
        return out

    def deriv(self, x):
        return _even_deriv(self.even_coeffs, x)

    def __repr__(self):
        return f"EvenPotential({list(self.even_coeffs)})"


@functools.lru_cache(maxsize=None)
def _boundary_grid(n_coeffs):
    """-cos t on the uniform periodic grid of ``fourier_coefficients``, and
    the rows cos(n t), n = 1..n_coeffs; read-only."""
    mpts = 4 * (n_coeffs + 1)
    theta = np.arange(mpts) * (2.0 * np.pi / mpts)
    nodes, cosines = -np.cos(theta), np.cos(np.arange(1, n_coeffs + 1)[:, None] * theta)
    nodes.flags.writeable = cosines.flags.writeable = False
    return nodes, cosines


def fourier_coefficients(uprime, r, n_coeffs):
    """Cosine coefficients a_0..a_N of the boundary values u'(-r cos t)/2.

    Trapezoid rule on a uniform periodic grid of 4*(N+1) points, exact when
    u' is a polynomial of degree <= N.  A ``uprime`` that returns a stack of
    functions along its first axes gives their coefficients along the same
    axes.
    """
    if n_coeffs < 1:
        raise InvalidInputError("need at least one Fourier coefficient")
    nodes, cosines = _boundary_grid(n_coeffs)
    vals = np.asarray(uprime(r * nodes), dtype=float)
    return np.concatenate((0.5 * np.mean(vals, axis=-1)[..., None],
                           np.mean(vals[..., None, :] * cosines, axis=-1)), axis=-1)


def _float_radius(coeffs):
    """The root of ``solve_radius`` by np.roots' companion matrix, from raw c_2, c_4,
    ...; RegimeError when there is none, which a negative top coefficient allows."""
    poly = [k * math.comb(2 * k, k) * float(c) for k, c in enumerate(coeffs, start=1)]
    if not all(map(math.isfinite, poly)):
        raise RegimeError(f"no support radius: the radius equation of even coefficients "
                          f"{[float(c) for c in coeffs]} overflows")
    # zero top coefficients trimmed, as np.roots does
    poly = poly[:max((k for k, p in enumerate(poly, start=1) if p), default=0)]
    companion = np.eye(len(poly), k=-1)
    companion[:1] = -np.array(poly[-2::-1] + [-1.0]) / poly[-1] if poly else 0.0
    roots = np.linalg.eigvals(companion)
    z = [z.real for z in roots.tolist() if z.real > 0 and abs(z.imag) <= 1e-12 * abs(z)]
    if not z:
        raise RegimeError(f"no support radius: the radius equation of even coefficients "
                          f"{[float(c) for c in coeffs]} has no positive root")
    return 2.0 * math.sqrt(min(z))


def solve_radius(u):
    """Positive support radius solving r*a_1(r) + 2 = 0, in closed form.

    With z = r^2/4 the condition is the polynomial equation
    P(z) = sum_k k c_2k C(2k, k) z^k = 1; r = 2 sqrt(z) for its smallest
    positive real root, the first radius at which r*a_1 + 2 changes sign.
    """
    poly = [k * math.comb(2 * k, k) * Fraction(c) for k, c in enumerate(u.even_coeffs, start=1)]
    # the eigenvalues leave r a few ulp off; one Newton step on P(r^2/4) - 1 in exact
    # rational arithmetic lands on the double nearest the root
    r = Fraction(_float_radius(u.even_coeffs))
    q = r * r / 4
    f = sum(p * q ** k for k, p in enumerate(poly, start=1)) - 1
    df = sum(k * p * q ** (k - 1) for k, p in enumerate(poly, start=1)) * r / 2
    return float(r - f / df)


@functools.lru_cache(maxsize=None)
def _odd_powers(n_coeffs):
    """Read-only (-cos t)^(2k-1), k = 1..``n_coeffs``: its Fourier coefficients
    and its values at the nodes of their theta-Gauss rule, both at radius 1."""
    odd = np.arange(1, 2 * n_coeffs, 2)[:, None]
    means = fourier_coefficients(lambda y: y ** odd, 1.0, max(2 * n_coeffs - 1, 1))
    powers = _theta_rule(means[0], 1.0)[0] ** odd
    means.flags.writeable = powers.flags.writeable = False
    return means, powers


def _one_cut(coeffs, r=None):
    """The one-cut law of u = sum_k c_2k x^2k from raw c_2, c_4, ..., the top one
    possibly negative: the Fourier coefficients ``a`` at radius ``r`` (default
    ``_float_radius``), the ``_odd_powers`` tables scaled by 2k c_2k r^(2k-1), and
    the theta-Gauss rule ``(x, weights)``: the integral of f is ``weights @ f(x)``.
    RegimeError as ``_float_radius`` and ``_check_one_cut``."""
    if r is None:
        r = _float_radius(coeffs)
    k = np.arange(1, len(coeffs) + 1)
    a = 2 * k * coeffs * r ** (2 * k - 1) @ _odd_powers(len(coeffs))[0]
    _check_one_cut(a, coeffs)
    return (a, *_theta_rule(a, r))


def _moment_map(coeffs):
    """The moments m_k of U'(y) under the one-cut law of U = sum_k c_2k y^2k,
    at the even degrees 2k <= 2 len(coeffs), from raw c_2, c_4, ...: the
    moment-measure map of Cordero-Erausquin-Klartag.  Returns the moments and
    ``jacobian``, which builds their exact derivative dm_k/dc_2j from the same
    law: its radius, weights and powers of U', with no second law solved.

    Moving c_2j moves U' on the boundary circle y = -r cos t by the odd
    polynomial 2j y^(2j-1) + dr_j y U''(y) / r, the second term through the
    radius: P(r^2/4) = 1 for P(z) = sum_k k C(2k, k) c_2k z^k gives
    dz_j = -j C(2j, j) z^j / P'(z), and dr_j = 2 dz_j / r.  That polynomial
    gives the derivative of the Fourier coefficients, hence of the rule's
    weights (linear in them, plus weights dr_j / r from their factor r), and
    of U' at the nodes x = -r cos(theta).  RegimeError as ``_one_cut``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    r = _float_radius(coeffs)
    _, _, weights = _one_cut(coeffs, r)
    k = np.arange(1, len(coeffs) + 1)
    means, odd = _odd_powers(len(coeffs))
    # U' at the nodes and its even powers, by products: pow costs more than the law
    scale = 2 * k * r ** (2 * k - 1)
    f = scale * coeffs @ odd
    even = np.cumprod(np.broadcast_to(f * f, (len(k), f.size)), axis=0)

    def jacobian():
        z = r * r / 4
        # pk = dP/dc_2k, and P'(z) = sum_k k pk c_2k / z
        pk = k * np.array([math.comb(2 * j, j) for j in k.tolist()], dtype=float) * z ** k
        dr = -2.0 / r * pk / (k * pk * coeffs).sum() * z
        # column j: that polynomial's coefficients, y U''(y) being the derivative
        # of sum_k (2k - 1) c_2k y^2k, scaled as in _one_cut
        moved = scale[:, None] * (np.eye(len(coeffs)) + np.outer((2 * k - 1) * coeffs / r, dr))
        dweights = _theta_rule(moved.T @ means, r)[1] + weights * (dr / r)[:, None]
        # d f^2k = 2k f^(2k-1) df
        odd_f = 2 * k[:, None] * f * np.vstack((np.ones_like(f), even[:-1]))
        return even @ dweights.T + (odd_f * weights) @ (moved.T @ odd).T

    return even @ weights, jacobian


class GibbsSolution(jsonio.JSONWriter):
    """The law of ``potential`` at radius ``radius``: the Fourier coefficients
    ``fourier`` and theta-Gauss rule of one ``_one_cut`` call, which tests the
    regime, its Schwinger-Dyson number and its measure on the Chebyshev nodes of
    [-r, r].  InvalidInputError when the radius is not finite and positive,
    overflows any of them, or gives no valid measure (at a tiny radius the
    nodes collapse or the mass underflows); RegimeError as ``_one_cut``.  The
    caller judges the radius condition r*a_1 = -2."""

    def __init__(self, potential, radius):
        self.potential = potential
        self.radius = r = float(radius)
        # written to fail on NaN as well
        if not (r > 0 and math.isfinite(r)):
            raise InvalidInputError(f"radius must be finite and positive, got {r!r}")
        try:
            with np.errstate(over="raise"):
                self.fourier, *self._rule = _one_cut(potential.even_coeffs, r)
                self._sd_scalar = self._theta_integral(lambda x: x * potential.deriv(x))
                nodes = measure1d.chebyshev_nodes(-r, r, measure1d.DEFAULT_NODES)
                dens = _density(self.fourier, r, nodes)
                self.measure = GridMeasure.from_density(nodes, dens, normalize=True)
        except FloatingPointError:
            raise InvalidInputError(f"radius {r!r} overflows the law of {potential}") from None
        except InvalidInputError as exc:
            # at a tiny radius the nodes collapse or the mass underflows to 0
            raise InvalidInputError(
                f"radius {r!r} gives no measure for the law of {potential}: {exc}") from None
        # a solve adds its residual and timing; all kept out of to_dict
        self.diagnostics = {"min_density": float(dens.min())}

    def density(self, x):
        """Density at x from the Fourier representation; 0 outside (-r, r)."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if scalar and abs(x[0]) >= self.radius:
            raise InvalidInputError("density evaluation requires |x| < r")
        vals = np.where(np.abs(x) < self.radius, _density(self.fourier, self.radius, x), 0.0)
        vals = np.clip(vals, 0.0, None)
        return float(vals[0]) if scalar else vals

    def _theta_integral(self, f):
        # integral over [-r, r] of f(x) d(measure) by the theta-Gauss rule
        x, weights = self._rule
        return float(weights @ f(x))

    def moment(self, k):
        """Exact k-th moment of the Fourier-form density."""
        return self._theta_integral(lambda x: x ** k)

    def sd_scalar(self):
        """The Schwinger-Dyson number: integral of x u'(x) d(nu); equals 1."""
        return self._sd_scalar

    def to_dict(self):
        return {"even_coeffs": list(self.potential.even_coeffs), "radius": self.radius}

    @classmethod
    def from_dict(cls, d):
        return cls(EvenPotential.from_dict(d), jsonio.field(d, "radius", float))


def free_gibbs_measure(u):
    """Free Gibbs measure of an even polynomial potential: the
    ``GibbsSolution`` at the radius of ``solve_radius``.

    Fails with RegimeError when the radius condition misses by more than
    RADIUS_CONDITION_TOL, or as ``GibbsSolution`` does.  The solution's
    ``diagnostics`` hold the core keys (``iterations`` is 0: nothing is
    iterated), the radius-condition residual |r*a_1 + 2| as ``residual`` and
    ``min_density``.
    """
    t0 = time.perf_counter()
    if not isinstance(u, EvenPotential):
        raise InvalidInputError("potential must be an EvenPotential")
    sol = GibbsSolution(u, solve_radius(u))
    residual = float(abs(sol.radius * sol.fourier[1] + 2.0))
    if residual > RADIUS_CONDITION_TOL:
        raise RegimeError("radius condition r*a_1 = -2 not met")
    sol.diagnostics.update(iterations=0, residual=residual, converged=True,
                           seconds=time.perf_counter() - t0)
    return sol


def hilbert_residual(sol):
    """Max of |2 pi H(nu)(x) - u'(x)| over 101 points on the inner 90 % of the support.

    The Hilbert transform is recomputed from the grid samples by principal
    value quadrature, so this is an independent check on the solution.
    """
    u = sol.potential
    r = sol.radius
    xs = np.linspace(-0.9 * r, 0.9 * r, 101)
    h = measure1d.hilbert_transform(sol.measure, xs)
    return float(np.max(np.abs(2.0 * math.pi * h - u.deriv(xs))))
