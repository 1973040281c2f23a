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
from .jsonio import JSONMixin
from .measure1d import GridMeasure

# most negative value the sampled density may take before the potential is
# taken to be outside the one-cut regime
NEGATIVITY_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _gauss_theta(order):
    # Gauss-Legendre rule mapped to [0, pi]; exact to machine precision for
    # the trigonometric-polynomial integrands this module produces.
    x, w = np.polynomial.legendre.leggauss(order)
    theta, w = 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w
    theta.flags.writeable = w.flags.writeable = False
    return theta, w


@functools.lru_cache(maxsize=None)
def _fixed_sine(grid, n):
    """Read-only sin(n theta) on a fixed grid: the nodes of the theta-Gauss
    rule of ``grid`` points, or for ``grid`` None the 8192 uniform points of
    [0, pi] on which free_gibbs_measure checks the density's sign."""
    theta = np.linspace(0.0, np.pi, 8192) if grid is None else _gauss_theta(grid)[0]
    row = np.sin(n * theta)
    row.flags.writeable = False
    return row


def _even_deriv(coeffs, x):
    """u'(x) for u = sum_k coeffs[k-1] x^(2k)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, c in enumerate(coeffs, start=1):
        out = out + 2 * k * c * x ** (2 * k - 1)
    return out


def _sine_density(a, sine):
    """Density -(1/pi) sum_n a_n sin(n theta), sin(n theta) read from
    ``sine(n)``, summed in n order; a stack of coefficient vectors along the
    last axis of ``a`` gives a stack of densities."""
    vals = np.zeros(a.shape[:-1] + sine(1).shape)
    for n in range(1, a.shape[-1]):
        vals += a[..., n, None] * sine(n)
    return -vals / np.pi


def _density(a, r, x):
    """Density at x of the one-cut law with Fourier coefficients ``a`` at
    radius ``r``: the sine series, clipped at 0."""
    theta = np.arccos(np.clip(-x / r, -1.0, 1.0))
    return np.clip(_sine_density(a, lambda n: np.sin(n * theta)), 0.0, None)


def _theta_rule(a, r):
    """The theta-Gauss rule ``(x, weights)`` of the one-cut law with Fourier
    coefficients ``a`` at radius ``r``, so that the integral of f is
    ``weights @ f(x)``, and the density at its nodes.  Weights and density
    are linear in ``a``, and a stack of ``a`` gives a stack of each."""
    order = max(64, 4 * a.shape[-1] + 16)
    theta, w = _gauss_theta(order)
    dens = _sine_density(a, functools.partial(_fixed_sine, order))
    return -r * np.cos(theta), w * dens * r * _fixed_sine(order, 1), dens


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
    def parse(cls, text):
        """Parse "c2,c4,..." or a JSON object {"even_coeffs": [...]}."""
        text = text.strip()
        if text.startswith("{"):
            return cls(jsonio.loads(text)["even_coeffs"])
        return cls([float(p) for p in text.split(",") if p.strip()])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, c in enumerate(self.even_coeffs, start=1):
            out = out + c * x ** (2 * k)
        return out

    def deriv(self, x):
        return _even_deriv(self.even_coeffs, x)

    def scaled(self, c):
        """The potential x -> u(c x)."""
        return EvenPotential([ck * c ** (2 * k) for k, ck in enumerate(self.even_coeffs, start=1)])

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
    """The root of ``solve_radius`` as np.roots gives it, from raw c_2, c_4, ...;
    RegimeError when there is none, which a negative top coefficient allows."""
    poly = [k * math.comb(2 * k, k) * c for k, c in enumerate(coeffs, start=1)]
    if not all(map(math.isfinite, poly)):
        raise RegimeError(f"no support radius: the radius equation of even coefficients "
                          f"{[float(c) for c in coeffs]} overflows")
    roots = np.roots(list(reversed(poly)) + [-1.0])
    z = [z.real for z in roots if z.real > 0 and abs(z.imag) <= 1e-12 * abs(z)]
    if not z:
        raise RegimeError("no support radius: r*a_1 = -2 has no positive root")
    return 2.0 * math.sqrt(min(z))


def solve_radius(u):
    """Positive support radius solving r*a_1(r) + 2 = 0, in closed form.

    With z = r^2/4 the condition is the polynomial equation
    P(z) = sum_k k c_2k C(2k, k) z^k = 1; r = 2 sqrt(z) for its smallest
    positive real root, the first radius at which r*a_1 + 2 changes sign.
    """
    poly = [k * math.comb(2 * k, k) * Fraction(c) for k, c in enumerate(u.even_coeffs, start=1)]
    # np.roots leaves r a few ulp off; one Newton step on P(r^2/4) - 1 in exact
    # rational arithmetic lands on the double nearest the root
    r = Fraction(_float_radius(u.even_coeffs))
    q = r * r / 4
    f = sum(p * q ** k for k, p in enumerate(poly, start=1)) - 1
    df = sum(k * p * q ** (k - 1) for k, p in enumerate(poly, start=1)) * r / 2
    return float(r - f / df)


def _one_cut(coeffs, r=None):
    """The one-cut law of u = sum_k c_2k x^2k from raw c_2, c_4, ..., the top one
    possibly negative: the Fourier coefficients ``a`` at radius ``r`` (default
    ``_float_radius``) and the theta-Gauss rule ``(x, weights)``, so that the
    integral of f is ``weights @ f(x)``.  RegimeError when the density is
    negative (or NaN) at a node."""
    if r is None:
        r = _float_radius(coeffs)
    a = fourier_coefficients(functools.partial(_even_deriv, coeffs), r,
                             max(2 * len(coeffs) - 1, 1))
    x, weights, dens = _theta_rule(a, r)
    if not dens.min() >= -NEGATIVITY_TOL:
        raise RegimeError("one-cut assumption violated: density would be negative")
    return a, x, weights


def _moment_map(coeffs, jac=False):
    """The moments m_k of U'(y) under the one-cut law of U = sum_k c_2k y^2k,
    at the even degrees 2k <= 2 len(coeffs), from raw c_2, c_4, ...: the
    moment-measure map of Cordero-Erausquin-Klartag.  With ``jac``, also its
    exact derivative dm_k/dc_2j.

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
    a, x, weights = _one_cut(coeffs, r)
    f = _even_deriv(coeffs, x)
    moments = np.array([weights @ f ** (2 * k) for k in range(1, len(coeffs) + 1)])
    if not jac:
        return moments
    k = np.arange(1, len(coeffs) + 1)
    z = r * r / 4
    # pk = dP/dc_2k, and P'(z) = sum_k k pk c_2k / z
    pk = k * np.array([math.comb(2 * j, j) for j in k.tolist()], dtype=float) * z ** k
    dr = -2.0 / r * pk / (k * pk * coeffs).sum() * z
    # column j: the even coefficients whose _even_deriv is that polynomial,
    # y U''(y) being the _even_deriv of (2k - 1) c_2k
    moved = np.eye(len(coeffs)) + np.outer((2 * k - 1) * coeffs / r, dr)
    du = functools.partial(_even_deriv, moved[:, :, None])
    dweights = _theta_rule(fourier_coefficients(du, r, a.size - 1), r)[1] \
        + weights * (dr / r)[:, None]
    powers = 2 * k[:, None]
    return moments, (f ** powers @ dweights.T
                     + (powers * f ** (powers - 1) * weights) @ du(x).T)


class GibbsSolution(JSONMixin):
    """Radius, boundary Fourier coefficients, and the assembled measure."""

    def __init__(self, potential, radius, fourier, measure):
        self.potential = potential
        self.radius = float(radius)
        self.fourier = np.asarray(fourier, dtype=float)
        self.measure = measure
        # solver residual and timing, kept out of to_dict so output files
        # stay byte-identical
        self.diagnostics = {}

    def density(self, x):
        """Density at x from the Fourier representation; 0 outside (-r, r)."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if scalar and abs(x[0]) >= self.radius:
            raise InvalidInputError("density evaluation requires |x| < r")
        vals = np.where(np.abs(x) < self.radius, _density(self.fourier, self.radius, x), 0.0)
        return float(vals[0]) if scalar else vals

    def _theta_integral(self, f):
        # integral over [-r, r] of f(x) d(measure) by the theta-Gauss rule
        x, weights, _ = _theta_rule(self.fourier, self.radius)
        return float(weights @ f(x))

    def moment(self, k):
        """Exact k-th moment of the Fourier-form density."""
        return self._theta_integral(lambda x: x ** k)

    def mass(self):
        return self._theta_integral(lambda x: np.ones_like(x))

    def sd_scalar(self):
        """The Schwinger-Dyson number: integral of x u'(x) d(nu); equals 1."""
        return self._theta_integral(lambda x: x * self.potential.deriv(x))

    def to_dict(self):
        return {
            "even_coeffs": list(self.potential.even_coeffs),
            "radius": self.radius,
            "fourier": list(map(float, self.fourier)),
            "measure": self.measure.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(EvenPotential(d["even_coeffs"]), d["radius"],
                   np.asarray(d["fourier"], dtype=float),
                   GridMeasure.from_dict(d["measure"]))


def free_gibbs_measure(u):
    """Free Gibbs measure of an even polynomial potential.

    Fails with RegimeError when the candidate density dips below
    -NEGATIVITY_TOL anywhere (the potential is outside the one-cut regime).
    The solution's ``diagnostics`` hold the core keys (``iterations`` is 0:
    nothing is iterated), the radius-condition residual |r*a_1 + 2| as
    ``residual`` and the minimum of the sampled density as ``min_density``.
    """
    t0 = time.perf_counter()
    if not isinstance(u, EvenPotential):
        raise InvalidInputError("potential must be an EvenPotential")
    r = solve_radius(u)
    a, _, weights = _one_cut(u.even_coeffs, r)
    residual = float(abs(r * a[1] + 2.0))
    if residual > 1e-10:
        raise RegimeError("radius condition r*a_1 = -2 not met")
    sol = GibbsSolution(u, r, a, None)

    # a finer grid than the theta-Gauss nodes of _one_cut
    min_density = float(_sine_density(a, functools.partial(_fixed_sine, None)).min())
    if min_density < -NEGATIVITY_TOL:
        raise RegimeError("one-cut assumption violated: density would be negative")

    mass = float(weights.sum())
    if abs(mass - 1.0) > 1e-8:
        raise RegimeError(f"assembled density has mass {mass}, not 1")

    sol.measure = GridMeasure.from_callable(functools.partial(_density, a, r), (-r, r))
    sol.diagnostics = {"iterations": 0, "residual": residual, "converged": True,
                       "min_density": min_density, "seconds": time.perf_counter() - t0}
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
