"""Domain geometry, radial weights, quadrature, and harmonic sectors.

Two one-parameter families of domains are supported, both parametrised by a
radial coordinate t running from the centre to the clamped boundary:

* geodesic caps {dist(x, pole) < aperture} on the unit n-sphere, aperture
  strictly inside (0, pi);
* flat balls of radius ``aperture`` in R^n.

Functions of the form f(t) * Y_l(omega), with Y_l a spherical harmonic of
degree l on the cross-section S^{n-1}, reduce the Laplacian to the radial
operator

    L_l f = f'' + (n-1) c(t) f' - l(l+n-2) s(t)^2 f,

with c = cot t, s = 1/sin t on the sphere and c = 1/t, s = 1/t on the ball.
The volume element contributes the radial weight sin^{n-1} t (respectively
t^{n-1}) times the area of the unit cross-section sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Geometry",
    "CapDomain",
    "QuadratureRule",
    "SectorIndex",
    "make_cap",
    "make_sector",
    "radial_weight",
    "harmonic_multiplicity",
    "surface_area",
    "gauss_legendre_rule",
    "sector_operator_apply",
]


class Geometry(str, Enum):
    """Which family the domain belongs to."""

    SPHERICAL = "spherical"
    FLAT = "flat"


@dataclass(frozen=True)
class CapDomain:
    """A clamped cap: geometry, ambient dimension 2 <= n <= 16, and aperture.

    Immutable after construction.  For spherical geometry the aperture is a
    geodesic radius in (0, pi); for flat geometry any positive radius.
    """

    geometry: Geometry
    dim: int
    aperture: float

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ValueError("dim must be an integer")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2 (got {self.dim})")
        if self.dim > 16:  # the last dimension surface_area supports
            raise ValueError(f"dim must be <= 16 (got {self.dim})")
        a = self.aperture
        if not isinstance(a, (int, float)) or isinstance(a, bool) or not math.isfinite(a):
            raise ValueError("aperture must be a finite number")
        if a <= 0.0:
            raise ValueError(f"aperture must be positive (got {a})")
        if self.geometry is Geometry.SPHERICAL and a >= math.pi:
            raise ValueError(f"aperture must be < π for spherical caps (got {a})")
        object.__setattr__(self, "aperture", float(a))


def make_cap(geometry, dim: int, aperture: float) -> CapDomain:
    """Validate and build a CapDomain; ``geometry`` may be a string."""
    if isinstance(geometry, str) and not isinstance(geometry, Geometry):
        try:
            geometry = Geometry(geometry)
        except ValueError:
            raise ValueError(f"geometry must be 'spherical' or 'flat' (got {geometry!r})")
    if not isinstance(geometry, Geometry):
        raise ValueError("geometry must be 'spherical' or 'flat'")
    return CapDomain(geometry, dim, aperture)


@dataclass(frozen=True)
class SectorIndex:
    """Harmonic sector: degree l, angular eigenvalue l(l+n-2), multiplicity."""

    l: int
    angular_eigenvalue: int
    multiplicity: int


def make_sector(n: int, l: int) -> SectorIndex:
    if l < 0:
        raise ValueError(f"sector degree must be >= 0 (got {l})")
    return SectorIndex(l, l * (l + n - 2), harmonic_multiplicity(n, l))


# ---------------------------------------------------------------------------
# weights and coefficients
# ---------------------------------------------------------------------------


def radial_weight(domain: CapDomain, t: float) -> float:
    """Radial volume weight at t: sin^{n-1} t (spherical) or t^{n-1} (flat).

    t must lie strictly between the centre and the boundary.
    """
    if not (0.0 < t < domain.aperture):
        raise ValueError(f"t must lie in (0, {domain.aperture}) (got {t})")
    return float(weight_values(domain, np.asarray(t, dtype=float)))


def weight_values(domain: CapDomain, t: np.ndarray) -> np.ndarray:
    """Vectorised radial weight without interval validation."""
    if domain.geometry is Geometry.SPHERICAL:
        return np.sin(t) ** (domain.dim - 1)
    return np.asarray(t, dtype=float) ** (domain.dim - 1)


def curvature_term(domain: CapDomain, t: np.ndarray) -> np.ndarray:
    """First-order radial coefficient c(t): cot t on the sphere, 1/t flat."""
    if domain.geometry is Geometry.SPHERICAL:
        return np.cos(t) / np.sin(t)
    return 1.0 / np.asarray(t, dtype=float)


def angular_factor_sq(domain: CapDomain, t: np.ndarray) -> np.ndarray:
    """Squared metric factor s(t)^2 multiplying the angular eigenvalue."""
    if domain.geometry is Geometry.SPHERICAL:
        return 1.0 / np.sin(t) ** 2
    return 1.0 / np.asarray(t, dtype=float) ** 2


def sector_operator_apply(domain: CapDomain, l: int, f: float, fp: float, fpp: float, t: float) -> float:
    """Evaluate the reduced radial operator L_l at a single interior point.

    Arguments are the function value, first and second derivative at t.
    """
    if l < 0:
        raise ValueError(f"sector degree must be >= 0 (got {l})")
    if not (0.0 < t < domain.aperture):
        raise ValueError(f"t must lie strictly inside (0, {domain.aperture}) (got {t})")
    n = domain.dim
    ta = np.asarray(t, dtype=float)
    c = float(curvature_term(domain, ta))
    s2 = float(angular_factor_sq(domain, ta))
    return fpp + (n - 1) * c * fp - l * (l + n - 2) * s2 * f


# ---------------------------------------------------------------------------
# harmonic multiplicities and cross-section area
# ---------------------------------------------------------------------------


def harmonic_multiplicity(n: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on S^{n-1}.

    For n = 2 this is 1 (l = 0) or 2 (cos and sin); for n >= 3 it is
    (2l+n-2)/(l+n-2) * binomial(l+n-2, l).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 (got {n})")
    if l < 0:
        raise ValueError(f"l must be >= 0 (got {l})")
    if n == 2:
        return 1 if l == 0 else 2
    num = (2 * l + n - 2) * math.comb(l + n - 2, l)
    den = l + n - 2
    if num % den != 0:
        raise AssertionError("multiplicity formula did not divide evenly")
    return num // den


def surface_area(n: int) -> float:
    """Area of the unit sphere S^{n-1}: 2 pi^{n/2} / Gamma(n/2).

    Gamma(n/2) is built by the half-integer recursion; supported for
    2 <= n <= 16, which covers every dimension this package targets.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"surface_area supports 2 <= n <= 16 (got {n})")
    # Gamma(n/2) from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi)
    if n % 2 == 0:
        gamma = 1.0
        k = 1.0
    else:
        gamma = math.sqrt(math.pi)
        k = 0.5
    while k < n / 2 - 1e-12:
        gamma *= k
        k += 1.0
    return 2.0 * math.pi ** (n / 2.0) / gamma


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights mapped onto an interval [a, b]."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]


def gauss_legendre_rule(npoints: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with ``npoints`` nodes on (a, b), exact for
    polynomials of degree 2*npoints - 1."""
    if npoints < 1:
        raise ValueError(f"npoints must be >= 1 (got {npoints})")
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"need a finite interval with a < b (got [{a}, {b}])")
    x, w = np.polynomial.legendre.leggauss(npoints)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(nodes=mid + half * x, weights=half * w, interval=(float(a), float(b)))
