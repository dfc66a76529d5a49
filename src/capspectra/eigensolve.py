"""Per-sector eigenpair solves, global spectrum assembly, and exact oracles.

The sector solve normalizes eigenfunctions by the full-domain gradient
integral, i.e. |S^{n-1}| times the membrane quadratic form equals one,
matching the convention the downstream integral identities assume.
The merged spectrum solves only the sectors that can reach its head: a
lower bound on each sector's eigenvalues ends the walk over sectors, and
an inertia count at the head's last value certifies each sector it skips
before that.

The Bessel-zero routine is an independent check on the whole FEM pipeline
for flat disks: the sector-l eigenvalues of the clamped buckling problem on
the unit disk are the squared zeros of J_{l+1}, and the zeros here come
from series/recurrence evaluation plus bisection, sharing no code with the
finite-element path.  ``cap_eigenvalue`` is the same kind of check for
spherical caps: the root of a Wronskian of two hypergeometric series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _BRACKET_SLACK, inertia_counts, pencil_bands, solve_pencil
from .domain import CapDomain, Geometry, SectorIndex, harmonic_multiplicity, surface_area
from .fem import Mesh, assemble_sector_forms, build_mesh, rayleigh_quotient

__all__ = [
    "Eigenpair",
    "SpectrumEntry",
    "Spectrum",
    "TruncationError",
    "solve_pencil",
    "solve_sector",
    "assemble_spectrum",
    "solve_spectrum",
    "bessel_j",
    "bessel_zero",
    "cap_eigenvalue",
]


class TruncationError(Exception):
    """Raised when the requested spectrum length outruns the solved sectors."""


@dataclass(frozen=True)
class Eigenpair:
    """One radial eigenpair of a sector pencil.

    coeffs is the free-DOF vector scaled so that the full-domain integral
    of |grad u|^2 equals one (the surface-area factor included).  value is
    the Rayleigh quotient of that vector, taken by quadrature on the Gauss
    grid the pencil was assembled on (``fem.rayleigh_quotient``).  The
    pencil residual is checked once, inside ``solve_pencil``, and not
    stored.
    """

    value: float
    sector: SectorIndex
    coeffs: np.ndarray
    dof_map: tuple[tuple[int, int], ...]
    mesh: Mesh
    domain: CapDomain


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    l: int
    multiplicity: int
    copy_index: int


@dataclass(frozen=True)
class Spectrum:
    """Globally sorted eigenvalues with sector labels and multiplicity copies."""

    entries: tuple[SpectrumEntry, ...]
    dim: int
    domain: CapDomain | None = None

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])


def solve_sector(
    domain: CapDomain,
    l: int,
    m: int = 128,
    quad_order: int = 6,
    count: int = 6,
) -> list[Eigenpair]:
    """The count smallest eigenpairs of sector l on m elements, gradient-normalized.

    The mesh range is ``build_mesh``'s, checked before any assembly.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1 (got {count})")
    return _pairs_below(domain, l, build_mesh(domain, m), quad_order, count, None)


def _entry_value(item) -> float:
    if isinstance(item, Eigenpair):
        return item.value
    return float(item)


def assemble_spectrum(sector_results, count: int | None = None, dim: int | None = None) -> Spectrum:
    """Merge per-sector eigenvalue lists into the global ordered spectrum.

    Each sector value is replicated by its harmonic multiplicity; ties sort
    by sector degree, then copy index.  With a requested ``count``, the
    count-th value must not exceed the smallest computed eigenvalue of the
    highest sector, otherwise values of unsolved sectors could be missing
    from the head of the list and a TruncationError is raised.

    sector_results maps l to a list of Eigenpair (or plain numbers, in
    which case ``dim`` must be given).  An empty list stands for a sector
    certified to hold no eigenvalue below the head, as ``solve_spectrum``
    returns for the sectors it skips; an empty highest sector therefore
    passes the check.
    """
    if not sector_results:
        raise ValueError("no sector results given")
    domain = None
    for pairs in sector_results.values():
        for item in pairs:
            if isinstance(item, Eigenpair):
                domain = item.domain
                break
        if domain is not None:
            break
    if domain is not None:
        dim = domain.dim
    if dim is None:
        raise ValueError("dim is required when sector results hold bare numbers")

    raw = []
    for l, pairs in sector_results.items():
        mult = harmonic_multiplicity(dim, l)
        for item in pairs:
            v = _entry_value(item)
            for copy in range(1, mult + 1):
                raw.append(SpectrumEntry(value=v, l=l, multiplicity=mult, copy_index=copy))
    raw.sort(key=lambda e: (e.value, e.l, e.copy_index))

    if count is not None:
        if count < 1:
            raise ValueError(f"count must be >= 1 (got {count})")
        if count > len(raw):
            raise TruncationError(f"requested {count} eigenvalues, computed only {len(raw)}")
        l_top = max(sector_results.keys())
        top_vals = [_entry_value(p) for p in sector_results[l_top]]
        if top_vals and raw[count - 1].value > min(top_vals):
            raise TruncationError(
                f"spectrum truncated at sector {l_top}: value {raw[count - 1].value:.6g} "
                f"exceeds that sector's smallest {min(top_vals):.6g}, so a higher "
                "sector may hold a lower value"
            )
        raw = raw[:count]
    return Spectrum(entries=tuple(raw), dim=dim, domain=domain)


def _pairs_below(
    domain: CapDomain, l: int, mesh: Mesh, quad_order: int, count: int, shift: float | None
) -> list[Eigenpair]:
    """Sector l's smallest eigenpairs: count of them, or only those below shift.

    shift None solves count pairs unconditionally.  Otherwise an inertia
    count at shift says how many of the pencil's eigenvalues lie below
    it, and only min(count, that many) pairs are solved; none gives [].
    The dense pencil lives only here, so no two sectors' pencils are held
    at once.  Inverse iteration inside the pencil solve starts from the
    fixed seed 2718 + l, so every sector's vectors are reproducible.
    """
    pencil = assemble_sector_forms(domain, l, mesh, quad_order)
    if shift is not None:
        count = min(count, int(inertia_counts(*pencil_bands(pencil.A, pencil.B), [shift])[0]))
        if count == 0:
            return []
    k = min(count, pencil.A.shape[0])
    _, vectors = solve_pencil(pencil.A, pencil.B, count=k, seed=2718 + l)
    area = surface_area(domain.dim)
    pairs = []
    for x in vectors.T:
        x = x / math.sqrt(area * float(x @ (pencil.B @ x)))
        pairs.append(
            Eigenpair(
                value=rayleigh_quotient(pencil, x),
                sector=pencil.sector,
                coeffs=x,
                dof_map=pencil.dof_map,
                mesh=mesh,
                domain=domain,
            )
        )
    return pairs


def _sector_lower_bound(domain: CapDomain, l: int) -> float:
    """l(l+n-2) min s^2, a lower bound on every eigenvalue of sector l.

    min s^2 over the domain is 1/sin^2(min(R, pi/2)) on a cap of aperture R
    and 1/R^2 on a flat ball.  For clamped u, Cauchy-Schwarz on
    int |grad u|^2 = -int u Delta u gives int (Delta u)^2 >= mu_1 int |grad u|^2,
    with mu_1 >= l(l+n-2) min s^2 the lowest Dirichlet Laplacian eigenvalue
    of the sector; Hermite cubics are conforming, so the bound holds for
    the sector pencil as well.
    """
    if domain.geometry is Geometry.SPHERICAL:
        min_s2 = 1.0 / math.sin(min(domain.aperture, 0.5 * math.pi)) ** 2
    else:
        min_s2 = 1.0 / domain.aperture**2
    return l * (l + domain.dim - 2) * min_s2


def solve_spectrum(domain: CapDomain, m: int = 128, quad_order: int = 6, count: int = 6):
    """The lowest ``count`` merged eigenvalues of the domain; returns (Spectrum, sector dict).

    Sectors are taken in order of l, each pencil assembled once, until a
    certificate shows that no later sector can reach the head.  Once the
    values gathered so far (with multiplicities) number at least
    ``count``, let tau be the count-th smallest of them, and shift =
    tau (1 + ``_BRACKET_SLACK``).  A sector all of whose eigenvalues lie
    above shift cannot reach the head: its values would all sort after
    tau, which only falls as more sectors are solved, and the slack covers
    the gap between a pencil eigenvalue and its quadrature Rayleigh
    quotient.  Such a sector is not solved and maps to an empty list in
    the sector dict.  Two certificates find these sectors:

    * the walk ends at the first l, the cut, whose ``_sector_lower_bound``
      exceeds shift, before that sector is assembled.  The bound rises
      with l and tau no longer moves, so every later sector is above shift
      as well.  The dict holds sectors 0..cut, the cut mapping to [];
    * below the cut, an LDL^T inertia count (Sylvester's law) of the
      assembled pencil at shift says how many of its eigenvalues lie
      below; none means the sector is skipped.

    Every other sector is solved as ``solve_sector`` solves it, with count
    pairs until the head fills and after that with only the pairs below
    shift (at most count), since its higher pairs cannot reach the head
    either.  So the sector dict holds fewer than count pairs for such
    sectors, and the head is the one a solve of every sector would give,
    up to the rounding of the vectors: a solve of fewer pairs takes other
    inverse-iteration shifts.  Until the head fills, every sector is
    solved and adds at least one value; after that, the bound, rising like
    l^2, passes shift, so the walk always ends.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1 (got {count})")
    mesh = build_mesh(domain, m)
    sectors = {}
    head: list[float] = []  # the count smallest values so far, one per copy
    for l in itertools.count():
        shift = head[-1] + _BRACKET_SLACK * abs(head[-1]) if len(head) == count else None
        if shift is not None and _sector_lower_bound(domain, l) > shift:
            sectors[l] = []
            break
        sectors[l] = pairs = _pairs_below(domain, l, mesh, quad_order, count, shift)
        mult = harmonic_multiplicity(domain.dim, l)
        head = sorted(head + [p.value for p in pairs for _ in range(mult)])[:count]
    return assemble_spectrum(sectors, count=count), sectors


# ---------------------------------------------------------------------------
# Bessel oracle
# ---------------------------------------------------------------------------


def _bessel_series(order: int, x: float) -> float:
    half = 0.5 * x
    term = half**order / math.factorial(order)
    total = term
    for k in range(1, 200):
        term *= -(half * half) / (k * (k + order))
        total += term
        if abs(term) <= 1e-18 * abs(total) + 1e-300:
            break
    return total


def _bessel_miller(order: int, x: float) -> float:
    mstart = max(order + 12, int(x + 12.0 * math.sqrt(x) + 18.0))
    if mstart % 2:
        mstart += 1
    jp = 0.0
    j = 1e-30
    norm = 0.0
    result = 0.0
    for k in range(mstart, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp = j
        j = jm
        if k - 1 == order:
            result = j
        if (k - 1) >= 2 and (k - 1) % 2 == 0:
            norm += 2.0 * j
        if abs(j) > 1e100:
            j *= 1e-100
            jp *= 1e-100
            norm *= 1e-100
            result *= 1e-100
    norm += j  # J_0 contribution
    return result / norm


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order >= 0, by series or downward recurrence."""
    if order < 0:
        raise ValueError(f"order must be >= 0 (got {order})")
    if x < 0:
        raise ValueError(f"x must be >= 0 (got {x})")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x <= 9.0:
        return _bessel_series(order, x)
    return _bessel_miller(order, x)


def bessel_zero(order: int, index: int) -> float:
    """index-th positive zero of J_order, to 1e-10 absolute.

    Sign-change scan in steps of 0.2 followed by bisection; supported for
    order <= 10 and index <= 10, which covers the spectra compared here.
    """
    if not 0 <= order <= 10:
        raise ValueError(f"order must be in [0, 10] (got {order})")
    if not 1 <= index <= 10:
        raise ValueError(f"index must be in [1, 10] (got {index})")
    step = 0.2
    x_prev = 0.1
    f_prev = bessel_j(order, x_prev)
    found = 0
    x = x_prev
    while x < 80.0:
        x = x_prev + step
        f = bessel_j(order, x)
        if f_prev == 0.0:
            found += 1
            if found == index:
                return x_prev
        elif f * f_prev < 0.0:
            found += 1
            if found == index:
                lo, hi = x_prev, x
                flo = f_prev
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    fm = bessel_j(order, mid)
                    if fm == 0.0:
                        return mid
                    if fm * flo < 0.0:
                        hi = mid
                    else:
                        lo = mid
                        flo = fm
                return 0.5 * (lo + hi)
        x_prev, f_prev = x, f
    raise ValueError(f"no bracket for zero {index} of J_{order} within the scan range")


# ---------------------------------------------------------------------------
# Spherical-cap oracle
# ---------------------------------------------------------------------------


def _hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss series 2F1(a, b; c; x) for 0 <= x < 1 and c > 0.

    The sum stops once a term falls below 1e-17 of the total, but not
    before the factor a + k has passed zero (a near-zero a + k makes one
    term small without ending the series), unless the terms have
    underflowed to zero.
    """
    k_min = max(0, math.ceil(-a)) + 1
    term = 1.0
    total = 1.0
    k = 0
    while term != 0.0 and (k < k_min or abs(term) > 1e-17 * abs(total)):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        total += term
        k += 1
        if k > 1_000_000:
            raise ValueError(f"2F1 series did not converge at x = {x}")
    return total


def cap_eigenvalue(dim: int, l: int, aperture: float, k: int) -> float:
    """k-th clamped buckling eigenvalue of sector l on a cap of the unit dim-sphere.

    In sector l every eigenfunction solves Delta (Delta + lam) u = 0, so
    u = a h + c phi, with h the sector-l harmonic and phi the sector-l
    eigenfunction of -Delta for nu (nu + dim - 1) = lam, both regular at
    the pole:

        sin^l t * 2F1(l - nu, l + nu + dim - 1; l + dim/2; sin^2(t/2)),

    with nu = 0 for h.  The clamped conditions at t = aperture leave the
    Wronskian h phi' - h' phi = 0; with the common factor sin^l t taken
    out it is F_h dF_phi/dx - dF_h/dx F_phi at x = sin^2(aperture/2).
    nu = 0 is the trivial root.  A sign scan in nu in steps of
    pi / (16 aperture), followed by bisection, gives the k-th positive
    root.  The series converge for every aperture below pi; nothing here
    is shared with the finite-element path.
    """
    if not isinstance(dim, int) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2 (got {dim})")
    if l < 0:
        raise ValueError(f"sector degree must be >= 0 (got {l})")
    if not 0.0 < aperture < math.pi:
        raise ValueError(f"aperture must lie in (0, pi) (got {aperture})")
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    x = math.sin(0.5 * aperture) ** 2
    c = l + 0.5 * dim

    def value_and_slope(nu):
        a, b = l - nu, l + nu + dim - 1
        return _hyp2f1(a, b, c, x), a * b / c * _hyp2f1(a + 1, b + 1, c + 1, x)

    f_h, df_h = value_and_slope(0.0)

    def wronskian(nu):
        f_phi, df_phi = value_and_slope(nu)
        return f_h * df_phi - df_h * f_phi

    step = math.pi / (16.0 * aperture)
    lo, w_lo = step, wronskian(step)
    found = 0
    while True:
        hi = lo + step
        w_hi = wronskian(hi)
        if w_lo == 0.0 or w_lo * w_hi < 0.0:
            found += 1
            if found == k:
                break
        lo, w_lo = hi, w_hi
        if lo > 1e8:
            raise ValueError(f"no bracket for eigenvalue {k} of sector {l} within the scan range")
    if w_lo == 0.0:
        hi = lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        w_mid = wronskian(mid)
        if w_mid == 0.0:
            lo = hi = mid
            break
        if (w_mid < 0.0) == (w_lo < 0.0):
            lo, w_lo = mid, w_mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return nu * (nu + dim - 1)
