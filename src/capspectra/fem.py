"""Hermite-cubic C1 finite elements for the per-sector quadratic forms.

Each node carries a value DOF and a slope DOF, so the fourth-order clamped
conditions f(t0) = f'(t0) = 0 and the pole regularity conditions are imposed
exactly by dropping rows and columns.  The two assembled forms are

    a(f, g) = int (L_l f)(L_l g) w dt      (bending)
    b(f, g) = int (f' g' + l(l+n-2) s^2 f g) w dt   (membrane)

with the radial operator, weight w, and coefficients from the domain module.
Slope DOFs are scaled by the element size so value and slope coefficients
stay comparable in magnitude.

Both forms are built from one sampling of the shapes at the element Gauss
points (``SectorSamples``), which the pencil keeps.  ``sample_profile``
contracts a coefficient vector against those samples to give g, g' and
L_l g on the grid; ``rayleigh_quotient`` takes a(g, g) / b(g, g) from them
as sums of squares, without the cancellation of x^T A x, and the proof
identities in ``prooflab`` integrate the same samples of the ground state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import (
    CapDomain,
    SectorIndex,
    angular_factor_sq,
    curvature_term,
    gauss_legendre_rule,
    make_sector,
    weight_values,
)

__all__ = [
    "Mesh",
    "OperatorPencil",
    "SectorSamples",
    "build_mesh",
    "assemble_sector_forms",
    "free_dof_indices",
    "rayleigh_quotient",
    "sample_profile",
    "interpolate_profile",
    "eval_radial_solution",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform 1-D mesh on [0, aperture] with m elements."""

    nodes: np.ndarray

    @property
    def num_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def element_size(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def aperture(self) -> float:
        return float(self.nodes[-1])


#: most mesh elements; past it the pencil rounded to double loses digits
_MAX_ELEMENTS = 1024


def build_mesh(domain: CapDomain, m: int) -> Mesh:
    """4 <= m <= ``_MAX_ELEMENTS`` uniform elements from the centre to the clamped boundary.

    Past m = 1024 the pencil rounded to double loses more digits than the
    finer mesh gains.
    """
    if m < 4:
        raise ValueError(f"need at least 4 elements (got {m})")
    if m > _MAX_ELEMENTS:
        raise ValueError(f"elements must be <= {_MAX_ELEMENTS} (got {m})")
    return Mesh(nodes=np.linspace(0.0, domain.aperture, m + 1))


# Reference cubic Hermite shapes on [0, 1]; rows are (value0, slope0,
# value1, slope1) before the element-size scaling of the slope DOFs.


def _shape_values(xi: np.ndarray, h: float, deriv: int) -> np.ndarray:
    """4 x len(xi) array of shape-function derivatives with slope scaling h."""
    xi = np.asarray(xi, dtype=float)
    if deriv == 0:
        rows = [
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (-(xi**2) + xi**3),
        ]
    elif deriv == 1:
        rows = [
            (-6.0 * xi + 6.0 * xi**2) / h,
            1.0 - 4.0 * xi + 3.0 * xi**2,
            (6.0 * xi - 6.0 * xi**2) / h,
            -2.0 * xi + 3.0 * xi**2,
        ]
    elif deriv == 2:
        rows = [
            (-6.0 + 12.0 * xi) / h**2,
            (-4.0 + 6.0 * xi) / h,
            (6.0 - 12.0 * xi) / h**2,
            (-2.0 + 6.0 * xi) / h,
        ]
    else:
        raise ValueError(f"deriv must be 0, 1, or 2 (got {deriv})")
    return np.stack(rows)


def free_dof_indices(m: int, l: int) -> list[int]:
    """Global Hermite DOF indices that survive the sector constraints.

    Global DOF 2j is the value at node j, 2j+1 the slope.  The boundary
    node is always fully clamped; at the centre the sector degree decides:
    l=0 keeps the value (even profile, zero slope), l=1 keeps the slope
    (profile vanishing linearly), l>=2 keeps neither.
    """
    if l == 0:
        drop = {1}
    elif l == 1:
        drop = {0}
    else:
        drop = {0, 1}
    drop |= {2 * m, 2 * m + 1}
    return [k for k in range(2 * (m + 1)) if k not in drop]


@dataclass(frozen=True)
class SectorSamples:
    """Hermite shapes of one sector sampled at the element Gauss points.

    G is the number of Gauss points per element.  ``theta`` holds the
    Gauss points of every element (m x G).  ``value`` and ``slope`` hold
    the four shapes and their first derivatives on the reference element
    (4 x G, the same on every element of a uniform mesh); ``bending`` holds
    L_l applied to each shape (m x 4 x G); ``weight`` is the radial weight
    times the scaled Gauss weight (m x G) and ``membrane`` is that weight
    times l(l+n-2) s^2 (m x G).
    """

    theta: np.ndarray
    value: np.ndarray
    slope: np.ndarray
    bending: np.ndarray
    weight: np.ndarray
    membrane: np.ndarray


@dataclass(frozen=True)
class OperatorPencil:
    """Constrained symmetric pencil (A, B) for one harmonic sector.

    ``samples`` is the Gauss-grid sampling both forms were assembled from.
    """

    A: np.ndarray
    B: np.ndarray
    dof_map: tuple[tuple[int, int], ...]
    sector: SectorIndex
    domain: CapDomain
    mesh: Mesh
    quad_order: int
    samples: SectorSamples


@lru_cache(maxsize=16)
def _reference_rule(quad_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [0, 1], built once per order and read-only."""
    ref = gauss_legendre_rule(quad_order, 0.0, 1.0)
    ref.nodes.flags.writeable = False
    ref.weights.flags.writeable = False
    return ref.nodes, ref.weights


def _sample_sector_shapes(domain: CapDomain, l: int, mesh: Mesh, quad_order: int = 6) -> SectorSamples:
    """Sample the sector-l shapes, L_l shapes and weights on the Gauss grid.

    The singular coefficients cot(t) and 1/sin(t)^2 (or 1/t and 1/t^2) are
    evaluated as written at interior Gauss points; their analytic
    cancellation against the admissible shapes happens in floating point.
    """
    if quad_order < 4:
        raise ValueError(f"quad_order must be >= 4 (got {quad_order})")
    if l < 0:
        raise ValueError(f"sector degree must be >= 0 (got {l})")
    n = domain.dim
    h = mesh.element_size
    kappa = float(make_sector(n, l).angular_eigenvalue)

    xi, wref = _reference_rule(quad_order)
    # The bending terms grow like 1/t**2, most at the first Gauss point
    # t = h xi_0.  Where t**2 underflows, numpy would divide by zero and
    # overflow with warnings; raise OverflowError instead, as Python's h**2
    # does for an element too large to square.
    t_first = h * float(xi[0])
    if t_first**2 < sys.float_info.min:
        raise OverflowError(f"1/t**2 out of range at the first Gauss point t = {t_first!r}")
    B0 = _shape_values(xi, h, 0)
    B1 = _shape_values(xi, h, 1)
    B2 = _shape_values(xi, h, 2)

    # Gauss points of all elements at once, shape (m, G)
    theta = mesh.nodes[:-1, None] + h * xi[None, :]
    W = weight_values(domain, theta) * (h * wref)[None, :]
    # Both forms scale with W, the radial weight t**(n-1) or sin(t)**(n-1)
    # times h w.  Where it underflows to 0 near the pole, the rows there
    # vanish and B is singular.  The aperture then lies below the range of
    # doubles, so this is a ValueError, unlike the overflow of 1/t**2 above.
    lowest = int(np.argmin(W))
    if W.flat[lowest] == 0.0:
        t_low = float(theta.flat[lowest])
        raise ValueError(f"radial weight underflows to 0 at the Gauss point t = {t_low!r}")
    c = curvature_term(domain, theta)
    s2 = angular_factor_sq(domain, theta)

    # L_l applied to each shape at each Gauss point, shape (m, 4, G)
    Lphi = B2[None, :, :] + (n - 1) * c[:, None, :] * B1[None, :, :] - kappa * s2[:, None, :] * B0[None, :, :]
    return SectorSamples(theta=theta, value=B0, slope=B1, bending=Lphi, weight=W, membrane=kappa * s2 * W)


def _element_dofs(m: int) -> np.ndarray:
    """Global DOF indices of each element's four Hermite DOFs, shape (m, 4)."""
    return 2 * np.arange(m)[:, None] + np.arange(4)[None, :]


def _scatter_bands(Ke: np.ndarray) -> np.ndarray:
    """Upper bands (4, 2m + 2) of the global matrix summed from element matrices Ke.

    Row k holds the k-th superdiagonal: entry [k, i] is global (i, i + k).
    Element e's local (a, a + k) lands at [k, 2e + a], so each strided add
    below touches every element once and no entry twice; an entry gets at
    most two terms (from the elements sharing its node), and a sum of two
    terms from zero does not depend on their order.
    """
    m = Ke.shape[0]
    bands = np.zeros((4, 2 * (m + 1)))
    for k in range(4):
        for a in range(4 - k):
            bands[k, a : a + 2 * m : 2] += Ke[:, a, a + k]
    return bands


def _dense_from_bands(bands: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix of the ``free`` rows and columns of a band matrix."""
    p, ndof = bands.shape[0] - 1, bands.shape[1]
    # position of each DOF among the free ones, -1 for a constrained DOF or
    # past the last one, which a band of a free row may reach
    position = np.full(ndof + p, -1)
    position[free] = np.arange(free.size)
    dense = np.zeros((free.size, free.size))
    for k in range(p + 1):
        rows = free[position[free + k] >= 0]
        i, j = position[rows], position[rows + k]
        dense[i, j] = dense[j, i] = bands[k, rows]
    return dense


def assemble_sector_forms(domain: CapDomain, l: int, mesh: Mesh, quad_order: int = 6) -> OperatorPencil:
    """Assemble the bending and membrane forms for sector l.

    Element matrices are Gauss sums over ``_sample_sector_shapes``; they
    are summed into band storage (``_scatter_bands``), from which the dense
    free-DOF matrices are written.
    """
    samples = _sample_sector_shapes(domain, l, mesh, quad_order)
    B0, B1, W = samples.value, samples.slope, samples.weight
    Lphi = samples.bending

    Ae = np.einsum("eig,ejg,eg->eij", Lphi, Lphi, W)
    Be = np.einsum("ig,jg,eg->eij", B1, B1, W) + np.einsum("ig,jg,eg->eij", B0, B0, samples.membrane)
    Ae = 0.5 * (Ae + Ae.transpose(0, 2, 1))
    Be = 0.5 * (Be + Be.transpose(0, 2, 1))

    free = free_dof_indices(mesh.num_elements, l)
    free_array = np.array(free)
    return OperatorPencil(
        A=_dense_from_bands(_scatter_bands(Ae), free_array),
        B=_dense_from_bands(_scatter_bands(Be), free_array),
        dof_map=tuple((k // 2, k % 2) for k in free),
        sector=make_sector(domain.dim, l),
        domain=domain,
        mesh=mesh,
        quad_order=quad_order,
        samples=samples,
    )


def rayleigh_quotient(pencil: OperatorPencil, coeffs: np.ndarray) -> float:
    """a(g, g) / b(g, g) for the free-DOF vector ``coeffs`` of the pencil.

    Samples the profile g = sum coeffs * shapes on the pencil's own Gauss
    grid and takes

        int (L_l g)^2 w  /  int (g'^2 + l(l+n-2) s^2 g^2) w

    as weighted sums of squares.  In exact arithmetic this is
    x^T A x / x^T B x.  Evaluated as x^T A x, the bending form sums matrix
    entries that grow like h**-3 and cancel, which leaves rounding noise
    near 1e-9 relative on fine meshes; the sums here add non-negative
    terms, so their rounding stays far below the discretization error and
    the quotient keeps the fourth-order rate (3e-11 relative error for the
    unit-disk ground state at m = 256).
    """
    full = expand_coefficients(pencil.mesh, np.asarray(coeffs, dtype=float), pencil.dof_map)
    samples = pencil.samples
    g0, g1, Lg = sample_profile(samples, full)
    num = float(np.sum(samples.weight * Lg**2))
    den = float(np.sum(samples.weight * g1**2 + samples.membrane * g0**2))
    return num / den


def sample_profile(samples: SectorSamples, full: np.ndarray):
    """(g, g', L_l g) on the Gauss grid of ``samples``, each m x G.

    ``full`` is the full nodal (value, slope) vector of the profile g.
    """
    local = full[_element_dofs(samples.weight.shape[0])]  # (m, 4)
    return local @ samples.value, local @ samples.slope, np.einsum("eig,ei->eg", samples.bending, local)


def expand_coefficients(mesh: Mesh, coeffs: np.ndarray, dof_map) -> np.ndarray:
    """Scatter a free-DOF vector into the full nodal (value, slope) vector."""
    full = np.zeros(2 * (mesh.num_elements + 1))
    full[np.reshape(dof_map, (-1, 2)) @ (2, 1)] = coeffs
    return full


def interpolate_profile(mesh: Mesh, f, fp) -> np.ndarray:
    """Full nodal coefficient vector of the Hermite interpolant of f."""
    full = np.empty(2 * (mesh.num_elements + 1))
    full[0::2] = [f(t) for t in mesh.nodes]
    full[1::2] = [fp(t) for t in mesh.nodes]
    return full


def eval_radial_solution(mesh: Mesh, coeffs: np.ndarray, t, deriv: int = 0):
    """Evaluate the piecewise-cubic solution (or derivative) at t.

    ``coeffs`` is the full nodal vector; a free-DOF vector is expanded
    first with ``expand_coefficients``.  Accepts scalar or array t in
    [0, aperture]; the second derivative is the piecewise-linear one of
    the cubic.
    """
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1, or 2 (got {deriv})")
    coeffs = np.asarray(coeffs, dtype=float)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0) or np.any(t_arr > mesh.aperture * (1.0 + 1e-12)):
        raise ValueError(f"t must lie in [0, {mesh.aperture}]")
    h = mesh.element_size
    m = mesh.num_elements
    elem = np.minimum((t_arr / h).astype(int), m - 1)
    xi = (t_arr - mesh.nodes[elem]) / h
    shapes = _shape_values(xi, h, deriv)  # (4, len(t))
    local = np.stack(
        [coeffs[2 * elem], coeffs[2 * elem + 1], coeffs[2 * elem + 2], coeffs[2 * elem + 3]]
    )
    out = np.sum(shapes * local, axis=0)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out
