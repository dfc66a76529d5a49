"""Hermite-cubic assembly: meshes, constraints, forms vs adaptive quadrature."""

import numpy as np
import pytest
from scipy import integrate

import capspectra as cs
from capspectra import _linalg, fem


def test_build_mesh_is_uniform_and_spans_domain():
    cap = cs.make_cap("spherical", 2, 1.5)
    mesh = cs.build_mesh(cap, 10)
    assert mesh.nodes.shape == (11,)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == pytest.approx(1.5, rel=1e-15)
    assert np.allclose(np.diff(mesh.nodes), 0.15, rtol=1e-14)


def test_build_mesh_rejects_tiny_meshes():
    cap = cs.make_cap("flat", 2, 1.0)
    with pytest.raises(ValueError, match="at least 4 elements"):
        cs.build_mesh(cap, 3)


def test_build_mesh_accepts_1024_and_rejects_finer_meshes():
    # past m = 1024 the pencil rounded to double loses digits
    cap = cs.make_cap("flat", 2, 1.0)
    assert cs.build_mesh(cap, 1024).num_elements == 1024
    with pytest.raises(ValueError, match=r"^elements must be <= 1024 \(got 1025\)$"):
        cs.build_mesh(cap, 1025)


def test_free_dof_counts_per_sector():
    m = 9
    # axisymmetric sector keeps the pole value, drops the pole slope
    free0 = fem.free_dof_indices(m, 0)
    assert len(free0) == 2 * m - 1
    assert 0 in free0 and 1 not in free0
    # degree-one sector keeps the pole slope, drops the pole value
    free1 = fem.free_dof_indices(m, 1)
    assert len(free1) == 2 * m - 1
    assert 1 in free1 and 0 not in free1
    # higher sectors clamp the pole completely
    free2 = fem.free_dof_indices(m, 2)
    assert len(free2) == 2 * m - 2
    assert 0 not in free2 and 1 not in free2
    # every sector clamps the rim
    for free in (free0, free1, free2):
        assert 2 * m not in free and 2 * m + 1 not in free
        assert free == sorted(free)


def test_interpolation_reproduces_cubics_exactly():
    # a Hermite-cubic space contains every cubic, so interpolation is exact
    cap = cs.make_cap("flat", 2, 2.0)
    mesh = cs.build_mesh(cap, 7)
    f = lambda t: t**3 - 2.0 * t**2 + 0.5 * t + 1.0
    fp = lambda t: 3.0 * t**2 - 4.0 * t + 0.5
    fpp = lambda t: 6.0 * t - 4.0
    coeffs = fem.interpolate_profile(mesh, f, fp)
    ts = np.linspace(0.013, 1.987, 41)
    assert np.allclose(cs.eval_radial_solution(mesh, coeffs, ts, deriv=0), f(ts), atol=1e-12)
    assert np.allclose(cs.eval_radial_solution(mesh, coeffs, ts, deriv=1), fp(ts), atol=1e-11)
    assert np.allclose(cs.eval_radial_solution(mesh, coeffs, ts, deriv=2), fpp(ts), atol=1e-10)


def _flat_indices(dof_map):
    """Positions of the free dofs inside the stacked (value, slope) vector."""
    return np.array([2 * node + kind for node, kind in dof_map])


def test_expand_coefficients_scatters_free_dofs():
    cap = cs.make_cap("spherical", 2, 1.0)
    mesh = cs.build_mesh(cap, 6)
    pencil = cs.assemble_sector_forms(cap, 2, mesh)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(pencil.A.shape[0])
    full = fem.expand_coefficients(mesh, x, pencil.dof_map)
    assert full.shape == (2 * 7,)
    assert np.all(full[[0, 1, 12, 13]] == 0.0)
    assert np.allclose(full[_flat_indices(pencil.dof_map)], x)


def test_assembled_matrices_are_symmetric_and_definite():
    for geometry, l in (("spherical", 0), ("spherical", 1), ("flat", 3)):
        cap = cs.make_cap(geometry, 3, 1.2)
        mesh = cs.build_mesh(cap, 12)
        pencil = cs.assemble_sector_forms(cap, l, mesh)
        assert np.array_equal(pencil.A, pencil.A.T)
        assert np.array_equal(pencil.B, pencil.B.T)
        # both forms are positive definite on the constrained space
        assert np.linalg.eigvalsh(pencil.A).min() > 0.0
        assert np.linalg.eigvalsh(pencil.B).min() > 0.0


def _dense_reference_forms(pencil):
    """A and B summed by np.add.at into the full dense matrices, then cut with np.ix_.

    The element matrices come from the pencil's own samples, as the
    assembly forms them; only the summation and the constraint differ.
    """
    samples = pencil.samples
    Lphi, W = samples.bending, samples.weight
    Ae = np.einsum("eig,ejg,eg->eij", Lphi, Lphi, W)
    Be = np.einsum("ig,jg,eg->eij", samples.slope, samples.slope, W) + np.einsum(
        "ig,jg,eg->eij", samples.value, samples.value, samples.membrane
    )
    m = pencil.mesh.num_elements
    idx = 2 * np.arange(m)[:, None] + np.arange(4)[None, :]
    free = fem.free_dof_indices(m, pencil.sector.l)
    forms = []
    for Ke in (Ae, Be):
        Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1))
        K = np.zeros((2 * (m + 1), 2 * (m + 1)))
        np.add.at(K, (idx[:, :, None], idx[:, None, :]), Ke)
        forms.append(K[np.ix_(free, free)])
    return forms


@pytest.mark.parametrize("geometry,aperture", [("spherical", 1.3), ("spherical", 2.9), ("flat", 0.8)])
@pytest.mark.parametrize("m", [4, 5, 17, 64])
def test_band_scatter_assembly_matches_dense_scatter_bit_for_bit(geometry, aperture, m):
    for dim in (2, 3, 4, 5):
        cap = cs.make_cap(geometry, dim, aperture)
        mesh = cs.build_mesh(cap, m)
        for l in range(5):
            pencil = cs.assemble_sector_forms(cap, l, mesh)
            A, B = _dense_reference_forms(pencil)
            assert np.array_equal(pencil.A, A) and np.array_equal(pencil.B, B)
            assert pencil.dof_map == tuple((k // 2, k % 2) for k in fem.free_dof_indices(m, l))
            a, _ = _linalg.pencil_bands(pencil.A, pencil.B)
            assert a.shape[0] == 4  # half-bandwidth 3


def _profile_for_sector(aperture, l):
    """Smooth test profile satisfying the essential constraints of sector l."""
    if l == 0:
        # value free at the pole, slope zero there, clamped at the rim
        f = lambda t: (t**2 - aperture**2) ** 2 / aperture**4
        fp = lambda t: 4.0 * t * (t**2 - aperture**2) / aperture**4
    else:
        f = lambda t: t**2 * (aperture - t) ** 2
        fp = lambda t: 2.0 * t * (aperture - t) ** 2 - 2.0 * t**2 * (aperture - t)
    return f, fp


@pytest.mark.parametrize("geometry", ["spherical", "flat"])
@pytest.mark.parametrize("l", [0, 2])
def test_quadratic_forms_match_adaptive_quadrature(geometry, l):
    """x'Ax and x'Bx agree with direct integration of the interpolant."""
    n = 3
    aperture = 1.3
    cap = cs.make_cap(geometry, n, aperture)
    mesh = cs.build_mesh(cap, 12)
    f, fp = _profile_for_sector(aperture, l)
    full = fem.interpolate_profile(mesh, f, fp)
    pencil = cs.assemble_sector_forms(cap, l, mesh, quad_order=8)
    x = full[_flat_indices(pencil.dof_map)]

    def op_sq(t):
        v = float(cs.eval_radial_solution(mesh, full, t, deriv=0))
        vp = float(cs.eval_radial_solution(mesh, full, t, deriv=1))
        vpp = float(cs.eval_radial_solution(mesh, full, t, deriv=2))
        return cs.sector_operator_apply(cap, l, v, vp, vpp, t) ** 2 * cs.radial_weight(cap, t)

    kappa = l * (l + n - 2)

    def grad_sq(t):
        vp = float(cs.eval_radial_solution(mesh, full, t, deriv=1))
        v = float(cs.eval_radial_solution(mesh, full, t, deriv=0))
        if geometry == "spherical":
            s2 = 1.0 / np.sin(t) ** 2
        else:
            s2 = 1.0 / t**2
        return (vp**2 + kappa * s2 * v**2) * cs.radial_weight(cap, t)

    # integrate element by element so the adaptive rule never straddles a knot
    a_exact = 0.0
    b_exact = 0.0
    for left, right in zip(mesh.nodes[:-1], mesh.nodes[1:]):
        a_exact += integrate.quad(op_sq, left, right, epsabs=1e-13, epsrel=1e-12)[0]
        b_exact += integrate.quad(grad_sq, left, right, epsabs=1e-13, epsrel=1e-12)[0]

    assert float(x @ pencil.A @ x) == pytest.approx(a_exact, rel=1e-9)
    assert float(x @ pencil.B @ x) == pytest.approx(b_exact, rel=1e-9)


@pytest.mark.parametrize("geometry", ["spherical", "flat"])
@pytest.mark.parametrize("l", [0, 1, 3])
def test_rayleigh_quotient_matches_assembled_forms(geometry, l):
    """The quadrature quotient is x'Ax / x'Bx of the assembled pencil."""
    cap = cs.make_cap(geometry, 3, 1.3)
    mesh = cs.build_mesh(cap, 12)
    pencil = cs.assemble_sector_forms(cap, l, mesh, quad_order=7)
    x = np.random.default_rng(l).standard_normal(len(pencil.dof_map))
    want = float(x @ pencil.A @ x) / float(x @ pencil.B @ x)
    assert fem.rayleigh_quotient(pencil, x) == pytest.approx(want, rel=1e-12)
    assert fem.rayleigh_quotient(pencil, 3.0 * x) == pytest.approx(want, rel=1e-12)


def test_quadrature_order_converged_at_default():
    # the trig factors are not polynomial, so raising the rule order still
    # nudges individual entries, but only far below the discretization error,
    # and the lowest eigenvalue must not move at all
    cap = cs.make_cap("spherical", 2, 1.0)
    mesh = cs.build_mesh(cap, 8)
    p6 = cs.assemble_sector_forms(cap, 1, mesh, quad_order=6)
    p10 = cs.assemble_sector_forms(cap, 1, mesh, quad_order=10)
    assert np.abs(p6.A - p10.A).max() <= 1e-7 * np.abs(p6.A).max()
    assert np.abs(p6.B - p10.B).max() <= 1e-7 * np.abs(p6.B).max()
    lam6, _ = cs.solve_pencil(p6.A, p6.B, count=1)
    lam10, _ = cs.solve_pencil(p10.A, p10.B, count=1)
    assert lam6[0] == pytest.approx(lam10[0], rel=1e-9)


def test_pencil_records_its_inputs():
    cap = cs.make_cap("flat", 2, 1.0)
    mesh = cs.build_mesh(cap, 6)
    pencil = cs.assemble_sector_forms(cap, 2, mesh, quad_order=7)
    assert pencil.domain is cap
    assert pencil.mesh is mesh
    assert pencil.quad_order == 7
    assert pencil.sector.l == 2
    assert pencil.A.shape == (len(pencil.dof_map), len(pencil.dof_map))
