"""Eigensolver, Bessel oracle, and spectrum merging."""

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import special

import capspectra as cs
from capspectra import _linalg


def _random_spd_pencil(rng, size):
    ma = rng.standard_normal((size, size))
    mb = rng.standard_normal((size, size))
    A = ma @ ma.T + size * np.eye(size)
    B = mb @ mb.T + size * np.eye(size)
    return A, B


@pytest.mark.parametrize("size", [6, 17, 40])
def test_solve_pencil_matches_reference_solver(size):
    rng = np.random.default_rng(size)
    A, B = _random_spd_pencil(rng, size)
    count = min(size, 9)
    values, vectors = cs.solve_pencil(A, B, count=count)
    ref = sla.eigh(A, B, eigvals_only=True)
    # the full ascending eigenvalue list comes back, vectors only for the head
    assert values.shape == (size,)
    assert np.allclose(values, ref, rtol=1e-9, atol=1e-11)
    # vectors are B-orthonormal and satisfy the pencil equation
    gram = vectors.T @ B @ vectors
    assert np.allclose(gram, np.eye(count), atol=1e-8)
    for i in range(count):
        x = vectors[:, i]
        resid = np.linalg.norm(A @ x - values[i] * (B @ x))
        assert resid <= 1e-8 * np.linalg.norm(A @ x)


def test_solve_pencil_full_set_and_determinism():
    rng = np.random.default_rng(77)
    A, B = _random_spd_pencil(rng, 12)
    v1, w1 = cs.solve_pencil(A, B, count=12)
    v2, w2 = cs.solve_pencil(A, B, count=12)
    assert np.array_equal(v1, v2) and np.array_equal(w1, w2)
    assert len(v1) == 12 and w1.shape == (12, 12)
    assert np.all(np.diff(v1) >= 0)
    # values-only mode skips the vector stage entirely
    v3, w3 = cs.solve_pencil(A, B)
    assert w3 is None and np.allclose(v3, v1, rtol=1e-10)


def test_solve_pencil_handles_clustered_eigenvalues():
    # a pencil with an exactly repeated eigenvalue still yields an orthonormal set
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    diag = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    A = q @ np.diag(diag) @ q.T
    A = 0.5 * (A + A.T)
    B = np.eye(10)
    values, vectors = cs.solve_pencil(A, B, count=5)
    assert np.allclose(values[:5], [1.0, 2.0, 2.0, 2.0, 3.0], atol=1e-9)
    assert np.allclose(vectors.T @ vectors, np.eye(5), atol=1e-8)


def test_solve_pencil_rejects_non_spd_b():
    A = np.eye(3)
    B = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(_linalg.CholeskyError):
        cs.solve_pencil(A, B, count=1)


def test_cholesky_and_triangular_solves():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((9, 9))
    B = m @ m.T + 9 * np.eye(9)
    L = _linalg.cholesky_lower(B)
    assert np.allclose(L @ L.T, B, atol=1e-12 * np.abs(B).max())
    assert np.allclose(L, np.tril(L))
    b = rng.standard_normal(9)
    assert np.allclose(L @ _linalg.solve_lower_triangular(L, b), b, atol=1e-12)
    assert np.allclose(L.T @ _linalg.solve_upper_triangular(L.T, b), b, atol=1e-12)


def test_tridiagonal_reduction_preserves_spectrum():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((14, 14))
    C = m @ m.T
    diag, off, reflectors = _linalg.householder_tridiagonalize(C.copy())
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.allclose(np.sort(np.linalg.eigvalsh(T)), np.sort(np.linalg.eigvalsh(C)), atol=1e-10)
    values = _linalg.tridiagonal_eigenvalues(diag.copy(), off.copy())
    assert np.allclose(np.sort(values), np.linalg.eigvalsh(C), atol=1e-10)


def test_bessel_function_against_scipy():
    xs = np.concatenate([np.linspace(0.05, 8.9, 40), np.linspace(9.1, 40.0, 40)])
    for order in range(0, 9):
        ours = np.array([cs.bessel_j(order, float(x)) for x in xs])
        ref = special.jv(order, xs)
        assert np.allclose(ours, ref, atol=5e-13, rtol=1e-11)


def test_bessel_at_origin_and_tiny_argument():
    assert cs.bessel_j(0, 0.0) == 1.0
    for order in (1, 2, 5):
        assert cs.bessel_j(order, 0.0) == 0.0
    # leading series term J_l(x) ~ (x/2)^l / l!
    assert cs.bessel_j(2, 1e-4) == pytest.approx((0.5e-4) ** 2 / 2.0, rel=1e-6)


def test_bessel_zeros_against_scipy():
    for order in range(0, 9):
        ref = special.jn_zeros(order, 6)
        for index in range(1, 7):
            assert cs.bessel_zero(order, index) == pytest.approx(ref[index - 1], abs=1e-11)


def test_bessel_zero_input_validation():
    with pytest.raises(ValueError):
        cs.bessel_zero(0, 0)
    with pytest.raises(ValueError):
        cs.bessel_zero(-1, 1)


def test_disk_sectors_match_bessel_squares():
    """Clamped-disk buckling eigenvalues are squared zeros of J_{l+1}."""
    disk = cs.make_cap("flat", 2, 1.0)
    for l, depth in ((0, 3), (1, 2), (2, 2)):
        pairs = cs.solve_sector(disk, l, m=128, count=depth)
        for k in range(depth):
            want = cs.bessel_zero(l + 1, k + 1) ** 2
            assert pairs[k].value == pytest.approx(want, rel=1e-7)


def test_disk_lambda1_at_m256_below_assembly_noise(disk256):
    """The reported value keeps the O(h^4) rate past the x'Ax rounding noise.

    At m=256 the discretization error of the disk ground state is about
    3e-11 relative, while evaluating x'Ax on the same vector carries
    rounding noise near 1e-8.
    """
    want = cs.bessel_zero(1, 1) ** 2
    assert disk256["lam1"] == pytest.approx(want, rel=1e-10)


def test_solve_sector_output_contract():
    cap = cs.make_cap("spherical", 3, 1.0)
    pairs = cs.solve_sector(cap, 1, m=48, count=3)
    assert len(pairs) == 3
    values = [p.value for p in pairs]
    assert values == sorted(values)
    pencil = cs.assemble_sector_forms(cap, 1, cs.build_mesh(cap, 48))
    area = cs.surface_area(3)
    for p in pairs:
        assert p.sector.l == 1
        ax = pencil.A @ p.coeffs
        assert np.linalg.norm(ax - p.value * (pencil.B @ p.coeffs)) <= 1e-8 * np.linalg.norm(ax)
        assert len(p.coeffs) == pencil.A.shape[0]
        # gradient normalization: the b-form of each mode integrates to one
        # over the whole cap, including the angular measure
        assert area * float(p.coeffs @ pencil.B @ p.coeffs) == pytest.approx(1.0, rel=1e-10)


def test_spectrum_merge_replicates_multiplicities():
    spectrum = cs.assemble_spectrum({0: [1.0, 3.0], 1: [2.0]}, dim=3)
    assert spectrum.values() == pytest.approx([1.0, 2.0, 2.0, 2.0, 3.0])
    assert [e.l for e in spectrum.entries] == [0, 1, 1, 1, 0]
    # copy_index counts replicas of one degenerate value, so the second
    # axisymmetric eigenvalue starts back at one
    assert [e.copy_index for e in spectrum.entries] == [1, 1, 2, 3, 1]
    assert spectrum.entries[1].multiplicity == 3


def test_spectrum_merge_orders_ties_by_sector():
    spectrum = cs.assemble_spectrum({0: [2.0], 1: [2.0]}, dim=2)
    assert [e.l for e in spectrum.entries] == [0, 1, 1]


def test_spectrum_merge_guard_raises_on_shallow_tail():
    # the requested depth reaches past the smallest value of the top sector,
    # so eigenvalues of unsolved sectors could be missing from the head
    with pytest.raises(cs.TruncationError, match="raise l_max"):
        cs.assemble_spectrum({0: [1.0, 5.0], 1: [3.0]}, count=4, dim=2)
    # a request that stops exactly at the top sector's smallest value is safe:
    # nothing below it can be missing
    ok = cs.assemble_spectrum({0: [1.0, 5.0], 1: [3.0]}, count=3, dim=2)
    assert ok.values() == pytest.approx([1.0, 3.0, 3.0])


def test_spectrum_merge_without_count_skips_guard():
    spectrum = cs.assemble_spectrum({0: [1.0, 50.0], 1: [2.0]}, dim=2)
    assert len(spectrum.entries) == 4


def test_spectrum_merge_validation():
    with pytest.raises(ValueError, match="no sector results"):
        cs.assemble_spectrum({})
    with pytest.raises(ValueError, match="dim is required"):
        cs.assemble_spectrum({0: [1.0]})
    with pytest.raises(cs.TruncationError, match="computed only"):
        cs.assemble_spectrum({0: [1.0]}, count=5, dim=2)


def test_solve_spectrum_degeneracy_on_two_sphere():
    cap = cs.make_cap("spherical", 3, 1.0)
    spectrum, sectors = cs.solve_spectrum(cap, m=48, l_max=3, count=4)
    assert sorted(sectors) == [0, 1, 2, 3]
    values = spectrum.values()
    assert len(values) == 4
    assert list(values) == sorted(values)
    # each degree-one value shows up with multiplicity 2l+1 = 3
    degree_one = [e for e in spectrum.entries if e.l == 1]
    for e in degree_one:
        assert e.multiplicity == 3
