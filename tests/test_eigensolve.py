"""Eigensolver, Bessel oracle, and spectrum merging."""

import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import special

import capspectra as cs
from capspectra import _linalg, eigensolve


def _band_matrices(seed, n, p):
    """A random SPD pencil (A, B) of half-bandwidth p."""
    rng = np.random.default_rng(seed)
    mask = np.triu(np.tril(np.ones((n, n)), 0), -p)
    factors = [rng.standard_normal((n, n)) * mask + 2.0 * np.eye(n) for _ in range(2)]
    return tuple(f @ f.T for f in factors)


def _band_pencil(seed, n, p):
    """A random SPD pencil of half-bandwidth p <= 3 and size n >= 4, with its bands."""
    A, B = _band_matrices(seed, n, p)
    a, b = _linalg.pencil_bands(A, B)
    # LAPACK upper storage: row 3 - k holds the k-th superdiagonal, so
    # rows 0 .. 2 - p are zero
    assert a.shape == (4, n) and not np.any(a[: 3 - p]) and np.all(a[3 - p, p:])
    return A, B, a, b


@pytest.mark.parametrize("size", [6, 17, 40])
def test_solve_pencil_matches_reference_solver(size):
    A, B, _, _ = _band_pencil(size, size, 3)
    # well conditioned, so the fixed residual tolerance below is attainable
    A, B = A + size * np.eye(size), B + size * np.eye(size)
    count = min(size, 9)
    values, vectors = cs.solve_pencil(A, B, count=count)
    ref = sla.eigh(A, B, eigvals_only=True)
    # the lowest count eigenvalues come back ascending, each with its vector
    assert values.shape == (count,)
    assert np.allclose(values, ref[:count], rtol=1e-9, atol=1e-11)
    # vectors are B-orthonormal and satisfy the pencil equation
    gram = vectors.T @ B @ vectors
    assert np.allclose(gram, np.eye(count), atol=1e-8)
    for i in range(count):
        x = vectors[:, i]
        resid = np.linalg.norm(A @ x - values[i] * (B @ x))
        assert resid <= 1e-8 * np.linalg.norm(A @ x)


def test_solve_pencil_full_set_and_determinism():
    A, B, _, _ = _band_pencil(77, 12, 2)
    v1, w1 = cs.solve_pencil(A, B, count=12)
    v2, w2 = cs.solve_pencil(A, B, count=12)
    assert np.array_equal(v1, v2) and np.array_equal(w1, w2)
    assert len(v1) == 12 and w1.shape == (12, 12)
    assert np.all(np.diff(v1) >= 0)
    assert np.allclose(v1, sla.eigh(A, B, eigvals_only=True), rtol=1e-9, atol=1e-11)
    # there is no values-only mode: every call returns vectors
    with pytest.raises(ValueError):
        cs.solve_pencil(A, B, count=0)


def test_solve_pencil_rejects_pencils_the_kernels_cannot_take(monkeypatch):
    # half-bandwidth above 3, or fewer than 4 rows, raise ValueError before
    # any factorization
    def no_factorization(*args):
        raise AssertionError("factored a pencil it should have rejected")

    monkeypatch.setattr(_linalg, "_narrow_count", no_factorization)
    A, B = _band_matrices(4, 9, 4)
    with pytest.raises(ValueError, match="half-bandwidth"):
        cs.solve_pencil(A, B, count=2)
    with pytest.raises(ValueError, match="half-bandwidth"):
        _linalg.pencil_bands(A, B)
    A, B = _band_matrices(3, 3, 1)
    with pytest.raises(ValueError, match="size"):
        cs.solve_pencil(A, B, count=1)
    with pytest.raises(ValueError, match="size"):
        _linalg.pencil_bands(A, B)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_pencil_bands_are_lapack_upper_band_storage(p):
    # scipy reads the bands of A and of B as LAPACK's upper band storage;
    # both eigensolvers are backward stable, so they agree to eps ||M||
    for seed, n in [(p, 4), (10 + p, 9), (20 + p, 31)]:
        A, B, a, b = _band_pencil(seed, n, p)
        for M, bands in ((A, a), (B, b)):
            ref = np.linalg.eigvalsh(M)
            assert np.allclose(sla.eigvals_banded(bands), ref, rtol=0.0, atol=1e-13 * ref[-1])


def test_pencil_bands_reject_one_nonzero_past_the_third_superdiagonal():
    for which in (0, 1):
        pencil = [4.0 * np.eye(8), np.eye(8)]
        pencil[which][2, 6] = pencil[which][6, 2] = 1e-300
        with pytest.raises(ValueError, match="half-bandwidth"):
            _linalg.pencil_bands(*pencil)


def test_pencil_bands_of_the_zero_pencil_are_zero():
    # an all-zero row has no nonzero past the band, so it passes the check
    a, b = _linalg.pencil_bands(np.zeros((15, 15)), np.zeros((15, 15)))
    assert a.shape == b.shape == (4, 15) and not np.any(a) and not np.any(b)


def test_solve_pencil_handles_clustered_eigenvalues():
    # a pencil with an exactly repeated eigenvalue still yields an orthonormal
    # set; rotating a diagonal by orthogonal 4 x 4 blocks keeps the repeat and
    # makes the pencil of half-bandwidth 3
    rng = np.random.default_rng(3)
    q = np.zeros((10, 10))
    for start, stop in [(0, 4), (4, 8), (8, 10)]:
        q[start:stop, start:stop] = np.linalg.qr(rng.standard_normal((stop - start,) * 2))[0]
    diag = np.array([2.0, 5.0, 1.0, 2.0, 6.0, 2.0, 3.0, 7.0, 4.0, 8.0])
    A = q @ np.diag(diag) @ q.T
    A = 0.5 * (A + A.T)
    B = np.eye(10)
    assert np.any(_linalg.pencil_bands(A, B)[0][0])
    values, vectors = cs.solve_pencil(A, B, count=5)
    assert np.allclose(values[:5], [1.0, 2.0, 2.0, 2.0, 3.0], atol=1e-9)
    assert np.allclose(values, sla.eigh(A, B, eigvals_only=True)[:5], atol=1e-9)
    assert np.allclose(vectors.T @ vectors, np.eye(5), atol=1e-8)


def test_solve_pencil_rejects_non_spd_b():
    A, B, _, _ = _band_pencil(5, 8, 2)
    B[3, 3] = -B[3, 3]
    with pytest.raises(np.linalg.LinAlgError):
        sla.eigh(A, B)
    with pytest.raises(_linalg.CholeskyError):
        cs.solve_pencil(A, B, count=1)


def test_solve_pencil_rejects_a_that_is_not_positive_definite(monkeypatch):
    # the count at 0 checks A as the count of B checks B: an indefinite A,
    # or a singular positive semidefinite one (the path graph's Laplacian,
    # whose last pivot is exactly 0), raises before inverse iteration
    # factors a shift
    def no_factorization(*args):
        raise AssertionError("factored a pencil it should have rejected")

    monkeypatch.setattr(_linalg, "_narrow_ldl", no_factorization)
    laplacian = 2.0 * np.eye(8) - np.eye(8, k=1) - np.eye(8, k=-1)
    laplacian[0, 0] = laplacian[-1, -1] = 1.0
    assert np.linalg.matrix_rank(laplacian) == 7
    for A in (np.diag([-1.0, *range(1, 8)]), laplacian):
        with pytest.raises(_linalg.CholeskyError, match="A is not positive definite"):
            cs.solve_pencil(A, np.eye(8), count=2)


def _sector_pencil(geometry, dim, aperture, l, m):
    domain = cs.make_cap(geometry, dim, aperture)
    return cs.assemble_sector_forms(domain, l, cs.build_mesh(domain, m))


@pytest.mark.parametrize("geometry,aperture", [("flat", 1.0), ("spherical", 0.5), ("spherical", 2.5)])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_inertia_counts_match_dense_counts(geometry, aperture, dim):
    # Sylvester counts at lam_i (1 -+ 1e-6) are exactly i and i + 1
    for l in range(7):
        pencil = _sector_pencil(geometry, dim, aperture, l, 24)
        ref = sla.eigh(pencil.A, pencil.B, eigvals_only=True)
        shifts = np.concatenate([ref[:6] * (1.0 - 1e-6), ref[:6] * (1.0 + 1e-6)])
        a, b = _linalg.pencil_bands(pencil.A, pencil.B)
        assert a.shape[0] == 4  # half-bandwidth 3
        counts = _linalg.inertia_counts(a, b, shifts)
        assert np.array_equal(counts, np.searchsorted(ref, shifts, side="right"))
        assert np.array_equal(counts, np.concatenate([np.arange(6), np.arange(1, 7)]))


@pytest.mark.parametrize(
    "geometry,dim,aperture,l,m",
    [("flat", 2, 1.0, 0, 512), ("spherical", 5, 2.0, 6, 512), ("spherical", 3, 1.0, 1, 256)],
)
def test_inertia_counts_match_dense_counts_on_fine_meshes(geometry, dim, aperture, l, m):
    pencil = _sector_pencil(geometry, dim, aperture, l, m)
    ref = sla.eigh(pencil.A, pencil.B, eigvals_only=True, subset_by_index=[0, 6])
    shifts = np.concatenate([ref[:6] * (1.0 - 1e-6), ref[:6] * (1.0 + 1e-6)])
    counts = _linalg.inertia_counts(*_linalg.pencil_bands(pencil.A, pencil.B), shifts)
    assert np.array_equal(counts, np.searchsorted(ref, shifts, side="right"))


@pytest.mark.parametrize(
    "geometry,dim,aperture,l,count",
    [
        ("flat", 2, 1.0, 0, 6),
        ("flat", 4, 0.7, 3, 2),
        ("spherical", 2, 3.0, 0, 6),
        ("spherical", 5, 0.5, 6, 4),
    ],
)
def test_solve_pencil_head_matches_dense_subset(geometry, dim, aperture, l, count):
    pencil = _sector_pencil(geometry, dim, aperture, l, 48)
    A, B = pencil.A, pencil.B
    values, vectors = cs.solve_pencil(A, B, count=count)
    ref = sla.eigh(A, B, eigvals_only=True, subset_by_index=[0, count - 1])
    assert np.allclose(values, ref, rtol=1e-10, atol=0.0)
    assert np.allclose(vectors.T @ B @ vectors, np.eye(count), atol=1e-10)


def test_solve_pencil_repeat_calls_are_bit_identical():
    pencil = _sector_pencil("spherical", 3, 1.5, 2, 64)
    v1, w1 = cs.solve_pencil(pencil.A, pencil.B, count=6, seed=9)
    v2, w2 = cs.solve_pencil(pencil.A, pencil.B, count=6, seed=9)
    assert np.array_equal(v1, v2) and np.array_equal(w1, w2)


def _sector_matrices(geometry, dim, aperture, l, m):
    pencil = _sector_pencil(geometry, dim, aperture, l, m)
    return pencil.A, pencil.B


@pytest.mark.parametrize(
    "make,count",
    [
        (lambda: _sector_matrices("flat", 2, 1.0, 0, 16), 3),
        (lambda: _sector_matrices("spherical", 5, 2.5, 3, 64), 6),
        # the first pass holds too few eigenvalues and widens
        (lambda: _band_matrices(77, 12, 2), 12),
        # the brackets walk up from 0 by binades
        (lambda: (np.diag([1e-300, 2e-300, *range(3, 13)]), np.eye(12)), 2),
    ],
    ids=["disk", "cap", "full_set", "tiny_eigenvalues"],
)
def test_every_count_is_made_at_a_nonnegative_shift(make, count):
    A, B = make()
    a, b = _linalg.pencil_bands(A, B)
    calls = []
    real = _linalg._narrow_count

    def recording(bands_a, bands_b, sigma):
        calls.append((bands_a, sigma))
        return real(bands_a, bands_b, sigma)

    with mock.patch.object(_linalg, "_narrow_count", recording):
        cs.solve_pencil(A, B, count=count)
    # the first count is that of B itself, at 0; every other is of A - sigma B
    assert np.array_equal(calls[0][0], b) and calls[0][1] == 0.0
    assert all(np.array_equal(bands, a) for bands, _ in calls[1:])
    assert min(sigma for _, sigma in calls) >= 0.0


def test_solve_pencil_rejects_non_monotone_counts(monkeypatch):
    # a count that falls as the shift rises cannot come from a definite pencil:
    # negated, the counts 0 at 0 and k > 0 at scale fall (the count of B
    # alone stays 0)
    real = _linalg._narrow_count

    def falling(a, b, sigma):
        count, logdet = real(a, b, sigma)
        return -count, logdet

    monkeypatch.setattr(_linalg, "_narrow_count", falling)
    pencil = _sector_pencil("flat", 2, 1.0, 0, 16)
    with pytest.raises(_linalg.ConvergenceError, match="monotone"):
        cs.solve_pencil(pencil.A, pencil.B, count=3)


def _settled(counts, j):
    """Whether bracket j meets the stopping rule of _brackets' splitting passes."""
    lo, hi = counts.shifts[j], counts.shifts[j + 1]
    isolated = counts.counts[j + 1] - counts.counts[j] == 1
    narrow = hi - lo <= _linalg._CLUSTER_RTOL * hi
    resolved = counts.contraction(j) <= _linalg._CONTRACTION and (isolated or narrow)
    return bool(resolved or np.nextafter(lo, hi) == hi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    geometry=st.sampled_from(["flat", "spherical"]),
    dim=st.integers(2, 5),
    aperture=st.floats(0.2, 3.0),
    l=st.integers(0, 3),
    m=st.sampled_from([8, 16, 32]),
    count=st.integers(1, 6),
)
def test_bracket_counts_are_factored_and_every_bracket_is_settled(geometry, dim, aperture, l, m, count):
    # every stored count is the number of dense eigenvalues at or below its
    # shift (ties count below, as in the kernel), and the bisection stops
    # only where the stopping rule holds
    pencil = _sector_pencil(geometry, dim, aperture, l, m)
    a, b = _linalg.pencil_bands(pencil.A, pencil.B)
    counts, positions = _linalg._brackets(a, b, count)
    ref = sla.eigh(pencil.A, pencil.B, eigvals_only=True)
    assert np.array_equal(counts.counts, np.searchsorted(ref, counts.shifts, side="right"))
    for i, j in enumerate(positions):
        assert counts.counts[j] <= i < counts.counts[j + 1]
        assert _settled(counts, j)


def test_each_splitting_pass_counts_one_midpoint_per_open_bracket():
    # the cap_sweep pencil: after the count of B and the first pass at
    # 0 and scale, a pass factors one shift strictly inside each open
    # bracket
    pencil = _sector_pencil("spherical", 3, 1.5, 1, 64)
    a, b = _linalg.pencil_bands(pencil.A, pencil.B)
    calls = {"one_shift": 0}
    passes = []
    real_count, real_add = _linalg._narrow_count, _linalg._Counts.add

    def one_shift(*args):
        calls["one_shift"] += 1
        return real_count(*args)

    def add(self, shifts, found):
        positions = sorted({self.bracket(i) for i in range(6)}) if self.shifts else []
        opened = [j for j in positions if not _settled(self, j)]
        passes.append((dict(calls), shifts, [(self.shifts[j], self.shifts[j + 1]) for j in opened]))
        calls.update(one_shift=0)
        real_add(self, shifts, found)

    with (
        mock.patch.object(_linalg, "_narrow_count", one_shift),
        mock.patch.object(_linalg._Counts, "add", add),
    ):
        _linalg._brackets(a, b, 6)
    assert passes[0][0] == {"one_shift": 3} and len(passes[0][1]) == 2
    assert len(passes) > 1
    for used, shifts, opened in passes[1:]:
        assert used == {"one_shift": len(shifts)}
        assert len(shifts) == len(opened)
        assert all(lo < sigma < hi for sigma, (lo, hi) in zip(np.sort(shifts), opened))


def test_contraction_of_a_bracket_of_adjacent_doubles_is_infinite():
    # the midpoint of 1 and the next double rounds to 1, the lowest shift
    # counting 1, so the distance to the eigenvalue below is 0: the bound
    # is inf (a poor shift), without a division by zero or its warning
    counts = _linalg._Counts()
    counts.add([0.5, 1.0, np.nextafter(1.0, 2.0)], [(0, 0.0), (1, 0.0), (2, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert counts.contraction(1) == math.inf


@pytest.mark.parametrize("t", [1e-25, 1e-300, 1e-308])
def test_solve_pencil_separates_eigenvalues_far_below_the_diagonal_scale(t):
    # bisection in the ordering of doubles splits the bracket [0, 12] by
    # binades, so t and 2 t are bracketed apart long before the pass limit;
    # at 1e-300 and below the midpoint shift can sit a subnormal distance
    # from t, and the solve's right-hand sides are scaled so it stays finite
    A = np.diag([t, 2.0 * t, *range(3, 13)])
    values, _ = cs.solve_pencil(A, np.eye(12), count=2)
    assert np.allclose(values, [t, 2.0 * t], rtol=1e-12, atol=0.0)


def test_fine_mesh_value_does_not_depend_on_the_seed():
    # spherical n = 5, R = 2, sector 1 at m = 1024 (N = 2047), the finest
    # mesh build_mesh accepts: the extended-precision refinement steps bring
    # each seed within the discretization error (about 1e-12 off here)
    domain = cs.make_cap("spherical", 5, 2.0)
    pencil = cs.assemble_sector_forms(domain, 1, cs.build_mesh(domain, 1024))
    ref = cs.cap_eigenvalue(5, 1, 2.0, 1)
    for seed in (2719, 3719, 4719):
        _, vectors = cs.solve_pencil(pencil.A, pencil.B, count=2, seed=seed)
        value = cs.fem.rayleigh_quotient(pencil, vectors[:, 0])
        assert abs(value - ref) <= 1e-10 * ref


@pytest.mark.parametrize(
    "geometry,dim,aperture,l,m",
    [("flat", 2, 1.0, 0, 64), ("spherical", 3, 1.0, 1, 128), ("flat", 5, 1.0, 2, 256)],
)
def test_solve_pencil_does_not_depend_on_the_slope_scale(geometry, dim, aperture, l, m):
    # D A D, D B D with D scaling the slope DOFs by a power of two has the
    # spectrum of A, B, and the LDL^T factors scale exactly with D (row
    # swaps chosen by magnitude would not: a pivoted LU moved these values
    # by up to 2.5e-10 and broke down at 2**-60 on the disk)
    pencil = _sector_pencil(geometry, dim, aperture, l, m)
    ref, _ = cs.solve_pencil(pencil.A, pencil.B, count=6)
    slope = np.array([kind for _, kind in pencil.dof_map]) == 1
    for power in (-10, -30, -60):
        d = np.where(slope, 2.0**power, 1.0)
        values, _ = cs.solve_pencil(d[:, None] * pencil.A * d, d[:, None] * pencil.B * d, count=6)
        assert np.allclose(values, ref, rtol=1e-12, atol=0.0)


def test_inertia_count_goes_on_past_an_exactly_zero_pivot():
    # at sigma = max|A_ii| / max|B_ii| (row 3 of the bands), where
    # _brackets' first pass counts above 0, the first pivot of this sector
    # pencil is exactly zero; the count takes it as negative, goes on with
    # -pivmin, and gives the dense count
    pencil = _sector_pencil("spherical", 2, 2.9, 4, 16)
    a, b = _linalg.pencil_bands(pencil.A, pencil.B)
    sigma = float(np.max(np.abs(a[3])) / np.max(np.abs(b[3])))
    assert a[3, 0] - sigma * b[3, 0] == 0.0
    ref = sla.eigh(pencil.A, pencil.B, eigvals_only=True)
    assert ref.size == 30 and np.searchsorted(ref, sigma, side="right") == 21
    assert _linalg.inertia_counts(a, b, [sigma])[0] == 21


def _diagonal_bands(n):
    """Bands of the pencil A = 4 I, B = I."""
    a, b = np.zeros((4, n)), np.zeros((4, n))
    a[3], b[3] = 4.0, 1.0
    return a, b


def test_banded_lu_zero_pivot_leaves_no_warning():
    # at shift 4 the first pivot of 4 I - 4 I is exactly zero: the LDL^T
    # factorization (the banded LU with U = D L^T) stops on a singular
    # shifted pencil, without a numpy warning; the count takes every zero
    # pivot as negative, so the n eigenvalues equal to the shift count as
    # below it
    for n in (5, 6):
        a, b = _diagonal_bands(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _linalg.inertia_counts(a, b, [4.0])[0] == n
            _linalg._narrow_ldl(a, b, 1.0)
            with pytest.raises(_linalg.ConvergenceError, match="singular shifted pencil"):
                _linalg._narrow_ldl(a, b, 4.0)


def test_solve_pencil_rejects_value_outside_its_bracket(monkeypatch):
    # with the brackets shrunk by 1% on either side, no value can lie in its own
    monkeypatch.setattr(_linalg, "_BRACKET_SLACK", -1e-2)
    pencil = _sector_pencil("flat", 2, 1.0, 0, 16)
    with pytest.raises(_linalg.ConvergenceError, match="bracket") as caught:
        cs.solve_pencil(pencil.A, pencil.B, count=3)
    # plain floats, which print without a numpy type name
    assert "np." not in str(caught.value)


def test_returned_values_lie_inside_their_count_brackets():
    pencil = _sector_pencil("spherical", 4, 2.0, 1, 128)
    values, _ = cs.solve_pencil(pencil.A, pencil.B, count=6)
    bands = _linalg.pencil_bands(pencil.A, pencil.B)
    slack = _linalg._BRACKET_SLACK
    below = _linalg.inertia_counts(*bands, values * (1.0 - slack))
    above = _linalg.inertia_counts(*bands, values * (1.0 + slack))
    assert np.array_equal(below, np.arange(6)) and np.array_equal(above, np.arange(1, 7))


def _midpoint_shifts(a, b, count):
    """The shifts solve_pencil factors at: its bracket midpoints."""
    counts, positions = _linalg._brackets(a, b, count)
    return [0.5 * (counts.shifts[j] + counts.shifts[j + 1]) for j in positions]


def _assert_solves(M, p, Y, X):
    """Y solves M Y = X with a backward error of at most 1e-13 ||M||.

    LAPACK's banded solve cross-checks Y: both solutions are backward
    stable, so they differ by at most their residuals mapped through M^-1,
    whose norm is one over the smallest |eigenvalue| of the symmetric M.
    """
    norm = np.linalg.norm(M)
    size = np.linalg.norm(Y, axis=0)
    assert np.all(np.linalg.norm(M @ Y - X, axis=0) <= 1e-13 * norm * size)
    n = M.shape[0]
    ab = np.zeros((2 * p + 1, n))
    for k in range(-p, p + 1):
        ab[p - k, max(k, 0) : n + min(k, 0)] = np.diagonal(M, k)
    ref = sla.solve_banded((p, p), ab, X)
    smallest = np.min(np.abs(sla.eigvals_banded(ab[: p + 1])))
    gap = np.linalg.norm(Y - ref, axis=0)
    assert np.all(gap <= 2e-13 * norm * np.maximum(size, np.linalg.norm(ref, axis=0)) / smallest)


@pytest.mark.parametrize(
    "geometry,dim,aperture,l,m,lanes",
    [
        ("flat", 2, 1.0, 0, 256, 1),
        ("spherical", 3, 1.0, 1, 128, 2),
        ("spherical", 5, 2.5, 3, 64, 6),
        ("spherical", 2, 3.0, 0, 32, 6),
        ("flat", 3, 1.0, 1, 4, 2),
        ("spherical", 4, 1.5, 2, 4, 1),
        ("flat", 2, 1.0, 2, 512, 6),
        ("spherical", 3, 2.0, 0, 512, 2),
    ],
)
def test_narrow_lu_solve_is_backward_stable(geometry, dim, aperture, l, m, lanes):
    # the LDL^T solve (the banded LU with U = D L^T, without pivoting) at
    # the bracket midpoints solve_pencil factors, where A - sigma B is
    # nearly singular
    pencil = _sector_pencil(geometry, dim, aperture, l, m)
    a, b = _linalg.pencil_bands(pencil.A, pencil.B)
    assert a.shape[0] == 4
    shifts = _midpoint_shifts(a, b, lanes)
    X = np.random.default_rng(lanes).standard_normal((a.shape[1], lanes))
    Y = _linalg._ldl_solve([_linalg._narrow_ldl(a, b, sigma) for sigma in shifts], X)
    # C order: later reductions over the rows depend on the layout for
    # their rounding
    assert Y.flags["C_CONTIGUOUS"]
    for k, sigma in enumerate(shifts):
        _assert_solves(pencil.A - sigma * pencil.B, 3, Y[:, k : k + 1], X[:, k : k + 1])


def _kernel_count(a, b, sigma):
    try:
        return _linalg._narrow_count(a, b, sigma)[0]
    except _linalg.ConvergenceError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 24),
    p=st.integers(0, 3),
    shifts=st.lists(st.floats(-5.0, 60.0), min_size=1, max_size=6),
    scale=st.sampled_from([1.0, 1e307]),
)
# shift 4 makes every pivot 4 - 4 * 1 exactly zero: A = 4 I, B = I (seed
# None), so the LDL^T factorization declines the shift, and the LDL^T count
# takes each zero pivot as negative and counts the n eigenvalues equal to 4
# (dlaebz's rule)
@example(seed=None, n=5, p=1, shifts=[4.0], scale=1.0)
@example(seed=None, n=6, p=0, shifts=[4.0, 1.0], scale=1.0)
# near the top of the double range the scaled bands overflow (seed 8), or
# stay finite while the updates overflow and the factorization declines
# (seed 125)
@example(seed=8, n=8, p=3, shifts=[1.0], scale=1e307)
@example(seed=125, n=8, p=3, shifts=[1.0], scale=1e307)
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def test_narrow_kernels_match_scipy_on_random_band_pencils(seed, n, p, shifts, scale):
    # the count is the number of dense eigenvalues of the unscaled pencil at
    # or below sigma / scale, or, where scaling by 1e307 overflowed the
    # factorization, ConvergenceError; the LDL^T factorization and its
    # solve are backward stable on the pencil scaled back to unit size, or
    # _narrow_ldl declines the shift with ConvergenceError.  solve_pencil
    # factors only finite pencils, so the factorization is not tried where
    # scaling overflowed.
    if seed is None:
        A, B = 4.0 * np.eye(n), np.eye(n)
        a, b = _diagonal_bands(n)
    else:
        A, B, a, b = _band_pencil(seed, n, p)
    ref = sla.eigh(A, B, eigvals_only=True)
    a = a * scale
    finite = np.all(np.isfinite(a))
    X = np.random.default_rng(n).standard_normal((n, 1))
    for sigma in shifts:
        dense = int(np.searchsorted(ref, sigma / scale, side="right"))
        overflowed = "LDL^T inertia count broke down on a singular leading block"
        assert _kernel_count(a, b, sigma) in ((dense,) if scale == 1.0 else (dense, overflowed))
        if not finite:
            continue
        try:
            one = _linalg._narrow_ldl(a, b, sigma)
        except _linalg.ConvergenceError as exc:
            assert "singular shifted pencil" in str(exc)
            continue
        Y = _linalg._ldl_solve([one], X)
        _assert_solves(A - sigma / scale * B, p, scale * Y, X)


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


def _s3_cap_eigenvalue(aperture, k):
    """k-th radial eigenvalue of a cap on the 3-sphere, from its closed form.

    With u = v / sin t the radial equation is (D^2 + 1)(D^2 + 1 + lam) v = 0;
    the clamped solutions give mu cos(mu R) sin R = sin(mu R) cos R with
    lam = mu^2 - 1, mu = 1 being the trivial root.
    """

    def f(mu):
        return mu * np.cos(mu * aperture) * np.sin(aperture) - np.sin(mu * aperture) * np.cos(aperture)

    grid = 1.0 + np.arange(1, 40000) * (0.002 / aperture)
    signs = np.nonzero(np.sign(f(grid[:-1])) != np.sign(f(grid[1:])))[0]
    lo, hi = grid[signs[k - 1]], grid[signs[k - 1] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == (f(lo) < 0.0):
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return mu * mu - 1.0


@pytest.mark.parametrize("aperture", [0.5, 1.0, 2.5])
def test_cap_eigenvalue_matches_s3_closed_form(aperture):
    for k in (1, 2):
        want = _s3_cap_eigenvalue(aperture, k)
        assert cs.cap_eigenvalue(3, 0, aperture, k) == pytest.approx(want, rel=1e-13)


def test_cap_eigenvalue_flat_limit():
    # as the cap shrinks, lam R^2 tends to the clamped-disk value j_{l+1,1}^2;
    # the curvature correction is O(R^2), 1.6e-10 relative for l = 2 here
    radius = 1e-4
    for l in range(3):
        scaled = cs.cap_eigenvalue(2, l, radius, 1) * radius**2
        assert scaled == pytest.approx(cs.bessel_zero(l + 1, 1) ** 2, rel=1e-9)


def test_cap_eigenvalue_input_validation():
    for args in ((1, 0, 1.0, 1), (2, -1, 1.0, 1), (2, 0, 3.2, 1), (2, 0, 0.0, 1), (2, 0, 1.0, 0)):
        with pytest.raises(ValueError):
            cs.cap_eigenvalue(*args)


@pytest.mark.parametrize("dim,l,aperture", [(2, 0, 1.0), (3, 2, 1.5), (5, 1, 2.0)])
def test_banded_solver_matches_cap_oracle_at_m512(dim, l, aperture):
    cap = cs.make_cap("spherical", dim, aperture)
    pairs = cs.solve_sector(cap, l, m=512, count=2)
    for k, pair in enumerate(pairs, start=1):
        assert pair.value == pytest.approx(cs.cap_eigenvalue(dim, l, aperture, k), rel=1e-10)


@pytest.mark.parametrize("aperture", [0.5, 1.5, 2.8])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_merged_cap_spectrum_matches_oracle(dim, aperture):
    # The m=128 discretization error stays below 1e-8 up to R = 1.5; at
    # R = 2.8 it reaches 1.3e-6 (n = 5, l = 1) and falls 16x per halving of h.
    rel = 1e-8 if aperture < 2.0 else 2e-6
    cap = cs.make_cap("spherical", dim, aperture)
    spectrum, sectors = cs.solve_spectrum(cap, m=128, count=6)
    oracle = functools.lru_cache(maxsize=None)(lambda l, k: cs.cap_eigenvalue(dim, l, aperture, k))
    # each entry is the next value of its sector ...
    taken = dict.fromkeys(sectors, 0)
    for e in spectrum.entries:
        if e.copy_index == 1:
            taken[e.l] += 1
        assert e.value == pytest.approx(oracle(e.l, taken[e.l]), rel=rel)
    # ... and no sector up to the cut holds a value below the head's last
    # that it left out
    tau = spectrum.entries[-1].value
    for l, k in taken.items():
        assert oracle(l, k + 1) >= tau * (1.0 - rel)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    geometry=st.sampled_from(["spherical", "flat"]),
    dim=st.integers(2, 5),
    aperture=st.floats(0.2, 3.0),
    m=st.sampled_from([16, 24, 32]),
    count=st.integers(1, 10),
)
# near ties found by a scan over apertures: sector 2's lowest value sits
# 0.08% below the tau of sectors 0 and 1; sector 3's sits 0.15% above tau
@example(geometry="spherical", dim=5, aperture=2.9, m=16, count=7)
@example(geometry="spherical", dim=2, aperture=2.1, m=16, count=8)
def test_solve_spectrum_skip_is_exact(geometry, dim, aperture, m, count):
    # the walk against a solve of every sector up to its cut, each solved
    # sector with the number of pairs the walk kept and each skipped one
    # with count: the same head, bit for bit, and the cut's tail bound
    # above the shift
    domain = cs.make_cap(geometry, dim, aperture)
    spectrum, sectors = cs.solve_spectrum(domain, m=m, count=count)
    cut = max(sectors)
    assert sorted(sectors) == list(range(cut + 1))
    every = {l: cs.solve_sector(domain, l, m=m, count=len(sectors[l]) or count) for l in range(cut + 1)}
    assert spectrum.entries == cs.assemble_spectrum(every, count=count).entries
    tau = spectrum.entries[-1].value
    assert eigensolve._sector_lower_bound(domain, cut) > tau + _linalg._BRACKET_SLACK * tau
    # solved sectors are solve_sector's; a skipped one has nothing below tau
    mesh = cs.build_mesh(domain, m)
    for l, pairs in sectors.items():
        if pairs:
            assert [p.value for p in pairs] == [p.value for p in every[l]]
            continue
        pencil = cs.assemble_sector_forms(domain, l, mesh)
        lowest = sla.eigh(pencil.A, pencil.B, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert lowest >= tau


@pytest.mark.parametrize(
    "geometry,dim,aperture,m,count",
    [("spherical", 3, 1.0, 48, 4), ("flat", 2, 1.0, 32, 10), ("spherical", 5, 2.5, 24, 8),
     ("flat", 4, 0.7, 16, 12)],
)
def test_pairs_below_drops_only_pairs_at_or_above_the_shift(monkeypatch, geometry, dim, aperture, m, count):
    # once the head is full a sector keeps only its pairs below the shift;
    # the dense eigenvalues it leaves out of its first count all lie at or
    # above that shift, and the ones it keeps below
    calls = []
    real = eigensolve._pairs_below

    def spy(domain, l, mesh, quad_order, count, shift):
        pairs = real(domain, l, mesh, quad_order, count, shift)
        calls.append((l, mesh, count, shift, len(pairs)))
        return pairs

    monkeypatch.setattr(eigensolve, "_pairs_below", spy)
    domain = cs.make_cap(geometry, dim, aperture)
    cs.solve_spectrum(domain, m=m, count=count)
    dropped = 0
    for l, mesh, wanted, shift, kept in calls:
        if shift is None:
            assert kept == wanted
            continue
        pencil = cs.assemble_sector_forms(domain, l, mesh)
        ref = sla.eigh(pencil.A, pencil.B, eigvals_only=True, subset_by_index=[0, wanted - 1])
        assert np.all(ref[:kept] < shift) and np.all(ref[kept:] >= shift)
        dropped += wanted - kept
    assert dropped > 0


def test_count_budget_of_a_sector_solve():
    # the cap_sweep pencil (N = 127) with count = 6: 77 one-shift counts
    # when isolated brackets were bisected, 55 with regula-falsi steps on
    # the determinant and the first pass at 0 and scale
    pencil = _sector_pencil("spherical", 3, 1.5, 1, 64)
    calls = []
    real = _linalg._narrow_count

    def counting(a, b, sigma):
        calls.append(sigma)
        return real(a, b, sigma)

    with mock.patch.object(_linalg, "_narrow_count", counting):
        cs.solve_pencil(pencil.A, pencil.B, count=6)
    assert len(calls) <= 60


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    geometry=st.sampled_from(["spherical", "flat"]),
    dim=st.integers(2, 5),
    aperture=st.floats(0.05, 3.0),
    m=st.integers(4, 32),
    l=st.integers(1, 8),
)
# the smallest ratio of lowest eigenvalue to bound found by a scan, 1.09
@example(geometry="spherical", dim=5, aperture=3.0, m=32, l=8)
def test_sector_lower_bound_stays_below_the_sector_pencil(geometry, dim, aperture, m, l):
    pencil = _sector_pencil(geometry, dim, aperture, l, m)
    lowest = sla.eigh(pencil.A, pencil.B, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert eigensolve._sector_lower_bound(pencil.domain, l) < lowest


def _cap_lambda1(dim, aperture, m):
    spectrum, _ = cs.solve_spectrum(cs.make_cap("spherical", dim, aperture), m=m, count=1)
    return spectrum.entries[0].value


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(2, 5),
    aperture=st.floats(0.05, 3.0 / 1.05),
    wider=st.floats(0.0, 1.0),
    m=st.sampled_from([16, 24, 32]),
)
# the flattest end of the range, the extremes of a scan over n, R and m:
# lam1(3) - 5 = 2.9e-4 and lam1(3) / lam1(3 / 1.05) = 0.9984
@example(dim=5, aperture=3.0 / 1.05, wider=0.0, m=32)
def test_cap_lambda1_exceeds_n_and_falls_with_the_aperture(dim, aperture, wider, m):
    # R' = larger runs from 1.05 R to 3
    larger = 1.05 * aperture + wider * (3.0 - 1.05 * aperture)
    lam1 = _cap_lambda1(dim, aperture, m)
    lam1_larger = _cap_lambda1(dim, larger, m)
    assert lam1 > dim and lam1_larger > dim
    assert lam1_larger < lam1


def test_sector_lower_bound_by_hand():
    cap = cs.make_cap("spherical", 3, 1.0)
    assert eigensolve._sector_lower_bound(cap, 2) == pytest.approx(6.0 / np.sin(1.0) ** 2, rel=1e-15)
    # past a hemisphere, s = 1/sin t is smallest at the equator
    assert eigensolve._sector_lower_bound(cs.make_cap("spherical", 4, 2.5), 1) == 3.0
    assert eigensolve._sector_lower_bound(cs.make_cap("flat", 2, 0.5), 3) == 9 / 0.25
    assert eigensolve._sector_lower_bound(cap, 0) == 0.0


@pytest.mark.parametrize(
    "dims,apertures,m,count,assembled",
    [
        # the spectra of the benchmark's cap sweeps: 106 of 168 sectors
        ((2, 3, 4, 5), (0.5, 1.0, 1.5, 2.0, 2.5, 3.0), 64, 6, 106),
        # the ground states of its identity runs: 20 of 28 sectors
        ((2, 3, 4, 5), (1.0,), 128, 2, 20),
    ],
    ids=["cap_sweep", "identities"],
)
def test_solve_spectrum_assembles_no_sector_past_the_tail_bound(monkeypatch, dims, apertures, m, count,
                                                               assembled):
    built = []
    real = eigensolve.assemble_sector_forms

    def counting(domain, l, mesh, quad_order=6):
        built.append(l)
        return real(domain, l, mesh, quad_order)

    monkeypatch.setattr(eigensolve, "assemble_sector_forms", counting)
    total = 0
    for dim in dims:
        for aperture in apertures:
            built.clear()
            domain = cs.make_cap("spherical", dim, aperture)
            spectrum, sectors = cs.solve_spectrum(domain, m=m, count=count)
            # the walk assembled sectors 0..cut - 1, each once, and no later one
            cut = len(built)
            assert built == list(range(cut))
            assert sorted(sectors) == list(range(cut + 1)) and sectors[cut] == []
            tau = spectrum.entries[-1].value
            assert eigensolve._sector_lower_bound(domain, cut) > tau + _linalg._BRACKET_SLACK * tau
            total += cut
    assert total == assembled


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


def test_solve_sector_rejects_a_mesh_above_the_range_before_any_assembly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pencil was assembled")

    monkeypatch.setattr(eigensolve, "assemble_sector_forms", refuse)
    with pytest.raises(ValueError, match=r"elements must be <= 1024 \(got 2048\)"):
        cs.solve_sector(cs.make_cap("flat", 2, 1.0), 0, m=2048)


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
    with pytest.raises(cs.TruncationError, match="truncated at sector 1"):
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
    spectrum, sectors = cs.solve_spectrum(cap, m=48, count=4)
    # sectors 0 and 1 hold the head; sector 1 keeps the 3 of its values
    # below the fourth of sector 0, the counts skip 2..4 and the tail bound
    # cuts 5
    assert {l: len(pairs) for l, pairs in sectors.items()} == {0: 4, 1: 3, 2: 0, 3: 0, 4: 0, 5: 0}
    values = spectrum.values()
    assert len(values) == 4
    assert list(values) == sorted(values)
    # each degree-one value shows up with multiplicity 2l+1 = 3
    degree_one = [e for e in spectrum.entries if e.l == 1]
    for e in degree_one:
        assert e.multiplicity == 3
