"""Proof-quantity reconstruction on caps.

The structural identities here (the divergence sums, the bracket norm, the
coefficient sum) hold for every smooth clamped radial profile, not only for
eigenfunctions: they come from integration by parts alone.  That gives an
independent oracle: interpolate a hand-chosen profile, feed it through the
same code paths, and compare against closed forms evaluated by hand.
"""

import math

import numpy as np
import pytest

import capspectra as cs
from capspectra import fem, prooflab


def _manufactured(n, aperture, m):
    """Clamped cosine bump, gradient-normalized, with its Dirichlet quotient.

    g satisfies g'(0) = 0, g(aperture) = g'(aperture) = 0, so it lies in the
    same constrained space as a computed ground state.
    """
    domain = cs.make_cap("spherical", n, aperture)
    mesh = cs.build_mesh(domain, m)
    g = lambda t: np.cos(np.pi * t / aperture) + 1.0
    gp = lambda t: -np.pi / aperture * np.sin(np.pi * t / aperture)
    raw = prooflab.RadialEigenfunction(domain, mesh, 1.0, fem.interpolate_profile(mesh, g, gp))
    scale = 1.0 / math.sqrt(raw.integrate(raw.g1**2))
    dirichlet = raw.integrate(raw.lap**2) * scale**2
    u = prooflab.RadialEigenfunction(domain, mesh, dirichlet, scale * fem.interpolate_profile(mesh, g, gp))
    return u


CASES = [(2, 1.0), (3, 1.2), (4, 0.8), (5, 1.5)]


@pytest.mark.parametrize("n,aperture", CASES)
def test_coefficient_sum_identity_on_manufactured_profile(n, aperture):
    u = _manufactured(n, aperture, 48)
    computed, closed = cs.d_alpha_sum(u)
    assert closed == pytest.approx(-(n + 2) / 2.0, rel=1e-15)
    assert computed == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("n,aperture", CASES)
def test_bracket_norm_identity_on_manufactured_profile(n, aperture):
    u = _manufactured(n, aperture, 48)
    computed, closed = cs.bracket_norm_sum(u)
    assert closed == pytest.approx(u.lam1 + (n - 2) ** 2 / 4.0, rel=1e-14)
    assert computed == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("n,aperture", CASES)
def test_quadratic_identity_on_manufactured_profile(n, aperture):
    u = _manufactured(n, aperture, 48)
    computed, closed = cs.identity_quadratic_sum(u)
    l2 = u.integrate(u.g0**2)
    assert closed == pytest.approx(-n * u.lam1 * l2, rel=1e-13)
    assert computed == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("n,aperture", CASES)
def test_bilaplacian_identity_on_manufactured_profile(n, aperture):
    u = _manufactured(n, aperture, 48)
    computed, closed = cs.identity_bilaplacian_sum(u)
    l2 = u.integrate(u.g0**2)
    assert closed == pytest.approx(n**2 * l2 + 2.0 * (n + 2), rel=1e-13)
    assert computed == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("n,aperture", CASES)
def test_trial_orthogonality_on_manufactured_profile(n, aperture):
    u = _manufactured(n, aperture, 48)
    tangential = cs.build_trial(u, "tangential")
    polar = cs.build_trial(u, "polar")
    # angular parity makes the tangential pairing vanish identically
    assert cs.orthogonality_residual(u, tangential) == 0.0
    assert abs(cs.orthogonality_residual(u, polar)) <= 1e-10


@pytest.mark.parametrize("n,aperture", CASES)
def test_gradient_routes_agree_on_manufactured_profile(n, aperture):
    u = _manufactured(n, aperture, 48)
    direct = cs.sum_grad_trial_sq(u, via="gradient")
    weak = cs.sum_grad_trial_sq(u, via="laplacian")
    assert direct == pytest.approx(weak, rel=1e-9)
    # lower bound from the coefficient sum and the bracket norm
    d, _ = cs.d_alpha_sum(u)
    bracket, _ = cs.bracket_norm_sum(u)
    assert d * d <= direct * bracket * (1.0 + 1e-10)
    assert direct >= (n + 2) ** 2 / (4.0 * u.lam1 + (n - 2) ** 2) * (1.0 - 1e-9)


def test_polar_coefficient_shift_moves_residual_linearly():
    # the pairing is affine in the shift with slope minus the gradient norm,
    # which is one after normalization
    u = _manufactured(3, 1.0, 48)
    c0 = cs.trial_coefficient(u, "polar")
    base = cs.orthogonality_residual(u, prooflab.TrialFunction("polar", c0))
    shifted = cs.orthogonality_residual(u, prooflab.TrialFunction("polar", c0 + 0.1))
    assert shifted - base == pytest.approx(-0.1, abs=1e-8)


def test_tangential_coefficient_vanishes():
    u = _manufactured(2, 1.0, 32)
    assert cs.trial_coefficient(u, "tangential") == 0.0
    with pytest.raises(ValueError, match="alpha_class must be one of"):
        cs.build_trial(u, "azimuthal")


def test_rayleigh_quotients_are_positive_and_finite():
    u = _manufactured(2, 1.0, 48)
    for cls in ("tangential", "polar"):
        q = cs.rr_quotient(u, cs.build_trial(u, cls))
        assert math.isfinite(q) and q > 0.0


def _tensor_grid(aperture, n_theta=200, n_phi=64):
    rule = cs.gauss_legendre_rule(n_theta, 0.0, aperture)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    wphi = 2.0 * np.pi / n_phi
    return rule.nodes[:, None], rule.weights[:, None] * wphi, phi[None, :]


def test_gradient_sum_against_two_dimensional_quadrature():
    """Independent surface integral of the trial gradients on the 2-sphere.

    The package reduces everything to radial integrals analytically; here the
    same quantities are integrated on a theta x phi tensor grid from the raw
    profile formulas, with no reduction step shared with the library.
    """
    aperture = 1.0
    u = _manufactured(2, aperture, 64)

    theta, wt, phi = _tensor_grid(aperture)
    a = np.pi / aperture
    g = np.cos(a * theta) + 1.0
    gp = -a * np.sin(a * theta)
    gpp = -a * a * np.cos(a * theta)
    s, c = np.sin(theta), np.cos(theta)
    lap = gpp + (c / s) * gp
    nrm = float(np.sum(wt * gp**2 * s) * np.ones_like(phi).mean())
    g, gp, gpp, lap = (arr / math.sqrt(nrm) for arr in (g, gp, gpp, lap))

    shift = float(np.sum(wt * (c * g * (-lap)) * s))
    h = s * g
    hp = c * g + s * gp
    qp = -s * g + (c - shift) * gp

    # tangential pair x = sin(theta) (cos(phi), sin(phi)), polar x = cos(theta)
    grad_sq = (
        (np.cos(phi) ** 2 + np.sin(phi) ** 2) * hp**2
        + (np.sin(phi) ** 2 + np.cos(phi) ** 2) * g**2
        + qp**2
    )
    tensor = float(np.sum(wt * grad_sq.mean(axis=1, keepdims=True) * s))

    package = cs.sum_grad_trial_sq(u, via="gradient")
    assert package == pytest.approx(tensor, rel=5e-6)

    # the shift itself must agree between the two quadratures
    assert cs.trial_coefficient(u, "polar") == pytest.approx(shift, rel=5e-6)


def test_coefficient_sum_against_two_dimensional_quadrature():
    """Tensor-grid evaluation of the divergence pairing in dimension two."""
    aperture = 1.0
    u = _manufactured(2, aperture, 64)

    theta, wt, phi = _tensor_grid(aperture)
    a = np.pi / aperture
    g = np.cos(a * theta) + 1.0
    gp = -a * np.sin(a * theta)
    gpp = -a * a * np.cos(a * theta)
    s, c = np.sin(theta), np.cos(theta)
    lap = gpp + (c / s) * gp
    nrm = float(np.sum(wt * gp**2 * s))
    g, gp, gpp, lap = (arr / math.sqrt(nrm) for arr in (g, gp, gpp, lap))
    shift = float(np.sum(wt * (c * g * (-lap)) * s))

    h, q = s * g, (c - shift) * g
    hp = c * g + s * gp
    qp = -s * g + (c - shift) * gp
    p = c * gp        # radial factor of <grad x_tangential, grad u>
    pp = c * gpp - s * gp
    pt = -s * gp      # same for the polar direction
    ptp = -s * gpp - c * gp

    cosph, sinph = np.cos(phi), np.sin(phi)
    integrand = (
        (cosph**2 + sinph**2) * (hp * pp)
        + (sinph**2 + cosph**2) * (h * p) / s**2
        + qp * ptp
    )
    tensor = float(np.sum(wt * integrand.mean(axis=1, keepdims=True) * s))

    computed, closed = cs.d_alpha_sum(u)
    assert closed == -2.0
    assert computed == pytest.approx(tensor, abs=5e-6)
    assert tensor == pytest.approx(-2.0, abs=1e-5)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_polar_shift_second_derivative_probe(dim):
    # along unit-speed geodesics through the pole, the polar coordinate obeys
    # f'' = -f; the finite-difference probe of that fact must sit at roundoff
    assert cs.polar_shift_tensor_check(dim) <= 1e-10
    assert cs.polar_shift_tensor_check(dim, num_geodesics=3, seed=5) <= 1e-10


def test_ground_state_normalization_and_ordering():
    domain = cs.make_cap("spherical", 2, 1.0)
    u1, lam2 = prooflab.ground_state(domain, m=32, l_max=3)
    assert u1.integrate(u1.g1**2) == pytest.approx(1.0, rel=1e-12)
    assert u1.lam1 < lam2
    spectrum, _ = cs.solve_spectrum(domain, m=32, l_max=3, count=2)
    assert u1.lam1 == pytest.approx(spectrum.values()[0], rel=1e-13)
    assert lam2 == pytest.approx(spectrum.values()[1], rel=1e-13)


@pytest.mark.parametrize("n,aperture", [(2, 1.0), (3, 1.5), (4, 2.5), (5, 0.7)])
def test_ground_state_samples_are_the_solver_samples(n, aperture):
    # the identities integrate the solver's own samples of g' and the
    # Laplacian, so the Dirichlet quotient of u_1 is its reported eigenvalue
    u1, _ = prooflab.ground_state(cs.make_cap("spherical", n, aperture), m=128)
    quotient = u1.integrate(u1.lap**2) / u1.integrate(u1.g1**2)
    assert abs(quotient - u1.lam1) <= 1e-15 * u1.lam1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("aperture", [0.3, 1.0, 2.0, 3.0])
def test_ground_state_matches_a_solve_of_every_sector(n, aperture):
    # solve_spectrum solves the sectors it keeps exactly as solve_sector
    # does, so u1, lam1 and lam2 are the bits of a solve of sectors 0..6
    domain = cs.make_cap("spherical", n, aperture)
    sectors = {l: cs.solve_sector(domain, l, m=32, count=2) for l in range(7)}
    spectrum = cs.assemble_spectrum(sectors, dim=n)
    pair = sectors[0][0]
    u1, lam2 = prooflab.ground_state(domain, m=32)
    assert np.array_equal(u1.coeffs, fem.expand_coefficients(pair.mesh, pair.coeffs, pair.dof_map))
    assert u1.lam1 == pair.value == spectrum.entries[0].value
    assert lam2 == spectrum.entries[1].value


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ground_state_solves_only_the_sectors_that_reach_lambda2(monkeypatch, n):
    # sector 0 gives lam1 and its second value; sector 1 (multiplicity n)
    # lies below that, and every higher sector is certified above it.
    # A pencil solve of sector l is seeded with 2718 + l.
    solved = []
    real = cs.eigensolve.solve_pencil

    def counting(A, B, count, seed):
        solved.append(seed - 2718)
        return real(A, B, count=count, seed=seed)

    monkeypatch.setattr(cs.eigensolve, "solve_pencil", counting)
    cs.run_identity_suite(cs.make_cap("spherical", n, 1.0), m=32)
    assert solved == [0, 1]


def test_ground_state_radial_check_outlives_the_truncation_check(monkeypatch):
    """lam1 outside sector 0, with that sector solved at l_max, raises ValueError.

    No cap puts lam1 outside sector 0, so sector 0's quotients are lifted
    by hand.  The truncation check of the merged head looks at sector
    l_max, which here holds lam1 itself: its copies (multiplicity n >= 2)
    fill the head, the check passes, and the radial check raises the same
    ValueError as before.  Only an l_max too small to certify lam2 raises
    TruncationError.
    """
    real = cs.eigensolve.rayleigh_quotient

    def lifted(pencil, x):
        return real(pencil, x) + (1000.0 if pencil.sector.l == 0 else 0.0)

    monkeypatch.setattr(cs.eigensolve, "rayleigh_quotient", lifted)
    domain = cs.make_cap("spherical", 2, 1.0)
    with pytest.raises(ValueError, match="lies in harmonic sector 1"):
        prooflab.ground_state(domain, m=32, l_max=1)
    with pytest.raises(cs.TruncationError, match="raise l_max"):
        prooflab.ground_state(domain, m=32, l_max=0)


def test_ground_state_rejects_flat_domains():
    with pytest.raises(ValueError, match="requires a spherical cap"):
        prooflab.ground_state(cs.make_cap("flat", 2, 1.0), m=32)


def test_radial_eigenfunction_guards():
    flat = cs.make_cap("flat", 2, 1.0)
    mesh = cs.build_mesh(flat, 8)
    with pytest.raises(ValueError, match="spherical caps"):
        prooflab.RadialEigenfunction(flat, mesh, 1.0, np.zeros(18))
    cap = cs.make_cap("spherical", 2, 1.0)
    mesh = cs.build_mesh(cap, 8)
    with pytest.raises(ValueError, match="quad_order must be >= 4"):
        prooflab.RadialEigenfunction(cap, mesh, 1.0, np.zeros(18), quad_order=3)


def test_identity_suite_guards():
    with pytest.raises(ValueError, match="identities require spherical geometry"):
        cs.run_identity_suite(cs.make_cap("flat", 2, 1.0))
    with pytest.raises(ValueError, match="dimensions 2..5"):
        cs.run_identity_suite(cs.make_cap("spherical", 6, 1.0))
    with pytest.raises(ValueError, match="needs m >= 16"):
        cs.run_identity_suite(cs.make_cap("spherical", 2, 1.0), m=8)


def test_identity_suite_layout(identity_suite_by_m):
    reports = identity_suite_by_m[32]
    ids = [r.identity_id for r in reports]
    assert ids == sorted(ids)
    assert ids == [
        "bracket_sum",
        "cauchy_2_15",
        "d_sum",
        "grad_sum_lb_2_16",
        "l2_lower_2_19",
        "lambda1_lb_2_18",
        "orth_2_2",
        "rr_2_3",
        "sum_2_13",
        "sum_2_7",
    ]
    two_sided = {"bracket_sum", "d_sum", "orth_2_2", "sum_2_13", "sum_2_7"}
    for r in reports:
        assert r.passed, r
        # one-sided rows keep the inequality gap in rel_residual for context;
        # only the two-sided rows treat it as an error capped by tolerance
        if r.identity_id in two_sided:
            assert r.rel_residual <= r.tolerance


def test_identity_suite_residuals_sit_at_quadrature_noise(identity_suite_by_m):
    # the integral identities are reconstructed exactly by the element-aligned
    # rule, so their residuals live at roundoff on every mesh and refinement
    # cannot improve them
    noise_ids = {"d_sum", "orth_2_2", "sum_2_13", "sum_2_7"}
    for m in (32, 128):
        for r in identity_suite_by_m[m]:
            if r.identity_id in noise_ids:
                assert r.rel_residual <= 1e-10, (m, r)


def test_identity_suite_dimension_three():
    reports = cs.run_identity_suite(cs.make_cap("spherical", 3, 1.2), m=24)
    assert all(r.passed for r in reports)
