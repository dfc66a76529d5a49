"""Geometry descriptions: validation, multiplicities, areas, quadrature."""

import math

import numpy as np
import pytest

import capspectra as cs


def test_make_cap_accepts_both_geometries():
    cap = cs.make_cap("spherical", 3, 1.2)
    assert cap.geometry is cs.Geometry.SPHERICAL
    assert cap.dim == 3
    assert cap.aperture == 1.2

    disk = cs.make_cap("flat", 2, 1.0)
    assert disk.geometry is cs.Geometry.FLAT


def test_make_cap_accepts_enum_member():
    cap = cs.make_cap(cs.Geometry.SPHERICAL, 2, 0.7)
    assert cap.geometry is cs.Geometry.SPHERICAL


def test_make_cap_validation():
    with pytest.raises(ValueError, match="dim must be >= 2"):
        cs.make_cap("flat", 1, 1.0)
    with pytest.raises(ValueError, match="dim must be an integer"):
        cs.make_cap("flat", 2.5, 1.0)
    # surface_area, which every solve needs, stops at 16
    with pytest.raises(ValueError, match="dim must be <= 16"):
        cs.make_cap("flat", 17, 1.0)
    assert cs.make_cap("spherical", 16, 1.0).dim == 16
    with pytest.raises(ValueError, match="aperture must be positive"):
        cs.make_cap("spherical", 2, 0.0)
    with pytest.raises(ValueError, match="aperture must be positive"):
        cs.make_cap("flat", 2, -1.0)
    with pytest.raises(ValueError, match="geometry must be"):
        cs.make_cap("conical", 2, 1.0)


def test_spherical_aperture_must_stay_below_pi():
    with pytest.raises(ValueError, match="aperture must be < π"):
        cs.make_cap("spherical", 2, 3.2)
    # flat balls have no such ceiling
    assert cs.make_cap("flat", 2, 3.2).aperture == 3.2


def test_domain_is_immutable():
    cap = cs.make_cap("flat", 2, 1.0)
    with pytest.raises(Exception):
        cap.dim = 3


def test_harmonic_multiplicity_small_dims():
    # circle: one constant mode, then cos/sin pairs
    assert [cs.harmonic_multiplicity(2, l) for l in range(5)] == [1, 2, 2, 2, 2]
    # 2-sphere: 2l + 1
    assert [cs.harmonic_multiplicity(3, l) for l in range(6)] == [1, 3, 5, 7, 9, 11]
    # 3-sphere: (l + 1)^2
    assert [cs.harmonic_multiplicity(4, l) for l in range(6)] == [(l + 1) ** 2 for l in range(6)]


def test_harmonic_multiplicity_degree_one_equals_dim():
    for n in range(2, 9):
        assert cs.harmonic_multiplicity(n, 1) == n


def test_harmonic_multiplicity_rejects_negative_degree():
    with pytest.raises(ValueError, match="l must be >= 0"):
        cs.harmonic_multiplicity(2, -1)


def test_surface_area_known_values():
    assert cs.surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert cs.surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert cs.surface_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert cs.surface_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-15)


def test_surface_area_matches_gamma_formula():
    for n in range(2, 17):
        want = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        assert cs.surface_area(n) == pytest.approx(want, rel=1e-13)


def test_sector_index_contents():
    sector = cs.make_sector(3, 2)
    assert sector.l == 2
    assert sector.angular_eigenvalue == 2 * (2 + 3 - 2)
    assert sector.multiplicity == cs.harmonic_multiplicity(3, 2)


def test_radial_weight_profiles():
    sphere = cs.make_cap("spherical", 3, 1.5)
    ball = cs.make_cap("flat", 4, 1.5)
    for t in (0.2, 0.7, 1.3):
        assert cs.radial_weight(sphere, t) == pytest.approx(math.sin(t) ** 2, rel=1e-15)
        assert cs.radial_weight(ball, t) == pytest.approx(t**3, rel=1e-15)


def test_radial_weight_rejects_points_outside_domain():
    cap = cs.make_cap("flat", 2, 1.0)
    with pytest.raises(ValueError, match="t must lie in"):
        cs.radial_weight(cap, 1.5)
    with pytest.raises(ValueError, match="t must lie in"):
        cs.radial_weight(cap, 0.0)


def test_sector_operator_apply_matches_hand_formula():
    # act on f(t) = t^2 so f' = 2t and f'' = 2
    t = 0.8
    for n in (2, 3, 5):
        for l in (0, 1, 3):
            kappa = l * (l + n - 2)
            cap = cs.make_cap("spherical", n, 1.5)
            want = 2.0 + (n - 1) * (math.cos(t) / math.sin(t)) * 2 * t - kappa * t**2 / math.sin(t) ** 2
            got = cs.sector_operator_apply(cap, l, t**2, 2 * t, 2.0, t)
            assert got == pytest.approx(want, rel=1e-14)

            ball = cs.make_cap("flat", n, 1.5)
            want = 2.0 + (n - 1) * (2 * t / t) - kappa * t**2 / t**2
            got = cs.sector_operator_apply(ball, l, t**2, 2 * t, 2.0, t)
            assert got == pytest.approx(want, rel=1e-14)


def test_gauss_rule_polynomial_exactness():
    rng = np.random.default_rng(11)
    for npts in (2, 4, 6):
        a, b = sorted(rng.uniform(-2.0, 3.0, size=2))
        rule = cs.gauss_legendre_rule(npts, a, b)
        assert rule.nodes.shape == rule.weights.shape == (npts,)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(b - a, rel=1e-14)
        for k in range(2 * npts):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            got = float(rule.weights @ rule.nodes**k)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_gauss_rule_nodes_stay_inside_interval():
    rule = cs.gauss_legendre_rule(5, 0.0, 1.0)
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
    assert np.all(np.diff(rule.nodes) > 0)
