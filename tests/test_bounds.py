"""Closed-form bound functions, gap optimization, and report composition."""

import math

import numpy as np
import pytest

import capspectra as cs


def test_simple_ratio_bounds():
    assert cs.ppw_bound(10.0, 2) == pytest.approx(30.0, rel=1e-14)
    assert cs.ppw_bound(9.0, 3) == pytest.approx(21.0, rel=1e-14)
    assert cs.hile_yeh_bound(10.0, 2) == pytest.approx(25.0, rel=1e-14)
    # (n^2 + 8n + 20) / (n + 2)^2 at n = 3 is 53/25
    assert cs.hile_yeh_bound(10.0, 3) == pytest.approx(21.2, rel=1e-14)


def test_spot_values_dimension_two_at_lowest_cap_value():
    # at lam1 = dim = 2 all three second-eigenvalue bounds collapse to 6
    assert cs.cor12_bound(2.0, 2) == pytest.approx(6.0, abs=1e-12)
    assert cs.thm11_bound(2.0, 2) == pytest.approx(6.0, abs=1e-12)
    assert cs.hlc_k1_bound(2.0, 2) == pytest.approx(6.0, abs=1e-12)


def test_spot_values_other_points():
    assert cs.cor12_bound(3.0, 3) == pytest.approx(8.2, abs=1e-12)
    assert cs.thm11_bound(20.0, 2) == pytest.approx(51.0, rel=1e-13)
    assert cs.hlc_k1_bound(20.0, 2) == pytest.approx(420.0, rel=1e-13)
    assert cs.cor12_bound(20.0, 2) == pytest.approx(60.0, rel=1e-13)


def test_chen_qian_general_indices():
    # n = 3, p = 2, q = 1: ratio (25 + 40 - 12) / 25
    assert cs.chen_qian_bound(10.0, 3, 2, 1) == pytest.approx(21.2, rel=1e-13)
    # n = 3, p = 3, q = 1: ratio (25 + 84 - 12) / 25
    assert cs.chen_qian_bound(10.0, 3, 3, 1) == pytest.approx(38.8, rel=1e-13)
    # p = 2, q = 1 reduces to the quadratic two-eigenvalue ratio exactly
    rng = np.random.default_rng(41)
    for _ in range(50):
        lam1 = float(rng.uniform(1.0, 500.0))
        n = int(rng.integers(2, 9))
        assert cs.chen_qian_bound(lam1, n, 2, 1) == pytest.approx(
            cs.hile_yeh_bound(lam1, n), rel=1e-15
        )


def test_chen_qian_index_validation():
    with pytest.raises(ValueError, match="p > q >= 1"):
        cs.chen_qian_bound(10.0, 2, 1, 1)
    with pytest.raises(ValueError, match="p > q >= 1"):
        cs.chen_qian_bound(10.0, 2, 2, 0)
    with pytest.raises(ValueError, match="must be an integer"):
        cs.chen_qian_bound(10.0, 2, 2.5, 1)


def test_bound_argument_validation():
    with pytest.raises(ValueError, match="lam1 must be a positive"):
        cs.ppw_bound(-1.0, 2)
    with pytest.raises(ValueError, match="lam1 must be a positive"):
        cs.ppw_bound(math.nan, 2)
    with pytest.raises(ValueError, match="dim must be an integer >= 2"):
        cs.ppw_bound(10.0, 1)
    for fn in (cs.hlc_k1_bound, cs.thm11_bound, cs.cor12_bound):
        with pytest.raises(ValueError, match="lam1 >= dim"):
            fn(1.5, 2)


def test_cap_bound_formulas_by_hand():
    # hand-expanded forms at lam1 = 10, dim = 2
    lam1, n = 10.0, 2
    assert cs.hlc_k1_bound(lam1, n) == pytest.approx(lam1 + lam1 * (lam1 + 0.0), rel=1e-14)
    gap_factor = (n * (n - lam1) / lam1 + 2 * (n + 2)) * (4 * lam1 + (n - 2) ** 2) / (n + 2) ** 2
    assert cs.thm11_bound(lam1, n) == pytest.approx(lam1 + gap_factor, rel=1e-14)
    assert cs.cor12_bound(lam1, n) == pytest.approx(
        (1 + 8 / (n + 2)) * lam1 + 2 * (n - 2) ** 2 / (n + 2), rel=1e-14
    )


def test_implied_gap_closed_form_in_dimension_two():
    # at n = 2 the optimization has the closed-form answer lam1 (lam1 + 1/4)
    for lam1 in (2.0, 3.7, 10.0, 55.0, 1e3, 1e6, 1e9):
        want = lam1 * (lam1 + 0.25)
        assert cs.wang_xia_implied_gap(lam1, 2) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_implied_gap_matches_brute_force_grid(dim):
    for lam1 in (float(dim), 12.5, 1e3, 1e6, 1e9):
        got = cs.wang_xia_implied_gap(lam1, dim)
        # the minimizer lies in (0, 1/lam1), so the grid scales with 1/lam1
        deltas = np.logspace(-3, 0, 200_000) / lam1
        c = deltas * lam1 + deltas**2 * (lam1 - (dim - 2)) / (4.0 * (deltas * lam1 + (dim - 2)))
        d = (lam1 + (dim - 2) ** 2 / 4.0) / deltas
        feasible = c < 2.0
        brute = np.min(d[feasible] / (2.0 - c[feasible]))
        assert got <= brute * (1 + 1e-9)
        assert got == pytest.approx(brute, rel=1e-5)


def test_implied_gap_needs_lam1_above_dim_minus_two():
    for lam1, dim in ((1.0, 3), (0.5, 3), (3.0, 5)):
        with pytest.raises(ValueError, match="above dim - 2"):
            cs.wang_xia_implied_gap(lam1, dim)


def test_implied_gap_shrinks_toward_small_lam1():
    # the optimized gap grows with lam1, so the bound stays ordered
    gaps = [cs.wang_xia_implied_gap(lam1, 3) for lam1 in (3.0, 5.0, 9.0, 20.0)]
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_bounds_are_monotone_in_lam1():
    rng = np.random.default_rng(101)
    for n in (2, 3, 5):
        lams = np.sort(rng.uniform(n, 40.0 * n, size=12))
        for fn in (cs.ppw_bound, cs.hile_yeh_bound, cs.hlc_k1_bound, cs.thm11_bound, cs.cor12_bound):
            vals = [fn(float(lam), n) for lam in lams]
            assert all(a < b for a, b in zip(vals, vals[1:])), fn.__name__


def test_thm11_never_exceeds_its_relaxed_form():
    # dropping the negative lam1-dependent term can only enlarge the bound
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lam1 = float(rng.uniform(n, 80.0 * n))
        relaxed = lam1 + 2 * (n + 2) * (4 * lam1 + (n - 2) ** 2) / (n + 2) ** 2
        assert cs.thm11_bound(lam1, n) <= relaxed + 1e-12 * relaxed
    # and they touch exactly where lam1 = n
    for n in (2, 3, 4):
        relaxed = n + 2 * (n + 2) * (4 * n + (n - 2) ** 2) / (n + 2) ** 2
        assert cs.thm11_bound(float(n), n) == pytest.approx(relaxed, rel=1e-13)


def test_cor12_stays_below_hlc_k1_above_threshold():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lam1 = float(rng.uniform(n + 0.05, 100.0 * n))
        assert cs.cor12_bound(lam1, n) < cs.hlc_k1_bound(lam1, n)
    # the two touch at the flat limit lam1 = n in dimension two only
    assert cs.cor12_bound(2.0, 2) == pytest.approx(cs.hlc_k1_bound(2.0, 2), abs=1e-12)


def test_ashbaugh_check_by_hand():
    report = cs.ashbaugh_check([10.0, 12.0, 13.0], 2)
    assert report.bound_id == "ashbaugh"
    assert report.lhs == pytest.approx(25.0)
    assert report.rhs == pytest.approx(60.0)
    assert report.satisfied and report.slack == pytest.approx(35.0)


def test_cheng_yang_check_by_hand():
    # gaps to the third value are 10 and 8
    report = cs.cheng_yang_check([10.0, 12.0, 20.0], 2, 2)
    assert report.bound_id == "cheng_yang" and report.k == 2
    assert report.lhs == pytest.approx(10.0**2 + 8.0**2)
    assert report.rhs == pytest.approx(4.0 * (2 + 2) / 4.0 * (10.0 * 10.0 + 8.0 * 12.0))
    assert report.satisfied


def test_wang_xia_check_by_hand():
    report = cs.wang_xia_check([10.0, 12.0], 1, 2, 1.0)
    assert report.bound_id == "wang_xia"
    assert report.k == 1 and report.delta == 1.0
    assert report.lhs == pytest.approx(8.0, rel=1e-14)
    assert report.rhs == pytest.approx(61.0, rel=1e-14)
    assert report.satisfied


def test_huang_li_cao_check_by_hand():
    report = cs.huang_li_cao_check([10.0, 20.0], 1, 2)
    assert report.bound_id == "huang_li_cao" and report.k == 1
    assert report.lhs == pytest.approx(200.0, rel=1e-13)
    assert report.rhs == pytest.approx(2.0 * math.sqrt(1000.0) * 10.0, rel=1e-13)
    assert report.satisfied


def test_sequence_checks_validate_input():
    with pytest.raises(ValueError, match="sorted ascending"):
        cs.ashbaugh_check([3.0, 2.0, 4.0], 2)
    with pytest.raises(ValueError, match="need at least 3 eigenvalues"):
        cs.ashbaugh_check([1.0, 2.0], 2)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        cs.cheng_yang_check([1.0, 2.0], 0, 2)
    with pytest.raises(ValueError, match="delta must be positive"):
        cs.wang_xia_check([3.0, 4.0], 1, 2, 0.0)
    with pytest.raises(ValueError, match="above dim - 2"):
        cs.wang_xia_check([0.5, 2.0], 1, 3, 1.0)
    with pytest.raises(ValueError, match="above dim - 2"):
        cs.huang_li_cao_check([0.5, 2.0], 1, 3)


def test_report_slack_sign_convention():
    rng = np.random.default_rng(59)
    for _ in range(30):
        vals = np.sort(rng.uniform(5.0, 50.0, size=3))
        report = cs.ashbaugh_check(list(vals), 2)
        assert report.slack == pytest.approx(report.rhs - report.lhs, rel=1e-14)
        assert report.satisfied == (report.lhs <= report.rhs + 1e-12 * abs(report.rhs))


def test_bound_report_flat_composition(disk_spectrum):
    reports = cs.bound_report(disk_spectrum)
    ids = [r.bound_id for r in reports]
    assert ids == ["ppw", "hile_yeh", "chen_qian", "ashbaugh", "cheng_yang", "cheng_yang", "cheng_yang"]
    assert all(r.applicability == "euclidean" for r in reports)
    assert all(r.satisfied for r in reports)
    assert [r.k for r in reports[-3:]] == [1, 2, 3]


def test_bound_report_spherical_composition(cap_sweep):
    reports = cs.bound_report(cap_sweep[(2, 1.0)])
    ids = [r.bound_id for r in reports]
    assert ids == [
        "wang_xia",
        "wang_xia",
        "wang_xia",
        "wang_xia_opt",
        "huang_li_cao",
        "hlc_k1",
        "thm_1_1",
        "cor_1_2",
        "cor12_vs_hlc_k1",
    ]
    assert [r.delta for r in reports[:3]] == [0.01, 0.1, 1.0]
    assert all(r.applicability == "spherical" for r in reports)
    assert all(r.satisfied for r in reports)


def test_bound_report_omits_unavailable_rows():
    disk = cs.make_cap("flat", 2, 1.0)
    spectrum, _ = cs.solve_spectrum(disk, m=24, count=2)
    reports = cs.bound_report(spectrum)
    # two eigenvalues feed the ratio bounds and k = 1 but starve the deeper ones
    assert [(r.bound_id, r.k) for r in reports] == [
        ("ppw", None),
        ("hile_yeh", None),
        ("chen_qian", None),
        ("cheng_yang", 1),
    ]
    assert all(math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in reports)


def _flat_spectrum(dim, count):
    """A hand-built flat spectrum of ``count`` simple values 10, 11, ..."""
    entries = tuple(
        cs.SpectrumEntry(value=10.0 + i, l=0, multiplicity=1, copy_index=1) for i in range(count)
    )
    return cs.Spectrum(entries=entries, dim=dim, domain=cs.make_cap("flat", dim, 1.0))


@pytest.mark.parametrize("dim", [2, 3])
def test_bound_report_has_ashbaugh_only_with_dim_plus_one_values(dim):
    without = [r.bound_id for r in cs.bound_report(_flat_spectrum(dim, dim))]
    with_row = [r.bound_id for r in cs.bound_report(_flat_spectrum(dim, dim + 1))]
    assert "ashbaugh" not in without
    assert with_row.count("ashbaugh") == 1
    assert without.count("cheng_yang") == min(dim - 1, 3)
    assert with_row.count("cheng_yang") == min(dim, 3)


def test_bound_report_requires_domain_and_depth():
    bare = cs.assemble_spectrum({0: [1.0, 2.0]}, dim=2)
    with pytest.raises(ValueError, match="carries no domain"):
        cs.bound_report(bare)
    disk = cs.make_cap("flat", 2, 1.0)
    pairs = {0: cs.solve_sector(disk, 0, m=24, count=1)}
    single = cs.assemble_spectrum(pairs, count=1)
    with pytest.raises(ValueError, match="at least two eigenvalues"):
        cs.bound_report(single)


def test_bound_report_skips_cap_rows_below_flat_threshold():
    # a synthetic cap spectrum with lam1 below dim gets none of the cap rows
    cap = cs.make_cap("spherical", 3, 1.0)
    entries = (
        cs.SpectrumEntry(value=1.5, l=0, multiplicity=1, copy_index=1),
        cs.SpectrumEntry(value=2.5, l=1, multiplicity=3, copy_index=1),
    )
    spectrum = cs.Spectrum(entries=entries, dim=3, domain=cap)
    assert cs.bound_report(spectrum) == []
