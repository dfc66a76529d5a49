"""Acceptance gate: the eleven shipping criteria, one printed line each.

Every test prints ``criterion NN: PASS/FAIL (detail)`` before asserting so a
full run leaves a scannable scoreboard in the captured output.
"""

import numpy as np

import capspectra as cs
from conftest import APERTURES


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_flat_disk_oracle(disk256):
    j11sq = cs.bessel_zero(1, 1) ** 2
    j21sq = cs.bessel_zero(2, 1) ** 2
    err1 = abs(disk256["lam1"] - j11sq) / j11sq
    err2 = abs(disk256["lam2"] - j21sq) / j21sq
    ok = err1 <= 1e-6 and err2 <= 1e-6 and disk256["elapsed"] < 5.0
    _verdict(1, ok, f"rel errs {err1:.2e}, {err2:.2e}; solve took {disk256['elapsed']:.2f}s")


def test_criterion_02_convergence_order(disk_lam1_by_m):
    ref = cs.bessel_zero(1, 1) ** 2
    errs = [abs(disk_lam1_by_m[m] - ref) for m in (32, 64, 128)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 3.5
    _verdict(2, ok, f"observed orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_03_cap_rigidity_floor(cap_sweep):
    margins = {key: spec.values()[0] - key[0] for key, spec in cap_sweep.items()}
    worst = min(margins, key=margins.get)
    ok = all(m > 0.0 for m in margins.values())
    _verdict(3, ok, f"min margin lambda1 - n = {margins[worst]:.3e} at (n, aperture) = {worst}")


def test_criterion_04_monotone_in_aperture(cap_sweep):
    worst = np.inf
    for n in (2, 3):
        lams = [cap_sweep[(n, ap)].values()[0] for ap in APERTURES]
        worst = min(worst, min(a - b for a, b in zip(lams, lams[1:])))
    ok = worst > 1e-8
    _verdict(4, ok, f"smallest consecutive drop {worst:.6g}")


def test_criterion_05_second_eigenvalue_gap_bounds(cap_sweep):
    min_slack = np.inf
    relaxed_ok = True
    for (n, _), spec in cap_sweep.items():
        lam1, lam2 = spec.values()[0], spec.values()[1]
        for rhs in (cs.thm11_bound(lam1, n), cs.cor12_bound(lam1, n)):
            min_slack = min(min_slack, rhs - lam2)
        relaxed = lam1 + 2 * (n + 2) * (4 * lam1 + (n - 2) ** 2) / (n + 2) ** 2
        relaxed_ok = relaxed_ok and cs.thm11_bound(lam1, n) <= relaxed * (1 + 1e-12)
    ok = min_slack > 0.0 and relaxed_ok
    _verdict(5, ok, f"min slack {min_slack:.3e}; relaxed form dominates: {relaxed_ok}")


def test_criterion_06_series_inequalities(cap_sweep):
    min_slack = np.inf
    for (n, _), spec in cap_sweep.items():
        vals = list(spec.values())
        lam1, lam2 = vals[0], vals[1]
        for k in (1, 2, 3):
            for delta in (0.01, 0.1, 1.0, 10.0):
                r = cs.wang_xia_check(vals, k, n, delta)
                min_slack = min(min_slack, (r.rhs - r.lhs) / abs(r.rhs))
            r = cs.huang_li_cao_check(vals, k, n)
            min_slack = min(min_slack, (r.rhs - r.lhs) / abs(r.rhs))
        gap_rhs = lam1 + cs.wang_xia_implied_gap(lam1, n)
        min_slack = min(min_slack, (gap_rhs - lam2) / gap_rhs)
        min_slack = min(min_slack, (cs.hlc_k1_bound(lam1, n) - lam2) / cs.hlc_k1_bound(lam1, n))
    ok = min_slack >= 0.0
    _verdict(6, ok, f"min relative slack {min_slack:.3e}")


def test_criterion_07_bound_sharpness_ordering(cap_sweep):
    min_gap_quad = np.inf
    min_gap_opt = np.inf
    for (n, _), spec in cap_sweep.items():
        lam1 = spec.values()[0]
        min_gap_quad = min(min_gap_quad, cs.hlc_k1_bound(lam1, n) - cs.cor12_bound(lam1, n))
        if n == 2:
            opt = lam1 + cs.wang_xia_implied_gap(lam1, n)
            min_gap_opt = min(min_gap_opt, opt - cs.cor12_bound(lam1, n))
    ok = min_gap_quad > 0.0 and min_gap_opt > 0.0
    _verdict(7, ok, f"cor_1_2 under hlc_k1 by >= {min_gap_quad:.3e}, under optimized gap by >= {min_gap_opt:.3e}")


def test_criterion_08_identity_suite(identity_suite_by_m):
    fine = {r.identity_id: r for r in identity_suite_by_m[128]}
    coarse = {r.identity_id: r for r in identity_suite_by_m[32]}

    checks = {
        "d_sum": abs(fine["d_sum"].computed + 2.0) <= 2e-3,
        "bracket": fine["bracket_sum"].rel_residual <= 1e-2,
        "sum_2_7": fine["sum_2_7"].rel_residual <= 1e-2,
        "sum_2_13": fine["sum_2_13"].rel_residual <= 1e-2,
        "orth": abs(fine["orth_2_2"].computed) <= 1e-8,
        "l2": fine["l2_lower_2_19"].computed >= 1.0 - 1e-9,
        "rr": fine["rr_2_3"].computed >= fine["rr_2_3"].closed_form * (1.0 - 1e-6),
    }
    # Refinement clause: the quadrature rule shares the solver's elements, so
    # both integral identities are reconstructed exactly and their residuals
    # sit at roundoff on every mesh.  A 4x improvement is then unmeasurable;
    # accept either a real ratio or residuals already at the noise floor.
    noise_floor = 1e-10
    improved = []
    for key in ("sum_2_7", "sum_2_13"):
        at_floor = coarse[key].rel_residual <= noise_floor and fine[key].rel_residual <= noise_floor
        ratio_ok = fine[key].rel_residual <= coarse[key].rel_residual / 4.0
        improved.append(at_floor or ratio_ok)
    checks["refinement"] = all(improved)

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    detail = "all identity checks hold" if ok else f"failing: {failed}"
    _verdict(8, ok, detail + f"; residuals 2_7={fine['sum_2_7'].rel_residual:.1e}, 2_13={fine['sum_2_13'].rel_residual:.1e}")


def test_criterion_09_flat_universal_inequalities(disk_spectrum):
    vals = list(disk_spectrum.values())
    lam1, lam2, lam3 = vals[0], vals[1], vals[2]
    checks = {
        "ppw": lam2 <= 3.0 * lam1,
        "hile_yeh": lam2 <= 2.5 * lam1,
        "ashbaugh": lam2 + lam3 <= 6.0 * lam1,
    }
    for k in range(1, 6):
        checks[f"cheng_yang_k{k}"] = cs.cheng_yang_check(vals, k, 2).satisfied
    agree = abs(cs.chen_qian_bound(lam1, 2, 2, 1) - cs.hile_yeh_bound(lam1, 2))
    checks["chen_qian_reduces"] = agree <= 1e-15 * cs.hile_yeh_bound(lam1, 2)
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(9, ok, "all flat inequalities hold" if ok else f"failing: {failed}")


def test_criterion_10_closed_form_spot_values():
    errs = [
        abs(cs.cor12_bound(2.0, 2) - 6.0),
        abs(cs.thm11_bound(2.0, 2) - 6.0),
        abs(cs.hlc_k1_bound(2.0, 2) - 6.0),
        abs(cs.cor12_bound(3.0, 3) - 8.2),
    ]
    ok = max(errs) <= 1e-12
    _verdict(10, ok, f"max spot-value error {max(errs):.2e}")


def test_criterion_11_cap_convergence_order():
    # Hermite cubics converge at O(h^4) on caps too, measured against the
    # hypergeometric oracle over dimensions, sectors and apertures
    cases = [
        (2, 0, 1.0), (2, 1, 2.8), (3, 2, 1.5), (3, 0, 2.8),
        (4, 0, 1.0), (4, 3, 0.5), (5, 1, 2.0), (5, 6, 2.8),
    ]
    orders = []
    for dim, l, aperture in cases:
        cap = cs.make_cap("spherical", dim, aperture)
        exact = cs.cap_eigenvalue(dim, l, aperture, 1)
        errs = [abs(cs.solve_sector(cap, l, m=m, count=1)[0].value - exact) for m in (32, 64, 128)]
        orders += [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 3.5
    _verdict(11, ok, f"observed orders {min(orders):.2f} to {max(orders):.2f} on {len(cases)} caps, n = 2..5")
