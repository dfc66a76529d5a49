"""Eigenvalue bounds and gap inequalities for the clamped buckling problem.

Closed-form right-hand sides depending only on the lowest eigenvalue live
here next to the check routines that evaluate a whole inequality on a
computed spectrum.  Every check returns a :class:`BoundReport` so callers
can render the lhs, rhs, and slack without re-deriving anything, and
``bound_report`` assembles the family of reports appropriate to the
geometry a spectrum was computed on.

Throughout, ``lam1`` denotes the smallest buckling eigenvalue of the
domain and ``dim`` the dimension n of the ambient space (so the domain
itself is n-dimensional and its boundary has dimension n - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Geometry

__all__ = [
    "BoundReport",
    "ashbaugh_check",
    "bound_report",
    "chen_qian_bound",
    "cheng_yang_check",
    "cor12_bound",
    "hile_yeh_bound",
    "hlc_k1_bound",
    "huang_li_cao_check",
    "ppw_bound",
    "thm11_bound",
    "wang_xia_check",
    "wang_xia_implied_gap",
]

#: Relative wiggle room used when declaring an inequality satisfied, so a
#: bound that holds with equality analytically is not reported as violated
#: because of last-digit rounding in the quadrature or the eigensolve.
_REL_SLACK = 1e-12


def _require_lam1(lam1):
    lam1 = float(lam1)
    if not math.isfinite(lam1) or lam1 <= 0.0:
        raise ValueError(f"lam1 must be a positive finite number (got {lam1})")
    return lam1


def _require_dim(dim):
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2 (got {dim!r})")
    return dim


def ppw_bound(lam1, dim):
    """Payne-Polya-Weinberger ratio bound for Euclidean domains.

    The second buckling eigenvalue of a bounded domain in R^n satisfies
    ``lam2 <= (1 + 4/n) lam1``.  Returns that right-hand side.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    return (1.0 + 4.0 / dim) * lam1


def hile_yeh_bound(lam1, dim):
    """Hile-Yeh improvement of the Euclidean ratio bound.

    Returns ``(n^2 + 8n + 20) / (n + 2)^2 * lam1``, which is smaller than
    the Payne-Polya-Weinberger right-hand side for every n >= 2.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    return (dim * dim + 8.0 * dim + 20.0) / (dim + 2.0) ** 2 * lam1


def chen_qian_bound(lam1, dim, p, q):
    """Two-parameter Euclidean ratio bound of Chen-Qian type.

    For integers p > q >= 1 the second eigenvalue satisfies

        lam2 <= [(n + 2q)^2 + 4p(2p + n - 2) - 4q(2q + n - 2)]
                / (n + 2q)^2 * lam1.

    The choice p = 2, q = 1 reproduces the Hile-Yeh constant exactly.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    for name, value in (("p", p), ("q", q)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer (got {value!r})")
    if q < 1 or p <= q:
        raise ValueError(f"need p > q >= 1 (got p={p}, q={q})")
    base = (dim + 2.0 * q) ** 2
    num = base + 4.0 * p * (2.0 * p + dim - 2.0) - 4.0 * q * (2.0 * q + dim - 2.0)
    return num / base * lam1


def hlc_k1_bound(lam1, dim):
    """Explicit k = 1 gap bound on the spherical cap.

    Specialising the quadratic gap inequality to k = 1 gives

        lam2 <= lam1 + lam1 (lam1 + (n - 2)^2 / 4),

    valid whenever ``lam1 >= n`` (which every proper cap satisfies).
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    if lam1 < dim:
        raise ValueError(f"bound requires lam1 >= dim (got lam1={lam1}, dim={dim})")
    return lam1 + lam1 * (lam1 + 0.25 * (dim - 2.0) ** 2)


def thm11_bound(lam1, dim):
    """Sharpened spherical gap bound obtained from the trial-function sums.

    Returns

        lam1 + (n (n - lam1) / lam1 + 2 (n + 2))
               * (4 lam1 + (n - 2)^2) / (n + 2)^2,

    an upper bound for the second buckling eigenvalue of a clamped
    geodesic cap with ``lam1 >= n``.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    if lam1 < dim:
        raise ValueError(f"bound requires lam1 >= dim (got lam1={lam1}, dim={dim})")
    coeff = dim * (dim - lam1) / lam1 + 2.0 * (dim + 2.0)
    return lam1 + coeff * (4.0 * lam1 + (dim - 2.0) ** 2) / (dim + 2.0) ** 2


def cor12_bound(lam1, dim):
    """Simplified linear form of the sharpened spherical gap bound.

    Returns ``(1 + 8/(n+2)) lam1 + 2 (n-2)^2 / (n+2)``.  Weaker than
    :func:`thm11_bound` but independent of the sign of ``n - lam1``.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    if lam1 < dim:
        raise ValueError(f"bound requires lam1 >= dim (got lam1={lam1}, dim={dim})")
    return (1.0 + 8.0 / (dim + 2.0)) * lam1 + 2.0 * (dim - 2.0) ** 2 / (dim + 2.0)


def _gap_cd(delta, lam1, dim):
    """The pair (c, d) entering the delta-family of spherical gap bounds."""
    c = delta * lam1 + delta * delta * (lam1 - (dim - 2.0)) / (
        4.0 * (delta * lam1 + dim - 2.0)
    )
    d = (lam1 + 0.25 * (dim - 2.0) ** 2) / delta
    return c, d


#: the log-spaced delta grid 10^(k/400), k = -2400..800, that brackets the
#: minimum in ``wang_xia_implied_gap``; built from the Python power, since
#: np.power differs from it in the last bit
_GAP_GRID = np.array([10.0 ** (k / 400.0) for k in range(-2400, 801)])


def _gap_scan(lam1, dim):
    """The gap quotient d / (2 - c) at every point of ``_GAP_GRID``, inf where c >= 2.

    Elementwise the same floating-point operations as the scalar quotient
    in ``wang_xia_implied_gap``, so each entry equals it bit for bit.
    """
    c, d = _gap_cd(_GAP_GRID, lam1, dim)
    with np.errstate(divide="ignore"):
        return np.where(c >= 2.0, math.inf, d / (2.0 - c))


def wang_xia_implied_gap(lam1, dim):
    """Best gap bound implied by the delta-family of quadratic inequalities.

    For each delta > 0 with c(delta) < 2 the k = 1 case yields
    ``lam2 - lam1 <= d(delta) / (2 - c(delta))`` where

        c(delta) = delta lam1 + delta^2 (lam1 - (n-2)) / (4 (delta lam1 + n-2)),
        d(delta) = (lam1 + (n-2)^2 / 4) / delta.

    Returns the minimum of that quotient over the feasible deltas, found by
    a coarse grid scan refined with golden-section search, or ``math.inf``
    when no delta is feasible.  For n = 2 the minimum has the closed form
    ``lam1 (lam1 + 1/4)`` attained at ``delta = 1 / (lam1 + 1/4)``.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)

    def quotient(delta):
        c, d = _gap_cd(delta, lam1, dim)
        if c >= 2.0:
            return math.inf
        return d / (2.0 - c)

    # The feasible set is an interval (0, delta_max); c is increasing in
    # delta, so scan a log-spaced grid to bracket the minimum.
    scan = _gap_scan(lam1, dim)
    best_i = int(np.argmin(scan))
    if scan[best_i] == math.inf:
        return math.inf
    lo = float(_GAP_GRID[max(best_i - 1, 0)])
    hi = float(_GAP_GRID[min(best_i + 1, len(_GAP_GRID) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = quotient(x1), quotient(x2)
    for _ in range(200):
        if b - a <= 1e-14 * b:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = quotient(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = quotient(x2)
    return min(f1, f2)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of evaluating one inequality on a computed spectrum.

    Attributes
    ----------
    bound_id : str
        Stable identifier of the inequality.
    applicability : str
        Geometry the inequality is stated for, "euclidean" or "spherical".
    lhs, rhs : float
        The two sides as evaluated; the inequality asserts lhs <= rhs.
    satisfied : bool
        Whether lhs <= rhs up to a relative slack of 1e-12.
    slack : float
        rhs - lhs.
    k : int or None
        Truncation index for the quadratic-sum inequalities.
    delta : float or None
        Family parameter where one exists.
    p, q : int or None
        Integer parameters of the two-parameter ratio bound.
    skip_reason : str or None
        When set, the inequality was not evaluated (lhs/rhs are nan) and
        this string says why, e.g. too few eigenvalues in the spectrum.
    """

    bound_id: str
    applicability: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    k: int | None = None
    delta: float | None = None
    p: int | None = None
    q: int | None = None
    skip_reason: str | None = None


def _report(bound_id, applicability, lhs, rhs, **extra):
    lhs = float(lhs)
    rhs = float(rhs)
    ok = lhs <= rhs + _REL_SLACK * abs(rhs)
    return BoundReport(
        bound_id=bound_id,
        applicability=applicability,
        lhs=lhs,
        rhs=rhs,
        satisfied=ok,
        slack=rhs - lhs,
        **extra,
    )


def _skip(bound_id, applicability, reason, **extra):
    return BoundReport(
        bound_id=bound_id,
        applicability=applicability,
        lhs=math.nan,
        rhs=math.nan,
        satisfied=False,
        slack=math.nan,
        skip_reason=reason,
        **extra,
    )


def _checked_values(values, need):
    vals = [float(v) for v in values]
    if len(vals) < need:
        raise ValueError(f"need at least {need} eigenvalues (got {len(vals)})")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ValueError("eigenvalues must be sorted ascending")
    return vals


def ashbaugh_check(values, dim):
    """Sum bound: lam_2 + ... + lam_{n+1} <= (n + 4) lam_1 in R^n.

    ``values`` must hold the buckling eigenvalues in ascending order with
    multiplicity, at least n + 1 of them.
    """
    dim = _require_dim(dim)
    vals = _checked_values(values, dim + 1)
    lhs = sum(vals[1 : dim + 1])
    rhs = (dim + 4.0) * vals[0]
    return _report("ashbaugh", "euclidean", lhs, rhs)


def cheng_yang_check(values, k, dim):
    """Quadratic-sum inequality for Euclidean buckling eigenvalues.

    With gaps g_i = lam_{k+1} - lam_i the inequality reads

        sum g_i^2 <= 4 (n + 2) / n^2 * sum g_i lam_i,

    both sums over i = 1..k.  Needs k + 1 eigenvalues.
    """
    dim = _require_dim(dim)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer (got {k!r})")
    vals = _checked_values(values, k + 1)
    top = vals[k]
    gaps = [top - v for v in vals[:k]]
    lhs = sum(g * g for g in gaps)
    rhs = 4.0 * (dim + 2.0) / dim**2 * sum(g * v for g, v in zip(gaps, vals))
    return _report("cheng_yang", "euclidean", lhs, rhs, k=k)


def wang_xia_check(values, k, dim, delta):
    """Delta-family quadratic-sum inequality on the spherical cap.

    With gaps g_i = lam_{k+1} - lam_i, for every delta > 0,

        2 sum g_i^2 <= sum g_i^2 [delta lam_i
                                  + delta^2 (lam_i - (n-2))
                                    / (4 (delta lam_i + n - 2))]
                       + (1/delta) sum g_i [lam_i + (n-2)^2 / 4].

    Needs k + 1 eigenvalues, each larger than n - 2.
    """
    dim = _require_dim(dim)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer (got {k!r})")
    delta = float(delta)
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"delta must be positive (got {delta})")
    vals = _checked_values(values, k + 1)
    if vals[0] <= dim - 2.0:
        raise ValueError("inequality needs every eigenvalue above dim - 2")
    top = vals[k]
    gaps = [top - v for v in vals[:k]]
    lhs = 2.0 * sum(g * g for g in gaps)
    quad = sum(
        g * g * (delta * v + delta * delta * (v - (dim - 2.0)) / (4.0 * (delta * v + dim - 2.0)))
        for g, v in zip(gaps, vals)
    )
    lin = sum(g * (v + 0.25 * (dim - 2.0) ** 2) for g, v in zip(gaps, vals)) / delta
    return _report("wang_xia", "spherical", lhs, quad + lin, k=k, delta=delta)


def huang_li_cao_check(values, k, dim):
    """Cauchy-Schwarz form of the spherical quadratic-sum inequality.

    With gaps g_i = lam_{k+1} - lam_i and r_i = lam_i - (n - 2),

        sum g_i^2 (2 + (n-2)/r_i)
            <= 2 sqrt(sum g_i^2 (lam_i - (n-2)/r_i))
                 * sqrt(sum g_i (lam_i + (n-2)^2/4)),

    all sums over i = 1..k.  Needs k + 1 eigenvalues with lam_i > n - 2.
    """
    dim = _require_dim(dim)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer (got {k!r})")
    vals = _checked_values(values, k + 1)
    if vals[0] <= dim - 2.0:
        raise ValueError("inequality needs every eigenvalue above dim - 2")
    top = vals[k]
    gaps = [top - v for v in vals[:k]]
    lhs = sum(
        g * g * (2.0 + (dim - 2.0) / (v - (dim - 2.0))) for g, v in zip(gaps, vals)
    )
    s1 = sum(
        g * g * (v - (dim - 2.0) / (v - (dim - 2.0))) for g, v in zip(gaps, vals)
    )
    s2 = sum(g * (v + 0.25 * (dim - 2.0) ** 2) for g, v in zip(gaps, vals))
    rhs = 2.0 * math.sqrt(s1) * math.sqrt(s2)
    return _report("huang_li_cao", "spherical", lhs, rhs, k=k)


#: deltas at which the report evaluates the delta-family inequality.
_REPORT_DELTAS = (0.01, 0.1, 1.0)


def bound_report(spectrum):
    """Evaluate every inequality applicable to a computed spectrum.

    Euclidean spectra get the ratio and sum bounds for flat domains; cap
    spectra get the spherical gap inequalities, the delta family at a few
    representative deltas, and a final sharpness row comparing the two
    closed-form k = 1 right-hand sides against each other.  Returns a list
    of :class:`BoundReport`, one per inequality instance, with rows that
    cannot be evaluated on this spectrum marked via ``skip_reason``.
    """
    domain = spectrum.domain
    if domain is None:
        raise ValueError("spectrum carries no domain; bounds need the geometry")
    dim = spectrum.dim
    vals = list(spectrum.values())
    if len(vals) < 2:
        raise ValueError("bound evaluation needs at least two eigenvalues")
    lam1, lam2 = vals[0], vals[1]
    reports = []
    if domain.geometry is Geometry.FLAT:
        reports.append(_report("ppw", "euclidean", lam2, ppw_bound(lam1, dim)))
        reports.append(
            _report("hile_yeh", "euclidean", lam2, hile_yeh_bound(lam1, dim))
        )
        reports.append(
            _report(
                "chen_qian",
                "euclidean",
                lam2,
                chen_qian_bound(lam1, dim, 2, 1),
                p=2,
                q=1,
            )
        )
        if len(vals) >= dim + 1:
            reports.append(ashbaugh_check(vals, dim))
        else:
            reports.append(
                _skip(
                    "ashbaugh",
                    "euclidean",
                    f"needs {dim + 1} eigenvalues, spectrum has {len(vals)}",
                )
            )
        for k in (1, 2, 3):
            if len(vals) >= k + 1:
                reports.append(cheng_yang_check(vals, k, dim))
            else:
                reports.append(
                    _skip(
                        "cheng_yang",
                        "euclidean",
                        f"needs {k + 1} eigenvalues, spectrum has {len(vals)}",
                        k=k,
                    )
                )
        return reports

    # Spherical cap family.  All of these assume lam1 >= dim, which holds
    # for every proper cap; report a skip rather than raising if a caller
    # feeds a spectrum that violates it.
    if lam1 < dim:
        reason = f"cap inequalities assume lam1 >= dim (lam1={lam1:.6g}, dim={dim})"
        for bid in ("wang_xia", "wang_xia_opt", "huang_li_cao", "hlc_k1", "thm_1_1", "cor_1_2"):
            reports.append(_skip(bid, "spherical", reason))
        return reports
    for delta in _REPORT_DELTAS:
        reports.append(wang_xia_check(vals, 1, dim, delta))
    gap = wang_xia_implied_gap(lam1, dim)
    reports.append(_report("wang_xia_opt", "spherical", lam2, lam1 + gap))
    reports.append(huang_li_cao_check(vals, 1, dim))
    reports.append(_report("hlc_k1", "spherical", lam2, hlc_k1_bound(lam1, dim)))
    reports.append(_report("thm_1_1", "spherical", lam2, thm11_bound(lam1, dim)))
    reports.append(_report("cor_1_2", "spherical", lam2, cor12_bound(lam1, dim)))
    # Sharpness row: the simplified linear bound should never beat the k = 1
    # quadratic bound it was derived from.
    reports.append(
        _report(
            "cor12_vs_hlc_k1",
            "spherical",
            cor12_bound(lam1, dim),
            hlc_k1_bound(lam1, dim),
        )
    )
    return reports
