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


def _require_cap_args(lam1, dim):
    """Checked ``(lam1, dim)`` of a closed-form cap bound, which needs lam1 >= dim."""
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    if lam1 < dim:
        raise ValueError(f"bound requires lam1 >= dim (got lam1={lam1}, dim={dim})")
    return lam1, dim


def _require_k(k):
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer (got {k!r})")
    return k


def _require_above_dim_minus_two(lam1, dim):
    """The premise lam1 > n - 2 of the spherical quadratic-sum family."""
    if lam1 <= dim - 2.0:
        raise ValueError("inequality needs every eigenvalue above dim - 2")


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
    lam1, dim = _require_cap_args(lam1, dim)
    return lam1 + lam1 * (lam1 + 0.25 * (dim - 2.0) ** 2)


def thm11_bound(lam1, dim):
    """Sharpened spherical gap bound obtained from the trial-function sums.

    Returns

        lam1 + (n (n - lam1) / lam1 + 2 (n + 2))
               * (4 lam1 + (n - 2)^2) / (n + 2)^2,

    an upper bound for the second buckling eigenvalue of a clamped
    geodesic cap with ``lam1 >= n``.
    """
    lam1, dim = _require_cap_args(lam1, dim)
    coeff = dim * (dim - lam1) / lam1 + 2.0 * (dim + 2.0)
    return lam1 + coeff * (4.0 * lam1 + (dim - 2.0) ** 2) / (dim + 2.0) ** 2


def cor12_bound(lam1, dim):
    """Simplified linear form of the sharpened spherical gap bound.

    Returns ``(1 + 8/(n+2)) lam1 + 2 (n-2)^2 / (n+2)``.  Weaker than
    :func:`thm11_bound` but independent of the sign of ``n - lam1``.
    """
    lam1, dim = _require_cap_args(lam1, dim)
    return (1.0 + 8.0 / (dim + 2.0)) * lam1 + 2.0 * (dim - 2.0) ** 2 / (dim + 2.0)


def _gap_cd(delta, lam1, dim):
    """The pair (c, d) entering the delta-family of spherical gap bounds."""
    c = delta * lam1 + delta * delta * (lam1 - (dim - 2.0)) / (
        4.0 * (delta * lam1 + (dim - 2.0))
    )
    d = (lam1 + 0.25 * (dim - 2.0) ** 2) / delta
    return c, d


def wang_xia_implied_gap(lam1, dim):
    """Best gap bound implied by the delta-family of quadratic inequalities.

    For each delta > 0 with c(delta) < 2 the k = 1 case yields
    ``lam2 - lam1 <= d(delta) / (2 - c(delta))`` where

        c(delta) = delta lam1 + delta^2 (lam1 - (n-2)) / (4 (delta lam1 + n-2)),
        d(delta) = (lam1 + (n-2)^2 / 4) / delta.

    Returns the minimum of that quotient over the feasible deltas.  The
    family needs ``lam1 > n - 2``; a ValueError says so otherwise.

    With b = n - 2 and a = lam1 - b the quotient is (lam1 + b^2/4) / g
    for g(delta) = delta (2 - c(delta)), so it is smallest where g is
    largest.  In u = lam1 delta and r = u / (u + b) the slope is

        g'(delta) = 2 - 2u - a delta r (3 - r) / (4 lam1),

    which falls strictly, is 2 at delta = 0 and negative at u = 1 since
    a > 0.  So g' has one root delta* in (0, 1/lam1), found here by
    bisection in u on (0, 1] down to adjacent floats.  Since g(0) = 0 and g
    rises up to delta*, g(delta*) > 0: the optimum is always feasible and
    the result finite.  For n = 2 the root is ``delta* = 1 / (lam1 + 1/4)``
    and the minimum ``lam1 (lam1 + 1/4)``.
    """
    lam1 = _require_lam1(lam1)
    dim = _require_dim(dim)
    _require_above_dim_minus_two(lam1, dim)
    b = dim - 2.0
    a = lam1 - b

    def slope(u):
        # lam1 g'(u / lam1): the sign of g', free of overflow for tiny lam1
        r = u / (u + b)
        return 2.0 * lam1 * (1.0 - u) - a / lam1 * u * r * (3.0 - r) / 4.0

    lo, hi = 0.0, 1.0
    mid = 0.5
    while lo < mid < hi:
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    c, d = _gap_cd(mid / lam1, lam1, dim)
    return d / (2.0 - c)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of evaluating one inequality on a computed spectrum.

    Every report holds the evaluated sides; an inequality the spectrum
    carries too little data for gets no report at all.

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
    """

    bound_id: str
    applicability: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    k: int | None = None
    delta: float | None = None


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


def _checked_values(values, need):
    vals = [float(v) for v in values]
    if len(vals) < need:
        raise ValueError(f"need at least {need} eigenvalues (got {len(vals)})")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ValueError("eigenvalues must be sorted ascending")
    return vals


def _values_and_gaps(values, k):
    """The checked eigenvalues and the gaps lam_{k+1} - lam_i, i = 1..k."""
    vals = _checked_values(values, k + 1)
    return vals, [vals[k] - v for v in vals[:k]]


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
    k = _require_k(k)
    vals, gaps = _values_and_gaps(values, k)
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
    k = _require_k(k)
    delta = float(delta)
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"delta must be positive (got {delta})")
    vals, gaps = _values_and_gaps(values, k)
    _require_above_dim_minus_two(vals[0], dim)
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
    k = _require_k(k)
    vals, gaps = _values_and_gaps(values, k)
    _require_above_dim_minus_two(vals[0], dim)
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
    """Evaluate every inequality the spectrum carries enough data for.

    Flat spectra get the ratio bounds ppw, hile_yeh and chen_qian, the sum
    bound ashbaugh when the spectrum holds n + 1 values, and cheng_yang for
    each k in (1, 2, 3) it holds k + 1 values for.  Cap spectra with
    lam1 >= n get the delta family wang_xia at a few representative deltas,
    its optimum wang_xia_opt, huang_li_cao, hlc_k1, thm_1_1, cor_1_2 and a
    final sharpness row cor12_vs_hlc_k1 comparing the two closed-form k = 1
    right-hand sides.  The cap family assumes lam1 >= n, which holds for
    every proper cap, so a cap spectrum with lam1 < n gets no rows.
    Returns one :class:`BoundReport` per inequality instance evaluated.
    """
    domain = spectrum.domain
    if domain is None:
        raise ValueError("spectrum carries no domain; bounds need the geometry")
    dim = spectrum.dim
    vals = list(spectrum.values())
    if len(vals) < 2:
        raise ValueError("bound evaluation needs at least two eigenvalues")
    lam1, lam2 = vals[0], vals[1]
    if domain.geometry is Geometry.FLAT:
        reports = [
            _report("ppw", "euclidean", lam2, ppw_bound(lam1, dim)),
            _report("hile_yeh", "euclidean", lam2, hile_yeh_bound(lam1, dim)),
            _report("chen_qian", "euclidean", lam2, chen_qian_bound(lam1, dim, 2, 1)),
        ]
        if len(vals) > dim:
            reports.append(ashbaugh_check(vals, dim))
        reports.extend(cheng_yang_check(vals, k, dim) for k in (1, 2, 3) if len(vals) > k)
        return reports
    if lam1 < dim:
        return []
    reports = [wang_xia_check(vals, 1, dim, delta) for delta in _REPORT_DELTAS]
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
