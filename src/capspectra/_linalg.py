"""Symmetric-definite pencil eigensolvers built from first principles.

Solves the generalized problem A x = lam B x with A and B symmetric
positive definite.  Everything here is deliberately self-contained (no
LAPACK wrappers) so the numerical path is fully inspectable.

``solve_pencil`` works on the bands of a pencil of half-bandwidth 3 and
size n >= 4, as every Hermite-cubic sector pencil is, held in LAPACK's
upper band storage (``pencil_bands``), and never forms a dense factor:

    LDL^T of A - sigma B, one shift at a time -> inertia counts
    (Sylvester's law) and log |det(A - sigma B)| -> brackets of the lowest
    eigenvalues, by bisection until each holds one eigenvalue and then by
    regula-falsi steps on the determinant
    -> the same LDL^T at the bracket midpoints -> seeded inverse iteration
    for the eigenvectors -> Rayleigh quotients, gated by their residual and
    their count brackets.

There is one factorization, unpivoted LDL^T, run one shift at a time in
kernels unrolled on Python floats: the count (``_narrow_count``), which
factors B, places the first shifts and splits each open bracket, and
also makes the sector skip count in ``eigensolve``; and the same
recurrence keeping its factors at the bracket midpoints (``_narrow_ldl``)
for the inverse-iteration solves (``_ldl_solve``).  Without row swaps the
factors scale exactly with a diagonal scaling of the pencil.  The counts
certify the index of every returned eigenvalue.

The dense chain

    B = L L^T  ->  C = L^{-1} A L^{-T}  ->  tridiagonal T = Q^T C Q
    -> implicit-shift QL for eigenvalues -> inverse iteration for
    eigenvectors -> back-transform

stays as an O(N^3) reference: the tests compare its stages against scipy,
and ``perfbench`` times them, but ``solve_pencil`` does not call it.
"""

from __future__ import annotations

import bisect
import math
import struct

import numpy as np

__all__ = [
    "CholeskyError",
    "ConvergenceError",
    "cholesky_lower",
    "solve_lower_triangular",
    "solve_upper_triangular",
    "reduce_to_standard",
    "householder_tridiagonalize",
    "apply_reflectors",
    "tridiagonal_eigenvalues",
    "tridiagonal_eigenvector",
    "pencil_bands",
    "inertia_counts",
    "solve_pencil",
]

_EPS = float(np.finfo(float).eps)
#: requested relative residual of every returned eigenpair (see solve_pencil)
_RESIDUAL_TOL = 1e-8
#: QL sweeps allowed per eigenvalue before the iteration counts as stalled
_QL_MAX_SWEEPS = 50
#: inverse-iteration solves per eigenvector (dense reference chain)
_INVERSE_PASSES = 4
#: relative slack by which a returned eigenvalue may sit outside its count
#: bracket.  The Rayleigh quotient is summed in extended precision, but the
#: counts run in double on the pencil rounded to double, and on the finest
#: sector meshes they misplace an eigenvalue: on the disk at N = 2047 the
#: count was not monotone within 2e-7 relative of it.  ``eigensolve``
#: widens the head's shift by the same slack.
_BRACKET_SLACK = 1e-6
#: largest inverse-iteration contraction accepted at a bracket midpoint
_CONTRACTION = 1e-3
#: relative width below which a bracket holding several eigenvalues is
#: accepted as one cluster
_CLUSTER_RTOL = 1e-10
#: count passes allowed before the bracket search counts as stalled
_MAX_COUNT_PASSES = 60
#: banded inverse-iteration solves per eigenvector
_BANDED_PASSES = 4
#: iterative-refinement steps of the last inverse-iteration solve
_REFINEMENTS = 2
#: factor by which each widening pass moves the upper count shift up
_WIDEN = 16.0
#: log 2, the Illinois rule's halving of |det| on the log scale
_LOG2 = math.log(2.0)


class CholeskyError(Exception):
    """Raised when a matrix that must be positive definite is not."""


class ConvergenceError(Exception):
    """Raised when an iterative stage fails to converge."""


def cholesky_lower(B: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        s = B[j, j] - L[j, :j] @ L[j, :j]
        if not (s > 0.0) or not math.isfinite(s):
            raise CholeskyError(f"matrix is not positive definite (pivot {j}: {s})")
        L[j, j] = math.sqrt(s)
        if j + 1 < n:
            L[j + 1 :, j] = (B[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_lower_triangular(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution L x = rhs; rhs may be a vector or a matrix."""
    X = np.array(rhs, dtype=float, copy=True)
    for i in range(L.shape[0]):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def solve_upper_triangular(U: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back substitution U x = rhs; rhs may be a vector or a matrix."""
    X = np.array(rhs, dtype=float, copy=True)
    n = U.shape[0]
    for i in range(n - 1, -1, -1):
        X[i] = (X[i] - U[i, i + 1 :] @ X[i + 1 :]) / U[i, i]
    return X


def reduce_to_standard(A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """C = L^{-1} A L^{-T}, symmetrized against roundoff."""
    Y = solve_lower_triangular(L, np.asarray(A, dtype=float))
    C = solve_lower_triangular(L, Y.T).T
    return 0.5 * (C + C.T)


def householder_tridiagonalize(C: np.ndarray):
    """Reduce symmetric C to tridiagonal form.

    Returns (d, e, reflectors): diagonal, subdiagonal, and the unit
    Householder vectors (row k supported on indices k+1..n-1) such that
    C = H_0 ... H_{n-3} T H_{n-3} ... H_0 with H_k = I - 2 v_k v_k^T.
    """
    A = np.array(C, dtype=float, copy=True)
    n = A.shape[0]
    reflectors = np.zeros((max(n - 2, 0), n))
    for k in range(n - 2):
        x = A[k + 1 :, k]
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, x[0] if x[0] != 0.0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        vnorm = math.sqrt(float(v @ v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        sub = A[k + 1 :, k + 1 :]
        w = sub @ v
        vw = float(v @ w)
        sub -= 2.0 * np.outer(v, w) + 2.0 * np.outer(w, v) - 4.0 * vw * np.outer(v, v)
        A[k + 1, k] = alpha
        A[k, k + 1] = alpha
        A[k + 2 :, k] = 0.0
        A[k, k + 2 :] = 0.0
        reflectors[k, k + 1 :] = v
    d = np.diag(A).copy()
    e = np.diag(A, -1).copy()
    return d, e, reflectors


def apply_reflectors(reflectors: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Map a tridiagonal-space vector back to the original basis."""
    y = np.array(z, dtype=float, copy=True)
    for k in range(reflectors.shape[0] - 1, -1, -1):
        v = reflectors[k]
        y -= 2.0 * float(v @ y) * v
    return y


def tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    Implicit-shift QL with the usual small-subdiagonal deflation test.
    The sweeps run on Python lists: the same double arithmetic as on numpy
    scalars, three to four times faster per element.
    """
    d = np.asarray(d, dtype=float).tolist()
    n = len(d)
    if n == 1:
        return np.array(d)
    e = np.asarray(e, dtype=float).tolist() + [0.0]
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _QL_MAX_SWEEPS:
                raise ConvergenceError(f"QL iteration stalled on eigenvalue {l}")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.sort(np.array(d))


def _solve_shifted_tridiagonal(d, e, shift, rhs):
    """Solve (T - shift I) x = rhs by LU with partial pivoting.

    Pivoting introduces a second superdiagonal; zero pivots are nudged so
    inverse iteration with a converged eigenvalue stays usable.
    """
    n = d.size
    diag = d - shift
    sup1 = np.zeros(n)
    sup1[: n - 1] = e
    sup2 = np.zeros(n)
    sub = np.zeros(n)
    sub[1:] = e
    x = np.array(rhs, dtype=float, copy=True)
    tiny = _EPS * max(float(np.max(np.abs(d))) + float(np.max(np.abs(e), initial=0.0)), 1.0)
    for i in range(n - 1):
        if abs(sub[i + 1]) > abs(diag[i]):
            diag[i], sub[i + 1] = sub[i + 1], diag[i]
            sup1[i], diag[i + 1] = diag[i + 1], sup1[i]
            sup2[i], sup1[i + 1] = sup1[i + 1], sup2[i]
            x[i], x[i + 1] = x[i + 1], x[i]
        if diag[i] == 0.0:
            diag[i] = tiny
        factor = sub[i + 1] / diag[i]
        diag[i + 1] -= factor * sup1[i]
        sup1[i + 1] -= factor * sup2[i]
        x[i + 1] -= factor * x[i]
    if diag[n - 1] == 0.0:
        diag[n - 1] = tiny
    sol = np.zeros(n)
    sol[n - 1] = x[n - 1] / diag[n - 1]
    if n >= 2:
        sol[n - 2] = (x[n - 2] - sup1[n - 2] * sol[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        sol[i] = (x[i] - sup1[i] * sol[i + 1] - sup2[i] * sol[i + 2]) / diag[i]
    return sol


def tridiagonal_eigenvector(d, e, lam, rng, orthogonal_to=()):
    """Unit eigenvector of the tridiagonal (d, e) for eigenvalue lam.

    Seeded inverse iteration; ``orthogonal_to`` lists unit vectors of an
    eigenvalue cluster already computed, projected out every pass.
    """
    n = d.size
    z = rng.standard_normal(n)
    for _ in range(_INVERSE_PASSES):
        for q in orthogonal_to:
            z -= float(q @ z) * q
        z = _solve_shifted_tridiagonal(d, e, lam, z)
        norm = math.sqrt(float(z @ z))
        if norm == 0.0 or not math.isfinite(norm):
            z = rng.standard_normal(n)
            continue
        z /= norm
    for q in orthogonal_to:
        z -= float(q @ z) * q
    norm = math.sqrt(float(z @ z))
    if norm == 0.0:
        raise ConvergenceError("inverse iteration collapsed inside a cluster")
    return z / norm


# ---------------------------------------------------------------------------
# Banded pencil solver
# ---------------------------------------------------------------------------


def pencil_bands(A, B):
    """Bands of the symmetric pencil (A, B) in LAPACK upper band storage.

    Returns (a, b), each of shape (4, n), with a[3 - k, j] = A[j - k, j]:
    column j holds A[j - 3 .. j, j], the diagonal is row 3 and row 3 - k
    holds the k-th superdiagonal from column k on, zeros before it
    (Anderson et al., LAPACK Users' Guide, 5.3.3; the form
    ``scipy.linalg.eigvals_banded`` reads).  Every Hermite-cubic sector
    pencil has half-bandwidth 3 and n >= 4; a nonzero of A or B past the
    third off-diagonal, or n < 4, raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if n < 4:
        raise ValueError(f"pencil needs size >= 4 (got {n})")
    nonzero = (A != 0.0) | (B != 0.0)
    if np.count_nonzero(nonzero) != sum(np.count_nonzero(np.diagonal(nonzero, k)) for k in range(-3, 4)):
        raise ValueError("pencil needs half-bandwidth <= 3 (a nonzero lies past the third off-diagonal)")
    a = np.zeros((4, n))
    b = np.zeros((4, n))
    for k in range(4):
        a[3 - k, k:] = np.diagonal(A, k)
        b[3 - k, k:] = np.diagonal(B, k)
    return a, b


def _band_matvec(bands, X):
    """Product of the symmetric band matrix with the columns of X (n x s)."""
    Y = bands[3][:, None] * X
    for k in range(1, 4):
        n_k = X.shape[0] - k
        Y[:n_k] += bands[3 - k, k:, None] * X[k:]
        Y[k:] += bands[3 - k, k:, None] * X[:n_k]
    return Y


def inertia_counts(a, b, shifts):
    """Number of pencil eigenvalues below each shift (Sylvester's law).

    ``a`` and ``b`` are the (4, n) bands from ``pencil_bands``.  The count
    at sigma is the number of negative pivots in the LDL^T factorization
    of A - sigma B, made one shift at a time by ``_narrow_count``.  An
    exactly zero pivot counts as negative, so an eigenvalue equal to sigma
    counts as below it.  A non-finite pivot (the factorization overflowed)
    raises ConvergenceError.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    return np.array([_narrow_count(a, b, sigma)[0] for sigma in shifts.tolist()], dtype=np.intp)


# ---------------------------------------------------------------------------
# One-shift kernels on the bands of ``pencil_bands``
#
# A numpy row step costs about the same for one shift as for a hundred, so
# every factorization runs one shift at a time on Python floats, with the
# window of the row loop unrolled into local variables.  Python raises
# ZeroDivisionError where numpy yields inf or nan: the count never divides
# by a zero pivot (it takes -pivmin in its place), and the factorization
# for inverse iteration stops at one (``_narrow_ldl`` raises
# ConvergenceError).  Neither pivots: the count needs the LDL^T pivots, and
# the solves take the same factors.
# ---------------------------------------------------------------------------


def _narrow_count(a, b, sigma):
    """``inertia_counts`` at one shift, on Python floats.

    Returns (count, logdet): the number of negative pivots and
    log |det(A - sigma B)|, the sum of log |d_i| over the pivots, whose
    sign is (-1)**count.

    One pass of LDL^T over the rows.  The window w holds the trailing 4 x 4
    Schur complement; each step takes its leading pivot, updates the rest
    and shifts in the next column of the band storage, which is the new
    column of the window.  Only row 0 of the window is read as a pivot
    row, so only the upper triangle w_rc (r <= c) is kept.

    An exactly zero pivot counts as negative and the pass goes on with
    -pivmin in its place, pivmin = eps (max |a| + |sigma| max |b|), the
    rounding size of the shifted pencil's entries.  The rule is modelled on
    LAPACK's bisection (``dlaebz``) but is not the same: ``dlaebz`` replaces
    every pivot smaller than pivmin in magnitude, with pivmin taken from
    the underflow threshold.  Swapping a zero pivot i for -pivmin counts the
    pencil A - sigma B - pivmin e_i e_i^T, so the count is that of a
    perturbation of size pivmin, the backward-stable count of a nearby
    pencil; Demmel, Dhillon and Ren (ETNA 3, 1995) prove the tridiagonal
    case, not these half-bandwidth 3 bands.
    """
    # column j is [A_{j-3,j}, .., A_{j,j}] of A - sigma B; step i shifts in
    # column i + 4, and past n that column is the identity padding
    columns = (a - sigma * b).T.tolist() + [[0.0, 0.0, 0.0, 1.0]] * 4
    (_, _, _, w00), (_, _, w01, w11), (_, w02, w12, w22), (w03, w13, w23, w33) = columns[:4]
    negative = 0
    pivots = []
    keep = pivots.append
    for c0, c1, c2, c3 in columns[4:]:
        if w00 <= 0.0:
            negative += 1
            if w00 == 0.0:
                # 1 where A - sigma B is the zero matrix: every pivot is
                # then zero, and any stand-in gives the count n
                w00 = -(_EPS * (float(np.max(np.abs(a))) + abs(sigma) * float(np.max(np.abs(b)))) or 1.0)
        keep(w00)
        r1 = w01 / w00
        r2 = w02 / w00
        r3 = w03 / w00
        w00, w01, w02, w03, w11, w12, w13, w22, w23, w33 = (
            w11 - r1 * w01, w12 - r1 * w02, w13 - r1 * w03, c0,
            w22 - r2 * w02, w23 - r2 * w03, c1,
            w33 - r3 * w03, c2,
            c3,
        )
    # no pivot is zero, so every finite pivot has a finite log; numpy takes
    # the logs of an inf or nan pivot without a warning
    logdet = float(np.log(np.abs(pivots)).sum())
    if not math.isfinite(logdet):
        # a nan or inf pivot
        raise ConvergenceError("LDL^T inertia count broke down on a singular leading block")
    return negative, logdet


def _narrow_ldl(a, b, sigma):
    """LDL^T of A - sigma B at one shift, on Python floats.

    The recurrence of ``_narrow_count``, without pivoting, keeping per row i
    the pivot d_i and the multipliers l_{i+1,i}, l_{i+2,i}, l_{i+3,i}.
    Returns (pivots, [l1, l2, l3]), four sequences of length n; the
    multipliers of the last rows into the padding are zero.  An exactly zero
    pivot or a non-finite factor raises ConvergenceError, since solves with
    such factors could only return inf or nan.  A non-finite multiplier
    reaches a later pivot, so the sum of the pivots tells (a finite sum that
    overflowed lands there too).
    """
    columns = (a - sigma * b).T.tolist() + [[0.0, 0.0, 0.0, 1.0]] * 4
    (_, _, _, w00), (_, _, w01, w11), (_, w02, w12, w22), (w03, w13, w23, w33) = columns[:4]
    rows = []
    keep = rows.append
    try:
        for c0, c1, c2, c3 in columns[4:]:
            r1 = w01 / w00
            r2 = w02 / w00
            r3 = w03 / w00
            keep((w00, r1, r2, r3))
            w00, w01, w02, w03, w11, w12, w13, w22, w23, w33 = (
                w11 - r1 * w01, w12 - r1 * w02, w13 - r1 * w03, c0,
                w22 - r2 * w02, w23 - r2 * w03, c1,
                w33 - r3 * w03, c2,
                c3,
            )
    except ZeroDivisionError:
        pass
    else:
        pivots, *multipliers = zip(*rows)
        if math.isfinite(sum(pivots)):
            return pivots, multipliers
    raise ConvergenceError("inverse iteration broke down on a singular shifted pencil")


def _ldl_solve(factors, X):
    """Solve (A - sigma_k B) y_k = X[:, k] on the ``_narrow_ldl`` factors of each shift k.

    The forward pass with the unit lower L keeps rows i .. i + 2 of the
    partial solution in a window and divides each finished row by its
    pivot; the back pass with L^T runs from the last row, keeping the three
    rows below.  Returns Y in C order.
    """
    n, s = X.shape
    Y = np.empty((n, s))
    for k, (pivots, (l1s, l2s, l3s)) in enumerate(factors):
        x = X[:, k].tolist()
        y0, y1, y2 = x[0], x[1], x[2]
        forward = []
        for d, l1, l2, l3, y3 in zip(pivots, l1s, l2s, l3s, x[3:] + [0.0] * 3):
            forward.append(y0 / d)
            y0, y1, y2 = y1 - l1 * y0, y2 - l2 * y0, y3 - l3 * y0
        z1 = z2 = z3 = 0.0
        back = []
        for w, l1, l2, l3 in zip(reversed(forward), reversed(l1s), reversed(l2s), reversed(l3s)):
            z1, z2, z3 = w - l1 * z1 - l2 * z2 - l3 * z3, z1, z2
            back.append(z1)
        back.reverse()
        Y[:, k] = back
    return Y


class _Counts:
    """Every shift evaluated so far with its inertia count and log |det|, sorted by shift.

    Three parallel lists; an insert checks that the counts stay monotone.
    """

    def __init__(self):
        self.shifts = []
        self.counts = []
        self.logdets = []

    def add(self, shifts, found):
        """Insert each shift with its ``_narrow_count`` result (count, logdet)."""
        for sigma, (count, logdet) in zip(shifts, found):
            # after any equal shift, as a stable sort would place it
            j = bisect.bisect_right(self.shifts, sigma)
            if (j > 0 and self.counts[j - 1] > count) or (j < len(self.counts) and count > self.counts[j]):
                raise ConvergenceError("inertia counts are not monotone in the shift")
            self.shifts.insert(j, sigma)
            self.counts.insert(j, count)
            self.logdets.insert(j, logdet)

    def bracket(self, i):
        """Position j of the tightest bracket shifts[j] < lam_i <= shifts[j + 1]."""
        return bisect.bisect_right(self.counts, i) - 1

    def contraction(self, j):
        """Bound on the inverse-iteration contraction at the midpoint of bracket j.

        It is the bracket's half-width over the distance from its midpoint
        to the nearest eigenvalue outside it, which the counts place below
        the first shift counting c_lo and above the last shift counting c_hi.
        """
        lo, hi = self.shifts[j], self.shifts[j + 1]
        c_lo, c_hi = self.counts[j], self.counts[j + 1]
        mid = 0.5 * (lo + hi)
        below = self.shifts[bisect.bisect_left(self.counts, c_lo)] if c_lo > 0 else -math.inf
        above = self.shifts[bisect.bisect_right(self.counts, c_hi) - 1]
        gap = min(mid - below, above - mid)
        # 0 where the midpoint of two adjacent doubles rounds onto an end
        return 0.5 * (hi - lo) / gap if gap > 0.0 else math.inf


def _bit_midpoint(lo, hi):
    """The double halfway from lo to hi in the ordering of doubles, 0 <= lo <= hi.

    A nonnegative double's bit pattern, read as an integer, is its position
    in that ordering.  The mean of two positions is near the geometric mean
    of two doubles many binades apart, and splitting at it exhausts any
    bracket within 64 splits.
    """
    k_lo, k_hi = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return struct.unpack("<d", struct.pack("<q", (k_lo + k_hi) // 2))[0]


def _regula_falsi(counts, j, step):
    """Regula-falsi split of the isolated bracket j, with the Illinois rule.

    f(sigma) = det(A - sigma B) changes sign once in the bracket; the
    split is where the chord through (lo, f(lo)) and (hi, f(hi)) crosses 0,
    lo + t (hi - lo) with t = |f(lo)| / (|f(lo)| + |f(hi)|), taken from the
    log |det| of both ends, so det itself never over- or underflows.
    ``step`` is the bracket's last split, (shift, kept, halvings) or None:
    an end kept by two splits in a row has its |f| halved once more
    (Dowell and Jarratt, BIT 11, 1971), so neither end stays put.  Returns
    the split and its step record, or (None, None) where the split is not
    strictly inside the bracket.
    """
    lo, hi = counts.shifts[j], counts.shifts[j + 1]
    log_lo, log_hi = counts.logdets[j], counts.logdets[j + 1]
    kept, halvings = None, 0
    if step is not None and step[0] in (lo, hi):
        kept = hi if step[0] == lo else lo
        if kept == step[1]:
            halvings = step[2] + 1
            if kept == lo:
                log_lo -= halvings * _LOG2
            else:
                log_hi -= halvings * _LOG2
    # t = 1 / (1 + |f(hi)| / |f(lo)|), with exp taken of -|d| so it cannot overflow
    d = log_hi - log_lo
    e = math.exp(-abs(d))
    t = e / (1.0 + e) if d > 0.0 else 1.0 / (1.0 + e)
    sigma = lo + t * (hi - lo)
    if lo < sigma < hi:
        return sigma, (sigma, kept, halvings)
    return None, None


def _brackets(a, b, count):
    """Certified brackets of the lowest ``count`` eigenvalues, from inertia counts.

    A and B must be positive definite, as every sector pencil is (A is a
    Gram matrix), so every eigenvalue is positive and every count is made
    at a shift sigma >= 0.  The count of B itself, at sigma = 0 with B in
    place of A, checks B; the count at 0 checks A (CholeskyError unless
    every pivot is positive).  The first pass counts at 0 and scale, the
    diagonal scale of A over B; each widening pass moves the upper shift
    up by the factor ``_WIDEN``, until the shifts hold the lowest
    ``count`` eigenvalues.  Splitting passes then split every bracket whose
    midpoint would make a poor inverse-iteration shift: until it holds one
    eigenvalue and its contraction bound is below ``_CONTRACTION``, or, for
    an unresolved cluster, its width is below ``_CLUSTER_RTOL``.  Returns
    (counts, positions): the evaluated shifts and, for each index
    i < count, the position of its bracket.

    Every shift is counted on its own, and every count also gives
    log |det(A - sigma B)|.  A splitting pass counts one shift per open
    bracket.  A bracket that holds one eigenvalue, with positive ends
    within a factor 2 of each other, is split at its regula-falsi point on
    det (``_regula_falsi``), which converges superlinearly: this is the
    determinant search of Peters and Wilkinson (Comput. J. 12, 1969) and
    Bathe and Wilson (1976), with every step still a count, so the bracket
    stays certified.  Any other bracket, and one whose regula-falsi point
    is not strictly inside, is split at its ``_bit_midpoint``, which is
    geometric across binades; a bracket with no double strictly inside
    stays as it is.  Across binades, as in the walk up from 0, the
    eigenvalue's size is unknown and det far from linear, so its chord
    would split such a bracket near one end for many passes.
    """
    if _narrow_count(b, np.zeros_like(b), 0.0)[0] != 0:
        raise CholeskyError("B is not positive definite")
    # B passed its count, so its diagonal is positive
    scale = float(np.max(np.abs(a[3]))) / float(np.max(np.abs(b[3])))
    counts = _Counts()
    steps = {}  # eigenvalue index -> the last regula-falsi step of its bracket
    new = [0.0, scale]
    for _ in range(_MAX_COUNT_PASSES):
        counts.add(new, [_narrow_count(a, b, sigma) for sigma in new])
        # shifts[0] is 0, so a count there means an eigenvalue at or below 0
        if counts.counts[0] > 0:
            raise CholeskyError("A is not positive definite")
        if counts.counts[-1] < count:
            new = [_WIDEN * counts.shifts[-1]]
        else:
            new = []
            for j in sorted({counts.bracket(i) for i in range(count)}):
                lo, hi = counts.shifts[j], counts.shifts[j + 1]
                isolated = counts.counts[j + 1] - counts.counts[j] == 1
                narrow = hi - lo <= _CLUSTER_RTOL * hi
                if counts.contraction(j) <= _CONTRACTION and (isolated or narrow):
                    continue
                mid = None
                if isolated and 0.0 < lo and hi <= 2.0 * lo:
                    i = counts.counts[j]
                    mid, steps[i] = _regula_falsi(counts, j, steps.get(i))
                if mid is None:
                    mid = _bit_midpoint(lo, hi)
                if lo < mid < hi:
                    new.append(mid)
            if not new:
                # every bracket is settled or as narrow as doubles allow
                return counts, [counts.bracket(i) for i in range(count)]
    raise ConvergenceError(f"bracket search did not settle within {_MAX_COUNT_PASSES} count passes")


def _b_orthogonalize(b, Z, members):
    """Gram-Schmidt in the B inner product over the columns ``members`` of Z."""
    for pos, i in enumerate(members):
        for prev in members[:pos]:
            bz = _band_matvec(b, Z[:, prev : prev + 1])[:, 0]
            Z[:, i] -= float(Z[:, i] @ bz) / float(Z[:, prev] @ bz) * Z[:, prev]


def solve_pencil(A, B, count, seed=201):
    """The ``count`` lowest eigenpairs of A x = lam B x, from the bands of A and B.

    Returns (values, vectors): the ``count`` smallest eigenvalues ascending
    and an (n, count) array of B-orthonormal eigenvectors.  The solve never
    forms a dense factor.  Inertia counts of LDL^T factorizations of
    A - sigma B bracket each wanted eigenvalue and certify its index
    (``_brackets``); seeded inverse iteration with the same unpivoted
    LDL^T of A - sigma B at each bracket midpoint gives the vectors,
    B-orthogonalised within any bracket that holds more than one eigenvalue;
    the last solve is refined twice against a residual summed in extended
    precision.  The pencil must have half-bandwidth <= 3 and size n >= 4,
    as every Hermite-cubic sector pencil does; another raises ValueError
    before any factorization.

    Each value is the Rayleigh quotient of its vector, summed in extended
    precision as its residual is, and rounded once.  It must lie in its
    bracket widened by ``_BRACKET_SLACK`` relative, and pass the residual
    test ||A x - lam B x|| <= tol ||A x||, where tol is ``_RESIDUAL_TOL``
    widened, if necessary, to the rounding floor of the residual
    evaluation itself, eps * || (|A| + lam |B|) |x| || / ||A x||.  A failed
    test raises ConvergenceError.  A and B must both be positive definite,
    as every sector pencil is; either one that is not raises CholeskyError.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("A and B must be square and the same size")
    if not 1 <= count <= n:
        raise ValueError(f"count must lie in [1, {n}] (got {count})")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("A and B must be finite")
    a, b = pencil_bands(A, B)
    counts, positions = _brackets(a, b, count)
    lo = np.array([counts.shifts[j] for j in positions])
    hi = np.array([counts.shifts[j + 1] for j in positions])
    shifts = 0.5 * (lo + hi)
    factors = [_narrow_ldl(a, b, sigma) for sigma in shifts.tolist()]
    clusters = [[i for i in range(count) if positions[i] == j] for j in sorted(set(positions))]
    clusters = [members for members in clusters if len(members) > 1]
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, count))
    BZ = _band_matvec(b, Z)
    # the bands and Z convert exactly to np.longdouble (a 64-bit
    # significand on x86; plain double where np.longdouble is double)
    a_ext, b_ext = a.astype(np.longdouble), b.astype(np.longdouble)
    # Each right-hand side is scaled by a power of two, exactly, so that its
    # largest entry over the smallest pivot stays below 2**1000: a split
    # within 1e-308 of an eigenvalue of size 1e-300 leaves a subnormal
    # pivot, and the solve would overflow.  The scale is 1 unless the ratio
    # would pass that, and the normalized vector keeps its bits either way.
    pivot_exponents = np.array([np.frexp(min(map(abs, pivots)))[1] for pivots, _ in factors])
    for step in range(_BANDED_PASSES):
        rhs_exponents = np.frexp(np.max(np.abs(BZ), axis=0))[1]
        BZ = np.ldexp(BZ, np.minimum(1000 + pivot_exponents - rhs_exponents, 0))
        Z = _ldl_solve(factors, BZ)
        if step == _BANDED_PASSES - 1:
            # The solve leaves rounding noise across the other modes.  On
            # the finest meshes (N = 4095) the unrefined vector misses the
            # residual gate by 100x, and with one working-precision step
            # its Rayleigh quotient still moves by up to 3e-7 with the
            # shift and the seed.  Iterative refinement against a residual
            # summed in extended precision (Moler, JACM 14, 1967) contracts
            # the noise by about eps kappa(A - sigma B) per step, which is
            # not small there, so two steps are taken.  The extended sum is
            # rounded once.
            for _ in range(_REFINEMENTS):
                Z_ext = Z.astype(np.longdouble)
                residual = BZ - _band_matvec(a_ext, Z_ext) + shifts * _band_matvec(b_ext, Z_ext)
                Z += _ldl_solve(factors, residual.astype(float))
        # A column with entries of 1 or more is first scaled below 1 by a
        # power of two, exactly, so the normalized vector keeps its bits: a
        # solve at a shift within 1e-303 of an eigenvalue of size 1e-300
        # grows the vector by 1e303, and its squared B-norm would overflow.
        Z = np.ldexp(Z, -np.maximum(np.frexp(np.max(np.abs(Z), axis=0))[1], 0))
        for members in clusters:
            _b_orthogonalize(b, Z, members)
        BZ = _band_matvec(b, Z)
        norms = np.sqrt(np.einsum("ij,ij->j", Z, BZ))
        if not np.all(np.isfinite(norms) & (norms > 0.0)):
            raise ConvergenceError("inverse iteration broke down on a singular shifted pencil")
        Z /= norms
        BZ /= norms

    # The Rayleigh quotients and the residuals are summed in extended
    # precision too, and rounded once.  In double their own rounding noise
    # is large where the entries of A span many decades: on the n = 16 cap
    # of aperture 3 at m = 256, one quotient summed in double was 2.6e-8
    # off its extended sum, and its residual read 2.6e-8 against 2.2e-9.
    Z_ext = Z.astype(np.longdouble)
    AZ_ext = _band_matvec(a_ext, Z_ext)
    values_ext = np.einsum("ij,ij->j", Z_ext, AZ_ext)
    residual = np.linalg.norm(AZ_ext - values_ext * _band_matvec(b_ext, Z_ext), axis=0)
    values = values_ext.astype(float)
    ax_norm = np.maximum(np.linalg.norm(AZ_ext.astype(float), axis=0), _EPS)
    resid_rel = residual.astype(float) / ax_norm
    # Entries of A grow like h**-3, so evaluating A @ x for a smooth
    # eigenvector cancels many large terms and the computed residual
    # carries rounding noise of size eps * || (|A| + lam |B|) |x| ||
    # no matter how accurate x is.  A fixed tolerance is therefore
    # unattainable on fine meshes; gate against the evaluation floor
    # instead whenever it exceeds the requested tolerance.
    abs_z = np.abs(Z)
    rounding = _band_matvec(np.abs(a), abs_z) + np.abs(values) * _band_matvec(np.abs(b), abs_z)
    tol = np.maximum(_RESIDUAL_TOL, _EPS * np.linalg.norm(rounding, axis=0) / ax_norm)
    for i in range(count):
        if resid_rel[i] > tol[i]:
            raise ConvergenceError(f"eigenpair {i} residual {resid_rel[i]:.3e} exceeds {tol[i]:.1e}")
        if not lo[i] - _BRACKET_SLACK * abs(lo[i]) <= values[i] <= hi[i] + _BRACKET_SLACK * abs(hi[i]):
            raise ConvergenceError(
                f"eigenvalue {i} = {float(values[i])!r} lies outside its count bracket "
                f"[{float(lo[i])!r}, {float(hi[i])!r}]"
            )
    return values, Z
