"""Symmetric-definite pencil eigensolvers built from first principles.

Solves the generalized problem A x = lam B x with A symmetric and B
symmetric positive definite.  Everything here is deliberately
self-contained (no LAPACK wrappers) so the numerical path is fully
inspectable.

``solve_pencil`` works on the bands of the pencil (half-bandwidth 3 for
every Hermite-cubic sector pencil) and never forms a dense factor:

    LDL^T of A - sigma B over a batch of shifts -> inertia counts
    (Sylvester's law) -> multisection brackets of the lowest eigenvalues
    -> banded LU with partial pivoting at the bracket midpoints -> seeded
    inverse iteration for the eigenvectors -> Rayleigh quotients, gated by
    their residual and their count brackets.

Each pass of the count, the factorization and the solves is one Python
loop over rows, vectorised over the shifts.  The counts certify the index
of every returned eigenvalue.

The dense chain

    B = L L^T  ->  C = L^{-1} A L^{-T}  ->  tridiagonal T = Q^T C Q
    -> implicit-shift QL for eigenvalues -> inverse iteration for
    eigenvectors -> back-transform

stays as an O(N^3) reference: the tests compare its stages against scipy,
and ``perfbench`` times them, but ``solve_pencil`` does not call it.
"""

from __future__ import annotations

import math

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
#: bracket: the counts see the rounded pencil, and x^T A x carries rounding
#: noise of up to 2e-7 relative on the finest sector meshes (N = 1023)
_BRACKET_SLACK = 1e-6
#: largest inverse-iteration contraction accepted at a bracket midpoint
_CONTRACTION = 1e-3
#: relative width below which a bracket holding several eigenvalues is
#: accepted as one cluster
_CLUSTER_RTOL = 1e-10
#: shifts spent per multisection pass, shared among the open brackets
_PASS_SHIFTS = 128
#: count passes allowed before multisection counts as stalled
_MAX_COUNT_PASSES = 60
#: banded inverse-iteration solves per eigenvector
_BANDED_PASSES = 4
#: ladder of the first count pass, in units of the diagonal scale of A / B
_LADDER = np.logspace(-10.0, 2.0, 96)


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
    """Upper bands of the symmetric pencil (A, B), zero-padded.

    Returns (a, b), each of shape (p + 1, n): row k holds the k-th
    superdiagonal in its first n - k entries.  The half-bandwidth p is the
    largest j - i over the nonzero entries (i, j) of A and B, both
    symmetric; Hermite-cubic sector pencils have p = 3, and a full matrix
    has p = n - 1.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    nonzero = (A != 0.0) | (B != 0.0)
    # column of the last nonzero in each row (n - 1 for an all-zero row,
    # which only overstates p)
    last = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    p = max(int(np.max(last - np.arange(n))), 0)
    a = np.zeros((p + 1, n))
    b = np.zeros((p + 1, n))
    for k in range(p + 1):
        a[k, : n - k] = np.diagonal(A, k)
        b[k, : n - k] = np.diagonal(B, k)
    return a, b


def _band_matvec(bands, X):
    """Product of the symmetric band matrix with the columns of X (n x s)."""
    Y = bands[0][:, None] * X
    for k in range(1, bands.shape[0]):
        n_k = X.shape[0] - k
        Y[:n_k] += bands[k, :n_k, None] * X[k:]
        Y[k:] += bands[k, :n_k, None] * X[:n_k]
    return Y


def _columns(a, b, alpha, sigma):
    """Upper-band columns of alpha_j A - sigma_j B for a batch of shifts.

    Entry [p - k, i, j] is element (i - k, i) of the j-th matrix.  Columns
    n .. n + 2p pad the matrices with an identity block, which adds only
    positive pivots and keeps the factor loop free of end cases.
    """
    p, n = a.shape[0] - 1, a.shape[1]
    cols = np.zeros((p + 1, n + 2 * p + 1, sigma.size))
    for k in range(p + 1):
        band_a, band_b = a[k, : n - k], b[k, : n - k]
        np.subtract(np.multiply.outer(band_a, alpha), np.multiply.outer(band_b, sigma), out=cols[p - k, k:n])
    cols[p, n:] = 1.0
    return cols


def _ldl_pivots(a, b, alpha, sigma):
    """Pivots D of the LDL^T factorization of alpha A - sigma B, shape (n, s).

    One pass over the rows, vectorised over the shifts.  The window W
    holds the trailing (p + 1) x (p + 1) Schur complement; each step takes
    its leading pivot, updates the rest, and shifts in the next column.
    """
    p, n = a.shape[0] - 1, a.shape[1]
    cols = _columns(a, b, np.asarray(alpha, dtype=float), np.asarray(sigma, dtype=float))
    W = np.empty((p + 1, p + 1, sigma.size))
    for j in range(p + 1):
        W[: j + 1, j] = cols[p - j :, j]
        W[j, : j + 1] = cols[p - j :, j]
    spare = np.empty_like(W)
    D = np.empty((n, sigma.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n):
            D[i] = W[0, 0]
            ratio = W[0, 1:] / W[0, 0]
            np.subtract(W[1:, 1:], ratio[:, None, :] * W[0, None, 1:], out=spare[:p, :p])
            incoming = cols[:, i + p + 1]
            spare[:, p] = incoming
            spare[p, :p] = incoming[:p]
            W, spare = spare, W
    return D


def inertia_counts(a, b, shifts):
    """Number of pencil eigenvalues below each shift (Sylvester's law).

    ``a`` and ``b`` are the bands from ``pencil_bands``.  The count at
    sigma is the number of negative pivots in the LDL^T factorization of
    A - sigma B.  A non-finite pivot (the factorization broke down on an
    exactly singular leading block) raises ConvergenceError.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    D = _ldl_pivots(a, b, np.ones_like(shifts), shifts)
    if not np.all(np.isfinite(D)):
        raise ConvergenceError("LDL^T inertia count broke down on a singular leading block")
    return np.count_nonzero(D < 0.0, axis=0)


def _banded_lu(a, b, shifts):
    """LU with partial pivoting of A - sigma B for each shift.

    Returns (L, P, R, C) for ``_banded_solve``: per row i, the multipliers
    L[i] (p x s) and the offset P[i] of the row swapped into place; the
    reciprocal pivots R[i]; and, per column j, the entries C[j] (2p x s)
    of U above the diagonal, rows j - 1 down to j - 2p.  Rows are swapped
    within the active window of p + 1 rows, independently per shift, so U
    has upper bandwidth 2p.
    """
    p, n = a.shape[0] - 1, a.shape[1]
    s = shifts.size
    rows = np.zeros((n + 2 * p + 1, 2 * p + 1, s))
    for k in range(p + 1):
        band = a[k, : n - k, None] - b[k, : n - k, None] * shifts
        rows[: n - k, p + k] = band
        rows[k:n, p - k] = band
    rows[n:, p] = 1.0
    W = np.zeros((p + 1, 2 * p + 1, s))
    for r in range(p + 1):
        W[r, : r + p + 1] = rows[r, p - r :]
    spare = np.zeros_like(W)
    U = np.empty((n, 2 * p + 1, s))
    L = np.empty((n, p, s))
    P = np.empty((n, s), dtype=np.intp)
    lanes = np.arange(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n):
            piv = np.argmax(np.abs(W[:, 0]), axis=0, out=P[i])
            top = W[piv, :, lanes]
            W[piv, :, lanes] = W[0].T
            U[i] = top.T
            mult = np.divide(W[1:, 0], U[i, 0], out=L[i])
            np.subtract(W[1:, 1:], mult[:, None, :] * U[i, None, 1:], out=spare[:p, : 2 * p])
            spare[p] = rows[i + p + 1]
            W, spare = spare, W
    C = np.zeros((n, 2 * p, s))
    for c in range(1, min(2 * p, n - 1) + 1):
        C[c:, 2 * p - c] = U[: n - c, c]
    return L, P, 1.0 / U[:, 0], C


def _banded_solve(factors, X):
    """Solve (A - sigma_j B) x_j = X[:, j] for every shift j of ``factors``.

    Forward elimination replays the row swaps; back substitution runs by
    columns, subtracting each solved x_j from the 2p rows above it.
    """
    L, P, R, C = factors
    n, p, s = L.shape
    Y = np.zeros((n + 4 * p, s))
    Y[2 * p : n + 2 * p] = X
    flat = Y.reshape(-1)
    swap = (np.arange(2 * p, n + 2 * p)[:, None] + P) * s + np.arange(s)
    swapped = np.any(P != 0, axis=1).tolist()
    for i in range(n):
        r = i + 2 * p
        if swapped[i]:
            top = flat[swap[i]]
            flat[swap[i]] = Y[r]
            Y[r] = top
        Y[r + 1 : r + p + 1] -= L[i] * Y[r]
    for j in range(n - 1, -1, -1):
        r = j + 2 * p
        Y[r] *= R[j]
        Y[r - 2 * p : r] -= C[j] * Y[r]
    return Y[2 * p : n + 2 * p]


class _Counts:
    """Every shift evaluated so far with its inertia count, sorted by shift."""

    def __init__(self):
        self.shifts = np.empty(0)
        self.counts = np.empty(0, dtype=np.intp)

    def add(self, shifts, counts):
        shifts = np.concatenate([self.shifts, shifts])
        counts = np.concatenate([self.counts, counts])
        order = np.argsort(shifts, kind="stable")
        self.shifts, self.counts = shifts[order], counts[order]
        if np.any(np.diff(self.counts) < 0):
            raise ConvergenceError("inertia counts are not monotone in the shift")

    def bracket(self, i):
        """Position j of the tightest bracket shifts[j] < lam_i <= shifts[j + 1]."""
        return int(np.searchsorted(self.counts, i, side="right")) - 1

    def contraction(self, j):
        """Bound on the inverse-iteration contraction at the midpoint of bracket j.

        It is the bracket's half-width over the distance from its midpoint
        to the nearest eigenvalue outside it, which the counts place below
        the first shift counting c_lo and above the last shift counting c_hi.
        """
        lo, hi = self.shifts[j], self.shifts[j + 1]
        c_lo, c_hi = self.counts[j], self.counts[j + 1]
        mid = 0.5 * (lo + hi)
        below = self.shifts[np.searchsorted(self.counts, c_lo, side="left")] if c_lo > 0 else -math.inf
        above = self.shifts[np.searchsorted(self.counts, c_hi, side="right") - 1]
        return 0.5 * (hi - lo) / min(mid - below, above - mid)


def _interior(lo, hi, k):
    """k shifts strictly inside (lo, hi), geometric when 0 < lo < hi / 4."""
    t = np.arange(1, k + 1) / (k + 1)
    if lo > 0.0 and hi > 4.0 * lo:
        pts = lo * (hi / lo) ** t
    else:
        pts = lo + (hi - lo) * t
    return pts[(pts > lo) & (pts < hi)]


def _brackets(a, b, count):
    """Certified brackets of the lowest ``count`` eigenvalues, by multisection.

    The first pass counts on a geometric ladder of shifts of both signs
    around the diagonal scale and factors B itself (CholeskyError unless
    every pivot is positive).  Later passes widen the ladder until it
    holds the lowest ``count`` eigenvalues, then split every bracket whose
    midpoint would make a poor inverse-iteration shift: until it holds one
    eigenvalue and its contraction bound is below ``_CONTRACTION``, or,
    for an unresolved cluster, its width is below ``_CLUSTER_RTOL``.
    Returns (counts, positions): the evaluated shifts and, for each index
    i < count, the position of its bracket.
    """
    scale = float(np.max(np.abs(a[0]))) / max(float(np.max(np.abs(b[0]))), _EPS)
    scale = scale if scale > 0.0 else 1.0
    ladder = scale * np.concatenate([-_LADDER[::4][::-1], _LADDER])
    # the last column, 0 A - (-1) B, factors B itself
    D = _ldl_pivots(a, b, np.append(np.ones_like(ladder), 0.0), np.append(ladder, -1.0))
    if not (np.all(D[:, -1] > 0.0) and np.all(np.isfinite(D[:, -1]))):
        raise CholeskyError("B is not positive definite")
    if not np.all(np.isfinite(D)):
        raise ConvergenceError("LDL^T inertia count broke down on a singular leading block")
    counts = _Counts()
    counts.add(ladder, np.count_nonzero(D[:, :-1] < 0.0, axis=0))
    for _ in range(_MAX_COUNT_PASSES):
        lo_count, hi_count = counts.counts[0], counts.counts[-1]
        if lo_count > 0:
            new = counts.shifts[0] - max(abs(counts.shifts[0]), scale) * _LADDER[-1] / _LADDER
        elif hi_count < count:
            new = counts.shifts[-1] + max(abs(counts.shifts[-1]), scale) * _LADDER[-1] / _LADDER
        else:
            positions = sorted({counts.bracket(i) for i in range(count)})
            todo = []
            for j in positions:
                lo, hi = counts.shifts[j], counts.shifts[j + 1]
                q = counts.contraction(j)
                isolated = counts.counts[j + 1] - counts.counts[j] == 1
                narrow = hi - lo <= _CLUSTER_RTOL * max(abs(lo), abs(hi))
                if q > _CONTRACTION or not (isolated or narrow):
                    todo.append(j)
            if not todo:
                return counts, [counts.bracket(i) for i in range(count)]
            share = max(_PASS_SHIFTS // len(todo), 3)
            new = np.concatenate([_interior(counts.shifts[j], counts.shifts[j + 1], share) for j in todo])
            if new.size == 0:
                # every open bracket is already as narrow as doubles allow
                return counts, [counts.bracket(i) for i in range(count)]
        counts.add(new, inertia_counts(a, b, new))
    raise ConvergenceError(f"multisection did not settle within {_MAX_COUNT_PASSES} count passes")


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
    (``_brackets``); seeded inverse iteration with a banded LU of
    A - sigma B at each bracket midpoint gives the vectors, B-orthogonalised
    within any bracket that holds more than one eigenvalue.

    Each value is the Rayleigh quotient of its vector.  It must lie in its
    bracket widened by ``_BRACKET_SLACK`` relative, and pass the residual
    test ||A x - lam B x|| <= tol ||A x||, where tol is ``_RESIDUAL_TOL``
    widened, if necessary, to the rounding floor of the residual
    evaluation itself, eps * || (|A| + lam |B|) |x| || / ||A x||.  A failed
    test raises ConvergenceError; a B that is not positive definite raises
    CholeskyError.
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
    lo = counts.shifts[positions]
    hi = counts.shifts[np.add(positions, 1)]
    shifts = 0.5 * (lo + hi)
    factors = _banded_lu(a, b, shifts)
    clusters = [[i for i in range(count) if positions[i] == j] for j in sorted(set(positions))]
    clusters = [members for members in clusters if len(members) > 1]
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, count))
    BZ = _band_matvec(b, Z)
    for step in range(_BANDED_PASSES):
        Z = _banded_solve(factors, BZ)
        if step == _BANDED_PASSES - 1:
            # The solve leaves rounding noise of relative size up to 1e-4
            # across the other modes on the finest meshes (whose Rayleigh
            # quotient then drifts by 1e-8); one step of refinement in
            # working precision removes it.
            Z += _banded_solve(factors, BZ - _band_matvec(a, Z) + shifts * _band_matvec(b, Z))
        for members in clusters:
            _b_orthogonalize(b, Z, members)
        BZ = _band_matvec(b, Z)
        norms = np.sqrt(np.einsum("ij,ij->j", Z, BZ))
        Z /= norms
        BZ /= norms
    if not np.all(np.isfinite(Z)):
        raise ConvergenceError("inverse iteration broke down on a singular shifted pencil")

    AZ = _band_matvec(a, Z)
    values = np.einsum("ij,ij->j", Z, AZ)
    ax_norm = np.maximum(np.linalg.norm(AZ, axis=0), _EPS)
    resid_rel = np.linalg.norm(AZ - values * BZ, axis=0) / ax_norm
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
                f"eigenvalue {i} = {values[i]!r} lies outside its count bracket [{lo[i]!r}, {hi[i]!r}]"
            )
    return values, Z
