"""Dense symmetric-definite eigensolver built from first principles.

Solves the generalized problem A x = lam B x with A symmetric and B
symmetric positive definite, by the classical chain

    B = L L^T  ->  C = L^{-1} A L^{-T}  ->  tridiagonal T = Q^T C Q
    -> implicit-shift QL for eigenvalues -> inverse iteration for the
    requested eigenvectors -> back-transform.

Everything here is deliberately self-contained (no LAPACK wrappers) so the
numerical path is fully inspectable.  Matrices in this package are at most a
few thousand rows, and the pure-numpy / scalar-loop mix below stays well
under a second at that size.
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
    "solve_pencil",
]

_EPS = float(np.finfo(float).eps)
#: requested relative residual of every returned eigenpair (see solve_pencil)
_RESIDUAL_TOL = 1e-8
#: QL sweeps allowed per eigenvalue before the iteration counts as stalled
_QL_MAX_SWEEPS = 50
#: inverse-iteration solves per eigenvector
_INVERSE_PASSES = 4


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


def solve_pencil(A, B, count=0, seed=201):
    """Eigenvalues of A x = lam B x, plus eigenvectors of the lowest few.

    Returns (values, vectors): all eigenvalues ascending, and an array of
    shape (n, count) whose columns are B-orthonormal eigenvectors for the
    ``count`` smallest eigenvalues (None when count is 0).  Each returned
    eigenvalue backing a vector is the Rayleigh quotient of that vector and
    must pass the relative residual test ||A x - lam B x|| <= tol ||A x||,
    where tol is ``_RESIDUAL_TOL`` widened, if necessary, to the smallest
    residual double-precision arithmetic can certify for this pencil
    (eps * || (|A| + lam |B|) |x| || / ||A x||, the rounding floor of the
    residual evaluation itself).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("A and B must be square and the same size")
    if count < 0 or count > n:
        raise ValueError(f"count must lie in [0, {n}] (got {count})")
    L = cholesky_lower(B)
    C = reduce_to_standard(A, L)
    d, e, reflectors = householder_tridiagonalize(C)
    values = tridiagonal_eigenvalues(d, e)
    if count == 0:
        return values, None

    rng = np.random.default_rng(seed)
    scale = max(float(np.max(np.abs(values))), 1.0)
    cluster_tol = 1e-8 * scale
    vectors = np.empty((n, count))
    zs: list[np.ndarray] = []
    cluster: list[np.ndarray] = []
    abs_A = np.abs(A)
    abs_B = np.abs(B)
    for i in range(count):
        if i > 0 and values[i] - values[i - 1] <= cluster_tol:
            cluster.append(zs[-1])
        else:
            cluster = []
        shift = values[i] + len(cluster) * 64.0 * _EPS * scale
        z = tridiagonal_eigenvector(d, e, shift, rng, orthogonal_to=tuple(cluster))
        zs.append(z)
        y = apply_reflectors(reflectors, z)
        x = solve_upper_triangular(L.T, y)
        x /= math.sqrt(float(x @ (B @ x)))
        ax = A @ x
        bx = B @ x
        lam = float(x @ ax)
        ax_norm = max(float(np.linalg.norm(ax)), _EPS)
        resid_rel = float(np.linalg.norm(ax - lam * bx)) / ax_norm
        # Entries of A grow like h**-3, so evaluating A @ x for a smooth
        # eigenvector cancels many large terms and the computed residual
        # carries rounding noise of size eps * || (|A| + lam |B|) |x| ||
        # no matter how accurate x is.  A fixed tolerance is therefore
        # unattainable on fine meshes; gate against the evaluation floor
        # instead whenever it exceeds the requested tolerance.
        floor = (
            _EPS
            * float(np.linalg.norm((abs_A + abs(lam) * abs_B) @ np.abs(x)))
            / ax_norm
        )
        if resid_rel > max(_RESIDUAL_TOL, floor):
            raise ConvergenceError(
                f"eigenpair {i} residual {resid_rel:.3e} exceeds "
                f"{max(_RESIDUAL_TOL, floor):.1e}"
            )
        values[i] = lam
        vectors[:, i] = x
    return values, vectors
