"""Small dense linear-algebra kernel used by the rest of the package.

Everything is double precision: inputs are converted to float64 ndarrays.
"""

import numpy as np

from .errors import DimensionError, SingularSystem


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def solve_ridge(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Solve min_X ||A X - B||_F^2 + lam ||X||_F^2 through the smaller Gram matrix.

    A is n x p, B is n x q; the result is p x q. With p <= n this solves
    (A^T A + lam I) X = A^T B, else the kernel form X = A^T (A A^T + lam I)^-1 B.
    A Cholesky factorization only checks that the k x k system is positive
    definite; np.linalg.solve solves it. If the check fails with lam > 0, a
    jitter of 1e-12 * trace(Gram)/k is added once and the check retried. With
    lam == 0, a failed check or p > n means the minimiser is not unique, and
    SingularSystem is raised.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"A has {a.shape[0]} rows but B has {b.shape[0]}")
    if a.shape[0] < 1:
        raise DimensionError("A must have at least one row")
    if lam < 0:
        raise DimensionError(f"ridge penalty must be nonnegative, got {lam}")

    n, p = a.shape
    wide = p > n
    if wide and lam == 0:
        raise SingularSystem(f"A has {p} columns, {n} rows and no ridge penalty")
    gram = a @ a.T if wide else a.T @ a
    rhs = b if wide else a.T @ b
    k = len(gram)
    system = gram + float(lam) * np.eye(k)
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        if lam == 0:
            raise SingularSystem("A^T A is singular and no ridge penalty was given") from None
        # conditioning rescue for tiny but nonzero penalties
        jitter = 1e-12 * np.trace(gram) / k
        system = system + jitter * np.eye(k)
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            raise SingularSystem("normal equations not positive definite") from None
    x = np.linalg.solve(system, rhs)
    return a.T @ x if wide else x


def truncated_svd(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r factorization of A: returns (U, s, Vt) with U n x r.

    U has orthonormal columns and U @ diag(s) @ Vt is the closest rank-r
    matrix to A in Frobenius norm. Singular values come back in descending
    order.
    """
    a = _as_matrix(a, "A")
    n, p = a.shape
    if not 1 <= r <= min(n, p):
        raise DimensionError(f"rank {r} out of range for a {n}x{p} matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u[:, :r], s[:r], vt[:r, :]

