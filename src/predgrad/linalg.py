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
    """Solve min_X ||A X - B||_F^2 + lam ||X||_F^2 via the normal equations.

    A is n x p, B is n x q; the result is p x q. Solved with a Cholesky
    factorization of (A^T A + lam I). If the factorization fails with
    lam > 0, a jitter of 1e-12 * trace(A^T A)/p is added once and the solve
    retried; with lam == 0 a factorization failure means the system is
    singular and SingularSystem is raised.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"A has {a.shape[0]} rows but B has {b.shape[0]}")
    if a.shape[0] < 1:
        raise DimensionError("A must have at least one row")
    if lam < 0:
        raise DimensionError(f"ridge penalty must be nonnegative, got {lam}")

    p = a.shape[1]
    ata = a.T @ a
    atb = a.T @ b
    gram = ata + float(lam) * np.eye(p)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if lam == 0:
            raise SingularSystem(
                "A^T A is singular and no ridge penalty was given"
            ) from None
        # conditioning rescue for tiny but nonzero penalties
        jitter = 1e-12 * np.trace(ata) / p
        gram = gram + jitter * np.eye(p)
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise SingularSystem("normal equations not positive definite") from None
    return np.linalg.solve(gram, atb)


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

