"""Small dense linear-algebra kernel used by the rest of the package.

Everything is double precision: inputs are converted to float64 ndarrays.
"""

import numpy as np

from .errors import DimensionError, SingularSystem

BLOCK_BYTES = 512 * 1024  # a block of the long matrix stays in a core's L2 cache


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def few_column_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B for a B of few columns, reading A from memory once.

    Each column of B alone is a matrix-vector product that costs the bytes
    of A it reads. A plain A @ B with several columns makes BLAS pack A,
    which above a few MB costs more than one matrix-vector product per
    column. So A is cut along its long axis into blocks of about
    BLOCK_BYTES, and each block meets every column of B while it is in
    cache: row blocks for a tall A, and for a wide A column blocks whose
    partial products are summed. An A that fits in one block is a plain
    A @ B.
    """
    a, b = _as_matrix(a, "A"), _as_matrix(b, "B")
    n, k = a.shape
    if a.nbytes <= BLOCK_BYTES:
        return a @ b
    if n >= k:
        step = max(1, BLOCK_BYTES // (a.itemsize * k))
        out = np.empty((n, b.shape[1]))
        for i in range(0, n, step):
            np.matmul(a[i:i + step], b, out=out[i:i + step])
        return out
    step = max(1, BLOCK_BYTES // (a.itemsize * n))
    out = a[:, :step] @ b[:step]
    for j in range(step, k, step):
        out += a[:, j:j + step] @ b[j:j + step]
    return out


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


def truncated_svd(a: np.ndarray, rank) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r factorization of A: returns (U, s, Vt) with U n x r.

    ``rank`` is r, or a function that picks r from all min(n, p) singular
    values in descending order; either way only the r kept singular
    vectors are formed.

    U @ diag(s) @ Vt is the closest rank-r matrix to A in Frobenius norm,
    and singular values come back in descending order. The factorization
    goes through the eigendecomposition of the smaller Gram matrix, as
    ``solve_ridge`` picks its side: A^T A (p x p) when p <= n, giving V, or
    A A^T when p > n, giving U; eigenvalues below 0 are rounding and are
    clamped to 0. The other factor is A V / s (or A^T U / s), zero where
    s = 0.

    Precision is lost where the Gram matrix squares the spectrum: a singular
    value s_i is accurate to about eps s_1^2 / s_i rather than eps s_1, so
    values below about sqrt(eps) s_1 are rounding, and the derived factor's
    columns are orthonormal only to about eps (s_1 / s_i)^2. Columns with
    s_i >= 1e-3 s_1 stay orthonormal to about 1e-10.
    """
    a = _as_matrix(a, "A")
    n, p = a.shape
    tall = p <= n
    eigvals, vecs = np.linalg.eigh(a.T @ a if tall else a @ a.T)
    singulars = np.sqrt(np.maximum(eigvals[::-1], 0.0))
    r = rank(singulars) if callable(rank) else rank
    if not 1 <= r <= min(n, p):
        raise DimensionError(f"rank {r} out of range for a {n}x{p} matrix")
    s = singulars[:r]
    vecs = vecs[:, -1:-r - 1:-1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    if tall:
        return (a @ vecs) * inv, s, vecs.T
    return vecs, s, (vecs.T @ a) * inv[:, None]
