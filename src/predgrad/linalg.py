"""Small dense linear-algebra kernel used by the rest of the package.

Everything is double precision: inputs are converted to float64 ndarrays.
A matrix whose rows are sums of outer products of short factors, as
per-example gradients of dense layers are, can be given as ``FactoredRows``
instead: ``solve_ridge`` and ``truncated_svd`` take it beside a dense array
and use its factors wherever they would multiply by the rows.
"""

import numpy as np

from .errors import DimensionError, SingularSystem

BLOCK_BYTES = 512 * 1024  # a block of the long matrix stays in a core's L2 cache


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


class FactoredRows:
    """An n x p matrix G held as row factors; ``dense`` alone forms its rows.

    ``blocks`` holds pairs (U, V) of arrays of n rows, d and e columns. A
    block gives row i the d*e columns vec(U_i V_i^T), U's index major, and
    then, when ``bias`` is set, d more, U_i itself: the layout of a dense
    layer's weight and bias gradients, U the layer's pre-activation
    gradients and V its inputs. Row i is the blocks' columns in order.

    With V~ = [V 1] when ``bias`` is set and V otherwise, inner products of
    rows are products of the factors' inner products: the n x n Gram matrix
    is G G^T = sum over blocks of (U U^T) o (V~ V~^T), at O(n^2 (d + e)) a
    block rather than O(n^2 d e), and the squared row norms are
    ||U_i||^2 ||V~_i||^2 summed over blocks. ``t_dot`` (G^T W) and ``dot``
    (G M) take one matrix product per block and per chunk of a factor's
    columns, the chunk sized so that the operand it expands stays near
    BLOCK_BYTES; they cost what the products with the formed rows cost,
    without the rows.
    """

    def __init__(self, blocks, bias: bool = False):
        self.blocks = [(_as_matrix(u, "U"), _as_matrix(v, "V")) for u, v in blocks]
        self.bias = bool(bias)
        if not self.blocks or any(len(u) != len(self.blocks[0][0]) or len(v) != len(u)
                                  for u, v in self.blocks):
            raise DimensionError("factored rows need blocks of factors with equal row counts")
        self.shape = (len(self.blocks[0][0]),
                      sum(u.shape[1] * (v.shape[1] + self.bias) for u, v in self.blocks))

    def __getitem__(self, idx) -> "FactoredRows":
        """The rows ``idx`` (an index array or a boolean mask)."""
        return FactoredRows([(u[idx], v[idx]) for u, v in self.blocks], self.bias)

    def _spans(self):
        """(U, V, start) for each block, start its first column in a row."""
        start = 0
        for u, v in self.blocks:
            yield u, v, start
            start += u.shape[1] * (v.shape[1] + self.bias)

    def dense(self) -> np.ndarray:
        out = np.empty(self.shape)
        for u, v, start in self._spans():
            de = u.shape[1] * v.shape[1]
            out[:, start:start + de] = _expand(u, v)
            if self.bias:
                out[:, start + de:start + de + u.shape[1]] = u
        return out

    def gram(self) -> np.ndarray:
        out = np.zeros((self.shape[0], self.shape[0]))
        for u, v, _ in self._spans():
            vv = v @ v.T
            if self.bias:
                vv += 1.0
            vv *= u @ u.T
            out += vv
        return out

    def sq_norms(self) -> np.ndarray:
        out = np.zeros(self.shape[0])
        for u, v, _ in self._spans():
            out += np.einsum("ij,ij->i", u, u) * (np.einsum("ij,ij->i", v, v) + self.bias)
        return out

    def t_dot(self, w, order: str = "C") -> np.ndarray:
        """G^T W, p x k, for W of n rows and k columns, in C or F memory
        order (with "F" each column of the result is contiguous)."""
        w = _as_matrix(w, "W")
        n, k = w.shape
        if n != self.shape[0]:
            raise DimensionError(f"W has {n} rows, the factored rows {self.shape[0]}")
        out = np.empty((self.shape[1], k), order=order)
        step = max(1, BLOCK_BYTES // (8 * n * k))
        for u, v, start in self._spans():
            d, e = u.shape[1], v.shape[1]
            block = out[start:start + d * e].reshape(d, e, k)
            # a chunk of the narrower factor's columns, each column scaled by
            # every column of W, meets the other factor in one product
            if d <= e:
                for a in range(0, d, step):
                    part = (_expand(u[:, a:a + step], w).T @ v).reshape(-1, k, e)
                    block[a:a + len(part)] = part.transpose(0, 2, 1)
            else:
                for b in range(0, e, step):
                    part = (_expand(v[:, b:b + step], w).T @ u).reshape(-1, k, d)
                    block[:, b:b + len(part)] = part.transpose(2, 0, 1)
            if self.bias:
                out[start + d * e:start + d * e + d] = u.T @ w
        return out

    def dot(self, m) -> np.ndarray:
        """G M, n x k, for M of p rows and k columns."""
        m = _as_matrix(m, "M")
        p, k = m.shape
        if p != self.shape[1]:
            raise DimensionError(f"M has {p} rows, the factored rows {self.shape[1]} columns")
        n = self.shape[0]
        out = np.zeros((n, k))
        step = max(1, BLOCK_BYTES // (8 * n * k))
        for u, v, start in self._spans():
            d, e = u.shape[1], v.shape[1]
            block = m[start:start + d * e].reshape(d, e * k)
            for b in range(0, e, step):
                # U_i M[:, b, :] for a chunk of V's columns b, then summed
                # against V_i over them
                part = (u @ block[:, b * k:(b + step) * k]).reshape(n, -1, k)
                out += np.matmul(v[:, None, b:b + step], part)[:, 0]
            if self.bias:
                out += u @ m[start + d * e:start + d * e + d]
        return out


def _expand(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i is vec(x_i w_i^T): each column of x scaled by every column of w."""
    return (x[:, :, None] * w[:, None, :]).reshape(len(x), -1)


def _dense(a, name: str) -> np.ndarray:
    return a.dense() if isinstance(a, FactoredRows) else _as_matrix(a, name)


def _checked(a, name: str):
    return a if isinstance(a, FactoredRows) else _as_matrix(a, name)


def _row_gram(a) -> np.ndarray:
    """A A^T."""
    return a.gram() if isinstance(a, FactoredRows) else a @ a.T


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


def solve_ridge(a, b, lam: float) -> np.ndarray:
    """Solve min_X ||A X - B||_F^2 + lam ||X||_F^2 through the smaller Gram matrix.

    A is n x p, B is n x q; the result is p x q. With p <= n this solves
    (A^T A + lam I) X = A^T B, else the kernel form X = A^T (A A^T + lam I)^-1 B.
    A and B may be ``FactoredRows``: a wide A enters only through its Gram
    matrix and A^T, and a narrow one is formed densely, as is a B that the
    kernel form takes as its right-hand side.
    A Cholesky factorization only checks that the k x k system is positive
    definite; np.linalg.solve solves it. If the check fails with lam > 0, a
    jitter of 1e-12 * trace(Gram)/k is added once and the check retried. With
    lam == 0, a failed check or p > n means the minimiser is not unique, and
    SingularSystem is raised.
    """
    a, b = _checked(a, "A"), _checked(b, "B")
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
    if wide:
        x = _solve_system(_row_gram(a), _dense(b, "B"), lam)
        # F order: each output's coefficients are contiguous, so a caller that
        # reshapes them (fit_structured's maps) makes no copy
        return a.t_dot(x, order="F") if isinstance(a, FactoredRows) else a.T @ x
    a = _dense(a, "A")
    rhs = b.t_dot(a).T if isinstance(b, FactoredRows) else a.T @ b
    return _solve_system(a.T @ a, rhs, lam)


def _solve_system(gram: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """(gram + lam I)^-1 rhs, after ``solve_ridge``'s positive-definiteness
    check and its jitter rescue."""
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
    return np.linalg.solve(system, rhs)


def truncated_svd(a, rank) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r factorization of A: returns (U, s, Vt) with U n x r.

    ``rank`` is r, or a function that picks r from all min(n, p) singular
    values in descending order; either way only the r kept singular
    vectors are formed.

    U @ diag(s) @ Vt is the closest rank-r matrix to A in Frobenius norm,
    and singular values come back in descending order. The factorization
    goes through the eigendecomposition of the smaller Gram matrix, as
    ``solve_ridge`` picks its side: A^T A (p x p) when p <= n, giving V, or
    A A^T when p > n, giving U; eigenvalues below 0 are rounding and are
    clamped to 0. The other factor is A V / s (or (A^T (U / s))^T), zero
    where s = 0. An A given as ``FactoredRows`` is formed densely on the
    p x p side, where it is no wider than tall, and on the other enters
    only through its Gram matrix and A^T (U / s).

    Precision is lost where the Gram matrix squares the spectrum: a singular
    value s_i is accurate to about eps s_1^2 / s_i rather than eps s_1, so
    values below about sqrt(eps) s_1 are rounding, and the derived factor's
    columns are orthonormal only to about eps (s_1 / s_i)^2. Columns with
    s_i >= 1e-3 s_1 stay orthonormal to about 1e-10.
    """
    a = _checked(a, "A")
    n, p = a.shape
    tall = p <= n
    if tall:
        a = _dense(a, "A")
    eigvals, vecs = np.linalg.eigh(a.T @ a if tall else _row_gram(a))
    singulars = np.sqrt(np.maximum(eigvals[::-1], 0.0))
    r = rank(singulars) if callable(rank) else rank
    if not 1 <= r <= min(n, p):
        raise DimensionError(f"rank {r} out of range for a {n}x{p} matrix")
    s = singulars[:r]
    vecs = vecs[:, -1:-r - 1:-1].copy()  # frees the other columns
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    if tall:
        return (a @ vecs) * inv, s, vecs.T
    w = vecs * inv
    return vecs, s, (a.t_dot(w) if isinstance(a, FactoredRows) else a.T @ w).T
