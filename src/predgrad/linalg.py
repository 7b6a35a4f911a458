"""Small dense linear-algebra kernel used by the rest of the package.

Everything is double precision: inputs are converted to float64 ndarrays.
A matrix whose rows are sums of outer products of short factors, as
per-example gradients of dense layers are, is held as ``FactoredRows``,
the only form ``truncated_svd`` takes; it uses the factors wherever it would
multiply by the rows. A dense n x p A is ``FactoredRows([(A, np.empty((n, 0)))])``.
``solve_ridge`` takes a positive penalty only, and ``truncated_svd`` a rank rule.
"""

import numpy as np

from .errors import DimensionError, SingularSystem

BLOCK_BYTES = 512 * 1024  # a block of the long matrix stays in a core's L2 cache


def _as_matrix(a, name: str) -> np.ndarray:
    if type(a) is not np.ndarray or a.dtype != np.float64:   # as np.asarray, without its call
        a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


class FactoredRows:
    """An n x p matrix G held as row factors; ``dense`` alone forms its rows.

    ``blocks`` holds pairs (U, V) of arrays of n rows, d and e columns. A
    block gives row i the d*e columns vec(U_i V_i^T), U's index major, and
    then d more, U_i itself: the layout of a dense layer's weight and bias
    gradients, U the layer's pre-activation gradients and V its inputs. Row
    i is the blocks' columns in order.

    With V~ = [V 1], inner products of rows are products of the factors'
    inner products: the n x n Gram matrix is G G^T = sum over blocks of
    (U U^T) o (V~ V~^T), at O(n^2 (d + e)) a block rather than O(n^2 d e),
    and the inner products of the rows with the matching rows of H, factors
    (X, Y) in the same layout (``row_dots``), are (U_i . X_i)(V~_i . Y~_i)
    summed over blocks. ``t_dot`` (G^T W) and ``dot`` (G M) take one matrix
    product per block and per chunk of a factor's columns, the chunk sized
    so that the operand it expands stays near BLOCK_BYTES; they cost what
    the products with the formed rows cost, without the rows.
    """

    def __init__(self, blocks):
        self.blocks = [(_as_matrix(u, "U"), _as_matrix(v, "V")) for u, v in blocks]
        if not self.blocks or any(len(u) != len(self.blocks[0][0]) or len(v) != len(u)
                                  for u, v in self.blocks):
            raise DimensionError("factored rows need blocks of factors with equal row counts")
        self.shape = (len(self.blocks[0][0]),
                      sum(u.shape[1] * (v.shape[1] + 1) for u, v in self.blocks))

    def __getitem__(self, idx) -> "FactoredRows":
        """The rows ``idx`` (an index array or a boolean mask)."""
        return FactoredRows([(u[idx], v[idx]) for u, v in self.blocks])

    def _spans(self):
        """(U, V, start) for each block, start its first column in a row."""
        start = 0
        for u, v in self.blocks:
            yield u, v, start
            start += u.shape[1] * (v.shape[1] + 1)

    def dense(self) -> np.ndarray:
        out = np.empty(self.shape)
        for u, v, start in self._spans():
            de = u.shape[1] * v.shape[1]
            out[:, start:start + de] = _expand(u, v)
            out[:, start + de:start + de + u.shape[1]] = u
        return out

    def sum(self) -> np.ndarray:
        """The sum of the rows, one product U^T V per block."""
        return np.concatenate([part for u, v in self.blocks
                               for part in ((u.T @ v).ravel(), u.sum(axis=0))])

    def gram(self) -> np.ndarray:
        out = np.zeros((self.shape[0], self.shape[0]))
        for u, v, _ in self._spans():
            vv = v @ v.T
            vv += 1.0
            vv *= u @ u.T
            out += vv
        return out

    def row_dots(self, other: "FactoredRows") -> np.ndarray:
        """<G_i, H_i> for each row i, H ``other`` in the same layout; with
        ``other`` itself, the squared row norms."""
        layout = [(u.shape, v.shape) for u, v in self.blocks]
        if [(x.shape, y.shape) for x, y in other.blocks] != layout:
            raise DimensionError("row dots need two factored matrices of one layout")
        out = np.zeros(self.shape[0])
        for (u, v), (x, y) in zip(self.blocks, other.blocks):
            out += np.einsum("ij,ij->i", u, x) * (np.einsum("ij,ij->i", v, y) + 1.0)
        return out

    def t_dot(self, w) -> np.ndarray:
        """G^T W, p x k, for W of n rows and k columns."""
        w = _as_matrix(w, "W")
        n, k = w.shape
        if n != self.shape[0]:
            raise DimensionError(f"W has {n} rows, the factored rows {self.shape[0]}")
        out = np.empty((self.shape[1], k))
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
            out[start + d * e:start + d * e + d] = u.T @ w
        return out

    def dot(self, m) -> np.ndarray:
        """G M, n x k, for M of p rows and k columns."""
        # read in row blocks below, which an F-ordered M would copy one by one
        m = np.ascontiguousarray(_as_matrix(m, "M"))
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
            out += u @ m[start + d * e:start + d * e + d]
        return out


def _expand(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i is vec(x_i w_i^T): each column of x scaled by every column of w."""
    return (x[:, :, None] * w[:, None, :]).reshape(len(x), -1)


def few_column_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B for a B of few columns, reading A from memory once.

    Each column of B alone is a matrix-vector product that costs the bytes
    of A it reads. A plain A @ B with several columns makes BLAS pack A,
    which above a few MB costs more than one matrix-vector product per
    column. So A is cut into row blocks of about BLOCK_BYTES, each meeting
    every column of B while it is in cache; an A that fits in one block is a
    plain A @ B. A long A is tall here (a basis, P_T x r), and a wide one
    (the maps, r x q(D+1)) fits in a block.
    """
    a, b = _as_matrix(a, "A"), _as_matrix(b, "B")
    if a.nbytes <= BLOCK_BYTES:
        return a @ b
    step = max(1, BLOCK_BYTES // (a.itemsize * a.shape[1]))
    out = np.empty((len(a), b.shape[1]))
    for i in range(0, len(a), step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


def solve_ridge(a, b, lam: float) -> np.ndarray:
    """Solve min_X ||A X - B||_F^2 + lam ||X||_F^2 through the smaller Gram matrix.

    A is n x p, B is n x q, lam > 0; the result is p x q. With p <= n this
    solves (A^T A + lam I) X = A^T B, else the kernel form
    X = A^T (A A^T + lam I)^-1 B. A Cholesky factorization only checks that
    the k x k system is positive definite; np.linalg.solve solves it. If the
    check fails, a jitter of 1e-12 * trace(Gram)/k is added once and the
    check retried; SingularSystem is raised if that fails too.
    """
    a, b = _as_matrix(a, "A"), _as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"A has {a.shape[0]} rows but B has {b.shape[0]}")
    if a.shape[0] < 1:
        raise DimensionError("A must have at least one row")
    if not lam > 0:
        raise DimensionError(f"ridge penalty must be positive, got {lam}")

    if a.shape[1] > a.shape[0]:
        return a.T @ _solve_system(a @ a.T, b, lam)
    return _solve_system(a.T @ a, a.T @ b, lam)


def _solve_system(gram: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """(gram + lam I)^-1 rhs, after ``solve_ridge``'s positive-definiteness
    check and its jitter rescue."""
    k = len(gram)
    system = gram + float(lam) * np.eye(k)
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        # conditioning rescue for tiny penalties
        jitter = 1e-12 * np.trace(gram) / k
        system = system + jitter * np.eye(k)
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            raise SingularSystem("normal equations not positive definite") from None
    return np.linalg.solve(system, rhs)


def truncated_svd(a: FactoredRows, rank) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r factorization of the rows A: returns (U, s, Vt) with U n x r.

    ``rank`` is a function that picks r from all min(n, p) singular values
    in descending order; only the r kept singular vectors are formed.

    U @ diag(s) @ Vt is the closest rank-r matrix to A in Frobenius norm,
    and singular values come back in descending order. The factorization
    goes through the eigendecomposition of the smaller Gram matrix, as
    ``solve_ridge`` picks its side: A^T A (p x p) when p <= n, giving V, or
    A A^T when p > n, giving U; eigenvalues below 0 are rounding and are
    clamped to 0. The other factor is A V / s (or (A^T (U / s))^T), zero
    where s = 0. A is formed densely on the p x p side, where it is no
    wider than tall, and on the other enters only through its Gram matrix
    and A^T (U / s).

    Precision is lost where the Gram matrix squares the spectrum: a singular
    value s_i is accurate to about eps s_1^2 / s_i rather than eps s_1, so
    values below about sqrt(eps) s_1 are rounding, and the derived factor's
    columns are orthonormal only to about eps (s_1 / s_i)^2. Columns with
    s_i >= 1e-3 s_1 stay orthonormal to about 1e-10.
    """
    n, p = a.shape
    tall = p <= n
    if tall:
        a = a.dense()
    eigvals, vecs = np.linalg.eigh(a.T @ a if tall else a.gram())
    singulars = np.sqrt(np.maximum(eigvals[::-1], 0.0))
    r = rank(singulars)
    if not 1 <= r <= min(n, p):
        raise DimensionError(f"rank {r} out of range for a {n}x{p} matrix")
    s = singulars[:r]
    vecs = vecs[:, -1:-r - 1:-1].copy()  # frees the other columns
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    if tall:
        return (a @ vecs) * inv, s, vecs.T
    return vecs, s, a.t_dot(vecs * inv).T
