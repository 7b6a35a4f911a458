import numpy as np
import pytest

from predgrad import linalg
from predgrad.errors import DimensionError, SingularSystem
from predgrad.linalg import (BLOCK_BYTES, FactoredRows, few_column_product, solve_ridge,
                             truncated_svd)
from predgrad.network import NetworkConfig, forward, init_network, loss_and_residual, trunk_rows
from predgrad.predictor import _bilinear
from predgrad.rng import substream

from oracles import backward, factored


def keep(r):
    """The rank rule that keeps r singular values, whatever they are."""
    return lambda singulars: r


def test_solve_ridge_identity_system():
    x = solve_ridge(np.eye(2), np.array([[1.0], [2.0]]), 1e-300)
    assert np.allclose(x, [[1.0], [2.0]], atol=1e-14)


def test_solve_ridge_infinite_shrinkage():
    x = solve_ridge(np.eye(2), np.array([[1.0], [2.0]]), 1e12)
    assert np.all(np.abs(x) < 1e-10)


def test_solve_ridge_recovers_planted_solution():
    # B constructed from a known X*, lambda = 1e-300: exact recovery
    rng = substream(0, "ridge")
    a = rng.standard_normal((20, 3))
    x_true = rng.standard_normal((3, 2))
    x = solve_ridge(a, a @ x_true, 1e-300)
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-8


def test_solve_ridge_satisfies_normal_equations():
    rng = substream(1, "ridge")
    # tall shapes solve through A^T A, wide ones (p > n) through A A^T
    cases = [((15, 4), lam) for lam in (1e-3, 1.0)]
    cases += [((6, 40), 1e-3), ((6, 40), 1.0), ((1, 3), 0.5), ((20, 21), 1e-2)]
    for (n, p), lam in cases:
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((n, 2))
        x = solve_ridge(a, b, lam)
        assert x.shape == (p, 2)
        atb = a.T @ b
        resid = (a.T @ a + lam * np.eye(p)) @ x - atb
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(atb))


@pytest.mark.parametrize("a", [
    np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
    np.ones((2, 4)),
], ids=["equal-columns", "equal-rows"])
def test_a_singular_system_at_a_tiny_penalty_takes_the_jitter_rescue(monkeypatch, a):
    # the Gram matrices (A^T A, or A A^T for the wide A) are exactly
    # singular, so Cholesky fails at lambda = 1e-300; the rescue adds
    # 1e-12 trace(Gram) / k and solves the jittered normal equations. B is
    # in the range of A, so the kernel side's solution has no large part
    # along the null space of A A^T for A^T to cancel
    checks, cholesky = [], np.linalg.cholesky

    def checked(m):
        checks.append("failed")
        out = cholesky(m)
        checks[-1] = "passed"
        return out

    monkeypatch.setattr(linalg.np.linalg, "cholesky", checked)
    n, p = a.shape
    b = a @ substream(2, "jitter").standard_normal((p, 2))
    lam = 1e-300
    x = solve_ridge(a, b, lam)
    assert checks == ["failed", "passed"]
    gram = a.T @ a if p <= n else a @ a.T
    jitter = 1e-12 * np.trace(gram) / len(gram)
    atb = a.T @ b
    resid = (a.T @ a + (lam + jitter) * np.eye(p)) @ x - atb
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(atb)


def test_a_system_the_jitter_does_not_rescue_raises_singular_system(monkeypatch):
    checks = []

    def failing(m):
        checks.append(m)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(linalg.np.linalg, "cholesky", failing)
    with pytest.raises(SingularSystem, match="not positive definite"):
        solve_ridge(np.eye(3), np.ones((3, 1)), 1e-3)
    assert len(checks) == 2


def test_solve_ridge_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_ridge(np.eye(2), np.ones((3, 1)), 1.0)
    # the penalty must be positive: there is no unpenalized mode
    for lam in (-1.0, 0.0):
        with pytest.raises(DimensionError, match="must be positive"):
            solve_ridge(np.eye(2), np.ones((2, 1)), lam)


def test_truncated_svd_diagonal():
    _, s, _ = truncated_svd(factored(np.diag([3.0, 2.0, 1.0])), keep(2))
    assert np.allclose(s, [3.0, 2.0], atol=1e-12)


def test_truncated_svd_rank_one_exact():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, -1.0])
    a = np.outer(u, v)
    uu, s, vt = truncated_svd(factored(a), keep(1))
    assert np.linalg.norm(uu @ np.diag(s) @ vt - a) <= 1e-12


def test_truncated_svd_full_rank_reconstruction():
    rng = substream(2, "svd")
    a = rng.standard_normal((50, 10))
    u, s, vt = truncated_svd(factored(a), keep(10))
    rel = np.linalg.norm(u @ np.diag(s) @ vt - a) / np.linalg.norm(a)
    assert rel <= 1e-8


def test_truncated_svd_orthonormal_columns():
    rng = substream(3, "svd")
    for n, p, r in ((12, 7, 3), (6, 9, 5), (20, 20, 10)):
        a = rng.standard_normal((n, p))
        u, _, _ = truncated_svd(factored(a), keep(r))
        assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-10
    # a graded spectrum, 1 down to 1e-8, tall and wide, so that U and V each
    # come from the Gram matrix once: the top 16 values span 1 to 8e-4
    spectrum = np.logspace(0, -8, 40)
    q1, _ = np.linalg.qr(rng.standard_normal((300, 40)))
    q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    for a in (q1 * spectrum @ q2.T, (q1 * spectrum @ q2.T).T):
        u, s, vt = truncated_svd(factored(a), keep(16))
        assert np.max(np.abs(u.T @ u - np.eye(16))) <= 1e-10
        assert np.max(np.abs(vt @ vt.T - np.eye(16))) <= 1e-10
        assert np.max(np.abs(s / spectrum[:16] - 1.0)) <= 1e-10


def test_truncated_svd_rank_out_of_range():
    with pytest.raises(DimensionError):
        truncated_svd(factored(np.eye(3)), keep(0))
    with pytest.raises(DimensionError):
        truncated_svd(factored(np.eye(3)), keep(4))


@pytest.mark.parametrize("shape, cols", [
    ((10, 4), 2),                                   # fits in one block
    ((BLOCK_BYTES // 80 * 3 + 7, 10), 2),           # tall; the last row block is short
    ((10, BLOCK_BYTES // 80 * 3 + 7), 2),           # wide; row blocks of 3, the last of 1
    ((BLOCK_BYTES // 80 * 2, 10), 1),               # a single column
    ((10, BLOCK_BYTES // 80 * 2), 1),
    ((BLOCK_BYTES // 8 + 1, 1), 3),                 # A of one column; a 1-row last block
])
def test_few_column_product_equals_the_plain_product(shape, cols):
    rng = substream(4, "few-column")
    a = rng.standard_normal(shape)
    b = rng.standard_normal((shape[1], cols))
    ref = a @ b
    out = few_column_product(a, b)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_few_column_product_reads_a_transposed_matrix():
    # a matrix kept as the transpose of a C-ordered array
    rng = substream(5, "few-column")
    a = rng.standard_normal((10, BLOCK_BYTES // 80 * 3 + 7)).T
    b = rng.standard_normal((10, 2))
    ref = a @ b
    assert np.max(np.abs(few_column_product(a, b) - ref)) <= 1e-12 * np.max(np.abs(ref))


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def dense_and_factored_trunk(hidden, activation, n=30):
    """backward's trunk rows on a batch of a net, and its trunk_rows."""
    rng = substream(6, f"factored:{hidden}:{activation}")
    net = init_network(NetworkConfig(5, hidden, 3, activation=activation, seed=len(hidden)))
    _, output, cache = forward(net, rng.standard_normal((n, 5)))
    _, residuals = loss_and_residual(output, rng.integers(3, size=n), "cross_entropy")
    dense = backward(net, cache, residuals)[:, :net.config.trunk_size]
    return dense, trunk_rows(net, cache, residuals)


@pytest.mark.parametrize("block_bytes", [BLOCK_BYTES, 1024], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(7,), (6, 9), (9, 4, 6), (4, 7, 5, 6)])
def test_factored_trunk_rows_match_the_backward_rows(monkeypatch, hidden, activation,
                                                      block_bytes):
    # 1024-byte chunks split every product into pieces of a few columns
    monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    dense, rows = dense_and_factored_trunk(hidden, activation)
    rng = substream(7, "factored-operands")
    assert rows.shape == dense.shape
    assert np.array_equal(rows.dense(), dense)
    assert rel_err(rows.gram(), dense @ dense.T) <= 1e-12
    assert rel_err(rows.row_dots(rows), np.einsum("ij,ij->i", dense, dense)) <= 1e-12
    other = FactoredRows([(rng.standard_normal(u.shape), rng.standard_normal(v.shape))
                          for u, v in rows.blocks])
    assert rel_err(rows.row_dots(other), np.einsum("ij,ij->i", dense, other.dense())) <= 1e-12
    # the last layer's input one column short: as many rows, another layout
    x, y = other.blocks[-1]
    with pytest.raises(DimensionError):
        rows.row_dots(FactoredRows([*other.blocks[:-1], (x, y[:, 1:])]))
    w = rng.standard_normal((len(dense), 5))
    assert rel_err(rows.t_dot(w), dense.T @ w) <= 1e-12
    m = rng.standard_normal((dense.shape[1], 4))
    for operand in (m, np.asfortranarray(m), m[:, :1]):
        assert rel_err(rows.dot(operand), dense @ operand) <= 1e-12
    assert np.array_equal(rows.dot(np.asfortranarray(m)), rows.dot(m))
    keep = np.arange(len(dense)) % 3 != 1
    assert np.array_equal(rows[keep].dense(), dense[keep])


def test_factored_feature_gram_equals_the_bilinear_features_gram():
    # the factored rows (h, llh) are the features h x [llh; 1] with the
    # columns h_j * 1 moved to the end
    rng = substream(8, "feature-gram")
    h, llh = rng.standard_normal((25, 6)), rng.standard_normal((25, 6))
    feats, rows = _bilinear(h, llh), FactoredRows([(h, llh)])
    cols = np.arange(feats.shape[1]).reshape(6, 7)
    assert np.array_equal(rows.dense(), feats[:, np.concatenate([cols[:, :-1].ravel(),
                                                                 cols[:, -1]])])
    assert rel_err(rows.gram(), feats @ feats.T) <= 1e-12
    assert rel_err(rows.row_dots(rows), np.einsum("ij,ij->i", feats, feats)) <= 1e-12


@pytest.mark.parametrize("n", [12, 60], ids=["wide", "tall"])
def test_truncated_svd_takes_factored_rows(n):
    # 12 rows of 30 columns take the Gram side, 60 rows the formed p x p side
    rng = substream(9, f"factored-solve:{n}")
    rows = FactoredRows([(rng.standard_normal((n, 3)), rng.standard_normal((n, 4))),
                         (rng.standard_normal((n, 5)), rng.standard_normal((n, 2)))])
    dense = rows.dense()
    u, s, vt = truncated_svd(rows, keep(3))
    ud, sd, vtd = truncated_svd(factored(dense), keep(3))
    assert rel_err(s, sd) <= 1e-10
    assert rel_err((u * s) @ vt, (ud * sd) @ vtd) <= 1e-8


@pytest.mark.parametrize("shape", [(12, 30), (60, 30)], ids=["wide", "tall"])
def test_a_zero_width_block_is_the_dense_matrix(shape):
    # the tests' dense matrices enter truncated_svd and the fits this way
    rng = substream(10, f"zero-width:{shape}")
    a, w, m = (rng.standard_normal(s) for s in (shape, (shape[0], 4), (shape[1], 3)))
    rows = factored(a)
    assert rows.shape == a.shape and np.array_equal(rows.dense(), a)
    assert np.array_equal(rows.gram(), a @ a.T)
    assert np.array_equal(rows.t_dot(w), a.T @ w)
    assert np.array_equal(rows.dot(m), a @ m)
    assert np.array_equal(rows.row_dots(rows), np.einsum("ij,ij->i", a, a))


def test_factored_rows_argument_errors():
    with pytest.raises(DimensionError):
        FactoredRows([(np.ones((3, 2)), np.ones((4, 2)))])
    with pytest.raises(DimensionError):
        FactoredRows([])
    rows = FactoredRows([(np.ones((3, 2)), np.ones((3, 2)))])
    with pytest.raises(DimensionError):
        rows.t_dot(np.ones((4, 1)))
    with pytest.raises(DimensionError):
        rows.dot(np.ones((5, 1)))
