import numpy as np
import pytest

from predgrad import linalg
from predgrad.errors import DimensionError, SingularSystem
from predgrad.linalg import (BLOCK_BYTES, FactoredRows, few_column_product, solve_ridge,
                             truncated_svd)
from predgrad.network import (NetworkConfig, backward, forward, init_network,
                              loss_and_residual, trunk_rows)
from predgrad.predictor import _bilinear, _features
from predgrad.rng import substream


def test_solve_ridge_identity_system():
    x = solve_ridge(np.eye(2), np.array([[1.0], [2.0]]), 0.0)
    assert np.allclose(x, [[1.0], [2.0]], atol=1e-14)


def test_solve_ridge_infinite_shrinkage():
    x = solve_ridge(np.eye(2), np.array([[1.0], [2.0]]), 1e12)
    assert np.all(np.abs(x) < 1e-10)


def test_solve_ridge_recovers_planted_solution():
    # B constructed from a known X*, lambda = 0: exact recovery
    rng = substream(0, "ridge")
    a = rng.standard_normal((20, 3))
    x_true = rng.standard_normal((3, 2))
    x = solve_ridge(a, a @ x_true, 0.0)
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-8


def test_solve_ridge_satisfies_normal_equations():
    rng = substream(1, "ridge")
    # tall shapes solve through A^T A, wide ones (p > n) through A A^T
    cases = [((15, 4), lam) for lam in (0.0, 1e-3, 1.0)]
    cases += [((6, 40), 1e-3), ((6, 40), 1.0), ((1, 3), 0.5), ((20, 21), 1e-2)]
    for (n, p), lam in cases:
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((n, 2))
        x = solve_ridge(a, b, lam)
        assert x.shape == (p, 2)
        atb = a.T @ b
        resid = (a.T @ a + lam * np.eye(p)) @ x - atb
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(atb))


def test_solve_ridge_singular_without_penalty():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
    with pytest.raises(SingularSystem):
        solve_ridge(a, np.ones((3, 1)), 0.0)
    # more columns than rows: A A^T = I is regular, but the minimiser is not unique
    with pytest.raises(SingularSystem):
        solve_ridge(np.eye(2, 3), np.ones((2, 1)), 0.0)


def test_solve_ridge_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_ridge(np.eye(2), np.ones((3, 1)), 0.0)
    with pytest.raises(DimensionError):
        solve_ridge(np.eye(2), np.ones((2, 1)), -1.0)


def test_truncated_svd_diagonal():
    _, s, _ = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(s, [3.0, 2.0], atol=1e-12)


def test_truncated_svd_rank_one_exact():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, -1.0])
    a = np.outer(u, v)
    uu, s, vt = truncated_svd(a, 1)
    assert np.linalg.norm(uu @ np.diag(s) @ vt - a) <= 1e-12


def test_truncated_svd_full_rank_reconstruction():
    rng = substream(2, "svd")
    a = rng.standard_normal((50, 10))
    u, s, vt = truncated_svd(a, 10)
    rel = np.linalg.norm(u @ np.diag(s) @ vt - a) / np.linalg.norm(a)
    assert rel <= 1e-8


def test_truncated_svd_orthonormal_columns():
    rng = substream(3, "svd")
    for n, p, r in ((12, 7, 3), (6, 9, 5), (20, 20, 10)):
        a = rng.standard_normal((n, p))
        u, _, _ = truncated_svd(a, r)
        assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-10
    # a graded spectrum, 1 down to 1e-8, tall and wide, so that U and V each
    # come from the Gram matrix once: the top 16 values span 1 to 8e-4
    spectrum = np.logspace(0, -8, 40)
    q1, _ = np.linalg.qr(rng.standard_normal((300, 40)))
    q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    for a in (q1 * spectrum @ q2.T, (q1 * spectrum @ q2.T).T):
        u, s, vt = truncated_svd(a, 16)
        assert np.max(np.abs(u.T @ u - np.eye(16))) <= 1e-10
        assert np.max(np.abs(vt @ vt.T - np.eye(16))) <= 1e-10
        assert np.max(np.abs(s / spectrum[:16] - 1.0)) <= 1e-10


def test_truncated_svd_rank_out_of_range():
    with pytest.raises(DimensionError):
        truncated_svd(np.eye(3), 0)
    with pytest.raises(DimensionError):
        truncated_svd(np.eye(3), 4)


@pytest.mark.parametrize("shape, cols", [
    ((10, 4), 2),                                   # fits in one block
    ((BLOCK_BYTES // 80 * 3 + 7, 10), 2),           # tall; the last row block is short
    ((10, BLOCK_BYTES // 80 * 3 + 7), 2),           # wide; the last column block is short
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
    # the scalar predictor keeps its map as the transpose of a C-ordered array
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
    dense = backward(net, cache, residuals)[:, :net.trunk_size]
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
    assert rel_err(rows.sq_norms(), np.einsum("ij,ij->i", dense, dense)) <= 1e-12
    w = rng.standard_normal((len(dense), 5))
    for order in ("C", "F"):
        assert rel_err(rows.t_dot(w, order), dense.T @ w) <= 1e-12
    assert rows.t_dot(w, "F").T.flags.c_contiguous
    m = rng.standard_normal((dense.shape[1], 4))
    for operand in (m, np.asfortranarray(m), m[:, :1]):
        assert rel_err(rows.dot(operand), dense @ operand) <= 1e-12
    keep = np.arange(len(dense)) % 3 != 1
    assert np.array_equal(rows[keep].dense(), dense[keep])


def test_factored_feature_gram_equals_the_bilinear_features_gram():
    rng = substream(8, "feature-gram")
    h, llh = rng.standard_normal((25, 6)), rng.standard_normal((25, 6))
    feats, rows = _bilinear(h, llh), _features(h, llh)
    assert np.array_equal(rows.dense(), feats)
    assert rel_err(rows.gram(), feats @ feats.T) <= 1e-12
    assert rel_err(rows.sq_norms(), np.einsum("ij,ij->i", feats, feats)) <= 1e-12


@pytest.mark.parametrize("n", [12, 60], ids=["wide", "tall"])
def test_solve_ridge_and_svd_take_factored_rows(n):
    # 12 rows of 42 columns take the kernel side, 60 rows the primal side
    rng = substream(9, f"factored-solve:{n}")
    rows = FactoredRows([(rng.standard_normal((n, 3)), rng.standard_normal((n, 4))),
                         (rng.standard_normal((n, 5)), rng.standard_normal((n, 2)))],
                        bias=True)
    dense = rows.dense()
    b = rng.standard_normal((n, 3))
    assert rel_err(solve_ridge(rows, b, 0.1), solve_ridge(dense, b, 0.1)) <= 1e-10
    targets = FactoredRows([(rng.standard_normal((n, 2)), rng.standard_normal((n, 3)))])
    features = rng.standard_normal((n, 4))
    assert rel_err(solve_ridge(features, targets, 0.1),
                   solve_ridge(features, targets.dense(), 0.1)) <= 1e-10
    u, s, vt = truncated_svd(rows, 3)
    ud, sd, vtd = truncated_svd(dense, 3)
    assert rel_err(s, sd) <= 1e-10
    assert rel_err((u * s) @ vt, (ud * sd) @ vtd) <= 1e-8


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
