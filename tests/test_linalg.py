import numpy as np
import pytest

from predgrad.errors import DimensionError, SingularSystem
from predgrad.linalg import solve_ridge, truncated_svd
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


def test_truncated_svd_rank_out_of_range():
    with pytest.raises(DimensionError):
        truncated_svd(np.eye(3), 0)
    with pytest.raises(DimensionError):
        truncated_svd(np.eye(3), 4)
