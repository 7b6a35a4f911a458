import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predgrad.analysis import CostModel, f_star, q_objective
from predgrad.errors import DimensionError, InsufficientData
from predgrad.estimator import alignment_stats, combine, moment_stats
from predgrad.rng import substream


def brute_force_moments(gs, hs):
    """sigma_g, sigma_h and tau by explicit sums over examples."""
    n = len(gs)
    mu = sum(gs) / n
    mu_h = sum(hs) / n
    var_g = sum(float((g - mu) @ (g - mu)) for g in gs) / n
    var_h = sum(float((h - mu_h) @ (h - mu_h)) for h in hs) / n
    tau = sum(float((g - mu) @ (h - mu_h)) for g, h in zip(gs, hs)) / n
    return np.sqrt(var_g), np.sqrt(var_h), tau


@pytest.mark.parametrize("n, dim", [(2, 1), (5, 3), (32, 40)])
def test_alignment_stats_match_brute_force_moments(n, dim):
    rng = substream(50, f"align:{n}:{dim}")
    gs = rng.standard_normal((n, dim)) + 2.0
    hs = 0.7 * gs + 0.3 * rng.standard_normal((n, dim)) - 1.0
    stats = alignment_stats(gs, hs)
    sigma_g, sigma_h, tau = brute_force_moments(gs, hs)
    assert stats.n == n and not stats.degenerate
    assert np.isclose(stats.sigma_g, sigma_g, rtol=1e-12)
    assert np.isclose(stats.sigma_h, sigma_h, rtol=1e-12)
    assert np.isclose(stats.tau, tau, rtol=1e-12, atol=1e-14)
    assert np.isclose(stats.rho, tau / (sigma_g * sigma_h), rtol=1e-12)
    assert np.isclose(stats.kappa, sigma_h / sigma_g, rtol=1e-12)
    assert np.allclose(stats.mu, gs.mean(axis=0)) and np.allclose(stats.mu_h, hs.mean(axis=0))


def test_alignment_stats_of_identical_and_scaled_pairs():
    gs = substream(51, "scaled").standard_normal((8, 5))
    same = alignment_stats(gs, gs)
    assert np.isclose(same.rho, 1.0) and np.isclose(same.kappa, 1.0)
    flipped = alignment_stats(gs, -3.0 * gs)
    assert np.isclose(flipped.rho, -1.0) and np.isclose(flipped.kappa, 3.0)


def test_alignment_stats_degenerate_cases():
    varied = substream(52, "degenerate").standard_normal((6, 4))
    constant = np.tile(np.arange(4.0), (6, 1))
    no_h = alignment_stats(varied, constant)      # sigma_h = 0
    assert no_h.degenerate and no_h.sigma_h == 0.0
    assert no_h.rho == 0.0 and no_h.kappa == 0.0
    no_g = alignment_stats(constant, varied)      # sigma_g = 0
    assert no_g.degenerate and no_g.sigma_g == 0.0
    assert no_g.rho == 0.0 and no_g.kappa == 0.0


def test_alignment_stats_argument_errors():
    with pytest.raises(InsufficientData):
        alignment_stats(np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(DimensionError):
        alignment_stats(np.ones((4, 3)), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        alignment_stats(np.ones(4), np.ones(4))


def stats_from_moments(gs, hs):
    return moment_stats(len(gs), np.einsum("ij,ij->", gs, gs), np.einsum("ij,ij->", hs, hs),
                        np.einsum("ij,ij->", gs, hs), gs.sum(axis=0), hs.sum(axis=0))


def assert_same_stats(got, ref, rtol):
    assert got.n == ref.n and got.degenerate == ref.degenerate
    for name in ("sigma_g", "sigma_h", "kappa"):
        assert abs(getattr(got, name) - getattr(ref, name)) <= rtol * abs(getattr(ref, name))
    # rho and tau relative to their scales, 1 and sigma_g sigma_h
    assert abs(got.rho - ref.rho) <= rtol
    assert abs(got.tau - ref.tau) <= rtol * ref.sigma_g * ref.sigma_h
    assert np.allclose(got.mu, ref.mu, rtol=1e-12) and np.allclose(got.mu_h, ref.mu_h)


@pytest.mark.parametrize("n, dim", [(2, 1), (5, 3), (32, 40), (256, 300)])
def test_moment_stats_match_the_centred_form(n, dim):
    rng = substream(55, f"moments:{n}:{dim}")
    gs = rng.standard_normal((n, dim)) + 2.0
    hs = 0.7 * gs + 0.3 * rng.standard_normal((n, dim)) - 1.0
    assert_same_stats(stats_from_moments(gs, hs), alignment_stats(gs, hs), 1e-9)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 60), dim=st.integers(1, 30),
       mean=st.floats(0.0, 10.0), rho=st.floats(-0.99, 0.99),
       scale=st.floats(1e-3, 1e3))
def test_moment_stats_match_the_centred_form_under_a_common_mean(seed, n, dim, mean, rho,
                                                                  scale):
    # a mean of up to 10 sigma in every coordinate, shared by both sides, costs
    # the moment form about 100 eps of precision
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2, n, dim))
    gs = scale * (mean + noise[0])
    hs = scale * (mean + rho * noise[0] + np.sqrt(1 - rho ** 2) * noise[1])
    ref = alignment_stats(gs, hs)
    if ref.degenerate or ref.sigma_g < 1e-3 * scale or ref.sigma_h < 1e-3 * scale:
        return   # a spread that rounds away is no test of the moment form
    assert_same_stats(stats_from_moments(gs, hs), ref, 1e-9)


def test_moment_stats_degenerate_and_argument_cases():
    varied = substream(56, "moments-degenerate").standard_normal((6, 4))
    constant = np.tile(np.arange(4.0), (6, 1))
    no_h = stats_from_moments(varied, constant)
    assert no_h.degenerate and no_h.sigma_h == 0.0 and no_h.rho == 0.0
    with pytest.raises(InsufficientData):
        moment_stats(1, 1.0, 1.0, 1.0, np.ones(3), np.ones(3))


def test_combine_of_equal_control_sums_is_the_mean_prediction_to_the_bit():
    rng = substream(53, "combine-equal")
    for m, m_c in ((2, 1), (16, 4), (30, 8), (128, 32)):
        s_pred, t = rng.standard_normal((2, 50)) * 10.0 ** rng.integers(-3, 4, size=(2, 50))
        assert np.array_equal(combine(s_pred, t, t, m_c, m), s_pred / m)


def test_combine_is_the_split_form_of_the_estimator():
    # G = g_c + (1 - f)(h_p - h_c), with f = m_c / m and block means
    rng = substream(54, "combine-split")
    for _ in range(200):
        m = int(rng.integers(2, 300))
        m_c = int(rng.integers(1, m))
        m_p, f = m - m_c, m_c / m
        g_c, h_c, h_p = rng.standard_normal((3, 20)) * 10.0 ** rng.integers(-3, 4)
        g_c += rng.standard_normal()
        expected = g_c / m_c + (1 - f) * (h_p / m_p - h_c / m_c)
        scale = np.max(np.abs([g_c / m_c, h_c / m_c, h_p / m_p]))
        got = combine(h_c + h_p, g_c, h_c, m_c, m)
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@settings(max_examples=300)
@given(rho=st.floats(-1.0, 1.0), kappa=st.floats(0.05, 3.0),
       f_min=st.floats(0.001, 0.5), cheap=st.floats(0.05, 2.95))
def test_f_star_is_the_grid_minimum_of_q(rho, kappa, f_min, cheap):
    cm = CostModel(cheap_forward=cheap)
    best = f_star(cm, rho, kappa, f_min)
    assert f_min <= best <= 1.0
    grid = np.linspace(f_min, 1.0, 2001)
    q_grid = min(q_objective(cm, f, rho, kappa) for f in grid)
    assert q_objective(cm, best, rho, kappa) <= q_grid * (1.0 + 1e-9) + 1e-12
