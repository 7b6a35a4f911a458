import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from predgrad.analysis import CostModel, f_star, q_objective
from predgrad.errors import DimensionError, InsufficientData
from predgrad.estimator import combine, moment_stats
from predgrad.rng import substream

from oracles import alignment_stats


def brute_force_moments(gs, hs):
    """sigma_g, sigma_h and tau by explicit sums over examples."""
    n = len(gs)
    mu = sum(gs) / n
    mu_h = sum(hs) / n
    var_g = sum(float((g - mu) @ (g - mu)) for g in gs) / n
    var_h = sum(float((h - mu_h) @ (h - mu_h)) for h in hs) / n
    tau = sum(float((g - mu) @ (h - mu_h)) for g, h in zip(gs, hs)) / n
    return np.sqrt(var_g), np.sqrt(var_h), tau


NAN = (float("nan"), float("nan"))


def same_pair(got, want):
    """Equal floats, NaN equal to NaN."""
    return np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n, dim", [(2, 1), (5, 3), (32, 40)])
def test_alignment_stats_match_brute_force_moments(n, dim):
    rng = substream(50, f"align:{n}:{dim}")
    gs = rng.standard_normal((n, dim)) + 2.0
    hs = 0.7 * gs + 0.3 * rng.standard_normal((n, dim)) - 1.0
    rho, kappa = alignment_stats(gs, hs)
    sigma_g, sigma_h, tau = brute_force_moments(gs, hs)
    assert np.isclose(rho, tau / (sigma_g * sigma_h), rtol=1e-12)
    assert np.isclose(kappa, sigma_h / sigma_g, rtol=1e-12)


def test_alignment_stats_of_identical_and_scaled_pairs():
    gs = substream(51, "scaled").standard_normal((8, 5))
    assert np.allclose(alignment_stats(gs, gs), (1.0, 1.0))
    assert np.allclose(alignment_stats(gs, -3.0 * gs), (-1.0, 3.0))


def test_alignment_stats_degenerate_cases():
    varied = substream(52, "degenerate").standard_normal((6, 4))
    constant = np.tile(np.arange(4.0), (6, 1))
    assert same_pair(alignment_stats(varied, constant), NAN)     # sigma_h = 0
    assert same_pair(alignment_stats(constant, varied), NAN)     # sigma_g = 0


def test_alignment_stats_argument_errors():
    with pytest.raises(InsufficientData):
        alignment_stats(np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(DimensionError):
        alignment_stats(np.ones((4, 3)), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        alignment_stats(np.ones(4), np.ones(4))


def from_moments(gs, hs):
    return moment_stats(len(gs), np.einsum("ij,ij->", gs, gs), np.einsum("ij,ij->", hs, hs),
                        np.einsum("ij,ij->", gs, hs), gs.sum(axis=0), hs.sum(axis=0))


def assert_same_alignment(got, ref, rtol):
    # rho relative to its scale, 1
    assert abs(got[0] - ref[0]) <= rtol
    assert abs(got[1] - ref[1]) <= rtol * ref[1]


@pytest.mark.parametrize("n, dim", [(2, 1), (5, 3), (32, 40), (256, 300)])
def test_moment_stats_match_the_centred_form(n, dim):
    rng = substream(55, f"moments:{n}:{dim}")
    gs = rng.standard_normal((n, dim)) + 2.0
    hs = 0.7 * gs + 0.3 * rng.standard_normal((n, dim)) - 1.0
    assert_same_alignment(from_moments(gs, hs), alignment_stats(gs, hs), 1e-9)


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
    sigma_g, sigma_h, _ = brute_force_moments(gs, hs)
    if sigma_g < 1e-3 * scale or sigma_h < 1e-3 * scale:
        return   # a spread that rounds away is no test of the moment form
    assert_same_alignment(from_moments(gs, hs), alignment_stats(gs, hs), 1e-9)


def test_moment_stats_degenerate_and_argument_cases():
    varied = substream(56, "moments-degenerate").standard_normal((6, 4))
    constant = np.tile(np.arange(4.0), (6, 1))
    assert same_pair(from_moments(varied, constant), NAN)
    assert same_pair(from_moments(constant, varied), NAN)
    with pytest.raises(InsufficientData):
        moment_stats(1, 1.0, 1.0, 1.0, np.ones(3), np.ones(3))


# the sums combine takes: Python floats, a trunk-length vector (8-64-64-3)
# and a block of Monte Carlo trials
COMBINE_SHAPES = [(), (4736,), (2730, 8)]


def draw_sums(rng, shape, k):
    sums = rng.standard_normal((k, *shape)) * 10.0 ** rng.integers(-3, 4, size=(k, *shape))
    return [float(s) for s in sums] if shape == () else list(sums)


def checked_combine(s_pred, s_ctrl_true, s_ctrl_pred, m_c, m):
    """combine's result, checked against the bits of the plain expression
    and for leaving its three sums as they were."""
    before = [np.copy(s) for s in (s_pred, s_ctrl_true, s_ctrl_pred)]
    got = combine(s_pred, s_ctrl_true, s_ctrl_pred, m_c, m)
    want = s_pred / m + (s_ctrl_true - s_ctrl_pred) / m_c
    assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert all(np.array_equal(b, s) for b, s in zip(before, (s_pred, s_ctrl_true, s_ctrl_pred)))
    return got


def test_combine_of_equal_control_sums_is_the_mean_prediction_to_the_bit():
    rng = substream(53, "combine-equal")
    for shape in [(50,), *COMBINE_SHAPES]:
        for m, m_c in ((2, 1), (16, 4), (30, 8), (128, 32)):
            s_pred, t = draw_sums(rng, shape, 2)
            assert np.array_equal(checked_combine(s_pred, t, t, m_c, m), s_pred / m)


def test_combine_is_the_split_form_of_the_estimator():
    # G = g_c + (1 - f)(h_p - h_c), with f = m_c / m and block means
    rng = substream(54, "combine-split")
    for shape in [(20,)] * 200 + COMBINE_SHAPES * 20:
        m = int(rng.integers(2, 300))
        m_c = int(rng.integers(1, m))
        m_p, f = m - m_c, m_c / m
        g_c, h_c, h_p = rng.standard_normal((3, *shape)) * 10.0 ** rng.integers(-3, 4)
        g_c += rng.standard_normal()
        if shape == ():
            g_c, h_c, h_p = float(g_c), float(h_c), float(h_p)
        expected = g_c / m_c + (1 - f) * (h_p / m_p - h_c / m_c)
        scale = np.max(np.abs([g_c / m_c, h_c / m_c, h_p / m_p]))
        got = checked_combine(h_c + h_p, g_c, h_c, m_c, m)
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@settings(max_examples=300)
@given(m=st.integers(2, 1000), data=st.data(), dim=st.integers(1, 8),
       scale=st.floats(1e-6, 1e6))
def test_combine_of_mean_sums_is_the_true_mean(m, data, dim, scale):
    # gradient pairs with means mu and mu_h enter the combination as their
    # block sums m mu_h, m_c mu and m_c mu_h: unbiased for mu whatever mu_h
    m_c = data.draw(st.integers(1, m - 1))
    mu, mu_h = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim,
                                                   max_size=2 * dim))).reshape(2, dim)
    got = combine(m * mu_h, m_c * mu, m_c * mu_h, m_c, m)
    assert np.all(np.abs(got - mu) <= 8 * np.finfo(float).eps * (np.abs(mu) + np.abs(mu_h)))


@settings(max_examples=300)
@given(rho=st.floats(-1.0, 1.0), kappa=st.floats(0.05, 3.0),
       f_min=st.floats(0.001, 0.5), cheap=st.floats(0.05, 2.95))
@example(rho=1.0, kappa=0.0, f_min=0.01, cheap=0.7)   # kappa 0: rho_switch is +inf
@example(rho=0.5, kappa=0.0, f_min=0.2, cheap=2.9)
@example(rho=-1.0, kappa=0.0, f_min=0.001, cheap=0.05)
def test_f_star_is_the_grid_minimum_of_q(rho, kappa, f_min, cheap):
    cm = CostModel(cheap_forward=cheap)
    best = f_star(cm, rho, kappa, f_min)
    assert f_min <= best <= 1.0
    grid = np.linspace(f_min, 1.0, 2001)
    q_grid = min(q_objective(cm, f, rho, kappa) for f in grid)
    assert q_objective(cm, best, rho, kappa) <= q_grid * (1.0 + 1e-9) + 1e-12
