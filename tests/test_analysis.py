import math

import pytest

from predgrad.analysis import simulate_estimator
from predgrad.estimator import control_batch_size, moments_from_values, v2_exact

TRIALS = 4000
DIM = 6


@pytest.mark.parametrize("f,m,rho,kappa", [
    (0.25, 100, 0.8, 1.0),
    (0.5, 10, 0.3, 0.5),
    (0.2, 20, -0.4, 2.0),
    (0.75, 8, 0.95, 1.2),
])
def test_simulate_matches_exact_variance(f, m, rho, kappa):
    sigma_g = 1.5
    sigma_h = kappa * sigma_g
    tau = rho * sigma_g * sigma_h
    res = simulate_estimator(sigma_g, sigma_h, tau, DIM, f, m, TRIALS, seed=7,
                             mu=0.3, mu_h=[-2.0, 1.0, 0.0, 4.0, 0.5, -1.0])
    f_eff = control_batch_size(m, f, warn=False) / m
    v = v2_exact(moments_from_values(sigma_g, sigma_h, tau), f_eff, m)
    assert res.predicted_var == v
    # G - mu is an isotropic Gaussian in DIM coordinates with total variance v
    assert res.mean_err <= 3.0 * math.sqrt(v / TRIALS)
    assert abs(res.emp_var / v - 1.0) <= 6.0 * math.sqrt(2.0 / (DIM * TRIALS))


def test_simulate_is_deterministic_per_seed():
    args = (1.0, 1.0, 0.8, 8, 0.25, 100, 500)
    assert simulate_estimator(*args, seed=3) == simulate_estimator(*args, seed=3)
    assert simulate_estimator(*args, seed=3) != simulate_estimator(*args, seed=4)
