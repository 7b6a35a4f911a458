import math

import pytest

from predgrad.analysis import BoundInputs, nc_bound, sc_bound, simulate_estimator
from predgrad.errors import DomainError, StepsizeError
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


def bound_inputs(**kw):
    base = dict(initial_gap=3.0, strong_convexity=0.5, smoothness=4.0, stepsize=0.2,
                variance=1.5, horizon=10)
    return BoundInputs(**{**base, **kw})


def test_sc_bound_at_horizon_zero_is_the_initial_gap():
    assert sc_bound(bound_inputs(horizon=0)) == pytest.approx(3.0, rel=1e-15)


def test_sc_bound_without_variance_contracts_the_gap():
    b = bound_inputs(variance=0.0, horizon=7)
    assert sc_bound(b) == pytest.approx((1 - 0.5 * 0.2) ** 7 * 3.0, rel=1e-14)


def test_sc_bound_approaches_the_noise_floor():
    floor = 4.0 * 0.2 * 1.5 / (2 * 0.5)
    assert sc_bound(bound_inputs(horizon=2000)) == pytest.approx(floor, rel=1e-12)
    # from above when the gap starts above the floor, from below otherwise
    assert floor < sc_bound(bound_inputs(horizon=30)) < 3.0
    assert 0.1 < sc_bound(bound_inputs(initial_gap=0.1, horizon=30)) < floor


def test_nc_bound_closed_form():
    b = bound_inputs(horizon=25)
    assert nc_bound(b) == pytest.approx(2 * 3.0 / (0.2 * 25) + 4.0 * 0.2 * 1.5, rel=1e-14)


def test_bound_argument_errors():
    with pytest.raises(StepsizeError):
        sc_bound(bound_inputs(stepsize=0.3))   # 1/L = 0.25
    with pytest.raises(StepsizeError):
        nc_bound(bound_inputs(stepsize=0.3))
    for alpha in (0.0, -1.0):
        with pytest.raises(DomainError):
            sc_bound(bound_inputs(strong_convexity=alpha))
    with pytest.raises(DomainError):
        nc_bound(bound_inputs(horizon=0))
