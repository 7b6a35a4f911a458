import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predgrad.analysis import (CostModel, break_even_satisfied, gamma, q_objective, rho_star,
                               rho_switch, simulate_estimator)
from predgrad.errors import DomainError
from predgrad.estimator import control_batch_size, v2_exact
from predgrad.trainer import BudgetLedger

TRIALS = 4000
DIM = 6


@pytest.mark.parametrize("f,m,rho,kappa", [
    (0.25, 100, 0.8, 1.0),
    (0.5, 10, 0.3, 0.5),
    (0.2, 20, -0.4, 2.0),
    (0.75, 8, 0.95, 1.2),
    (0.25, 100, 0.0, 0.0),   # the prediction does not vary: sigma_h = 0
])
def test_simulate_matches_exact_variance(f, m, rho, kappa):
    sigma_g = 1.5
    sigma_h = kappa * sigma_g
    tau = rho * sigma_g * sigma_h
    res = simulate_estimator(sigma_g, sigma_h, tau, DIM, f, m, TRIALS, seed=7)
    f_eff = control_batch_size(m, f) / m
    v = v2_exact(sigma_g, sigma_h, tau, f_eff, m)
    assert res.predicted_var == v
    # G - mu is an isotropic Gaussian in DIM coordinates with total variance v
    assert res.mean_err <= 3.0 * math.sqrt(v / TRIALS)
    assert abs(res.emp_var / v - 1.0) <= 6.0 * math.sqrt(2.0 / (DIM * TRIALS))


def test_simulate_is_deterministic_per_seed():
    args = (1.0, 1.0, 0.8, 8, 0.25, 100, 500)
    assert simulate_estimator(*args, seed=3) == simulate_estimator(*args, seed=3)
    assert simulate_estimator(*args, seed=3) != simulate_estimator(*args, seed=4)


# pass costs of any size, the cheap forward a share of forward + backward
COST_MODELS = st.builds(lambda b, fw, share: CostModel(b, fw, share * (b + fw)),
                        st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.01, 1.0))


@settings(max_examples=200)
@given(cm=COST_MODELS, m=st.integers(2, 1000), data=st.data())
def test_gamma_is_the_ledgers_ratio_of_predicted_to_vanilla_charges(cm, m, data):
    m_c = data.draw(st.integers(1, m))
    predicted, vanilla = BudgetLedger(cm), BudgetLedger(cm)
    predicted.charge(m_c, m - m_c)  # as a step charges
    vanilla.charge(m, 0)
    assert gamma(cm, m_c / m) == pytest.approx(predicted.cost_units / vanilla.cost_units,
                                               rel=1e-12)


@settings(max_examples=300)
@given(cm=COST_MODELS, f=st.floats(0.01, 0.99), rho=st.floats(-1.0, 1.0),
       kappa=st.floats(0.0, 3.0), sigma_g=st.floats(0.1, 10.0), m=st.integers(2, 1000))
def test_break_even_is_q_at_most_1_with_phi_from_the_exact_variance(cm, f, rho, kappa,
                                                                    sigma_g, m):
    sigma_h = kappa * sigma_g
    phi = v2_exact(sigma_g, sigma_h, rho * sigma_g * sigma_h, f, m) * m / sigma_g ** 2
    q = phi * gamma(cm, f)
    if abs(q - 1.0) > 1e-9:   # closer to parity, the two roundings may disagree
        assert break_even_satisfied(cm, f, rho, kappa) == (q <= 1.0)


@settings(max_examples=300)
@given(cm=COST_MODELS, f=st.floats(0.01, 0.99), kappa=st.floats(0.05, 3.0))
def test_the_break_even_verdict_flips_at_rho_star(cm, f, kappa):
    # an alignment is at most 1: above it, rho_star is no alignment and
    # phi refuses it
    star = rho_star(cm, f, kappa)
    if star - 1e-6 <= 1.0:
        assert not break_even_satisfied(cm, f, star - 1e-6, kappa)
    if star + 1e-6 <= 1.0:
        assert break_even_satisfied(cm, f, star + 1e-6, kappa)
    else:
        with pytest.raises(DomainError, match="rho"):
            break_even_satisfied(cm, f, star + 1e-6, kappa)


@settings(max_examples=100)
@given(cm=COST_MODELS, kappa=st.floats(0.05, 3.0))
def test_the_grid_minimum_of_q_leaves_f_1_at_rho_switch(cm, kappa):
    # the grid is dense next to 1, where the minimum moves first: 1e-3 above
    # rho_switch, Q is below Q(1) on at least (1 - 4e-4, 1)
    grid = np.concatenate([np.linspace(0.01, 1.0, 1001), 1.0 - np.geomspace(1e-2, 1e-8, 121)])

    def best_f(rho):
        return grid[np.argmin([q_objective(cm, f, rho, kappa) for f in grid])]

    # an alignment is at most 1: where rho_switch is not, f = 1 wins at
    # every alignment, rho = 1 the nearest to the switch
    switch = rho_switch(cm, kappa)
    assert best_f(min(switch - 1e-3, 1.0)) == 1.0
    if switch + 1e-3 <= 1.0:
        assert best_f(switch + 1e-3) < 1.0
