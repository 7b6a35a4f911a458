import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predgrad import analysis
from predgrad.analysis import (CostModel, break_even_satisfied, gamma, q_objective, rho_star,
                               rho_switch, simulate_estimator)
from predgrad.errors import DomainError, MomentError
from predgrad.estimator import combine, control_batch_size, v2_exact
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


@pytest.mark.parametrize("args, want", [
    ((1, 1, 0.8, 8, 0.25, 100, 5000, 3),   # two chunks, the second short
     (0.0019504755061897994, 0.022148578784556797, 0.021999999999999992)),
    ((1, 1, 0.8, 8, 0.25, 100, 100000, 0),
     (0.00043824300485117496, 0.02197545962107068, 0.021999999999999992)),
    ((1.5, 1.2, -0.5, 6, 0.25, 100, 20001, 11),   # five chunks and a short sixth
     (0.0032068383830128363, 0.161514588907748, 0.1632)),
    ((1, 0.5, 0.3, 1, 0.5, 10, 3, 5),   # below one chunk
     (0.29721323888746837, 0.27655714174518836, 0.16499999999999998)),
    ((1, 0.5, 0.3, 1, 0.5, 10, 20001, 5),   # dim 1 sums its chunk's column pairwise
     (0.000959491647037966, 0.1665442239459307, 0.16499999999999998)),
], ids=["perfbench", "cli-default", "short-last-chunk", "below-one-chunk", "dim-1"])
def test_simulate_keeps_its_recorded_outputs_to_the_bit(args, want):
    assert simulate_estimator(*args) == want


LAW_TRIALS = 20000   # at DIM, five chunks of trials and a shorter last one


@pytest.mark.parametrize("f,m,rho,kappa", [
    (0.25, 100, 0.8, 1.0),
    (0.5, 10, -0.4, 2.0),
    (0.25, 100, 0.0, 0.0),   # h is exactly 0
])
def test_every_trial_goes_through_combine_with_block_sums_of_the_stated_law(
        monkeypatch, f, m, rho, kappa):
    calls = []

    def recording(s_pred, s_ctrl_true, s_ctrl_pred, m_c, m):
        calls.append((s_pred.copy(), s_ctrl_true.copy(), s_ctrl_pred.copy(), m_c, m))
        return combine(s_pred, s_ctrl_true, s_ctrl_pred, m_c, m)

    monkeypatch.setattr(analysis, "combine", recording)
    sigma_g = 1.5
    sigma_h = kappa * sigma_g
    tau = rho * sigma_g * sigma_h
    simulate_estimator(sigma_g, sigma_h, tau, DIM, f, m, LAW_TRIALS, seed=11)
    m_c = control_batch_size(m, f)
    m_p = m - m_c
    sizes = [len(s_pred) for s_pred, *_ in calls]
    assert sum(sizes) == LAW_TRIALS and len(sizes) > 2 and sizes[-1] < sizes[0]
    assert {tuple(call[3:]) for call in calls} == {(m_c, m)}
    s_pred, g_c, h_c = (np.concatenate([call[i] for call in calls]).ravel() for i in range(3))
    h_p = s_pred - h_c   # the prediction block's sum of h
    if kappa == 0.0:
        assert not h_c.any() and not s_pred.any()

    def check(x, y, cov, var_x, var_y):
        # E[xy] of zero-mean normals, estimated with variance (var_x var_y + cov^2) / n
        se = math.sqrt((var_x * var_y + cov * cov) / len(x))
        assert abs(np.mean(x * y) - cov) <= 5.0 * se

    # per coordinate: each block sum adds its block's per-example moments
    var_g, var_h, cov_gh = m_c * sigma_g ** 2 / DIM, m_c * sigma_h ** 2 / DIM, m_c * tau / DIM
    var_p = m_p * sigma_h ** 2 / DIM
    check(g_c, g_c, var_g, var_g, var_g)
    check(h_c, h_c, var_h, var_h, var_h)
    check(g_c, h_c, cov_gh, var_g, var_h)
    check(h_p, h_p, var_p, var_p, var_p)
    check(h_p, g_c, 0.0, var_p, var_g)
    check(h_p, h_c, 0.0, var_p, var_h)


@pytest.mark.parametrize("sigma_g, sigma_h, tau", [
    (math.nan, 1.0, 0.5),
    (1.0, math.nan, 0.5),
    (1.0, 1.0, math.nan),
    (math.inf, math.inf, 1.0),
    (1.0, 1.0, math.inf),
    (1e200, 1e200, 1.0),     # sigma_g^2 and sigma_h^2 overflow
    (1.0, 1e200, 1.0),       # sigma_h^2 overflows
    (1e-200, 0.0, 0.0),      # sigma_g^2 underflows to 0
    (1e-160, 1e-160, 0.0),   # sigma_g^2 is subnormal
], ids=["sigma_g-nan", "sigma_h-nan", "tau-nan", "sigma-inf", "tau-inf", "squares-overflow",
        "sigma_h-square-overflows", "sigma_g-square-underflows", "sigma_g-square-subnormal"])
def test_simulate_refuses_moments_that_are_not_finite(sigma_g, sigma_h, tau):
    with pytest.raises(MomentError, match="finite"):
        simulate_estimator(sigma_g, sigma_h, tau, DIM, 0.25, 100, 10, seed=0)


@pytest.mark.parametrize("sigma_g, trials", [(1e154, 10), (9e153, 1000)],
                         ids=["predicted-variance-overflows", "sum-of-squares-overflows"])
def test_simulate_refuses_moments_whose_variance_overflows(sigma_g, trials):
    # sigma_g^2 = 1e308 is finite, sigma_g^2 phi / m is not; at 9e153 it is,
    # and the sum of 1000 trials' squared errors is not
    with pytest.raises(MomentError, match="not finite"):
        simulate_estimator(sigma_g, sigma_g, 0.8 * sigma_g * sigma_g, DIM, 0.25, 100, trials,
                           seed=0)


def test_simulate_at_large_moments_is_the_unit_simulation_scaled():
    # tau^2 overflows at these moments; tau^2 / sigma_g^2 does not
    unit = simulate_estimator(1.0, 1.0, 0.8, DIM, 0.25, 100, 500, seed=3)
    big = simulate_estimator(1e100, 1e100, 0.8e200, DIM, 0.25, 100, 500, seed=3)
    assert big.emp_var / big.predicted_var == pytest.approx(unit.emp_var / unit.predicted_var,
                                                            rel=1e-12)
    assert big.mean_err / 1e100 == pytest.approx(unit.mean_err, rel=1e-12)


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
