import tracemalloc

import numpy as np
import pytest

from predgrad import linalg, predictor
from predgrad.errors import DimensionError, InsufficientData
from predgrad.network import (NetworkConfig, backward, backward_sum, forward, init_network,
                              loss_and_residual)
from predgrad.predictor import (FitRows, PerfectPredictor, RefitPolicy, ScalarPredictor,
                                StructuredPredictor, choose_rank, fit_scalar,
                                fit_structured, predict_scalar, predict_structured,
                                should_refit)
from predgrad.rng import substream


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def deep_linear_net(seed=0, dim=4):
    # square identity-activation layers keep the trunk gradient an exact
    # linear function of the head gradient
    cfg = NetworkConfig(input_dim=dim, hidden_widths=(dim, dim), output_dim=1,
                        activation="identity", seed=seed)
    return init_network(cfg)


def scalar_rows(net, xs, ys):
    llh, output, cache = forward(net, xs)
    _, residuals = loss_and_residual(output, ys, "squared_scalar")
    grads = backward(net, cache, residuals)
    return FitRows.from_pass(llh, residuals, grads[:, :net.trunk_size], net.head_weight)


def test_scalar_predictor_exact_on_deep_linear_net():
    net = deep_linear_net(seed=3)
    rng = substream(20, "lin")
    xs = rng.standard_normal((60, 4))
    ys = rng.standard_normal(60)
    pred = fit_scalar(scalar_rows(net, xs, ys), lam=0.0)

    held_x = rng.standard_normal((20, 4))
    held_y = rng.standard_normal(20)
    pt = net.trunk_size
    for x, y in zip(held_x, held_y):
        llh, output, cache = forward(net, x)
        _, residual = loss_and_residual(output, np.array([y]), "squared_scalar")
        true_grad = backward(net, cache, residual)
        est = predict_scalar(pred, llh, residual)
        assert cosine(est[:pt], true_grad[:pt]) >= 0.999
        rel = np.linalg.norm(est[:pt] - true_grad[:pt]) / np.linalg.norm(true_grad[:pt])
        assert rel <= 1e-6
        # head part is the exact closed form
        assert np.max(np.abs(est[pt:] - true_grad[pt:])) <= 1e-12


def test_fit_scalar_rejects_zero_residuals():
    net = deep_linear_net()
    rng = substream(21, "zr")
    xs = rng.standard_normal((10, 4))
    rows = scalar_rows(net, xs, rng.standard_normal(10))
    with pytest.raises(InsufficientData):
        fit_scalar(rows._replace(residual=np.zeros_like(rows.residual)))


def test_fit_scalar_needs_enough_samples():
    net = deep_linear_net()
    rng = substream(22, "few")
    xs = rng.standard_normal((3, 4))
    with pytest.raises(InsufficientData):
        fit_scalar(scalar_rows(net, xs, rng.standard_normal(3)))


def test_fit_scalar_large_lambda_shrinks_to_zero():
    net = deep_linear_net(seed=4)
    rng = substream(23, "shrink")
    xs = rng.standard_normal((30, 4))
    pred = fit_scalar(scalar_rows(net, xs, rng.standard_normal(30)), lam=1e12)
    assert np.max(np.abs(pred.coef)) <= 1e-8
    est = predict_scalar(pred, xs[0][: net.config.last_hidden], np.array([1.0]))
    assert np.max(np.abs(est[:net.trunk_size])) <= 1e-6


def test_predict_scalar_zero_residual_and_zero_map():
    net = deep_linear_net(seed=5)
    rng = substream(24, "pz")
    xs = rng.standard_normal((30, 4))
    pred = fit_scalar(scalar_rows(net, xs, rng.standard_normal(30)))
    llh = rng.standard_normal(4)
    est = predict_scalar(pred, llh, np.zeros(1))
    assert np.array_equal(est, np.zeros(net.n_params))

    zero = fit_scalar(scalar_rows(net, xs, rng.standard_normal(30)), lam=0.0)
    zero.coef = np.zeros_like(zero.coef)
    est = predict_scalar(zero, llh, np.array([1.0]))
    assert np.array_equal(est[:net.trunk_size], np.zeros(net.trunk_size))
    aug = np.concatenate([llh, [1.0]])
    assert np.allclose(est[net.trunk_size:], aug * 1.0, atol=1e-14)


def planted_structured(rng, n, p_t=30, d=5, c=3, r=2):
    basis, _ = np.linalg.qr(rng.standard_normal((p_t, r)))
    maps_true = rng.standard_normal((r, d, d + 1))
    head_w = rng.standard_normal((c, d))
    llh = rng.standard_normal((n, d))
    residual = rng.standard_normal((n, c))
    h = residual @ head_w
    coeff = np.einsum("ni,rij,nj->nr", h, maps_true, np.c_[llh, np.ones(n)])
    return FitRows(llh, residual, h, coeff @ basis.T), head_w


def test_structured_predictor_recovers_planted_model():
    rng = substream(25, "plant")
    rows, head_w = planted_structured(rng, 150)
    pred = fit_structured(FitRows(*(a[:120] for a in rows)), r=2, lam=1e-10)
    for llh, residual, _, trunk_grad in zip(*(a[120:] for a in rows)):  # held out
        est = predict_structured(pred, llh, residual, head_w)
        assert cosine(est[:len(trunk_grad)], trunk_grad) >= 0.99


def primal_ridge(a, b, lam):
    """The normal-equation ridge solve (A^T A + lam I) X = A^T B, whatever A's
    shape, on the formed rows of an A given as factors."""
    if isinstance(a, linalg.FactoredRows):
        a = a.dense()
    return np.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]), a.T @ b)


def test_structured_kernel_form_fit_predicts_like_the_primal_fit(monkeypatch):
    # D(D+1) = 72 bilinear features on 40 rows: the fit solves through the
    # 40 x 40 kernel; the 72 x 72 primal solve is the reference
    rng = substream(26, "kernel")
    rows, head_w = planted_structured(rng, 60, d=8)
    fit_rows = FitRows(*(a[:40] for a in rows))
    dual = fit_structured(fit_rows)
    monkeypatch.setattr(predictor, "solve_ridge", primal_ridge)
    primal = fit_structured(fit_rows)
    assert dual.ridge_lambda == primal.ridge_lambda > 0
    assert dual.rank == primal.rank == 2
    llh, residual, _, trunk_grad = (a[40:] for a in rows)
    est = predict_structured(dual, llh, residual, head_w)[:, :trunk_grad.shape[1]]
    ref = predict_structured(primal, llh, residual, head_w)[:, :trunk_grad.shape[1]]
    assert np.linalg.norm(est - ref) <= 1e-8 * np.linalg.norm(ref)


def test_structured_fit_memory_stays_within_the_kernel_size():
    # 80 rows of D = 64: the primal system would be 4160 x 4160 (138 MB)
    rng = substream(34, "fit-memory")
    head_w = rng.standard_normal((3, 64))
    rows = FitRows.from_pass(rng.standard_normal((80, 64)), rng.standard_normal((80, 3)),
                             rng.standard_normal((80, 200)), head_w)
    tracemalloc.start()
    try:
        pred = fit_structured(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.maps.shape[1:] == (64, 65)
    assert peak < 32e6


def test_structured_rank_one_parallel_gradients():
    rng = substream(27, "rank1")
    direction = rng.standard_normal(20)
    direction /= np.linalg.norm(direction)
    head_w = rng.standard_normal((2, 4))
    llh = rng.standard_normal((12, 4))
    residuals = rng.standard_normal((12, 2))
    scales = rng.uniform(0.5, 2.0, size=(12, 1))
    rows = FitRows.from_pass(llh, residuals, scales * direction, head_w)
    pred = fit_structured(rows, r=1)
    assert abs(cosine(pred.basis[:, 0], direction)) >= 1.0 - 1e-10
    g = rows.trunk_grad[0]
    assert abs(cosine(pred.basis @ (pred.basis.T @ g), g)) >= 1.0 - 1e-10


def test_structured_large_lambda_kills_maps():
    rng = substream(28, "slam")
    rows, _ = planted_structured(rng, 60)
    pred = fit_structured(rows, r=2, lam=1e14)
    assert np.max(np.abs(pred.maps)) <= 1e-8


def test_predict_structured_zero_residual():
    rng = substream(29, "pz2")
    rows, head_w = planted_structured(rng, 60)
    pred = fit_structured(rows, r=2)
    est = predict_structured(pred, rng.standard_normal(5), np.zeros(3), head_w)
    assert np.array_equal(est, np.zeros_like(est))


def test_predict_structured_linear_and_scale_equivariant():
    rng = substream(30, "lin2")
    rows, head_w = planted_structured(rng, 60)
    pred = fit_structured(rows, r=2)
    llh = rng.standard_normal(5)
    r1 = rng.standard_normal(3)
    r2 = rng.standard_normal(3)
    e1 = predict_structured(pred, llh, r1, head_w)
    e2 = predict_structured(pred, llh, r2, head_w)
    e12 = predict_structured(pred, llh, r1 + r2, head_w)
    assert np.max(np.abs(e12 - (e1 + e2))) <= 1e-10
    alpha = -2.5
    ea = predict_structured(pred, llh, alpha * r1, head_w)
    assert np.allclose(ea, alpha * e1, atol=1e-10)


def test_classification_residual_uses_same_path():
    rng = substream(31, "cls")
    rows, head_w = planted_structured(rng, 60)
    pred = fit_structured(rows, r=2)
    llh = rng.standard_normal(5)
    _, residual = loss_and_residual(rng.standard_normal(3), 1, "cross_entropy", 0.05)
    as_regression = residual.copy()
    e_cls = predict_structured(pred, llh, residual, head_w)
    e_reg = predict_structured(pred, llh, as_regression, head_w)
    assert np.array_equal(e_cls, e_reg)


def test_predicted_head_gradient_always_exact():
    rng = substream(32, "hexact")
    net = init_network(NetworkConfig(4, (6,), 3, activation="tanh", seed=8))
    pt = net.trunk_size
    llh, output, cache = forward(net, rng.standard_normal((40, 4)))
    _, residuals = loss_and_residual(output, rng.integers(3, size=40), "cross_entropy", 0.05)
    grads = backward(net, cache, residuals)
    pred = fit_structured(FitRows.from_pass(llh, residuals, grads[:, :pt], net.head_weight))
    for _ in range(10):
        x = rng.standard_normal(4)
        llh, output, cache = forward(net, x)
        _, residual = loss_and_residual(output, int(rng.integers(3)),
                                        "cross_entropy", 0.05)
        true_head = backward(net, cache, residual)[pt:]
        est = predict_structured(pred, llh, residual, net.head_weight)
        assert np.max(np.abs(est[pt:] - true_head)) <= 1e-12


def test_fit_structured_sample_and_rank_requirements():
    rng = substream(33, "req")
    rows, _ = planted_structured(rng, 4)
    with pytest.raises(InsufficientData):
        fit_structured(rows, r=2)  # needs at least D+1 = 6
    rows, _ = planted_structured(rng, 10)
    with pytest.raises(DimensionError):
        fit_structured(rows, r=50)


def test_should_refit_schedule():
    policy = RefitPolicy(period=50, buffer_capacity=64)
    assert should_refit(policy, 50)
    assert not should_refit(policy, 49)
    assert not should_refit(policy, 0)
    assert should_refit(policy, 100)


def test_choose_rank_energy_rule():
    assert choose_rank(np.array([3.0, 2.0, 1e-9]), cap=10) == 2
    assert choose_rank(np.array([5.0, 4.0, 3.0, 2.0]), cap=2) == 2
    assert choose_rank(np.array([1.0]), cap=10) == 1


def batch_predictors(n=40):
    """Scalar-output, vector-output and exact cases:
    (net, predictor, inputs, forward cache, residuals)."""
    rng = substream(43, "batch-predict")
    cases = []
    for out, kind in ((1, "squared_scalar"), (4, "squared_vector"), (3, "squared_vector")):
        net = init_network(NetworkConfig(8, (24, 16), out, activation="tanh", seed=out))
        xs = rng.standard_normal((n, 8))
        _, output, cache = forward(net, xs)
        _, residuals = loss_and_residual(output, rng.standard_normal((n, out)), kind)
        pt, d = net.trunk_size, net.config.last_hidden
        if out == 1:
            # the fit stores the transpose of its solution
            pred = ScalarPredictor(coef=rng.standard_normal((d + 1, pt)).T)
        elif out == 4:
            basis, _ = np.linalg.qr(rng.standard_normal((pt, 6)))
            pred = StructuredPredictor(basis=basis, maps=rng.standard_normal((6, d, d + 1)),
                                       rank=6)
        else:
            pred = PerfectPredictor()
        cases.append((net, pred, xs, cache, residuals))
    return cases


def single_prediction(net, pred, x, llh, residual):
    if pred.kind == "scalar":
        return predict_scalar(pred, llh, residual)
    if pred.kind == "structured":
        return predict_structured(pred, llh, residual, net.head_weight)
    return backward(net, forward(net, x)[2], residual)


def test_predict_batch_rows_equal_single_example_calls():
    for net, pred, xs, cache, residuals in batch_predictors():
        llh = cache.act[-1]
        rows = pred.predict_batch(net, cache, residuals)
        assert rows.shape == (len(llh), net.n_params)
        for i in range(len(llh)):
            one = single_prediction(net, pred, xs[i], llh[i], residuals[i])
            assert np.max(np.abs(rows[i] - one)) <= 1e-12 * np.max(np.abs(one))
        # the sum path forms the rows' sum without the rows
        total = rows.sum(axis=0)
        (summed,) = pred.predict_sums(net, [(cache, residuals)])
        assert summed.shape == (net.n_params,)
        assert np.linalg.norm(summed - total) <= 1e-12 * np.linalg.norm(total)


@pytest.mark.parametrize("block_bytes", [linalg.BLOCK_BYTES, 1024],
                         ids=["one-block", "many-blocks"])
def test_predict_sums_equal_each_parts_summed_rows(monkeypatch, block_bytes):
    # 1024-byte blocks send the small matrices through the blocked product
    monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    for net, pred, _, cache, residuals in batch_predictors():
        ctrl = np.arange(3, 40, 4)
        parts = [(cache, residuals), (cache.rows(ctrl), residuals[ctrl]),
                 (cache.rows([5]), residuals[[5]])]
        for k in (1, 2, 3):
            sums = pred.predict_sums(net, parts[:k])
            assert len(sums) == k
            for summed, (c, r) in zip(sums, parts):
                total = pred.predict_batch(net, c, r).sum(axis=0)
                assert summed.shape == (net.n_params,)
                assert np.linalg.norm(summed - total) <= 1e-12 * np.linalg.norm(total)
                if pred.kind == "perfect":
                    assert np.array_equal(summed, backward_sum(net, c, r))
