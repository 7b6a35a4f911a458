import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from predgrad import linalg, predictor
from predgrad.data import gen_blobs, gen_regression
from predgrad.errors import DimensionError, InsufficientData
from predgrad.network import (NetworkConfig, forward, init_network, loss_and_residual,
                              trunk_rows)
from predgrad.predictor import (RESIDUAL_FLOOR, FeedbackPredictor, FitRows, PerfectPredictor,
                                RefitPolicy, StructuredPredictor, choose_rank, fit_feedback,
                                fit_structured, should_refit, trunk_alignment)
from predgrad.rng import substream

from oracles import (alignment_stats, backward, factored, gradient_rows, pass_rows,
                     predict_structured, set_params)


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


@pytest.fixture
def fix(monkeypatch):
    """Fix the rank or the ridge lambda of the fits that follow, in place of
    the rules that no program overrides: ``fix(r=2, lam=1e-10)``."""
    def fixed(r=None, lam=None):
        if r is not None:
            monkeypatch.setattr(predictor, "choose_rank", lambda singulars, cap: r)
        if lam is not None:
            monkeypatch.setattr(predictor, "_default_lambda", lambda sq_norms: lam)
    return fixed


def feedback_sample(net, ds, idx):
    """A pass on the examples idx: (cache, residuals, its FitRows)."""
    _, output, cache = forward(net, ds.features[idx])
    _, residuals = loss_and_residual(output, ds.targets[idx], ds.loss_kind)
    return cache, residuals, pass_rows(net, cache, residuals)


def feedback_case(data, hidden=(5, 6), activation="tanh", n=200):
    """A dataset of the named kind and a net on it."""
    if data == "regression":
        ds, out = gen_regression(n, 4, 0.05, 20, val_fraction=0.0), 1
    else:
        ds, out = gen_blobs(n, 3, 4, 6.0, 21, val_fraction=0.0), 3
    return ds, init_network(NetworkConfig(4, hidden, out, activation=activation,
                                          seed=len(hidden)))


@pytest.mark.parametrize("data", ["regression", "blobs"])
def test_feedback_predictor_exact_on_identity_nets(fix, data):
    # with identity activations each layer's pre-activation gradient is a
    # fixed linear map of the residual, which the fit recovers; a tiny ridge
    # keeps the blobs system, whose residuals sum to 0, positive definite
    ds, net = feedback_case(data, activation="identity")
    *_, rows = feedback_sample(net, ds, np.arange(100))
    fix(lam=1e-12)
    pred = fit_feedback(rows)
    rho, kappa = trunk_alignment(pred, net, feedback_sample(net, ds, np.arange(100, 200))[2])
    assert rho >= 1 - 1e-9
    assert abs(kappa - 1) <= 1e-9


@pytest.mark.parametrize("hidden", [(7,), (6, 9), (9, 4, 6)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("data", ["regression", "blobs"])
def test_feedback_sums_and_statistics_match_its_formed_rows(data, activation, hidden):
    ds, net = feedback_case(data, hidden, activation)
    pred = fit_feedback(feedback_sample(net, ds, np.arange(100))[2])
    cache, residuals, rows = feedback_sample(net, ds, np.arange(100, 200))
    formed = pred.trunk_rows(net, rows).dense()
    assert formed.shape == rows.trunk_grad.shape
    (summed,) = pred.predict_sums(net, [(cache, residuals)])
    total = formed.sum(axis=0)
    assert np.linalg.norm(summed - total) <= 1e-12 * np.linalg.norm(total)
    rho, kappa = trunk_alignment(pred, net, rows)
    ref_rho, ref_kappa = alignment_stats(rows.trunk_grad.dense(), formed)
    assert kappa == pytest.approx(ref_kappa, rel=1e-12)
    assert abs(rho - ref_rho) <= 1e-12


@pytest.mark.parametrize("fit", [fit_feedback, fit_structured])
def test_rows_at_the_residual_floor_are_left_out_of_a_fit(fit):
    # rows whose residuals are 0 or within RESIDUAL_FLOOR carry no fit
    # signal: the fit is that of the other rows alone, bit for bit
    ds, net = feedback_case("blobs")
    _, output, cache = forward(net, ds.features[:80])
    _, residuals = loss_and_residual(output, ds.targets[:80], ds.loss_kind)
    zeroed, low = [3, 9], [40, 61]
    residuals[zeroed] = 0.0
    residuals[low] *= 0.5 * RESIDUAL_FLOOR / np.abs(residuals[low]).max(axis=1, keepdims=True)
    keep = np.ones(80, dtype=bool)
    keep[zeroed + low] = False
    trunk = trunk_rows(net, cache, residuals)
    every = fit(FitRows(cache.act[-1], residuals, net.head_weight, trunk))
    alone = fit(FitRows(cache.act[-1][keep], residuals[keep], net.head_weight, trunk[keep]))
    assert every.n_fit == 76
    for f in fields(every):
        got, want = np.asarray(getattr(every, f.name)), np.asarray(getattr(alone, f.name))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name


def test_fit_feedback_rejects_zero_residuals():
    ds, net = feedback_case("regression")
    *_, rows = feedback_sample(net, ds, np.arange(10))
    with pytest.raises(InsufficientData):
        fit_feedback(rows._replace(residual=np.zeros_like(rows.residual)))


def test_fit_feedback_needs_enough_samples():
    # C = 3 rows for its C x C solve, whatever the widths (D+1 = 7)
    ds, net = feedback_case("blobs")
    *_, rows = feedback_sample(net, ds, np.arange(2))
    with pytest.raises(InsufficientData, match="C = 3 usable samples, got 2"):
        fit_feedback(rows)
    *_, rows = feedback_sample(net, ds, np.arange(3))
    assert fit_feedback(rows).n_fit == 3


def test_fit_feedback_large_lambda_shrinks_to_zero(fix):
    ds, net = feedback_case("blobs")
    *_, rows = feedback_sample(net, ds, np.arange(30))
    fix(lam=1e12)
    pred = fit_feedback(rows)
    assert pred.ridge_lambda == 1e12
    assert np.max(np.abs(pred.b)) <= 1e-8
    assert np.max(np.abs(pred.trunk_rows(net, rows).dense())) <= 1e-6


def test_feedback_zero_residual_and_zero_map(predicted_rows):
    ds, net = feedback_case("regression")
    cache, residuals, rows = feedback_sample(net, ds, np.arange(30))
    pred = fit_feedback(rows)
    est = predicted_rows(net, pred, pass_rows(net, cache, np.zeros_like(residuals)))
    assert np.array_equal(est, np.zeros((30, net.config.n_params)))

    zero = FeedbackPredictor(b=np.zeros_like(pred.b))
    est = predicted_rows(net, zero, pass_rows(net, cache, residuals))
    pt = net.config.trunk_size
    assert np.array_equal(est[:, :pt], np.zeros((30, pt)))
    assert np.array_equal(est[:, pt:], backward(net, cache, residuals)[:, pt:])


def planted_structured(rng, n, p_t=30, d=5, c=3, r=2):
    basis, _ = np.linalg.qr(rng.standard_normal((p_t, r)))
    maps_true = rng.standard_normal((r, d, d + 1))
    head_w = rng.standard_normal((c, d))
    llh = rng.standard_normal((n, d))
    residual = rng.standard_normal((n, c))
    coeff = np.einsum("ni,rij,nj->nr", residual @ head_w, maps_true, np.c_[llh, np.ones(n)])
    return FitRows(llh, residual, head_w, factored(coeff @ basis.T)), head_w


def test_structured_predictor_recovers_planted_model(fix):
    rng = substream(25, "plant")
    rows, head_w = planted_structured(rng, 150)
    fix(r=2, lam=1e-10)
    pred = fit_structured(rows.rows(slice(0, 120)))
    assert (pred.rank, pred.ridge_lambda) == (2, 1e-10)
    for llh, residual, trunk_grad in zip(rows.llh[120:], rows.residual[120:],
                                         rows.trunk_grad.dense()[120:]):  # held out
        est = predict_structured(pred, llh, residual, head_w)
        assert cosine(est[:len(trunk_grad)], trunk_grad) >= 0.99


def svd_ridge(f, t, lam):
    """argmin_X ||F X - T||^2 + lam ||X||^2, through the SVD of F."""
    u, s, vt = np.linalg.svd(f, full_matrices=False)
    return vt.T @ ((s / (s ** 2 + lam))[:, None] * (u.T @ t))


# (C, D, fit rows, case): the fit solves in q(D+1) columns, q = min(C, D),
# on the primal side of solve_ridge when that is at most the rows, else on
# the kernel side
@pytest.mark.parametrize("c, d, n, case", [
    (1, 8, 40, "squared"), (3, 8, 20, "squared"), (3, 8, 60, "squared"),
    (5, 5, 20, "squared"), (5, 5, 40, "squared"), (7, 4, 12, "squared"),
    (7, 4, 30, "squared"), (3, 6, 15, "zero-row"), (3, 6, 40, "zero-row"),
    (3, 6, 15, "cross_entropy"), (3, 6, 40, "cross_entropy")])
def test_structured_fit_predicts_like_a_ridge_on_the_formed_features(c, d, n, case):
    # the reference regresses the coefficient targets on the formed D(D+1)
    # bilinear features h x [llh; 1], h = W_a^T r, with the fit's basis and lambda
    rng = substream(26, f"reduced-fit:{c}:{d}:{n}:{case}")
    head_w = rng.standard_normal((c, d))
    if case == "zero-row":
        head_w[1] = 0.0
    llh, trunk = rng.standard_normal((n + 20, d)), rng.standard_normal((n + 20, 30))
    if case == "cross_entropy":
        _, residual = loss_and_residual(rng.standard_normal((n + 20, c)),
                                        rng.integers(c, size=n + 20), "cross_entropy")
    else:
        residual = rng.standard_normal((n + 20, c))
    pred = fit_structured(FitRows(llh[:n], residual[:n], head_w, factored(trunk[:n])))
    feats = np.einsum("ni,nj->nij", residual @ head_w, np.c_[llh, np.ones(n + 20)]).reshape(
        n + 20, -1)
    lam = 1e-6 * np.mean(np.einsum("ij,ij->i", feats[:n], feats[:n]))
    assert pred.ridge_lambda == pytest.approx(lam, rel=1e-12)
    weights = svd_ridge(feats[:n], trunk[:n] @ pred.basis, pred.ridge_lambda)
    ref = feats[n:] @ weights @ pred.basis.T
    est = predict_structured(pred, llh[n:], residual[n:], head_w)[:, :30]
    assert np.linalg.norm(est - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(4))
def test_structured_fit_does_not_amplify_rounding_in_the_residuals(seed):
    # an 8-16-1 regression fit sample's residuals moved by 1e-15 relative
    # move the held-out predicted trunk sum by about as much
    ds = gen_regression(600, 8, 0.05, 1, val_fraction=0.0)
    net = init_network(NetworkConfig(8, (16,), 1, activation="tanh", seed=seed))
    *_, rows = feedback_sample(net, ds, np.arange(256))
    noise = 1 + 1e-15 * substream(seed, "rounding").standard_normal(rows.residual.shape)
    cache, residuals, *_ = feedback_sample(net, ds, np.arange(256, 600))  # held out
    sums = []
    for residual in (rows.residual, rows.residual * noise):
        pred = fit_structured(FitRows(rows.llh, residual, net.head_weight, rows.trunk_grad))
        sums.append(pred.predict_sums(net, [(cache, residuals)])[0])
    assert np.linalg.norm(sums[1] - sums[0]) <= 1e-12 * np.linalg.norm(sums[0])


@pytest.mark.parametrize("data, hidden", [("regression", (5, 6)), ("blobs", (5, 6)),
                                          ("blobs", (5, 2))], ids=["C=1", "C=3", "C>D"])
def test_factored_maps_predict_as_the_formed_maps(data, hidden):
    # the formed maps S_k = Q Y_k with Q = I_D are the same predictor with
    # q = D, at any later head weight
    ds, net = feedback_case(data, hidden)
    pred = fit_structured(feedback_sample(net, ds, np.arange(100))[2])
    (c, d), rank = net.head_weight.shape, pred.rank
    assert pred.head_q.shape == (d, min(c, d))
    assert pred.maps.shape == (rank, min(c, d), d + 1)
    formed = StructuredPredictor(basis=pred.basis, head_q=np.eye(d),
                                 maps=np.matmul(pred.head_q, pred.maps), rank=rank)

    theta = net.flat_params()
    pt, head = net.config.trunk_size, net.config.head_size
    theta[pt:] += 0.1 * substream(35, "moved-head").standard_normal(head)
    set_params(net, theta)
    cache, residuals, rows = feedback_sample(net, ds, np.arange(100, 200))
    parts = [(cache, residuals), (cache.rows([3, 7]), residuals[[3, 7]])]
    got = [*pred.predict_sums(net, parts), *pred.trunk_moments(net, rows),
           predict_structured(pred, cache.act[-1], residuals, net.head_weight)]
    ref = [*formed.predict_sums(net, parts), *formed.trunk_moments(net, rows),
           predict_structured(formed, cache.act[-1], residuals, net.head_weight)]
    for g, r in zip(got, ref, strict=True):
        assert np.linalg.norm(g - r) <= 1e-12 * np.linalg.norm(r)


def test_structured_fit_memory_stays_within_the_kernel_size():
    # 80 rows of D = 64: the primal system would be 4160 x 4160 (138 MB)
    rng = substream(34, "fit-memory")
    head_w = rng.standard_normal((3, 64))
    rows = FitRows(rng.standard_normal((80, 64)), rng.standard_normal((80, 3)), head_w,
                   factored(rng.standard_normal((80, 200))))
    tracemalloc.start()
    try:
        pred = fit_structured(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.head_q.shape == (64, 3)
    assert pred.maps.shape[1:] == (3, 65)
    assert peak < 32e6


def test_structured_rank_one_parallel_gradients(fix):
    rng = substream(27, "rank1")
    direction = rng.standard_normal(20)
    direction /= np.linalg.norm(direction)
    head_w = rng.standard_normal((2, 4))
    llh = rng.standard_normal((12, 4))
    residuals = rng.standard_normal((12, 2))
    scales = rng.uniform(0.5, 2.0, size=(12, 1))
    rows = FitRows(llh, residuals, head_w, factored(scales * direction))
    fix(r=1)
    pred = fit_structured(rows)
    assert abs(cosine(pred.basis[:, 0], direction)) >= 1.0 - 1e-10
    g = rows.trunk_grad.dense()[0]
    assert abs(cosine(pred.basis @ (pred.basis.T @ g), g)) >= 1.0 - 1e-10


def test_structured_large_lambda_kills_maps(fix):
    rng = substream(28, "slam")
    rows, _ = planted_structured(rng, 60)
    fix(r=2, lam=1e14)
    pred = fit_structured(rows)
    assert (pred.rank, pred.ridge_lambda) == (2, 1e14)
    assert np.max(np.abs(pred.maps)) <= 1e-8


def test_predict_structured_zero_residual(fix):
    rng = substream(29, "pz2")
    rows, head_w = planted_structured(rng, 60)
    fix(r=2)
    pred = fit_structured(rows)
    est = predict_structured(pred, rng.standard_normal(5), np.zeros(3), head_w)
    assert np.array_equal(est, np.zeros_like(est))


def test_predict_structured_linear_and_scale_equivariant(fix):
    rng = substream(30, "lin2")
    rows, head_w = planted_structured(rng, 60)
    fix(r=2)
    pred = fit_structured(rows)
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


def test_classification_residual_uses_same_path(fix):
    rng = substream(31, "cls")
    rows, head_w = planted_structured(rng, 60)
    fix(r=2)
    pred = fit_structured(rows)
    llh = rng.standard_normal(5)
    _, residual = loss_and_residual(rng.standard_normal(3), 1, "cross_entropy")
    as_regression = residual.copy()
    e_cls = predict_structured(pred, llh, residual, head_w)
    e_reg = predict_structured(pred, llh, as_regression, head_w)
    assert np.array_equal(e_cls, e_reg)


def test_predicted_head_gradient_always_exact():
    rng = substream(32, "hexact")
    net = init_network(NetworkConfig(4, (6,), 3, activation="tanh", seed=8))
    pt = net.config.trunk_size
    llh, output, cache = forward(net, rng.standard_normal((40, 4)))
    _, residuals = loss_and_residual(output, rng.integers(3, size=40), "cross_entropy")
    grads = backward(net, cache, residuals)
    pred = fit_structured(FitRows(llh, residuals, net.head_weight, factored(grads[:, :pt])))
    for _ in range(10):
        x = rng.standard_normal(4)
        llh, output, cache = forward(net, x)
        _, residual = loss_and_residual(output, int(rng.integers(3)), "cross_entropy")
        true_head = backward(net, cache, residual)[pt:]
        est = predict_structured(pred, llh, residual, net.head_weight)
        assert np.max(np.abs(est[pt:] - true_head)) <= 1e-12


def test_fit_structured_sample_and_rank_requirements(fix):
    rng = substream(33, "req")
    rows, _ = planted_structured(rng, 4)
    fix(r=2)
    with pytest.raises(InsufficientData):
        fit_structured(rows)  # needs at least D+1 = 6
    rows, _ = planted_structured(rng, 10)
    fix(r=50)
    with pytest.raises(DimensionError):
        fit_structured(rows)


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
    """Feedback, structured and exact cases:
    (net, predictor, inputs, forward cache, residuals)."""
    rng = substream(43, "batch-predict")
    cases = []
    for out, kind in ((2, "squared_vector"), (4, "squared_vector"), (1, "squared_scalar")):
        net = init_network(NetworkConfig(8, (24, 16), out, activation="tanh", seed=out))
        xs = rng.standard_normal((n, 8))
        _, output, cache = forward(net, xs)
        _, residuals = loss_and_residual(output, rng.standard_normal((n, out)), kind)
        pt, d = net.config.trunk_size, net.config.last_hidden
        if out == 2:
            pred = FeedbackPredictor(b=rng.standard_normal((24 + 16, 2)))
        elif out == 4:
            basis, _ = np.linalg.qr(rng.standard_normal((pt, 6)))
            head_q, _ = np.linalg.qr(net.head_weight.T)
            pred = StructuredPredictor(basis=basis, head_q=head_q,
                                       maps=rng.standard_normal((6, 4, d + 1)), rank=6)
        else:
            pred = PerfectPredictor()
        cases.append((net, pred, xs, cache, residuals))
    return cases


def single_prediction(net, pred, x, llh, residual):
    if pred.kind == "feedback":
        rows = pass_rows(net, forward(net, x[None])[2], residual[None])
        trunk = pred.trunk_rows(net, rows).dense()[0]
        return gradient_rows(trunk, llh, residual)
    if pred.kind == "structured":
        return predict_structured(pred, llh, residual, net.head_weight)
    return backward(net, forward(net, x)[2], residual)


def test_prediction_rows_equal_single_example_calls(predicted_rows):
    for net, pred, xs, cache, residuals in batch_predictors():
        llh, pt = cache.act[-1], net.config.trunk_size
        rows = predicted_rows(net, pred, pass_rows(net, cache, residuals))
        assert rows.shape == (len(llh), net.config.n_params)
        for i in range(len(llh)):
            one = single_prediction(net, pred, xs[i], llh[i], residuals[i])
            assert np.max(np.abs(rows[i] - one)) <= 1e-12 * np.max(np.abs(one))
        # the sum path forms the rows' trunk sum without the rows
        total = rows.sum(axis=0)[:pt]
        (summed,) = pred.predict_sums(net, [(cache, residuals)])
        assert summed.shape == (pt,)
        assert np.linalg.norm(summed - total) <= 1e-12 * np.linalg.norm(total)


@pytest.mark.parametrize("block_bytes", [linalg.BLOCK_BYTES, 1024],
                         ids=["one-block", "many-blocks"])
def test_predict_sums_equal_each_parts_summed_rows(monkeypatch, block_bytes, predicted_rows):
    # 1024-byte blocks send the small matrices through the blocked product
    monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    for net, pred, _, cache, residuals in batch_predictors():
        pt = net.config.trunk_size
        ctrl = np.arange(3, 40, 4)
        parts = [(cache, residuals), (cache.rows(ctrl), residuals[ctrl]),
                 (cache.rows([5]), residuals[[5]])]
        for k in (1, 2, 3):
            sums = pred.predict_sums(net, parts[:k])
            assert len(sums) == k
            for summed, (c, r) in zip(sums, parts):
                total = predicted_rows(net, pred, pass_rows(net, c, r)).sum(axis=0)[:pt]
                assert summed.shape == (pt,)
                assert np.linalg.norm(summed - total) <= 1e-12 * np.linalg.norm(total)
                if pred.kind == "perfect":
                    assert np.array_equal(summed, trunk_rows(net, c, r).sum())
