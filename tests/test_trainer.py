import copy
import json
import logging
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from predgrad import predictor as predictor_module
from predgrad import trainer
from predgrad.data import gen_blobs, gen_regression
from predgrad.errors import ConfigError, InsufficientData, NumericError
from predgrad.estimator import alignment_stats, combine, split_minibatch, variance_inflation
from predgrad.linalg import FactoredRows, solve_ridge, truncated_svd
from predgrad.network import (NetworkConfig, backward, forward, init_network,
                              loss_and_residual)
from predgrad.predictor import PREDICTORS, PerfectPredictor, RefitPolicy
from predgrad.rng import substream
from predgrad.trainer import (TrainConfig, load_run_checkpoint, resume_run,
                              save_run_checkpoint, train_predicted, train_vanilla)

DATA = Path(__file__).parent / "data"


def regression(hidden=(8,), n=400):
    ds = gen_regression(n, 6, 0.05, 11, val_fraction=0.2)
    return ds, NetworkConfig(input_dim=6, hidden_widths=hidden, output_dim=1, seed=5)


def blobs(hidden=(8,), n=400):
    ds = gen_blobs(n, 3, 6, 6.0, 12, val_fraction=0.2)
    return ds, NetworkConfig(input_dim=6, hidden_widths=hidden, output_dim=3, seed=6)


def rows(records):
    return [r.csv_row() for r in records]


@pytest.mark.parametrize("make_data, batch_size, f", [
    pytest.param(regression, 16, 0.25, id="regression"),
    pytest.param(blobs, 16, 0.25, id="blobs"),
    # 240 training rows end each epoch on a batch of 2, which f 0.3 cannot split
    pytest.param(lambda: regression(n=300), 17, 0.3, id="regression-short-final-batch"),
    # widths and a batch at which a row's bits depend on the rows sharing its product
    pytest.param(lambda: regression(hidden=(12, 31)), 30, 0.25, id="regression-12-31"),
    pytest.param(lambda: blobs(hidden=(64, 64)), 30, 0.25, id="blobs-64-64"),
])
def test_perfect_predictor_reproduces_vanilla(make_data, batch_size, f):
    ds, ncfg = make_data()
    cfg = TrainConfig(batch_size=batch_size, control_fraction=f, epochs=2, momentum=0.5,
                      seed=3, eval_every=2)
    van = train_vanilla(cfg, ds, init_network(ncfg))
    per = train_predicted(cfg, ds, init_network(ncfg), "perfect")
    assert per.steps == van.steps > 0
    assert np.array_equal(per.network.flat_params(), van.network.flat_params())
    assert [r.loss for r in per.records] == [r.loss for r in van.records]
    assert [r.refit for r in per.records] == [0] * per.steps


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
def test_checkpoint_round_trip(tmp_path, kind):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=7, refit=RefitPolicy(period=3),
                      momentum=0.9, seed=1, eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), kind)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, res, cfg)
    state = load_run_checkpoint(path, cfg)

    assert type(state.predictor) is type(res.predictor)
    assert state.predictor.kind == kind
    saved, loaded = res.predictor.to_arrays(), state.predictor.to_arrays()
    assert saved.keys() == loaded.keys()
    for key in saved:
        assert np.array_equal(saved[key], loaded[key])
    assert (state.step, state.epoch, state.batch_in_epoch) == \
        (res.state.step, res.state.epoch, res.state.batch_in_epoch)
    assert state.net.config == res.network.config
    assert state.net.version == res.network.version
    assert np.array_equal(state.net.flat_params(), res.network.flat_params())
    assert np.array_equal(state.opt_state, res.state.opt_state)
    assert state.stepping == res.stepping_ledger
    assert state.warmup_ledger == res.warmup_ledger
    with np.load(path) as z:   # each fit draws its own sample, so no rows are kept
        assert not [key for key in z.files if key.startswith("buf_")]


def test_perfect_checkpoint_with_buffer_rows_resumes_bit_exactly(tmp_path):
    # older versions kept a fit buffer of control rows, a perfect run's too,
    # and saved it; a resume ignores those arrays
    ds, ncfg = regression()
    long = TrainConfig(batch_size=32, max_steps=8, momentum=0.9, seed=1, eval_every=0)
    short = replace(long, max_steps=4)
    part = train_predicted(short, ds, init_network(ncfg), "perfect")
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, part, short)
    with np.load(path) as z:
        arrays = dict(z)
    d, pt = part.network.config.last_hidden, part.network.trunk_size
    rng = np.random.default_rng(0)
    arrays.update((key, rng.standard_normal((32, k))) for key, k in
                  (("buf_llh", d), ("buf_residual", 1), ("buf_h", d),
                   ("buf_trunk_grad", pt)))
    np.savez(path, **arrays)
    assert load_run_checkpoint(path, long).step == 4

    rest = resume_run(long, ds, path)
    whole = train_predicted(long, ds, init_network(ncfg), "perfect")
    assert rows(part.records) + rows(rest.records) == rows(whole.records)
    assert np.array_equal(rest.network.flat_params(), whole.network.flat_params())


def test_fractional_control_batch_warns_once_per_run(caplog):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=30, control_fraction=0.25, max_steps=5, seed=1,
                      eval_every=0)
    with caplog.at_level(logging.WARNING):
        res = train_predicted(cfg, ds, init_network(ncfg), "perfect")
    assert res.steps == 5
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "fractional batch size 7.5" in warnings[0]


@pytest.mark.parametrize("algo", ["vanilla", "structured"])
def test_resume_extends_a_run_bit_exactly(tmp_path, algo):
    # 10 batches an epoch, refits at steps 4, 8 and 12: the extension
    # crosses an epoch and a refit
    ds, ncfg = regression()
    n = 6
    long = TrainConfig(batch_size=32, epochs=5, max_steps=2 * n,
                       refit=RefitPolicy(period=4), momentum=0.9, seed=2)
    short = replace(long, max_steps=n)

    def run(cfg):
        if algo == "vanilla":
            return train_vanilla(cfg, ds, init_network(ncfg))
        return train_predicted(cfg, ds, init_network(ncfg), algo)

    whole = run(long)
    part = run(short)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, part, short)
    rest = resume_run(long, ds, path)

    assert rest.steps == whole.steps == 2 * n
    assert rows(part.records) + rows(rest.records) == rows(whole.records)
    assert np.array_equal(rest.network.flat_params(), whole.network.flat_params())
    if algo != "vanilla":
        assert sum(r.refit for r in rest.records) >= 1


def test_resume_rejects_a_changed_config(tmp_path):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=3, seed=2)
    res = train_vanilla(cfg, ds, init_network(ncfg))
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, res, cfg)
    with pytest.raises(ConfigError):
        load_run_checkpoint(path, TrainConfig(batch_size=32, max_steps=3, seed=2,
                                              learning_rate=0.01))


def test_warmup_with_batch_smaller_than_width():
    # batch 32 < D+1 = 65: the fit samples do not depend on the batch; the
    # warmup and the refit at step 3 each draw the 256 rows of the capacity
    ds, ncfg = blobs(hidden=(64, 64), n=600)
    cfg = TrainConfig(batch_size=32, max_steps=3, refit=RefitPolicy(period=3),
                      seed=4, eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), "structured")
    assert res.steps == 3
    assert res.warmup_ledger.backward_count == 2 * 256
    assert sum(r.refit for r in res.records) >= 1


def test_fit_sample_is_the_capacity_or_the_whole_training_set():
    ds, ncfg = regression()   # 320 training rows
    for capacity, drawn in ((40, 40), (1000, 320)):
        cfg = TrainConfig(batch_size=32, max_steps=2, refit=RefitPolicy(
            buffer_capacity=capacity), seed=4, eval_every=0)
        res = train_predicted(cfg, ds, init_network(ncfg), "structured")
        assert res.warmup_ledger.backward_count == drawn
        assert res.predictor.n_fit <= drawn


def test_predictor_argument_errors():
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=4)
    with pytest.raises(ConfigError):
        train_predicted(cfg, ds, init_network(ncfg), "linear")
    with pytest.raises(ConfigError):
        train_predicted(cfg, ds, init_network(ncfg), PerfectPredictor())
    cds, cncfg = blobs()
    with pytest.raises(ConfigError):
        train_predicted(cfg, cds, init_network(cncfg), "scalar")


@pytest.mark.parametrize("algo", ["vanilla", "structured", "scalar"])
def test_divergence_stops_the_run_at_the_first_non_finite_step(algo):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, epochs=10, max_steps=50, learning_rate=1e4, seed=0,
                      eval_every=0)

    def run(cfg):
        if algo == "vanilla":
            return train_vanilla(cfg, ds, init_network(ncfg))
        return train_predicted(cfg, ds, init_network(ncfg), algo)

    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"at step \d+") as err:
            run(cfg)
        step = int(re.search(r"at step (\d+)", str(err.value)).group(1))
        before = run(replace(cfg, max_steps=step - 1))
    assert before.steps == step - 1 > 0
    assert all(math.isfinite(r.loss) for r in before.records)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=3, seed=2, eval_every=0)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, train_vanilla(cfg, ds, init_network(ncfg)), cfg)
    before = path.read_bytes()

    def broken_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    longer = replace(cfg, max_steps=5)
    with pytest.raises(OSError, match="disk full"):
        save_run_checkpoint(path, train_vanilla(longer, ds, init_network(ncfg)), longer)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.npz"]


def test_checkpoint_into_a_missing_directory_raises_the_open_error(tmp_path):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=2, eval_every=0)
    res = train_vanilla(cfg, ds, init_network(ncfg))
    with pytest.raises(FileNotFoundError) as err:
        save_run_checkpoint(tmp_path / "missing" / "run.npz", res, cfg)
    assert err.value.__context__ is None
    assert list(tmp_path.iterdir()) == []


def test_momentum_alone_selects_heavy_ball():
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=20, seed=2, eval_every=0)
    sgd = train_vanilla(cfg, ds, init_network(ncfg))
    heavy = train_vanilla(replace(cfg, momentum=0.9), ds, init_network(ncfg))
    assert sgd.state.opt_state is None and heavy.state.opt_state is not None
    assert not np.array_equal(heavy.network.flat_params(), sgd.network.flat_params())


def test_checkpoint_from_plain_sgd_resumes_without_momentum(tmp_path):
    # older versions wrote "optimizer" and ran plain SGD under "sgd" whatever
    # the momentum said, so such a checkpoint resumes with momentum 0
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=3, seed=2, eval_every=0)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, train_vanilla(cfg, ds, init_network(ncfg)), cfg)
    with np.load(path) as z:
        arrays = dict(z)
    header = json.loads(bytes(arrays["header"]).decode("utf-8"))
    header["cfg"] = json.dumps({**json.loads(header["cfg"]), "optimizer": "sgd",
                                "momentum": 0.9})
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)

    assert load_run_checkpoint(path, cfg).step == 3
    with pytest.raises(ConfigError):
        load_run_checkpoint(path, replace(cfg, momentum=0.9))


def test_skipped_refit_logs_a_warning_and_keeps_the_predictor(monkeypatch, caplog):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=7, refit=RefitPolicy(period=3), seed=1,
                      eval_every=0)
    fit = trainer.fit_structured
    fits = []

    def fit_once(*args, **kwargs):
        if fits:
            raise InsufficientData("too few usable samples")
        fits.append(fit(*args, **kwargs))
        return fits[0]

    monkeypatch.setattr(trainer, "fit_structured", fit_once)
    with caplog.at_level(logging.WARNING, logger="predgrad.trainer"):
        res = train_predicted(cfg, ds, init_network(ncfg), "structured")
    assert res.steps == 7
    assert res.predictor is fits[0]
    assert [r.refit for r in res.records] == [0] * 7
    # the samples were drawn, so the outgoing predictor was still measured
    assert [math.isfinite(r.rho_hat) for r in res.records] == [r.step % 3 == 0
                                                                for r in res.records]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    for step, msg in zip((3, 6), warnings):
        assert f"step {step}" in msg and "too few usable samples" in msg


def test_format_1_checkpoint_resumes():
    # written by an earlier version, whose config carried a warmup option:
    # structured predictor, hidden (8,), refits every 3 steps, 5 steps done
    # It also holds a 16-row fit buffer, which is ignored. Its fits read that
    # buffer, where refits now draw fresh samples, so an uninterrupted run
    # takes another trajectory and is not compared.
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=9,
                      refit=RefitPolicy(period=3, buffer_capacity=16),
                      momentum=0.9, seed=1, eval_every=0)
    state = load_run_checkpoint(DATA / "format1_structured.npz", cfg)
    assert state.net.config == ncfg
    assert state.predictor.kind == "structured"
    assert state.step == 5

    rest = resume_run(cfg, ds, DATA / "format1_structured.npz")
    assert rest.steps == 9
    assert all(math.isfinite(r.loss) for r in rest.records)
    assert [r.refit for r in rest.records] == [1, 0, 0, 1]   # steps 6 and 9


LEARNED_STEPS = pytest.mark.parametrize("kind, make_data, loss_kind", [
    ("scalar", regression, "squared_scalar"),
    ("structured", blobs, "cross_entropy"),
])


def fitted_step(kind, make_data, loss_kind):
    """A learned predictor after a refit, a batch and its split, and a
    function giving the lean step's G on them."""
    ds, ncfg = make_data(hidden=(24, 16))
    cfg = TrainConfig(batch_size=64, max_steps=4, refit=RefitPolicy(period=2), seed=7,
                      eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), kind)
    batch_idx = ds.train_idx[64:128]
    split = split_minibatch(64, 0.25, substream(7, "split"))

    def step():
        return trainer._batch_predicted(res.network, res.predictor, ds, batch_idx, split,
                                        loss_kind, 0.0)[0]

    return res.network, res.predictor, ds, batch_idx, split, step


@LEARNED_STEPS
def test_learned_step_from_sums_matches_the_summed_rows(monkeypatch, kind, make_data,
                                                        loss_kind):
    *_, step = fitted_step(kind, make_data, loss_kind)
    from_sums = step()
    monkeypatch.setattr(PREDICTORS[kind], "predict_sums",
                        lambda self, net, parts:
                        [self.predict_batch(net, cache, r).sum(axis=0) for cache, r in parts])
    from_rows = step()
    assert np.linalg.norm(from_sums - from_rows) <= 1e-12 * np.linalg.norm(from_rows)


@LEARNED_STEPS
def test_a_step_reads_each_predictor_matrix_once(monkeypatch, kind, make_data, loss_kind):
    _, pred, *_, step = fitted_step(kind, make_data, loss_kind)
    matrices = {"coef": getattr(pred, "coef", None), "basis": getattr(pred, "basis", None),
                "maps": getattr(pred, "maps", None)}
    products = []

    def counted(a, b):
        products.extend(name for name, m in matrices.items()
                        if m is not None and np.shares_memory(a, m))
        return a @ b

    monkeypatch.setattr(predictor_module, "few_column_product", counted)
    step()
    assert sorted(products) == (["coef"] if kind == "scalar" else ["basis", "maps"])


@LEARNED_STEPS
def test_lean_step_matches_the_row_path(kind, make_data, loss_kind):
    # the row path: a second forward on the control rows, and per-row
    # backward and prediction rows, summed
    net, pred, ds, batch_idx, split, step = fitted_step(kind, make_data, loss_kind)
    ctrl = batch_idx[split.control]
    _, output, cache = forward(net, ds.features[batch_idx])
    _, r = loss_and_residual(output, ds.targets[batch_idx], loss_kind)
    _, output_c, cache_c = forward(net, ds.features[ctrl])
    _, r_c = loss_and_residual(output_c, ds.targets[ctrl], loss_kind)
    from_rows = combine(pred.predict_batch(net, cache, r).sum(axis=0),
                        backward(net, cache_c, r_c).sum(axis=0),
                        pred.predict_batch(net, cache_c, r_c).sum(axis=0),
                        split.m_c, split.m)
    lean = step()
    assert np.linalg.norm(lean - from_rows) <= 1e-12 * np.linalg.norm(from_rows)


@pytest.mark.parametrize("kind", ["scalar", "structured"])
def test_alignment_statistics_come_from_the_refit_samples(kind):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=10, refit=RefitPolicy(
        period=3, buffer_capacity=100), seed=5, eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), kind)
    drew = [r.step % 3 == 0 for r in res.records]
    assert sum(drew) == 3   # steps 3, 6 and 9
    for rec, refit_step in zip(res.records, drew):
        stats = (rec.rho_hat, rec.kappa_hat, rec.phi_hat)
        assert all(map(math.isfinite, stats)) if refit_step \
            else all(map(math.isnan, stats)), rec
        if refit_step:
            assert rec.phi_hat == variance_inflation(8 / 32, rec.rho_hat, rec.kappa_hat)
    # each fit sample is charged once, as a forward and a backward per row
    ledger = res.warmup_ledger
    assert ledger.backward_count == ledger.forward_count == 100 * (1 + 3)
    assert ledger.cheap_forward_count == 0


def test_a_perfect_run_draws_no_fit_sample():
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=7, refit=RefitPolicy(period=3), seed=5,
                      eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), "perfect")
    assert res.warmup_ledger.cost_units == 0
    assert all(math.isnan(r.rho_hat) for r in res.records)


def test_a_fit_buffer_below_d_plus_1_rows_is_a_config_error():
    # D = 16: a fit needs 17 rows, which a capacity of 16 never holds
    cfg = TrainConfig(batch_size=32, max_steps=2, refit=RefitPolicy(buffer_capacity=16),
                      seed=1, eval_every=0)
    for kind, (ds, ncfg) in (("structured", blobs(hidden=(16,))),
                             ("scalar", regression(hidden=(16,)))):
        with pytest.raises(ConfigError, match=r"capacity 16 is below the D\+1 = 17"):
            train_predicted(cfg, ds, init_network(ncfg), kind)
        enough = replace(cfg, refit=RefitPolicy(buffer_capacity=17))
        assert train_predicted(enough, ds, init_network(ncfg), kind).steps == 2
    # the perfect predictor fits nothing
    assert train_predicted(cfg, ds, init_network(ncfg), "perfect").steps == 2


def wide_blobs_shape():
    ds = gen_blobs(600, 3, 8, 6.0, 12, val_fraction=0.2)
    return ds, NetworkConfig(input_dim=8, hidden_widths=(64, 64), output_dim=3, seed=6)


def narrow_regression_shape():
    ds = gen_regression(600, 8, 0.05, 11, val_fraction=0.2)
    return ds, NetworkConfig(input_dim=8, hidden_widths=(16,), output_dim=1, seed=5)


def state_before_a_refit(make_data, kind):
    """A run two steps in, its predictor fitted at step 2 on 256 rows."""
    ds, ncfg = make_data()
    cfg = TrainConfig(batch_size=64, max_steps=2, refit=RefitPolicy(period=2), seed=3,
                      eval_every=0)
    return cfg, ds, train_predicted(cfg, ds, init_network(ncfg), kind).state


@pytest.mark.parametrize("make_data, kind, loss_kind", [
    (wide_blobs_shape, "structured", "cross_entropy"),
    (narrow_regression_shape, "structured", "squared_scalar"),
    (narrow_regression_shape, "scalar", "squared_scalar"),
])
def test_factored_refit_matches_the_dense_row_refit(monkeypatch, make_data, kind, loss_kind):
    # the same refit on formed rows: the fit's factorization and ridge solve
    # take the trunk rows and the bilinear features as dense arrays, and the
    # measurement is the centred statistics of backward's and predict_batch's
    # trunk rows
    cfg, ds, state = state_before_a_refit(make_data, kind)
    dense_state = copy.deepcopy(state)
    refit, stats = trainer._refit(cfg, ds, state, loss_kind, kind)
    net, pt = state.net, state.net.trunk_size

    def formed(a):
        return a.dense() if isinstance(a, FactoredRows) else a

    monkeypatch.setattr(predictor_module, "truncated_svd",
                        lambda a, rank: truncated_svd(formed(a), rank))
    monkeypatch.setattr(predictor_module, "solve_ridge",
                        lambda a, b, lam: solve_ridge(formed(a), formed(b), lam))
    monkeypatch.setattr(trainer, "trunk_alignment",
                        lambda p, net, cache, r, trunk:
                        alignment_stats(backward(net, cache, r)[:, :pt],
                                        p.predict_batch(net, cache, r)[:, :pt]))
    dense_refit, dense_stats = trainer._refit(cfg, ds, dense_state, loss_kind, kind)
    assert refit == dense_refit == 1
    for name in ("sigma_g", "sigma_h", "kappa"):
        assert getattr(stats, name) == pytest.approx(getattr(dense_stats, name), rel=1e-9)
    assert abs(stats.rho - dense_stats.rho) <= 1e-9
    _, output, cache = forward(net, ds.features[ds.val_idx])
    _, r = loss_and_residual(output, ds.targets[ds.val_idx], loss_kind)
    got = state.predictor.predict_batch(net, cache, r)
    ref = dense_state.predictor.predict_batch(net, cache, r)
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


def test_a_refit_forms_no_trunk_or_feature_rows():
    # 8-64-64-3 with 256 fit rows: the trunk rows would be a (256, 4736)
    # array, 9.7 MB, and the bilinear features a (256, 4160) one. What the
    # refit holds beyond the predictor it returns stays below half the first.
    cfg, ds, state = state_before_a_refit(wide_blobs_shape, "structured")
    rows_bytes = 256 * state.net.trunk_size * 8
    assert state.net.trunk_size == 4736
    tracemalloc.start()
    try:
        trainer._refit(cfg, ds, state, "cross_entropy", "structured")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fitted = state.predictor.basis.nbytes + state.predictor.maps.nbytes
    assert peak - fitted < rows_bytes / 2
