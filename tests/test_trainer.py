import copy
import csv
import itertools
import json
import logging
import math
import re
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predgrad import predictor as predictor_module
from predgrad import trainer
from predgrad.analysis import CostModel
from predgrad.data import gen_blobs, gen_regression
from predgrad.errors import ConfigError, DataError, InsufficientData, NumericError, StaleCache
from predgrad.estimator import combine, variance_inflation
from predgrad.linalg import FactoredRows, solve_ridge, truncated_svd
from predgrad.network import NetworkConfig, forward, init_network, loss_and_residual
from predgrad.predictor import PREDICTORS, PerfectPredictor, RefitPolicy
from predgrad.trainer import (TrainConfig, load_run_checkpoint, resume_run,
                              run_budgeted_comparison, save_run_checkpoint, train_predicted,
                              train_vanilla)

from oracles import alignment_stats, backward, factored, factored_rows, pass_rows


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
    cfg = TrainConfig(batch_size=batch_size, control_fraction=f, epochs=2, seed=3,
                      eval_every=2)
    van = train_vanilla(cfg, ds, init_network(ncfg))
    per = train_predicted(cfg, ds, init_network(ncfg), "perfect")
    assert per.steps == van.steps > 0
    assert np.array_equal(per.network.flat_params(), van.network.flat_params())
    assert [r.loss for r in per.records] == [r.loss for r in van.records]
    assert [r.refit for r in per.records] == [0] * per.steps


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
def test_checkpoint_round_trip(tmp_path, kind):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=7, refit=RefitPolicy(period=3), seed=1,
                      eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), kind)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, res, cfg, ds)
    state = load_run_checkpoint(path, cfg, ds, ncfg)

    assert type(state.predictor) is type(res.state.predictor)
    assert state.predictor.kind == kind
    for f in fields(state.predictor):
        saved, loaded = getattr(res.state.predictor, f.name), getattr(state.predictor, f.name)
        assert type(loaded) is type(saved) and np.array_equal(loaded, saved), f.name
    assert state.step == res.state.step
    assert state.net.config == res.network.config
    assert np.array_equal(state.net.flat_params(), res.network.flat_params())
    assert state.stepping == res.state.stepping
    assert state.kind == res.state.kind == kind
    if kind == "perfect":
        assert state.ring is None is res.state.ring
    else:   # a vanilla opening step of 32 rows, then 8 control rows a step; refits at 3 and 6
        assert all(a.tobytes() == b.tobytes() for a, b in zip(state.ring.columns(80),
                                                              res.state.ring.columns(80)))
        ring = (state.ring.pushed, state.ring.fitted)
        assert ring == (res.state.ring.pushed, res.state.ring.fitted) == (32 + 6 * 8, 32 + 5 * 8)


# the format-5 layout; a field added to a predictor, to the ring or to
# TrainConfig changes it, and is a new format: RUN_CHECKPOINT_FORMAT and
# these change together
RUN_ARRAYS = {"header", "trunk_params", "head_weight", "head_bias", "step", "stepping_counts"}
RING_ARRAYS = {"ring_rows", "ring_pushed", "ring_fitted"}
PREDICTOR_ARRAYS = {"none": set(), "perfect": set(),
                    "feedback": {"pred_b", "pred_n_fit", "pred_ridge_lambda"} | RING_ARRAYS,
                    "structured": {"pred_basis", "pred_head_q", "pred_maps", "pred_rank",
                                   "pred_n_fit", "pred_ridge_lambda"} | RING_ARRAYS}


@pytest.mark.parametrize("kind", sorted(PREDICTOR_ARRAYS))
def test_the_checkpoint_layout_is_pinned(tmp_path, kind):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=1, eval_every=0)
    net = init_network(ncfg)
    res = train_vanilla(cfg, ds, net) if kind == "none" else train_predicted(cfg, ds, net, kind)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, res, cfg, ds)
    with np.load(path) as z:
        assert set(z.files) == RUN_ARRAYS | PREDICTOR_ARRAYS[kind]
        header = json.loads(bytes(z["header"]).decode("utf-8"))
    assert trainer.RUN_CHECKPOINT_FORMAT == 5
    assert header == {
        "format": 5, "predictor_kind": kind,
        "cfg": {"batch_size": 32, "control_fraction": 0.25, "learning_rate": 0.05,
                "refit": {"period": 50, "buffer_capacity": 256},
                "cost_model": {"backward": 2.0, "forward": 1.0, "cheap_forward": 0.7},
                "seed": 1, "eval_every": 0},
        "net": {"input_dim": 6, "hidden_widths": [8], "output_dim": 1, "activation": "tanh",
                "seed": 5},
        "data": trainer._data_digest(ds)}


def test_a_checkpoint_of_another_format_is_refused(tmp_path):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=2, eval_every=0)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, train_vanilla(cfg, ds, init_network(ncfg)), cfg, ds)
    with np.load(path) as z:
        arrays = dict(z)
    header = json.loads(bytes(arrays["header"]).decode("utf-8"))
    arrays["header"] = np.frombuffer(json.dumps({**header, "format": 1}).encode(), np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ConfigError, match="format 1"):
        load_run_checkpoint(path, cfg, ds, ncfg)


def test_fractional_control_batch_warns_once_per_run(caplog):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=30, control_fraction=0.25, max_steps=5, seed=1,
                      eval_every=0)
    with caplog.at_level(logging.WARNING):
        res = train_predicted(cfg, ds, init_network(ncfg), "perfect")
    assert res.steps == 5
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "fractional batch size 7.5" in warnings[0]


@pytest.mark.parametrize("n, warning", [
    # 48 training rows at batch 64: every step is one 48-row batch, 2.4 control rows
    (60, "of a 48-row batch gives fractional batch size 2.4; rounding to 2"),
    # 40 training rows: 2 control rows exactly, though 0.05 * 64 = 3.2
    (50, None)], ids=["48-rows", "40-rows"])
def test_the_control_fraction_warning_reads_the_batches_the_run_takes(caplog, n, warning):
    ds = gen_regression(n, 8, 0.05, 1)
    cfg = TrainConfig(batch_size=64, control_fraction=0.05, max_steps=2, eval_every=0)
    with caplog.at_level(logging.WARNING):
        train_predicted(cfg, ds, init_network(NetworkConfig(8, (4,), 1)), "perfect")
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ([] if warning is None else [f"control fraction f=0.05 {warning}"])


@pytest.mark.parametrize("algo, batch_size, n, per_epoch", [
    # 320 training rows in 10 batches an epoch, refits at steps 4, 8 and 12:
    # the extension crosses an epoch and a refit
    pytest.param("vanilla", 32, 6, 10, id="vanilla"),
    pytest.param("structured", 32, 6, 10, id="structured"),
    # the checkpoint falls on the epoch boundary
    pytest.param("structured", 32, 10, 10, id="structured-at-an-epoch-boundary"),
    # batches of 30 leave 20 rows, a short last batch that is kept; the
    # extension starts with it
    pytest.param("structured", 30, 10, 11, id="structured-short-last-batch-kept"),
    # batches of 53 leave 2 rows, fewer than the 4 a split needs, so the
    # epoch drops them; the extension takes the last whole batch, then epoch 1
    pytest.param("structured", 53, 5, 6, id="structured-short-last-batch-dropped"),
    pytest.param("feedback", 32, 6, 10, id="feedback"),
    pytest.param("perfect", 32, 6, 10, id="perfect"),
])
def test_resume_extends_a_run_bit_exactly(tmp_path, algo, batch_size, n, per_epoch):
    ds, ncfg = regression()
    long = TrainConfig(batch_size=batch_size, epochs=5, max_steps=2 * n,
                       refit=RefitPolicy(period=4), seed=2)
    short = replace(long, max_steps=n)

    def run(cfg):
        if algo == "vanilla":
            return train_vanilla(cfg, ds, init_network(ncfg))
        return train_predicted(cfg, ds, init_network(ncfg), algo)

    whole = run(long)
    part = run(short)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, part, short, ds)
    rest = resume_run(long, ds, ncfg, path)

    assert rest.steps == whole.steps == 2 * n
    assert [r.epoch for r in whole.records] == [t // per_epoch for t in range(2 * n)]
    assert rows(part.records) + rows(rest.records) == rows(whole.records)
    assert np.array_equal(rest.network.flat_params(), whole.network.flat_params())
    if algo not in ("vanilla", "perfect"):
        assert sum(r.refit for r in rest.records) >= 1


def test_a_fresh_run_rewrites_its_metrics_file_and_a_resume_appends(tmp_path):
    ds, ncfg = regression()
    long = TrainConfig(batch_size=32, max_steps=5, seed=2)
    short = replace(long, max_steps=3)
    path, ckpt = tmp_path / "metrics.csv", tmp_path / "run.npz"
    for _ in range(2):
        part = train_vanilla(short, ds, init_network(ncfg), path)
    train_vanilla(short, ds, init_network(ncfg), tmp_path / "once.csv")
    assert path.read_text() == (tmp_path / "once.csv").read_text()
    save_run_checkpoint(ckpt, part, short, ds)
    resume_run(long, ds, ncfg, ckpt, path)
    train_vanilla(long, ds, init_network(ncfg), tmp_path / "whole.csv")
    assert path.read_text() == (tmp_path / "whole.csv").read_text()


def _config_fields():
    """Every TrainConfig field, a nested dataclass's as "<field>.<its field>"."""
    cfg = TrainConfig()
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        yield from ([f"{f.name}.{g.name}" for g in fields(value)] if is_dataclass(value)
                    else [f.name])


def _changed(cfg, name):
    """``cfg`` with the field ``name`` moved to another valid value."""
    outer, _, inner = name.partition(".")
    if inner:
        return replace(cfg, **{outer: _changed(getattr(cfg, outer), inner)})
    value = getattr(cfg, name)
    if value is None or isinstance(value, int):
        return replace(cfg, **{name: 1000 if value is None else value + 1})
    return replace(cfg, **{name: value / 2 if value else 0.5})


@pytest.mark.parametrize("name", list(_config_fields()))
def test_resume_rejects_a_changed_config(tmp_path, name):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=3, seed=2)
    res = train_vanilla(cfg, ds, init_network(ncfg))
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, res, cfg, ds)
    if name in trainer.RUN_LENGTH_KEYS:
        assert load_run_checkpoint(path, _changed(cfg, name), ds, ncfg).step == 3
    else:
        with pytest.raises(ConfigError, match=name.partition(".")[0]):
            load_run_checkpoint(path, _changed(cfg, name), ds, ncfg)


def test_warmup_with_batch_smaller_than_width():
    # batch 32 < D+1 = 65: the opening takes vanilla steps, every row an
    # exact row, until its three batches fill the ring with 96 rows; the
    # first fit follows step 3, and steps 4 and 5 are predicted, 8 control
    # rows and 24 predicted rows each
    ds, ncfg = blobs(hidden=(64, 64), n=600)
    cfg = TrainConfig(batch_size=32, max_steps=5, refit=RefitPolicy(period=50),
                      seed=4, eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), "structured")
    assert res.steps == 5
    assert [r.refit for r in res.records] == [0, 0, 1, 0, 0]
    assert res.state.predictor.n_fit == 96
    ledger = res.state.stepping
    assert (ledger.exact_rows, ledger.predicted_rows) == (3 * 32 + 2 * 8, 2 * 24)
    assert res.state.ring.pushed == 3 * 32 + 2 * 8


def test_a_fit_reads_the_capacity_or_every_row_pushed():
    # a vanilla opening step pushes 32 rows, then each step its 8 control
    # rows: the refit after step 3 reads the last 40 of the 48 rows pushed,
    # or all 48
    ds, ncfg = regression()
    for capacity, read in ((40, 40), (1000, 48)):
        cfg = TrainConfig(batch_size=32, max_steps=3, refit=RefitPolicy(
            period=3, buffer_capacity=capacity), seed=4, eval_every=0)
        res = train_predicted(cfg, ds, init_network(ncfg), "structured")
        assert [r.refit for r in res.records] == [1, 0, 1]
        assert res.state.ring.pushed == 48
        assert res.state.predictor.n_fit == read


def test_predictor_argument_errors():
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=4)
    with pytest.raises(ConfigError):
        train_predicted(cfg, ds, init_network(ncfg), "linear")
    with pytest.raises(ConfigError):
        train_predicted(cfg, ds, init_network(ncfg), PerfectPredictor())


@pytest.mark.parametrize("algo", ["vanilla", "structured", "feedback"])
def test_divergence_stops_the_run_at_the_first_non_finite_step(tmp_path, algo):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, epochs=10, max_steps=50, learning_rate=1e4, seed=0,
                      eval_every=0)
    path = tmp_path / "metrics.csv"

    def run(cfg, metrics_path=None):
        if algo == "vanilla":
            return train_vanilla(cfg, ds, init_network(ncfg), metrics_path)
        return train_predicted(cfg, ds, init_network(ncfg), algo, metrics_path)

    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"at step \d+") as err:
            run(cfg, path)
        step = int(re.search(r"at step (\d+)", str(err.value)).group(1))
        before = run(replace(cfg, max_steps=step - 1))
    assert before.steps == step - 1 > 0
    assert all(math.isfinite(r.loss) for r in before.records)
    # the run that raised wrote out every row it recorded as its file closed
    with open(path, newline="") as fh:
        written = list(csv.reader(fh))
    assert written == [trainer.METRICS_HEADER] + [list(map(str, r)) for r in rows(before.records)]


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=3, seed=2, eval_every=0)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, train_vanilla(cfg, ds, init_network(ncfg)), cfg, ds)
    before = path.read_bytes()

    def broken_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    longer = replace(cfg, max_steps=5)
    with pytest.raises(OSError, match="disk full"):
        save_run_checkpoint(path, train_vanilla(longer, ds, init_network(ncfg)), longer, ds)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.npz"]


def test_checkpoint_into_a_missing_directory_raises_the_open_error(tmp_path):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=2, eval_every=0)
    res = train_vanilla(cfg, ds, init_network(ncfg))
    with pytest.raises(FileNotFoundError) as err:
        save_run_checkpoint(tmp_path / "missing" / "run.npz", res, cfg, ds)
    assert err.value.__context__ is None
    assert list(tmp_path.iterdir()) == []


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
    assert res.state.predictor is fits[0]
    assert [r.refit for r in res.records] == [1] + [0] * 6
    # the outgoing predictor was still measured on the rows since its fit
    assert [math.isfinite(r.rho_hat) for r in res.records] == [r.step % 3 == 0
                                                                for r in res.records]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    for step, msg in zip((3, 6), warnings):
        assert f"step {step}" in msg and "too few usable samples" in msg


@pytest.mark.parametrize("cheap", [0.7, 3.0])
def test_a_comparison_spends_its_budget_whatever_the_epochs(cheap):
    # 48 training rows at batch 64: every step is one short batch of 48 and
    # an epoch, 2 control rows at f = 0.05. The predicted run opens with one
    # vanilla step, after which its feedback fit has the C = 1 row it needs.
    # Each run stops only when its next step would exceed the budget, so
    # within one step's cost of it.
    ds = gen_regression(60, 8, 0.05, 1)
    assert len(ds.train_idx) == 48
    cm = CostModel(cheap_forward=cheap)
    cfg = TrainConfig(batch_size=64, control_fraction=0.05, budget=10000.0, cost_model=cm)
    report = run_budgeted_comparison(cfg, ds, NetworkConfig(8, (4,), 1), "feedback")
    vanilla_step = 48 * cm.vanilla_per_example
    step_cost = {"vanilla": (0, vanilla_step),
                 "predicted": (1, 2 * cm.vanilla_per_example + 46 * cheap)}
    for algo, (opening, cost) in step_cost.items():
        spent = getattr(report, f"{algo}_cost_units")
        assert cfg.budget - cost < spent <= cfg.budget, (algo, spent)
        assert getattr(report, f"{algo}_steps") \
            == opening + round((spent - opening * vanilla_step) / cost)


@settings(max_examples=40)
@given(cm=st.builds(lambda b, fw, share: CostModel(b, fw, share * (b + fw)),
                    st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.01, 1.0)),
       algo=st.sampled_from(["vanilla", "perfect"]), f=st.sampled_from([0.1, 0.25, 0.3, 0.5]),
       batch_size=st.integers(10, 70), k=st.integers(1, 12))
def test_a_budget_of_the_ledger_after_k_steps_takes_exactly_k_steps(cm, algo, f, batch_size, k):
    # 320 training rows: some batch sizes end an epoch on a short batch
    ds, ncfg = regression(hidden=(4,))
    cfg = TrainConfig(epochs=12, batch_size=batch_size, control_fraction=f, cost_model=cm,
                      seed=2, eval_every=0)

    def run(cfg):
        net = init_network(ncfg)
        return train_vanilla(cfg, ds, net) if algo == "vanilla" else \
            train_predicted(cfg, ds, net, algo)

    budget = run(replace(cfg, max_steps=k)).state.stepping.cost_units
    res = run(replace(cfg, budget=budget))
    assert res.steps == k
    assert all(r.cost_units <= budget for r in res.records)
    assert res.state.stepping.cost_units == budget


def test_the_ledger_prices_forward_then_cheap_forward_then_backward():
    # the two orders of the terms round apart at these costs: forward,
    # backward, then cheap forward would give 0.9
    ledger = trainer.BudgetLedger(CostModel(backward=0.2, forward=0.1, cheap_forward=0.3))
    ledger.charge(1, 2)
    assert ledger.cost_units == 0.8999999999999999


LEARNED_STEPS = pytest.mark.parametrize("kind, make_data, loss_kind", [
    ("feedback", regression, "squared_scalar"),
    ("feedback", blobs, "cross_entropy"),
    ("structured", blobs, "cross_entropy"),
])


def fitted_step(kind, make_data, loss_kind, hidden=(24, 16)):
    """A learned predictor after a refit, a batch and its control row count
    m_c (its first m_c rows are the control rows), and a function giving the
    lean step's G on them."""
    ds, ncfg = make_data(hidden=hidden)
    assert ds.loss_kind == loss_kind
    cfg = TrainConfig(batch_size=64, max_steps=4, refit=RefitPolicy(period=2), seed=7,
                      eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), kind)
    batch_idx = ds.train_idx[64:128]
    m_c = 16

    def step():
        return trainer._step(res.network, res.state.predictor, ds, batch_idx, m_c)[0]

    return res.network, res.state.predictor, ds, batch_idx, m_c, step


@LEARNED_STEPS
def test_learned_step_from_sums_matches_the_summed_rows(monkeypatch, kind, make_data,
                                                        loss_kind, predicted_rows):
    *_, step = fitted_step(kind, make_data, loss_kind)
    from_sums = step()
    monkeypatch.setattr(PREDICTORS[kind], "predict_sums",
                        lambda self, net, parts:
                        [predicted_rows(net, self, pass_rows(net, cache, r)).sum(axis=0)[
                            :net.config.trunk_size] for cache, r, *_ in parts])
    from_rows = step()
    assert np.linalg.norm(from_sums - from_rows) <= 1e-12 * np.linalg.norm(from_rows)


@pytest.mark.parametrize("kind, make_data, loss_kind", [
    ("structured", blobs, "cross_entropy"),
])
def test_a_step_reads_each_predictor_matrix_once(monkeypatch, kind, make_data, loss_kind):
    _, pred, *_, step = fitted_step(kind, make_data, loss_kind)
    matrices = {"basis": pred.basis, "head_q": pred.head_q, "maps": pred.maps}
    products = []

    def counted(a, b):
        products.extend(name for name, m in matrices.items() if np.shares_memory(a, m))
        return a @ b

    monkeypatch.setattr(predictor_module, "few_column_product", counted)
    step()
    assert sorted(products) == ["basis", "maps"]


@LEARNED_STEPS
def test_lean_step_matches_the_row_path(kind, make_data, loss_kind, predicted_rows):
    # the row path: a second forward on the control rows, and per-row
    # backward and prediction rows, summed
    net, pred, ds, batch_idx, m_c, step = fitted_step(kind, make_data, loss_kind)
    ctrl = batch_idx[:m_c]
    _, output, cache = forward(net, ds.features[batch_idx])
    _, r = loss_and_residual(output, ds.targets[batch_idx], loss_kind)
    _, output_c, cache_c = forward(net, ds.features[ctrl])
    _, r_c = loss_and_residual(output_c, ds.targets[ctrl], loss_kind)
    from_rows = combine(predicted_rows(net, pred, pass_rows(net, cache, r)).sum(axis=0),
                        backward(net, cache_c, r_c).sum(axis=0),
                        predicted_rows(net, pred, pass_rows(net, cache_c, r_c)).sum(axis=0),
                        m_c, len(batch_idx))
    lean = step()
    assert np.linalg.norm(lean - from_rows) <= 1e-12 * np.linalg.norm(from_rows)


@LEARNED_STEPS
def test_the_step_is_unbiased_with_the_sampling_variance_over_its_control_rows(
        kind, make_data, loss_kind, predicted_rows):
    # each of the 28 two-row subsets of an 8-row batch put at its head, as
    # an order of the shuffle puts it: G averages to the batch gradient, and
    # its variance is that of the mean of 2 of 8 rows of g - h drawn without
    # replacement, (1 - m_c/m) S^2 / m_c
    net, pred, ds, batch_idx, _, _ = fitted_step(kind, make_data, loss_kind)
    batch, m, m_c = batch_idx[:8], 8, 2
    gs = []
    for ctrl in itertools.combinations(range(m), m_c):
        order = list(ctrl) + [i for i in range(m) if i not in ctrl]
        gs.append(trainer._step(net, pred, ds, batch[order], m_c)[0])
    gs = np.array(gs)
    assert len(gs) == 28
    true = trainer._step(net, None, ds, batch, m)[0]
    assert np.linalg.norm(gs.mean(axis=0) - true) <= 1e-12 * np.linalg.norm(true)
    pt = net.config.trunk_size
    _, output, cache = forward(net, ds.features[batch])
    _, r = loss_and_residual(output, ds.targets[batch], loss_kind)
    d = (backward(net, cache, r) - predicted_rows(net, pred, pass_rows(net, cache, r)))[:, :pt]
    s2 = ((d - d.mean(axis=0)) ** 2).sum() / (m - 1)
    variance = ((gs - gs.mean(axis=0)) ** 2).sum() / len(gs)
    assert variance == pytest.approx((1 - m_c / m) * s2 / m_c, rel=1e-9)


def test_a_learned_step_takes_the_head_of_its_batch_as_control_rows(monkeypatch):
    # the batches are vanilla's, and every step's trunk_rows sees a view of
    # the batch's first m_c rows: all of them without a predictor, round(f m)
    # with one; the ring holds copies
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=16, max_steps=4, seed=4, eval_every=0)
    steps, control = [], []
    step, trunk_rows = trainer._step, trainer.trunk_rows

    def seen_step(net, pred, ds, batch_idx, m_c):
        steps.append((batch_idx, pred is None, m_c))
        return step(net, pred, ds, batch_idx, m_c)

    def seen_rows(net, cache, r):
        control.append(cache)
        return trunk_rows(net, cache, r)

    monkeypatch.setattr(trainer, "_step", seen_step)
    monkeypatch.setattr(trainer, "trunk_rows", seen_rows)
    train_vanilla(cfg, ds, init_network(ncfg))
    vanilla = steps.copy()
    assert [(none, m_c) for _, none, m_c in vanilla] == [(True, 16)] * 4
    steps.clear()
    res = train_predicted(cfg, ds, init_network(ncfg), "feedback")
    # a vanilla opening step on the whole first batch, then 3 predicted steps
    assert [(none, m_c) for _, none, m_c in steps] == [(True, 16)] + [(False, 4)] * 3
    assert all(np.array_equal(ours[0], theirs[0]) for ours, theirs in zip(steps, vanilla))
    assert len(control) == 8 and all(len(cache.x) == 16 for cache in control[:5])
    for (batch_idx, *_), cache in zip(vanilla[1:], control[5:]):
        assert np.array_equal(cache.x, ds.features[batch_idx][:4])
    assert not any(a.flags.owndata for cache in control for a in [cache.x, *cache.act])
    assert res.state.ring.pushed == 16 + 3 * 4


@pytest.mark.parametrize("kind", ["feedback", "structured"])
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
    # one ledger: a vanilla opening step of 32 rows, then 9 predicted steps,
    # which paid for every row a fit read
    ledger = res.state.stepping
    assert (ledger.exact_rows, ledger.predicted_rows) == (32 + 9 * 8, 9 * 24)


def test_a_network_that_does_not_fit_the_data_is_refused_before_step_1(tmp_path):
    ds, _ = blobs()
    ncfg = NetworkConfig(input_dim=6, hidden_widths=(8,), output_dim=1, seed=5)
    cfg = TrainConfig(batch_size=32, budget=500.0, seed=1, eval_every=0)
    paths = tmp_path / "vanilla.csv", tmp_path / "predicted.csv"
    with pytest.raises(DataError, match="output width 1; the data has input width 6 and 3 "
                                        "classes"):
        run_budgeted_comparison(cfg, ds, ncfg, "structured", *paths)
    assert not any(path.exists() for path in paths)


def test_a_perfect_run_draws_no_fit_sample():
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=7, refit=RefitPolicy(period=3), seed=5,
                      eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), "perfect")
    # no ring and no opening steps: 8 control and 24 predicted rows a step
    assert res.state.ring is None
    ledger = res.state.stepping
    assert (ledger.exact_rows, ledger.predicted_rows) == (7 * 8, 7 * 24)
    assert all(math.isnan(r.rho_hat) for r in res.records)


def test_a_fit_buffer_below_d_plus_1_rows_is_a_config_error():
    # D = 16, C = 3: a structured fit needs 17 rows, which a ring of 16 never
    # holds, and a feedback fit C = 3, which a ring of 2 never holds
    cfg = TrainConfig(batch_size=32, max_steps=2, refit=RefitPolicy(buffer_capacity=16),
                      seed=1, eval_every=0)
    ds, ncfg = blobs(hidden=(16,))
    for kind, capacity, need in (("structured", 16, r"D\+1 = 17"), ("feedback", 2, "C = 3")):
        short = replace(cfg, refit=RefitPolicy(buffer_capacity=capacity))
        with pytest.raises(ConfigError, match=f"capacity {capacity} is below the {need} rows "
                                              f"a {kind} fit needs; .* ring"):
            train_predicted(short, ds, init_network(ncfg), kind)
        enough = replace(cfg, refit=RefitPolicy(buffer_capacity=capacity + 1))
        assert train_predicted(enough, ds, init_network(ncfg), kind).steps == 2
    # a feedback fit's C x C solve does not need D+1 rows
    assert train_predicted(cfg, ds, init_network(ncfg), "feedback").state.predictor.n_fit == 16
    # the perfect predictor fits nothing
    short = replace(cfg, refit=RefitPolicy(buffer_capacity=2))
    assert train_predicted(short, ds, init_network(ncfg), "perfect").steps == 2


def wide_blobs_shape(hidden=(64, 64)):
    ds = gen_blobs(600, 3, 8, 6.0, 12, val_fraction=0.2)
    return ds, NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=3, seed=6)


def narrow_regression_shape(hidden=(16,)):
    ds = gen_regression(600, 8, 0.05, 11, val_fraction=0.2)
    return ds, NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=1, seed=5)


@pytest.mark.parametrize("kind, make_data, loss_kind, hidden", [
    ("feedback", narrow_regression_shape, "squared_scalar", (16,)),
    ("structured", wide_blobs_shape, "cross_entropy", (64, 64)),
    ("feedback", wide_blobs_shape, "cross_entropy", (64, 64)),
])
def test_a_learned_step_has_vanillas_head_and_predicts_only_the_trunk(kind, make_data,
                                                                      loss_kind, hidden):
    net, pred, ds, batch_idx, m_c, step = fitted_step(kind, make_data, loss_kind, hidden)
    pt = net.config.trunk_size
    vanilla = trainer._step(net, None, ds, batch_idx, len(batch_idx))[0]
    assert step()[pt:].tobytes() == vanilla[pt:].tobytes()
    _, output, cache = forward(net, ds.features[batch_idx])
    _, r = loss_and_residual(output, ds.targets[batch_idx], loss_kind)
    sums = pred.predict_sums(net, [(cache, r), (cache.rows(slice(0, m_c)), r[:m_c])])
    assert [s.shape for s in sums] == [(pt,), (pt,)]


def state_before_a_refit(make_data, kind):
    """A run 16 steps in at batch 64, its predictor fitted once, after its
    opening steps, and its ring of 256 rows wrapped since."""
    ds, ncfg = make_data()
    cfg = TrainConfig(batch_size=64, epochs=3, max_steps=16, seed=3, eval_every=0)
    state = train_predicted(cfg, ds, init_network(ncfg), kind).state
    assert state.ring.fitted <= 128 and state.ring.pushed > state.ring.capacity == 256
    return ds, state


@pytest.mark.parametrize("make_data, kind, loss_kind", [
    (wide_blobs_shape, "structured", "cross_entropy"),
    (narrow_regression_shape, "structured", "squared_scalar"),
    (narrow_regression_shape, "feedback", "squared_scalar"),
    (wide_blobs_shape, "feedback", "cross_entropy"),
])
def test_factored_refit_matches_the_dense_row_refit(monkeypatch, make_data, kind, loss_kind,
                                                    predicted_rows):
    # the same refit on the ring's rows formed one by one: the fit's
    # factorization and ridge solve take the trunk rows and the bilinear
    # features as dense arrays, and the measurement is the centred
    # statistics of the formed trunk rows and the row references' rows
    ds, state = state_before_a_refit(make_data, kind)
    dense_state = copy.deepcopy(state)
    refit, stats = trainer._refit(state)
    net, pt = state.net, state.net.config.trunk_size

    def formed(a):
        return factored_rows(a.blocks) if isinstance(a, FactoredRows) else a

    monkeypatch.setattr(predictor_module, "truncated_svd",
                        lambda a, rank: truncated_svd(factored(formed(a)), rank))
    monkeypatch.setattr(predictor_module, "solve_ridge",
                        lambda a, b, lam: solve_ridge(formed(a), formed(b), lam))
    monkeypatch.setattr(trainer, "trunk_alignment",
                        lambda p, net, rows:
                        alignment_stats(formed(rows.trunk_grad),
                                        predicted_rows(net, p, rows)[:, :pt]))
    dense_refit, (dense_rho, dense_kappa) = trainer._refit(dense_state)
    assert refit == dense_refit == 1
    assert stats[1] == pytest.approx(dense_kappa, rel=1e-9)
    assert abs(stats[0] - dense_rho) <= 1e-9
    _, output, cache = forward(net, ds.features[ds.val_idx])
    _, r = loss_and_residual(output, ds.targets[ds.val_idx], loss_kind)
    rows = pass_rows(net, cache, r)
    got = predicted_rows(net, state.predictor, rows)
    ref = predicted_rows(net, dense_state.predictor, rows)
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


def test_a_refit_forms_no_trunk_or_feature_rows():
    # 8-64-64-3 with 256 fit rows: the trunk rows would be a (256, 4736)
    # array, 9.7 MB, and the bilinear features a (256, 4160) one. What the
    # refit holds beyond the predictor it returns stays below a quarter of
    # the first. The maps stay in the head's row space, q = C = 3 rows each.
    _, state = state_before_a_refit(wide_blobs_shape, "structured")
    rows_bytes = 256 * state.net.config.trunk_size * 8
    assert state.net.config.trunk_size == 4736
    tracemalloc.start()
    try:
        trainer._refit(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pred = state.predictor
    assert pred.head_q.shape == (64, 3) and pred.maps.shape == (pred.rank, 3, 65)
    fitted = pred.basis.nbytes + pred.head_q.nbytes + pred.maps.nbytes
    assert peak - fitted < rows_bytes / 4


def seen_predictors(monkeypatch):
    """Patch the step to record the bytes of each predicted step's predictor."""
    seen, step = [], trainer._step

    def recorded(net, pred, ds, batch_idx, m_c):
        if pred is not None:
            seen.append([np.asarray(getattr(pred, f.name)).tobytes() for f in fields(pred)])
        return step(net, pred, ds, batch_idx, m_c)

    monkeypatch.setattr(trainer, "_step", recorded)
    return seen


@pytest.mark.parametrize("kind", ["feedback", "structured"])
def test_a_steps_control_rows_do_not_reach_its_own_predictor(monkeypatch, kind):
    # the predictor of step t + 1 = 7 was fitted on rows pushed before it:
    # moving step 7's control rows leaves it unchanged, and changes the refit
    # that follows step 7
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=8, refit=RefitPolicy(period=7), seed=6,
                      eval_every=0)
    perm = trainer.substream(cfg.seed, "shuffle:0").permutation(len(ds.train_idx))
    moved = replace(ds, features=ds.features.copy(), targets=ds.targets.copy())
    control = ds.train_idx[perm][6 * 32:6 * 32 + 8]
    moved.features[control] += 1.0
    moved.targets[control] -= 1.0
    seen, runs = seen_predictors(monkeypatch), []
    for data in (ds, moved):
        train_predicted(cfg, data, init_network(ncfg), kind)
        runs.append(seen.copy())
        seen.clear()
    assert len(runs[0]) == 7   # step 1 is the opening step
    assert runs[0][:6] == runs[1][:6]
    assert runs[0][6] != runs[1][6]


@pytest.mark.parametrize("capacity, measured", [
    # the refits after steps 3 and 6 read the 16 and 24 control rows pushed
    # since the fit before them; a ring of 20 holds only the last 20 of the 24
    (1000, [(2, 0, 8), (3, 0, 8), (4, 0, 8), (5, 0, 8), (6, 0, 8)]),
    (20, [(2, 0, 8), (3, 0, 8), (4, 4, 8), (5, 0, 8), (6, 0, 8)]),
])
def test_a_refit_measures_only_the_rows_pushed_since_the_outgoing_fit(monkeypatch, capacity,
                                                                      measured):
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=7, refit=RefitPolicy(
        period=3, buffer_capacity=capacity), seed=5, eval_every=0)
    align, inputs = trainer.trunk_alignment, []

    def seen(p, net, rows):
        inputs.append(rows.trunk_grad.blocks[0][1].copy())   # the first layer's: x
        return align(p, net, rows)

    monkeypatch.setattr(trainer, "trunk_alignment", seen)
    res = train_predicted(cfg, ds, init_network(ncfg), "feedback")
    perm = trainer.substream(cfg.seed, "shuffle:0").permutation(len(ds.train_idx))
    order = ds.train_idx[perm]
    expected = [ds.features[order[(t - 1) * 32:(t - 1) * 32 + 8][lo:hi]] for t, lo, hi in measured]
    assert len(inputs) == 2
    assert np.array_equal(np.concatenate(inputs), np.concatenate(expected))
    assert [math.isfinite(r.rho_hat) for r in res.records] == [r.step in (3, 6)
                                                                for r in res.records]


@pytest.mark.parametrize("kind", ["feedback", "structured"])
def test_a_refit_reads_its_ring_once_to_measure_and_to_fit(monkeypatch, kind):
    # the measured rows are the last of the rows the fit reads
    _, state = state_before_a_refit(narrow_regression_shape, kind)
    read, reads = trainer.FitRing.read, []

    def counted(ring, n, head_weight):
        reads.append(n)
        return read(ring, n, head_weight)

    monkeypatch.setattr(trainer.FitRing, "read", counted)
    refit, stats = trainer._refit(state)
    assert refit == 1 and stats is not None
    assert reads == [256]


@pytest.mark.parametrize("kind", ["feedback", "structured"])
def test_a_refit_after_one_new_row_measures_nothing_and_fits(kind):
    # batches of 4 at f = 0.25 push one control row a step; a refit after
    # every step has one row since the last fit, too few for (rho, kappa)
    ds = gen_regression(100, 4, 0.05, 1)
    cfg = TrainConfig(batch_size=4, max_steps=6, refit=RefitPolicy(period=1, buffer_capacity=8),
                      eval_every=0)
    res = train_predicted(cfg, ds, init_network(NetworkConfig(4, (3,), 1)), kind)
    assert [r.refit for r in res.records] == [1] * 6
    assert all(math.isnan(r.rho_hat) for r in res.records)
    assert (res.state.ring.pushed, res.state.ring.fitted) == (4 + 5, 4 + 5)


@pytest.mark.parametrize("kind, at, pushed", [
    # D+1 = 41 rows take three opening batches of 16; a checkpoint among them
    ("structured", 2, 32),
    # after the ring of 64 rows has wrapped: 4 control rows a predicted step
    ("structured", 9, 48 + 6 * 4),
    ("feedback", 14, 16 + 13 * 4),
])
def test_resume_is_bit_exact_from_the_opening_and_from_a_wrapped_ring(tmp_path, kind, at,
                                                                      pushed):
    ds, ncfg = regression(hidden=(40,))
    long = TrainConfig(batch_size=16, epochs=5, max_steps=16, seed=2,
                       refit=RefitPolicy(period=4, buffer_capacity=64))
    short = replace(long, max_steps=at)
    whole = train_predicted(long, ds, init_network(ncfg), kind)
    part = train_predicted(short, ds, init_network(ncfg), kind)
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, part, short, ds)
    state = load_run_checkpoint(path, long, ds, ncfg)
    assert state.kind == kind and (state.predictor is None) == (at == 2)
    assert state.ring.pushed == pushed
    rest = resume_run(long, ds, ncfg, path)
    assert rows(part.records) + rows(rest.records) == rows(whole.records)
    assert np.array_equal(rest.network.flat_params(), whole.network.flat_params())
    assert sum(r.refit for r in rest.records) >= 1


@pytest.mark.parametrize("kind, hidden", [("feedback", (8,)), ("structured", (8,)),
                                          ("structured", (40,))])
def test_one_budget_covers_every_pass_of_a_comparison(monkeypatch, kind, hidden):
    # every row through the trainer's forward is charged as an exact or a
    # predicted row: the opening steps, which fill the ring the fits read
    # (three of them at D+1 = 41), and the predicted steps; validation, one
    # pass on the validation rows after each step, is charged nothing
    ds, ncfg = regression(hidden=hidden)
    cfg = TrainConfig(batch_size=16, budget=1500.0, refit=RefitPolicy(period=4), seed=3)
    passed, runs = [], {}
    forward, predicted = trainer.forward, trainer.train_predicted

    def counted(net, x):
        passed.append(len(x))
        return forward(net, x)

    def run(*args, **kwargs):
        runs["first"] = len(passed)
        runs["result"] = predicted(*args, **kwargs)
        return runs["result"]

    monkeypatch.setattr(trainer, "forward", counted)
    monkeypatch.setattr(trainer, "train_predicted", run)
    report = run_budgeted_comparison(cfg, ds, ncfg, kind)
    ledger = runs["result"].state.stepping
    validated = runs["result"].steps * len(ds.val_idx)
    assert sum(passed[runs["first"]:]) == ledger.exact_rows + ledger.predicted_rows + validated
    assert ledger.cost_units == report.predicted_cost_units <= cfg.budget
    assert sum(r.refit for r in report.predicted_records) >= 2


def test_a_compare_calls_the_modules_optimizer_step_once_per_step(monkeypatch):
    # perfbench times a step as the gap between two optimizer_step calls,
    # wrapped at predgrad.trainer.optimizer_step: so each step calls it there,
    # once, on its run's parameter buffer
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, budget=2000.0, refit=RefitPolicy(period=4), seed=3)
    buffers, step = [], trainer.optimizer_step

    def counted(theta, g, lr):
        buffers.append(theta)
        return step(theta, g, lr)

    monkeypatch.setattr(trainer, "optimizer_step", counted)
    report = run_budgeted_comparison(cfg, ds, ncfg, "structured")
    runs = [list(group) for _, group in itertools.groupby(buffers, key=id)]
    assert [len(r) for r in runs] == [report.vanilla_steps, report.predicted_steps]
    assert report.vanilla_steps > 0 and report.predicted_steps > 0


def test_a_cache_from_before_a_step_is_stale():
    ds, ncfg = regression()
    net = init_network(ncfg)
    _, output, cache = forward(net, ds.features[:4])
    residual = loss_and_residual(output, ds.targets[:4], ds.loss_kind)[1]
    trainer.trunk_rows(net, cache, residual)
    res = train_vanilla(TrainConfig(batch_size=32, max_steps=1, eval_every=0), ds, net)
    assert res.network is net and net.version == 1
    with pytest.raises(StaleCache):
        trainer.trunk_rows(net, cache, residual)
