import json
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from predgrad import predictor, trainer
from predgrad.data import gen_blobs, gen_regression
from predgrad.errors import ConfigError, InsufficientData, NumericError
from predgrad.network import NetworkConfig, init_network
from predgrad.predictor import PREDICTORS, PerfectPredictor, RefitPolicy
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


@pytest.mark.parametrize("make_data", [regression, blobs])
def test_perfect_predictor_reproduces_vanilla(make_data):
    ds, ncfg = make_data()
    cfg = TrainConfig(batch_size=16, epochs=2, momentum=0.5, seed=3, eval_every=2)
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
    assert len(state.buffer) == len(res.state.buffer)
    if kind == "perfect":   # fits nothing, so it keeps no rows
        assert len(state.buffer) == 0
        return
    for a, b in zip(state.buffer.rows(), res.state.buffer.rows()):
        assert np.array_equal(a, b)


def test_perfect_checkpoint_with_buffer_rows_resumes_bit_exactly(tmp_path):
    # older versions kept a perfect run's control rows and saved them
    ds, ncfg = regression()
    long = TrainConfig(batch_size=32, max_steps=8, momentum=0.9, seed=1, eval_every=0)
    short = replace(long, max_steps=4)
    part = train_predicted(short, ds, init_network(ncfg), "perfect")
    path = tmp_path / "run.npz"
    save_run_checkpoint(path, part, short)
    with np.load(path) as z:
        arrays = dict(z)
    assert not any(key in arrays for key in trainer.BUFFER_KEYS)
    d, pt = part.network.config.last_hidden, part.network.trunk_size
    rng = np.random.default_rng(0)
    arrays.update(zip(trainer.BUFFER_KEYS,   # llh, residual, h, trunk gradient rows
                      (rng.standard_normal((32, k)) for k in (d, 1, d, pt))))
    np.savez(path, **arrays)
    assert len(load_run_checkpoint(path, long).buffer) == 32

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
    # batch 32 < D+1 = 65: the warmup draws 65 examples so the fit succeeds
    ds, ncfg = blobs(hidden=(64, 64), n=600)
    cfg = TrainConfig(batch_size=32, max_steps=3, refit=RefitPolicy(period=3),
                      seed=4, eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), "structured")
    assert res.steps == 3
    assert res.warmup_ledger.backward_count == 65
    assert sum(r.refit for r in res.records) >= 1


def test_warmup_keeps_the_batch_when_it_is_large_enough():
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=2, seed=4, eval_every=0)
    res = train_predicted(cfg, ds, init_network(ncfg), "structured")
    assert res.warmup_ledger.backward_count == 32


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
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    for step, msg in zip((3, 6), warnings):
        assert f"step {step}" in msg and "too few usable samples" in msg


def test_format_1_checkpoint_resumes(monkeypatch):
    # written by an earlier version, whose config carried a warmup option:
    # structured predictor, hidden (8,), refits every 3 steps, 5 steps done
    ds, ncfg = regression()
    cfg = TrainConfig(batch_size=32, max_steps=9,
                      refit=RefitPolicy(period=3, buffer_capacity=16),
                      momentum=0.9, seed=1, eval_every=0)
    state = load_run_checkpoint(DATA / "format1_structured.npz", cfg)
    assert state.net.config == ncfg
    assert state.predictor.kind == "structured" and len(state.buffer) == 16
    assert state.step == 5

    rest = resume_run(cfg, ds, DATA / "format1_structured.npz")
    assert rest.steps == 9
    assert all(math.isfinite(r.loss) for r in rest.records)
    assert [r.refit for r in rest.records] == [1, 0, 0, 1]   # steps 6 and 9
    # the uninterrupted run agrees; exact bits may differ between BLAS builds.
    # The fixture's predictor and buffer come from fits through the 72 x 72
    # primal system, so the uninterrupted run solves its first two fits
    # (warmup and step 3) that way too, and the kernel form after them
    solve, lams = predictor.solve_ridge, []

    def first_two_primal(a, b, lam):
        lams.append(lam)
        if len(lams) > 2:
            return solve(a, b, lam)
        return np.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]), a.T @ b)

    monkeypatch.setattr(predictor, "solve_ridge", first_two_primal)
    whole = train_predicted(cfg, ds, init_network(ncfg), "structured")
    assert len(lams) == 4
    assert np.allclose(rest.network.flat_params(), whole.network.flat_params(),
                       rtol=1e-9, atol=1e-12)
