import math
import re
from dataclasses import replace

import numpy as np
import pytest

from predgrad.data import gen_blobs, gen_regression
from predgrad.errors import ConfigError, NumericError
from predgrad.network import NetworkConfig, init_network
from predgrad.predictor import PREDICTORS, RefitPolicy
from predgrad.trainer import (TrainConfig, load_run_checkpoint, resume_run,
                              save_run_checkpoint, train_predicted, train_vanilla)


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
    cfg = TrainConfig(batch_size=16, epochs=2, optimizer="sgd_momentum", momentum=0.5,
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
                      optimizer="sgd_momentum", momentum=0.9, seed=1, eval_every=0)
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
    assert np.array_equal(state.net.flat_params(), res.network.flat_params())
    assert np.array_equal(state.opt_state, res.state.opt_state)
    assert state.stepping == res.stepping_ledger
    assert state.warmup_ledger == res.warmup_ledger
    assert len(state.buffer) == len(res.state.buffer)
    for a, b in zip(state.buffer, res.state.buffer):
        assert np.array_equal(a.trunk_grad, b.trunk_grad) and np.array_equal(a.h, b.h)


@pytest.mark.parametrize("algo", ["vanilla", "structured"])
def test_resume_extends_a_run_bit_exactly(tmp_path, algo):
    # 10 batches an epoch, refits at steps 4, 8 and 12: the extension
    # crosses an epoch and a refit
    ds, ncfg = regression()
    n = 6
    long = TrainConfig(batch_size=32, epochs=5, max_steps=2 * n,
                       refit=RefitPolicy(period=4), optimizer="sgd_momentum",
                       momentum=0.9, seed=2)
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
        train_predicted(TrainConfig(batch_size=32, max_steps=2, warmup=False), ds,
                        init_network(ncfg), "structured")
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
