"""Time one vanilla step (``_step`` without a predictor, every row a control
row) and one predicted step (``_step`` with one) at three net and batch
sizes, and the three layers of a predicted step at the same sizes: the
forward and loss on the batch, ``trunk_rows`` on the control rows' view of
its cache, summed, and ``predict_sums`` on the batch and that view. Each case runs once per
learned predictor kind, on the net of that kind's one-step run, so a kind's
predicted step and layers compare with vanilla at the same parameters. A
last case times one validation pass (``_eval_val``) on 400 rows of an
8-16-1 regression net, narrow-regression's, which validates every step.

Run from the repository root, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/test_step_bench.py \\
        --benchmark-json=BENCH_step.json

The directory is not among the tier-1 test paths, so the plain test run
does not collect it. Each case times the gradient of one batch at fixed
parameters: the forward and backward work of a step, without the optimizer
update, validation or refits; a layer case times one of its calls on the
same batch, its rows gathered beforehand. The predictor is the first fit of
a one-step run whose ring holds one batch, its vanilla opening step's, so
both sides of a comparison fit it on the same rows.
"""

from dataclasses import dataclass

import pytest

from predgrad import trainer
from predgrad.data import gen_blobs, gen_regression
from predgrad.estimator import control_batch_size
from predgrad.network import NetworkConfig, init_network, trunk_rows
from predgrad.predictor import RefitPolicy

SIZES = [((64, 64), 128), ((64, 64, 64, 64), 512), ((128, 128), 256)]
KINDS = ["structured", "feedback"]
SIZE_IDS = [f"{'x'.join(map(str, h))}-m{m}" for h, m in SIZES]
VALIDATION = [((16,), 400)]     # hidden widths, validation rows


@dataclass
class Step:
    net: object
    predictor: object
    ds: object
    batch_idx: object
    m_c: int                # the control rows: the batch's first m_c


def _step(kind, hidden, m) -> Step:
    ds = gen_blobs(4 * m, 3, 8, 6.0, 2, val_fraction=0.0)
    ncfg = NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=3, seed=2)
    cfg = trainer.TrainConfig(batch_size=m, max_steps=1, refit=RefitPolicy(buffer_capacity=m),
                              seed=5, eval_every=0)
    res = trainer.train_predicted(cfg, ds, init_network(ncfg), kind)
    return Step(res.network, res.state.predictor, ds, ds.train_idx[m:2 * m],
                control_batch_size(m, 0.25))


@pytest.mark.parametrize("hidden, m", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("algo", ["vanilla", "predicted"])
def test_step(benchmark, algo, kind, hidden, m):
    s = _step(kind, hidden, m)
    if algo == "vanilla":
        benchmark(trainer._step, s.net, None, s.ds, s.batch_idx, len(s.batch_idx))
    else:
        benchmark(trainer._step, s.net, s.predictor, s.ds, s.batch_idx, s.m_c)


@pytest.mark.parametrize("hidden, m", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("layer", ["forward", "trunk_rows", "predict_sums"])
def test_layer(benchmark, layer, kind, hidden, m):
    s = _step(kind, hidden, m)
    x, y = s.ds.features[s.batch_idx], s.ds.targets[s.batch_idx]
    cache, _, residuals = trainer._pass(s.net, x, y, s.ds.loss_kind)
    cache_c, r_c = cache.rows(slice(0, s.m_c)), residuals[:s.m_c]
    if layer == "forward":
        benchmark(trainer._pass, s.net, x, y, s.ds.loss_kind)
    elif layer == "trunk_rows":   # summed, as the predicted step sums the control rows
        benchmark(lambda: trunk_rows(s.net, cache_c, r_c).sum())
    else:
        benchmark(s.predictor.predict_sums, s.net, [(cache, residuals), (cache_c, r_c)])


@pytest.mark.parametrize("hidden, n_val", VALIDATION,
                         ids=[f"8x{'x'.join(map(str, h))}x1-n{n}" for h, n in VALIDATION])
def test_validation(benchmark, hidden, n_val):
    ds = gen_regression(5 * n_val, 8, 0.05, 1, val_fraction=0.2)
    net = init_network(NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=1, seed=1))
    x, y = ds.features[ds.val_idx], ds.targets[ds.val_idx]
    assert len(x) == n_val
    benchmark(trainer._eval_val, net, x, y, ds.loss_kind)
