"""Time the three phases of a structured refit at the step cases' sizes and at
64x2 with 256 fit rows: the fit sample's pass (the forward and loss, and the
trunk gradients as ``network.trunk_rows`` factors), the measurement of the
outgoing predictor on the sample (``predictor.trunk_alignment``), and the
fit itself (``trainer._fit`` on the sample's ``FitRows``).

Run from the repository root, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/test_refit_bench.py \\
        --benchmark-json=BENCH_refit.json

Like ``test_step_bench.py``, the directory is outside the tier-1 test paths.
The outgoing predictor is the warmup fit of a one-step run whose fit sample
has as many rows as the timed one; the timed sample is the next rows of
the training set, at the same parameters.
"""

import pytest

from predgrad import trainer
from predgrad.data import gen_blobs
from predgrad.network import NetworkConfig, init_network, trunk_rows
from predgrad.predictor import FitRows, RefitPolicy, trunk_alignment

# (hidden widths, fit rows): the step cases' sizes with one batch of fit rows,
# and the wide-blobs workload's net with its 256-row fit sample
CASES = [((64, 64), 128), ((64, 64, 64, 64), 512), ((128, 128), 256), ((64, 64), 256)]
CASE_IDS = [f"{'x'.join(map(str, h))}-n{n}" for h, n in CASES]


def _sample_pass(net, ds, idx):
    cache, _, residuals = trainer._pass(net, ds, idx, "cross_entropy", 0.0)
    return cache, residuals, trunk_rows(net, cache, residuals)


@pytest.mark.parametrize("hidden, n", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("phase", ["pass", "measure", "fit"])
def test_refit(benchmark, phase, hidden, n):
    ds = gen_blobs(4 * n, 3, 8, 6.0, 2, val_fraction=0.0)
    ncfg = NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=3, seed=2)
    cfg = trainer.TrainConfig(batch_size=n, max_steps=1,
                              refit=RefitPolicy(buffer_capacity=n), seed=5, eval_every=0)
    res = trainer.train_predicted(cfg, ds, init_network(ncfg), "structured")
    net, idx = res.network, ds.train_idx[n:2 * n]
    if phase == "pass":
        benchmark(_sample_pass, net, ds, idx)
        return
    cache, residuals, trunk = _sample_pass(net, ds, idx)
    if phase == "measure":
        benchmark(trunk_alignment, res.predictor, net, cache, residuals, trunk)
    else:
        rows = FitRows.from_pass(cache.act[-1], residuals, trunk, net.head_weight)
        benchmark(trainer._fit, "structured", rows, cfg.refit)
