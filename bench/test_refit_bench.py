"""Time the two phases of a refit, per learned predictor kind, at the step
cases' sizes, at 64x2 with 256 ring rows, and on the narrow-regression
workload's 8-16-1 regression net with 256 ring rows: the measurement of the
outgoing predictor (``predictor.trunk_alignment``) and the fit itself (the
trainer's call, ``fit_feedback`` or ``fit_structured``), both on one
``FitRows`` read from the trainer's ring (``FitRing.read``), as a refit
reads it. A refit runs no pass of its own: the rows are the factors the
steps pushed.

Run from the repository root, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/test_refit_bench.py \\
        --benchmark-json=BENCH_refit.json

Like ``test_step_bench.py``, the directory is outside the tier-1 test paths.
The ring is that of a two-step run at a batch of the ring's size: a vanilla
opening step fills it, the first fit follows, and the second step's control
rows overwrite its oldest rows. The outgoing predictor is that first fit,
and both phases read the whole ring.
"""

import pytest

from predgrad import trainer
from predgrad.data import gen_blobs, gen_regression
from predgrad.network import NetworkConfig, init_network
from predgrad.predictor import RefitPolicy, trunk_alignment

# (hidden widths, ring rows, data): the step cases' sizes with one batch of
# ring rows, and the wide-blobs and narrow-regression workloads' nets with
# their 256-row rings; one output on regression, three on blobs
CASES = [((64, 64), 128, "blobs"), ((64, 64, 64, 64), 512, "blobs"),
         ((128, 128), 256, "blobs"), ((64, 64), 256, "blobs"), ((16,), 256, "regression")]
CASE_IDS = [f"{'x'.join(map(str, h))}-n{n}" + ("" if data == "blobs" else f"-{data}")
            for h, n, data in CASES]
KINDS = ["structured", "feedback"]


def _dataset(data, n):
    if data == "regression":
        return gen_regression(4 * n, 8, 0.05, 1, val_fraction=0.0)
    return gen_blobs(4 * n, 3, 8, 6.0, 2, val_fraction=0.0)


@pytest.mark.parametrize("hidden, n, data", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("phase", ["measure", "fit"])
def test_refit(benchmark, phase, kind, hidden, n, data):
    ds = _dataset(data, n)
    ncfg = NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=ds.output_dim, seed=2)
    cfg = trainer.TrainConfig(batch_size=n, max_steps=2,
                              refit=RefitPolicy(buffer_capacity=n), seed=5, eval_every=0)
    res = trainer.train_predicted(cfg, ds, init_network(ncfg), kind)
    net, ring = res.network, res.state.ring
    rows = ring.read(ring.capacity, net.head_weight)
    if phase == "measure":
        benchmark(trunk_alignment, res.state.predictor, net, rows)
    else:
        benchmark(trainer.fit_feedback if kind == "feedback" else trainer.fit_structured, rows)
