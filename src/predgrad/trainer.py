"""Training loops: vanilla gradient descent and predicted gradient descent.

Both loops draw their epoch shuffles from the same named substream and drop
the same short final batch, so runs with equal seeds see identical batch
schedules regardless of algorithm. The predicted loop splits each
mini-batch with a per-step substream and combines, with the control-variate
correction ``predgrad.estimator.combine``, the predictions for every row
with the true and predicted gradients of the control rows. A step makes one
``forward`` on the whole batch and then forms three sums from its cache:
``backward_sum`` on the control rows' view of the cache
(``ForwardCache.rows``), and one ``predict_sums`` call on the batch and
that same view, which reads the predictor's matrices once for both sums.
No gradient is formed row by row on an ordinary step. Vanilla's gradient
is the same ``forward`` and ``backward_sum`` on the batch. For a perfect
predictor each predicted sum is ``backward_sum``, so the whole-batch
prediction is vanilla's own call on the same rows, and the control
prediction the same call on the same arrays as the true control sum: the
correction is exactly zero and the trajectory is vanilla's bit for bit.

The predictor is one of the objects of ``predgrad.predictor``.

A step whose batch loss or combined gradient is not finite stops the run
with a ``NumericError`` that names the step.

A learned predictor is fitted before the first step, and refitted every
refit period, on a fit sample of its own: ``RefitPolicy.buffer_capacity``
training rows (all of them if there are fewer) drawn afresh from a
stateless substream, "warmup" before the first step and "refit:<step>"
after it, with a forward at the current parameters and the sample's trunk
gradients held as their per-layer factors (``network.trunk_rows``), which
the fit and the measurement use without forming a row. So a fit sees rows
from one parameter state, and a resumed run draws the samples an
uninterrupted one draws. Before a refit replaces the predictor, the
outgoing one is measured on that sample: its trunk-only alignment
statistics (``predictor.trunk_alignment``, from the moments of both
sides' rows) are the refit step's rho_hat, kappa_hat and phi_hat (phi at
the step's realised control fraction m_c/m), the end-of-period values of
the predictor's refit period. Every other step records NaN for them. The
perfect predictor fits nothing and draws no sample. A refit that fails for
lack of usable rows keeps the old predictor and warns, naming the step.

Cost accounting charges what the algorithm structure prescribes (forward +
backward per control example, cheap forward per prediction example),
independent of how a predictor is implemented internally. It counts passes
per example, so a sum formed by ``backward_sum`` or ``predict_sums`` is
charged as the rows it sums, whatever it costs, and the control rows'
prediction is not charged. Each step's split is drawn before the budget
check, and that check and the step's one charge read the same m_c and
m_p. Every fit sample, the warmup's and each refit's, is charged to a
separate warmup (fit) ledger as a forward and a backward per row; the
budget governs stepping cost only, mirroring a cost model that counts
per-iteration passes.
"""

import contextlib
import csv
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .analysis import CostModel, gamma, rho_star
from .data import Dataset
from .errors import (BudgetError, ConfigError, DataError, DimensionError,
                     InsufficientData, NumericError)
from .estimator import combine, control_batch_size, split_minibatch, variance_inflation
from .network import (Network, NetworkConfig, backward_sum, cheap_forward, forward,
                      init_network, loss_and_residual, trunk_rows)
# no longer called here, but perfbench's trace targets name these attributes
from .estimator import alignment_stats  # noqa: F401
from .network import backward  # noqa: F401
from .predictor import (PREDICTORS, FitRows, PerfectPredictor, RefitPolicy, fit_scalar,
                        fit_structured, should_refit, trunk_alignment)
from .rng import substream

METRICS_HEADER = ["step", "epoch", "cost_units", "loss", "val_metric",
                  "rho_hat", "kappa_hat", "phi_hat", "refit"]
RUN_CHECKPOINT_FORMAT = 1

LOSS_KINDS = ("squared_scalar", "squared_vector", "cross_entropy")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1
    batch_size: int = 32
    control_fraction: float = 0.25
    loss_kind: str | None = None        # None: derived from the dataset kind
    smoothing: float = 0.0
    learning_rate: float = 0.05
    momentum: float = 0.0               # > 0: heavy-ball momentum
    lr_decay: float = 0.0               # lr_t = lr / (1 + lr_decay * t)
    refit: RefitPolicy = field(default_factory=RefitPolicy)
    cost_model: CostModel = field(default_factory=CostModel)
    budget: float | None = None         # cap on stepping cost units
    max_steps: int | None = None
    seed: int = 0
    eval_every: int = 1                 # 0 disables validation evaluation

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 < self.control_fraction <= 1.0:
            raise ConfigError(
                f"control_fraction must be in (0,1], got {self.control_fraction}")
        if self.loss_kind is not None and self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError("smoothing must be in [0,1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0,1)")
        if self.lr_decay < 0:
            raise ConfigError("lr_decay must be nonnegative")
        if self.budget is not None and self.budget < 0:
            raise ConfigError("budget must be nonnegative")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be nonnegative")


@dataclass
class BudgetLedger:
    cost_model: CostModel
    forward_count: int = 0
    cheap_forward_count: int = 0
    backward_count: int = 0

    def charge(self, forward: int = 0, cheap_forward: int = 0, backward: int = 0):
        self.forward_count += forward
        self.cheap_forward_count += cheap_forward
        self.backward_count += backward

    @property
    def cost_units(self) -> float:
        cm = self.cost_model
        return (self.forward_count * cm.forward
                + self.cheap_forward_count * cm.cheap_forward
                + self.backward_count * cm.backward)

    def plus(self, other: "BudgetLedger") -> "BudgetLedger":
        return BudgetLedger(self.cost_model,
                            self.forward_count + other.forward_count,
                            self.cheap_forward_count + other.cheap_forward_count,
                            self.backward_count + other.backward_count)


@dataclass
class StepRecord:
    step: int
    epoch: int
    cost_units: float
    loss: float
    val_metric: float
    rho_hat: float          # trunk-only alignment of the outgoing predictor on a
                            # refit sample; NaN on steps that drew none
    kappa_hat: float
    phi_hat: float
    refit: int

    def csv_row(self):
        return [self.step, self.epoch, repr(float(self.cost_units)),
                repr(float(self.loss)), repr(float(self.val_metric)),
                repr(float(self.rho_hat)), repr(float(self.kappa_hat)),
                repr(float(self.phi_hat)), self.refit]


def optimizer_step(theta: np.ndarray, g: np.ndarray, state, lr: float, momentum: float):
    """One sgd / sgd-with-momentum update; returns (theta', state')."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if theta.shape != g.shape:
        raise DimensionError(f"parameter/gradient shape mismatch "
                             f"{theta.shape} vs {g.shape}")
    if momentum == 0.0 and state is None:
        return theta - lr * g, None
    buf = np.zeros_like(theta) if state is None else state
    buf = momentum * buf + g
    return theta - lr * buf, buf


@dataclass
class TrainState:
    net: Network
    predictor: object | None        # a fitted predictor; None for vanilla
    opt_state: np.ndarray | None
    step: int = 0
    epoch: int = 0
    batch_in_epoch: int = 0
    stepping: BudgetLedger | None = None
    warmup_ledger: BudgetLedger | None = None


@dataclass
class RunResult:
    network: Network
    records: list
    stepping_ledger: BudgetLedger
    warmup_ledger: BudgetLedger
    predictor: object | None
    state: TrainState

    @property
    def ledger(self) -> BudgetLedger:
        """Total compute ledger for the run (stepping plus warmup)."""
        return self.stepping_ledger.plus(self.warmup_ledger)

    @property
    def steps(self) -> int:
        return self.state.step

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("nan")


def _resolve_loss_kind(cfg: TrainConfig, ds: Dataset) -> str:
    if cfg.loss_kind is not None:
        kind = cfg.loss_kind
    elif ds.kind == "classification":
        kind = "cross_entropy"
    else:
        kind = "squared_scalar" if ds.targets.shape[1] == 1 else "squared_vector"
    if ds.kind == "classification" and kind != "cross_entropy":
        raise ConfigError("classification data requires the cross_entropy loss")
    if ds.kind == "regression" and kind == "cross_entropy":
        raise ConfigError("cross_entropy needs classification data")
    if kind == "squared_scalar" and ds.kind == "regression" and ds.targets.shape[1] != 1:
        raise ConfigError("squared_scalar needs one-dimensional targets")
    return kind


def _fit(kind: str, rows: FitRows, policy: RefitPolicy):
    """A fresh predictor of a learned kind fitted on ``rows``. The fit
    functions are looked up in this module, so wrapping
    ``predgrad.trainer.fit_*`` sees every fit."""
    if kind == "scalar":
        return fit_scalar(rows, policy.ridge_lambda)
    return fit_structured(rows, None, policy.ridge_lambda)


def _pass(net, ds, idx, loss_kind, smoothing):
    """Forward on the examples idx: returns (cache, losses, residuals), all
    in the order of idx."""
    _, output, cache = forward(net, ds.features[idx])
    losses, residuals = loss_and_residual(output, ds.targets[idx], loss_kind, smoothing)
    return cache, losses, residuals


def _batch_true(net, ds, batch_idx, loss_kind, smoothing):
    """Mean true gradient and mean loss over a batch."""
    m = len(batch_idx)
    cache, losses, residuals = _pass(net, ds, batch_idx, loss_kind, smoothing)
    return backward_sum(net, cache, residuals) / m, float(losses.sum() / m)


def _batch_predicted(net, predictor, ds, batch_idx, split, loss_kind, smoothing):
    """Debiased combined gradient and mean loss over one split mini-batch,
    from one forward on the batch and three sums over its cache."""
    cache, losses, residuals = _pass(net, ds, batch_idx, loss_kind, smoothing)
    cache_c, r_c = cache.rows(split.control), residuals[split.control]
    predicted, predicted_c = predictor.predict_sums(net, [(cache, residuals), (cache_c, r_c)])
    combined = combine(predicted, backward_sum(net, cache_c, r_c), predicted_c,
                       split.m_c, split.m)
    return combined, float(losses.sum() / split.m)


def _eval_val(net, ds, loss_kind, smoothing) -> float:
    if len(ds.val_idx) == 0:
        return float("nan")
    _, output = cheap_forward(net, ds.features[ds.val_idx])
    losses, _ = loss_and_residual(output, ds.targets[ds.val_idx], loss_kind, smoothing)
    return float(losses.mean())


class _MetricsWriter:
    def __init__(self, path):
        self.path = path
        if path is not None:
            fresh = not os.path.exists(path) or os.path.getsize(path) == 0
            self._fh = open(path, "a", newline="")
            self._csv = csv.writer(self._fh)
            if fresh:
                self._csv.writerow(METRICS_HEADER)
                self._fh.flush()

    def write(self, rec: StepRecord):
        if self.path is not None:
            self._csv.writerow(rec.csv_row())
            self._fh.flush()

    def close(self):
        if self.path is not None:
            self._fh.close()


def _refit(cfg: TrainConfig, ds: Dataset, state: TrainState, loss_kind: str,
           kind: str):
    """Fit a fresh ``kind`` predictor on a fit sample drawn for this step and
    make it ``state.predictor``; returns (1 if it was replaced else 0, the
    outgoing predictor's alignment stats on the sample or None). The
    sample, charged to the warmup ledger, is ``buffer_capacity`` training
    rows, or all of them if fewer. At step 0 there is no outgoing predictor
    and a failed fit raises; later, it keeps the old predictor and warns."""
    n = min(cfg.refit.buffer_capacity, len(ds.train_idx))
    name = "warmup" if state.step == 0 else f"refit:{state.step}"
    chosen = substream(cfg.seed, name).choice(ds.train_idx, size=n, replace=False)
    net, outgoing = state.net, state.predictor
    cache, _, residuals = _pass(net, ds, chosen, loss_kind, cfg.smoothing)
    trunk = trunk_rows(net, cache, residuals)
    state.warmup_ledger.charge(forward=n, backward=n)
    stats = None
    if outgoing is not None:
        stats = trunk_alignment(outgoing, net, cache, residuals, trunk)
    try:
        state.predictor = _fit(kind, FitRows.from_pass(cache.act[-1], residuals, trunk,
                                                       net.head_weight), cfg.refit)
    except InsufficientData as e:
        if outgoing is None:
            raise
        log.warning("refit skipped at step %d, keeping the old predictor: %s",
                    state.step, e)
        return 0, stats
    return 1, stats


def _check_run(cfg: TrainConfig, ds: Dataset, predicted: bool):
    """Validate a run's config against its data, warning once when the
    control fraction does not split a batch evenly; returns (loss kind,
    smallest usable batch, the same for both loops)."""
    if len(ds.train_idx) == 0:
        raise DataError("dataset has no training examples")
    loss_kind = _resolve_loss_kind(cfg, ds)
    f = cfg.control_fraction
    min_batch = max(2, math.ceil(1.0 / f))
    if not predicted:
        return loss_kind, min_batch
    if not 0.0 < f < 1.0:
        raise ConfigError(
            f"predicted training needs 0 < control_fraction < 1, got {f}")
    if cfg.batch_size < min_batch:
        raise ConfigError(
            f"batch_size {cfg.batch_size} too small for control fraction "
            f"{f} (need >= {min_batch})")
    m_c = control_batch_size(cfg.batch_size, f)
    if abs(f * cfg.batch_size - m_c) > 1e-9:
        log.warning("control fraction f=%g gives fractional batch size %g; "
                    "rounding to %d", f, f * cfg.batch_size, m_c)
    return loss_kind, min_batch


def _train_loop(cfg: TrainConfig, ds: Dataset, state: TrainState, loss_kind: str,
                min_batch: int, metrics_path=None) -> RunResult:
    """Run from ``state`` to the end of the run, with what ``_check_run``
    returned for it."""
    predicted = state.predictor is not None
    learned = predicted and state.predictor.kind != "perfect"
    f, cm = cfg.control_fraction, cfg.cost_model
    theta = state.net.flat_params()
    records = []
    writer = _MetricsWriter(metrics_path)
    n_train = len(ds.train_idx)

    try:
        done = False
        for epoch in range(state.epoch, cfg.epochs):
            state.epoch = epoch
            perm = substream(cfg.seed, f"shuffle:{epoch}").permutation(n_train)
            order = ds.train_idx[perm]
            batches = [order[s:s + cfg.batch_size]
                       for s in range(0, n_train, cfg.batch_size)]
            if len(batches) > 1 and len(batches[-1]) < min_batch \
                    and len(batches[-1]) < cfg.batch_size:
                batches = batches[:-1]
            elif len(batches) == 1 and len(batches[0]) < min_batch and predicted:
                raise DataError("training set smaller than the minimum batch")

            start = state.batch_in_epoch
            for bi in range(start, len(batches)):
                batch_idx = batches[bi]
                if cfg.max_steps is not None and state.step >= cfg.max_steps:
                    done = True
                    break
                m_c = m = len(batch_idx)
                if predicted:
                    split = split_minibatch(
                        m, f, substream(cfg.seed, f"split:{state.step}"))
                    m_c = split.m_c
                cost = m_c * cm.vanilla_per_example + (m - m_c) * cm.cheap_forward
                if cfg.budget is not None and \
                        state.stepping.cost_units + cost > cfg.budget:
                    if state.step == 0:
                        raise BudgetError(
                            f"budget {cfg.budget} is smaller than one batch "
                            f"({cost} cost units)")
                    done = True
                    break
                state.batch_in_epoch = bi
                state.stepping.charge(forward=m_c, backward=m_c, cheap_forward=m - m_c)

                if not predicted:
                    grad, batch_loss = _batch_true(
                        state.net, ds, batch_idx, loss_kind, cfg.smoothing)
                else:
                    grad, batch_loss = _batch_predicted(
                        state.net, state.predictor, ds, batch_idx, split, loss_kind,
                        cfg.smoothing)
                if not (math.isfinite(batch_loss) and np.isfinite(grad).all()):
                    raise NumericError(
                        f"non-finite loss or gradient at step {state.step + 1}")

                lr_t = cfg.learning_rate / (1.0 + cfg.lr_decay * state.step)
                theta, state.opt_state = optimizer_step(
                    theta, grad, state.opt_state, lr_t, cfg.momentum)
                state.net.set_flat_params(theta)
                state.step += 1
                state.batch_in_epoch = bi + 1

                refit_flag, stats = 0, None
                if learned and should_refit(cfg.refit, state.step):
                    refit_flag, stats = _refit(cfg, ds, state, loss_kind,
                                               state.predictor.kind)

                if cfg.eval_every and state.step % cfg.eval_every == 0:
                    val = _eval_val(state.net, ds, loss_kind, cfg.smoothing)
                else:
                    val = float("nan")

                nan = float("nan")
                if stats is not None and not stats.degenerate:
                    rec = StepRecord(
                        state.step, epoch, state.stepping.cost_units, batch_loss,
                        val, stats.rho, stats.kappa,
                        variance_inflation(split.f_effective, stats.rho, stats.kappa),
                        refit_flag)
                else:
                    rec = StepRecord(state.step, epoch, state.stepping.cost_units,
                                     batch_loss, val, nan, nan, nan, refit_flag)
                records.append(rec)
                writer.write(rec)
            if done:
                break
            state.batch_in_epoch = 0
        else:
            state.epoch = cfg.epochs
    finally:
        writer.close()

    return RunResult(network=state.net, records=records,
                     stepping_ledger=state.stepping,
                     warmup_ledger=state.warmup_ledger,
                     predictor=state.predictor, state=state)


def _fresh_state(cfg: TrainConfig, net: Network) -> TrainState:
    return TrainState(net=net, predictor=None, opt_state=None,
                      stepping=BudgetLedger(cfg.cost_model),
                      warmup_ledger=BudgetLedger(cfg.cost_model))


def train_vanilla(cfg: TrainConfig, ds: Dataset, net: Network,
                  metrics_path=None) -> RunResult:
    """Full-gradient mini-batch training (the baseline loop)."""
    return _train_loop(cfg, ds, _fresh_state(cfg, net), *_check_run(cfg, ds, False),
                       metrics_path)


def train_predicted(cfg: TrainConfig, ds: Dataset, net: Network, kind: str,
                    metrics_path=None) -> RunResult:
    """Predicted-gradient training with a predictor of the named kind,
    "scalar", "structured" or "perfect". "perfect" becomes a
    PerfectPredictor; a learned kind is fitted on a warmup sample before
    the first step, and needs a fit sample (``buffer_capacity``) of at
    least D+1 rows (D the last hidden width).
    """
    state = _fresh_state(cfg, net)
    loss_kind, min_batch = _check_run(cfg, ds, predicted=True)
    if not isinstance(kind, str) or kind not in PREDICTORS:
        raise ConfigError(f"not a predictor kind: {kind!r}")
    if kind == "scalar" and loss_kind != "squared_scalar":
        raise ConfigError("the scalar predictor requires a scalar squared loss")
    need = net.config.last_hidden + 1
    if kind != "perfect" and cfg.refit.buffer_capacity < need:
        raise ConfigError(
            f"buffer capacity {cfg.refit.buffer_capacity} is below the D+1 = {need} "
            f"rows a {kind} fit needs; it is the size of each fit sample")
    if kind == "perfect":
        state.predictor = PerfectPredictor()
    else:
        _refit(cfg, ds, state, loss_kind, kind)
    return _train_loop(cfg, ds, state, loss_kind, min_batch, metrics_path)


@dataclass
class ComparisonReport:
    control_fraction: float
    budget: float
    gamma_f: float
    vanilla_steps: int
    predicted_steps: int
    vanilla_final_loss: float
    predicted_final_loss: float
    vanilla_final_val: float
    predicted_final_val: float
    vanilla_cost_units: float
    predicted_cost_units: float
    predicted_warmup_cost_units: float
    # means over the refit steps of the end-of-period statistics that each
    # refit measures; NaN when the predicted run made no refit
    rho_hat_trunk_mean: float
    kappa_hat_mean: float
    phi_hat_mean: float
    rho_star_measured: float
    break_even_verdict: bool
    vanilla_records: list
    predicted_records: list

    def to_dict(self) -> dict:
        skip = ("vanilla_records", "predicted_records")
        return {k: v for k, v in self.__dict__.items() if k not in skip}


def _nanmean(values) -> float:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=np.float64)
    return float(arr.mean()) if arr.size else float("nan")


def run_budgeted_comparison(cfg: TrainConfig, ds: Dataset, net_cfg: NetworkConfig,
                            predictor="structured",
                            vanilla_metrics_path=None,
                            predicted_metrics_path=None) -> ComparisonReport:
    """Train both algorithms from the same initialization until each exhausts
    the same stepping-cost budget, and report paired outcomes plus the
    measured-alignment break-even verdict."""
    if cfg.budget is None or cfg.budget <= 0:
        raise BudgetError("run_budgeted_comparison requires a positive budget")
    base = init_network(net_cfg)
    batches_per_epoch = max(1, len(ds.train_idx) // cfg.batch_size)
    cheapest = cfg.batch_size * cfg.cost_model.cheap_forward
    epochs_needed = int(cfg.budget // (batches_per_epoch * cheapest)) + 2
    run_cfg = replace(cfg, epochs=max(cfg.epochs, epochs_needed))

    res_v = train_vanilla(run_cfg, ds, base.copy(), vanilla_metrics_path)
    res_p = train_predicted(run_cfg, ds, base.copy(), predictor,
                            predicted_metrics_path)

    rho_trunk = _nanmean([r.rho_hat for r in res_p.records])
    kappa = _nanmean([r.kappa_hat for r in res_p.records])
    phi = _nanmean([r.phi_hat for r in res_p.records])
    f = cfg.control_fraction
    if math.isnan(rho_trunk) or math.isnan(kappa) or kappa <= 0:
        star = float("nan")
        verdict = False
    else:
        star = rho_star(cfg.cost_model, f, kappa)
        verdict = bool(rho_trunk >= star)

    def final_val(records):
        vals = [r.val_metric for r in records if not math.isnan(r.val_metric)]
        return vals[-1] if vals else float("nan")

    return ComparisonReport(
        control_fraction=f,
        budget=float(cfg.budget),
        gamma_f=gamma(cfg.cost_model, f),
        vanilla_steps=res_v.steps,
        predicted_steps=res_p.steps,
        vanilla_final_loss=res_v.final_loss,
        predicted_final_loss=res_p.final_loss,
        vanilla_final_val=final_val(res_v.records),
        predicted_final_val=final_val(res_p.records),
        vanilla_cost_units=res_v.stepping_ledger.cost_units,
        predicted_cost_units=res_p.stepping_ledger.cost_units,
        predicted_warmup_cost_units=res_p.warmup_ledger.cost_units,
        rho_hat_trunk_mean=rho_trunk,
        kappa_hat_mean=kappa,
        phi_hat_mean=phi,
        rho_star_measured=star,
        break_even_verdict=verdict,
        vanilla_records=res_v.records,
        predicted_records=res_p.records,
    )


# --- run checkpointing -----------------------------------------------------

RUN_LENGTH_KEYS = ("epochs", "max_steps", "budget")  # a resumed run may change them
RETIRED_KEYS = ("warmup",)  # written by older versions, no longer an option


def _cfg_json(cfg: TrainConfig) -> str:
    d = {
        "epochs": cfg.epochs, "batch_size": cfg.batch_size,
        "control_fraction": cfg.control_fraction, "loss_kind": cfg.loss_kind,
        "smoothing": cfg.smoothing,
        "learning_rate": cfg.learning_rate, "momentum": cfg.momentum,
        "lr_decay": cfg.lr_decay,
        "refit_period": cfg.refit.period,
        "buffer_capacity": cfg.refit.buffer_capacity,
        "ridge_lambda": cfg.refit.ridge_lambda,
        "cost_backward": cfg.cost_model.backward,
        "cost_forward": cfg.cost_model.forward,
        "cost_cheap_forward": cfg.cost_model.cheap_forward,
        "budget": cfg.budget, "max_steps": cfg.max_steps, "seed": cfg.seed,
        "eval_every": cfg.eval_every,
    }
    return json.dumps(d, sort_keys=True)


def save_run_checkpoint(path, result: RunResult, cfg: TrainConfig) -> None:
    """Bundle network, predictor, optimizer state and loop counters; resuming from it reproduces an uninterrupted run bit-exactly
    (all random streams are derived statelessly from the seed and the
    counters stored here). The file is written to ``<path>.tmp`` and then
    moved into place, so a failed write leaves any previous checkpoint at
    ``path`` as it was."""
    state = result.state
    net = state.net
    arrays = {
        "trunk_params": net.trunk_params,
        "head_weight": net.head_weight,
        "head_bias": net.head_bias,
        "net_version": np.int64(net.version),
        # the last counter is the former warmup-done flag, kept for the format
        "counters": np.asarray([state.step, state.epoch, state.batch_in_epoch,
                                int(state.predictor is not None)], dtype=np.int64),
        "stepping_counts": np.asarray([state.stepping.forward_count,
                                       state.stepping.cheap_forward_count,
                                       state.stepping.backward_count], dtype=np.int64),
        "warmup_counts": np.asarray([state.warmup_ledger.forward_count,
                                     state.warmup_ledger.cheap_forward_count,
                                     state.warmup_ledger.backward_count], dtype=np.int64),
    }
    if state.opt_state is not None:
        arrays["opt_state"] = state.opt_state

    pred = state.predictor
    if pred is not None:
        arrays.update(pred.to_arrays())

    header = json.dumps({
        "format": RUN_CHECKPOINT_FORMAT,
        "algo": "vanilla" if pred is None else "predicted",
        "predictor_kind": "none" if pred is None else pred.kind,
        "cfg": _cfg_json(cfg),
        "net": asdict(net.config),
    })
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                     **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # open(tmp) itself failed
            os.unlink(tmp)
        raise


def _run_identity(cfg_json: str) -> dict:
    d = json.loads(cfg_json)
    if d.pop("optimizer", None) == "sgd":  # older versions ignored momentum then
        d["momentum"] = 0.0
    for key in RUN_LENGTH_KEYS + RETIRED_KEYS:
        d.pop(key, None)
    return d


def load_run_checkpoint(path, cfg: TrainConfig) -> TrainState:
    """State of a checkpointed run. The config must match the one it was
    written under, except for the run-length fields, so a run can be
    extended. The fit buffer that older versions saved as ``buf_*`` arrays
    is ignored: each refit draws a sample of its own."""
    with np.load(path) as z:
        header = json.loads(bytes(z["header"]).decode("utf-8"))
        if header.get("format") != RUN_CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {header.get('format')}")
        if _run_identity(header["cfg"]) != _run_identity(_cfg_json(cfg)):
            raise ConfigError("checkpoint was written under a different training config")
        net = Network(NetworkConfig(**header["net"]), z["trunk_params"],
                      z["head_weight"], z["head_bias"], version=int(z["net_version"]))
        step, epoch, batch_in_epoch = (int(v) for v in z["counters"][:3])

        kind = header["predictor_kind"]
        if kind != "none" and kind not in PREDICTORS:
            raise ConfigError(f"checkpoint holds an unknown predictor kind {kind!r}")
        pred = None if kind == "none" else PREDICTORS[kind].from_arrays(z)

        stepping = BudgetLedger(cfg.cost_model, *(int(v) for v in z["stepping_counts"]))
        warmup_ledger = BudgetLedger(cfg.cost_model, *(int(v) for v in z["warmup_counts"]))
        opt_state = z["opt_state"].copy() if "opt_state" in z else None
        return TrainState(net=net, predictor=pred, opt_state=opt_state,
                          step=step, epoch=epoch, batch_in_epoch=batch_in_epoch,
                          stepping=stepping, warmup_ledger=warmup_ledger)


def resume_run(cfg: TrainConfig, ds: Dataset, checkpoint_path,
               metrics_path=None, kind: str | None = None) -> RunResult:
    """Continue a checkpointed run; produces the same records the original
    run would have produced from that point. A given predictor ``kind``,
    "none" for vanilla, must be the checkpoint's."""
    state = load_run_checkpoint(checkpoint_path, cfg)
    held = "none" if state.predictor is None else state.predictor.kind
    if kind not in (None, held):
        raise ConfigError(f"checkpoint holds predictor kind {held!r}, not {kind!r}")
    return _train_loop(cfg, ds, state, *_check_run(cfg, ds, state.predictor is not None),
                       metrics_path)
