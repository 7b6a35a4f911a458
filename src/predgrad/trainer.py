"""Training loops: vanilla gradient descent and predicted gradient descent.

Both loops draw their epoch shuffles from the same named substream and drop
the same short final batch, so runs with equal seeds see identical batch
schedules regardless of algorithm. A predicted step's control rows are the
first m_c = round(f m) of its batch, a slice of a uniform permutation: a
uniform random subset, independent of the predictor fitted before the step.
Both loops take the same step (``_step``). It makes one ``forward`` on the
batch, forms the batch's ``head_sum``, the exact head part, and walks the
control rows' view of its cache (``ForwardCache.rows``) with ``trunk_rows``,
summed. A step without a predictor takes every row as a control row, so
that sum is the exact trunk part. With one, a ``predict_sums`` call on the
batch, with its head sum, and on the control rows gives the predicted sums,
and the trunk part is their control-variate combination
``predgrad.estimator.combine``. No gradient is formed row by row. For a
perfect predictor each predicted sum is ``trunk_rows`` summed, so the
correction is exactly zero and the step is vanilla's bit for bit. The
update is plain SGD, theta - lr G: the control variate makes G unbiased
whatever the step rule. ``optimizer_step``, called through this module once
a step, writes it into the network's parameter buffer (``Network.params``),
and the loop then bumps the network's version. So every view of the
parameters shows the new values after the update, the head weight in a
step's ``FitRows`` among them; the ring does not keep it, and a refit reads
the head weight as it runs. A non-finite batch loss or gradient stops the
run with a ``NumericError`` naming the step, before the update, and a
network that does not fit the data is refused before step 1. Validation is
a step's pass (``_pass``, one ``forward`` and the loss) on the validation
rows. What does not change within a run is worked out once before its first
step: the validation rows and their targets, gathered, and the control rows
of each batch size.

Each step's record goes to the metrics file as a CSV row. The file is not
flushed after each row: rows reach the disk as its buffer fills, and all of
them when the file is closed as the run ends or raises. A process killed
outright (SIGKILL, a power cut) leaves the rows of the buffers written out
so far, the last row perhaps cut short. A checkpoint is saved only after a run,
so none holds a killed run's steps, and a run resumed from an earlier
checkpoint appends after whatever rows the file holds.

A learned predictor is fitted on rows the run has already paid for, held in
a ring (``FitRing``) of the last ``RefitPolicy.buffer_capacity`` of them.
Each step hands the ring its control rows as ``predictor.FitRows``: each
row's layer inputs, last hidden activations, residual and per-layer
pre-activation gradients, the factors of its trunk gradient
(``network.trunk_rows``), which its trunk sum walks anyway.
Until the ring holds enough usable rows for a fit of the kind, the run
takes vanilla steps and pushes their whole batches; the first fit follows
the step after which it succeeds. A refit follows every refit period-th
step. It reads the whole ring once, as ``FitRows`` with the current head
weight. It first measures the outgoing predictor on the last of those rows,
the ones pushed since its own fit, which it has not seen: its trunk-only
alignment (``predictor.trunk_alignment``) gives the step's rho_hat,
kappa_hat and phi_hat (phi at the step's m_c/m); other steps record NaN. It
then fits on all of them. A refit runs no pass of its own; one that fails
keeps the old predictor and warns, naming the step.

The ledger counts two kinds of row: exact rows, the control rows or every
row of a step without a predictor (a learned run's opening steps among
them), each charged a forward and a backward; and predicted rows, each
charged a cheap forward, whatever a predictor costs. The budget check
prices the counts with the step's charge added (``BudgetLedger.price``), so
a step is taken exactly when the ``cost_units`` after it are within the
budget. A fit reads only rows that steps paid for: one ledger covers a run.
"""

import contextlib
import csv
import json
import logging
import math
import os
import sys
import zipfile
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .analysis import CostModel, break_even_satisfied, gamma, rho_star
from .data import Dataset
from .errors import (BudgetError, ConfigError, DataError, DimensionError,
                     InsufficientData, NumericError)
from .estimator import combine, control_batch_size, variance_inflation
from .linalg import FactoredRows
from .network import (Network, NetworkConfig, forward, gradient_sum, head_sum, init_network,
                      loss_and_residual, trunk_rows)
from .predictor import (PREDICTORS, FitRows, PerfectPredictor, RefitPolicy, fit_feedback,
                        fit_minimum, fit_structured, should_refit, trunk_alignment)
from .rng import substream

RUN_CHECKPOINT_FORMAT = 5

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1
    batch_size: int = 32
    control_fraction: float = 0.25
    learning_rate: float = 0.05
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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.budget is not None and self.budget < 0:
            raise ConfigError("budget must be nonnegative")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be nonnegative")


@dataclass
class BudgetLedger:
    """The rows a run has paid for: exact rows, a forward and a backward
    each, and predicted rows, a cheap forward each."""
    cost_model: CostModel
    exact_rows: int = 0
    predicted_rows: int = 0

    def charge(self, exact: int, predicted: int):
        self.exact_rows += exact
        self.predicted_rows += predicted

    def price(self, exact: int = 0, predicted: int = 0) -> float:
        """Cost units of the counts with a prospective charge added."""
        cm = self.cost_model
        e, p = self.exact_rows + exact, self.predicted_rows + predicted
        return e * cm.forward + p * cm.cheap_forward + e * cm.backward

    @property
    def cost_units(self) -> float:
        return self.price()


@dataclass
class StepRecord:
    step: int
    epoch: int
    cost_units: float
    loss: float
    val_metric: float
    rho_hat: float          # trunk-only alignment of the outgoing predictor on the
                            # ring rows pushed since its fit; NaN on steps that
                            # measured none
    kappa_hat: float
    phi_hat: float
    refit: int              # 1 where a fit, the first included, replaced the predictor

    def csv_row(self):
        return [repr(float(v)) if isinstance(v, float) else v for v in vars(self).values()]


METRICS_HEADER = [f.name for f in fields(StepRecord)]


def optimizer_step(theta: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """One SGD update, theta - lr g, written into ``theta``; returns it."""
    if theta.shape != g.shape:
        raise DimensionError(f"parameter/gradient shape mismatch "
                             f"{theta.shape} vs {g.shape}")
    return np.subtract(theta, lr * g, out=theta)


@dataclass
class FitRing:
    """The last ``capacity`` rows a learned run pushed, as the pushes' blocks,
    oldest first: (rows pushed up to its end, its columns x, a_1 .. a_L, r,
    dz_1 .. dz_L: layer inputs, last hidden activations, residuals and
    pre-activation gradients)."""
    capacity: int
    blocks: list = field(default_factory=list)
    pushed: int = 0         # rows pushed so far
    fitted: int = 0         # rows pushed when the predictor was fitted; 0 before

    def push(self, rows: FitRows) -> None:
        """Append the rows, copying all but dz, which may view a whole batch."""
        blocks = rows.trunk_grad.blocks
        self.pushed += len(rows.residual)
        self.blocks.append((self.pushed, [a.copy() for a in [v for _, v in blocks] + [
            rows.llh, rows.residual]] + [dz for dz, _ in blocks]))
        while self.pushed - self.blocks[0][0] >= self.capacity:
            self.blocks.pop(0)

    def columns(self, n: int) -> list:
        """The columns of the last ``n`` rows pushed, oldest first."""
        return [np.concatenate(column)[-n:] for column in zip(*(b for _, b in self.blocks))]

    def read(self, n: int, head_weight) -> FitRows:
        """The last ``n`` rows pushed, with the head weight ``head_weight``."""
        columns = self.columns(n)
        layers = len(columns) // 2 - 1
        return FitRows(*columns[layers:layers + 2], head_weight,
                       FactoredRows(list(zip(columns[layers + 2:], columns[:layers]))))


@dataclass
class TrainState:
    net: Network
    kind: str                       # the predictor kind, "none" for vanilla
    predictor: object | None        # None for vanilla and before a learned first fit
    stepping: BudgetLedger
    ring: FitRing | None = None     # a learned run's
    step: int = 0


@dataclass
class RunResult:
    state: TrainState
    records: list

    @property
    def network(self) -> Network:
        return self.state.net

    @property
    def steps(self) -> int:
        return self.state.step

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("nan")


def _pass(net, x, y, loss_kind):
    """Forward on the rows x with targets y: returns (cache, losses,
    residuals), all in the order of the rows."""
    _, output, cache = forward(net, x)
    losses, residuals = loss_and_residual(output, y, loss_kind)
    return cache, losses, residuals


def _step(net, predictor, ds, batch_idx, m_c):
    """Mean gradient and mean loss over a batch whose first ``m_c`` rows are
    its control rows, and the control rows' ``FitRows``. Without a predictor
    every row is a control row, m_c = m, and the gradient is the batch's
    exact one; with one, its trunk part is the control-variate combination
    and its head part the batch's exact head."""
    m = len(batch_idx)
    cache, losses, residuals = _pass(net, ds.features[batch_idx], ds.targets[batch_idx],
                                     ds.loss_kind)
    cache_c, r_c = cache.rows(slice(0, m_c)), residuals[:m_c]
    head = head_sum(cache.act[-1], residuals)
    trunk_c = trunk_rows(net, cache_c, r_c)
    if predictor is None:
        grad = gradient_sum(trunk_c.sum(), head) / m
    else:
        predicted, predicted_c = predictor.predict_sums(
            net, [(cache, residuals, head), (cache_c, r_c)])
        grad = gradient_sum(combine(predicted, trunk_c.sum(), predicted_c, m_c, m), head / m)
    return (grad, float(losses.sum() / m),
            FitRows(cache_c.act[-1], r_c, net.head_weight, trunk_c))


def _eval_val(net, x, y, loss_kind) -> float:
    """Mean loss on the validation rows x, targets y; NaN without rows."""
    if len(x) == 0:
        return float("nan")
    return float(_pass(net, x, y, loss_kind)[1].sum() / len(x))   # mean()'s bits, sooner


def _refit(state: TrainState):
    """Fit a fresh predictor of the run's kind on its ring and make it
    ``state.predictor``; returns (1 if it was replaced else 0, the outgoing
    predictor's (rho, kappa) on the rows pushed since its fit, or None). A
    failed first fit leaves the run in its opening steps; a failed refit
    keeps the old predictor and warns."""
    ring, outgoing, stats = state.ring, state.predictor, None
    rows = ring.read(min(ring.pushed, ring.capacity), state.net.head_weight)
    held = min(ring.pushed - ring.fitted, ring.capacity)
    if outgoing is not None and held >= 2:
        stats = trunk_alignment(outgoing, state.net, rows.rows(slice(-held, None)))
    # looked up in this module at call time, so wrapping predgrad.trainer.fit_* sees every fit
    fit = fit_feedback if state.kind == "feedback" else fit_structured
    try:
        state.predictor = fit(rows)
    except InsufficientData as e:
        if outgoing is not None:
            log.warning("refit skipped at step %d, keeping the old predictor: %s",
                        state.step, e)
        return 0, stats
    ring.fitted = ring.pushed
    return 1, stats


def _epoch_batches(n_train: int, batch_size: int, min_batch: int) -> tuple[int, tuple]:
    """(k, sizes): an epoch is its shuffle's whole batches, then a short last
    batch if it has at least ``min_batch`` rows, and at least one batch; k is
    their count and ``sizes`` their distinct row counts."""
    full, short = divmod(n_train, batch_size)
    sizes = (batch_size,) if full else ()
    if short >= min_batch or not full:
        return full + 1, sizes + (short,)
    return full, sizes


def _check_fit(ds: Dataset, c: NetworkConfig) -> None:
    """Refuse data whose input or output width the network ``c`` does not fit."""
    labels = ds.kind == "classification"  # a class may go unlabelled
    if ds.input_dim != c.input_dim or ds.output_dim > c.output_dim \
            or (not labels and ds.output_dim != c.output_dim):
        raise DataError(f"the network has input width {c.input_dim} and output width "
                        f"{c.output_dim}; the data has input width {ds.input_dim} and "
                        f"{ds.output_dim} {'classes' if labels else 'target columns'}")


def _check_run(cfg: TrainConfig, ds: Dataset, net: Network, predicted: bool) -> int:
    """Validate a run's config and network against its data, warning once
    for each size of batch the run takes that the control fraction does not
    split evenly; returns the smallest usable batch, the same for both
    loops."""
    if len(ds.train_idx) == 0:
        raise DataError("dataset has no training examples")
    _check_fit(ds, net.config)
    f = cfg.control_fraction
    min_batch = max(2, math.ceil(1.0 / f))
    if not predicted:
        return min_batch
    if not 0.0 < f < 1.0:
        raise ConfigError(
            f"predicted training needs 0 < control_fraction < 1, got {f}")
    if cfg.batch_size < min_batch:
        raise ConfigError(
            f"batch_size {cfg.batch_size} too small for control fraction "
            f"{f} (need >= {min_batch})")
    if len(ds.train_idx) < min_batch:
        raise DataError("training set smaller than the minimum batch")
    for m in _epoch_batches(len(ds.train_idx), cfg.batch_size, min_batch)[1]:
        m_c = control_batch_size(m, f)
        if abs(f * m - m_c) > 1e-9:
            log.warning("control fraction f=%g of a %d-row batch gives fractional "
                        "batch size %g; rounding to %d", f, m, f * m, m_c)
    return min_batch


def _train_loop(cfg: TrainConfig, ds: Dataset, state: TrainState, min_batch: int,
                metrics_path=None) -> RunResult:
    """Run from ``state`` to the end of the run, with the smallest batch
    ``_check_run`` returned for it. Step t is batch t % k of epoch t // k,
    k batches an epoch (``_epoch_batches``). Each step's record goes to
    ``metrics_path``: a fresh file, or on resuming, after the rows there."""
    f, bs, net = cfg.control_fraction, cfg.batch_size, state.net
    records = []
    n_train = len(ds.train_idx)
    per_epoch, sizes = _epoch_batches(n_train, bs, min_batch)
    # per-run set-up: the control rows of each batch size, and the validation rows
    m_cs = {m: control_batch_size(m, f) for m in sizes} if state.kind != "none" else {}
    val_x, val_y = ds.features[ds.val_idx], ds.targets[ds.val_idx]
    end = min(cfg.epochs * per_epoch, cfg.max_steps or math.inf)
    order = None
    fresh = state.step == 0 or not (metrics_path is not None and os.path.exists(metrics_path)
                                    and os.path.getsize(metrics_path))
    with (open(metrics_path, "w" if fresh else "a", newline="") if metrics_path is not None
          else contextlib.nullcontext()) as fh:
        out = fh and csv.writer(fh)
        if out and fresh:
            out.writerow(METRICS_HEADER)
        while state.step < end:
            epoch, b = divmod(state.step, per_epoch)
            if order is None or b == 0:
                perm = substream(cfg.seed, f"shuffle:{epoch}").permutation(n_train)
                order = ds.train_idx[perm]
            batch_idx = order[b * bs:(b + 1) * bs]
            m = len(batch_idx)
            predicted = state.predictor is not None
            m_c = m_cs[m] if predicted else m
            if cfg.budget is not None and state.stepping.price(m_c, m - m_c) > cfg.budget:
                if state.step == 0:
                    raise BudgetError(f"budget {cfg.budget} is smaller than one batch ("
                                      f"{state.stepping.price(m_c, m - m_c)} cost units)")
                break
            state.stepping.charge(m_c, m - m_c)

            grad, batch_loss, rows = _step(net, state.predictor, ds, batch_idx, m_c)
            if not (math.isfinite(batch_loss) and np.isfinite(grad).all()):
                raise NumericError(
                    f"non-finite loss or gradient at step {state.step + 1}")

            optimizer_step(net.params, grad, cfg.learning_rate)
            net.version += 1
            state.step += 1

            refit_flag, stats = 0, None
            if state.ring is not None:
                state.ring.push(rows)
                if not predicted or should_refit(cfg.refit, state.step):
                    refit_flag, stats = _refit(state)

            if cfg.eval_every and state.step % cfg.eval_every == 0:
                val = _eval_val(net, val_x, val_y, ds.loss_kind)
            else:
                val = float("nan")

            rho = kappa = phi = float("nan")
            if stats is not None:   # NaN where either side's rows do not vary
                rho, kappa = stats
                phi = variance_inflation(m_c / m, rho, kappa)
            rec = StepRecord(state.step, epoch, float(state.stepping.cost_units), batch_loss,
                             val, rho, kappa, phi, refit_flag)
            records.append(rec)
            if out:
                out.writerow(rec.csv_row())
    return RunResult(state, records)


def _fresh_state(cfg: TrainConfig, net: Network, kind: str = "none") -> TrainState:
    state = TrainState(net, kind, None, BudgetLedger(cfg.cost_model))
    if kind == "perfect":
        state.predictor = PerfectPredictor()
    elif kind != "none":
        state.ring = FitRing(cfg.refit.buffer_capacity)
    return state


def train_vanilla(cfg: TrainConfig, ds: Dataset, net: Network,
                  metrics_path=None) -> RunResult:
    """Full-gradient mini-batch training (the baseline loop)."""
    return _train_loop(cfg, ds, _fresh_state(cfg, net), _check_run(cfg, ds, net, False),
                       metrics_path)


def _check_kind(kind) -> None:
    if not isinstance(kind, str) or kind not in PREDICTORS:
        raise ConfigError(f"not a predictor kind: {kind!r}")


def train_predicted(cfg: TrainConfig, ds: Dataset, net: Network, kind: str,
                    metrics_path=None) -> RunResult:
    """Predicted-gradient training with a predictor of the named kind,
    "feedback", "structured" or "perfect". A learned kind's ring
    (``buffer_capacity`` rows) must reach the usable rows its fit needs: C
    for feedback and D+1 for structured (the output and last hidden widths)."""
    min_batch = _check_run(cfg, ds, net, predicted=True)
    _check_kind(kind)
    if kind != "perfect":
        name, need = fit_minimum(kind, net.config.output_dim, net.config.last_hidden)
        if cfg.refit.buffer_capacity < need:
            raise ConfigError(
                f"buffer capacity {cfg.refit.buffer_capacity} is below the {name} = {need} "
                f"rows a {kind} fit needs; it is the size of the ring of rows the fits read")
    return _train_loop(cfg, ds, _fresh_state(cfg, net, kind), min_batch, metrics_path)


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
    measured-alignment break-even verdict, ``break_even_satisfied`` at the
    mean rho_hat and kappa_hat. The budget, or ``cfg.max_steps`` if it comes
    first, ends each run; ``cfg.epochs`` is ignored."""
    if cfg.budget is None or cfg.budget <= 0:
        raise BudgetError("run_budgeted_comparison requires a positive budget")
    _check_kind(predictor)
    base = init_network(net_cfg)
    run_cfg = replace(cfg, epochs=sys.maxsize)

    res_v = train_vanilla(run_cfg, ds, base.copy(), vanilla_metrics_path)
    res_p = train_predicted(run_cfg, ds, base.copy(), predictor,
                            predicted_metrics_path)

    rho_trunk = _nanmean([r.rho_hat for r in res_p.records])
    kappa = _nanmean([r.kappa_hat for r in res_p.records])
    phi = _nanmean([r.phi_hat for r in res_p.records])
    f = cfg.control_fraction
    star = rho_star(cfg.cost_model, f, kappa)   # NaN where no refit measured the predictor
    verdict = break_even_satisfied(cfg.cost_model, f, rho_trunk, kappa)

    def final_val(records):
        vals = [r.val_metric for r in records if not math.isnan(r.val_metric)]
        return vals[-1] if vals else float("nan")

    return ComparisonReport(
        control_fraction=f, budget=float(cfg.budget), gamma_f=gamma(cfg.cost_model, f),
        vanilla_steps=res_v.steps, predicted_steps=res_p.steps,
        vanilla_final_loss=res_v.final_loss, predicted_final_loss=res_p.final_loss,
        vanilla_final_val=final_val(res_v.records),
        predicted_final_val=final_val(res_p.records),
        vanilla_cost_units=res_v.state.stepping.cost_units,
        predicted_cost_units=res_p.state.stepping.cost_units,
        rho_hat_trunk_mean=rho_trunk, kappa_hat_mean=kappa, phi_hat_mean=phi,
        rho_star_measured=star, break_even_verdict=verdict,
        vanilla_records=res_v.records, predicted_records=res_p.records)


# --- run checkpointing -----------------------------------------------------

RUN_LENGTH_KEYS = ("epochs", "max_steps", "budget")  # a resumed run may change them


def _run_identity(cfg: TrainConfig) -> dict:
    """The config as a checkpoint's header holds it, and as loading compares
    it: ``asdict`` without the run-length fields, through JSON."""
    d = {k: v for k, v in asdict(cfg).items() if k not in RUN_LENGTH_KEYS}
    return json.loads(json.dumps(d))


def _data_digest(ds: Dataset) -> str:
    """SHA-256 of the dataset's features, targets, and training and validation indices."""
    import hashlib   # here, as only a checkpoint's save and load need it
    h = hashlib.sha256()
    for a in (ds.features, ds.targets, ds.train_idx, ds.val_idx):
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _differing(held: dict, given: dict) -> str:
    return ", ".join(sorted(k for k in held.keys() | given.keys() if held.get(k) != given.get(k)))


def save_run_checkpoint(path, result: RunResult, cfg: TrainConfig, ds: Dataset) -> None:
    """Save a run on ``ds`` as an npz archive; resuming from it reproduces an
    uninterrupted run bit-exactly (all random streams are derived
    statelessly from the seed and the step, and so are the epoch and the
    batch in it). Format 5 holds what a resumed run reads:

    * ``header``: UTF-8 JSON of ``format``, ``predictor_kind`` (the run's
      kind, "none" for vanilla), ``cfg`` (``_run_identity``), ``net`` (the
      ``NetworkConfig`` as a dict) and ``data`` (``_data_digest``);
    * ``trunk_params``, ``head_weight`` and ``head_bias``;
    * ``step``, and ``stepping_counts``: the ledger's exact rows, then its
      predicted rows;
    * for a learned kind, its ``FitRing``: ``ring_rows``, the last rows
      pushed, oldest first, their columns side by side, and ``ring_pushed``
      and ``ring_fitted``;
    * ``pred_<field>`` for each field of the predictor's dataclass, where
      there is a predictor: a learned one after its first fit.

    The file is written to ``<path>.tmp`` and then moved into place, so a
    failed write leaves any previous checkpoint at ``path`` as it was."""
    state = result.state
    net, pred = state.net, state.predictor
    arrays = {
        "trunk_params": net.trunk_params,
        "head_weight": net.head_weight,
        "head_bias": net.head_bias,
        "step": np.int64(state.step),
        "stepping_counts": np.asarray(astuple(state.stepping)[1:], dtype=np.int64),
    }
    if state.ring is not None:
        ring = state.ring
        arrays.update(ring_rows=np.concatenate(ring.columns(ring.capacity), axis=1),
                      ring_pushed=ring.pushed, ring_fitted=ring.fitted)
    if pred is not None:
        arrays.update((f"pred_{f.name}", getattr(pred, f.name)) for f in fields(pred))

    header = json.dumps({
        "format": RUN_CHECKPOINT_FORMAT,
        "predictor_kind": state.kind,
        "cfg": _run_identity(cfg),
        "net": asdict(net.config),
        "data": _data_digest(ds),
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


def load_run_checkpoint(path, cfg: TrainConfig, ds: Dataset,
                        net_cfg: NetworkConfig) -> TrainState:
    """State of a run checkpointed on ``ds``, to go on with the network
    ``net_cfg``. The config must be the one it was written under, but for
    the run-length fields, so a run can be extended. An unreadable file, a
    format, entry or shape other than format 5's, or another config or
    network raises a ``ConfigError`` naming it; other data a ``DataError``."""
    try:
        with open(path, "rb") as fh:
            return _run_state(np.load(fh), path, cfg, ds, net_cfg)
    except (OSError, ValueError, DimensionError, zipfile.BadZipFile) as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from None


def _run_state(z, path, cfg: TrainConfig, ds: Dataset, net_cfg: NetworkConfig) -> TrainState:
    def need(store, key):
        if key not in store:
            raise ConfigError(f"checkpoint {path} has no {key!r}")
        return store[key]

    header = json.loads(bytes(need(z, "header")).decode("utf-8"))
    if not isinstance(header, dict):
        raise ConfigError(f"checkpoint {path} has a malformed 'header'")
    if need(header, "format") != RUN_CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint {path} is in format {header['format']!r}; "
                          f"this version reads format {RUN_CHECKPOINT_FORMAT} only")
    for key, kind in (("cfg", dict), ("net", dict), ("predictor_kind", str)):
        if not isinstance(need(header, key), kind):
            raise ConfigError(f"checkpoint {path} has a malformed {key!r}")
    changed = _differing(need(header, "cfg"), _run_identity(cfg))
    if changed:
        raise ConfigError(f"checkpoint was written under a different config: {changed}")
    try:
        c = NetworkConfig(**need(header, "net"))
    except TypeError as e:
        raise ConfigError(f"checkpoint {path} has a malformed 'net': {e}") from None
    _check_fit(ds, c)
    if need(header, "data") != _data_digest(ds):
        raise DataError(f"checkpoint {path} was written on other data")
    changed = _differing(asdict(c), asdict(net_cfg))
    if changed:
        raise ConfigError(f"checkpoint {path} holds another network: {changed}")

    def shaped(key, shape, top=None):   # given a top, an entry of counts in [0, top]
        value = need(z, key)
        if value.shape != shape:
            raise ConfigError(f"checkpoint {path} has {key!r} of shape {value.shape}, not {shape}")
        if top is not None and not (value.dtype.kind in "iu"
                                    and 0 <= value.min() <= value.max() <= top):
            raise ConfigError(f"checkpoint {path} has {key!r} outside [0, {top}]: {value}")
        return value

    kind, ring, pred = need(header, "predictor_kind"), None, None
    if kind != "none" and kind not in PREDICTORS:
        raise ConfigError(f"checkpoint holds an unknown predictor kind {kind!r}")
    if kind not in ("none", "perfect"):
        widths = [c.input_dim, *c.hidden_widths, c.output_dim, *c.hidden_widths]  # FitRing's
        capacity, pushed = cfg.refit.buffer_capacity, int(shaped("ring_pushed", (), math.inf))
        rows = shaped("ring_rows", (min(pushed, capacity), sum(widths)))
        ring = FitRing(capacity, [(pushed, np.split(rows, np.cumsum(widths)[:-1], axis=1))],
                       pushed, int(shaped("ring_fitted", (), pushed)))
    if kind == "perfect" or (ring is not None and ring.fitted):
        values = {}
        for f in fields(PREDICTORS[kind]):   # a 0-d array holds a scalar field, of its type
            value = need(z, f"pred_{f.name}")
            values[f.name] = f.type(value) if value.ndim == 0 else value
        pred = PREDICTORS[kind](**values)
        for k, shape in pred.shapes(c).items():
            shaped(f"pred_{k}", shape)
    counts = shaped("stepping_counts", (2,), math.inf)
    return TrainState(
        Network(c, need(z, "trunk_params"), need(z, "head_weight"), need(z, "head_bias")),
        kind, pred, BudgetLedger(cfg.cost_model, *map(int, counts)), ring,
        int(shaped("step", (), math.inf)))


def resume_run(cfg: TrainConfig, ds: Dataset, net_cfg: NetworkConfig, checkpoint_path,
               metrics_path=None, kind: str | None = None) -> RunResult:
    """Continue a checkpointed run on its data and network; produces the
    same records the original run would have produced from that point. A
    given predictor ``kind``, "none" for vanilla, must be the checkpoint's."""
    state = load_run_checkpoint(checkpoint_path, cfg, ds, net_cfg)
    if kind not in (None, state.kind):
        raise ConfigError(f"checkpoint holds predictor kind {state.kind!r}, not {kind!r}")
    return _train_loop(cfg, ds, state, _check_run(cfg, ds, state.net, state.kind != "none"),
                       metrics_path)
