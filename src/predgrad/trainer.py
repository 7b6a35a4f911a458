"""Training loops: vanilla gradient descent and predicted gradient descent.

Both loops draw their epoch shuffles from the same named substream and drop
the same short final batch, so runs with equal seeds see identical batch
schedules regardless of algorithm. A predicted step's control rows are the
first m_c = round(f m) of its batch, a slice of a uniform permutation: its
head is a uniform random subset, independent of the predictor fitted before
the step. A step makes one ``forward`` on the batch; one ``predict_sums``
call on the batch and the control rows' view of its cache
(``ForwardCache.rows``), which reads the predictor's matrices once for both
trunk sums; and ``trunk_sum`` on that view. The trunk part is their
control-variate combination ``predgrad.estimator.combine``, and the head
part ``head_sum`` on the batch, the exact head of vanilla's ``forward`` and
``backward_sum``. No gradient is formed row by row on an ordinary step. For
a perfect predictor each predicted sum is ``trunk_sum``, so the whole-batch
prediction is vanilla's own call on the same rows, and the control
prediction the same call on the same arrays as the true control sum: the
correction is exactly zero and the step is vanilla's bit for bit.

The predictor is one of the objects of ``predgrad.predictor``. The loss
comes from the data (``Dataset.loss_kind``). The update is plain SGD at a
fixed learning rate, theta - lr G: the control variate makes G unbiased
whatever the step rule, so a run holds no optimizer state.

A step whose batch loss or combined gradient is not finite stops the run
with a ``NumericError`` that names the step. A network whose input or
output width does not fit the data is refused before step 1 (``DataError``).

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
per example, so a sum formed by ``trunk_sum`` or ``predict_sums`` is
charged as the rows it sums, whatever it costs, and the control rows'
prediction is not charged. Each step's m_c is known before the budget
check, which prices the ledger's counts with the step's charge added
(``BudgetLedger.price``), so a step is taken exactly when the
``cost_units`` reported after it are within the budget. Every fit sample,
the warmup's and each refit's, is charged to a separate warmup (fit)
ledger as a forward and a backward per row; the budget governs stepping
cost only, mirroring a cost model that counts per-iteration passes.
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
from .network import (Network, NetworkConfig, backward_sum, cheap_forward, forward,
                      gradient_sum, head_sum, init_network, loss_and_residual,
                      trunk_rows, trunk_sum)
from .predictor import (PREDICTORS, FitRows, PerfectPredictor, RefitPolicy, fit_feedback,
                        fit_structured, should_refit, trunk_alignment)
from .rng import substream

RUN_CHECKPOINT_FORMAT = 3

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
    cost_model: CostModel
    forward_count: int = 0
    cheap_forward_count: int = 0
    backward_count: int = 0

    def charge(self, forward: int = 0, cheap_forward: int = 0, backward: int = 0):
        self.forward_count += forward
        self.cheap_forward_count += cheap_forward
        self.backward_count += backward

    def price(self, forward: int = 0, cheap_forward: int = 0, backward: int = 0) -> float:
        """Cost units of the counts with a prospective charge added."""
        cm = self.cost_model
        return ((self.forward_count + forward) * cm.forward
                + (self.cheap_forward_count + cheap_forward) * cm.cheap_forward
                + (self.backward_count + backward) * cm.backward)

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
    rho_hat: float          # trunk-only alignment of the outgoing predictor on a
                            # refit sample; NaN on steps that drew none
    kappa_hat: float
    phi_hat: float
    refit: int

    def csv_row(self):
        return [repr(float(v)) if isinstance(v, float) else v for v in vars(self).values()]


METRICS_HEADER = [f.name for f in fields(StepRecord)]


def optimizer_step(theta: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """One SGD update, theta - lr g."""
    if theta.shape != g.shape:
        raise DimensionError(f"parameter/gradient shape mismatch "
                             f"{theta.shape} vs {g.shape}")
    return theta - lr * g


@dataclass
class TrainState:
    net: Network
    predictor: object | None        # a fitted predictor; None for vanilla
    stepping: BudgetLedger
    warmup_ledger: BudgetLedger
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


def _pass(net, ds, idx):
    """Forward on the examples idx: returns (cache, losses, residuals), all
    in the order of idx."""
    _, output, cache = forward(net, ds.features[idx])
    losses, residuals = loss_and_residual(output, ds.targets[idx], ds.loss_kind)
    return cache, losses, residuals


def _batch_true(net, ds, batch_idx):
    """Mean true gradient and mean loss over a batch."""
    m = len(batch_idx)
    cache, losses, residuals = _pass(net, ds, batch_idx)
    return backward_sum(net, cache, residuals) / m, float(losses.sum() / m)


def _batch_predicted(net, predictor, ds, batch_idx, m_c):
    """Debiased combined gradient, with vanilla's exact head part, and mean
    loss over a mini-batch whose first ``m_c`` rows are its control rows."""
    m = len(batch_idx)
    cache, losses, residuals = _pass(net, ds, batch_idx)
    cache_c, r_c = cache.rows(slice(0, m_c)), residuals[:m_c]
    predicted, predicted_c = predictor.predict_sums(net, [(cache, residuals), (cache_c, r_c)])
    trunk = combine(predicted, trunk_sum(net, cache_c, r_c), predicted_c, m_c, m)
    head = head_sum(cache.act[-1], residuals) / m
    return gradient_sum(trunk, head), float(losses.sum() / m)


def _eval_val(net, ds) -> float:
    if len(ds.val_idx) == 0:
        return float("nan")
    _, output = cheap_forward(net, ds.features[ds.val_idx])
    losses, _ = loss_and_residual(output, ds.targets[ds.val_idx], ds.loss_kind)
    return float(losses.mean())


class _MetricsWriter:
    """Writes a run's step records to ``path``: a fresh file, or with
    ``append``, after the rows already there (a resumed run's)."""

    def __init__(self, path, append: bool):
        self.path = path
        if path is not None:
            fresh = not append or not os.path.exists(path) or os.path.getsize(path) == 0
            self._fh = open(path, "w" if fresh else "a", newline="")
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


def _refit(cfg: TrainConfig, ds: Dataset, state: TrainState, kind: str):
    """Fit a fresh ``kind`` predictor on a fit sample drawn for this step and
    make it ``state.predictor``; returns (1 if it was replaced else 0, the
    outgoing predictor's (rho, kappa) on the sample or None). The
    sample, charged to the warmup ledger, is ``buffer_capacity`` training
    rows, or all of them if fewer. At step 0 there is no outgoing predictor
    and a failed fit raises; later, it keeps the old predictor and warns."""
    n = min(cfg.refit.buffer_capacity, len(ds.train_idx))
    name = "warmup" if state.step == 0 else f"refit:{state.step}"
    chosen = substream(cfg.seed, name).choice(ds.train_idx, size=n, replace=False)
    net, outgoing = state.net, state.predictor
    cache, _, residuals = _pass(net, ds, chosen)
    trunk = trunk_rows(net, cache, residuals)
    state.warmup_ledger.charge(forward=n, backward=n)
    stats = None
    if outgoing is not None:
        stats = trunk_alignment(outgoing, net, cache, residuals, trunk)
    # looked up in this module at call time, so wrapping predgrad.trainer.fit_* sees every fit
    fit = fit_feedback if kind == "feedback" else fit_structured
    try:
        state.predictor = fit(FitRows(cache.act[-1], residuals, net.head_weight, trunk))
    except InsufficientData as e:
        if outgoing is None:
            raise
        log.warning("refit skipped at step %d, keeping the old predictor: %s",
                    state.step, e)
        return 0, stats
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
    k batches an epoch (``_epoch_batches``)."""
    predicted = state.predictor is not None
    learned = predicted and state.predictor.kind != "perfect"
    f, bs = cfg.control_fraction, cfg.batch_size
    theta = state.net.flat_params()
    records = []
    writer = _MetricsWriter(metrics_path, append=state.step > 0)
    n_train = len(ds.train_idx)
    per_epoch = _epoch_batches(n_train, bs, min_batch)[0]
    end = min(cfg.epochs * per_epoch, cfg.max_steps or math.inf)
    order = None

    try:
        while state.step < end:
            epoch, b = divmod(state.step, per_epoch)
            if order is None or b == 0:
                perm = substream(cfg.seed, f"shuffle:{epoch}").permutation(n_train)
                order = ds.train_idx[perm]
            batch_idx = order[b * bs:(b + 1) * bs]
            m = len(batch_idx)
            m_c = control_batch_size(m, f) if predicted else m
            if cfg.budget is not None and state.stepping.price(m_c, m - m_c, m_c) > cfg.budget:
                if state.step == 0:
                    raise BudgetError(f"budget {cfg.budget} is smaller than one batch ("
                                      f"{state.stepping.price(m_c, m - m_c, m_c)} cost units)")
                break
            state.stepping.charge(forward=m_c, cheap_forward=m - m_c, backward=m_c)

            if not predicted:
                grad, batch_loss = _batch_true(state.net, ds, batch_idx)
            else:
                grad, batch_loss = _batch_predicted(
                    state.net, state.predictor, ds, batch_idx, m_c)
            if not (math.isfinite(batch_loss) and np.isfinite(grad).all()):
                raise NumericError(
                    f"non-finite loss or gradient at step {state.step + 1}")

            theta = optimizer_step(theta, grad, cfg.learning_rate)
            state.net.set_flat_params(theta)
            state.step += 1

            refit_flag, stats = 0, None
            if learned and should_refit(cfg.refit, state.step):
                refit_flag, stats = _refit(cfg, ds, state, state.predictor.kind)

            if cfg.eval_every and state.step % cfg.eval_every == 0:
                val = _eval_val(state.net, ds)
            else:
                val = float("nan")

            rho = kappa = phi = float("nan")
            if stats is not None:   # NaN where either side's rows do not vary
                rho, kappa = stats
                phi = variance_inflation(m_c / m, rho, kappa)
            rec = StepRecord(state.step, epoch, float(state.stepping.cost_units), batch_loss,
                             val, rho, kappa, phi, refit_flag)
            records.append(rec)
            writer.write(rec)
    finally:
        writer.close()

    return RunResult(state, records)


def _fresh_state(cfg: TrainConfig, net: Network) -> TrainState:
    return TrainState(net=net, predictor=None, stepping=BudgetLedger(cfg.cost_model),
                      warmup_ledger=BudgetLedger(cfg.cost_model))


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
    "feedback", "structured" or "perfect". "perfect" becomes a
    PerfectPredictor; a learned kind is fitted on a warmup sample before
    the first step, and needs a fit sample (``buffer_capacity``) of at
    least D+1 rows (D the last hidden width).
    """
    state = _fresh_state(cfg, net)
    min_batch = _check_run(cfg, ds, net, predicted=True)
    _check_kind(kind)
    need = net.config.last_hidden + 1
    if kind != "perfect" and cfg.refit.buffer_capacity < need:
        raise ConfigError(
            f"buffer capacity {cfg.refit.buffer_capacity} is below the D+1 = {need} "
            f"rows a {kind} fit needs; it is the size of each fit sample")
    if kind == "perfect":
        state.predictor = PerfectPredictor()
    else:
        _refit(cfg, ds, state, kind)
    return _train_loop(cfg, ds, state, min_batch, metrics_path)


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
        control_fraction=f,
        budget=float(cfg.budget),
        gamma_f=gamma(cfg.cost_model, f),
        vanilla_steps=res_v.steps,
        predicted_steps=res_p.steps,
        vanilla_final_loss=res_v.final_loss,
        predicted_final_loss=res_p.final_loss,
        vanilla_final_val=final_val(res_v.records),
        predicted_final_val=final_val(res_p.records),
        vanilla_cost_units=res_v.state.stepping.cost_units,
        predicted_cost_units=res_p.state.stepping.cost_units,
        predicted_warmup_cost_units=res_p.state.warmup_ledger.cost_units,
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
    batch in it). Format 3 holds what a resumed run reads, every entry
    required:

    * ``header``: UTF-8 JSON of ``format``, ``predictor_kind`` ("none" for
      vanilla), ``cfg`` (``_run_identity``), ``net`` (the ``NetworkConfig``
      as a dict) and ``data`` (``_data_digest``);
    * ``trunk_params``, ``head_weight`` and ``head_bias``;
    * ``step``, and ``stepping_counts`` and ``warmup_counts``: each ledger's
      forward, cheap forward and backward counts;
    * ``pred_<field>`` for each field of the predictor's dataclass.

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
        "warmup_counts": np.asarray(astuple(state.warmup_ledger)[1:], dtype=np.int64),
    }
    if pred is not None:
        arrays.update((f"pred_{f.name}", getattr(pred, f.name)) for f in fields(pred))

    header = json.dumps({
        "format": RUN_CHECKPOINT_FORMAT,
        "predictor_kind": "none" if pred is None else pred.kind,
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
    format, entry or shape other than format 3's, or another config or
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
    if need(header, "format") != RUN_CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint {path} is in format {header['format']!r}; "
                          f"this version reads format {RUN_CHECKPOINT_FORMAT} only")
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

    kind, pred = need(header, "predictor_kind"), None
    if kind != "none" and kind not in PREDICTORS:
        raise ConfigError(f"checkpoint holds an unknown predictor kind {kind!r}")
    if kind != "none":
        cls, values = PREDICTORS[kind], {}
        for f in fields(cls):   # a 0-d array holds a scalar field, of the field's type
            value = need(z, f"pred_{f.name}")
            values[f.name] = f.type(value) if value.ndim == 0 else value
        pred = cls(**values)

    shapes = {"stepping_counts": (3,), "warmup_counts": (3,)}
    if pred is not None:
        shapes.update((f"pred_{k}", v) for k, v in pred.shapes(c).items())
    for k, shape in shapes.items():
        if need(z, k).shape != shape:
            raise ConfigError(f"checkpoint {path} has {k!r} of shape {z[k].shape}, not {shape}")
    return TrainState(
        net=Network(c, need(z, "trunk_params"), need(z, "head_weight"), need(z, "head_bias")),
        predictor=pred,
        stepping=BudgetLedger(cfg.cost_model, *map(int, need(z, "stepping_counts"))),
        warmup_ledger=BudgetLedger(cfg.cost_model, *map(int, need(z, "warmup_counts"))),
        step=int(need(z, "step")))


def resume_run(cfg: TrainConfig, ds: Dataset, net_cfg: NetworkConfig, checkpoint_path,
               metrics_path=None, kind: str | None = None) -> RunResult:
    """Continue a checkpointed run on its data and network; produces the
    same records the original run would have produced from that point. A
    given predictor ``kind``, "none" for vanilla, must be the checkpoint's."""
    state = load_run_checkpoint(checkpoint_path, cfg, ds, net_cfg)
    held = "none" if state.predictor is None else state.predictor.kind
    if kind not in (None, held):
        raise ConfigError(f"checkpoint holds predictor kind {held!r}, not {kind!r}")
    return _train_loop(cfg, ds, state,
                       _check_run(cfg, ds, state.net, state.predictor is not None),
                       metrics_path)
