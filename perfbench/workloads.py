"""The benchmark's workloads: their inputs, one command each, and its checks.

A run issues commands one after another from a single process (a closed
loop with one client). Command i of a run takes its inputs from the seed
pair (--seed, i), so the same --seed always gives the same sequence. A
compare workload keeps one dataset and initial network (its data_seed);
the command seed draws the epoch shuffles, control splits and warmup
batch. Redrawing the dataset instead changes the predictor's rank, and
with it the step time, by more than the differences the benchmark is
meant to show.

* narrow-regression: ``run_budgeted_comparison`` (the ``compare`` command)
  on a small regression net with per-step validation.
* wide-blobs: ``compare`` on a wide classifier whose predictor fits solve a
  4160-dimensional ridge system; validation runs after the command.
* simulate: ``simulate_estimator`` (the ``simulate`` command).

Importing this module imports predgrad, which the set-up probe times.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from predgrad import analysis, data, network, predictor, trainer
from predgrad.errors import PredgradError

try:
    from predgrad import _kernels
except ImportError:  # the Monte Carlo kernel module is optional
    _kernels = None

MEAN_ERR_SE = 3.0    # simulate: |mean error| limit, in standard errors
VAR_RATIO_SE = 6.0   # simulate: |variance ratio - 1| limit, in standard errors


def unit_seed(seed: int, i: int) -> int:
    """Seed of the i-th command of a run started with ``seed``."""
    return int(np.random.SeedSequence((int(seed), int(i))).generate_state(1)[0] >> 1)


@dataclass(frozen=True)
class CompareSpec:
    task: str                 # "regression" | "blobs"
    hidden: tuple
    batch_size: int
    refit_period: int
    eval_every: int
    budget: float             # stepping-cost units per algorithm
    data_seed: int = 0        # dataset and initial network
    control_fraction: float = 0.25
    n: int = 2000
    input_dim: int = 8
    classes: int = 3
    noise_sd: float = 0.05    # CLI default
    separation: float = 6.0   # CLI default
    val_fraction: float = 0.2
    kind = "compare"

    @property
    def loss_kind(self) -> str:
        return "squared_scalar" if self.task == "regression" else "cross_entropy"

    def dataset(self):
        if self.task == "regression":
            return data.gen_regression(self.n, self.input_dim, self.noise_sd,
                                       self.data_seed, val_fraction=self.val_fraction)
        return data.gen_blobs(self.n, self.classes, self.input_dim, self.separation,
                              self.data_seed, val_fraction=self.val_fraction)

    def train_config(self, seed: int):
        return trainer.TrainConfig(
            batch_size=self.batch_size, control_fraction=self.control_fraction,
            refit=predictor.RefitPolicy(period=self.refit_period),
            budget=self.budget, seed=seed, eval_every=self.eval_every)

    def net_config(self, ds):
        return network.NetworkConfig(input_dim=ds.input_dim, hidden_widths=self.hidden,
                                     output_dim=ds.output_dim, seed=self.data_seed)

    def setup(self):
        ds = self.dataset()
        return ds, network.init_network(self.net_config(ds))


@dataclass(frozen=True)
class SimulateSpec:
    trials: int
    m: int = 100
    dim: int = 8
    f: float = 0.25
    rho: float = 0.8
    kappa: float = 1.0
    sigma_g: float = 1.0
    kind = "simulate"

    def moments(self):
        """(sigma_g, sigma_h, tau) as the CLI derives them from rho and kappa."""
        sigma_h = self.kappa * self.sigma_g
        return self.sigma_g, sigma_h, self.rho * self.sigma_g * sigma_h

    def setup(self):
        return self.moments()


# Budgets: narrow-regression gives 60 predicted and 25 vanilla steps and
# wide-blobs 29 and 11, so each command holds the warmup fit and one refit.
# Short commands give a run many of them to take the fastest of.
WORKLOADS = {
    "narrow-regression": CompareSpec(task="regression", hidden=(16,), batch_size=32,
                                     refit_period=50, eval_every=1, budget=2460.0,
                                     data_seed=1),
    "wide-blobs": CompareSpec(task="blobs", hidden=(64, 64), batch_size=128,
                              refit_period=25, eval_every=0, budget=4600.0,
                              data_seed=2),
    "simulate": SimulateSpec(trials=5000),
}

# Small versions for the self-test; each still refits at least once.
TINY = {
    "narrow-regression": replace(WORKLOADS["narrow-regression"], n=400),
    "wide-blobs": replace(WORKLOADS["wide-blobs"], n=400, hidden=(8, 8),
                          refit_period=4, budget=1000.0),
    "simulate": replace(WORKLOADS["simulate"], trials=500),
}


def warmup_spec(spec):
    """A short command of the same shapes, run untimed before measuring."""
    if spec.kind == "simulate":
        return replace(spec, trials=max(1, spec.trials // 10))
    per_step = spec.batch_size * (spec.control_fraction * 3.0 + 0.7 * (1 - spec.control_fraction))
    return replace(spec, budget=2.5 * per_step)


def trace_targets(full: bool, observe: dict):
    """(module, attribute, span name, observe hook) for each wrapped function.

    The untraced run wraps only what step timing and the checks need.
    """
    always = [
        (trainer, "train_vanilla", "trainer.train_vanilla", observe.get("train_vanilla")),
        (trainer, "train_predicted", "trainer.train_predicted", observe.get("train_predicted")),
        (trainer, "optimizer_step", "trainer.optimizer_step", None),
    ]
    if not full:
        return always
    return always + [
        (trainer, "init_network", "network.init_network", None),
        (trainer, "forward", "network.forward", None),
        (trainer, "backward", "network.backward", None),
        (trainer, "cheap_forward", "network.cheap_forward", None),
        (trainer, "loss_and_residual", "network.loss_and_residual", None),
        (trainer, "_eval_val", "trainer.validation", None),
        (trainer, "split_minibatch", "estimator.split_minibatch", None),
        (trainer, "alignment_stats", "estimator.alignment_stats", None),
        (trainer, "fit_structured", "predictor.fit_structured", observe.get("fit_structured")),
        (predictor, "predict_structured", "predictor.predict_structured", None),
        (predictor, "solve_ridge", "linalg.solve_ridge", observe.get("solve_ridge")),
        (predictor, "truncated_svd", "linalg.truncated_svd", None),
        (_kernels, "mc_chunk", "kernels.mc_chunk", None),
    ]


def val_loss(net, ds, loss_kind: str) -> float:
    """Mean validation loss, computed independently of the trainer."""
    total = 0.0
    for i in ds.val_idx:
        _, output = network.cheap_forward(net, ds.features[i])
        total += network.loss_and_residual(output, ds.target_for(i), loss_kind)[0]
    return total / len(ds.val_idx)


@dataclass
class Command:
    """One finished command: its wall time, span range and check results."""
    seed: int
    wall_s: float
    spans: tuple              # [lo, hi) indices into the tracer
    problems: list
    values: dict              # losses and estimates, at full precision


def run_compare(spec: CompareSpec, seed: int, tracer, full: bool, outdir: str) -> Command:
    runs, fits, solves = {}, [], []
    observe = {
        "train_vanilla": lambda a, k, r: runs.__setitem__("vanilla", r),
        "train_predicted": lambda a, k, r: runs.__setitem__("predicted", r),
        "fit_structured": lambda a, k, r: fits.append(r.rank),
        "solve_ridge": lambda a, k, r: solves.append(np.shape(a[0])[1]),
    }
    csv_paths = [os.path.join(outdir, f"metrics_{algo}.csv") for algo in ("vanilla", "predicted")]
    for path in csv_paths:
        if os.path.exists(path):
            os.remove(path)
    cfg = spec.train_config(seed)
    gen = tracer.wrap("data.gen", spec.dataset)
    compare = tracer.wrap("trainer.compare", trainer.run_budgeted_comparison)
    problems, report = [], None
    lo = len(tracer)
    with tracer.patched(trace_targets(full, observe)):
        t0 = tracer.clock()
        try:
            ds = gen()
            net_cfg = spec.net_config(ds)
            report = compare(cfg, ds, net_cfg, predictor="structured",
                             vanilla_metrics_path=csv_paths[0],
                             predicted_metrics_path=csv_paths[1])
        except PredgradError as e:
            problems.append(f"{type(e).__name__}: {e}")
        wall = tracer.clock() - t0
    hi = len(tracer)
    values = {"fit_ranks": fits, "solve_dims": solves}
    if report is not None:
        problems += check_compare(spec, cfg, ds, net_cfg, report, runs, values)
    return Command(seed, wall, (lo, hi), problems, values)


def check_compare(spec, cfg, ds, net_cfg, report, runs, values) -> list:
    """Output checks of one compare command; returns the failed ones."""
    problems = []
    init_val = val_loss(network.init_network(net_cfg), ds, spec.loss_kind)
    values["initial_val_loss"] = init_val
    for algo in ("vanilla", "predicted"):
        res = runs.get(algo)
        if res is None:
            problems.append(f"{algo}: no run result")
            continue
        losses = [r.loss for r in res.records]
        final_val = val_loss(res.network, ds, spec.loss_kind)
        values[f"{algo}_val_loss"] = final_val
        values[f"{algo}_final_loss"] = getattr(report, f"{algo}_final_loss")
        values[f"{algo}_steps"] = res.steps
        if not res.records or not all(math.isfinite(v) for v in losses + [final_val]):
            problems.append(f"{algo}: non-finite or missing loss")
        if not final_val < init_val:
            problems.append(f"{algo}: final validation loss {final_val!r} is not "
                            f"below the initial {init_val!r}")
        cost = getattr(report, f"{algo}_cost_units")
        if not cost <= cfg.budget:
            problems.append(f"{algo}: stepping ledger {cost!r} exceeds budget {cfg.budget!r}")
        reported = getattr(report, f"{algo}_final_val")
        if spec.eval_every and not math.isclose(reported, final_val, rel_tol=1e-9):
            problems.append(f"{algo}: reported validation loss {reported!r} differs "
                            f"from the recomputed {final_val!r}")
    values["rho_hat"] = report.rho_hat_trunk_mean
    values["kappa_hat"] = report.kappa_hat_mean
    return problems


def run_simulate(spec: SimulateSpec, seed: int, tracer, full: bool, outdir: str) -> Command:
    sigma_g, sigma_h, tau = spec.moments()
    simulate = tracer.wrap("analysis.simulate_estimator", analysis.simulate_estimator)
    problems, values, res = [], {}, None
    lo = len(tracer)
    with tracer.patched(trace_targets(full, {})):
        t0 = tracer.clock()
        try:
            res = simulate(sigma_g, sigma_h, tau, spec.dim, spec.f, spec.m,
                           spec.trials, seed)
        except PredgradError as e:
            problems.append(f"{type(e).__name__}: {e}")
        wall = tracer.clock() - t0
    hi = len(tracer)
    if res is not None:
        problems += check_simulate(spec, res, values)
    return Command(seed, wall, (lo, hi), problems, values)


def check_simulate(spec, res, values) -> list:
    """Unbiasedness and exact-variance checks, with tolerances from the
    trial count: G - mu is an isotropic Gaussian in ``dim`` coordinates, so
    the mean error has standard error sqrt(V / trials) per unit norm and
    the variance ratio has standard error sqrt(2 / (dim * trials))."""
    ratio = res.emp_var / res.predicted_var
    se_mean = math.sqrt(res.predicted_var / spec.trials)
    se_ratio = math.sqrt(2.0 / (spec.dim * spec.trials))
    values.update(mean_err=res.mean_err, emp_var=res.emp_var,
                  predicted_var=res.predicted_var, ratio=ratio)
    problems = []
    if not all(math.isfinite(v) for v in (res.mean_err, res.emp_var, res.predicted_var)):
        return ["non-finite simulation result"]
    if res.mean_err > MEAN_ERR_SE * se_mean:
        problems.append(f"mean error {res.mean_err!r} exceeds {MEAN_ERR_SE} standard "
                        f"errors ({se_mean!r})")
    if abs(ratio - 1.0) > VAR_RATIO_SE * se_ratio:
        problems.append(f"variance ratio {ratio!r} is more than {VAR_RATIO_SE} "
                        f"standard errors ({se_ratio!r}) from 1")
    return problems


def run_command(spec, seed: int, tracer, full: bool, outdir: str) -> Command:
    if spec.kind == "simulate":
        return run_simulate(spec, seed, tracer, full, outdir)
    return run_compare(spec, seed, tracer, full, outdir)
