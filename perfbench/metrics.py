"""Metrics of a benchmark run, computed from finished commands and spans.

End-to-end metrics come from untraced commands and exist on every
workload. Per-layer metrics come from the traced run: each traced command
is paired with an untraced command on the same inputs, and the pair's wall
time difference is the tracing overhead. A layer that does not run on a
workload reports 0.
"""

import statistics

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "wall_p90_s": "s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

NETWORK_PASSES = ("forward", "backward", "cheap_forward", "loss_and_residual")

PER_LAYER = {
    **{f"network.{p}.{k}": u for p in NETWORK_PASSES
       for k, u in (("calls", "count"), ("us_per_call", "us"), ("self_s", "s"))},
    "trainer.validation.self_s": "s",
    "trainer.warmup_s": "s",
    "trainer.loop_self_s": "s",
    "trainer.optimizer_step.us_per_call": "us",
    "trainer.validation_share": "ratio",
    "predictor.fit_structured.calls": "count",
    "predictor.fit_structured.failed": "count",
    "predictor.fit_structured.ms_per_call": "ms",
    "predictor.fit_success_ratio": "ratio",
    "predictor.rank": "count",
    "predictor.predict_structured.calls": "count",
    "predictor.predict_structured.us_per_call": "us",
    "predictor.predict_structured.self_s": "s",
    "linalg.solve_ridge.calls": "count",
    "linalg.solve_ridge.ms_per_call": "ms",
    "linalg.solve_ridge.dim": "count",
    "linalg.truncated_svd.ms_per_call": "ms",
    "estimator.alignment_stats.us_per_call": "us",
    "estimator.split_minibatch.us_per_call": "us",
    "estimator.rho_hat": "ratio",
    "estimator.kappa_hat": "ratio",
    "kernels.mc_chunk.calls": "count",
    "kernels.mc_chunk.ms_per_call": "ms",
    "kernels.numba": "flag",
    "analysis.rng_draw_s": "s",
    "data.gen_s": "s",
    "cost.backward_measured": "forward",
    "cost.cheap_forward_measured": "forward",
    "gamma.nominal": "ratio",
    "gamma.measured": "ratio",
    "rho_star.nominal": "ratio",
    "rho_star.measured": "ratio",
    "verdict.nominal": "flag",
    "verdict.measured": "flag",
    "trace.overhead_s": "s",
    "vanilla_steps_per_s": "1/s",
    "predicted_steps_per_s": "1/s",
    "predicted_step_p50_ms": "ms",
    "predicted_step_p90_ms": "ms",
    "predicted_step.samples": "count",
    "refit_step_p50_ms": "ms",
    "refit_step.samples": "count",
    "vanilla_val_loss": "loss",
    "predicted_val_loss": "loss",
    "trials_per_s": "1/s",
    "check_fail_ratio": "ratio",
}


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def compare_timing(table, refit_period: int) -> dict:
    """Step timing of one compare command from its spans.

    A predicted step lasts from one ``optimizer_step`` call to the next, so
    it holds the previous step's refit and validation and the gradient of
    its own batch. It carried a refit when the previous step index is a
    multiple of the refit period.
    """
    out = {}
    for algo in ("vanilla", "predicted"):
        run = np.flatnonzero(table.mask(f"trainer.train_{algo}"))
        steps = table.mask("trainer.optimizer_step")
        entries = np.sort(table.start[steps & np.isin(table.parent, run)])
        seconds = float(table.duration[run].sum())
        out[f"{algo}_steps_per_s"] = len(entries) / seconds if seconds > 0 else 0.0
        if algo == "predicted":
            gaps = np.diff(entries)
            carried = (np.arange(1, len(entries)) % refit_period) == 0
            out["ordinary"] = gaps[~carried]
            out["refit"] = gaps[carried]
    return out


def end_to_end(spec, commands, tracer, setup_s, peak_rss_mb: float) -> dict:
    """End-to-end metrics of an untraced run.

    Other tenants of the machine slow this process by up to half for tens
    of seconds at a time. The share of a run that falls in such a spell
    moved median times by 10-30% between runs, while the 90th percentile,
    the slowed speed, stayed within a few percent. So command and step
    times are reported at their 90th percentile; set-up is the median of
    several set-ups.
    """
    walls = [c.wall_s for c in commands]
    if spec.kind == "simulate":
        ops = np.asarray(walls)
    else:
        ops = np.concatenate([
            compare_timing(tracer.table(*c.spans), spec.refit_period)["ordinary"]
            for c in commands])
    return {
        "setup_s": _median(setup_s),
        "wall_p90_s": _percentile(walls, 90),
        "op_p90_ms": 1e3 * _percentile(ops, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def gamma_formula(f: float, backward: float, cheap: float) -> float:
    """gamma(f) with forward = 1, computed directly (no CostModel)."""
    c1 = 1.0 + backward
    return (cheap + (c1 - cheap) * f) / c1


def rho_star_formula(f: float, kappa: float, backward: float, cheap: float) -> float:
    c1 = 1.0 + backward
    return kappa / 2.0 + cheap / (2.0 * kappa * (cheap + (c1 - cheap) * f))


def break_even(f: float, rho: float, kappa: float, backward: float, cheap: float):
    """(gamma, rho_star, verdict, note) for one cost model. With cheap >=
    forward + backward no rho <= 1 reaches parity, which a CostModel cannot
    even represent, so the verdict is 0 with the note "no break-even"."""
    g = gamma_formula(f, backward, cheap)
    if not kappa > 0:
        return g, 0.0, 0, "no alignment estimate"
    star = rho_star_formula(f, kappa, backward, cheap)
    if cheap >= 1.0 + backward:
        return g, star, 0, "no break-even"
    return g, star, int(rho >= star), "break-even" if rho >= star else "below break-even"


def per_layer(spec, pairs, tracer, kernels_numba: bool) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run and the notes that go with them."""
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    tabs = [tracer.table(*c.spans) for c in traced]
    n = len(tabs)

    def calls(name):
        return sum(t.calls(name) for t in tabs)

    def total(name):
        return sum(t.total(name) for t in tabs)

    def self_s(name):
        return sum(t.self_total(name) for t in tabs) / n

    def per_call(name, scale):
        c = calls(name)
        return scale * total(name) / c if c else 0.0

    m = {}
    for p in NETWORK_PASSES:
        name = f"network.{p}"
        m[f"{name}.calls"] = calls(name) / n
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
        m[f"{name}.self_s"] = self_s(name)

    traced_wall = sum(c.wall_s for c in traced)
    m["trainer.validation.self_s"] = self_s("trainer.validation")
    m["trainer.warmup_s"] = sum(_warmup_time(t) for t in tabs) / n
    m["trainer.loop_self_s"] = self_s("trainer.train_vanilla") + self_s("trainer.train_predicted")
    m["trainer.optimizer_step.us_per_call"] = per_call("trainer.optimizer_step", 1e6)
    m["trainer.validation_share"] = total("trainer.validation") / traced_wall

    fit = "predictor.fit_structured"
    fit_calls = calls(fit)
    fit_failed = sum(t.failures(fit) for t in tabs)
    ranks = [r for c in traced for r in c.values.get("fit_ranks", [])]
    m[f"{fit}.calls"] = fit_calls / n
    m[f"{fit}.failed"] = fit_failed / n
    m[f"{fit}.ms_per_call"] = per_call(fit, 1e3)
    m["predictor.fit_success_ratio"] = (fit_calls - fit_failed) / fit_calls if fit_calls else 0.0
    m["predictor.rank"] = float(np.mean(ranks)) if ranks else 0.0
    pred = "predictor.predict_structured"
    m[f"{pred}.calls"] = calls(pred) / n
    m[f"{pred}.us_per_call"] = per_call(pred, 1e6)
    m[f"{pred}.self_s"] = self_s(pred)

    dims = [d for c in traced for d in c.values.get("solve_dims", [])]
    m["linalg.solve_ridge.calls"] = calls("linalg.solve_ridge") / n
    m["linalg.solve_ridge.ms_per_call"] = per_call("linalg.solve_ridge", 1e3)
    m["linalg.solve_ridge.dim"] = float(np.mean(dims)) if dims else 0.0
    m["linalg.truncated_svd.ms_per_call"] = per_call("linalg.truncated_svd", 1e3)

    m["estimator.alignment_stats.us_per_call"] = per_call("estimator.alignment_stats", 1e6)
    m["estimator.split_minibatch.us_per_call"] = per_call("estimator.split_minibatch", 1e6)
    if spec.kind == "simulate":
        f, rho, kappa = spec.f, spec.rho, spec.kappa
    else:
        f = spec.control_fraction
        rho = _finite_mean([c.values.get("rho_hat") for c in plain])
        kappa = _finite_mean([c.values.get("kappa_hat") for c in plain])
    m["estimator.rho_hat"] = rho
    m["estimator.kappa_hat"] = kappa

    m["kernels.mc_chunk.calls"] = calls("kernels.mc_chunk") / n
    m["kernels.mc_chunk.ms_per_call"] = per_call("kernels.mc_chunk", 1e3)
    m["kernels.numba"] = int(bool(kernels_numba))
    m["analysis.rng_draw_s"] = self_s("analysis.simulate_estimator")
    m["data.gen_s"] = total("data.gen") / n

    notes = {}
    nominal = break_even(f, rho, kappa, 2.0, 0.7)
    m["gamma.nominal"], m["rho_star.nominal"], m["verdict.nominal"], notes["nominal"] = nominal
    fwd = per_call("network.forward", 1.0)
    if fwd > 0:
        backward = per_call("network.backward", 1.0) / fwd
        cheap = (per_call("network.cheap_forward", 1.0) + per_call(pred, 1.0)) / fwd
        measured = break_even(f, rho, kappa, backward, cheap)
    else:
        backward = cheap = 0.0
        measured = (0.0, 0.0, 0, "no network passes")
    m["cost.backward_measured"] = backward
    m["cost.cheap_forward_measured"] = cheap
    m["gamma.measured"], m["rho_star.measured"], m["verdict.measured"], notes["measured"] = measured
    m["trace.overhead_s"] = _median([t.wall_s - p.wall_s for p, t in pairs])

    m.update(_plain_figures(spec, plain, tracer))
    attempted = 2 * len(pairs)
    m["check_fail_ratio"] = sum(bool(c.problems) for p in pairs for c in p) / attempted
    return m, notes


def _plain_figures(spec, plain, tracer) -> dict:
    """The workload-specific end-to-end figures, from the untraced commands
    of a traced run: compare step rates and latencies, validation losses of
    the first command, and simulate trials per second."""
    out = dict.fromkeys(("vanilla_steps_per_s", "predicted_steps_per_s",
                         "predicted_step_p50_ms", "predicted_step_p90_ms",
                         "predicted_step.samples", "refit_step_p50_ms",
                         "refit_step.samples", "vanilla_val_loss",
                         "predicted_val_loss", "trials_per_s"), 0.0)
    if spec.kind == "simulate":
        out["trials_per_s"] = _median([spec.trials / c.wall_s for c in plain])
        return out
    timing = [compare_timing(tracer.table(*c.spans), spec.refit_period) for c in plain]
    ordinary = np.concatenate([t["ordinary"] for t in timing])
    refit = np.concatenate([t["refit"] for t in timing])
    out["vanilla_steps_per_s"] = _median([t["vanilla_steps_per_s"] for t in timing])
    out["predicted_steps_per_s"] = _median([t["predicted_steps_per_s"] for t in timing])
    out["predicted_step_p50_ms"] = 1e3 * _percentile(ordinary, 50)
    out["predicted_step_p90_ms"] = 1e3 * _percentile(ordinary, 90)
    out["predicted_step.samples"] = len(ordinary)
    out["refit_step_p50_ms"] = 1e3 * _median(refit)
    out["refit_step.samples"] = len(refit)
    out["vanilla_val_loss"] = plain[0].values.get("vanilla_val_loss", 0.0)
    out["predicted_val_loss"] = plain[0].values.get("predicted_val_loss", 0.0)
    return out


def _warmup_time(table) -> float:
    """Time from entering train_predicted to its first split_minibatch call:
    the warmup batch and the first predictor fit."""
    total = 0.0
    splits = table.mask("estimator.split_minibatch")
    for run in np.flatnonzero(table.mask("trainer.train_predicted")):
        first = table.start[splits & (table.parent == run)]
        if len(first):
            total += float(first.min() - table.start[run])
    return total


def _finite_mean(values) -> float:
    vals = [v for v in values if v is not None and np.isfinite(v)]
    return float(np.mean(vals)) if vals else 0.0


def check_accounting(table, wall: float) -> list:
    """Span self times plus the untraced remainder must add up to the
    command's traced wall time."""
    if not table.nesting_ok():
        return ["trace: spans do not nest"]
    total = float(table.self_time.sum()) + table.untraced_remainder(wall)
    if abs(total - wall) > 1e-6 * max(wall, 1e-3):
        return [f"trace: self times plus remainder {total!r} != wall {wall!r}"]
    return []
