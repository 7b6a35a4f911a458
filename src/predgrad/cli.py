"""Command-line entry point.

Subcommands: gen-data, train, compare, analyze, simulate. `--predictor`
picks the algorithm: `none`, the default of `train`, trains vanilla SGD, and
`feedback`, `structured` (the default of `compare`, which trains vanilla
beside it) or `perfect` trains with that predictor. The loss follows from
the data: cross-entropy on class labels, squared error on targets.

Options can also come from a plain `key = value` config file: `predgrad
--config FILE <subcommand> [flags]`, where the subcommand is the first
argument besides `--config FILE`. Each line becomes the flag `--key=value`
(`_` in a key reads as `-`), placed before the command line's flags so that
these win; so file values are checked exactly like flags. `none` keeps an
option that defaults to none at it, and is any other option's value
(`predictor = none` is vanilla for `train`, an error for `compare`). A
command that passes its checks (exit 0 or 4) writes its resolved
configuration to <outdir>/config.txt, which is itself a valid config file.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
Failures, bad arguments among them, print one machine-readable line
`error:<Type>:<message>` to stderr.
"""

import argparse
import csv
import json
import math
import os
import sys

from .analysis import (CostModel, break_even_satisfied, f_star, gamma,
                       q_objective, rho_star, rho_switch, simulate_estimator,
                       sweep)
from .data import gen_blobs, gen_regression, load_csv, save_csv
from .errors import ConfigError, DataError, NumericError, PredgradError
from .estimator import variance_inflation
from .network import NetworkConfig
from .predictor import PREDICTORS, RefitPolicy
from .trainer import (TrainConfig, resume_run, run_budgeted_comparison,
                      save_run_checkpoint, train_predicted, train_vanilla)


def _floats(s: str) -> list[float]:
    try:
        return [float(v) for v in s.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from None


def _ints(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in s.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {s!r}") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error is a ``ConfigError``."""

    def error(self, message):
        raise ConfigError(message)


def _add_data_options(p, task_required=False):
    p.add_argument("--data", default=None, help="dataset CSV path")
    p.add_argument("--data-kind", default="regression",
                   choices=["regression", "classification"])
    p.add_argument("--task", default=None, choices=["regression", "blobs"],
                   required=task_required,
                   help="generate data in-process instead of loading a CSV")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--input-dim", type=int, default=8)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise-sd", type=float, default=0.05)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--val-fraction", type=float, default=0.2)


def _add_train_options(p, predictor):
    p.add_argument("--hidden", default="16", help="comma-separated hidden widths")
    p.add_argument("--activation", default="tanh",
                   choices=["tanh", "relu", "identity"])
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--control-fraction", "-f", dest="control_fraction",
                   type=float, default=0.25)
    p.add_argument("--learning-rate", "--lr", dest="learning_rate",
                   type=float, default=0.05)
    p.add_argument("--refit-period", type=int, default=50)
    p.add_argument("--buffer-capacity", type=int, default=256,
                   help="size of the ring of recent control rows that each predictor "
                        "fit reads; at least C for feedback and D+1 for structured")
    p.add_argument("--budget", type=float, default=None,
                   help="stepping-cost budget in cost units")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--predictor", default=predictor, help="none trains vanilla",
                   choices=["none", *PREDICTORS] if predictor == "none" else list(PREDICTORS))
    p.add_argument("--eval-every", type=int, default=1)
    _add_cost_options(p)


def _add_cost_options(p):
    p.add_argument("--cost-backward", type=float, default=2.0)
    p.add_argument("--cost-forward", type=float, default=1.0)
    p.add_argument("--cost-cheap-forward", type=float, default=0.7)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: the parser would take --conf FILE and ignore the file
    parser = _Parser(prog="predgrad", description="Predicted gradient descent toolkit",
                     allow_abbrev=False)
    parser.add_argument("--config", default=None,
                        help="key = value file, read as the flags --key=value ahead "
                             "of the subcommand's own, which win; none keeps the "
                             "default; the subcommand must be the first other argument")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--outdir", default="out")

    p = sub.add_parser("gen-data", parents=[common],
                       help="generate a synthetic dataset CSV")
    _add_data_options(p, task_required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[common], help="train one algorithm")
    p.add_argument("--resume", default=None, help="run checkpoint to resume from")
    p.add_argument("--epochs", type=int, default=1)
    _add_data_options(p)
    _add_train_options(p, predictor="none")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", parents=[common],
                       help="budget-matched vanilla vs predicted run")
    _add_data_options(p)
    _add_train_options(p, predictor="structured")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", parents=[common], help="evaluate the break-even theory")
    p.add_argument("--f", default=None, help="control fraction(s), comma list")
    p.add_argument("--rho", default=None, help="alignment value(s)")
    p.add_argument("--kappa", default="1.0", help="scale ratio value(s)")
    p.add_argument("--f-min", type=float, default=0.01)
    _add_cost_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo estimator verification")
    p.add_argument("--sigma-g", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--f", type=float, default=0.25)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--trials", type=int, default=100000)
    p.set_defaults(func=cmd_simulate)

    return parser


def _parse_args(argv):
    """``argv`` parsed, a ``--config FILE`` (or ``--config=FILE``) in it
    replaced by the file's lines as flags right after the subcommand, so that
    its own flags win. A parse error names the first file line that, with the
    lines before it and the command line's flags, gives that same error."""
    parser = build_parser()
    rest, path, lines = _config_flags(argv, parser)

    def parse(k):
        try:
            return parser.parse_args(rest[:1] + [f for _, f in lines[:k]] + rest[1:]), None
        except ConfigError as e:
            return None, str(e)

    args, error = parse(len(lines))
    if error is None:
        return args
    k = next(k for k in range(len(lines) + 1) if parse(k)[1] == error)
    raise ConfigError(f"{path}:{lines[k - 1][0]}: {error}" if k else error)


def _config_flags(argv, parser):
    """``argv`` without its ``--config FILE``, the path, and the file's
    ``(line number, flag)`` pairs, but for the ``none`` lines of options
    whose default is None in ``parser``'s subcommand."""
    argv = [part for arg in argv
            for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if "--config" not in argv:
        return argv, None, []
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if not rest or rest[0].startswith("-"):
        raise ConfigError("with --config, the subcommand must be the first other "
                          f"argument: predgrad --config {path} <subcommand> [flags]")
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    none_flags = {flag for a in getattr(sub.choices.get(rest[0]), "_actions", [])
                  if a.default is None for flag in a.option_strings}
    flags = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = f"--{key.replace('_', '-')}"
        if value != "none" or flag not in none_flags:
            flags.append((lineno, f"{flag}={value}"))
    return rest, path, flags


def _write_effective_config(args):
    skip = {"func", "command", "config", "resume"}
    try:
        with open(os.path.join(args.outdir, "config.txt"), "w") as fh:
            for key in sorted(vars(args)):
                if key not in skip:
                    value = getattr(args, key)
                    fh.write(f"{key} = {'none' if value is None else value}\n")
    except OSError as e:
        raise ConfigError(f"cannot write to --outdir {args.outdir}: {e}") from None


def _dataset_from_args(args):
    if args.data is not None:
        try:
            return load_csv(args.data, kind=args.data_kind,
                            val_fraction=args.val_fraction)
        except OSError as e:
            raise DataError(f"cannot read dataset {args.data}: {e}") from None
    if args.task == "regression":
        return gen_regression(args.n, args.input_dim, args.noise_sd, args.seed,
                              val_fraction=args.val_fraction)
    if args.task == "blobs":
        return gen_blobs(args.n, args.classes, args.input_dim, args.separation,
                         args.seed, val_fraction=args.val_fraction)
    raise ConfigError("need --data or --task")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=getattr(args, "epochs", 1),   # compare has none: its budget ends each run
        batch_size=args.batch_size,
        control_fraction=args.control_fraction,
        learning_rate=args.learning_rate,
        refit=RefitPolicy(period=args.refit_period, buffer_capacity=args.buffer_capacity),
        cost_model=CostModel(backward=args.cost_backward,
                             forward=args.cost_forward,
                             cheap_forward=args.cost_cheap_forward),
        budget=args.budget,
        max_steps=args.max_steps,
        seed=args.seed,
        eval_every=args.eval_every,
    )


def _net_config(args, ds) -> NetworkConfig:
    return NetworkConfig(input_dim=ds.input_dim, hidden_widths=_ints(args.hidden),
                         output_dim=ds.output_dim, activation=args.activation,
                         seed=args.seed)


def cmd_gen_data(args) -> int:
    ds = _dataset_from_args(args)
    path = os.path.join(args.outdir, "dataset.csv")
    save_csv(ds, path)
    print(f"wrote {path} n={ds.n} input_dim={ds.input_dim} kind={ds.kind}")
    return 0


def cmd_train(args) -> int:
    ds = _dataset_from_args(args)
    cfg = _train_config(args)
    metrics_path = os.path.join(args.outdir, "metrics.csv")
    ckpt_path = os.path.join(args.outdir, "checkpoint.npz")

    if args.resume is not None:
        result = resume_run(cfg, ds, _net_config(args, ds), args.resume, metrics_path,
                            args.predictor)
    else:
        from .network import init_network
        net = init_network(_net_config(args, ds))
        if args.predictor == "none":
            result = train_vanilla(cfg, ds, net, metrics_path)
        else:
            result = train_predicted(cfg, ds, net, args.predictor, metrics_path)
    save_run_checkpoint(ckpt_path, result, cfg, ds)
    print(f"steps {result.steps}")
    print(f"cost_units {result.state.stepping.cost_units!r}")
    print(f"final_loss {result.final_loss!r}")
    print(f"metrics {metrics_path}")
    print(f"checkpoint {ckpt_path}")
    return 0


def cmd_compare(args) -> int:
    ds = _dataset_from_args(args)
    cfg = _train_config(args)
    report = run_budgeted_comparison(
        cfg, ds, _net_config(args, ds), predictor=args.predictor,
        vanilla_metrics_path=os.path.join(args.outdir, "metrics_vanilla.csv"),
        predicted_metrics_path=os.path.join(args.outdir, "metrics_predicted.csv"))
    report_path = os.path.join(args.outdir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"vanilla_steps {report.vanilla_steps}")
    print(f"predicted_steps {report.predicted_steps}")
    print(f"vanilla_final_loss {report.vanilla_final_loss!r}")
    print(f"predicted_final_loss {report.predicted_final_loss!r}")
    print(f"rho_hat_trunk_mean {report.rho_hat_trunk_mean!r}")
    print(f"kappa_hat_mean {report.kappa_hat_mean!r}")
    print(f"rho_star_measured {report.rho_star_measured!r}")
    print(f"break_even_verdict {report.break_even_verdict}")
    print(f"report {report_path}")
    return 0


def cmd_analyze(args) -> int:
    cm = CostModel(backward=args.cost_backward, forward=args.cost_forward,
                   cheap_forward=args.cost_cheap_forward)
    fs = _floats(args.f) if args.f else [round(0.05 * i, 2) for i in range(1, 21)]
    rhos = _floats(args.rho) if args.rho else [round(0.05 * i, 2) for i in range(0, 21)]
    kappas = _floats(args.kappa)

    rows = sweep(cm, fs, rhos, kappas)
    path = os.path.join(args.outdir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f", "rho", "kappa", "phi", "gamma", "Q", "break_even"])
        writer.writerows([repr(v) if isinstance(v, float) else int(v) for v in row]
                         for row in rows)

    if len(fs) == 1 and len(kappas) == 1:
        f, kappa = fs[0], kappas[0]
        print(f"gamma {gamma(cm, f)!r}")
        if f < 1.0:
            print(f"rho_star {rho_star(cm, f, kappa)!r}")
        print(f"rho_switch {rho_switch(cm, kappa)!r}")
        if args.rho and len(rhos) == 1:
            rho = rhos[0]
            print(f"phi {variance_inflation(f, rho, kappa)!r}")
            print(f"Q {q_objective(cm, f, rho, kappa)!r}")
            print(f"f_star {f_star(cm, rho, kappa, args.f_min)!r}")
            if f < 1.0:
                print(f"break_even {break_even_satisfied(cm, f, rho, kappa)}")
    print(f"sweep {path}")
    return 0


def cmd_simulate(args) -> int:
    sigma_h = args.kappa * args.sigma_g
    tau = args.rho * args.sigma_g * sigma_h
    res = simulate_estimator(args.sigma_g, sigma_h, tau, args.dim, args.f,
                             args.m, args.trials, args.seed)
    ratio = res.emp_var / res.predicted_var
    se = math.sqrt(res.predicted_var / args.trials)
    path = os.path.join(args.outdir, "simulation.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_g", "sigma_h", "tau", "dim", "f", "m", "trials",
                         "mean_err", "emp_var", "predicted_var", "ratio"])
        writer.writerow([repr(v) for v in
                         (args.sigma_g, sigma_h, tau, args.dim, args.f, args.m,
                          args.trials, res.mean_err, res.emp_var,
                          res.predicted_var, ratio)])
    print(f"mean_err {res.mean_err!r}")
    print(f"mean_err_stderr_units {res.mean_err / se!r}")
    print(f"emp_var {res.emp_var!r}")
    print(f"predicted_var {res.predicted_var!r}")
    print(f"ratio {ratio!r}")
    print(f"table {path}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        try:
            os.makedirs(args.outdir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot write to --outdir {args.outdir}: {e}") from None
        try:
            code = args.func(args)
        except NumericError:   # the run went ahead: record it beside its metrics
            _write_effective_config(args)
            raise
        _write_effective_config(args)
        return code
    except PredgradError as e:
        print(f"error:{type(e).__name__}:{e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
