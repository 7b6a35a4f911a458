"""Print a SHA-256 digest of each of a fixed set of same-seed training runs,
so that two source trees can be checked for bit-identical trajectories.

Usage, from the repository root, with one BLAS thread (a batched product's
last bits may depend on the thread count):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python bench/trajectory_digests.py OLD/src > old.txt
    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python bench/trajectory_digests.py src > new.txt
    diff old.txt new.txt

The runs cover vanilla and the feedback, structured and perfect predictors;
tanh and ReLU; 8-16-1 and 8-12-31-1 regression and 8-64-64-3 blobs; and
``train_*`` and ``run_budgeted_comparison``. Each line names a run and gives
three digests: of the final parameters' bytes (``-`` for a comparison, which
returns none), of every metrics row (both runs' for a comparison) and of the
comparison report (``-`` for a training run). ``--n`` and ``--max-steps``
shrink the runs; the defaults make 2-epoch runs with a refit every 7 steps.
The last run, ``-short-batch``, is a comparison on 60 examples whatever
``--n``: 48 training rows, so each step is one short batch of 48 at batch
size 64, with f = 0.05.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

REGRESSION = ("regression", (16,))
WIDE_REGRESSION = ("regression", (12, 31))
BLOBS = ("blobs", (64, 64))
ALGOS = ("vanilla", "feedback", "structured", "perfect")
CONFIGS = (
    [("train", data, act, algo) for data in (REGRESSION, BLOBS) for act in ("tanh", "relu")
     for algo in ALGOS]
    + [("train", WIDE_REGRESSION, "tanh", algo) for algo in ALGOS]
    + [("compare", data, act, algo) for data, act, algo in (
        (REGRESSION, "tanh", "feedback"), (REGRESSION, "tanh", "structured"),
        (REGRESSION, "tanh", "perfect"), (REGRESSION, "relu", "structured"),
        (BLOBS, "tanh", "feedback"), (BLOBS, "tanh", "structured"),
        (BLOBS, "tanh", "perfect"), (BLOBS, "relu", "structured"),
        (WIDE_REGRESSION, "tanh", "feedback"), (WIDE_REGRESSION, "tanh", "structured"),
        (WIDE_REGRESSION, "relu", "perfect"))]
    + [("compare", REGRESSION, "tanh", "feedback", "short-batch")]
)
# a run's fixed sizes, which --n does not change
VARIANTS = {"short-batch": {"n": 60, "batch_size": 64, "control_fraction": 0.05}}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _rows(records) -> list:
    return [r.csv_row() for r in records]


def run(command, data, activation, algo, variant=None, n=400, max_steps=None) -> str:
    """The digest line of one run."""
    from predgrad.data import gen_blobs, gen_regression
    from predgrad.network import NetworkConfig, init_network
    from predgrad.predictor import RefitPolicy
    from predgrad.trainer import (TrainConfig, run_budgeted_comparison, train_predicted,
                                  train_vanilla)

    task, hidden = data
    fixed = VARIANTS.get(variant, {})
    n = fixed.get("n", n)
    if task == "regression":
        ds, out = gen_regression(n, 8, 0.05, 11, val_fraction=0.2), 1
    else:
        ds, out = gen_blobs(n, 3, 8, 6.0, 12, val_fraction=0.2), 3
    ncfg = NetworkConfig(input_dim=8, hidden_widths=hidden, output_dim=out,
                         activation=activation, seed=5)
    cfg = TrainConfig(epochs=2, batch_size=fixed.get("batch_size", 32),
                      control_fraction=fixed.get("control_fraction", 0.25),
                      refit=RefitPolicy(period=7), max_steps=max_steps, seed=3,
                      budget=1500.0 if command == "compare" else None)
    name = f"{command}-{task}-{'x'.join(map(str, hidden))}-{activation}-{algo}" \
        + (f"-{variant}" if variant else "")
    if command == "compare":
        report = run_budgeted_comparison(cfg, ds, ncfg, algo)
        metrics = _digest(_rows(report.vanilla_records) + _rows(report.predicted_records))
        summary = json.dumps(report.to_dict(), sort_keys=True, default=repr)
        return f"{name} - {metrics} {_digest([summary])}"
    net = init_network(ncfg)
    res = train_vanilla(cfg, ds, net) if algo == "vanilla" else \
        train_predicted(cfg, ds, net, algo)
    params = _digest([res.network.flat_params().tobytes()])
    return f"{name} {params} {_digest(_rows(res.records))} -"


def main(argv=None) -> list:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the source tree to import predgrad from")
    parser.add_argument("--n", type=int, default=400, help="examples per dataset")
    parser.add_argument("--max-steps", type=int, default=None)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import predgrad
    if not Path(predgrad.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"predgrad was imported from {predgrad.__file__}, not {src}")
    lines = [run(*c, n=args.n, max_steps=args.max_steps) for c in CONFIGS]
    print("\n".join(lines))
    return lines


if __name__ == "__main__":
    main()
