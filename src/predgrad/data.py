"""Desk-scale datasets: synthetic regression and blob classification, plus
CSV ingestion with a fixed column schema.

CSV layout: feature columns x0..x{d-1}, a target column, and an optional
split column with values train/val. Row order is preserved on load; without
a split column the validation set is the last fraction of rows.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError
from .network import Network, NetworkConfig, forward, init_network
from .rng import substream


@dataclass
class Dataset:
    features: np.ndarray          # (n, d)
    targets: np.ndarray           # (n, C) float for regression, (n,) int labels
    kind: str                     # "regression" | "classification"
    train_idx: np.ndarray
    val_idx: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def output_dim(self) -> int:
        """Classes (the largest label + 1) or target columns."""
        return int(self.targets.max()) + 1 if self.kind == "classification" \
            else self.targets.shape[1]

    @property
    def loss_kind(self) -> str:
        """The loss the data decides: labels or one or more target columns."""
        if self.kind == "classification":
            return "cross_entropy"
        return "squared_scalar" if self.targets.shape[1] == 1 else "squared_vector"

    def target_for(self, i: int):
        """Target in the form the loss expects: label int or target vector."""
        return int(self.targets[i]) if self.kind == "classification" else self.targets[i]


def _split_tail(n: int, val_fraction: float):
    n_val = int(round(val_fraction * n))
    n_val = min(max(n_val, 0), n - 1)
    return np.arange(n - n_val), np.arange(n - n_val, n)


def regression_teacher(input_dim: int, seed: int) -> Network:
    """The deterministic teacher network behind gen_regression(seed)."""
    rng = substream(seed, "teacher")
    return init_network(NetworkConfig(input_dim=input_dim, hidden_widths=(16,),
                                      output_dim=1, activation="tanh",
                                      seed=int(rng.integers(2 ** 31))))


def gen_regression(n: int, input_dim: int, noise_sd: float, seed: int,
                   val_fraction: float = 0.2) -> Dataset:
    """Scalar regression targets from a hidden random teacher MLP plus
    Gaussian noise; fully determined by the seed."""
    if n < 2:
        raise DataError(f"need at least 2 examples, got {n}")
    if input_dim < 1 or noise_sd < 0:
        raise DataError("invalid regression parameters")
    teacher = regression_teacher(input_dim, seed)
    rng = substream(seed, "data")
    feats = rng.standard_normal((n, input_dim))
    clean = forward(teacher, feats)[1]
    noise = noise_sd * rng.standard_normal((n, 1))
    train_idx, val_idx = _split_tail(n, val_fraction)
    return Dataset(features=feats, targets=clean + noise, kind="regression",
                   train_idx=train_idx, val_idx=val_idx)


def gen_blobs(n: int, classes: int, input_dim: int, separation: float,
              seed: int, val_fraction: float = 0.2) -> Dataset:
    """Gaussian class clusters with centers at pairwise distance >=
    separation and class counts balanced within one example."""
    if classes < 2:
        raise DataError(f"need at least 2 classes, got {classes}")
    if n < classes:
        raise DataError("need at least one example per class")
    if input_dim < 1 or separation <= 0:
        raise DataError("invalid blob parameters")
    rng = substream(seed, "data")
    centers = rng.standard_normal((classes, input_dim))
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    min_dist = dists[np.triu_indices(classes, k=1)].min()
    if min_dist <= 0:
        raise DataError("degenerate random centers")  # measure-zero event
    centers *= separation / min_dist

    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    labels = np.repeat(np.arange(classes), counts)
    feats = centers[labels] + rng.standard_normal((n, input_dim))
    order = rng.permutation(n)
    train_idx, val_idx = _split_tail(n, val_fraction)
    return Dataset(features=feats[order], targets=labels[order].astype(np.int64),
                   kind="classification", train_idx=train_idx, val_idx=val_idx)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset with its split column; load_csv round-trips it."""
    d = ds.input_dim
    header = [f"x{j}" for j in range(d)] + ["target", "split"]
    split = np.empty(ds.n, dtype=object)
    split[ds.train_idx] = "train"
    split[ds.val_idx] = "val"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            target = (int(ds.targets[i]) if ds.kind == "classification"
                      else repr(float(ds.targets[i, 0])))
            writer.writerow([repr(float(v)) for v in ds.features[i]]
                            + [target, split[i]])


def load_csv(path, kind: str, val_fraction: float = 0.2) -> Dataset:
    """Load a dataset from CSV in the module's column schema: the features
    are every x* column in header order. A split column, when present,
    overrides the tail-fraction split. Parse failures name the offending row.
    """
    if kind not in ("regression", "classification"):
        raise DataError(f"unknown dataset kind {kind!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        rows = list(reader)
    f_idx = [j for j, c in enumerate(header) if c.startswith("x")]
    if not f_idx:
        raise FormatError(f"{path}: no feature columns found in header")
    try:
        t_idx = header.index("target")
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
    s_idx = header.index("split") if "split" in header else None

    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")

    feats = np.empty((len(rows), len(f_idx)))
    targets = []
    splits = []
    for i, row in enumerate(rows):
        lineno = i + 2  # header is line 1
        if len(row) != len(header):
            raise FormatError(f"{path}: row {lineno} has {len(row)} fields, "
                              f"expected {len(header)}")
        try:
            feats[i] = [float(row[j]) for j in f_idx]
            if kind == "classification":
                targets.append(int(row[t_idx]))
            else:
                targets.append(float(row[t_idx]))
        except ValueError:
            raise FormatError(f"{path}: row {lineno} is not numeric") from None
        if s_idx is not None:
            splits.append(row[s_idx])

    if kind == "classification":
        target_arr = np.asarray(targets, dtype=np.int64)
        if target_arr.min() < 0:
            raise DataError(f"{path}: negative class labels")
    else:
        target_arr = np.asarray(targets, dtype=np.float64).reshape(-1, 1)

    n = len(rows)
    if s_idx is not None:
        split_arr = np.asarray(splits)
        bad = set(split_arr) - {"train", "val"}
        if bad:
            raise FormatError(f"{path}: unknown split values {sorted(bad)}")
        train_idx = np.flatnonzero(split_arr == "train")
        val_idx = np.flatnonzero(split_arr == "val")
    else:
        train_idx, val_idx = _split_tail(n, val_fraction)
    if len(train_idx) == 0:
        raise DataError(f"{path}: no training rows")
    return Dataset(features=feats, targets=target_arr, kind=kind,
                   train_idx=train_idx, val_idx=val_idx)
