"""Linear gradient predictors for the trunk parameters.

The head gradient has the closed form residual x [a(x); 1] and is always
predicted exactly. The trunk gradient is approximated by one of two learned
linear structures, both motivated by the low effective rank of per-example
gradient features:

* scalar variant: a single matrix mapping the head gradient to the trunk
  gradient, trunk = M [a(x); 1] (f(x) - y); valid for scalar-output nets.
* structured variant: an orthonormal basis U for the span of observed trunk
  gradients plus per-basis-direction bilinear maps S_i; the coefficient of
  direction i is [a(x); 1]^T S_i^T h with h = W_a^T residual. Covers vector
  regression and classification through the residual definition alone.

Both are fit by ridge least squares on ``FitRows`` (activation, residual and
true trunk gradient arrays, one row per control example) that a ``FitBuffer``
collects. Over n rows the structured features h x [a; 1] have the Gram
matrix (H H^T) o (A A^T), A the rows [a; 1]: the last-layer tangent kernel.
With more features than rows, ``solve_ridge`` fits through this n x n matrix
(kernel ridge). A third, diagnostic predictor returns the exact backward
gradient.

Every predictor has a ``kind`` name, ``predict_batch(net, xs, llh,
residuals)`` returning one flat-layout predicted gradient per row in batch
order, and ``to_arrays()`` / ``from_arrays()`` for run checkpoints.
``PREDICTORS`` maps each kind to its class. ``predict_scalar`` and
``predict_structured`` take rows of activations and residuals, or a single
example, and are each called once per batch. Their products run one gemv
per row, like the network's passes, so a row's prediction does not depend
on the other rows of its batch.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, InsufficientData
from .linalg import solve_ridge, truncated_svd
from .network import backward, forward, gradient_rows, matvec

RESIDUAL_FLOOR = 1e-8   # rows with smaller residuals carry no fit signal
ENERGY_TARGET = 0.99    # default rank rule: 99% of squared singular mass


class FitRows(NamedTuple):
    """Fit data, one row per control example."""
    llh: np.ndarray         # (n, D)
    residual: np.ndarray    # (n, C)
    h: np.ndarray           # (n, D) = W_a^T residual, W_a the head weight of the pass
    trunk_grad: np.ndarray  # (n, P_T) true gradient from backward

    @classmethod
    def from_pass(cls, llh, residual, trunk_grad, head_weight) -> "FitRows":
        return cls(llh, residual, matvec(head_weight.T, residual), trunk_grad)


class FitBuffer:
    """The last ``capacity`` fit rows, oldest first. Added rows are copied and
    kept as the batches they came in, a batch dropped once newer rows fill the
    capacity, so an add copies only its own rows; ``rows()`` concatenates."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._batches = []
        self._size = 0          # rows held, including the oldest batch's surplus

    def __len__(self) -> int:
        return min(self._size, self.capacity)

    def add(self, rows: FitRows) -> None:
        self._batches.append(FitRows(*(np.array(a, dtype=np.float64) for a in rows)))
        self._size += len(rows.llh)
        while self._size - len(self._batches[0].llh) >= self.capacity:
            self._size -= len(self._batches.pop(0).llh)

    def rows(self) -> FitRows:
        """The held rows in one copy; the buffer must not be empty."""
        skip = self._size - len(self)
        return FitRows(*(np.concatenate(a)[skip:] for a in zip(*self._batches)))


@dataclass(frozen=True)
class RefitPolicy:
    period: int = 50
    buffer_capacity: int = 256
    ridge_lambda: float | None = None  # None: 1e-6 * mean squared feature norm

    def __post_init__(self):
        if self.period < 1:
            raise ConfigError(f"refit period must be >= 1, got {self.period}")
        if self.buffer_capacity < 2:
            raise ConfigError("fit buffer capacity must be >= 2")
        if self.ridge_lambda is not None and self.ridge_lambda < 0:
            raise ConfigError("ridge lambda must be nonnegative")


@dataclass
class ScalarPredictor:
    coef: np.ndarray        # (P_T, D+1)
    n_fit: int = 0
    ridge_lambda: float = 0.0

    kind = "scalar"

    def predict_batch(self, net, xs, llh, residuals) -> np.ndarray:
        return predict_scalar(self, llh, residuals)

    def to_arrays(self) -> dict:
        return {"pred_coef": self.coef,
                "pred_meta": np.asarray([self.n_fit, self.ridge_lambda])}

    @classmethod
    def from_arrays(cls, z) -> "ScalarPredictor":
        n_fit, lam = z["pred_meta"]
        return cls(coef=z["pred_coef"], n_fit=int(n_fit), ridge_lambda=float(lam))


@dataclass
class StructuredPredictor:
    basis: np.ndarray       # (P_T, r), orthonormal columns
    maps: np.ndarray        # (r, D, D+1)
    rank: int
    n_fit: int = 0
    ridge_lambda: float = 0.0

    kind = "structured"

    def predict_batch(self, net, xs, llh, residuals) -> np.ndarray:
        return predict_structured(self, llh, residuals, net.head_weight)

    def to_arrays(self) -> dict:
        return {"pred_basis": self.basis, "pred_maps": self.maps,
                "pred_meta": np.asarray([self.rank, self.n_fit, self.ridge_lambda])}

    @classmethod
    def from_arrays(cls, z) -> "StructuredPredictor":
        rank, n_fit, lam = z["pred_meta"]
        return cls(basis=z["pred_basis"], maps=z["pred_maps"], rank=int(rank),
                   n_fit=int(n_fit), ridge_lambda=float(lam))


class PerfectPredictor:
    """Diagnostic predictor that returns the exact backward gradient.

    Used to exercise the algebraic identity G = mean gradient when
    predictions are perfect; cost accounting still charges the predicted
    algorithm's pass structure.
    """

    kind = "perfect"

    def predict_batch(self, net, xs, llh, residuals) -> np.ndarray:
        return backward(net, forward(net, xs)[2], residuals)

    def to_arrays(self) -> dict:
        return {}

    @classmethod
    def from_arrays(cls, z) -> "PerfectPredictor":
        return cls()


PREDICTORS = {p.kind: p for p in (ScalarPredictor, StructuredPredictor, PerfectPredictor)}


def should_refit(policy: RefitPolicy, step: int) -> bool:
    """Refit on every period-th completed optimizer step, never at step 0."""
    if step < 0:
        raise ConfigError(f"step must be nonnegative, got {step}")
    return step > 0 and step % policy.period == 0


def choose_rank(singulars: np.ndarray, cap: int, energy: float = ENERGY_TARGET) -> int:
    """Smallest rank capturing the target fraction of squared singular mass,
    capped (the cap is the activation width D by default)."""
    sq = np.asarray(singulars, dtype=np.float64) ** 2
    total = sq.sum()
    if total <= 0:
        return 1
    frac = np.cumsum(sq) / total
    r = int(np.searchsorted(frac, energy) + 1)
    return max(1, min(r, cap, len(sq)))


def _augment(llh: np.ndarray) -> np.ndarray:
    """[llh; 1] for each row of llh."""
    return np.concatenate([llh, np.ones(llh.shape[:-1] + (1,))], axis=-1)


def _default_lambda(features: np.ndarray) -> float:
    return 1e-6 * float(np.mean(np.einsum("ij,ij->i", features, features)))


def _usable(rows: FitRows) -> FitRows:
    """The rows whose residual exceeds RESIDUAL_FLOOR, of which a fit needs at
    least D+1; both sides of the fit share the residual factor, so the other
    rows carry no signal."""
    keep = np.max(np.abs(rows.residual), axis=1) > RESIDUAL_FLOOR
    n, d = int(keep.sum()), rows.llh.shape[1]
    if n == 0:
        raise InsufficientData("no samples with non-negligible residual")
    if n < d + 1:
        raise InsufficientData(f"fit needs at least D+1 = {d + 1} usable samples, got {n}")
    return FitRows(*(a[keep] for a in rows))


def fit_scalar(rows: FitRows, lam: float | None = None) -> ScalarPredictor:
    """Ridge fit of the trunk-from-head gradient map on scalar-output rows.

    The regression feature for a row is its head gradient [llh; 1] * r and
    the target its true trunk gradient.
    """
    if rows.residual.shape[1] != 1:
        raise DimensionError("scalar predictor requires scalar residuals")
    rows = _usable(rows)
    feats = _augment(rows.llh) * rows.residual
    if lam is None:
        lam = _default_lambda(feats)
    coef_t = solve_ridge(feats, rows.trunk_grad, lam)
    return ScalarPredictor(coef=coef_t.T, n_fit=len(feats), ridge_lambda=float(lam))


def predict_scalar(p: ScalarPredictor, llh, residual) -> np.ndarray:
    """Predicted flat gradient rows for scalar-output examples: the head part
    is the exact closed form, the trunk part applies the learned matrix to
    the head gradient [llh; 1] r."""
    llh = np.asarray(llh, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != llh.shape[:-1] + (1,):
        raise DimensionError("scalar predictor requires one scalar residual per row")
    if llh.shape[-1] + 1 != p.coef.shape[1]:
        raise DimensionError(
            f"activation dim {llh.shape[-1]} does not match predictor "
            f"({p.coef.shape[1] - 1})")
    trunk = matvec(p.coef, _augment(llh) * residual)
    return gradient_rows(trunk, llh, residual)


def fit_structured(rows: FitRows, r: int | None = None,
                   lam: float | None = None) -> StructuredPredictor:
    """Fit the basis + bilinear-coefficient predictor.

    The basis is the top-r left singular subspace of the trunk gradients;
    per-row coefficient targets are the basis projections U^T g, regressed
    on the bilinear features h x [llh; 1] with one shared ridge solve for
    all r outputs. With r = None the rank is chosen by the 99%
    squared-singular-mass rule, capped at D.
    """
    rows = _usable(rows)
    (n, d), p_t = rows.llh.shape, rows.trunk_grad.shape[1]
    if r is not None and r > min(n, p_t):
        raise DimensionError(
            f"rank {r} exceeds min(samples, trunk size) = {min(n, p_t)}")

    u, sing, _ = truncated_svd(rows.trunk_grad.T, min(n, p_t))
    if r is None:
        r = choose_rank(sing, cap=d)
    basis = u[:, :r]
    coef_targets = rows.trunk_grad @ basis  # (n, r), row i = U^T g_i

    feats = (rows.h[:, :, None] * _augment(rows.llh)[:, None, :]).reshape(n, -1)
    if lam is None:
        lam = _default_lambda(feats)
        if lam <= 0:
            raise InsufficientData("all bilinear features vanish; nothing to fit")
    weights = solve_ridge(feats, coef_targets, lam)  # (D(D+1), r)
    maps = np.ascontiguousarray(weights.T.reshape(r, d, d + 1))
    return StructuredPredictor(basis=basis, maps=maps, rank=int(r),
                               n_fit=n, ridge_lambda=float(lam))


def predict_structured(p: StructuredPredictor, llh, residual,
                       head_weight: np.ndarray) -> np.ndarray:
    """Predicted flat gradient rows from the structured predictor.

    Exact head part; trunk part U c with c_i = [llh; 1]^T S_i^T (W_a^T r).
    Works identically for regression and classification residuals.
    """
    llh = np.asarray(llh, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    d = llh.shape[-1]
    if head_weight.shape != (residual.shape[-1], d) \
            or residual.shape[:-1] != llh.shape[:-1]:
        raise DimensionError(
            f"head weight {head_weight.shape} incompatible with residuals "
            f"{residual.shape} and activations {llh.shape}")
    if p.maps.shape[1:] != (d, d + 1):
        raise DimensionError(
            f"predictor was fit for activation dim {p.maps.shape[1]}, got {d}")
    h = matvec(head_weight.T, residual)
    coeffs = np.einsum("...i,rij,...j->...r", h, p.maps, _augment(llh))
    return gradient_rows(matvec(p.basis, coeffs), llh, residual)
