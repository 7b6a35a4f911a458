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

Both are fit by ridge least squares on buffered (activation, residual, true
trunk gradient) samples collected from control micro-batches. A third,
diagnostic predictor returns the exact backward gradient.

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

import numpy as np

from .errors import ConfigError, DimensionError, InsufficientData
from .linalg import solve_ridge, truncated_svd
from .network import backward, forward, gradient_rows, matvec

RESIDUAL_FLOOR = 1e-8   # samples with smaller residuals carry no fit signal
ENERGY_TARGET = 0.99    # default rank rule: 99% of squared singular mass


@dataclass
class FitSample:
    llh: np.ndarray         # (D,)
    residual: np.ndarray    # (C,)
    h: np.ndarray           # (D,) = W_a^T residual
    trunk_grad: np.ndarray  # (P_T,) true gradient from backward


def make_fit_samples(llh, residuals, trunk_grads, head_weight) -> list[FitSample]:
    """One fit sample per row of activations, residuals and true trunk
    gradients; the rows are copied."""
    residuals = np.array(residuals, dtype=np.float64)
    h = matvec(head_weight.T, residuals)
    return [FitSample(llh=a, residual=r, h=hr, trunk_grad=g)
            for a, r, hr, g in zip(np.array(llh, dtype=np.float64), residuals, h,
                                   np.array(trunk_grads, dtype=np.float64))]


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


def fit_scalar(samples, lam: float | None = None) -> ScalarPredictor:
    """Ridge fit of the trunk-from-head gradient map on scalar-output samples.

    The regression feature for a sample is its head gradient [llh; 1] * r and
    the target its true trunk gradient; near-zero residuals are excluded
    because both sides share the residual factor.
    """
    kept = [s for s in samples
            if s.residual.shape == (1,) and abs(float(s.residual[0])) > RESIDUAL_FLOOR]
    if samples and any(s.residual.shape != (1,) for s in samples):
        raise DimensionError("scalar predictor requires scalar residuals")
    if not kept:
        raise InsufficientData("no samples with non-negligible residual")
    d = kept[0].llh.shape[0]
    if len(kept) < d + 1:
        raise InsufficientData(
            f"scalar fit needs at least D+1 = {d + 1} usable samples, got {len(kept)}")
    feats = np.stack([_augment(s.llh) * float(s.residual[0]) for s in kept])
    targets = np.stack([s.trunk_grad for s in kept])
    if lam is None:
        lam = _default_lambda(feats)
    coef_t = solve_ridge(feats, targets, lam)
    return ScalarPredictor(coef=coef_t.T, n_fit=len(kept), ridge_lambda=float(lam))


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


def fit_structured(samples, r: int | None = None, lam: float | None = None) -> StructuredPredictor:
    """Fit the basis + bilinear-coefficient predictor.

    The basis is the top-r left singular subspace of the stacked trunk
    gradients; per-sample coefficient targets are the basis projections
    U^T g, regressed on the bilinear features h x [llh; 1] with one shared
    ridge solve for all r outputs. With r = None the rank is chosen by the
    99% squared-singular-mass rule, capped at D.
    """
    kept = [s for s in samples if np.max(np.abs(s.residual)) > RESIDUAL_FLOOR]
    if not kept:
        raise InsufficientData("no samples with non-negligible residual")
    d = kept[0].llh.shape[0]
    p_t = kept[0].trunk_grad.shape[0]
    n = len(kept)

    grad_mat = np.stack([s.trunk_grad for s in kept], axis=1)  # (P_T, n)
    if r is None:
        sing = np.linalg.svd(grad_mat, compute_uv=False)
        r = choose_rank(sing, cap=d)
    if r > min(n, p_t):
        raise DimensionError(
            f"rank {r} exceeds min(samples, trunk size) = {min(n, p_t)}")
    if n < max(r, d + 1):
        raise InsufficientData(
            f"structured fit needs at least max(r, D+1) = {max(r, d + 1)} samples, got {n}")

    basis, _, _ = truncated_svd(grad_mat, r)
    coef_targets = grad_mat.T @ basis  # (n, r), row i = U^T g_i

    feats = np.stack([np.outer(s.h, _augment(s.llh)).ravel() for s in kept])
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
