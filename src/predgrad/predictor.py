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
true trunk gradients, one row per example of a fit sample; the trainer
gives the trunk gradients as their per-layer factors, ``network.trunk_rows``).
The fit hands the rows to ``predgrad.linalg`` as factors, never formed where
they have more columns than there are rows. Over n rows the structured
features h x [a; 1] have the Gram matrix (H H^T) o (A A^T), A the rows
[a; 1]: the last-layer tangent kernel, formed as this Hadamard product of
two small Gram matrices. The trunk gradients' Gram matrix is likewise the
sum over trunk layers of (Dz Dz^T) o (A_prev A_prev^T), with Dz a layer's
pre-activation gradients and A_prev its inputs with a ones column: the
trunk's empirical tangent kernel. With more columns than rows,
``truncated_svd`` takes the basis from the second and ``solve_ridge`` fits
the maps through the first (kernel ridge). ``trunk_alignment`` measures a
learned predictor on a fit sample from the moments of the true and the
predicted trunk rows, formed from the same factors. A third, diagnostic
predictor returns the exact backward gradient.

Every predictor has a ``kind`` name, ``predict_batch(net, cache,
residuals)`` returning one flat-layout predicted gradient per row of a
forward cache, in its row order, ``predict_sums(net, parts)`` taking a list
of ``(cache, residuals)`` pairs and returning, for each pair, the sum of
its ``predict_batch`` rows without forming them, and ``to_arrays()`` /
``from_arrays()`` for run checkpoints. The learned predictors read only the
last hidden activations ``cache.act[-1]``; the perfect predictor runs
``backward`` or ``backward_sum`` on each cache it is given, with no forward
of its own. ``PREDICTORS`` maps each kind to its class. ``predict_scalar``
and ``predict_structured`` take rows of activations and residuals, or a
single example, and are each called once per batch as plain matrix
products; ``predict_structured`` applies its maps to the same bilinear
features ``fit_structured`` regressed on. ``predict_sums`` sums those
features over each part's rows first and stacks the parts' sums as
columns, so a learned predictor reads each of its matrices once per call,
through ``few_column_product``, however many parts it sums.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, InsufficientData
from .estimator import AlignmentStats, moment_stats
from .linalg import FactoredRows, few_column_product, solve_ridge, truncated_svd
from .network import backward, backward_sum, gradient_rows

RESIDUAL_FLOOR = 1e-8   # rows with smaller residuals carry no fit signal
ENERGY_TARGET = 0.99    # default rank rule: 99% of squared singular mass


class FitRows(NamedTuple):
    """Fit data, one row per example of a fit sample."""
    llh: np.ndarray         # (n, D)
    residual: np.ndarray    # (n, C)
    h: np.ndarray           # (n, D) = W_a^T residual, W_a the head weight of the pass
    trunk_grad: object      # (n, P_T) true gradient: an array, or its FactoredRows
                            # (``network.trunk_rows``)

    @classmethod
    def from_pass(cls, llh, residual, trunk_grad, head_weight) -> "FitRows":
        return cls(llh, residual, residual @ head_weight, trunk_grad)


@dataclass(frozen=True)
class RefitPolicy:
    period: int = 50
    buffer_capacity: int = 256          # rows drawn for each fit
    ridge_lambda: float | None = None  # None: 1e-6 * mean squared feature norm

    def __post_init__(self):
        if self.period < 1:
            raise ConfigError(f"refit period must be >= 1, got {self.period}")
        if self.buffer_capacity < 2:
            raise ConfigError("buffer capacity (rows per fit) must be >= 2")
        if self.ridge_lambda is not None and self.ridge_lambda < 0:
            raise ConfigError("ridge lambda must be nonnegative")


@dataclass
class ScalarPredictor:
    coef: np.ndarray        # (P_T, D+1)
    n_fit: int = 0
    ridge_lambda: float = 0.0

    kind = "scalar"

    def predict_batch(self, net, cache, residuals) -> np.ndarray:
        return predict_scalar(self, cache.act[-1], residuals)

    def predict_sums(self, net, parts) -> list:
        heads = [_head_sum(*_scalar_inputs(self, cache.act[-1], r)) for cache, r in parts]
        features = np.stack([hs.ravel() for hs in heads], axis=1)
        return _part_sums(few_column_product(self.coef, features), heads)

    def trunk_factors(self, net, cache, residuals):
        """(B, C) with the predicted trunk rows C B^T: the map, and the head
        gradients [llh; 1] r."""
        llh, residual = _scalar_inputs(self, cache.act[-1], residuals)
        return self.coef, _augment(llh) * residual

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

    def predict_batch(self, net, cache, residuals) -> np.ndarray:
        return predict_structured(self, cache.act[-1], residuals, net.head_weight)

    def predict_sums(self, net, parts) -> list:
        heads = [_head_sum(*_structured_inputs(self, cache.act[-1], r, net.head_weight))
                 for cache, r in parts]
        head_t = net.head_weight.T
        features = np.stack([(head_t @ hs).ravel() for hs in heads], axis=1)
        coeffs = few_column_product(self.maps.reshape(len(self.maps), -1), features)
        return _part_sums(few_column_product(self.basis, coeffs), heads)

    def trunk_factors(self, net, cache, residuals):
        """(B, C) with the predicted trunk rows C B^T: the basis, and the
        coefficients, from the bilinear features' factors."""
        llh, residual = _structured_inputs(self, cache.act[-1], residuals, net.head_weight)
        features = _features(residual @ net.head_weight, llh)
        return self.basis, features.dot(self.maps.reshape(len(self.maps), -1).T)

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
    algorithm's pass structure. Its sum for each part is ``backward_sum`` on
    the given cache, the very call that forms a true gradient sum on those
    rows.
    """

    kind = "perfect"

    def predict_batch(self, net, cache, residuals) -> np.ndarray:
        return backward(net, cache, residuals)

    def predict_sums(self, net, parts) -> list:
        return [backward_sum(net, cache, r) for cache, r in parts]

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


def _bilinear(h: np.ndarray, llh: np.ndarray) -> np.ndarray:
    """The structured predictor's features h x [llh; 1], flattened per row."""
    return (h[..., :, None] * _augment(llh)[..., None, :]).reshape(h.shape[:-1] + (-1,))


def _features(h: np.ndarray, llh: np.ndarray) -> FactoredRows:
    """The rows of ``_bilinear`` on a batch, held as their factors h and
    [llh; 1]: their Gram matrix is (H H^T) o (A A^T), A the rows [llh; 1]."""
    return FactoredRows([(h, _augment(llh))])


def _head_sum(llh: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """[R^T A | R^T 1], R and A the rows of residual and llh: the summed head
    gradient, one row per output, without a ones column on every row. It is
    the scalar predictor's summed feature, and W_a^T times it the structured
    one's, vec(H^T [A 1]) with H = R W_a: formed in that order, the product
    over the rows costs C/D of H^T [A 1]'s. It is also the head part of the
    gradient sum, as ``network.gradient_sum`` forms it."""
    residual, llh = residual.reshape(-1, residual.shape[-1]), llh.reshape(-1, llh.shape[-1])
    return np.concatenate([residual.T @ llh, residual.sum(axis=0)[:, None]], axis=1)


def _part_sums(trunk: np.ndarray, heads) -> list:
    """One flat gradient sum per part, from the parts' trunk sums (the
    columns of trunk) and their ``_head_sum`` results."""
    return [np.concatenate([t, hs[:, :-1].ravel(), hs[:, -1]])
            for t, hs in zip(trunk.T, heads)]


def _default_lambda(sq_norms: np.ndarray) -> float:
    """1e-6 times the mean squared feature norm, from the rows' squared norms."""
    return 1e-6 * float(np.mean(sq_norms))


def trunk_alignment(p, net, cache, residuals, trunk: FactoredRows) -> AlignmentStats:
    """The trunk-only alignment statistics of a learned predictor ``p`` on a
    pass, against the true trunk rows ``trunk`` (``network.trunk_rows`` of
    that pass), from the moments: with the predicted rows C B^T
    (``trunk_factors``), sum ||h||^2 = sum c^T (B^T B) c,
    sum <g, h> = sum (G B) o C, and the row sums are G^T 1 and B (C^T 1).
    No row of either side is formed."""
    basis, coeffs = p.trunk_factors(net, cache, residuals)
    n = len(coeffs)
    return moment_stats(n, trunk.sq_norms().sum(),
                        np.einsum("ik,ik->", coeffs @ (basis.T @ basis), coeffs),
                        np.einsum("ik,ik->", trunk.dot(basis), coeffs),
                        trunk.t_dot(np.ones((n, 1)))[:, 0], basis @ coeffs.sum(axis=0))


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
    return rows if n == len(keep) else FitRows(*(a[keep] for a in rows))


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
        lam = _default_lambda(np.einsum("ij,ij->i", feats, feats))
    coef_t = solve_ridge(feats, rows.trunk_grad, lam)
    return ScalarPredictor(coef=coef_t.T, n_fit=len(feats), ridge_lambda=float(lam))


def _scalar_inputs(p: ScalarPredictor, llh, residual):
    llh = np.asarray(llh, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != llh.shape[:-1] + (1,):
        raise DimensionError("scalar predictor requires one scalar residual per row")
    if llh.shape[-1] + 1 != p.coef.shape[1]:
        raise DimensionError(
            f"activation dim {llh.shape[-1]} does not match predictor "
            f"({p.coef.shape[1] - 1})")
    return llh, residual


def predict_scalar(p: ScalarPredictor, llh, residual) -> np.ndarray:
    """Predicted flat gradient rows for scalar-output examples: the head part
    is the exact closed form, the trunk part applies the learned matrix to
    the head gradient [llh; 1] r."""
    llh, residual = _scalar_inputs(p, llh, residual)
    trunk = (_augment(llh) * residual) @ p.coef.T
    return gradient_rows(trunk, llh, residual)


def fit_structured(rows: FitRows, r: int | None = None,
                   lam: float | None = None) -> StructuredPredictor:
    """Fit the basis + bilinear-coefficient predictor.

    The basis is the top-r left singular subspace of the trunk gradients;
    per-row coefficient targets are the basis projections U^T g, regressed
    on the bilinear features h x [llh; 1] with one shared ridge solve for
    all r outputs. With r = None the rank is chosen by the 99%
    squared-singular-mass rule, capped at D, from the singular values of
    the same factorization that gives the basis. The projections are read
    off that factorization too: with G = V S U^T, G U_r = V_r S_r. The
    features go to ``solve_ridge`` as their factors, and so do trunk
    gradients given as ``FactoredRows`` to ``truncated_svd``: with fewer
    rows than columns neither is formed.
    """
    rows = _usable(rows)
    (n, d), p_t = rows.llh.shape, rows.trunk_grad.shape[1]
    if r is not None and r > min(n, p_t):
        raise DimensionError(
            f"rank {r} exceeds min(samples, trunk size) = {min(n, p_t)}")

    v, sing, ut = truncated_svd(rows.trunk_grad,
                                partial(choose_rank, cap=d) if r is None else r)
    r = len(sing)
    # contiguous, as a checkpoint restores it, so a resumed run's products
    # give the same bits
    basis = np.ascontiguousarray(ut.T)
    coef_targets = v * sing  # (n, r), row i = U^T g_i

    feats = _features(rows.h, rows.llh)
    if lam is None:
        lam = _default_lambda(feats.sq_norms())
        if lam <= 0:
            raise InsufficientData("all bilinear features vanish; nothing to fit")
    weights = solve_ridge(feats, coef_targets, lam)  # (D(D+1), r)
    maps = np.ascontiguousarray(weights.T.reshape(r, d, d + 1))
    return StructuredPredictor(basis=basis, maps=maps, rank=int(r),
                               n_fit=n, ridge_lambda=float(lam))


def _structured_inputs(p: StructuredPredictor, llh, residual, head_weight):
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
    return llh, residual


def predict_structured(p: StructuredPredictor, llh, residual,
                       head_weight: np.ndarray) -> np.ndarray:
    """Predicted flat gradient rows from the structured predictor.

    Exact head part; trunk part U c with c_i = [llh; 1]^T S_i^T (W_a^T r).
    Works identically for regression and classification residuals.
    """
    llh, residual = _structured_inputs(p, llh, residual, head_weight)
    coeffs = _bilinear(residual @ head_weight, llh) @ p.maps.reshape(len(p.maps), -1).T
    return gradient_rows(coeffs @ p.basis.T, llh, residual)
