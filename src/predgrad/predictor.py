"""Linear gradient predictors for the trunk parameters.

The head gradient has the closed form residual x [a(x); 1] and is not
predicted: the trainer adds its exact sum (``network.head_sum``). The trunk
gradient is approximated by one of two learned linear structures, both for
any output width, through the residual alone:

* feedback variant: trunk layer l's pre-activation gradient is predicted
  as B_l r from the residual r, B_l a fitted d_l x C matrix, so its weight
  and bias gradients are B_l r x [a_{l-1}; 1], a_{l-1} its exact input:
  direct feedback alignment (Nokland 2016, arXiv:1609.01596) with fitted
  feedback matrices in place of random ones, or a linear synthetic gradient
  (Jaderberg et al. 2017, arXiv:1608.05343) whose bias the control variate
  removes.
* structured variant, the paper's: an orthonormal basis U for the span of
  observed trunk gradients plus per-basis-direction bilinear maps S_k, kept
  factored as S_k = Q Y_k: Q (D x q) an orthonormal basis of range(W_a^T)
  at the fit, q = min(C, D), and Y_k q x (D+1). The coefficient of
  direction k is r^T (W_a Q) Y_k [a(x); 1], which reads q/D of S_k.

``FitRows`` are the rows a run keeps of its true gradients: last hidden
activations, residuals and true trunk gradients, one row per example, and
the head weight W_a; the trunk gradients come as ``network.trunk_rows``'
layer factors, pre-activation gradients Dz and inputs A_prev. Both fits
read them, by ridge least squares at a lambda that follows from the rows,
1e-6 times the mean squared regressor norm, and at a rank that follows
from the singular values (``choose_rank``). The feedback fit regresses all
layers' Dz on the residuals in one C x C solve. The structured fit takes
its basis, where the trunk gradients have more columns than rows, from
their Gram matrix, the sum over trunk layers of (Dz Dz^T) o (A~ A~^T),
A~ = [A_prev 1]: the trunk's empirical tangent kernel. Its features
h x [a; 1], h = W_a^T r, lie in range(W_a^T) x R^(D+1), and it ridge-fits
the maps Y_k on their coordinates there, from a thin QR of W_a^T.
``trunk_alignment`` measures a learned predictor on ``FitRows`` it has not
seen, from the moments of their true and predicted trunk rows, formed from
their factors. A third, diagnostic predictor returns the exact trunk
gradient.

Every predictor has a ``kind`` name, ``predict_sums(net, parts)`` taking a
list of ``(cache, residuals[, head_sum])`` parts and returning, for each,
the sum of its rows' predicted trunk gradients (length P_T) without forming
them; the learned ones also have ``trunk_moments(net, rows)`` for
``trunk_alignment``. Each is a dataclass, whose fields a run checkpoint
stores, checked on load against ``shapes(ncfg)``, the array fields' shapes
on a net. ``PREDICTORS`` maps each kind to its class.
``FeedbackPredictor.trunk_rows(net, rows)`` gives the feedback predictor's
rows as factors, which formed are its row reference; the structured one's,
the maps Y_k applied to the formed features ((W_a Q)^T r) x [a; 1], is kept
with the tests. A learned ``predict_sums`` sums each part's rows first,
through the summed head gradients ``network.head_sum`` of its layer inputs
(feedback) or last hidden activations (structured, which stacks the parts'
(W_a Q)^T R^T [A 1] as columns and reads U and Y once per call, through
``few_column_product``, and reads a part's ``head_sum`` where the caller
gives it).
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InsufficientData
from .estimator import moment_stats
from .linalg import FactoredRows, few_column_product, solve_ridge, truncated_svd
from .network import gradient_sum, head_sum, trunk_rows

RESIDUAL_FLOOR = 1e-8   # rows with smaller residuals carry no fit signal
ENERGY_TARGET = 0.99    # rank rule: 99% of squared singular mass


class FitRows(NamedTuple):
    """True-gradient rows, one per example, and the head weight: what a step
    gives its run's ring, and what the ring gives a fit and a measurement.
    The first factors of ``trunk_grad``'s blocks are the layers' Dz, the
    second their inputs, x first."""
    llh: np.ndarray             # (n, D)
    residual: np.ndarray        # (n, C)
    head_weight: np.ndarray     # (C, D) W_a
    trunk_grad: FactoredRows    # (n, P_T) true trunk gradients, as network.trunk_rows

    def rows(self, idx) -> "FitRows":
        """The rows ``idx`` (a slice, an index array or a boolean mask)."""
        return FitRows(self.llh[idx], self.residual[idx], self.head_weight,
                       self.trunk_grad[idx])


@dataclass(frozen=True)
class RefitPolicy:
    """When a learned predictor is refitted and on how many rows. Its ridge
    lambda and rank are not policies: every fit takes them from its rows."""
    period: int = 50
    buffer_capacity: int = 256          # rows in the ring of recent rows each fit reads

    def __post_init__(self):
        if self.period < 1:
            raise ConfigError(f"refit period must be >= 1, got {self.period}")
        if self.buffer_capacity < 2:
            raise ConfigError("buffer capacity (rows per fit) must be >= 2")


@dataclass
class FeedbackPredictor:
    b: np.ndarray           # (sum of trunk widths, C): the B_l stacked, first layer first
    n_fit: int = 0
    ridge_lambda: float = 0.0

    kind = "feedback"

    def _layers(self, net, inputs):
        """(B_l, a_{l-1}) for each trunk layer, first layer first, from its inputs."""
        return list(zip(np.split(self.b, np.cumsum(net.config.hidden_widths)[:-1]), inputs))

    def shapes(self, ncfg) -> dict:
        return {"b": (sum(ncfg.hidden_widths), ncfg.output_dim)}

    def _sum(self, net, inputs, r):
        # layer l's sum B_l [R^T A | R^T 1], A its inputs, is laid out as a head sum
        return np.concatenate([gradient_sum(np.empty(0), b @ head_sum(a_prev, r))
                               for b, a_prev in self._layers(net, inputs)])

    def predict_sums(self, net, parts) -> list:
        return [self._sum(net, [cache.x, *cache.act[:-1]], r) for cache, r, *_ in parts]

    def trunk_rows(self, net, rows: FitRows) -> FactoredRows:
        """The predicted trunk rows on ``rows``, as the factors (R B_l^T, A_prev)
        of ``network.trunk_rows``' layout; formed, they are the row reference."""
        return FactoredRows([(rows.residual @ b.T, a_prev) for b, a_prev
                             in self._layers(net, [v for _, v in rows.trunk_grad.blocks])])

    def trunk_moments(self, net, rows: FitRows):
        h = self.trunk_rows(net, rows)
        return (h.row_dots(h).sum(), rows.trunk_grad.row_dots(h).sum(),
                self._sum(net, [v for _, v in rows.trunk_grad.blocks], rows.residual))


@dataclass
class StructuredPredictor:
    basis: np.ndarray       # (P_T, r), orthonormal columns U
    head_q: np.ndarray      # (D, q), orthonormal columns Q: the fit's range(W_a^T)
    maps: np.ndarray        # (r, q, D+1), Y: map k is S_k = Q Y_k, kept factored
    rank: int
    n_fit: int = 0
    ridge_lambda: float = 0.0

    kind = "structured"

    def shapes(self, ncfg) -> dict:
        d, q, r = ncfg.last_hidden, min(ncfg.last_hidden, ncfg.output_dim), self.rank
        return {"basis": (ncfg.trunk_size, r), "head_q": (d, q), "maps": (r, q, d + 1)}

    def predict_sums(self, net, parts) -> list:
        # (W_a Q)^T [R^T A | R^T 1] is Q^T H^T [A 1], H = R W_a, without forming H
        wq = net.head_weight @ self.head_q
        heads = [head[0] if head else head_sum(cache.act[-1], r) for cache, r, *head in parts]
        features = np.concatenate([(wq.T @ head).reshape(-1, 1) for head in heads], axis=1)
        coeffs = few_column_product(self.maps.reshape(len(self.maps), -1), features)
        return list(few_column_product(self.basis, coeffs).T)

    def trunk_moments(self, net, rows: FitRows):
        # the predicted rows are C U^T, c_ik = r_i^T (W_a Q Y_k) [a_i; 1]: sum
        # ||h||^2 is sum c^T (U^T U) c and sum <g, h> is sum (G U) o C
        basis, maps = self.basis, np.matmul(net.head_weight @ self.head_q, self.maps)
        coeffs = _bilinear(rows.residual, rows.llh) @ maps.reshape(len(maps), -1).T
        return (np.einsum("ik,ik->", coeffs @ (basis.T @ basis), coeffs),
                np.einsum("ik,ik->", rows.trunk_grad.dot(basis), coeffs),
                basis @ coeffs.sum(axis=0))


@dataclass
class PerfectPredictor:
    """Diagnostic predictor that returns the exact trunk gradient.

    Used to exercise the algebraic identity G = mean gradient when
    predictions are perfect; cost accounting still charges the predicted
    algorithm's pass structure. Its sum for each part is ``trunk_rows``
    summed on the given cache, the very call that forms a true trunk sum on
    those rows.
    """

    kind = "perfect"

    def shapes(self, ncfg) -> dict:
        return {}

    def predict_sums(self, net, parts) -> list:
        return [trunk_rows(net, cache, r).sum() for cache, r, *_ in parts]


PREDICTORS = {p.kind: p for p in (FeedbackPredictor, StructuredPredictor, PerfectPredictor)}


def should_refit(policy: RefitPolicy, step: int) -> bool:
    """Refit after every period-th completed step, never at step 0."""
    if step < 0:
        raise ConfigError(f"step must be nonnegative, got {step}")
    return step > 0 and step % policy.period == 0


def choose_rank(singulars: np.ndarray, cap: int) -> int:
    """Smallest rank capturing ENERGY_TARGET of the squared singular mass,
    capped (the structured fit's cap is the activation width D)."""
    sq = np.asarray(singulars, dtype=np.float64) ** 2
    total = sq.sum()
    if total <= 0:
        return 1
    frac = np.cumsum(sq) / total
    r = int(np.searchsorted(frac, ENERGY_TARGET) + 1)
    return max(1, min(r, cap, len(sq)))


def _augment(llh: np.ndarray) -> np.ndarray:
    """[llh; 1] for each row of llh."""
    return np.concatenate([llh, np.ones(llh.shape[:-1] + (1,))], axis=-1)


def _bilinear(h: np.ndarray, llh: np.ndarray) -> np.ndarray:
    """The structured predictor's features h x [llh; 1], flattened per row."""
    return (h[..., :, None] * _augment(llh)[..., None, :]).reshape(h.shape[:-1] + (-1,))


def _default_lambda(sq_norms: np.ndarray) -> float:
    """1e-6 times the mean squared regressor norm, from the rows' squared norms."""
    return 1e-6 * float(np.mean(sq_norms))


def trunk_alignment(p, net, rows: FitRows) -> tuple[float, float]:
    """The trunk-only alignment (rho, kappa) of a learned predictor ``p`` on
    ``rows``, against their true trunk rows, from the moments
    (``estimator.moment_stats``): sum ||g||^2 and the row sum G^T 1 from
    ``rows.trunk_grad``, and sum ||h||^2, sum <g, h> and the predicted rows'
    sum from ``p.trunk_moments``. No row of either side is formed."""
    trunk, n = rows.trunk_grad, len(rows.llh)
    hh, gh, h_sum = p.trunk_moments(net, rows)
    return moment_stats(n, trunk.row_dots(trunk).sum(), hh, gh,
                        trunk.t_dot(np.ones((n, 1)))[:, 0], h_sum)


def fit_minimum(kind: str, c: int, d: int) -> tuple[str, int]:
    """(name, count): the usable rows a fit of the learned ``kind`` needs on
    a net of output width C = ``c`` and last hidden width D = ``d``: C for
    feedback's C x C solve, D+1 for structured's basis and maps."""
    return ("C", c) if kind == "feedback" else ("D+1", d + 1)


def _usable(rows: FitRows, kind: str) -> FitRows:
    """The rows whose residual exceeds RESIDUAL_FLOOR, of which a fit of
    ``kind`` needs at least ``fit_minimum``; both sides of the fit share the
    residual factor, so the other rows carry no signal."""
    name, need = fit_minimum(kind, rows.residual.shape[1], rows.llh.shape[1])
    keep = np.max(np.abs(rows.residual), axis=1) > RESIDUAL_FLOOR
    n = int(keep.sum())
    if n < need:
        raise InsufficientData(f"fit needs at least {name} = {need} usable samples, got {n}")
    return rows if n == len(keep) else rows.rows(keep)


def fit_feedback(rows: FitRows) -> FeedbackPredictor:
    """Ridge fit of the feedback matrices: all trunk layers' pre-activation
    gradients, the first factors of ``rows.trunk_grad``'s blocks, regressed
    on the residuals in one solve, a C x C system whatever the widths, from
    at least C usable rows."""
    rows = _usable(rows, "feedback")
    lam = _default_lambda(np.einsum("ij,ij->i", rows.residual, rows.residual))
    dz = np.concatenate([u for u, _ in rows.trunk_grad.blocks], axis=1)
    b = solve_ridge(rows.residual, dz, lam)  # (C, sum d_l)
    return FeedbackPredictor(b=np.ascontiguousarray(b.T), n_fit=len(dz), ridge_lambda=float(lam))


def fit_structured(rows: FitRows) -> StructuredPredictor:
    """Fit the basis + bilinear-coefficient predictor.

    The basis is the top-r left singular subspace of the trunk gradients
    (``truncated_svd``, which reads ``FactoredRows`` unformed where they are
    wide), r by ``choose_rank``, capped at D. The coefficient targets U^T g,
    read off the same factorization (G = V S U^T gives G U_r = V_r S_r), are
    regressed on the bilinear features h x [llh; 1] in one ridge solve for
    all r outputs, in the head's row space: with W_a^T = Q T (thin QR,
    q = min(C, D) columns), h = Q T r, so the rows (T r) x [llh; 1] have the
    features' inner products, and their ridge solution Y (q(D+1) x r), at
    the same lambda, gives the maps S_k = Q Y_k, which the predictor keeps
    factored as Q and Y. It needs at least D+1 usable rows.
    """
    rows = _usable(rows, "structured")
    n, d = rows.llh.shape
    v, sing, ut = truncated_svd(rows.trunk_grad, partial(choose_rank, cap=d))
    r = len(sing)
    # contiguous, as a checkpoint restores it, so a resumed run's products
    # give the same bits
    basis = np.ascontiguousarray(ut.T)
    coef_targets = v * sing  # (n, r), row i = U^T g_i

    q, t = np.linalg.qr(rows.head_weight.T)
    feats = _bilinear(rows.residual @ t.T, rows.llh)
    lam = _default_lambda(np.einsum("ij,ij->i", feats, feats))
    if lam <= 0:
        raise InsufficientData("all bilinear features vanish; nothing to fit")
    weights = solve_ridge(feats, coef_targets, lam)  # (q(D+1), r)
    maps = np.ascontiguousarray(weights.T).reshape(r, -1, d + 1)
    return StructuredPredictor(basis=basis, head_q=np.ascontiguousarray(q), maps=maps,
                               rank=int(r), n_fit=n, ridge_lambda=float(lam))
