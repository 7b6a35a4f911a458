"""Formed-row references that the tests check predgrad's sum paths against.

Training needs only sums over rows: ``network.trunk_rows`` summed,
``network.head_sum`` and a predictor's ``predict_sums``, and the alignment
statistics come from raw moments (``estimator.moment_stats``). These
functions form the rows themselves, one flat gradient per example, so a
test can sum them, or take their centred moments, and compare;
``pass_rows`` gives a pass's rows as the ``FitRows`` a step hands its ring,
and ``set_params`` writes a network's parameters as an update does.
"""

import numpy as np

from predgrad.errors import DimensionError, InsufficientData
from predgrad.linalg import FactoredRows
from predgrad.network import _checked_residual, _trunk_walk, trunk_rows
from predgrad.predictor import FitRows, _bilinear


def set_params(net, theta) -> None:
    """Write theta into the network's parameter buffer as a step's update
    does: in place, then a version bump."""
    net.params[...] = theta
    net.version += 1


def factored(a: np.ndarray) -> FactoredRows:
    """A dense (n, p) matrix as ``FactoredRows``: one block whose second
    factor has no columns, so that its rows are A's exactly."""
    return FactoredRows([(a, np.empty((len(a), 0)))])


def pass_rows(net, cache, residuals) -> FitRows:
    """The ``FitRows`` of a pass: its last hidden activations, residuals and
    true trunk rows, with the net's head weight."""
    return FitRows(cache.act[-1], residuals, net.head_weight, trunk_rows(net, cache, residuals))


def factored_rows(blocks) -> np.ndarray:
    """The rows of ``FactoredRows`` blocks formed one example at a time:
    each block's outer product U_i V_i^T, raveled, then U_i."""
    return np.array([np.concatenate([part for u, v in blocks
                                     for part in (np.outer(u[i], v[i]).ravel(), u[i])])
                     for i in range(len(blocks[0][0]))])


def gradient_rows(trunk_grad: np.ndarray, llh: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Flat-layout gradient rows from trunk gradient rows and the exact head
    gradient residual x [llh; 1]."""
    lead = residual.shape[:-1]
    c, d = residual.shape[-1], llh.shape[-1]
    head_w = (residual[..., :, None] * llh[..., None, :]).reshape(lead + (c * d,))
    return np.concatenate([trunk_grad, head_w, residual], axis=-1)


def backward(net, cache, residual: np.ndarray) -> np.ndarray:
    """Exact gradient rows (..., n_params) in the flat layout, from a forward
    cache and the output-space residual.

    The head part is residual x [llh; 1]; the trunk part backpropagates
    W_a^T residual through the cached trunk, each layer's weight gradient
    being the outer product of its pre-activation gradient and its input:
    the rows of ``network.trunk_rows``, formed.
    """
    residual = _checked_residual(net, cache, residual)
    lead = residual.shape[:-1]
    layers = [(dz.reshape(-1, dz.shape[-1]), a_prev.reshape(-1, a_prev.shape[-1]))
              for dz, a_prev in _trunk_walk(net, cache, residual)]
    trunk = FactoredRows(layers[::-1]).dense()
    return gradient_rows(trunk.reshape(lead + (net.config.trunk_size,)), cache.act[-1], residual)


def predict_structured(p, llh, residual, head_weight: np.ndarray) -> np.ndarray:
    """Predicted flat gradient rows from the structured predictor.

    Exact head part; trunk part U c with c_k = r^T (W_a Q) Y_k [llh; 1], the
    maps S_k = Q Y_k in factored form. Works for any residual, of one
    example or of a batch.
    """
    llh, residual = np.asarray(llh, dtype=np.float64), np.asarray(residual, dtype=np.float64)
    maps = p.maps.reshape(len(p.maps), -1)
    coeffs = _bilinear(residual @ head_weight @ p.head_q, llh) @ maps.T
    return gradient_rows(coeffs @ p.basis.T, llh, residual)


def alignment_stats(gs, hs):
    """The alignment rho and scale ratio kappa of per-example true gradients
    ``gs`` and predicted gradients ``hs``, both (n, P) with row i of each
    from example i, from their centred moments: what ``moment_stats`` gives
    from raw moments.

    Population-style moments (divide by n): sigma_g^2 = mean ||g - mu||^2,
    sigma_h^2 likewise, tau = mean <g - mu, h - mu_h>; rho is
    tau / (sigma_g sigma_h), clipped to [-1, 1], and kappa sigma_h / sigma_g,
    both NaN when sigma_g or sigma_h is 0.
    """
    gs = np.asarray(gs, dtype=np.float64)
    hs = np.asarray(hs, dtype=np.float64)
    if gs.ndim != 2 or gs.shape != hs.shape:
        raise DimensionError(
            f"need two (n, P) arrays of one shape, got {gs.shape} and {hs.shape}")
    n = gs.shape[0]
    if n < 2:
        raise InsufficientData(f"need at least 2 pairs, got {n}")
    du = gs - gs.mean(axis=0)
    dv = hs - hs.mean(axis=0)
    sigma_g = float(np.sqrt(np.einsum("ij,ij->", du, du) / n))
    sigma_h = float(np.sqrt(np.einsum("ij,ij->", dv, dv) / n))
    if sigma_g == 0.0 or sigma_h == 0.0:
        return float("nan"), float("nan")
    tau = float(np.einsum("ij,ij->", du, dv)) / n
    return min(1.0, max(-1.0, tau / (sigma_g * sigma_h))), sigma_h / sigma_g
