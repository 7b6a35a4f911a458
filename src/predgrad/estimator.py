"""The debiased estimator: mini-batch splitting, the combination, alignment
statistics and the estimator's variance.

``combine`` is the one statement of the combined mini-batch gradient; the
trainer and the Monte Carlo verifier both call it. Its variance relative to
the vanilla mini-batch gradient is governed entirely by the alignment rho
and scale ratio kappa between per-example true and predicted gradients,
through the inflation factor phi (``variance_inflation``).
``alignment_stats`` measures rho and kappa on rows of true and predicted
gradients; ``moment_stats`` gives the same statistics from the rows' raw
moments, for rows held as factors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ControlBatchEmpty, DimensionError, DomainError, InsufficientData


@dataclass(frozen=True)
class BatchSplit:
    control: np.ndarray      # positions within the mini-batch, size m_c
    f: float                 # requested control fraction
    m: int                   # the other m - m_c positions are prediction rows

    @property
    def m_c(self) -> int:
        return len(self.control)

    @property
    def f_effective(self) -> float:
        """Realized control fraction m_c / m (differs from f after rounding)."""
        return self.m_c / self.m


@dataclass
class AlignmentStats:
    sigma_g: float
    sigma_h: float
    tau: float
    rho: float
    kappa: float
    n: int
    mu: np.ndarray | None = None
    mu_h: np.ndarray | None = None
    degenerate: bool = False


def control_batch_size(m: int, f: float) -> int:
    """Control micro-batch size round(f*m)."""
    if not 0.0 < f <= 1.0:
        raise DomainError(f"control fraction must be in (0,1], got {f}")
    m_c = int(np.rint(f * m))
    if m_c < 1:
        raise ControlBatchEmpty(
            f"round(f*m) = 0 for f={f}, m={m}; control micro-batch would be empty")
    return m_c


def split_minibatch(m: int, f: float, rng: np.random.Generator) -> BatchSplit:
    """Uniformly random split of 0..m-1 into control and prediction
    micro-batches with m_c = round(f*m), given by the sorted control
    positions. With f = 1 the prediction side is empty."""
    m_c = control_batch_size(m, f)
    perm = rng.permutation(m)
    return BatchSplit(control=np.sort(perm[:m_c]), f=float(f), m=int(m))


def combine(s_pred, s_ctrl_true, s_ctrl_pred, m_c: int, m: int):
    """The debiased mini-batch gradient from three row sums over a split
    batch of m rows, m_c of them control rows: ``s_pred`` sums the predicted
    gradients of all m rows, ``s_ctrl_true`` and ``s_ctrl_pred`` the true and
    predicted gradients of the control rows. With h the batch mean of the
    predictions and g_c, h_c, h_p the block means of the true control,
    predicted control and predicted prediction rows, f = m_c / m,

        G = h + (g_c - h_c) = g_c + (1 - f) (h_p - h_c):

    the mean prediction plus its mean error on the control rows, unbiased
    for the mean gradient whatever the predictions. Equal control sums make
    the correction exactly zero and G = s_pred / m to the bit.
    """
    return s_pred / m + (s_ctrl_true - s_ctrl_pred) / m_c


def alignment_stats(gs, hs) -> AlignmentStats:
    """Sample moments of per-example true gradients ``gs`` and predicted
    gradients ``hs``, both (n, P) with row i of each from example i.

    Population-style moments (divide by n): sigma_g^2 = mean ||g - mu||^2,
    sigma_h^2 likewise, tau = mean <g - mu, h - mu_h>. rho and kappa are the
    derived alignment and scale quantities; a vanishing sigma makes the pair
    degenerate: rho is reported as 0 with the flag set, and kappa as
    sigma_h / sigma_g, or 0 when sigma_g vanishes.
    """
    gs = np.asarray(gs, dtype=np.float64)
    hs = np.asarray(hs, dtype=np.float64)
    if gs.ndim != 2 or gs.shape != hs.shape:
        raise DimensionError(
            f"need two (n, P) arrays of one shape, got {gs.shape} and {hs.shape}")
    n = _pair_count(gs.shape[0])
    mu = gs.mean(axis=0)
    mu_h = hs.mean(axis=0)
    du = gs - mu
    dv = hs - mu_h
    return _stats(n, float(np.einsum("ij,ij->", du, du)) / n,
                  float(np.einsum("ij,ij->", dv, dv)) / n,
                  float(np.einsum("ij,ij->", du, dv)) / n, mu, mu_h)


def moment_stats(n: int, gg: float, hh: float, gh: float, g_sum, h_sum) -> AlignmentStats:
    """``alignment_stats`` of n pairs from their raw moments, for rows that
    are never formed: gg = sum ||g_i||^2, hh = sum ||h_i||^2,
    gh = sum <g_i, h_i>, and the row sums ``g_sum`` and ``h_sum``. Then
    n sigma_g^2 = gg - ||g_sum||^2 / n, n sigma_h^2 and n tau likewise. The
    subtraction costs about eps (||mu|| / sigma)^2 of relative precision, so
    it matches the centred form closely unless the mean dwarfs the spread;
    a variance that rounding takes below 0 is 0.
    """
    n = _pair_count(n)
    g_sum = np.asarray(g_sum, dtype=np.float64)
    h_sum = np.asarray(h_sum, dtype=np.float64)
    var_g = max(0.0, float(gg) - float(g_sum @ g_sum) / n) / n
    var_h = max(0.0, float(hh) - float(h_sum @ h_sum) / n) / n
    tau = (float(gh) - float(g_sum @ h_sum) / n) / n
    return _stats(n, var_g, var_h, tau, g_sum / n, h_sum / n)


def _pair_count(n) -> int:
    if n < 2:
        raise InsufficientData(f"need at least 2 pairs, got {n}")
    return int(n)


def _stats(n, var_g, var_h, tau, mu, mu_h) -> AlignmentStats:
    sigma_g = float(np.sqrt(var_g))
    sigma_h = float(np.sqrt(var_h))
    degenerate = sigma_g == 0.0 or sigma_h == 0.0
    if degenerate:
        rho = 0.0
        kappa = sigma_h / sigma_g if sigma_g > 0 else 0.0
    else:
        rho = min(1.0, max(-1.0, tau / (sigma_g * sigma_h)))
        kappa = sigma_h / sigma_g
    return AlignmentStats(sigma_g=sigma_g, sigma_h=sigma_h, tau=tau, rho=rho,
                          kappa=kappa, n=n, mu=mu, mu_h=mu_h, degenerate=degenerate)


def variance_inflation(f: float, rho: float, kappa: float) -> float:
    """phi(f, rho, kappa) = (1 + (1-f) kappa^2 - 2 (1-f) rho kappa) / f."""
    if f <= 0:
        raise DomainError(f"control fraction must be positive, got {f}")
    if f > 1:
        raise DomainError(f"control fraction must be <= 1, got {f}")
    return (1.0 + (1.0 - f) * kappa * kappa - 2.0 * (1.0 - f) * rho * kappa) / f


def v2_exact(sigma_g: float, sigma_h: float, tau: float, f: float, m: int) -> float:
    """Exact per-iteration variance E||G - mu||^2 of the debiased estimator
    for per-example moments sigma_g, sigma_h and tau (see ``alignment_stats``):
    sigma_g^2 phi(f, rho, kappa) / m, which is
    (sigma_g^2 + (1-f) sigma_h^2 - 2 (1-f) tau) / (f m). A prediction that
    does not vary (sigma_h = 0) has rho = 0."""
    if not 0.0 < f < 1.0:
        raise DomainError(f"v2_exact needs 0 < f < 1, got {f}")
    if m < 2:
        raise DomainError(f"mini-batch size must be >= 2, got {m}")
    if sigma_g <= 0 or sigma_h < 0:
        raise DomainError(f"need sigma_g > 0 and sigma_h >= 0, got {sigma_g}, {sigma_h}")
    rho = tau / (sigma_g * sigma_h) if sigma_h > 0 else 0.0
    return sigma_g ** 2 * variance_inflation(f, rho, sigma_h / sigma_g) / m
