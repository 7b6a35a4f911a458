"""Mini-batch splitting, alignment statistics and the estimator's variance.

The combined mini-batch gradient is

    G = f * g_c_true + (1-f) * (g_pred - (g_c_pred - g_c_true)),

algebraically equal to g_c_true + (1-f) * (g_pred - g_c_pred); the trainer
evaluates it in sum space (see ``_batch_predicted`` in trainer.py). Its
variance relative to the vanilla mini-batch gradient is governed entirely by
the alignment rho and scale ratio kappa between per-example true and
predicted gradients, through the inflation factor phi.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (ControlBatchEmpty, DegenerateStats, DimensionError,
                     DomainError, InsufficientData)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchSplit:
    control: np.ndarray      # positions within the mini-batch, size m_c
    prediction: np.ndarray   # remaining positions, size m_p
    f: float                 # requested control fraction
    m: int

    @property
    def m_c(self) -> int:
        return len(self.control)

    @property
    def m_p(self) -> int:
        return len(self.prediction)

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


def control_batch_size(m: int, f: float, warn: bool = True) -> int:
    """Control micro-batch size round(f*m); warns when f*m is fractional."""
    if not 0.0 < f <= 1.0:
        raise DomainError(f"control fraction must be in (0,1], got {f}")
    exact = f * m
    m_c = int(np.rint(exact))
    if warn and abs(exact - m_c) > 1e-9:
        log.warning("control fraction f=%g gives fractional batch size %g; "
                    "rounding to %d", f, exact, m_c)
    if m_c < 1:
        raise ControlBatchEmpty(
            f"round(f*m) = 0 for f={f}, m={m}; control micro-batch would be empty")
    return m_c


def split_minibatch(m: int, f: float, rng: np.random.Generator) -> BatchSplit:
    """Uniformly random disjoint split of 0..m-1 into control and prediction
    micro-batches with m_c = round(f*m). With f = 1 the prediction side is
    empty."""
    m_c = control_batch_size(m, f)
    perm = rng.permutation(m)
    return BatchSplit(control=np.sort(perm[:m_c]), prediction=np.sort(perm[m_c:]),
                      f=float(f), m=int(m))


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
    n = gs.shape[0]
    if n < 2:
        raise InsufficientData(f"need at least 2 pairs, got {n}")
    mu = gs.mean(axis=0)
    mu_h = hs.mean(axis=0)
    du = gs - mu
    dv = hs - mu_h
    var_g = float(np.einsum("ij,ij->", du, du)) / n
    var_h = float(np.einsum("ij,ij->", dv, dv)) / n
    tau = float(np.einsum("ij,ij->", du, dv)) / n
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


def moments_from_values(sigma_g: float, sigma_h: float, tau: float) -> AlignmentStats:
    """AlignmentStats directly from specified second moments (no samples)."""
    if sigma_g < 0 or sigma_h < 0:
        raise DomainError("sigma values must be nonnegative")
    degenerate = sigma_g == 0.0 or sigma_h == 0.0
    rho = 0.0 if degenerate else min(1.0, max(-1.0, tau / (sigma_g * sigma_h)))
    kappa = sigma_h / sigma_g if sigma_g > 0 else 0.0
    return AlignmentStats(sigma_g=sigma_g, sigma_h=sigma_h, tau=tau, rho=rho,
                          kappa=kappa, n=0, degenerate=degenerate)


def variance_inflation(f: float, rho: float, kappa: float) -> float:
    """phi(f, rho, kappa) = (1 + (1-f) kappa^2 - 2 (1-f) rho kappa) / f."""
    if f <= 0:
        raise DomainError(f"control fraction must be positive, got {f}")
    if f > 1:
        raise DomainError(f"control fraction must be <= 1, got {f}")
    return (1.0 + (1.0 - f) * kappa * kappa - 2.0 * (1.0 - f) * rho * kappa) / f


def v2_exact(stats: AlignmentStats, f: float, m: int) -> float:
    """Exact per-iteration variance of the debiased estimator:
    (1/(f m)) (sigma_g^2 + (1-f) sigma_h^2 - 2 (1-f) tau)."""
    if not 0.0 < f < 1.0:
        raise DomainError(f"v2_exact needs 0 < f < 1, got {f}")
    if m < 2:
        raise DomainError(f"mini-batch size must be >= 2, got {m}")
    if stats.degenerate or stats.sigma_g <= 0:
        raise DegenerateStats("sigma_g must be positive for the variance formula")
    var_g = stats.sigma_g ** 2
    var_h = stats.sigma_h ** 2
    return (var_g + (1.0 - f) * var_h - 2.0 * (1.0 - f) * stats.tau) / (f * m)
