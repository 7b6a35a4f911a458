"""The debiased estimator: the control batch size, the combination,
alignment statistics and the estimator's variance.

``combine`` is the one statement of the combined mini-batch gradient; the
trainer and the Monte Carlo verifier both call it, on control rows drawn
uniformly and independently of the predictions. Its variance relative to
the vanilla mini-batch gradient is governed entirely by the alignment rho
and scale ratio kappa between per-example true and predicted gradients,
through the inflation factor phi (``variance_inflation``). ``moment_stats``
measures rho and kappa from the raw moments of rows of true and predicted
gradients, so rows held as factors need not be formed.
"""

import numpy as np

from .errors import ControlBatchEmpty, DomainError, InsufficientData


def control_batch_size(m: int, f: float) -> int:
    """Control micro-batch size round(f*m)."""
    if not 0.0 < f <= 1.0:
        raise DomainError(f"control fraction must be in (0,1], got {f}")
    m_c = int(np.rint(f * m))
    if m_c < 1:
        raise ControlBatchEmpty(
            f"round(f*m) = 0 for f={f}, m={m}; control micro-batch would be empty")
    return m_c


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

    The three sums share one shape and are left unchanged. The result is
    evaluated as (s_ctrl_true - s_ctrl_pred) / m_c + s_pred / m, the
    difference divided in place and s_pred / m added into it: a call
    allocates two arrays, and as addition commutes exactly the bits are
    those of s_pred / m + (s_ctrl_true - s_ctrl_pred) / m_c.
    """
    out = s_ctrl_true - s_ctrl_pred
    out /= m_c
    out += s_pred / m
    return out


def moment_stats(n: int, gg: float, hh: float, gh: float, g_sum, h_sum) -> tuple[float, float]:
    """The alignment rho and scale ratio kappa of n pairs of true gradients
    g_i and predicted gradients h_i, from their raw moments, for rows that
    are never formed: gg = sum ||g_i||^2, hh = sum ||h_i||^2,
    gh = sum <g_i, h_i>, and the row sums ``g_sum`` and ``h_sum``.

    With population-style moments (divide by n), sigma_g^2 = mean
    ||g - mu||^2, sigma_h^2 likewise and tau = mean <g - mu, h - mu_h>,
    rho = tau / (sigma_g sigma_h), clipped to [-1, 1], and
    kappa = sigma_h / sigma_g; both are NaN when sigma_g or sigma_h is 0.

    Here n sigma_g^2 = gg - ||g_sum||^2 / n, and n sigma_h^2 and n tau
    likewise. The subtraction costs about eps (||mu|| / sigma)^2 of relative
    precision, so it matches the centred form closely unless the mean dwarfs
    the spread; a variance that rounding takes below 0 is 0.
    """
    if n < 2:
        raise InsufficientData(f"need at least 2 pairs, got {n}")
    sigma_g = float(np.sqrt(max(0.0, float(gg) - float(g_sum @ g_sum) / n) / n))
    sigma_h = float(np.sqrt(max(0.0, float(hh) - float(h_sum @ h_sum) / n) / n))
    if sigma_g == 0.0 or sigma_h == 0.0:
        return float("nan"), float("nan")
    tau = (float(gh) - float(g_sum @ h_sum) / n) / n
    return min(1.0, max(-1.0, tau / (sigma_g * sigma_h))), sigma_h / sigma_g


def variance_inflation(f: float, rho: float, kappa: float) -> float:
    """phi(f, rho, kappa) = (1 + (1-f) kappa^2 - 2 (1-f) rho kappa) / f; NaN passes."""
    if not 0.0 < f <= 1.0:
        raise DomainError(f"control fraction must be in (0,1], got {f}")
    if abs(rho) > 1.0 or kappa < 0.0:
        raise DomainError(f"need |rho| <= 1 and kappa >= 0, got rho {rho}, kappa {kappa}")
    return (1.0 + (1.0 - f) * kappa * kappa - 2.0 * (1.0 - f) * rho * kappa) / f


def v2_exact(sigma_g: float, sigma_h: float, tau: float, f: float, m: int) -> float:
    """Exact per-iteration variance E||G - mu||^2 of the debiased estimator
    for per-example moments sigma_g, sigma_h and tau (see ``moment_stats``):
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
