"""Break-even compute theory as executable code.

Cost model per example: Backward = 2, Forward = 1, CheapForward = 0.7 by
default, generalized to arbitrary positive costs. Writing c1 = forward +
backward for the vanilla per-example cost and A = cheap_forward / c1,
B = 1 - A, the closed forms below reduce to the default-cost constants
(A = 0.7/3, B = 2.3/3) when the defaults are used.

* gamma(f)      = (cheap + (c1 - cheap) f) / c1, the per-iteration compute
                  ratio of predicted-gradient training to vanilla.
* rho_star      = kappa/2 + cheap / (2 kappa (cheap + (c1 - cheap) f)),
                  the minimum alignment for compute parity at fixed f.
* rho_switch    = kappa/2 + A / (2 kappa), the alignment above which the
                  optimal control fraction drops below 1; both +inf at kappa 0.
* f_star        = argmin of Q(f) = phi(f, rho, kappa) * gamma(f) over (0, 1].

simulate_estimator is the Monte Carlo verifier for unbiasedness and the
exact variance formula; sweep tabulates phi, gamma, Q and break-even.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MomentError
from .estimator import combine, control_batch_size, v2_exact, variance_inflation
from .linalg import BLOCK_BYTES
from .rng import substream

@dataclass(frozen=True)
class CostModel:
    backward: float = 2.0
    forward: float = 1.0
    cheap_forward: float = 0.7

    def __post_init__(self):
        if min(self.backward, self.forward, self.cheap_forward) <= 0:
            raise DomainError("all pass costs must be positive")
        if self.cheap_forward > self.forward + self.backward:
            raise DomainError("cheap_forward must not exceed forward + backward")

    @property
    def vanilla_per_example(self) -> float:
        return self.forward + self.backward

    def predicted_per_example(self, f: float) -> float:
        return self.cheap_forward + (self.vanilla_per_example - self.cheap_forward) * f

    @property
    def cheap_share(self) -> float:
        """A = cheap_forward / (forward + backward)."""
        return self.cheap_forward / self.vanilla_per_example


def _check_f_open(f: float):
    if not 0.0 < f < 1.0:
        raise DomainError(f"control fraction must be in (0,1), got {f}")


def gamma(cm: CostModel, f: float) -> float:
    """Per-iteration compute ratio of predicted training to vanilla."""
    if not 0.0 < f <= 1.0:
        raise DomainError(f"control fraction must be in (0,1], got {f}")
    return cm.predicted_per_example(f) / cm.vanilla_per_example


def rho_star(cm: CostModel, f: float, kappa: float) -> float:
    """Break-even alignment at fixed control fraction f; NaN passes."""
    _check_f_open(f)
    if kappa < 0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0:   # the limit as kappa -> 0+: a constant prediction never pays
        return np.inf
    return kappa / 2.0 + cm.cheap_forward / (2.0 * kappa * cm.predicted_per_example(f))


def break_even_satisfied(cm: CostModel, f: float, rho: float, kappa: float) -> bool:
    """True iff phi(f, rho, kappa) * gamma(f) <= 1 (equal-budget parity)."""
    _check_f_open(f)
    return variance_inflation(f, rho, kappa) * gamma(cm, f) <= 1.0


def rho_switch(cm: CostModel, kappa: float) -> float:
    """Alignment above which the optimal control fraction moves off f = 1."""
    if kappa < 0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0:   # the limit as kappa -> 0+: f = 1 wins at every alignment
        return np.inf
    return kappa / 2.0 + cm.cheap_share / (2.0 * kappa)


def f_star(cm: CostModel, rho: float, kappa: float, f_min: float = 0.01) -> float:
    """Minimizer of Q(f) = phi * gamma over f in (0, 1].

    Below the regime-switch threshold the boundary f = 1 wins. Above it the
    interior stationary point sqrt(A a / (B b)) applies, raised to the
    smallest admissible fraction f_min when it lies below it (Q is convex in
    f). In the degenerate perfect-alignment case a = 0, Q decreases all the
    way down and f_min is returned. At kappa = 0, Q = gamma(f) / f and f = 1 wins.
    """
    if not 0.0 < f_min < 1.0:
        raise DomainError(f"f_min must be in (0,1), got {f_min}")
    if rho <= rho_switch(cm, kappa):
        return 1.0
    a = 1.0 + kappa * kappa - 2.0 * rho * kappa
    b = 2.0 * rho * kappa - kappa * kappa
    if a <= 0.0:
        return f_min
    big_a = cm.cheap_share
    big_b = 1.0 - big_a
    return min(1.0, max(f_min, float(np.sqrt(big_a * a / (big_b * b)))))


def q_objective(cm: CostModel, f: float, rho: float, kappa: float) -> float:
    """Compute-normalized variance objective Q(f) = phi(f,rho,kappa) gamma(f)."""
    if not 0.0 < f <= 1.0:
        raise DomainError(f"control fraction must be in (0,1], got {f}")
    return variance_inflation(f, rho, kappa) * gamma(cm, f)


class SimulationResult(NamedTuple):
    mean_err: float
    emp_var: float
    predicted_var: float


def simulate_estimator(sigma_g: float, sigma_h: float, tau: float, dim: int,
                       f: float, m: int, trials: int, seed: int) -> SimulationResult:
    """Monte Carlo check of ``combine`` against the exact variance ``v2_exact``.

    Per-example gradient pairs are Gaussian with the requested second
    moments, constructed as g = u and h = coef u + w, coef = tau /
    sigma_g^2, with w independent of variance sigma_h^2 - tau^2 / sigma_g^2,
    where u = su z and w = sw z' for standard normal z, z'. ``combine``
    reads three sums: of g and of h over the control block (m_c examples),
    and of h over both blocks. So each trial draws three block sums
    directly, the sum of k draws of N(0, I) being N(0, k I): the control
    sums of u and of w, which make the control sums of g and h, and the
    prediction block's sum of h (m_p examples). That last sum, coef su
    sqrt(m_p) z + sw sqrt(m_p) z', is a sum of two independent normals, so
    one normal of standard deviation sqrt((coef su)^2 + sw^2) sqrt(m_p) has
    exactly its law; nothing else reads the prediction block's u. The pairs
    have mean zero, which loses nothing: means mu of g and mu_h of h would
    enter G - mu, ``combine`` being linear, only as combine(m mu_h, m_c mu,
    m_c mu_h, m_c, m) - mu, which is zero up to rounding whatever mu_h.
    Returned are ||mean(G) - mu||, the empirical E||G - mu||^2 and the
    closed-form prediction. Moments whose prediction, or whose trials' sum
    of squared errors, is not finite in float64 raise a ``MomentError``.

    Trials run in chunks whose three drawn blocks fit ``BLOCK_BYTES``, so a
    chunk stays in a core's L2 cache and memory is bounded for any trial
    count. A call allocates one workspace of four chunk-sized blocks and
    reuses it for every chunk: the normals are drawn into three of them and
    scaled in place into the sums ``combine`` takes, and the fourth holds
    coef g_c. Blocks allocated afresh for each chunk would free more than
    glibc's trim threshold at the top of the heap when a call ends, so the
    next call would map them again and take a page fault on each page it
    first writes: about 245 minor faults in a 5000-trial call at dim 8, some
    15% of its time, where the workspace takes well under one a call once
    the allocator has seen it freed.
    """
    if sigma_g <= 0 or sigma_h < 0:
        raise MomentError(f"need sigma_g > 0 and sigma_h >= 0, got {sigma_g}, {sigma_h}")
    # squares formed with *, as a float's ** raises OverflowError; a normal
    # sigma_g^2 keeps the predicted variance sigma_g^2 phi / m, phi >= 1, above 0
    gg, hh = sigma_g * sigma_g, sigma_h * sigma_h
    if not (math.isfinite(tau) and math.isfinite(hh) and sys.float_info.min <= gg < math.inf):
        raise MomentError(f"need finite moments with finite squares, sigma_g^2 a normal "
                          f"float, got sigma_g {sigma_g}, sigma_h {sigma_h}, tau {tau}")
    if abs(tau) > sigma_g * sigma_h:
        raise MomentError(
            f"|tau| = {abs(tau)} violates the Cauchy-Schwarz bound {sigma_g * sigma_h}")
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if m < 2:
        raise DomainError(f"mini-batch size must be >= 2, got {m}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    _check_f_open(f)
    m_c = control_batch_size(m, f)
    if m_c >= m:
        raise DomainError(f"f = {f} leaves no prediction micro-batch for m = {m}")
    m_p = m - m_c
    predicted_var = v2_exact(sigma_g, sigma_h, tau, m_c / m, m)
    if not math.isfinite(predicted_var):
        raise MomentError(f"the predicted variance {predicted_var} at sigma_g {sigma_g}, "
                          f"sigma_h {sigma_h}, tau {tau} is not finite")

    su = sigma_g / np.sqrt(dim)
    coef = tau / gg
    sw = np.sqrt(max(0.0, hh - coef * tau)) / np.sqrt(dim)
    # standard deviations of the block sums of u and w, and of h on the
    # prediction block
    su_c, sw_c = su * np.sqrt(m_c), sw * np.sqrt(m_c)
    sh_p = np.sqrt((coef * su) ** 2 + sw ** 2) * np.sqrt(m_p)

    rng = substream(seed, "simulation")
    chunk = max(1, BLOCK_BYTES // (3 * 8 * dim))  # trials whose three drawn blocks fit the cache
    work = np.empty((4, min(chunk, trials), dim))
    sum_err = np.zeros(dim)
    sum_sq = 0.0
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        g_c, h_c, s_pred, scaled = work[:, :n]   # each block C-contiguous, as out= needs
        for block in (g_c, h_c, s_pred):   # the draws of standard_normal((3, n, dim))
            rng.standard_normal(out=block)
        g_c *= su_c
        h_c *= sw_c
        np.multiply(coef, g_c, out=scaled)
        h_c += scaled
        s_pred *= sh_p
        s_pred += h_c   # the prediction block's sum of h, plus the control block's
        err = combine(s_pred, g_c, h_c, m_c, m)
        # einsum adds the rows in sum(axis=0)'s order in a quarter of its time,
        # but at dim 1 sum adds the one column pairwise
        sum_err += np.einsum("ij->j", err) if dim > 1 else err.sum(axis=0)
        sum_sq += float(np.einsum("ij,ij->", err, err))
        done += n

    if not math.isfinite(sum_sq):
        raise MomentError(f"the sum of squared errors of {trials} trials at sigma_g "
                          f"{sigma_g} is not finite")
    mean_err = float(np.linalg.norm(sum_err / trials))
    return SimulationResult(mean_err, sum_sq / trials, predicted_var)


def sweep(cm: CostModel, f_values, rho_values, kappa_values) -> list:
    """The rows (f, rho, kappa, phi, gamma, Q, break_even) of a grid, kappa fastest."""
    fs = np.asarray(f_values, dtype=np.float64)
    rhos = np.asarray(rho_values, dtype=np.float64)
    kappas = np.asarray(kappa_values, dtype=np.float64)
    for name, arr in (("f", fs), ("rho", rhos), ("kappa", kappas)):
        if arr.ndim != 1 or len(arr) == 0:
            raise DomainError(f"{name} grid must be a non-empty 1-D sequence")
        if len(arr) > 1 and not np.all(np.diff(arr) > 0):
            raise DomainError(f"{name} grid coordinates must be strictly increasing")
    rows = []
    for f in fs:
        for rho in rhos:
            for kappa in kappas:
                ok = f == 1.0 or break_even_satisfied(cm, f, rho, kappa)  # f = 1: vanilla, parity
                rows.append((float(f), float(rho), float(kappa),
                             float(variance_inflation(f, rho, kappa)), float(gamma(cm, f)),
                             float(q_objective(cm, f, rho, kappa)), bool(ok)))
    return rows
