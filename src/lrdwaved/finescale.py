"""Data-driven fine resolution level via the Fourier-domain stopping rule.

The stopping time scans the kernel observation channel for the first
frequency whose magnitude falls below the cutoff

    cutoff(l) = l^(alpha/2) * epsilon^alpha * log(1/epsilon^2)^log_power,

with natural logarithms.  ``log_power`` defaults to 1 (the asymptotic form);
the operational estimator uses 1/2, which turns the magnitude into the
universal-threshold form epsilon^alpha sqrt(2 log(1/epsilon)).  The two
differ by a root-log factor that the asymptotics leave free, and the
operational calibration is what tracks the benchmark's typical levels.

In known-kernel mode the channel is synthesized as the noise-normalized
transfer function plus the Fourier-domain LRD noise:

    Y_e[l] = K_hat[l] / sigma_hat + n^(-alpha/2) W[l],

where W[l] are independent complex Gaussians with the model-consistent
marginal variance z_var(l), and the rule runs with epsilon = n^(-1/2), so
the selected level tracks the data's signal-to-noise ratio.

The high-probability bracket M_c <= M <= M_d keeps its +-1/3 structure in
the log exponent around whatever log_power the rule uses; every inequality
behind the bracket shifts with the rule unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .covariance import z_var
from .thresholds import DEFAULT_COARSE_LEVEL, fine_level_theoretical

__all__ = [
    "OPERATIONAL_LOG_POWER",
    "StoppingResult",
    "stopping_time",
    "kernel_channel",
    "lemma_bracket",
    "estimate_fine_level",
    "fine_level_details",
]


@dataclass(frozen=True)
class StoppingResult:
    """Stopping frequency, implied level and the per-frequency trace."""

    M: int
    j_hat: int
    saturated: bool
    magnitudes: np.ndarray = field(repr=False)
    cutoffs: np.ndarray = field(repr=False)

    @property
    def threshold_trace(self) -> np.ndarray:
        """Rows (l, |Y_e[l]|, cutoff(l)) for the diagnostic plot."""
        ells = np.arange(1, self.magnitudes.size + 1, dtype=float)
        return np.column_stack([ells, self.magnitudes, self.cutoffs])


OPERATIONAL_LOG_POWER = 0.5


@lru_cache(maxsize=32)
def _cutoffs(n_freq: int, alpha: float, epsilon: float, log_power: float) -> np.ndarray:
    """Read-only cutoff(l) for l = 1..n_freq, cached by value."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    ells = np.arange(1, n_freq + 1, dtype=float)
    log_term = -2.0 * math.log(epsilon)
    out = ells ** (alpha / 2.0) * epsilon**alpha * log_term**log_power
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _channel_noise_sd(n: int, noise_alpha: float) -> np.ndarray:
    """Read-only per-part s.d. sqrt(z_var(l) / 2) of the channel noise, l = 1..n/2-1."""
    hurst = 1.0 - noise_alpha / 2.0
    out = np.sqrt(z_var(np.arange(1, n // 2), hurst) / 2.0)
    out.setflags(write=False)
    return out


def stopping_time(
    kernel_observation: np.ndarray,
    alpha: float,
    epsilon: float,
    log_power: float = 1.0,
) -> StoppingResult:
    """First frequency where |Y_e[l]| drops to the cutoff.

    ``kernel_observation`` holds Y_e[l] for l = 1..l_max.  If no frequency
    satisfies the rule, M saturates at l_max and is flagged.  j_hat =
    floor(log2 M) - 1 and may be negative; callers clamp to their coarse
    level.
    """
    mags = np.abs(np.asarray(kernel_observation))
    if mags.ndim != 1 or mags.size == 0:
        raise ValueError("kernel observation must be a nonempty 1-d sequence")
    cut = _cutoffs(mags.size, alpha, epsilon, log_power)
    below = np.nonzero(mags <= cut)[0]
    saturated = below.size == 0
    m = int(mags.size if saturated else below[0] + 1)
    j_hat = int(math.floor(math.log2(m))) - 1
    return StoppingResult(M=m, j_hat=j_hat, saturated=saturated, magnitudes=mags, cutoffs=cut)


def kernel_channel(
    kernel,
    noise_alpha: float,
    sigma_hat: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Known-kernel observation channel, normalized by the noise scale.

    The synthetic noise carries the data's true dependence level
    (``noise_alpha``), whatever level the stopping rule later assumes.  With
    rng None the channel is noiseless (the deterministic crossing).
    """
    if sigma_hat <= 0:
        raise ValueError(f"sigma_hat must be positive, got {sigma_hat}")
    n = kernel.n
    channel = np.asarray(kernel.fourier[1 : n // 2], dtype=complex) / sigma_hat
    if rng is not None:
        size = channel.size
        w = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * _channel_noise_sd(
            n, noise_alpha
        )
        channel = channel + n ** (-noise_alpha / 2.0) * w
    return channel


def lemma_bracket(
    kernel,
    alpha: float,
    sigma_hat: float,
    epsilon: float,
    log_power: float = 1.0,
) -> tuple[int, int]:
    """Deterministic bracket (M_c, M_d) for the stopping time.

    M_c and M_d are the kernel's crossings of the cutoff with the log
    exponent shifted by +1/3 and -1/3 from the rule's; the noisy stopping
    time falls between them with high probability.  Uses the same noise
    normalization as the estimator's channel.
    """
    channel = kernel_channel(kernel, alpha, sigma_hat, None)
    mags = np.abs(channel)
    brackets = []
    for power in (log_power + 1.0 / 3.0, log_power - 1.0 / 3.0):
        cut = _cutoffs(mags.size, alpha, epsilon, power)
        below = np.nonzero(mags <= cut)[0]
        brackets.append(int(mags.size if below.size == 0 else below[0] + 1))
    m_c, m_d = brackets
    return m_c, m_d


def fine_level_details(
    problem,
    alpha: float,
    *,
    sigma_hat: float | None = None,
    rng: np.random.Generator | None = None,
    j0: int = DEFAULT_COARSE_LEVEL,
) -> tuple[int, StoppingResult]:
    """Clamped data-driven fine level plus the underlying stopping result.

    ``alpha`` is the dependence level the stopping rule assumes (1 for the
    default white-noise rule); the channel noise always carries the data's
    true level problem.alpha.
    """
    n = problem.n
    if sigma_hat is None:
        from .estimator import estimate_sigma

        sigma_hat = estimate_sigma(problem)
    channel = kernel_channel(problem.kernel, problem.alpha, sigma_hat, rng)
    result = stopping_time(channel, alpha, epsilon=n**-0.5, log_power=OPERATIONAL_LOG_POWER)
    ceiling = fine_level_theoretical(n, 1.0, 0.0)
    level = min(max(result.j_hat, j0), ceiling)
    return level, result


def estimate_fine_level(
    problem,
    alpha: float,
    *,
    sigma_hat: float | None = None,
    rng: np.random.Generator | None = None,
    j0: int = DEFAULT_COARSE_LEVEL,
) -> int:
    """Data-driven fine level, clamped to [j0, theoretical direct-case level]."""
    level, _ = fine_level_details(problem, alpha, sigma_hat=sigma_hat, rng=rng, j0=j0)
    return level
