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

# frequencies of each channel row that the stacked rule builds and scans first
_FIRST_WIDTH = 128


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
    first = int(_crossings(mags[np.newaxis], [cut])[0])
    m = first + 1 if first >= 0 else mags.size
    j_hat = int(math.floor(math.log2(m))) - 1
    return StoppingResult(M=m, j_hat=j_hat, saturated=first < 0, magnitudes=mags, cutoffs=cut)


def _crossings(mags: np.ndarray, cuts) -> np.ndarray:
    """First column of each row of ``mags`` at or below its row of ``cuts``; -1 where none."""
    below = np.empty(mags.shape, dtype=bool)
    for row, cut, out in zip(mags, cuts, below):
        np.less_equal(row, cut, out=out)
    return np.where(below.any(axis=1), below.argmax(axis=1), -1)


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
    stack = _ChannelStack(kernel, noise_alpha, [sigma_hat], [rng])
    return stack.columns([0], 0, stack.size)[0]


class _ChannelStack:
    """Rows of ``kernel_channel``, built range of frequencies by range of frequencies.

    Row i is divided by sigma_hats[i] and drawn from rngs[i]: each range of
    columns draws its normals in one call, interleaved as (re, im) per
    frequency, so a stream draws only the frequencies its row builds.  One
    standard_normal(a + b) equals standard_normal(a) followed by
    standard_normal(b), so a row built up to any width holds the values of
    its one-piece form.  A None stream leaves its row noiseless.
    """

    def __init__(self, kernel, noise_alpha: float, sigma_hats, rngs) -> None:
        sigma_hats = np.asarray(sigma_hats, dtype=float)
        if np.any(sigma_hats <= 0):
            raise ValueError(f"sigma_hat must be positive, got {sigma_hats.min()}")
        self.kernel, self.noise_alpha = kernel, noise_alpha
        self.sigma_hats, self.rngs = sigma_hats, rngs
        self.size = kernel.n // 2 - 1

    def columns(self, rows, lo: int, hi: int) -> np.ndarray:
        """Frequencies lo+1..hi of ``rows``, whose frequencies up to lo are built already."""
        n = self.kernel.n
        # one buffer, updated in place: temporaries of its size cost more than the arithmetic
        out = np.zeros((len(rows), hi - lo), dtype=complex)
        for row, i in zip(out, rows):
            if self.rngs[i] is not None:
                self.rngs[i].standard_normal(out=row.view(float))
        out *= _channel_noise_sd(n, self.noise_alpha)[lo:hi]
        out *= n ** (-self.noise_alpha / 2.0)
        channel = np.asarray(self.kernel.fourier[1 + lo : 1 + hi], dtype=complex)
        out += channel / self.sigma_hats[rows, np.newaxis]
        return out


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
    m_c, m_d = (
        stopping_time(channel, alpha, epsilon, power).M
        for power in (log_power + 1.0 / 3.0, log_power - 1.0 / 3.0)
    )
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

    The level lies in [j0, theoretical direct-case level].  ``alpha`` is the
    dependence level the stopping rule assumes (1 for the default white-noise
    rule); the channel noise always carries the data's true level
    problem.alpha.  ``sigma_hat`` defaults to problem.sigma_hat.  The result
    is ``stopping_time`` at epsilon = n^(-1/2) on the full channel, so it
    carries the full trace, l = 1..n/2 - 1.
    """
    if sigma_hat is None:
        sigma_hat = problem.sigma_hat
    channel = kernel_channel(problem.kernel, problem.alpha, sigma_hat, rng)
    result = stopping_time(channel, alpha, problem.n**-0.5, OPERATIONAL_LOG_POWER)
    return min(max(result.j_hat, j0), fine_level_theoretical(problem.n, 1.0, 0.0)), result


def _fine_levels(
    kernel, noise_alpha: float, alphas, sigma_hats, rngs, j0: int
) -> list[tuple[int, int, bool]]:
    """(level, M, saturated) of ``fine_level_details`` for every (alpha, sigma_hat, rng) row.

    The rows may come from several problems that share one kernel and one
    noise level ``noise_alpha``, and run on one channel stack.  A row is
    built and scanned over its first ``_FIRST_WIDTH`` frequencies; a row
    with no crossing doubles its prefix, until it reaches n/2 - 1 and
    saturates.  No trace is kept: each row's prefix covers its first
    crossing, so M, the level and the saturation flag equal the full-trace
    ones.
    """
    stack = _ChannelStack(kernel, noise_alpha, sigma_hats, rngs)
    top = fine_level_theoretical(kernel.n, 1.0, 0.0)
    cuts = [
        _cutoffs(stack.size, alpha, kernel.n**-0.5, OPERATIONAL_LOG_POWER) for alpha in alphas
    ]
    results: list[tuple[int, int, bool] | None] = [None] * len(rngs)
    rows, lo, hi = list(range(len(rngs))), 0, min(_FIRST_WIDTH, stack.size)
    while rows:
        mags = np.abs(stack.columns(rows, lo, hi))
        firsts = _crossings(mags, [cuts[i][lo:hi] for i in rows]).tolist()
        open_rows = []
        for i, first in zip(rows, firsts):
            if first >= 0 or hi == stack.size:
                m = lo + first + 1 if first >= 0 else hi
                j_hat = int(math.floor(math.log2(m))) - 1
                results[i] = (min(max(j_hat, j0), top), m, first < 0)
            else:
                open_rows.append(i)
        rows, lo, hi = open_rows, hi, min(2 * hi, stack.size)
    return results

