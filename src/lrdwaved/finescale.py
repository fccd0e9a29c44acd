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
    j_hat = _levels([m])[0]
    return StoppingResult(M=m, j_hat=j_hat, saturated=first < 0, magnitudes=mags, cutoffs=cut)


def _levels(ms, clamp: tuple[int, int] | None = None) -> list[int]:
    """floor(log2 M) - 1 per stopping frequency M; clamp (j0, n) bounds it to [j0, j1 at n]."""
    levels = [int(math.floor(math.log2(m))) - 1 for m in ms]
    if clamp is None:
        return levels
    j0, top = clamp[0], fine_level_theoretical(clamp[1], 1.0, 0.0)
    return [min(max(level, j0), top) for level in levels]


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
    return _channel(kernel, noise_alpha, [sigma_hat], [rng], 0, kernel.n // 2 - 1)[0]


def _channel(kernel, noise_alpha: float, sigma_hats, rngs, lo: int, hi: int) -> np.ndarray:
    """Frequencies lo+1..hi of ``kernel_channel``'s rows at (sigma_hats[i], rngs[i]).

    A row draws its normals in one call, (re, im) per frequency, and
    standard_normal(a + b) equals standard_normal(a) then standard_normal(b):
    a row built range by range from one stream equals its one-piece form.
    A None stream leaves its row noiseless.
    """
    sigma_hats = np.asarray(sigma_hats, dtype=float)
    bad = ~(np.isfinite(sigma_hats) & (sigma_hats > 0))
    if bad.any():
        raise ValueError(f"sigma_hat must be positive and finite, got {sigma_hats[bad][0]}")
    # one buffer, updated in place: temporaries of its size cost more than the arithmetic
    out = np.zeros((len(rngs), hi - lo), dtype=complex)
    for row, rng in zip(out, rngs):
        if rng is not None:
            rng.standard_normal(out=row.view(float))
    out *= _channel_noise_sd(kernel.n, noise_alpha)[lo:hi]
    out *= kernel.n ** (-noise_alpha / 2.0)
    channel = np.asarray(kernel.fourier[1 + lo : 1 + hi], dtype=complex)
    out += channel / sigma_hats[:, np.newaxis]
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
    return _levels([result.M], (j0, problem.n))[0], result


def _fine_levels(
    kernel, noise_alpha: float, alphas, sigma_hats, rngs, j0: int
) -> list[tuple[int, int, bool]]:
    """(level, M, saturated) of ``fine_level_details`` for every (alpha, sigma_hat, rng) row.

    The rows may come from several problems that share one kernel and one
    noise level ``noise_alpha``; each width is one ``_channel`` stack.  A row is
    built and scanned over its first ``_FIRST_WIDTH`` frequencies; a row
    with no crossing doubles its prefix, until it reaches n/2 - 1 and
    saturates.  No trace is kept: each row's prefix covers its first
    crossing, so M, the level and the saturation flag equal the full-trace
    ones.
    """
    size, sigma_hats = kernel.n // 2 - 1, np.asarray(sigma_hats, dtype=float)
    cuts = [_cutoffs(size, alpha, kernel.n**-0.5, OPERATIONAL_LOG_POWER) for alpha in alphas]
    stops: list[tuple[int, bool] | None] = [None] * len(rngs)
    rows, lo, hi = list(range(len(rngs))), 0, min(_FIRST_WIDTH, size)
    while rows:
        channel = _channel(kernel, noise_alpha, sigma_hats[rows], [rngs[i] for i in rows], lo, hi)
        firsts = _crossings(np.abs(channel), [cuts[i][lo:hi] for i in rows]).tolist()
        open_rows = []
        for i, first in zip(rows, firsts):
            if first >= 0 or hi == size:
                stops[i] = (lo + first + 1 if first >= 0 else hi, first < 0)
            else:
                open_rows.append(i)
        rows, lo, hi = open_rows, hi, min(2 * hi, size)
    levels = _levels([m for m, _ in stops], (j0, kernel.n))
    return [(level, m, saturated) for level, (m, saturated) in zip(levels, stops)]
