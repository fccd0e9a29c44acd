"""Hard-thresholding wavelet deconvolution estimator.

Pipeline: estimate the noise scale from the finest detail coefficients of the
raw observations, pick the fine level by the Fourier-domain stopping rule,
build the per-level thresholds, estimate the wavelet coefficients by
Fourier-domain division over the Meyer bands, threshold, synthesize.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import meyer
from .covariance import KernelSpec, VarianceTable
from .finescale import fine_level_details
from .meyer import WaveletCoefficients
from .thresholds import DEFAULT_COARSE_LEVEL, ThresholdPolicy, build_policy

__all__ = [
    "DeconvolutionProblem",
    "EstimateReport",
    "deconvolve_coefficients",
    "estimate_sigma",
    "hard_threshold",
    "run_estimator",
]

MAD_TO_SIGMA = 0.6745  # median absolute deviation of a standard Gaussian


@dataclass(frozen=True)
class DeconvolutionProblem:
    """Observed samples, blur kernel and the (known) dependence level.

    ``observations`` is stored as a read-only copy, so the cached spectrum
    always describes it.
    """

    observations: np.ndarray = field(repr=False)
    kernel: KernelSpec
    alpha: float = 1.0

    def __post_init__(self) -> None:
        y = np.array(self.observations, dtype=float)
        y.setflags(write=False)
        object.__setattr__(self, "observations", y)
        if y.ndim != 1 or y.shape[0] < 32 or (y.shape[0] & (y.shape[0] - 1)) != 0:
            raise ValueError("observations must be a 1-d array of power-of-two length >= 32")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite (found NaN or inf)")
        if y.shape[0] != self.kernel.n:
            raise ValueError("observation grid and kernel grid disagree")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Y_hat = fft(y) / n, computed once and read-only."""
        out = np.fft.fft(self.observations) / self.n
        out.setflags(write=False)
        return out


def deconvolve_coefficients(problem: DeconvolutionProblem, j0: int, j1: int) -> WaveletCoefficients:
    """Unbiased coefficient estimates: the Meyer analysis of Y_hat / K_hat.

    beta_hat[j,k] = sum over band_set(j) of (Y_hat[l]/K_hat[l]) conj(Psi_hat[j,k][l]);
    the scale coefficients use the scaling window the same way.
    """
    n = problem.n
    meyer._check_grid(n, j1)
    if j0 > j1:
        raise ValueError(f"need j0 <= j1, got ({j0}, {j1})")
    plan = meyer._scale_plan(j0, n)
    dead = np.abs(problem.kernel.fourier[plan.index]) == 0.0
    if np.any(dead):
        ell = int(plan.frequencies[np.argmax(dead)])
        raise ValueError(f"kernel Fourier coefficient vanishes at frequency {ell} (scale level {j0})")
    for j in range(j0, j1 + 1):
        problem.kernel.validate_band(j)

    # the scale band and the detail bands j0..j1 cover every |l| <= hi
    hi = 2 ** (j1 + 2) // 3
    needed = np.arange(-hi, hi + 1) % n
    spectrum = problem.spectrum
    ratio = np.zeros(n, dtype=complex)
    ratio[needed] = spectrum[needed] / problem.kernel.fourier[needed]

    scale = meyer._scale_from_spectrum(ratio, j0, n)
    detail = {j: meyer._detail_from_spectrum(ratio, j, n) for j in range(j0, j1 + 1)}
    return WaveletCoefficients(j0=j0, j1=j1, n=n, scale=scale, detail=detail)


def estimate_sigma(problem: DeconvolutionProblem, finest_level: int | None = None) -> float:
    """Noise scale from the finest-level detail coefficients of the raw data.

    sigma_hat = MAD(y_{J,k}) / 0.6745 * sqrt(n); the sqrt(n) undoes the 1/n
    Fourier convention so the value is in per-sample noise units.  Uses the
    observed (not deconvolved) signal, so at high SNR the fine-scale
    coefficients are noise dominated.  Raises ValueError unless the estimate
    is finite and positive, since every threshold scales with it.
    """
    n = problem.n
    level = int(math.log2(n)) - 2 if finest_level is None else finest_level
    if 2**level < 8:
        raise ValueError(f"need at least 8 coefficients at level {level}")
    meyer._check_grid(n, level)
    coeffs = meyer._detail_from_spectrum(problem.spectrum, level, n)
    mad = float(np.median(np.abs(coeffs - np.median(coeffs))))
    sigma_hat = mad / MAD_TO_SIGMA * math.sqrt(n)
    if not (math.isfinite(sigma_hat) and sigma_hat > 0.0):
        raise ValueError(f"noise scale estimate must be finite and positive, got {sigma_hat}")
    return sigma_hat


def hard_threshold(coeffs: WaveletCoefficients, policy: ThresholdPolicy) -> WaveletCoefficients:
    """Keep detail coefficients with |beta| >= lambda_j, zero the rest.

    Scale coefficients pass through unless the policy opts into thresholding
    them at lambda_{j0}.
    """
    out = coeffs.copy()
    for j in out.levels():
        lam = policy.lam(j)
        d = out.detail[j]
        d[np.abs(d) < lam] = 0.0
    if policy.threshold_scale:
        lam = policy.lam(coeffs.j0)
        out.scale[np.abs(out.scale) < lam] = 0.0
    return out


@dataclass
class EstimateReport:
    """Everything produced by one estimator run."""

    estimate: np.ndarray = field(repr=False)
    coefficients: WaveletCoefficients = field(repr=False)
    raw_coefficients: WaveletCoefficients = field(repr=False)
    policy: ThresholdPolicy
    fine_level_used: int
    sigma_hat: float
    kept_count: dict[int, int]
    stopping_m: int | None = None
    stopping_saturated: bool = False

    def as_dict(self) -> dict:
        return {
            "method": self.policy.method,
            "smoothing": self.policy.smoothing,
            "alpha": self.policy.alpha,
            "n": self.policy.n,
            "sigma_hat": self.sigma_hat,
            "fine_level_used": self.fine_level_used,
            "stopping_m": self.stopping_m,
            "stopping_saturated": self.stopping_saturated,
            "lambdas": {str(j): lam for j, lam in sorted(self.policy.lambdas.items())},
            "kept_count": {str(j): c for j, c in sorted(self.kept_count.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def run_estimator(
    problem: DeconvolutionProblem,
    method: str,
    smoothing: float,
    j1_override: int | None = None,
    *,
    j0: int = DEFAULT_COARSE_LEVEL,
    rng: np.random.Generator | None = None,
    variance_table: VarianceTable | None = None,
    threshold_scale: bool = False,
) -> EstimateReport:
    """Full deconvolution pipeline for one method.

    The IID method runs the stopping rule and thresholds at the white-noise
    calibration regardless of the data's true dependence level; the LRD
    method uses problem.alpha in both.
    """
    if method not in ("lrd", "iid"):
        raise ValueError(f"unknown method {method!r}")
    n = problem.n
    alpha = problem.alpha if method == "lrd" else 1.0
    sigma_hat = estimate_sigma(problem)

    stopping_m: int | None = None
    saturated = False
    if j1_override is None:
        j1, stopping = fine_level_details(
            problem, alpha, sigma_hat=sigma_hat, rng=rng, j0=j0
        )
        stopping_m = stopping.M
        saturated = stopping.saturated
    else:
        if not j0 <= j1_override <= int(math.log2(n)) - 2:
            raise ValueError(f"j1 override {j1_override} outside [{j0}, log2(n)-2]")
        j1 = j1_override

    policy = build_policy(
        method,
        problem.kernel,
        n,
        alpha,
        sigma_hat,
        smoothing,
        j0,
        j1,
        variance_table=variance_table,
        threshold_scale=threshold_scale,
    )
    raw = deconvolve_coefficients(problem, j0, j1)
    kept = hard_threshold(raw, policy)
    estimate = meyer.inverse_transform(kept, n)
    kept_count = {j: int(np.count_nonzero(kept.detail[j])) for j in kept.levels()}
    return EstimateReport(
        estimate=estimate,
        coefficients=kept,
        raw_coefficients=raw,
        policy=policy,
        fine_level_used=j1,
        sigma_hat=sigma_hat,
        kept_count=kept_count,
        stopping_m=stopping_m,
        stopping_saturated=saturated,
    )
