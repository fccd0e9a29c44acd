"""Hard-thresholding wavelet deconvolution estimator.

Pipeline: estimate the noise scale from the finest detail coefficients of the
raw observations, pick the fine level by the Fourier-domain stopping rule,
build the per-level thresholds, estimate the wavelet coefficients by
Fourier-domain division over the Meyer bands, threshold, synthesize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import meyer
from .covariance import KernelSpec, VarianceTable
from .finescale import _fine_levels
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

    @cached_property
    def sigma_hat(self) -> float:
        """Noise scale from the finest-level detail coefficients of the raw data.

        sigma_hat = MAD(y_{J,k}) / 0.6745 * sqrt(n) at J = log2(n) - 2; the
        sqrt(n) undoes the 1/n Fourier convention so the value is in
        per-sample noise units.  Uses the observed (not deconvolved) signal,
        so at high SNR the fine-scale coefficients are noise dominated.
        Computed once; raises ValueError (on every access) unless the
        estimate is finite and positive, since every threshold scales with it.
        """
        n = self.n
        coeffs = meyer._detail_from_spectrum(self.spectrum, int(math.log2(n)) - 2, n)
        mad = float(np.median(np.abs(coeffs - np.median(coeffs))))
        sigma_hat = mad / MAD_TO_SIGMA * math.sqrt(n)
        if not (math.isfinite(sigma_hat) and sigma_hat > 0.0):
            raise ValueError(f"noise scale estimate must be finite and positive, got {sigma_hat}")
        return sigma_hat


def deconvolve_coefficients(problem: DeconvolutionProblem, j0: int, j1: int) -> WaveletCoefficients:
    """Unbiased coefficient estimates: the Meyer analysis of Y_hat / K_hat.

    beta_hat[j,k] = sum over band_set(j) of (Y_hat[l]/K_hat[l]) conj(Psi_hat[j,k][l]);
    the scale coefficients use the scaling window the same way.
    """
    n = problem.n
    meyer._check_grid(n, j1)
    if j0 > j1:
        raise ValueError(f"need j0 <= j1, got ({j0}, {j1})")
    kernel = problem.kernel
    plan = meyer._scale_plan(j0, n)
    scale_kernel = kernel.fourier[plan.index]
    dead = np.abs(scale_kernel) == 0.0
    if np.any(dead):
        ell = int(plan.frequencies[np.argmax(dead)])
        raise ValueError(f"kernel Fourier coefficient vanishes at frequency {ell} (scale level {j0})")
    detail_kernel = {j: kernel.validate_band(j) for j in range(j0, j1 + 1)}

    # Y_hat / K_hat is needed on the bands only
    spectrum = problem.spectrum
    scale = meyer._analyze(spectrum[plan.index] / scale_kernel, plan, "scale")
    detail = {}
    for j, coeffs in detail_kernel.items():
        band = meyer._detail_plan(j, n)
        detail[j] = meyer._analyze(spectrum[band.index] / coeffs, band, "detail")
    return WaveletCoefficients(j0=j0, j1=j1, n=n, scale=scale, detail=detail)


def estimate_sigma(problem: DeconvolutionProblem) -> float:
    """The problem's noise scale estimate, ``problem.sigma_hat``."""
    return problem.sigma_hat


def hard_threshold(coeffs: WaveletCoefficients, policy: ThresholdPolicy) -> WaveletCoefficients:
    """Keep detail coefficients with |beta| >= lambda_j, zero the rest.

    Scale coefficients pass through.
    """
    detail = {j: _threshold_rows(coeffs.detail[j], [policy.lam(j)])[0] for j in coeffs.levels()}
    return WaveletCoefficients(
        j0=coeffs.j0, j1=coeffs.j1, n=coeffs.n, scale=coeffs.scale.copy(), detail=detail
    )


def _threshold_rows(values: np.ndarray, lams) -> np.ndarray:
    """(len(lams), values.size) stack: row i is ``values`` hard-thresholded at lams[i]."""
    return np.where(np.abs(values) < np.asarray(lams)[:, np.newaxis], 0.0, values)


@dataclass
class EstimateReport:
    """Everything produced by one estimator run."""

    estimate: np.ndarray = field(repr=False)
    coefficients: WaveletCoefficients = field(repr=False)
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


def run_estimator(
    problem: DeconvolutionProblem,
    method: str,
    smoothing: float,
    j1_override: int | None = None,
    *,
    j0: int = DEFAULT_COARSE_LEVEL,
    rng: np.random.Generator | None = None,
    variance_table: VarianceTable | None = None,
) -> EstimateReport:
    """Full deconvolution pipeline for one method.

    The IID method runs the stopping rule and thresholds at the white-noise
    calibration regardless of the data's true dependence level; the LRD
    method uses problem.alpha in both.
    """
    _, (report,) = _run_methods(
        problem, [(method, smoothing, rng, variance_table)], j1_override, j0=j0
    )
    return report


def _run_methods(
    problem: DeconvolutionProblem,
    methods: list[tuple[str, float, np.random.Generator | None, VarianceTable | None]],
    j1_override: int | None = None,
    *,
    j0: int = DEFAULT_COARSE_LEVEL,
) -> tuple[np.ndarray, list[EstimateReport]]:
    """One stacked pass of ``run_estimator`` over (method, smoothing, rng, table) rows.

    Returns the (m, n) estimates and one report per row; row i equals
    ``run_estimator`` with that row's arguments bit for bit.  The stopping
    rule runs on one channel stack, Y_hat / K_hat is analysed once up to the
    largest fine level, each level is thresholded as one stack over the rows
    that reach it, and one batched inverse FFT synthesizes every row.
    """
    for method, *_ in methods:
        if method not in ("lrd", "iid"):
            raise ValueError(f"unknown method {method!r}")
    n = problem.n
    sigma_hat = problem.sigma_hat
    alphas = [problem.alpha if method == "lrd" else 1.0 for method, *_ in methods]

    if j1_override is None:
        rngs = [rng for _, _, rng, _ in methods]
        fine = _fine_levels(problem, alphas, sigma_hat, rngs, j0)
        levels = [level for level, _ in fine]
        stops = [(stop.M, stop.saturated) for _, stop in fine]
        del fine  # frees the (m, n/2 - 1) channel magnitudes before synthesis
    else:
        if not j0 <= j1_override <= int(math.log2(n)) - 2:
            raise ValueError(f"j1 override {j1_override} outside [{j0}, log2(n)-2]")
        levels, stops = [j1_override] * len(methods), [(None, False)] * len(methods)

    policies = [
        build_policy(method, problem.kernel, n, alpha, sigma_hat, smoothing, j0, j1,
                     variance_table=table)
        for (method, smoothing, _, table), alpha, j1 in zip(methods, alphas, levels)
    ]
    raw = deconvolve_coefficients(problem, j0, max(levels))
    details: list[dict[int, np.ndarray]] = [{} for _ in methods]
    for j in raw.levels():
        rows = [i for i, j1 in enumerate(levels) if j1 >= j]
        kept = _threshold_rows(raw.detail[j], [policies[i].lambdas[j] for i in rows])
        for i, values in zip(rows, kept):
            details[i][j] = values
    coefficients = [
        WaveletCoefficients(j0=j0, j1=j1, n=n, scale=raw.scale.copy(), detail=detail)
        for j1, detail in zip(levels, details)
    ]
    estimates = meyer._synthesize(coefficients, n)
    reports = [
        EstimateReport(
            estimate=estimate,
            coefficients=coeffs,
            policy=policy,
            fine_level_used=coeffs.j1,
            sigma_hat=sigma_hat,
            kept_count={j: int(np.count_nonzero(d)) for j, d in coeffs.detail.items()},
            stopping_m=stopping_m,
            stopping_saturated=saturated,
        )
        for estimate, coeffs, policy, (stopping_m, saturated) in zip(
            estimates, coefficients, policies, stops
        )
    ]
    return estimates, reports
