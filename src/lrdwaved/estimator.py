"""Hard-thresholding wavelet deconvolution estimator.

Pipeline: estimate the noise scale from the finest detail coefficients of the
raw observations, pick the fine level by the Fourier-domain stopping rule,
build the per-level thresholds, estimate the wavelet coefficients by
Fourier-domain division over the Meyer bands, threshold, synthesize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import meyer
from .covariance import KernelSpec
from .finescale import _fine_levels
from .meyer import WaveletCoefficients
from .noise import _check_alpha
from .thresholds import (
    DEFAULT_COARSE_LEVEL,
    ThresholdPolicy,
    _check_positive,
    _lambda,
    _method_alpha,
)

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
        if y.ndim != 1:
            raise ValueError(f"observations must be a 1-d array, got {y.ndim} dimensions")
        meyer._check_length(y.shape[0], "observation length")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite (found NaN or inf)")
        if y.shape[0] != self.kernel.n:
            raise ValueError("observation grid and kernel grid disagree")
        _check_alpha(self.alpha)

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Y_hat = fft(y) / n, computed once and read-only."""
        out = meyer._spectra(self.observations[np.newaxis])[0]
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
        return float(_sigma_hats(self.spectrum[np.newaxis])[0])


def _sigma_hats(spectra: np.ndarray) -> np.ndarray:
    """``sigma_hat`` of every row of a (B, n) stack of spectra: one analysis, row-wise MAD."""
    n = spectra.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed row gets NaN, refused below
        coeffs = meyer._detail_from_spectrum(spectra, int(math.log2(n)) - 2, n)
        mad = np.where(np.isfinite(coeffs).all(axis=-1), _mad(coeffs), np.nan)
    sigma_hats = mad / MAD_TO_SIGMA * math.sqrt(n)
    bad = np.flatnonzero(~(np.isfinite(sigma_hats) & (sigma_hats > 0.0)))
    if bad.size:
        raise ValueError(
            f"noise scale estimate must be finite and positive, got {float(sigma_hats[bad[0]])}"
        )
    return sigma_hats


def _mad(x: np.ndarray) -> np.ndarray:
    """Row-wise median absolute deviation of a finite stack of even width (always 2^J here).

    An even-width median is the mean of order statistics h-1 and h, h = width/2: one partition
    at h places h, and h-1 is the largest entry below it.  ``np.median``'s values bit for bit.
    """
    h = x.shape[-1] // 2

    def median(values: np.ndarray) -> np.ndarray:
        part = np.partition(values, h, axis=-1)
        return (part[..., :h].max(axis=-1) + part[..., h]) / 2.0

    return median(np.abs(x - median(x)[..., np.newaxis]))


def deconvolve_coefficients(problem: DeconvolutionProblem, j0: int, j1: int) -> WaveletCoefficients:
    """Unbiased coefficient estimates: the Meyer analysis of Y_hat / K_hat.

    beta_hat[j,k] = sum over band_set(j) of (Y_hat[l]/K_hat[l]) conj(Psi_hat[j,k][l]);
    the scale coefficients use the scaling window the same way.
    """
    scale, detail = _deconvolve(problem.spectrum[np.newaxis], problem.kernel, j0, j1)
    return WaveletCoefficients(
        j0=j0, j1=j1, n=problem.n, scale=scale[0], detail={j: d[0] for j, d in detail.items()}
    )


def _deconvolve(
    spectra: np.ndarray, kernel: KernelSpec, j0: int, j1: int
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """``deconvolve_coefficients`` of every row of a (B, n) stack of spectra.

    Returns the (B, 2^j0) scale stack and a (B, 2^j) detail stack per level;
    each band is analysed once for the whole stack.  Raises ValueError, naming
    the level, if any coefficient is not finite (Y_hat / K_hat can overflow).
    """
    n = spectra.shape[-1]
    meyer._check_levels(n, j0, j1)
    plan = meyer._scale_plan(j0, n)
    scale_kernel = _kernel_band(kernel, j0, scale=True)
    detail_kernel = {j: _kernel_band(kernel, j) for j in range(j0, j1 + 1)}

    # Y_hat / K_hat is needed on the bands only; what overflows there, _check_finite refuses
    with np.errstate(over="ignore", invalid="ignore"):
        scale = meyer._analyze(np.take(spectra, plan.index, axis=-1) / scale_kernel, plan, "scale")
        _check_finite(scale, f"scale level {j0}")
        detail = {}
        for j, coeffs in detail_kernel.items():
            band = meyer._detail_plan(j, n)
            quotient = np.take(spectra, band.index, axis=-1) / coeffs
            detail[j] = meyer._analyze(quotient, band, "detail")
            _check_finite(detail[j], f"detail level {j}")
    return scale, detail


def _check_finite(coeffs: np.ndarray, where: str) -> None:
    """Raise unless every deconvolved coefficient at ``where`` is finite."""
    if not np.isfinite(coeffs).all():
        raise ValueError(f"deconvolved coefficients at {where} are not finite")


# validated kernel coefficients keyed by the kernel's value and the level: a cell's blocks
# gather and check each band once (on a cold cache a cell's helper process computes its
# own entries, which leave with it); one kernel at n=4096 fills 9 entries (scale 3, levels 3-10)
@lru_cache(maxsize=64)
def _kernel_band(kernel: KernelSpec, j: int, scale: bool = False) -> np.ndarray:
    """Read-only kernel coefficients over level j's scale or detail band; raises if any vanishes."""
    if scale:
        coeffs = kernel._band_coefficients(meyer._scale_plan(j, kernel.n), f"scale level {j}")
    else:
        coeffs = kernel.validate_band(j)
    coeffs.setflags(write=False)
    return coeffs


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
    """Row i of ``values`` hard-thresholded at lams[i]; a 1-d ``values`` serves every row."""
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
) -> EstimateReport:
    """Full deconvolution pipeline for one method.

    The IID method runs the stopping rule and thresholds at the white-noise
    calibration regardless of the data's true dependence level; the LRD
    method uses problem.alpha in both.
    """
    block = _block_pass(
        problem.spectrum[np.newaxis], problem.kernel, problem.alpha, [(method, smoothing)],
        [[rng]], j1_override, j0=j0,
    )
    (j1, stopping_m, saturated), sigma_hat = block.fine[0], float(block.sigma_hats[0])
    lambdas = {j: float(lams[0]) for j, lams in block.lambdas.items()}
    policy = ThresholdPolicy(
        method, smoothing, sigma_hat, _method_alpha(method, problem.alpha), problem.n, lambdas
    )
    detail = {j: values[0] for j, values in block.detail.items()}
    coefficients = WaveletCoefficients(j0, j1, problem.n, block.scale[0], detail)
    kept_count = {j: int(counts[0]) for j, counts in block.counts.items()}
    return EstimateReport(
        block.estimates[0], coefficients, policy, j1, sigma_hat, kept_count, stopping_m, saturated
    )


class _BlockPass(NamedTuple):
    """One stacked pass's arrays, its sigma_hats too; row b*m + i is dataset b under method i."""

    estimates: np.ndarray  # (B*m, n)
    levels: np.ndarray  # (B*m,) fine levels
    fine: list[tuple[int, int | None, bool]]  # (level, M, saturated); M None if overridden
    sigma_hats: np.ndarray  # (B,) per dataset
    scale: np.ndarray  # (B, 2^j0), per dataset
    detail: dict[int, np.ndarray]  # j -> (B*m, 2^j) thresholded stack; 0 above a row's level
    lambdas: dict[int, np.ndarray]  # j -> (B*m,) lambda_j; +inf above a row's level
    counts: dict[int, np.ndarray]  # j -> (B*m,) kept counts
    kept: np.ndarray  # (B*m,) kept totals over the levels


def _block_pass(
    spectra: np.ndarray,
    kernel: KernelSpec,
    alpha: float,
    methods: list[tuple[str, float]],
    rngs: list[list[np.random.Generator | None]],
    j1_override: int | None = None,
    *,
    j0: int = DEFAULT_COARSE_LEVEL,
) -> _BlockPass:
    """``run_estimator`` on every (dataset, method) row, as arrays.

    The datasets are the rows of a (B, n) stack of spectra Y_hat
    (``meyer._spectra``), observed through one kernel at one alpha; their
    ``_sigma_hats`` come first, from the spectra.  Method i runs on dataset
    b with stopping-rule stream rngs[b][i], and row b*m + i equals
    ``run_estimator`` on dataset b with method i's arguments bit for bit.
    The stopping rule scans every row together, and Y_hat / K_hat is
    analysed once per level; the pass then drops ``spectra``, so a stack
    passed with no other reference is freed before synthesis.  Each level up
    to the largest fine level is thresholded as one stack of all rows; a
    method with a row at level j takes one ``thresholds._lambda`` call over
    every dataset's sigma_hat, so tau is read only for methods with a row at
    j, and a row above its own fine level gets lambda = +inf, which zeroes
    its coefficients (``_deconvolve`` has checked that they are finite).
    One ``meyer._synthesize`` call gives every row's samples, a view of a
    (B*m, n) spectrum that no later pass reuses.
    """
    n = spectra.shape[-1]
    sigma_hats = _sigma_hats(spectra)
    alphas = [_method_alpha(method, alpha) for method, _ in methods]
    for _, smoothing in methods:
        _check_positive(smoothing, "smoothing constant")
    m = len(methods)
    problem_of, method_of = np.divmod(np.arange(len(spectra) * m), m)
    sigmas = sigma_hats[problem_of]

    if j1_override is None:
        streams = [rngs[b][i] for b, i in zip(problem_of, method_of)]
        fine = _fine_levels(kernel, alpha, [alphas[i] for i in method_of], sigmas, streams, j0)
    else:
        meyer._check_levels(n, j0, j1_override)
        fine = [(j1_override, None, False)] * problem_of.size
    levels = np.array([level for level, _, _ in fine])

    scale, raw = _deconvolve(spectra, kernel, j0, int(levels.max()))
    del spectra
    detail, lambdas, counts = {}, {}, {}
    for j, coeffs in raw.items():
        above = levels < j
        lambdas[j] = np.full(problem_of.size, np.inf)
        for i, (method, smoothing) in enumerate(methods):  # method i is column i of (B, m)
            if not above[i::m].all():
                lambdas[j][i::m] = _lambda(method, smoothing, j, kernel, alpha, sigma_hats)
        lambdas[j][above] = np.inf  # zeroes every (finite) coefficient of the row
        detail[j] = _threshold_rows(coeffs[problem_of], lambdas[j])
        counts[j] = np.count_nonzero(detail[j], axis=1)
    del raw
    kept = sum(counts.values())
    estimates = meyer._synthesize(np.repeat(scale, m, axis=0), detail, n)
    return _BlockPass(estimates, levels, fine, sigma_hats, scale, detail, lambdas, counts, kept)
