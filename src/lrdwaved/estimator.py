"""Hard-thresholding wavelet deconvolution estimator.

Pipeline: estimate the noise scale from the finest detail coefficients of the
raw observations, pick the fine level by the Fourier-domain stopping rule,
build the per-level thresholds, estimate the wavelet coefficients by
Fourier-domain division over the Meyer bands, threshold, synthesize.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
        return float(_sigma_hats(self.spectrum[np.newaxis])[0])


def _sigma_hats(spectra: np.ndarray) -> np.ndarray:
    """``sigma_hat`` of every row of a (B, n) stack of spectra: one analysis, row-wise MAD."""
    n = spectra.shape[-1]
    coeffs = meyer._detail_from_spectrum(spectra, int(math.log2(n)) - 2, n)
    mad = np.median(np.abs(coeffs - np.median(coeffs, axis=-1, keepdims=True)), axis=-1)
    sigma_hats = mad / MAD_TO_SIGMA * math.sqrt(n)
    bad = np.flatnonzero(~(np.isfinite(sigma_hats) & (sigma_hats > 0.0)))
    if bad.size:
        raise ValueError(
            f"noise scale estimate must be finite and positive, got {float(sigma_hats[bad[0]])}"
        )
    return sigma_hats


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
    each band is analysed once for the whole stack.
    """
    n = spectra.shape[-1]
    meyer._check_grid(n, j1)
    if j0 > j1:
        raise ValueError(f"need j0 <= j1, got ({j0}, {j1})")
    plan = meyer._scale_plan(j0, n)
    scale_kernel = kernel.fourier[plan.index]
    dead = np.abs(scale_kernel) == 0.0
    if np.any(dead):
        ell = int(plan.frequencies[np.argmax(dead)])
        raise ValueError(f"kernel Fourier coefficient vanishes at frequency {ell} (scale level {j0})")
    detail_kernel = {j: kernel.validate_band(j) for j in range(j0, j1 + 1)}

    # Y_hat / K_hat is needed on the bands only
    scale = meyer._analyze(np.take(spectra, plan.index, axis=-1) / scale_kernel, plan, "scale")
    detail = {}
    for j, coeffs in detail_kernel.items():
        band = meyer._detail_plan(j, n)
        detail[j] = meyer._analyze(np.take(spectra, band.index, axis=-1) / coeffs, band, "detail")
    return scale, detail


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
    variance_table: VarianceTable | None = None,
) -> EstimateReport:
    """Full deconvolution pipeline for one method.

    The IID method runs the stopping rule and thresholds at the white-noise
    calibration regardless of the data's true dependence level; the LRD
    method uses problem.alpha in both.
    """
    [(_, (report,))] = _run_methods(
        [problem], [(method, smoothing, variance_table)], [[rng]], j1_override, j0=j0
    )
    return report


def _run_methods(
    problems: list[DeconvolutionProblem],
    methods: list[tuple[str, float, VarianceTable | None]],
    rngs: list[list[np.random.Generator | None]],
    j1_override: int | None = None,
    *,
    j0: int = DEFAULT_COARSE_LEVEL,
) -> Iterator[tuple[np.ndarray, list[EstimateReport]]]:
    """One stacked pass of ``run_estimator`` over every (problem, method) row.

    The problems share one kernel and one alpha; method i runs on problem b
    with stopping-rule stream rngs[b][i].  Yields, problem by problem, the
    (m, n) estimates and one report per method; row (b, i) equals
    ``run_estimator`` on problem b with method i's arguments bit for bit.

    One batched FFT and one analysis give every problem's Y_hat and
    sigma_hat, the stopping rule runs on one channel stack, Y_hat / K_hat is
    analysed once per level up to the largest fine level, and each level is
    thresholded as one stack over the rows that reach it.  One
    ``meyer._synthesize`` call then turns every row's coefficients into
    samples: the pass holds one (B*m, n) spectrum, and each problem's
    estimates are a view of its m rows, left intact by the later problems.
    """
    for method, *_ in methods:
        if method not in ("lrd", "iid"):
            raise ValueError(f"unknown method {method!r}")
    kernel, alpha, n = problems[0].kernel, problems[0].alpha, problems[0].n
    if any(p.kernel is not kernel or p.alpha != alpha for p in problems):
        raise ValueError("a stacked pass needs one kernel and one alpha for every problem")
    if len(problems) == 1:
        # the one-problem case reads and fills the problem's own caches
        spectra = problems[0].spectrum[np.newaxis]
        sigma_hats = [problems[0].sigma_hat]
    else:
        # complex input: fft casts real input in small buffered chunks, at
        # twice the cost of the transform itself (the same values either way)
        spectra = np.array([p.observations for p in problems], dtype=complex)
        np.fft.fft(spectra, axis=-1, out=spectra)
        spectra /= n
        sigma_hats = _sigma_hats(spectra).tolist()
    m = len(methods)
    alphas = [alpha if method == "lrd" else 1.0 for method, *_ in methods]
    # (problem, method) rows in problem-major order: row b*m + i
    rows = [(b, i) for b in range(len(problems)) for i in range(m)]

    if j1_override is None:
        fine = _fine_levels(
            kernel, alpha, [alphas[i] for _, i in rows], [sigma_hats[b] for b, _ in rows],
            [rngs[b][i] for b, i in rows], j0,
        )
        levels = [level for level, _, _ in fine]
        stops = [(stop_m, saturated) for _, stop_m, saturated in fine]
    else:
        if not j0 <= j1_override <= int(math.log2(n)) - 2:
            raise ValueError(f"j1 override {j1_override} outside [{j0}, log2(n)-2]")
        levels, stops = [j1_override] * len(rows), [(None, False)] * len(rows)

    policies = []
    for (b, i), j1 in zip(rows, levels):
        method, smoothing, table = methods[i]
        policies.append(
            build_policy(method, kernel, n, alphas[i], sigma_hats[b], smoothing, j0, j1,
                         variance_table=table)
        )
    scale, raw = _deconvolve(spectra, kernel, j0, max(levels))
    del spectra
    details: list[dict[int, np.ndarray]] = [{} for _ in rows]
    kept_counts: list[dict[int, int]] = [{} for _ in rows]
    fine_levels = np.array(levels)
    for j, coeffs in raw.items():
        reach = np.flatnonzero(fine_levels >= j)
        kept = _threshold_rows(
            coeffs[reach // m], [policies[r].lambdas[j] for r in reach.tolist()]
        )
        for r, values, count in zip(reach.tolist(), kept, np.count_nonzero(kept, axis=1).tolist()):
            details[r][j] = values
            kept_counts[r][j] = count
    del raw
    coefficients = [
        WaveletCoefficients(j0=j0, j1=j1, n=n, scale=scale[b].copy(), detail=detail)
        for (b, _), j1, detail in zip(rows, levels, details)
    ]
    estimates = meyer._synthesize(coefficients, n)

    for b, sigma_hat in enumerate(sigma_hats):
        span = range(b * m, (b + 1) * m)
        reports = [
            EstimateReport(
                estimate=estimates[r],
                coefficients=coefficients[r],
                policy=policies[r],
                fine_level_used=levels[r],
                sigma_hat=sigma_hat,
                kept_count=kept_counts[r],
                stopping_m=stops[r][0],
                stopping_saturated=stops[r][1],
            )
            for r in span
        ]
        yield estimates[b * m : (b + 1) * m], reports
