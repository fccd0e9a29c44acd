"""Benchmark signals, the Gamma blur kernel and synthetic dataset generation.

Signal definitions follow the standard test-suite formulas; the embedded
constants are frozen by golden regression tests.  All norms are grid
normalized, ||v||^2 = mean(v^2), so they approximate L2[0,1] integrals and
SNR/MSE values are comparable across grid sizes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .covariance import KernelSpec
from .estimator import DeconvolutionProblem
from .meyer import _check_finite, _check_length
from .noise import NoiseModel, _check_alpha, _stream_words
from .thresholds import DEFAULT_SMOOTHING, _check_number, _check_positive, _method_alpha
from .thresholds import resolve_smoothing

__all__ = [
    "SIGNAL_NAMES",
    "ExperimentConfig",
    "make_signal",
    "gamma_kernel",
    "calibrate_sigma",
    "blur",
    "generate_dataset",
    "grid_norm",
]

SIGNAL_NAMES = ("lidar", "doppler", "bumps", "cusp")

# Bump atom positions, heights and widths (standard triples).
_BUMP_POS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76, 0.78, 0.81])
_BUMP_HGT = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMP_WTH = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])

# Two-plateau piecewise-constant lidar profile: (start, stop, height).
_LIDAR_STEPS = ((0.15, 0.45, 1.0), (0.6, 0.85, 0.65))

_CUSP_LOCATION = 0.37
_DOPPLER_EPS = 0.05

# Frozen amplitude normalizations (golden constants; regression locked).
_SIGNAL_SCALE = {"cusp": 2.4, "doppler": 2.8, "bumps": 1.75, "lidar": 1.35}


def grid_norm(v: np.ndarray) -> float:
    """Grid-normalized 2-norm, ||v||^2 = mean(v_i^2)."""
    v = np.asarray(v, dtype=float)
    return math.sqrt(float(np.mean(v * v)))


def _grid(n: int) -> np.ndarray:
    return np.arange(n) / n


def make_signal(name: str, n: int) -> np.ndarray:
    """Sample one of the four benchmark signals on t_i = i/n."""
    key = name.lower()
    t = _grid(n)
    if key == "cusp":
        out = np.sqrt(np.abs(t - _CUSP_LOCATION))
    elif key == "doppler":
        out = np.sqrt(t * (1.0 - t)) * np.sin(
            2.0 * np.pi * (1.0 + _DOPPLER_EPS) / (t + _DOPPLER_EPS)
        )
    elif key == "bumps":
        out = np.zeros(n)
        for p, h, w in zip(_BUMP_POS, _BUMP_HGT, _BUMP_WTH):
            out += h * (1.0 + np.abs((t - p) / w)) ** -4.0
    elif key == "lidar":
        out = np.zeros(n)
        for start, stop, height in _LIDAR_STEPS:
            out[(t >= start) & (t < stop)] = height
    else:
        raise ValueError(f"unknown signal {name!r}; choose from {SIGNAL_NAMES}")
    return _SIGNAL_SCALE[key] * out


def _gamma_pdf(t: np.ndarray, shape: float, scale: float) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = (
        t[pos] ** (shape - 1.0)
        * np.exp(-t[pos] / scale)
        / (math.gamma(shape) * scale**shape)
    )
    return out


# equal calls share one kernel: a tau cache hit then matches by identity, not by comparing all
# n coefficients (measured: the 60-cell fGn grid at M=2, n=4096 runs ~12% more reps/s with it)
@lru_cache(maxsize=16)
def gamma_kernel(n: int, shape: float = 0.7, scale: float = 0.25) -> KernelSpec:
    """Gamma-density blur kernel; degree of ill-posedness equals the shape.

    The density is sampled at cell midpoints (the density is singular at zero
    for shape < 1) and normalized to unit sum, so K_hat[0] = 1 exactly.
    """
    _check_kernel_flags(shape, scale)
    mid = (np.arange(n) + 0.5) / n
    weights = _gamma_pdf(mid, shape, scale)
    weights /= weights.sum()
    return KernelSpec(fourier=np.fft.fft(weights))


def blur(signal: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Exact circular convolution via spectral multiplication."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape[0] != kernel.n:
        raise ValueError("signal and kernel grids disagree")
    out = np.fft.ifft(np.fft.fft(signal) * kernel.fourier)
    return out.real


def calibrate_sigma(blurred: np.ndarray, snr_db: float) -> float:
    """Noise scale sigma with SNR = 10 log10(||K*f||^2 / sigma^2)."""
    _check_number(snr_db, "snr_db")
    _check_finite(blurred, "blurred signal values")
    with np.errstate(over="ignore"):  # a finite signal whose norm overflows is refused next
        level = grid_norm(blurred)
    _check_number(level, "blurred signal grid norm")
    if level == 0.0:
        raise ValueError("blurred signal is identically zero")
    return level * 10.0 ** (-snr_db / 20.0)


def _check_kernel_flags(nu: float, kernel_scale: float) -> None:
    """Raise unless a Gamma kernel's shape ``nu`` lies in (0, 1] and its scale is finite and > 0."""
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    _check_positive(kernel_scale, "kernel_scale")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment."""

    signal: str
    n: int = 4096
    alpha: float = 1.0
    nu: float = 0.7
    snr_db: float = 20.0
    methods: tuple[str, ...] = ("iid", "lrd", "lrd")
    smoothing: tuple[str, ...] = (DEFAULT_SMOOTHING["iid"], "sqrtalpha", DEFAULT_SMOOTHING["lrd"])
    replications: int = 64
    seed: int = 0
    noise_kind: str = "farima"
    kernel_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.signal.lower() not in SIGNAL_NAMES:
            raise ValueError(f"unknown signal {self.signal!r}")
        for name in ("n", "replications", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        _check_length(self.n, "n")
        _check_alpha(self.alpha)
        _check_kernel_flags(self.nu, self.kernel_scale)
        _check_number(self.snr_db, "snr_db")
        NoiseModel(self.alpha, self.noise_kind)  # the noise kind rule, on the cells' own model
        if not self.methods:
            raise ValueError("methods must name at least one method")
        if len(self.methods) != len(self.smoothing):
            raise ValueError("methods and smoothing lists must have equal length")
        for method, spec in zip(self.methods, self.smoothing):
            resolve_smoothing(spec, _method_alpha(method, self.alpha))
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        _stream_words(self.seed, ())  # derive_rng's seed domain, [0, 2**64)
        # a numpy scalar would carry its dtype into the noise scale and every cache key
        for f in fields(self):
            object.__setattr__(self, f.name, _plain(getattr(self, f.name)))

    def as_dict(self) -> dict:
        """Every field by name, tuples as lists; the fields hold Python scalars only."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)}


def _plain(value):
    """``value`` with each numpy scalar as Python's int, float, bool or str; a list as a tuple."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class _CleanCell:
    """The replication-independent part of a dataset: read-only, shared by replications."""

    f_true: np.ndarray
    kernel: KernelSpec
    blurred: np.ndarray
    noise_scale: float  # sigma 2^(-alpha/2)
    noise: NoiseModel


# f and K*f depend on the signal and the kernel's value alone, so cells that differ only in
# alpha, SNR, seed, noise kind or M share them: the 60-cell grid holds 4 entries (one kernel)
@lru_cache(maxsize=16)
def _clean_signal(signal: str, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (f_true, K*f) of a lower-case signal name on the kernel's grid."""
    f_true = make_signal(signal, kernel.n)
    blurred = blur(f_true, kernel)
    for values in (f_true, blurred):
        values.setflags(write=False)
    return f_true, blurred


def _clean_cell(config: ExperimentConfig) -> _CleanCell:
    kernel = gamma_kernel(config.n, shape=config.nu, scale=config.kernel_scale)
    f_true, blurred = _clean_signal(config.signal.lower(), kernel)
    sigma = calibrate_sigma(blurred, config.snr_db)
    return _CleanCell(
        f_true=f_true,
        kernel=kernel,
        blurred=blurred,
        noise_scale=sigma * 2.0 ** (-config.alpha / 2.0),
        noise=NoiseModel(alpha=config.alpha, kind=config.noise_kind, seed=config.seed),
    )


def _observations(cell: _CleanCell, replications) -> np.ndarray:
    """(B, n) stack of the replications' observations, row b from replication b's own stream."""
    y = np.empty((len(replications), cell.f_true.shape[0]))
    for row, replication in zip(y, replications):
        cell.noise._sample_into(row, replication)
    y *= cell.noise_scale
    y += cell.blurred
    _check_finite(y, "observations")
    return y


def _noisy_problem(cell: _CleanCell, replication: int) -> DeconvolutionProblem:
    y = _observations(cell, [replication])[0]
    return DeconvolutionProblem(observations=y, kernel=cell.kernel, alpha=cell.noise.alpha)


def generate_dataset(config: ExperimentConfig, replication: int = 0):
    """One synthetic dataset: observations y_i = (k*f)(t_i) + sigma 2^(-alpha/2) e_i.

    Returns (problem, f_true).  Deterministic given (config, replication): the
    noise stream derives from (config.seed, replication).
    """
    cell = _clean_cell(config)
    return _noisy_problem(cell, replication), cell.f_true
