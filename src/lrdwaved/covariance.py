"""Fourier-domain covariance of the LRD noise and per-level variance factors.

For fractional Brownian motion with Hurst index H, the Fourier functionals
Z[l] = int_0^1 exp(-2 pi i l x) dB_H(x) have covariance

    Cov(Z[w], Z[l]) = C_H |w l|^(1/2 - H) * sum_j psi_hat(w 2^-j) conj(psi_hat(l 2^-j)),

where the sum runs over the (at most three) levels whose detail band contains
both frequencies and whose dyadic step divides l - w, and

    C_H = Gamma(2H + 1) sin(pi H) (2 pi)^(1 - 2H)

is the fBm spectral normalization (equal to 1 in the white-noise case
H = 1/2).  The constant makes the formula an exact variance, which a
quadrature oracle and Monte Carlo over discrete fGn confirm at desk scale.

The per-level factor tau_{alpha,j} propagates this covariance through the
deconvolution weights of one detail level and calibrates the LRD thresholds.
The divisibility condition makes it a sum of squared residue-class folds
(``meyer._band_fold``, the fold behind analysis and deconvolution), one fold
per level j-1, j, j+1.  The classical i.i.d. variant uses the kernel
magnitudes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .meyer import _band_fold, _check_finite, _check_grid, _detail_plan, _scale_plan, psi_hat
from .noise import _check_alpha, _check_hurst

__all__ = [
    "KernelSpec",
    "VarianceTable",
    "fbm_spectral_constant",
    "z_var",
    "tau_level",
    "waved_tau_level",
]


@dataclass(frozen=True)
class KernelSpec:
    """Fourier coefficients of a real convolution kernel on the length-n grid.

    ``fourier`` is aligned with FFT indexing (entry l holds the coefficient of
    frequency l, negatives wrapped) and kept as a read-only copy.  A kernel is
    a value: kernels with equal coefficients compare equal and hash alike.
    """

    fourier: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        fourier = np.array(self.fourier)
        fourier.setflags(write=False)
        object.__setattr__(self, "fourier", fourier)
        _check_finite(fourier, "kernel Fourier coefficients")

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return self is other or np.array_equal(self.fourier, other.fourier)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # computed once; + 0.0 hashes -0.0 as 0.0, to which it is equal
        return hash((np.asarray(self.fourier, dtype=complex) + 0.0).tobytes())

    @property
    def n(self) -> int:
        return self.fourier.shape[0]


# keyed by the kernel's value: deconvolution and both tau factors gather and check each band
# once; one kernel at n=4096 fills 9 entries (scale 3, levels 3-10)
@lru_cache(maxsize=64)
def _kernel_band(kernel: KernelSpec, j: int, scale: bool = False) -> np.ndarray:
    """Read-only K_hat over level j's detail (or scale) band, checked for the grid and zeros."""
    band = f"scale level {j}" if scale else f"level {j}"
    _check_grid(kernel.n, j, band)
    plan = (_scale_plan if scale else _detail_plan)(j, kernel.n)
    coeffs = kernel.fourier[plan.index]
    dead = np.abs(coeffs) < np.finfo(float).tiny  # a subnormal |K_hat| overflows 1/K_hat
    if np.any(dead):
        ell = int(plan.frequencies[np.argmax(dead)])
        raise ValueError(f"kernel Fourier coefficient vanishes at frequency {ell} ({band})")
    coeffs.setflags(write=False)
    return coeffs


def fbm_spectral_constant(hurst: float) -> float:
    """C_H = Gamma(2H+1) sin(pi H) (2 pi)^(1-2H); equals 1 at H = 1/2."""
    _check_hurst(hurst)
    return math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) * (2.0 * math.pi) ** (
        1.0 - 2.0 * hurst
    )


def z_var(ell, hurst: float):
    """Variance of the Fourier-domain noise: C_H |l|^(alpha - 1) exactly.

    Follows from the partition of unity, since phi_hat vanishes at nonzero
    integers.
    """
    ell = np.abs(np.asarray(ell, dtype=float))
    if np.any(ell == 0):
        raise ValueError("frequencies must be nonzero")
    out = fbm_spectral_constant(hurst) * ell ** (1.0 - 2.0 * hurst)
    if out.ndim == 0:
        return float(out)
    return out


def tau_level(j: int, kernel: KernelSpec, alpha: float) -> float:
    """LRD variance factor tau_{alpha,j} (positive root), the same for every shift k.

    tau^2 is the variance of a deconvolved level-j coefficient, the double sum
    of Cov(Z[w], Z[l]) over band_set(j) weighted by conj(Psi_hat[l]) / K_hat[l].
    The level sum inside the covariance turns it into residue-class folds,

        tau^2 = C_H sum_{j'} sum_r |sum_{l in band j, l = r mod 2^j'} a_l psi_hat(l 2^-j')|^2,
        a_l = 2^(-j/2) psi_hat(l 2^-j) |l|^(1/2 - H) / conj(K_hat[l]),

    over j' in {j-1, j, j+1}: no other level's band meets band j.  A sum of
    squares, so real and nonnegative by construction.  The shift phase
    exp(-2 pi i l k 2^-j) is constant on every fold class, whose members
    differ by multiples of 2^j (at level j-1 the contributing members differ
    by exactly 2^j), so tau does not depend on k.
    """
    hurst = 1.0 - _check_alpha(alpha) / 2.0
    coeffs = _kernel_band(kernel, j)
    plan = _detail_plan(j, kernel.n)
    ells = plan.frequencies
    a = plan.synthesis * np.abs(ells) ** (0.5 - hurst) / np.conj(coeffs)
    tau2 = 0.0
    for level in range(max(j - 1, 0), j + 2):
        z = _band_fold(a * psi_hat(ells / 2**level), ells % 2**level, 2**level)
        tau2 += float(np.sum(z.real**2 + z.imag**2))
    tau2 *= fbm_spectral_constant(hurst)
    if not (math.isfinite(tau2) and tau2 > 0.0):
        raise ValueError(f"tau^2 must be finite and positive, got {tau2:.3e} at level {j}")
    return math.sqrt(tau2)


def waved_tau_level(j: int, kernel: KernelSpec) -> float:
    """Classical i.i.d. per-level scale from the kernel magnitudes.

    The root mean of |K_hat|^(-2) over the band (variance-faithful), so tau_j
    grows as the kernel decays: the established WaveD scaling.
    """
    return float(np.mean(np.abs(_kernel_band(kernel, j)) ** -2.0) ** 0.5)


@dataclass
class VarianceTable:
    """tau_{alpha,j} for one (kernel, alpha) pair, read from the value cache.

    Only the benchmark's composed loop builds these tables (and hands them to
    ``build_policy``, which reads the cache alone); the class, its export and
    that keyword go once the benchmark stops calling them.
    """

    kernel: KernelSpec
    alpha: float
    taus: dict[int, float] = field(default_factory=dict)

    def tau(self, j: int) -> float:
        from .thresholds import _tau  # thresholds imports this module

        if j not in self.taus:
            self.taus[j] = _tau("lrd", j, self.kernel, self.alpha)
        return self.taus[j]
