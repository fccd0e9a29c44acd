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
per level j-1, j, j+1; the pairwise ``z_cov`` is kept as the dense oracle the
folds are tested against.  The classical i.i.d. variant uses the kernel
magnitudes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .meyer import _band_fold, band_set, psi_hat

__all__ = [
    "KernelSpec",
    "VarianceTable",
    "fbm_spectral_constant",
    "z_cov",
    "z_var",
    "tau_level",
    "waved_tau_level",
    "sigma_scale",
]


@dataclass(frozen=True)
class KernelSpec:
    """Fourier coefficients of a real convolution kernel on the length-n grid.

    ``fourier`` is aligned with FFT indexing (entry l holds the coefficient of
    frequency l, negatives wrapped).  ``dip`` is the degree of ill-posedness
    when known analytically.
    """

    fourier: np.ndarray = field(repr=False)
    dip: float | None = None

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.fourier)):
            raise ValueError("kernel Fourier coefficients must be finite (found NaN or inf)")

    @property
    def n(self) -> int:
        return self.fourier.shape[0]

    def coefficient(self, ell) -> np.ndarray:
        """K_hat at signed integer frequencies (wrapped into FFT order)."""
        idx = np.asarray(ell, dtype=int) % self.n
        return self.fourier[idx]

    def validate_band(self, j: int) -> np.ndarray:
        """Kernel coefficients over band_set(j); raises if any vanishes."""
        ells = band_set(j).frequencies
        if np.max(np.abs(ells)) >= self.n // 2:
            raise ValueError(
                f"band of level {j} exceeds representable frequencies for n={self.n}"
            )
        coeffs = self.coefficient(ells)
        dead = np.abs(coeffs) == 0.0
        if np.any(dead):
            ell = int(ells[np.argmax(dead)])
            raise ValueError(
                f"kernel Fourier coefficient vanishes at frequency {ell} (level {j})"
            )
        return coeffs


def fbm_spectral_constant(hurst: float) -> float:
    """C_H = Gamma(2H+1) sin(pi H) (2 pi)^(1-2H); equals 1 at H = 1/2."""
    if not 0.5 <= hurst < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {hurst}")
    return math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) * (2.0 * math.pi) ** (
        1.0 - 2.0 * hurst
    )


def _support_levels(omega: int) -> range:
    """Levels j with psi_hat(omega 2^-j) != 0, i.e. |omega| in band_set(j)."""
    a = abs(omega)
    # band membership: 2^j//3 + 1 <= a <= 2^(j+2)//3
    lo = max(int(math.floor(math.log2(3.0 * a / 4.0))) - 1, 0)
    hi = int(math.ceil(math.log2(3.0 * a))) + 1
    levels = []
    for j in range(lo, hi + 1):
        if 2**j // 3 + 1 <= a <= 2 ** (j + 2) // 3:
            levels.append(j)
    return range(levels[0], levels[-1] + 1) if levels else range(0)


def z_cov(omega: int, ell: int, hurst: float) -> complex:
    """Covariance of the Fourier-domain noise at integer frequencies.

    Closed form: for each level j whose band contains both frequencies, the
    shift sum collapses to 2^j when 2^j divides ell - omega and to 0
    otherwise, leaving at most three contributing levels.
    """
    omega = int(omega)
    ell = int(ell)
    if omega == 0 or ell == 0:
        raise ValueError("frequencies must be nonzero")
    acc = 0.0 + 0.0j
    for j in _support_levels(omega):
        if (ell - omega) % 2**j != 0:
            continue
        b = complex(psi_hat(ell / 2**j))
        if b == 0:
            continue
        a = complex(psi_hat(omega / 2**j))
        acc += a * np.conj(b)
    const = fbm_spectral_constant(hurst)
    return const * abs(omega * ell) ** (0.5 - hurst) * acc


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
    of z_cov over band_set(j) weighted by conj(Psi_hat[l]) / K_hat[l].  The
    level sum inside z_cov turns it into residue-class folds,

        tau^2 = C_H sum_{j'} sum_r |sum_{l in band j, l = r mod 2^j'} a_l psi_hat(l 2^-j')|^2,
        a_l = 2^(-j/2) psi_hat(l 2^-j) |l|^(1/2 - H) / conj(K_hat[l]),

    over j' in {j-1, j, j+1}: no other level's band meets band j.  A sum of
    squares, so real and nonnegative by construction; z_cov is the dense
    oracle it is tested against.  The shift phase exp(-2 pi i l k 2^-j) is
    constant on every fold class, whose members differ by multiples of 2^j
    (at level j-1 the contributing members differ by exactly 2^j), so tau
    does not depend on k.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    hurst = 1.0 - alpha / 2.0
    coeffs = kernel.validate_band(j)
    ells = band_set(j).frequencies
    a = 2.0 ** (-j / 2.0) * psi_hat(ells / 2**j) * np.abs(ells) ** (0.5 - hurst) / np.conj(coeffs)
    tau2 = 0.0
    for level in range(max(j - 1, 0), j + 2):
        z = _band_fold(a * psi_hat(ells / 2**level), ells, 2**level)
        tau2 += float(np.sum(z.real**2 + z.imag**2))
    tau2 *= fbm_spectral_constant(hurst)
    if not (math.isfinite(tau2) and tau2 > 0.0):
        raise ValueError(f"tau^2 must be finite and positive, got {tau2:.3e} at level {j}")
    return math.sqrt(tau2)


def waved_tau_level(j: int, kernel: KernelSpec, *, verbatim: bool = False) -> float:
    """Classical i.i.d. per-level scale from the kernel magnitudes.

    Default orientation (variance-faithful): the root mean of |K_hat|^(-2)
    over the band, so tau_j grows as the kernel decays.  ``verbatim=True``
    flips the exponent to the published form, which shrinks with
    ill-posedness instead; both are exposed because the source of the default
    is the established WaveD scaling.
    """
    coeffs = kernel.validate_band(j)
    mean_inv_sq = np.mean(np.abs(coeffs) ** -2.0)
    if verbatim:
        return float(mean_inv_sq**-0.5)
    return float(mean_inv_sq**0.5)


def sigma_scale(j: int, nu: float, alpha: float) -> float:
    """Level-dependent scale 2^(-j (1 - alpha - 2 nu) / 2), unit constant."""
    if j < 0:
        raise ValueError(f"level must be nonnegative, got {j}")
    return float(2.0 ** (-j * (1.0 - alpha - 2.0 * nu) / 2.0))


@dataclass
class VarianceTable:
    """Cached tau_{alpha,j} values for one (kernel, alpha) pair.

    ``build_policy`` reuses a table whose alpha and kernel coefficients equal
    the requested ones by value, so one table serves every replication of a
    cell even though each replication builds its own kernel object.
    """

    kernel: KernelSpec
    alpha: float
    taus: dict[int, float] = field(default_factory=dict)

    def tau(self, j: int) -> float:
        if j not in self.taus:
            self.taus[j] = tau_level(j, self.kernel, self.alpha)
        return self.taus[j]

    @classmethod
    def build(cls, kernel: KernelSpec, alpha: float, levels) -> "VarianceTable":
        table = cls(kernel=kernel, alpha=alpha)
        for j in levels:
            table.tau(j)
        return table
