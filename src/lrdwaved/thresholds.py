"""Per-level hard thresholds and the theoretical fine resolution level.

Both methods share the shape lambda_j = smoothing * tau_j * c_n with natural
logarithms throughout:

* LRD:  lambda_j = xi  * tau_{alpha,j} * sigma_hat * sqrt(log n / n^alpha)
* IID:  lambda_j = eta * tau_j         * sigma_hat * sqrt(log n / n)

The estimated noise scale sigma_hat enters multiplicatively; the theoretical
sample factor c_n = sqrt(n^-alpha log n) is recovered with sigma_hat = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .covariance import KernelSpec, VarianceTable, tau_level, waved_tau_level

__all__ = [
    "ThresholdPolicy",
    "c_n",
    "fine_level_theoretical",
    "build_policy",
]

DEFAULT_COARSE_LEVEL = 3


def c_n(n: int, alpha: float) -> float:
    """Sample-size factor sqrt(n^-alpha log n), natural log."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.sqrt(n ** (-alpha) * math.log(n))


def fine_level_theoretical(n: int, alpha: float, nu: float) -> int:
    """j1 with 2^j1 = (n^alpha / log n)^(1/(alpha + 2 nu)), floored."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if nu < 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    value = (n**alpha / math.log(n)) ** (1.0 / (alpha + 2.0 * nu))
    return int(math.floor(math.log2(value)))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-level hard thresholds for one method."""

    method: str  # "lrd" | "iid"
    smoothing: float
    sigma_hat: float
    alpha: float  # the method's assumed alpha: the data's for LRD, 1 for IID
    n: int
    lambdas: dict[int, float]

    def lam(self, j: int) -> float:
        if j not in self.lambdas:
            raise KeyError(f"policy has no threshold for level {j}")
        return self.lambdas[j]


def build_policy(
    method: str,
    kernel: KernelSpec,
    n: int,
    alpha: float,
    sigma_hat: float,
    smoothing: float,
    j0: int,
    j1: int,
    *,
    variance_table: VarianceTable | None = None,
) -> ThresholdPolicy:
    """Assemble lambda_j for levels j0..j1 from the cached per-level tau factors.

    ``variance_table`` is not read; it goes with ``VarianceTable``.
    """
    if smoothing <= 0:
        raise ValueError(f"smoothing constant must be positive, got {smoothing}")
    if j0 > j1:
        raise ValueError(f"need j0 <= j1, got ({j0}, {j1})")
    assumed = _method_alpha(method, alpha)
    factor = sigma_hat * c_n(n, assumed)
    lambdas = {j: smoothing * _tau(method, j, kernel, assumed) * factor for j in range(j0, j1 + 1)}
    return ThresholdPolicy(method, smoothing, sigma_hat, assumed, n, lambdas)


def _method_alpha(method: str, alpha: float) -> float:
    """The dependence level ``method`` assumes on data at ``alpha``: alpha for LRD, 1 for IID."""
    if method not in ("lrd", "iid"):
        raise ValueError(f"unknown method {method!r}; choose from ('iid', 'lrd')")
    return alpha if method == "lrd" else 1.0


# the one tau cache: at most 256 (method, level, kernel, alpha) entries, each holding its
# kernel; the 60-cell grid at n=4096 fills at most 48 (5 LRD alphas and IID, levels 3-10)
@lru_cache(maxsize=256)
def _tau(method: str, j: int, kernel: KernelSpec, alpha: float) -> float:
    """``method``'s tau_j at its ``_method_alpha``: LRD tau_{alpha,j}, IID the WaveD tau_j."""
    return waved_tau_level(j, kernel) if method == "iid" else tau_level(j, kernel, alpha)
