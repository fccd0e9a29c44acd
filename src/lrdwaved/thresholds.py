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

import numpy as np

from .covariance import KernelSpec, VarianceTable, _WavedTable

__all__ = [
    "ThresholdPolicy",
    "c_n",
    "fine_level_theoretical",
    "build_policy",
]

DEFAULT_COARSE_LEVEL = 3
DEFAULT_ETA = math.sqrt(6.0)


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
    alpha: float
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
    """Assemble lambda_j for levels j0..j1 using the per-level tau factors."""
    if smoothing <= 0:
        raise ValueError(f"smoothing constant must be positive, got {smoothing}")
    if j0 > j1:
        raise ValueError(f"need j0 <= j1, got ({j0}, {j1})")
    if method not in ("lrd", "iid"):
        raise ValueError(f"unknown method {method!r}")

    # the IID method calibrates at alpha = 1 with the classical tau_j
    table_type, tau_alpha = (VarianceTable, alpha) if method == "lrd" else (_WavedTable, 1.0)
    table = variance_table
    if (
        type(table) is not table_type
        or table.alpha != tau_alpha
        or (table.kernel is not kernel and not np.array_equal(table.kernel.fourier, kernel.fourier))
    ):
        table = table_type(kernel=kernel, alpha=tau_alpha)
    factor = sigma_hat * c_n(n, tau_alpha)
    lambdas = {j: smoothing * table.tau(j) * factor for j in range(j0, j1 + 1)}
    return ThresholdPolicy(
        method=method,
        smoothing=smoothing,
        sigma_hat=sigma_hat,
        alpha=alpha,
        n=n,
        lambdas=lambdas,
    )
