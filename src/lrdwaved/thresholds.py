"""Per-level hard thresholds, their smoothing specs and the theoretical fine resolution level.

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
from .meyer import _check_levels

__all__ = [
    "ThresholdPolicy",
    "c_n",
    "fine_level_theoretical",
    "build_policy",
]

DEFAULT_COARSE_LEVEL = 3
# each method's default smoothing spec, eta for IID and xi for LRD; its keys name the methods
DEFAULT_SMOOTHING = {"iid": "sqrt6", "lrd": "sqrt2alpha"}


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

    ``n`` must be the kernel's grid length.  ``variance_table`` is not read;
    it goes with ``VarianceTable``.
    """
    _check_smoothing(smoothing)
    if not (math.isfinite(sigma_hat) and sigma_hat > 0):
        raise ValueError(f"noise scale estimate must be finite and positive, got {sigma_hat}")
    if n != kernel.n:
        raise ValueError(f"grid length n={n} disagrees with the kernel's length {kernel.n}")
    _check_levels(n, j0, j1)
    levels = range(j0, j1 + 1)
    lambdas = {j: _lambda(method, smoothing, j, kernel, alpha, sigma_hat) for j in levels}
    return ThresholdPolicy(method, smoothing, sigma_hat, _method_alpha(method, alpha), n, lambdas)


def _lambda(method: str, smoothing: float, j: int, kernel: KernelSpec, alpha: float, sigma_hats):
    """lambda_j = smoothing * tau_j * (sigma_hat * c_n) at the method's alpha; one per sigma_hat."""
    a = _method_alpha(method, alpha)
    return smoothing * _tau(method, j, kernel, a) * (sigma_hats * c_n(kernel.n, a))


def _check_smoothing(smoothing: float, what: str = "smoothing constant") -> None:
    """Raise unless a smoothing value is finite and positive; ``what`` names it in the message."""
    if not math.isfinite(smoothing):
        raise ValueError(f"{what} must be finite, got {smoothing}")
    if smoothing <= 0:
        raise ValueError(f"{what} must be positive, got {smoothing}")


def resolve_smoothing(spec: str | float, alpha: float) -> float:
    """Map a smoothing spec ("sqrt6", "sqrtalpha", "sqrt2alpha" or a number)."""
    if isinstance(spec, (int, float)):
        value = float(spec)
    else:
        key = spec.lower()
        if key == "sqrt6":
            value = math.sqrt(6.0)
        elif key == "sqrtalpha":
            value = math.sqrt(alpha)
        elif key == "sqrt2alpha":
            value = math.sqrt(2.0 * alpha)
        else:
            try:
                value = float(spec)
            except ValueError:
                raise ValueError(f"unknown smoothing spec {spec!r}") from None
    _check_smoothing(value, "smoothing")
    return value


def _method_alpha(method: str, alpha: float) -> float:
    """The dependence level ``method`` assumes on data at ``alpha``: alpha for LRD, 1 for IID."""
    if method not in DEFAULT_SMOOTHING:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(DEFAULT_SMOOTHING)}")
    return alpha if method == "lrd" else 1.0


# the one tau cache: at most 256 (method, level, kernel, alpha) entries, each holding its
# kernel; the 60-cell grid at n=4096 fills at most 48 (5 LRD alphas and IID, levels 3-10)
@lru_cache(maxsize=256)
def _tau(method: str, j: int, kernel: KernelSpec, alpha: float) -> float:
    """``method``'s tau_j at its ``_method_alpha``: LRD tau_{alpha,j}, IID the WaveD tau_j."""
    return waved_tau_level(j, kernel) if method == "iid" else tau_level(j, kernel, alpha)
