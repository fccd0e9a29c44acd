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
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .covariance import KernelSpec, VarianceTable, tau_level, waved_tau_level
from .meyer import _check_levels
from .noise import _check_alpha

__all__ = [
    "ThresholdPolicy",
    "c_n",
    "fine_level_theoretical",
    "build_policy",
]

DEFAULT_COARSE_LEVEL = 3
# each named smoothing spec as a function of the method's alpha
_SMOOTHING_SPECS = {"sqrt6": lambda alpha: math.sqrt(6.0), "sqrtalpha": math.sqrt,
                    "sqrt2alpha": lambda alpha: math.sqrt(2.0 * alpha)}
# the one method table, keyed by method name: each row's smoothing flag, its default spec, and
# whether it assumes the data's alpha (or alpha = 1), which sets tau_j, c_n and the stopping rule
_Method = NamedTuple("_Method", [("flag", str), ("default", str), ("assumes_alpha", bool)])
_METHODS = {"iid": _Method("eta", "sqrt6", False), "lrd": _Method("xi", "sqrt2alpha", True)}
DEFAULT_SMOOTHING = {name: row.default for name, row in _METHODS.items()}  # by method name


def c_n(n: int, alpha: float) -> float:
    """Sample-size factor sqrt(n^-alpha log n), natural log."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    alpha = _check_alpha(alpha)
    return math.sqrt(n ** (-alpha) * math.log(n))


def fine_level_theoretical(n: int, alpha: float, nu: float) -> int:
    """j1 with 2^j1 = (n^alpha / log n)^(1/(alpha + 2 nu)), floored."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    alpha = _check_alpha(alpha)
    _check_nu(nu)
    value = (n**alpha / math.log(n)) ** (1.0 / (alpha + 2.0 * nu))
    return int(math.floor(math.log2(value)))


def _check_nu(nu: float) -> None:
    """Raise unless the degree of ill-posedness nu is finite and nonnegative; NaN is not."""
    if not nu >= 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    _check_number(nu, "nu")


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
    _check_positive(smoothing, "smoothing constant")
    _check_sigma_hats(sigma_hat)
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


def _check_number(value: float, what: str) -> None:
    """The one finite-number rule: raise unless ``value`` is finite; ``what`` names it."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


def _check_positive(value: float, what: str) -> None:
    """Raise unless ``value`` is finite and positive; ``what`` names it in the message."""
    _check_number(value, what)
    if value <= 0:
        raise ValueError(f"{what} must be positive, got {value}")


def _check_sigma_hats(sigma_hats) -> np.ndarray:
    """``sigma_hats`` (one or an array) as floats, under the one rule: finite and positive."""
    values = np.asarray(sigma_hats, dtype=float)
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        got = float(values[bad][0])
        raise ValueError(f"noise scale estimate must be finite and positive, got {got}")
    return values


def resolve_smoothing(spec: str | float, alpha: float) -> float:
    """Map a smoothing spec (a name in ``_SMOOTHING_SPECS``, a numeric string or a real number)."""
    if isinstance(spec, str) and spec.lower() in _SMOOTHING_SPECS:
        value = _SMOOTHING_SPECS[spec.lower()](alpha)
    else:
        try:  # a numeric string or a real number only: float() alone takes bytes and arrays too
            value = float(spec if isinstance(spec, (str, numbers.Real)) else None)
        except (TypeError, ValueError):
            raise ValueError(f"unknown smoothing spec {spec!r}") from None
    _check_positive(value, "smoothing")
    return value


def _method_alpha(method: str, alpha: float) -> float:
    """The dependence level ``method`` assumes on data at ``alpha``: alpha for LRD, 1 for IID."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(_METHODS)}")
    return _check_alpha(alpha) if _METHODS[method].assumes_alpha else 1.0


# the one tau cache: at most 256 (method, level, kernel, alpha) entries, each holding its
# kernel; the 60-cell grid at n=4096 fills at most 48 (5 LRD alphas and IID, levels 3-10)
@lru_cache(maxsize=256)
def _tau(method: str, j: int, kernel: KernelSpec, alpha: float) -> float:
    """``method``'s tau_j at its ``_method_alpha``: LRD tau_{alpha,j}, IID the WaveD tau_j."""
    dependent = _METHODS[method].assumes_alpha
    return tau_level(j, kernel, alpha) if dependent else waved_tau_level(j, kernel)
