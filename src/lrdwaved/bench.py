"""Monte Carlo benchmark harness and the rate-of-convergence experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import _block_pass
from .noise import derive_rng
from .signals import ExperimentConfig, _clean_cell, _noisy_problem, resolve_smoothing
from .thresholds import _method_alpha

__all__ = [
    "MethodResult",
    "BenchResult",
    "RateResult",
    "run_benchmark",
    "rate_exponent",
    "run_rate_experiment",
]


@dataclass
class MethodResult:
    """Per-method summary over all replications."""

    method: str
    smoothing_spec: str
    mean_mse: float
    se: float
    typical_fine_level: int
    mean_kept: float
    fine_levels: np.ndarray = field(repr=False)
    mses: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "smoothing": self.smoothing_spec,
            "mean_mse": self.mean_mse,
            "se": self.se,
            "typical_fine_level": self.typical_fine_level,
            "mean_kept": self.mean_kept,
        }


@dataclass
class BenchResult:
    """Benchmark output for one configuration."""

    config: ExperimentConfig
    methods: list[MethodResult]

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "methods": [m.as_dict() for m in self.methods],
        }


def _mode(values: np.ndarray) -> int:
    uniq, counts = np.unique(values, return_counts=True)
    return int(uniq[np.argmax(counts)])


# replications per stacked estimator pass; the last block of a run may be shorter
BLOCK = 8


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> BenchResult:
    """Replicate the simulation protocol and report empirical MSE per method.

    Each replication shares one dataset across methods (paired comparison).
    Replications run serially in blocks of ``BLOCK``, each block's methods as
    one stacked estimator pass; the stopping-rule noise stream derives from
    (seed, replication, method index), so results are independent of the
    blocking.  The signal, kernel, blur and noise scale are built once per
    call; a replication draws only its noise, giving the same dataset as
    ``generate_dataset(config, rep)``.

    ``threads`` is not read: the replication work holds the GIL, so threads
    over blocks gave no speed-up.  It stays while callers pass ``threads=1``.
    """
    n_methods = len(config.methods)
    mses = np.empty((n_methods, config.replications))
    levels = np.empty((n_methods, config.replications), dtype=int)
    kept = np.empty((n_methods, config.replications))

    cell = _clean_cell(config)
    f_true = cell.f_true
    rows = [
        (method, resolve_smoothing(spec, _method_alpha(method, config.alpha)))
        for method, spec in zip(config.methods, config.smoothing)
    ]

    def run_block(reps: range) -> None:
        problems = [_noisy_problem(cell, rep) for rep in reps]
        rngs = [[derive_rng(config.seed, rep, i) for i in range(n_methods)] for rep in reps]
        block = _block_pass(problems, rows, rngs)
        # row b*m + i of the pass is replication reps[b] under method i; the
        # errors are squared in the estimates' own buffer, which no one else reads
        sq = block.estimates
        sq -= f_true
        sq *= sq
        cols, shape = slice(reps[0], reps[-1] + 1), (len(reps), n_methods)
        mses[:, cols] = np.mean(sq, axis=1).reshape(shape).T
        levels[:, cols] = block.levels.reshape(shape).T
        kept[:, cols] = block.kept.reshape(shape).T

    for start in range(0, config.replications, BLOCK):
        reps = range(start, min(start + BLOCK, config.replications))
        try:
            run_block(reps)
        except Exception as exc:
            # the rows of a pass are independent, so the replication that
            # failed fails again alone: rerun the block one by one to name it
            for rep in reps:
                try:
                    run_block(range(rep, rep + 1))
                except Exception as alone:
                    raise RuntimeError(
                        f"replication {rep} (seed {config.seed}) failed: {alone}"
                    ) from alone
            raise RuntimeError(
                f"replications {reps[0]}-{reps[-1]} (seed {config.seed}) failed: {exc}"
            ) from exc

    results = []
    for i, (method, smooth_spec) in enumerate(zip(config.methods, config.smoothing)):
        m = mses[i]
        results.append(
            MethodResult(
                method=method,
                smoothing_spec=str(smooth_spec),
                mean_mse=float(m.mean()),
                se=float(m.std(ddof=1) / math.sqrt(config.replications))
                if config.replications > 1
                else 0.0,
                typical_fine_level=_mode(levels[i]),
                mean_kept=float(kept[i].mean()),
                fine_levels=levels[i].copy(),
                mses=m.copy(),
            )
        )
    return BenchResult(config=config, methods=results)


def rate_exponent(s: float, p: float, nu: float, alpha: float, pi: float) -> float:
    """Convergence-rate exponent rho over the Besov scale, dense or sparse.

    Dense branch when s >= (2 nu + alpha)(p / (2 pi) - 1/2); the sparse
    branch additionally requires p > 2 / (2 nu + alpha) to be well defined.
    """
    if p <= 1:
        raise ValueError(f"loss exponent p must exceed 1, got {p}")
    if pi < 1:
        raise ValueError(f"Besov integrability pi must be >= 1, got {pi}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    lower = 1.0 / pi - nu - alpha / 2.0
    if s <= lower:
        raise ValueError(f"need smoothness s > 1/pi - nu - alpha/2 = {lower:.4g}, got {s}")

    boundary = (2.0 * nu + alpha) * (p / (2.0 * pi) - 0.5)
    if s >= boundary:
        return alpha * s * p / (2.0 * s + 2.0 * nu + alpha)
    # the sparse region is nonempty exactly when p > 2/(2 nu + alpha)
    if p <= 2.0 / (2.0 * nu + alpha):
        raise ValueError(
            f"sparse phase requires p > 2/(2 nu + alpha) = {2.0 / (2.0 * nu + alpha):.4g}"
        )
    return alpha * p * (s - 1.0 / pi + 1.0 / p) / (2.0 * s + 2.0 * nu + alpha - 2.0 / pi)


@dataclass
class RateResult:
    """Empirical log-log MSE slope over a grid of sample sizes."""

    n_grid: tuple[int, ...]
    mean_mse: np.ndarray
    slope: float
    theoretical_exponent: float

    def as_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "mean_mse": [float(v) for v in self.mean_mse],
            "slope": self.slope,
            "theoretical_exponent": self.theoretical_exponent,
        }


def run_rate_experiment(
    signal: str,
    method: str,
    alpha: float,
    nu: float,
    n_grid,
    replications: int,
    *,
    smoothing: str = "sqrt2alpha",
    snr_db: float = 30.0,
    seed: int = 0,
    noise_kind: str = "farima",
    smoothness: float = 0.5,
) -> RateResult:
    """Mean MSE across a grid of n and the fitted slope against log(n/log n).

    The theoretical exponent is the p = 2 rate at the given Besov smoothness,
    reported for comparison only.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2:
        raise ValueError("need at least two grid sizes")
    # every config is built, and so checked, before any replication runs
    configs = [
        ExperimentConfig(signal, n, alpha, nu, snr_db, (method,), (smoothing,), replications,
                         seed + idx, noise_kind)
        for idx, n in enumerate(n_grid)
    ]
    means = np.array([run_benchmark(c).methods[0].mean_mse for c in configs])
    x = np.log(np.asarray(n_grid, dtype=float) / np.log(n_grid))
    slope, _ = np.polyfit(x, np.log(means), 1)
    rho = rate_exponent(smoothness, 2.0, nu, alpha, 2.0)
    return RateResult(
        n_grid=n_grid,
        mean_mse=means,
        slope=float(slope),
        theoretical_exponent=rho,
    )
