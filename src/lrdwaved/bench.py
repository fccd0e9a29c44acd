"""Monte Carlo benchmark harness and the rate-of-convergence experiment."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import VarianceTable, _WavedTable
from .estimator import _run_methods
from .noise import derive_rng
from .signals import ExperimentConfig, _clean_cell, _noisy_problem, resolve_smoothing

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
    Replications run in blocks of ``BLOCK``, each block's methods as one
    stacked estimator pass; the stopping-rule noise stream derives from
    (seed, replication, method index), so results are independent of the
    blocking, scheduling and thread count.  The signal, kernel, blur and
    noise scale are built once per call; a replication draws only its noise,
    giving the same dataset as ``generate_dataset(config, rep)``.
    """
    n_methods = len(config.methods)
    mses = np.empty((n_methods, config.replications))
    levels = np.empty((n_methods, config.replications), dtype=int)
    kept = np.empty((n_methods, config.replications))

    cell = _clean_cell(config)
    f_true = cell.f_true
    # every LRD method thresholds at config.alpha and the IID method at the
    # classical tau_j, so one tau table per calibration serves every method
    # and replication of the cell
    tables = {
        "lrd": VarianceTable(kernel=cell.kernel, alpha=config.alpha),
        "iid": _WavedTable(kernel=cell.kernel),
    }
    rows = [
        (method, resolve_smoothing(spec, config.alpha if method == "lrd" else 1.0), tables[method])
        for method, spec in zip(config.methods, config.smoothing)
    ]

    def run_block(reps: range) -> None:
        problems = [_noisy_problem(cell, rep) for rep in reps]
        rngs = [[derive_rng(config.seed, rep, i) for i in range(n_methods)] for rep in reps]
        for rep, (estimates, reports) in zip(reps, _run_methods(problems, rows, rngs)):
            sq = estimates - f_true
            sq *= sq
            mses[:, rep] = np.mean(sq, axis=1)
            for i, report in enumerate(reports):
                levels[i, rep] = report.fine_level_used
                kept[i, rep] = sum(report.kept_count.values())

    def one_block(reps: range) -> None:
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

    blocks = [
        range(start, min(start + BLOCK, config.replications))
        for start in range(0, config.replications, BLOCK)
    ]
    if threads <= 1:
        for block in blocks:
            one_block(block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_block, blocks))

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
    threads: int = 1,
) -> RateResult:
    """Mean MSE across a grid of n and the fitted slope against log(n/log n).

    The theoretical exponent is the p = 2 rate at the given Besov smoothness,
    reported for comparison only.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2:
        raise ValueError("need at least two grid sizes")
    means = []
    for idx, n in enumerate(n_grid):
        config = ExperimentConfig(
            signal=signal,
            n=n,
            alpha=alpha,
            nu=nu,
            snr_db=snr_db,
            methods=(method,),
            smoothing=(smoothing,),
            replications=replications,
            seed=seed + idx,
            noise_kind=noise_kind,
        )
        result = run_benchmark(config, threads=threads)
        means.append(result.methods[0].mean_mse)
    means = np.asarray(means)
    x = np.log(np.asarray(n_grid, dtype=float) / np.log(n_grid))
    slope, _ = np.polyfit(x, np.log(means), 1)
    rho = rate_exponent(smoothness, 2.0, nu, alpha, 2.0)
    return RateResult(
        n_grid=n_grid,
        mean_mse=means,
        slope=float(slope),
        theoretical_exponent=rho,
    )
