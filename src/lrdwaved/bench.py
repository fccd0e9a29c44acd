"""Monte Carlo benchmark harness and the rate-of-convergence experiment."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .estimator import _block_pass
from .meyer import _spectra
from .noise import derive_rng
from .signals import ExperimentConfig, _clean_cell, _observations, resolve_smoothing
from .thresholds import DEFAULT_SMOOTHING, _method_alpha

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
    """The most frequent of nonnegative integers, the smallest among ties."""
    return int(np.bincount(values).argmax())


# replications per stacked estimator pass; the last block of a run may be shorter
BLOCK = 8


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> BenchResult:
    """Replicate the simulation protocol and report empirical MSE per method.

    Each replication shares one dataset across methods (paired comparison).
    Replications run in blocks of ``BLOCK``, each block's methods as one
    stacked estimator pass; the stopping-rule noise stream derives from
    (seed, replication, method index), so results are independent of the
    blocking.  The signal, kernel, blur and noise scale are built once per
    call; a block draws each replication's noise into its row of one (B, n)
    stack, row b the dataset ``generate_dataset(config, rep)`` of its
    replication.

    A cell of two or more blocks, in a process that may use two or more
    CPUs, runs its blocks on the calling thread and one helper thread: both
    take the next block from one iterator, and a block reads only its own
    streams and writes only its own columns, so every output byte is the
    serial run's.  The overlap comes from the FFTs, Philox fills and array
    loops, which release the GIL.  A one-block cell, or a process pinned to
    one CPU, runs serially and starts no thread.  No thread outlives the call.
    Once a block fails no thread starts another, and the lowest failing
    block is rerun one replication at a time to name the replication.

    ``threads`` is not read: the helper depends on the block count and the
    CPUs alone.  It stays while callers pass it.
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
        rngs = [[derive_rng(config.seed, rep, i) for i in range(n_methods)] for rep in reps]
        # the pass holds the only reference to the block's spectra and frees them before synthesis
        block = _block_pass(
            _spectra(_observations(cell, reps)), cell.kernel, config.alpha, rows, rngs
        )
        # rows b*m .. b*m + m-1 of the pass are replication reps[b] under each method;
        # scored one replication at a time, so the squares never span the whole stack
        for b, rep in enumerate(reps):
            sq = np.subtract(block.estimates[b * n_methods : (b + 1) * n_methods], f_true)
            sq *= sq
            mses[:, rep] = sq.mean(axis=1)
        cols, shape = slice(reps[0], reps[-1] + 1), (len(reps), n_methods)
        levels[:, cols] = block.levels.reshape(shape).T
        kept[:, cols] = block.kept.reshape(shape).T

    lock, stopped = threading.Lock(), False
    blocks = (range(start, min(start + BLOCK, config.replications))
              for start in range(0, config.replications, BLOCK))
    failures: dict[int, tuple[range, Exception]] = {}  # by the failed block's first replication

    def work() -> None:
        """Run the next block until none is left or one has failed, on any thread."""
        while True:
            with lock:
                reps = None if stopped or failures else next(blocks, None)
            if reps is None:
                return
            try:
                run_block(reps)
            except Exception as exc:
                with lock:
                    failures[reps.start] = (reps, exc)

    if config.replications <= BLOCK or _cpus() < 2:
        work()
    else:
        helper = threading.Thread(target=work, name="lrdwaved-blocks")
        helper.start()
        try:
            work()
        finally:
            with lock:  # an interrupted caller lets the helper finish only the block it holds
                stopped = True
            helper.join()

    if failures:
        # every block below a failed one has run to its end, so the lowest failure
        # is the one a serial run meets first; the rows of a pass are independent,
        # so the replication that failed fails again alone: rerun it one by one
        reps, exc = failures[min(failures)]
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

    means, mean_kept = mses.mean(axis=1), kept.mean(axis=1)
    ses = np.zeros(n_methods)
    if config.replications > 1:
        ses = mses.std(axis=1, ddof=1) / math.sqrt(config.replications)
    results = [
        MethodResult(method, str(spec), float(means[i]), float(ses[i]), _mode(levels[i]),
                     float(mean_kept[i]), levels[i].copy(), mses[i].copy())
        for i, (method, spec) in enumerate(zip(config.methods, config.smoothing))
    ]
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
    smoothing: str | None = None,
    snr_db: float = ExperimentConfig.snr_db,
    seed: int = ExperimentConfig.seed,
    noise_kind: str = ExperimentConfig.noise_kind,
    smoothness: float = 0.5,
) -> RateResult:
    """Mean MSE across a grid of n and the fitted slope against log(n/log n).

    The model keywords default to ``ExperimentConfig``'s fields, and
    ``smoothing`` to the method's ``DEFAULT_SMOOTHING`` spec, as ``rates``
    does.  The theoretical exponent is the p = 2 rate at the given Besov
    smoothness, reported for comparison only.
    """
    if smoothing is None:  # an unknown method is named by the config check below
        smoothing = DEFAULT_SMOOTHING.get(method)
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2:
        raise ValueError("need at least two grid sizes")
    # every config is built, and so checked, before any replication runs
    configs = [
        ExperimentConfig(
            signal=signal, n=n, alpha=alpha, nu=nu, snr_db=snr_db, methods=(method,),
            smoothing=(smoothing,), replications=replications, seed=seed + idx,
            noise_kind=noise_kind,
        )
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
