"""Monte Carlo benchmark harness and the rate-of-convergence experiment."""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .estimator import _block_pass
from .meyer import _spectra
from .noise import _check_alpha, derive_rng
from .signals import ExperimentConfig, _clean_cell, _observations
from .thresholds import DEFAULT_SMOOTHING, _check_nu, _method_alpha, resolve_smoothing

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
    """CPUs this process may run on: its affinity mask, or 1 on a platform without one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _share_blocks(run_block, blocks: list[range], done: np.ndarray) -> None:
    """Run ``blocks`` on this process and one child helper, marking each finished one done.

    The block indices wait in a pipe as a queue of 4-byte messages, written
    with one non-blocking write and the write end closed before the fork, so
    after it no process writes to the pipe.  A process claims a block by
    reading one message; a shorter read means the queue is empty, and with
    no writer left that read never blocks, even when the other process died
    holding an index.  A process whose block fails reads every message left,
    so neither starts another.  The helper leaves only through
    ``os._exit``: it never returns into the caller's stack nor flushes its
    stdio.  It is reaped, and the pipe closed, before this returns or raises;
    an interrupted or failing caller kills it first.  A block that failed,
    that no one reached, that a dead helper held or that the pipe could not
    hold is left undone; so is every block when the pipe, its fill or the
    fork cannot be made.
    """
    try:
        fd_in, fd_out = os.pipe()
    except OSError:  # no descriptor to spare: every block is left to the caller
        return

    def work() -> None:
        while len(index := os.read(fd_in, 4)) == 4:
            k = int.from_bytes(index, "little")
            try:
                run_block(blocks[k])
            except Exception:
                os.read(fd_in, 4 * len(blocks))  # empty the queue
                return
            done[k] = True  # only after the block's columns are written

    try:
        try:
            os.set_blocking(fd_out, False)  # a full pipe takes a prefix, never waits
            os.write(fd_out, np.arange(len(blocks), dtype="<u4").tobytes())
        except OSError:  # every block is left to the caller
            return
        finally:
            os.close(fd_out)
        try:
            pid = os.fork()
        except OSError:  # no process to spare: every block is left to the caller
            return
        if pid == 0:
            try:
                work()
            finally:
                os._exit(0)
        try:
            work()
            os.waitpid(pid, 0)
        except BaseException:  # the helper is not reaped yet: even an interrupted wait lands here
            os.kill(pid, signal.SIGKILL)  # a helper that has already exited ignores it
            os.waitpid(pid, 0)
            raise
    finally:
        os.close(fd_in)


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

    Every cell keeps its results and a done flag per block in one anonymous
    mapping.  A cell of two or more blocks runs its blocks on the calling
    process and one helper it forks for this call, which shares that mapping,
    when the process may use two or more CPUs and runs no other Python thread
    (forking beside a live thread can deadlock the helper).  Both processes
    claim blocks from one queue of block indices, filled before the fork
    (see ``_share_blocks``); a block reads only its own streams and writes
    only its own columns, so every output byte is the serial run's.
    Otherwise the cell runs serially on the caller: a one-block cell, a
    process pinned to one CPU, a platform without an affinity call, or a
    process with another thread alive.  The helper is reaped before the
    call returns or raises.  Once a block fails neither process starts
    another; the caller then runs every block not marked done, in block
    order, and a failing block is rerun one replication at a time to name
    the replication, so the error is the one a serial run meets first.

    ``threads`` is not read: the helper depends on the block count, the CPUs
    and the live threads alone.  It stays while callers pass it.
    """
    n_methods = len(config.methods)
    blocks = [range(start, min(start + BLOCK, config.replications))
              for start in range(0, config.replications, BLOCK)]
    # mses, levels, kept and one done flag per block
    count = n_methods * config.replications
    shared = mmap.mmap(-1, 3 * 8 * count + len(blocks))
    mses, levels, kept = (
        np.frombuffer(shared, dtype, count, 8 * count * k).reshape(n_methods, -1)
        for k, dtype in enumerate((np.float64, np.int64, np.float64))
    )
    done = np.frombuffer(shared, np.bool_, len(blocks), 3 * 8 * count)

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
        # rows b*m .. b*m + m-1 of the pass are replication reps[b] under each method
        sq = np.subtract(block.estimates, f_true)
        sq *= sq
        cols, shape = slice(reps[0], reps[-1] + 1), (len(reps), n_methods)
        mses[:, cols] = sq.mean(axis=1).reshape(shape).T
        levels[:, cols] = block.levels.reshape(shape).T
        kept[:, cols] = block.kept.reshape(shape).T

    if len(blocks) > 1 and _cpus() >= 2 and threading.active_count() == 1:
        _share_blocks(run_block, blocks, done)
    for k, reps in enumerate(blocks):
        if done[k]:
            continue
        # the rows of a pass are independent, so a replication that failed
        # fails again alone: a failed block is rerun one replication at a time
        try:
            run_block(reps)
        except Exception as exc:
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
    # each comparison is written so that NaN fails it
    if not p > 1:
        raise ValueError(f"loss exponent p must exceed 1, got {p}")
    if not pi >= 1:
        raise ValueError(f"Besov integrability pi must be >= 1, got {pi}")
    _check_alpha(alpha)
    _check_nu(nu)
    lower = 1.0 / pi - nu - alpha / 2.0
    if not s > lower:
        raise ValueError(f"need smoothness s > 1/pi - nu - alpha/2 = {lower:.4g}, got {s}")
    for name, value in (("s", s), ("p", p), ("pi", pi)):
        if math.isinf(value):
            raise ValueError(f"{name} must be finite, got {value}")

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
