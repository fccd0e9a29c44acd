"""Monte Carlo benchmark harness and the rate-of-convergence experiment."""

from __future__ import annotations

import contextlib
import fcntl
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
from .thresholds import DEFAULT_SMOOTHING, _check_nu, _check_number, _method_alpha
from .thresholds import resolve_smoothing

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


def _other_cpus() -> set[int]:
    """CPUs this process may use other than the one the calling thread runs on now.

    The current CPU is field 39 of ``/proc/thread-self/stat``, counted after
    the command name's closing parenthesis, since the name may hold spaces.
    Empty when the stat file cannot be read or parsed.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return set()
    return os.sched_getaffinity(0) - {cpu}


def _share_blocks(run_block, blocks: list, done: np.ndarray) -> None:
    """Run ``blocks`` on this process and one child helper, marking each finished one done.

    ``blocks`` is any list of units that ``run_block`` takes.  Their indices
    wait in a pipe as a queue of 4-byte messages, written with one
    non-blocking write and the write end closed before the fork, so after it
    no process writes to the pipe.  The pipe is first asked to hold every
    index (``F_SETPIPE_SZ``, within the system's limit for one pipe); where
    it cannot, it keeps its size and holds a prefix.  A process claims a
    unit by reading one message; a shorter read means the queue is empty,
    and with no writer left that read never blocks, even when the other
    process died holding an index.  A process whose unit fails reads every
    message left, so neither starts another.  The helper leaves only through ``os._exit``: it
    never returns into the caller's stack nor flushes its stdio.  It first
    moves itself off the CPU the caller ran on at the fork (``_other_cpus``),
    so the scheduler cannot keep both processes on one core for the whole
    call; the caller's own affinity is never changed, and a move the system
    refuses, or a CPU that cannot be read, leaves the helper where the fork
    put it.  It is reaped, and the pipe closed, before this returns or
    raises; an interrupted or failing caller kills it first.  A unit that
    failed, that no one reached, that a dead helper held or that the pipe
    could not hold is left undone; so is every unit when the pipe, its fill
    or the fork cannot be made.
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
        with contextlib.suppress(OSError, AttributeError):  # no such call: the default size
            fcntl.fcntl(fd_out, fcntl.F_SETPIPE_SZ, 4 * len(blocks))
        try:
            os.set_blocking(fd_out, False)  # a full pipe takes a prefix, never waits
            os.write(fd_out, np.arange(len(blocks), dtype="<u4").tobytes())
        except OSError:  # every block is left to the caller
            return
        finally:
            os.close(fd_out)
        others = _other_cpus()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: every block is left to the caller
            return
        if pid == 0:
            try:
                if others:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, others)
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
    replication.  The call is a one-cell grid (``_run_grid``), so a cell of
    two or more blocks shares them with one forked helper.

    ``threads`` is not read: the helper depends on the block count, the CPUs
    and the live threads alone.  It stays while callers pass it.
    """
    return _run_grid([config])[0]


def _run_grid(configs: list[ExperimentConfig]) -> list[BenchResult]:
    """``run_benchmark`` of each config, in order, with one scheduler for the call.

    A unit is one (cell index, block) pair, queued cell-major.  Every cell's
    clean part and method rows are built first, and one store holds every
    cell's results and a done flag per unit.  Two or more units run on the
    caller and one helper forked once for the call, sharing the store, then
    an anonymous mapping, and one queue (``_share_blocks``), when the
    process may use two or more CPUs and runs no other Python thread (a fork
    beside a live thread can deadlock the helper); otherwise every unit runs
    on the caller and the store is plain memory.  A unit reads only its own
    streams and writes only its own columns, so every output byte is the
    serial run's.  Once a unit fails neither process starts another; the
    caller then runs every unit not marked done, in order, and reruns a
    failing unit one replication at a time, so the error, naming the
    replication and its cell's seed, is the one a serial loop over the cells
    meets first.
    """
    cells = [_clean_cell(config) for config in configs]
    rows = [[(method, resolve_smoothing(spec, _method_alpha(method, config.alpha)))
             for method, spec in zip(config.methods, config.smoothing)] for config in configs]
    units = [(i, range(start, min(start + BLOCK, config.replications)))
             for i, config in enumerate(configs) for start in range(0, config.replications, BLOCK)]
    forked = len(units) > 1 and _cpus() >= 2 and threading.active_count() == 1
    # per cell its mses, levels and kept, then one done flag per unit
    counts = [len(config.methods) * config.replications for config in configs]
    size = 3 * 8 * sum(counts) + len(units)
    shared = mmap.mmap(-1, size) if forked else bytearray(size)  # only a mapping shares writes
    stores = [[np.frombuffer(shared, dtype, count, 8 * (3 * sum(counts[:i]) + count * k))
               .reshape(-1, configs[i].replications)
               for k, dtype in enumerate((np.float64, np.int64, np.float64))]
              for i, count in enumerate(counts)]
    done = np.frombuffer(shared, np.bool_, len(units), 3 * 8 * sum(counts))

    def run_unit(unit: tuple[int, range]) -> None:
        i, reps = unit
        config, cell, (mses, levels, kept) = configs[i], cells[i], stores[i]
        n_methods = len(config.methods)
        rngs = [[derive_rng(config.seed, rep, m) for m in range(n_methods)] for rep in reps]
        # the pass holds the only reference to the block's spectra and frees them before synthesis
        block = _block_pass(
            _spectra(_observations(cell, reps)), cell.kernel, config.alpha, rows[i], rngs
        )
        # rows b*m .. b*m + m-1 of the pass are replication reps[b] under each method
        sq = np.subtract(block.estimates, cell.f_true, out=block.estimates)  # one temporary fewer
        sq *= sq
        cols, shape = slice(reps[0], reps[-1] + 1), (len(reps), n_methods)
        mses[:, cols] = sq.mean(axis=1).reshape(shape).T
        levels[:, cols] = block.levels.reshape(shape).T
        kept[:, cols] = block.kept.reshape(shape).T

    if forked:
        _share_blocks(run_unit, units, done)
    for (i, reps), unit_done in zip(units, done):
        if unit_done:
            continue
        # the rows of a pass are independent, so a replication that failed
        # fails again alone: a failed unit is rerun one replication at a time
        try:
            run_unit((i, reps))
        except Exception as exc:
            seed = configs[i].seed
            for rep in reps:
                try:
                    run_unit((i, range(rep, rep + 1)))
                except Exception as alone:
                    raise RuntimeError(f"replication {rep} (seed {seed}) failed: {alone}") from alone
            raise RuntimeError(
                f"replications {reps[0]}-{reps[-1]} (seed {seed}) failed: {exc}"
            ) from exc

    results = []
    for config, (mses, levels, kept) in zip(configs, stores):
        means, mean_kept, ses = mses.mean(axis=1), kept.mean(axis=1), np.zeros(len(mses))
        if config.replications > 1:
            ses = mses.std(axis=1, ddof=1) / math.sqrt(config.replications)
        results.append(BenchResult(config, [
            MethodResult(method, str(spec), float(means[i]), float(ses[i]), _mode(levels[i]),
                         float(mean_kept[i]), levels[i].copy(), mses[i].copy())
            for i, (method, spec) in enumerate(zip(config.methods, config.smoothing))
        ]))
    return results


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
    alpha = _check_alpha(alpha)
    _check_nu(nu)
    lower = 1.0 / pi - nu - alpha / 2.0
    if not s > lower:
        raise ValueError(f"need smoothness s > 1/pi - nu - alpha/2 = {lower:.4g}, got {s}")
    for name, value in (("s", s), ("p", p), ("pi", pi)):
        _check_number(value, name)

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
    means = np.array([r.methods[0].mean_mse for r in _run_grid(configs)])
    x = np.log(np.asarray(n_grid, dtype=float) / np.log(n_grid))
    slope, _ = np.polyfit(x, np.log(means), 1)
    rho = rate_exponent(smoothness, 2.0, nu, alpha, 2.0)
    return RateResult(
        n_grid=n_grid,
        mean_mse=means,
        slope=float(slope),
        theoretical_exponent=rho,
    )
