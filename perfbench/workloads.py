"""Workload definitions, the composed replication loop and its correctness checks.

A workload is a sequence of units of work; cell c of unit k takes its
config seed from (workload, --seed, k, c), so the same seed always gives the
same inputs however many units a run completes.  Distinct seeds per cell keep
the sweep's cells independent: shared noise would make their fine levels,
and so their tau work, rise and fall together.

The composed loop calls each layer's public functions in the order
``run_estimator`` uses and wraps every call in a span.  It reuses the tau
tables per method index exactly as ``run_benchmark`` does, so the tau work
matches, and its outputs must equal ``generate_dataset`` and
``run_benchmark`` bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
from dataclasses import dataclass

import numpy as np

import lrdwaved as lw
from lrdwaved.finescale import fine_level_details
from lrdwaved.signals import resolve_smoothing
from lrdwaved.thresholds import DEFAULT_COARSE_LEVEL
from spans import FailureTally, Tracer

N = 4096
NU = 0.7
KERNEL_SCALE = 0.25

# The paper's 60-cell grid.
SWEEP_SIGNALS = ("lidar", "doppler", "bumps", "cusp")
SWEEP_SNRS = (10.0, 20.0, 30.0)
SWEEP_ALPHAS = (1.0, 0.8, 0.6, 0.4, 0.2)

# name -> why it is in the benchmark (mirrored in BENCHMARK.json)
WORKLOADS = {
    "cell_farima": "Cusp 20 dB alpha=0.4 FARIMA M=64: the headline strong-memory cell; "
    "the O(n^2) noise draw dominates",
    "cell_white": "Cusp 20 dB alpha=1 M=256: trivial noise and amortized tau, so per-replication "
    "estimator, meyer, finescale, thresholds and signals work dominates",
    "table_sweep": "the 60-cell grid at M=2 with fGn noise: cold per-cell tau tables dominate; "
    "the only workload whose cells share (n, nu, scale) and alpha values",
}


def derive_seed(workload: str, seed: int, unit: int, cell: int) -> int:
    """31-bit config seed for one cell of one unit of one workload."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{unit}/{cell}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") >> 1


def unit_configs(
    workload: str, seed: int, unit: int, *, n: int = N, replications: int | None = None
) -> list[lw.ExperimentConfig]:
    """Cells of one unit of work; ``n`` and ``replications`` shrink it for tests."""
    if workload == "cell_farima":
        grid = [("cusp", 20.0, 0.4, "farima", replications or 64)]
    elif workload == "cell_white":
        grid = [("cusp", 20.0, 1.0, "farima", replications or 256)]
    elif workload == "table_sweep":
        grid = [
            (signal, snr, alpha, "fgn", replications or 2)
            for signal in SWEEP_SIGNALS
            for snr in SWEEP_SNRS
            for alpha in SWEEP_ALPHAS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return [
        lw.ExperimentConfig(
            signal, n=n, alpha=alpha, nu=NU, snr_db=snr, replications=reps,
            seed=derive_seed(workload, seed, unit, cell), noise_kind=noise,
            kernel_scale=KERNEL_SCALE,
        )
        for cell, (signal, snr, alpha, noise, reps) in enumerate(grid)
    ]


def run_cell(config: lw.ExperimentConfig, tally: FailureTally):
    """(BenchResult or None, wall seconds) of one untraced ``run_benchmark`` call."""
    pairs = len(config.methods) * config.replications
    start = time.perf_counter()
    try:
        result = lw.run_benchmark(config, threads=1)
    except Exception as exc:  # counted as failed pairs; the run goes on
        wall = time.perf_counter() - start
        print(f"cell {config.as_dict()} raised: {exc!r}", file=sys.stderr)
        tally.record_error(pairs)
        return None, wall
    wall = time.perf_counter() - start
    for method in result.methods:
        for mse in method.mses:
            tally.record(float(mse))
    return result, wall


@dataclass
class ComposedCell:
    """Per-replication outputs of the composed loop for one cell."""

    observations: np.ndarray  # (reps, n)
    mses: np.ndarray  # (methods, reps); nan where a pair raised
    levels: np.ndarray  # (methods, reps); -1 where a pair raised
    kept: np.ndarray  # (methods, reps)
    saturated: np.ndarray  # (methods, reps) bool
    sigma_ratio: np.ndarray  # (reps,) sigma_hat / (sigma 2^(-alpha/2))
    wall: float


def composed_cell(
    config: lw.ExperimentConfig, tracer: Tracer, tally: FailureTally
) -> ComposedCell:
    """Replicate one cell from public calls, one span per call."""
    n, reps, j0 = config.n, config.replications, DEFAULT_COARSE_LEVEL
    n_methods = len(config.methods)
    alphas = [config.alpha if m == "lrd" else 1.0 for m in config.methods]
    smoothings = [resolve_smoothing(s, a) for s, a in zip(config.smoothing, alphas)]
    out = ComposedCell(
        observations=np.empty((reps, n)),
        mses=np.full((n_methods, reps), np.nan),
        levels=np.full((n_methods, reps), -1),
        kept=np.zeros((n_methods, reps)),
        saturated=np.zeros((n_methods, reps), dtype=bool),
        sigma_ratio=np.full(reps, np.nan),
        wall=0.0,
    )
    tables: dict[int, lw.VarianceTable] = {}
    span = tracer.span
    with span("bench.cell") as cell:
        for rep in range(reps):
            with span("bench.rep", rep):
                with span("signals.problem", rep):
                    f_true = lw.make_signal(config.signal, n)
                    kernel = lw.gamma_kernel(n, shape=config.nu, scale=config.kernel_scale)
                    blurred = lw.blur(f_true, kernel)
                    sigma = lw.calibrate_sigma(blurred, config.snr_db)
                    model = lw.NoiseModel(alpha=config.alpha, kind=config.noise_kind, seed=config.seed)
                with span("noise.sample", rep):
                    e = model.sample(n, rep)
                with span("signals.problem", rep):
                    noise_scale = sigma * 2.0 ** (-config.alpha / 2.0)
                    y = blurred + noise_scale * e
                    problem = lw.DeconvolutionProblem(observations=y, kernel=kernel, alpha=config.alpha)
                out.observations[rep] = y
                for i, method in enumerate(config.methods):
                    # re-wrapped per replication like run_benchmark: build_policy
                    # reuses a table only when its kernel is this problem's kernel
                    old = tables.get(i)
                    taus = old.taus if old is not None else {}
                    table = tables[i] = lw.VarianceTable(kernel=kernel, alpha=alphas[i], taus=taus)
                    try:
                        with span("noise.rng", rep):
                            rng = lw.derive_rng(config.seed, rep, i)
                        with span("estimator.sigma", rep):
                            sigma_hat = lw.estimate_sigma(problem)
                        with span("finescale.stop", rep):
                            j1, stopping = fine_level_details(
                                problem, alphas[i], sigma_hat=sigma_hat, rng=rng, j0=j0
                            )
                        if method == "lrd":
                            for j in range(j0, j1 + 1):
                                name = "covariance.tau_hit" if j in table.taus else "covariance.tau"
                                with span(name, rep):
                                    table.tau(j)
                        with span("thresholds.policy", rep):
                            policy = lw.build_policy(
                                method, kernel, n, alphas[i], sigma_hat, smoothings[i],
                                j0, j1, variance_table=table,
                            )
                        with span("estimator.deconvolve", rep):
                            raw = lw.deconvolve_coefficients(problem, j0, j1)
                        with span("estimator.threshold", rep):
                            kept = lw.hard_threshold(raw, policy)
                        with span("meyer.synthesis", rep):
                            estimate = lw.inverse_transform(kept, n)
                    except Exception as exc:  # counted as one failed pair; the cell goes on
                        print(f"rep {rep} method {i} of {config.as_dict()} raised: {exc!r}",
                              file=sys.stderr)
                        tally.record_error()
                        continue
                    diff = estimate - f_true
                    mse = float(np.mean(diff * diff))
                    tally.record(mse)
                    out.mses[i, rep] = mse
                    out.levels[i, rep] = j1
                    out.kept[i, rep] = sum(int(np.count_nonzero(kept.detail[j])) for j in kept.levels())
                    out.saturated[i, rep] = stopping.saturated
                    out.sigma_ratio[rep] = sigma_hat / noise_scale
    out.wall = cell.duration
    return out


def check_cell(
    config: lw.ExperimentConfig, result, composed: ComposedCell
) -> list[str]:
    """Mismatches of the composed loop against generate_dataset and run_benchmark.

    Compares the replications the composed loop ran (all of them, or a
    prefix when it ran a shortened copy of the config).
    """
    reps = composed.observations.shape[0]
    where = f"{config.signal} snr={config.snr_db:g} alpha={config.alpha:g} seed={config.seed}"
    problems = []
    for rep in range(reps):
        problem, _ = lw.generate_dataset(config, rep)
        if not np.array_equal(problem.observations, composed.observations[rep]):
            problems.append(f"{where} rep {rep}: composed dataset differs from generate_dataset")
    if result is None:
        return problems + [f"{where}: run_benchmark raised, nothing to compare"]
    for i, method in enumerate(result.methods):
        if not np.array_equal(method.mses[:reps], composed.mses[i], equal_nan=True):
            problems.append(f"{where} method {i}: composed MSEs differ from run_benchmark")
        if not np.array_equal(method.fine_levels[:reps], composed.levels[i]):
            problems.append(f"{where} method {i}: composed fine levels differ from run_benchmark")
    return problems


def check_plausible(config: lw.ExperimentConfig, result) -> list[str]:
    """Every method must beat the zero estimate, whose MSE is ||f||^2."""
    if result is None:
        return []
    zero_mse = lw.grid_norm(lw.make_signal(config.signal, config.n)) ** 2
    return [
        f"{config.signal} snr={config.snr_db:g} alpha={config.alpha:g} seed={config.seed} "
        f"{m.method}/{m.smoothing_spec}: mean MSE {m.mean_mse!r} is not below ||f||^2 {zero_mse!r}"
        for m in result.methods
        if not m.mean_mse < zero_mse
    ]


def verify_first_rep(config: lw.ExperimentConfig, result) -> list[str]:
    """Replication 0 of a cell, recomposed from public calls, must match run_benchmark."""
    short = dataclasses.replace(config, replications=1)
    composed = composed_cell(short, Tracer(), FailureTally())
    return check_cell(config, result, composed)


def digest_line(config: lw.ExperimentConfig, result) -> str:
    """Per-cell mean MSE and typical level of each method, at full precision."""
    head = (f"{config.signal} snr={config.snr_db:g} alpha={config.alpha:g} "
            f"noise={config.noise_kind} M={config.replications} seed={config.seed}:")
    if result is None:
        return head + " failed"
    return head + " " + " | ".join(
        f"{m.method}/{m.smoothing_spec} mean_mse={m.mean_mse!r} typical_j1={m.typical_fine_level}"
        for m in result.methods
    )
