#!/usr/bin/env python3
"""Monte Carlo benchmark of lrdwaved: replication throughput per workload.

Run from the root of a checkout (nothing needs building; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload cell_white --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` drives each cell through ``lrdwaved.run_benchmark(config,
threads=1)`` in this fresh process and reports the end-to-end metrics,
corrected for the machine's momentary speed by an interleaved reference
kernel (see ``reference_seconds``);
``--trace 1`` runs the composed, span-timed loop beside ``run_benchmark`` on
the same cells and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness
mismatch prints that object with ``correct`` false and exits 1.  Details,
machine description and spans go to ``.bench_build/perfbench/`` in the
checkout.  See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import FailureTally, Tracer, percentile, self_times, tail_percentile

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7
# A typical start-up time of a bare interpreter importing numpy on the same
# machine; it only sets the scale of the speed-corrected setup_s.
SETUP_REF_NOMINAL_S = 0.15
# A typical wall time of reference_seconds() on a shared 2-vCPU Xeon virtual
# machine (20-35 ms); it only sets the scale of the speed-corrected rate.
REF_NOMINAL_S = 0.03
REF_EVERY_S = 0.5
# How much of a change in the kernel's time a workload's time follows: the
# log-log slope measured over 30 runs was 0.39 (cell_farima), 0.56
# (cell_white) and 0.85 (table_sweep).  0.5 keeps the worst residual drift
# under a 1.6x change of machine speed below 20%.
SPEED_ELASTICITY = 0.5
WORKLOAD_NAMES = ("cell_farima", "cell_white", "table_sweep")
LAYERS = ("noise", "signals", "covariance", "thresholds", "finescale", "estimator", "meyer", "bench")


def import_program():
    """Import lrdwaved from this checkout's src/, never from elsewhere."""
    package = SRC / "lrdwaved"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no lrdwaved package at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import lrdwaved

    if Path(lrdwaved.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported lrdwaved from {lrdwaved.__file__}, not {package}")
    import workloads

    return workloads


def run_units(seconds: float, run_unit) -> tuple[int, float]:
    """Run whole units; stop once elapsed time plus half a mean unit reaches ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        run_unit(done)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            return done, elapsed


def reference_seconds() -> float:
    """Wall time of a fixed kernel that runs no lrdwaved code.

    Part interpreter work (complex arithmetic and dict stores, like the tau
    loops), part small-array numpy (like the estimator).  On a shared host
    other tenants change the speed of both by up to 2x for seconds at a time;
    this kernel's time tracks that speed, so scaling a workload's rate by it
    (see SPEED_ELASTICITY) leaves mostly the program's own cost.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0j
    table = {}
    for i in range(1, 30000):
        z = complex(i % 97, i % 89) / (1 + i % 13)
        table[i % 512] = z
        acc += z * z.conjugate()
    x = np.linspace(0.0, 1.0, 4000)
    for _ in range(120):
        x = np.abs(np.sin(3.0 * x) + 0.5 * x)
    return time.perf_counter() - start


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` until it prints "ready"; waits for its exit."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed with exit code {proc.returncode}: {line!r}")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Setup probes and their paired reference starts, in seconds.

    A probe is a fresh interpreter running this script up to its first cell
    (interpreter, numpy and lrdwaved imports, configs).  Each is paired with
    a fresh interpreter that only imports numpy: the same kind of work, so it
    slows by the same factor under other tenants' load.  The reference kernel
    would not do: import work slows about half as much as it does.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"]
    reference = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(time_to_ready(reference))
        probes.append(time_to_ready(probe))
    return probes, refs


def machine_info() -> dict:
    """nproc, CPU model, cache sizes, interpreter and library versions, commit."""
    import numpy
    import lrdwaved

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lrdwaved": lrdwaved.__version__,
        "commit": git_commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        info["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return info


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(workloads, cells) -> tuple[str, list[str]]:
    """sha256 prefix and per-cell lines over the first unit's results."""
    lines = [workloads.digest_line(config, result) for config, result in cells]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16], lines


def run_untraced(args, workloads) -> dict:
    tally = FailureTally()
    cells = []  # (unit, config, result, wall)
    unit_refs = []  # reference-kernel times taken around each unit's cells
    ready = time.perf_counter()

    def unit(index: int) -> None:
        refs = [reference_seconds()]
        last = time.perf_counter()
        for config in workloads.unit_configs(args.workload, args.seed, index):
            result, wall = workloads.run_cell(config, tally)
            cells.append((index, config, result, wall))
            if time.perf_counter() - last >= REF_EVERY_S:
                refs.append(reference_seconds())
                last = time.perf_counter()
        unit_refs.append(refs)

    units, elapsed = run_units(args.seconds, unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reps = sum(config.replications for _, config, result, _ in cells if result is not None)
    wall = sum(w for *_, w in cells)
    # Each unit's rate is scaled by the machine's speed while it ran, as the
    # reference kernel measured it, and the median over units is reported:
    # both keep other tenants' load out of the figure.
    raw_rates, unit_rates = [], []
    for index in range(units):
        mine = [c for c in cells if c[0] == index]
        done = sum(config.replications for _, config, result, _ in mine if result is not None)
        raw_rates.append(done / sum(w for *_, w in mine))
        speed = statistics.fmean(unit_refs[index]) / REF_NOMINAL_S
        unit_rates.append(raw_rates[-1] * speed**SPEED_ELASTICITY)

    first_config, first_result = cells[0][1], cells[0][2]
    problems = workloads.verify_first_rep(first_config, first_result)
    for _, config, result, _ in cells:
        problems += workloads.check_plausible(config, result)
    setup, setup_refs = measure_setup(args.workload, args.seed)
    setup_ratios = [p / r for p, r in zip(setup, setup_refs)]
    return {
        "tally": tally,
        "problems": problems,
        "first_unit": [(c, r) for u, c, r, _ in cells if u == 0],
        "all_cells": [(c, r) for _, c, r, _ in cells],
        "metrics": {
            "reps_per_s": (statistics.median(unit_rates), "1/s"),
            "setup_s": (statistics.median(setup_ratios) * SETUP_REF_NOMINAL_S, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "details": {
            "units": units,
            "cells": len(cells),
            "replications": reps,
            "wall_s": wall,
            "raw_reps_per_s": statistics.median(raw_rates),
            "mean_raw_reps_per_s": reps / wall,
            "unit_raw_reps_per_s": raw_rates,
            "unit_reps_per_s": unit_rates,
            "unit_ref_s": unit_refs,
            "loop_s": elapsed,
            "main_import_s": ready - T_START,
            "raw_setup_s": statistics.median(setup),
            "setup_probes_s": setup,
            "setup_refs_s": setup_refs,
            "failed_frac": tally.fraction,
        },
    }


def run_traced(args, workloads) -> dict:
    tracer = Tracer()
    tally = FailureTally()
    cells = []  # (unit, config, result, rb_wall, composed)
    problems: list[str] = []
    first_unit_end = 0

    def unit(index: int) -> None:
        nonlocal first_unit_end
        for config in workloads.unit_configs(args.workload, args.seed, index):
            composed = workloads.composed_cell(config, tracer, tally)
            result, rb_wall = workloads.run_cell(config, tally)
            problems.extend(workloads.check_cell(config, result, composed))
            problems.extend(workloads.check_plausible(config, result))
            cells.append((index, config, result, rb_wall, composed))
        if index == 0:
            first_unit_end = len(tracer.spans)

    units, elapsed = run_units(args.seconds, unit)
    first = [c for c in cells if c[0] == 0]
    metrics, details = layer_metrics(
        tracer.spans, first_unit_end, [c[4] for c in first],
        [c[3] for c in cells], [c[4].wall for c in cells],
    )
    details.update(units=units, cells=len(cells), loop_s=elapsed)
    return {
        "tally": tally,
        "problems": problems,
        "first_unit": [(c[1], c[2]) for c in first],
        "all_cells": [(c[1], c[2]) for c in cells],
        "metrics": metrics,
        "details": details,
        "spans": tracer.spans,
    }


def layer_metrics(spans, first_unit_end, first_composed, rb_walls, composed_walls):
    """Per-layer metrics from the spans of the composed loop.

    Guard counts (tau_evals, j1_mean, saturated, kept_mean, sigma_ratio,
    tau_hit_ratio) cover the first unit only, so they repeat exactly for a
    seed however many units a run completes; timings cover every unit.
    """
    import numpy as np

    selfs = self_times(spans)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    rep_signals = defaultdict(float)  # bench.rep span index -> signals self time
    for span, own in zip(spans, selfs):
        durations[span.name].append(span.duration * 1e3)
        layer_self[span.name.split(".", 1)[0]] += own
        if span.name.startswith("signals."):
            rep_signals[span.parent] += own * 1e3
    traced_wall = sum(composed_walls)

    def p50(name):
        return percentile(durations[name], 50) if durations[name] else 0.0

    head = spans[:first_unit_end]
    evals = sum(s.name == "covariance.tau" for s in head)
    lookups = evals + sum(s.name == "covariance.tau_hit" for s in head)
    tail_q, tail_ms = tail_percentile(durations["noise.sample"])
    levels = np.concatenate([c.levels.ravel() for c in first_composed])
    kept = np.concatenate([c.kept.ravel() for c in first_composed])
    saturated = sum(int(c.saturated.sum()) for c in first_composed)
    ratio = np.concatenate([c.sigma_ratio for c in first_composed])

    m = {
        "noise.draw_ms_p50": (p50("noise.sample"), "ms"),
        "noise.draw_ms_tail": (tail_ms, "ms"),
        "covariance.tau_evals": (evals, "count"),
        "covariance.tau_hit_ratio": (1.0 - evals / lookups if lookups else 0.0, "ratio"),
        "covariance.tau_ms_p50": (p50("covariance.tau"), "ms"),
        "thresholds.policy_ms_p50": (p50("thresholds.policy"), "ms"),
        "finescale.stop_ms_p50": (p50("finescale.stop"), "ms"),
        "finescale.j1_mean": (float(levels.mean()), "level"),
        "finescale.saturated": (saturated, "count"),
        "estimator.sigma_ms_p50": (p50("estimator.sigma"), "ms"),
        "estimator.deconvolve_ms_p50": (p50("estimator.deconvolve"), "ms"),
        "estimator.threshold_ms_p50": (p50("estimator.threshold"), "ms"),
        "estimator.kept_mean": (float(kept.mean()), "count"),
        "estimator.sigma_ratio": (float(ratio.mean()), "ratio"),
        "meyer.synthesis_ms_p50": (p50("meyer.synthesis"), "ms"),
        "signals.self_ms_p50": (percentile(list(rep_signals.values()), 50), "ms"),
        "bench.cell_s_p50": (percentile(rb_walls, 50), "s"),
        "bench.gap_share": ((sum(rb_walls) - traced_wall) / sum(rb_walls), "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / traced_wall, "ratio")
    details = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": sum(rb_walls),
        "trace_overhead": traced_wall / sum(rb_walls) - 1.0,
        "noise.draw_tail_percentile": tail_q,
        "samples": {name: len(v) for name, v in sorted(durations.items())},
        "tau_lookups_first_unit": lookups,
    }
    return m, details


def write_details(args, outcome, machine, digest_value, digest_lines, all_lines) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
        "details": outcome["details"],
        "attempted": outcome["tally"].attempted,
        "failed": outcome["tally"].failed,
        "problems": outcome["problems"],
        "digest": digest_value,
        "digest_cells": digest_lines,
        "cells": all_lines,
    }
    if "spans" in outcome:
        spans = outcome["spans"]
        names = sorted({s.name for s in spans})
        code = {name: i for i, name in enumerate(names)}
        payload["span_names"] = names
        payload["spans"] = [[code[s.name], s.start, s.end, s.parent, s.rep] for s in spans]
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def run_one(args) -> int:
    workloads = import_program()
    if args.setup_probe:
        workloads.unit_configs(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0
    outcome = (run_traced if args.trace else run_untraced)(args, workloads)
    machine = machine_info()
    digest_value, digest_lines = digest(workloads, outcome["first_unit"])
    all_lines = [workloads.digest_line(c, r) for c, r in outcome["all_cells"]]
    path = write_details(args, outcome, machine, digest_value, digest_lines, all_lines)

    tally, details = outcome["tally"], outcome["details"]
    caches = " ".join(f"{k}={v}" for k, v in machine["caches"].items())
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} {caches} "
          f"python={machine['python']} numpy={machine['numpy']} commit={machine['commit']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{details['units']} units, {details['cells']} cells, details in {path.relative_to(ROOT)}")
    if args.trace:
        print(f"tracing overhead: traced {details['traced_wall_s']:.3f} s against untraced "
              f"{details['untraced_wall_s']:.3f} s ({details['trace_overhead']:+.2%})")
    print(f"digest {args.workload} seed {args.seed}: {digest_value}")
    for line in digest_lines:
        print(f"  {line}")
    for problem in outcome["problems"]:
        print(f"MISMATCH {problem}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"failed_frac {tally.fraction:.6g} ratio ({tally.failed}/{tally.attempted})")
        print(f"uncorrected: reps_per_s {details['raw_reps_per_s']:.6g} 1/s, "
              f"setup_s {details['raw_setup_s']:.6g} s")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
