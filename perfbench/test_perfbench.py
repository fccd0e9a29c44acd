"""Tests of the benchmark's own helpers and its correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lrdwaved as lw  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    FailureTally,
    Span,
    Tracer,
    percentile,
    quartile_spread,
    self_times,
    tail_percentile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# percentiles and quartiles


@pytest.mark.parametrize("q", [0, 10, 25, 50, 75, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = np.random.default_rng(3).exponential(size=37)
    assert percentile(list(values), q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, q", [(10, 50.0), (19, 50.0), (40, 75.0), (64, 75.0), (100, 90.0), (200, 95.0),
             (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    values = list(range(n))
    got_q, got = tail_percentile(values)
    assert got_q == q
    assert got == percentile(values, q)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.5, 10.5, 12.5, 11.5, 10.0, 14.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / statistics.median(values)


# spans and self time


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("parent", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] counted once
        Span("c", 7.0, 8.0, 0),
        Span("d", 9.5, 12.0, 0),  # clipped to the parent's end
        Span("grandchild", 2.5, 4.0, 2),  # inside b, not the parent's child
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.5)


def test_self_time_with_nested_and_identical_children():
    spans = [Span("p", 0.0, 4.0, -1), Span("x", 1.0, 2.0, 0), Span("y", 1.0, 2.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_reps_and_closes_on_error():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner", rep=4):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("boom", rep=5):
                raise RuntimeError("x")
    outer, inner, boom = tracer.spans
    assert (outer.parent, inner.parent, boom.parent) == (-1, 0, 0)
    assert (inner.rep, boom.rep) == (4, 5)
    assert all(s.end > s.start for s in tracer.spans)
    assert self_times(tracer.spans)[0] == pytest.approx(outer.duration - 2.0)


# failure accounting


def test_failure_tally_counts_a_raise_and_a_nan_once_each():
    tally = FailureTally()
    tally.record_error()
    tally.record(float("nan"))
    tally.record(0.1)
    tally.record(float("inf"))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fraction == 0.75


def test_composed_loop_counts_failures_without_aborting(monkeypatch):
    config = workloads.unit_configs("cell_white", 1, 0, n=256, replications=2)[0]
    real_threshold, real_inverse = lw.hard_threshold, lw.inverse_transform
    calls = {"threshold": 0, "inverse": 0}

    def flaky_threshold(coeffs, policy):
        calls["threshold"] += 1
        if calls["threshold"] == 2:
            raise FloatingPointError("injected")
        return real_threshold(coeffs, policy)

    def nan_inverse(coeffs, n):
        calls["inverse"] += 1
        out = real_inverse(coeffs, n)
        return out * np.nan if calls["inverse"] == 3 else out

    monkeypatch.setattr(lw, "hard_threshold", flaky_threshold)
    monkeypatch.setattr(lw, "inverse_transform", nan_inverse)
    tally = FailureTally()
    composed = workloads.composed_cell(config, Tracer(), tally)
    assert (tally.attempted, tally.failed) == (6, 2)
    assert np.isnan(composed.mses).sum() == 2
    assert composed.levels.min() == -1  # the raised pair left no level


def test_run_cell_counts_a_raising_cell_as_all_its_pairs(monkeypatch):
    config = workloads.unit_configs("cell_white", 1, 0, n=256, replications=3)[0]

    def broken(config, threads=1):
        raise RuntimeError("injected")

    monkeypatch.setattr(lw, "run_benchmark", broken)
    tally = FailureTally()
    result, wall = workloads.run_cell(config, tally)
    assert result is None and wall >= 0.0
    assert (tally.attempted, tally.failed) == (9, 9)


# workloads and the correctness gate


def test_unit_configs_are_a_function_of_the_seed():
    a = workloads.unit_configs("table_sweep", 7, 2)
    assert a == workloads.unit_configs("table_sweep", 7, 2)
    assert len(a) == 60 and len({c.seed for c in a}) == 60
    assert {c.noise_kind for c in a} == {"fgn"} and {c.replications for c in a} == {2}
    assert a != workloads.unit_configs("table_sweep", 8, 2)
    (farima,) = workloads.unit_configs("cell_farima", 7, 0)
    assert (farima.alpha, farima.noise_kind, farima.replications) == (0.4, "farima", 64)
    (white,) = workloads.unit_configs("cell_white", 7, 0)
    assert (white.alpha, white.replications) == (1.0, 256)
    with pytest.raises(ValueError):
        workloads.unit_configs("nope", 1, 0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_the_correctness_gate(workload):
    tracer, tally = Tracer(), FailureTally()
    configs = workloads.unit_configs(workload, 5, 0, n=256, replications=2)
    composed, walls = [], []
    for config in configs:
        cell = workloads.composed_cell(config, tracer, tally)
        result, wall = workloads.run_cell(config, tally)
        assert workloads.check_cell(config, result, cell) == []
        assert workloads.check_plausible(config, result) == []
        assert workloads.verify_first_rep(config, result) == []
        composed.append(cell)
        walls.append(wall)
    assert tally.failed == 0
    metrics, _ = run.layer_metrics(tracer.spans, len(tracer.spans), composed, walls,
                                   [c.wall for c in composed])
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    shares = [metrics[f"{layer}.share"][0] for layer in run.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert all(math.isfinite(v) for v, _ in metrics.values())


def test_gate_reports_a_dataset_or_result_mismatch():
    (config,) = workloads.unit_configs("cell_white", 2, 0, n=256, replications=2)
    tally = FailureTally()
    cell = workloads.composed_cell(config, Tracer(), tally)
    result, _ = workloads.run_cell(config, tally)
    cell.observations[1, 0] = np.nextafter(cell.observations[1, 0], np.inf)
    cell.mses[2, 0] = np.nextafter(cell.mses[2, 0], np.inf)
    problems = workloads.check_cell(config, result, cell)
    assert len(problems) == 2
    assert "generate_dataset" in problems[0] and "run_benchmark" in problems[1]


def test_digest_is_identical_for_the_same_seed():
    lines = []
    for _ in range(2):
        (config,) = workloads.unit_configs("cell_farima", 9, 0, n=256, replications=2)
        result, _ = workloads.run_cell(config, FailureTally())
        lines.append(run.digest(workloads, [(config, result)]))
    assert lines[0] == lines[1]
    assert "mean_mse=" in lines[0][1][0] and "typical_j1=" in lines[0][1][0]


# the command itself


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_its_section(trace, section):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "cell_white", "--seed", "4",
           "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
                          check=False)
    assert proc.returncode == 0
    result = _last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_frac 0 ratio" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cell_white", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_workloads_run_py_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
