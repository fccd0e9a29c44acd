import errno
import hashlib
import math
import mmap
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lrdwaved.bench import (
    rate_exponent,
    run_benchmark,
    run_rate_experiment,
)
from lrdwaved.estimator import run_estimator
from lrdwaved.noise import derive_rng
from lrdwaved.signals import ExperimentConfig, generate_dataset, resolve_smoothing


def shared_ints(count):
    """count int64 zeros in an anonymous shared mapping: a forked helper's writes show here."""
    return np.frombuffer(mmap.mmap(-1, 8 * count), np.int64)


def small_config(**overrides):
    base = dict(
        signal="cusp",
        n=1024,
        alpha=0.6,
        nu=0.7,
        snr_db=20.0,
        methods=("iid", "lrd"),
        smoothing=("sqrt6", "sqrt2alpha"),
        replications=8,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunBenchmark:
    def test_shape_and_invariants(self):
        result = run_benchmark(small_config())
        assert len(result.methods) == 2
        for m in result.methods:
            assert m.mean_mse >= 0.0
            assert m.mses.shape == (8,)
            assert m.fine_levels.shape == (8,)
            expected_se = m.mses.std(ddof=1) / math.sqrt(8)
            assert m.se == pytest.approx(expected_se, rel=1e-12)

    def test_bitwise_reproducible(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config())
        for ma, mb in zip(a.methods, b.methods):
            np.testing.assert_array_equal(ma.mses, mb.mses)
            np.testing.assert_array_equal(ma.fine_levels, mb.fine_levels)

    def test_threads_do_not_change_output(self):
        serial = run_benchmark(small_config(replications=6), threads=1)
        threaded = run_benchmark(small_config(replications=6), threads=4)
        for ma, mb in zip(serial.methods, threaded.methods):
            np.testing.assert_array_equal(ma.mses, mb.mses)

    def test_se_shrinks_with_replications(self):
        small = run_benchmark(small_config(replications=16, alpha=1.0))
        large = run_benchmark(small_config(replications=64, alpha=1.0))
        # SE scales like 1/sqrt(M): expect roughly a factor 2 drop
        for ms, ml in zip(small.methods, large.methods):
            assert ml.se < 0.9 * ms.se

    def test_typical_level_is_mode(self):
        from lrdwaved.bench import _mode

        result = run_benchmark(small_config(replications=12))
        for m in result.methods:
            values, counts = np.unique(m.fine_levels, return_counts=True)
            assert m.typical_fine_level == int(values[np.argmax(counts)])
        # a tie goes to the smallest level, whatever the order of the replications
        assert _mode(np.array([7, 5, 7, 5, 9])) == 5
        assert _mode(np.array([9, 6, 6, 9])) == 6
        assert _mode(np.array([4])) == 4

    def test_seed_changes_output(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config(seed=4))
        assert not np.array_equal(a.methods[0].mses, b.methods[0].mses)

    def test_replication_failure_names_seed(self, monkeypatch):
        # a failure of the block pass itself, whatever its replications
        import lrdwaved.bench as bench_module

        def boom(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(bench_module, "_block_pass", boom)
        with pytest.raises(RuntimeError, match=r"replication 0 \(seed 3\) failed: injected"):
            run_benchmark(small_config())

    def test_failure_of_the_stacked_block_alone_names_its_range(self, monkeypatch):
        # each replication of the second block (8-11) passes alone, so the
        # error names the block's range
        import lrdwaved.bench as bench_module

        real = bench_module._block_pass

        def stacked_only(spectra, *args, **kwargs):
            if len(spectra) == 4:
                raise ValueError("injected failure")
            return real(spectra, *args, **kwargs)

        monkeypatch.setattr(bench_module, "_block_pass", stacked_only)
        with pytest.raises(RuntimeError) as info:
            run_benchmark(small_config(replications=12))
        assert info.value.args == ("replications 8-11 (seed 3) failed: injected failure",)
        assert isinstance(info.value.__cause__, ValueError)

    @staticmethod
    def _fail_replication(monkeypatch, config, rep, replace):
        # the block pass sees replication rep's spectrum swapped for that of
        # replace(problem), problem = generate_dataset(config, rep)
        import lrdwaved.bench as bench_module

        target = generate_dataset(config, rep)[0]
        real = bench_module._block_pass

        def swapping(spectra, *args, **kwargs):
            spectra = np.array(
                [replace(target).spectrum if np.array_equal(row, target.spectrum) else row
                 for row in spectra]
            )
            return real(spectra, *args, **kwargs)

        monkeypatch.setattr(bench_module, "_block_pass", swapping)

    def test_failure_inside_a_block_names_its_replication(self, monkeypatch):
        # replication 9 of 12 sits in the second block (8-11), not first in it
        def explode(problem):
            raise ValueError("injected failure")

        config = small_config(replications=12)
        self._fail_replication(monkeypatch, config, 9, explode)
        with pytest.raises(RuntimeError, match=r"replication 9 \(seed 3\) failed: injected"):
            run_benchmark(config)

    def test_non_positive_sigma_in_one_row_names_its_replication(self, monkeypatch):
        from lrdwaved.estimator import DeconvolutionProblem

        config = small_config(replications=12)
        self._fail_replication(
            monkeypatch, config, 9,
            lambda p: DeconvolutionProblem(np.ones(p.n), p.kernel, p.alpha),
        )
        with pytest.raises(RuntimeError, match=r"replication 9 \(seed 3\) failed") as info:
            run_benchmark(config)
        assert isinstance(info.value.__cause__, ValueError)
        assert "finite and positive" in str(info.value.__cause__)

    def test_non_finite_data_in_one_row_names_its_replication(self, monkeypatch):
        # every draw, a block's rows included, goes through NoiseModel._sample_into
        from lrdwaved.noise import NoiseModel

        real = NoiseModel._sample_into

        def sample_into(self, out, *key):
            real(self, out, *key)
            if key == (9,):
                out[17] = np.nan

        monkeypatch.setattr(NoiseModel, "_sample_into", sample_into)
        with pytest.raises(RuntimeError, match=r"replication 9 \(seed 3\) failed") as info:
            run_benchmark(small_config(replications=12))
        assert isinstance(info.value.__cause__, ValueError)
        assert "finite" in str(info.value.__cause__)

    # sha256 of every method's mses (float64) then fine_levels (int64), in
    # method order, recorded when the streams became keyed Philox streams with
    # interleaved channel draws (version 0.2.0); the fGn cell was recorded
    # later on the same streams, and re-recorded when the fGn draw became one
    # half-spectrum real inverse FFT.  Fixed-seed outputs must stay byte-identical.
    @pytest.mark.parametrize(
        "alpha, digest, noise_kind",
        [
            (1.0, "9762c9e1308b1fc129851a9f798bf6523bbe8b09876b2cbd9cf457f0f70858c2", "farima"),
            (0.4, "72ad6bce1669ed10c148bebed0f8da8ed6e54dc53b5407ba67817bd25e67bb7b", "farima"),
            (0.6, "447176487b3e706919eb416716bc959bdef033e347a63d499f253441d3a14ca1", "fgn"),
        ],
    )
    def test_pinned_cusp_outputs(self, alpha, digest, noise_kind):
        config = ExperimentConfig(
            "cusp", n=4096, alpha=alpha, snr_db=20.0, replications=4, seed=11,
            noise_kind=noise_kind,
        )
        h = hashlib.sha256()
        for m in run_benchmark(config).methods:
            h.update(np.ascontiguousarray(m.mses, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(m.fine_levels, dtype=np.int64).tobytes())
        assert h.hexdigest() == digest

    def test_each_tau_level_computed_once_per_cell(self, monkeypatch):
        # the two default LRD methods threshold at the same alpha and share one
        # cache entry per level; the IID method reads none.  Counted as the
        # misses of a cleared tau cache
        from lrdwaved import thresholds

        calls = []
        real = thresholds.tau_level

        def counting(j, kernel, alpha):
            calls.append((j, alpha))
            return real(j, kernel, alpha)

        thresholds._tau.cache_clear()
        monkeypatch.setattr(thresholds, "tau_level", counting)
        config = ExperimentConfig("cusp", n=1024, alpha=0.6, snr_db=30.0, replications=6, seed=5)
        result = run_benchmark(config)
        assert config.methods == ("iid", "lrd", "lrd")
        assert calls and len(calls) == len(set(calls))
        assert {alpha for _, alpha in calls} == {0.6}
        assert max(j for j, _ in calls) == max(m.fine_levels.max() for m in result.methods[1:])

    def test_cold_clean_signal_cache_gives_the_warm_outputs(self):
        # the pinned cusp cells, with (f, K*f) built afresh and read from the
        # value cache: every MSE and fine level equal bit for bit
        from lrdwaved.signals import _clean_signal

        configs = [
            ExperimentConfig("cusp", n=4096, alpha=alpha, snr_db=20.0, replications=4, seed=11,
                             noise_kind=kind)
            for alpha, kind in ((1.0, "farima"), (0.4, "farima"), (0.6, "fgn"))
        ]
        runs = []
        for _ in range(2):
            _clean_signal.cache_clear()
            runs.append([run_benchmark(c) for c in configs])
            assert _clean_signal.cache_info().misses == 1
        runs.append([run_benchmark(c) for c in configs])
        assert _clean_signal.cache_info().misses == 1
        for results in runs[1:]:
            for a, b in zip(runs[0], results):
                for ma, mb in zip(a.methods, b.methods):
                    assert ma.mses.tobytes() == mb.mses.tobytes()
                    np.testing.assert_array_equal(ma.fine_levels, mb.fine_levels)

    def test_second_cell_with_the_same_kernel_computes_no_tau(self):
        # tau is cached by kernel value, not per cell: a second cell at the same
        # (n, nu, kernel scale, alpha), here with another SNR and seed and
        # another kernel object, reads every level from the cache
        from lrdwaved.signals import gamma_kernel
        from lrdwaved.thresholds import _tau

        _tau.cache_clear()
        gamma_kernel.cache_clear()
        first = run_benchmark(
            ExperimentConfig("cusp", n=1024, alpha=0.6, snr_db=30.0, replications=6, seed=5)
        )
        misses = _tau.cache_info().misses
        assert misses > 0
        gamma_kernel.cache_clear()
        second = run_benchmark(
            ExperimentConfig("cusp", n=1024, alpha=0.6, snr_db=10.0, replications=6, seed=6)
        )
        assert all(
            b.fine_levels.max() <= a.fine_levels.max()
            for a, b in zip(first.methods, second.methods)
        )
        assert _tau.cache_info().misses == misses

    def test_replications_match_generate_dataset(self):
        # the once-per-call clean cell and the stacked pass give each
        # replication and method what run_estimator gives on
        # generate_dataset(config, rep); in the alpha=0.4 cell the default
        # methods stop at different fine levels (IID at 5, both LRD at 4)
        strong = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, replications=3, seed=3)
        for config in (small_config(replications=3), strong):
            result = run_benchmark(config)
            for rep in range(config.replications):
                problem, f_true = generate_dataset(config, rep)
                for i, (method, spec) in enumerate(zip(config.methods, config.smoothing)):
                    alpha = config.alpha if method == "lrd" else 1.0
                    report = run_estimator(
                        problem, method, resolve_smoothing(spec, alpha),
                        rng=derive_rng(config.seed, rep, i),
                    )
                    mse = float(np.mean((report.estimate - f_true) ** 2))
                    assert result.methods[i].mses[rep] == mse
                    assert result.methods[i].fine_levels[rep] == report.fine_level_used
        assert len({int(m.fine_levels.max()) for m in result.methods}) > 1

    def test_one_analysis_per_band_per_block(self, monkeypatch):
        # the replications and default methods of a block share one analysis
        # of Y_hat / K_hat, up to the largest fine level among them, and one
        # analysis of the raw data for sigma_hat (counted apart); each call
        # is keyed to its block by its stack height (8 or 4 problems) and
        # each block's calls keep their order.  The calls are counted in this
        # process, so it is pinned to one CPU and runs both blocks itself
        from lrdwaved import meyer

        calls, sigma_calls, inside_sigma = {8: [], 4: []}, [], []
        real_analyze, real_detail = meyer._analyze, meyer._detail_from_spectrum

        def counting(values, plan, what):
            if not inside_sigma:
                calls[len(values)].append((what, plan.level))
            return real_analyze(values, plan, what)

        def sigma_detail(spectrum, j, n):
            inside_sigma.append(j)
            sigma_calls.append(np.shape(spectrum))
            try:
                return real_detail(spectrum, j, n)
            finally:
                inside_sigma.pop()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(meyer, "_analyze", counting)
        monkeypatch.setattr(meyer, "_detail_from_spectrum", sigma_detail)
        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, replications=12, seed=3)
        result = run_benchmark(config)
        assert config.methods == ("iid", "lrd", "lrd")
        assert sorted(sigma_calls) == [(4, 1024), (8, 1024)]
        for height, block in ((8, range(0, 8)), (4, range(8, 12))):
            top = max(int(m.fine_levels[rep]) for m in result.methods for rep in block)
            expected = [("scale", 3)] + [("detail", j) for j in range(3, top + 1)]
            assert calls[height] == expected

    def test_one_synthesis_per_block(self, monkeypatch):
        # every (replication, method) row of a block is synthesized by one
        # meyer._synthesize call, each row at its own fine level: the call's
        # stacks reach the block's top level, and no row holds a nonzero
        # coefficient above its own level; each call is keyed to its block by
        # its rows (24 or 12).  The calls are counted in this process, so it
        # is pinned to one CPU and runs both blocks itself
        from lrdwaved import meyer

        calls = {}
        real = meyer._synthesize

        def counting(scale, detail, n):
            # each row's last level with a nonzero coefficient (j0 = 3 if none)
            last = [max([3] + [j for j, values in detail.items() if values[r].any()])
                    for r in range(scale.shape[0])]
            calls.setdefault(scale.shape[0], []).append((max(detail), last))
            return real(scale, detail, n)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(meyer, "_synthesize", counting)
        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, replications=12, seed=3)
        result = run_benchmark(config)
        assert sorted((rows, len(made)) for rows, made in calls.items()) == [(12, 1), (24, 1)]
        for rows, block in ((8 * 3, range(0, 8)), (4 * 3, range(8, 12))):
            (top, last), = calls[rows]
            levels = [int(m.fine_levels[rep]) for rep in block for m in result.methods]
            assert top == max(levels)
            assert all(j <= level for j, level in zip(last, levels))

    def test_block_estimates_outlive_the_next_problem(self):
        # a pass's estimates keep their values after the next pass runs on
        # other problems, and equal run_estimator's; so does a report's
        from lrdwaved.estimator import _block_pass
        from lrdwaved.meyer import _spectra
        from lrdwaved.signals import _clean_cell, _noisy_problem, _observations

        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, seed=3)
        cell = _clean_cell(config)
        problems = [_noisy_problem(cell, rep) for rep in range(4)]
        methods = [("iid", math.sqrt(6.0)), ("lrd", math.sqrt(0.4))]
        rngs = [[derive_rng(3, rep, i) for i in range(2)] for rep in range(4)]

        def block(reps):
            spectra = _spectra(_observations(cell, reps))
            return _block_pass(spectra, cell.kernel, 0.4, methods, [rngs[r] for r in reps])

        first = block(range(2)).estimates
        kept = first.copy()
        second = block(range(2, 4)).estimates
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first[:2], second[:2])
        for i, (method, smoothing) in enumerate(methods):
            alone = run_estimator(problems[0], method, smoothing, rng=derive_rng(3, 0, i))
            estimate = alone.estimate.copy()
            run_estimator(problems[1], method, smoothing, rng=derive_rng(3, 1, i))
            assert first[i].tobytes() == alone.estimate.tobytes() == estimate.tobytes()

    @pytest.mark.parametrize("replications", [1, 7, 8, 9, 17])
    def test_block_pass_matches_run_estimator(self, replications):
        # every replication and method of the block pass equals run_estimator
        # on generate_dataset(config, rep) bit for bit: mse, fine level and
        # kept count, with the default methods and (lrd, iid), fGn and FARIMA
        defaults = ExperimentConfig("cusp")
        configs = [
            ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, replications=replications,
                             seed=3, noise_kind=kind, methods=methods, smoothing=smoothing)
            for kind in ("farima", "fgn")
            for methods, smoothing in ((defaults.methods, defaults.smoothing),
                                       (("lrd", "iid"), ("sqrt2alpha", "sqrt6")))
        ]
        split = False
        for config in configs:
            result = run_benchmark(config)
            kept = np.empty((len(config.methods), replications))
            for rep in range(replications):
                problem, f_true = generate_dataset(config, rep)
                for i, (method, spec) in enumerate(zip(config.methods, config.smoothing)):
                    alpha = config.alpha if method == "lrd" else 1.0
                    report = run_estimator(
                        problem, method, resolve_smoothing(spec, alpha),
                        rng=derive_rng(config.seed, rep, i),
                    )
                    mse = float(np.mean((report.estimate - f_true) ** 2))
                    assert result.methods[i].mses[rep] == mse
                    assert result.methods[i].fine_levels[rep] == report.fine_level_used
                    kept[i, rep] = sum(report.kept_count.values())
                split |= len({int(m.fine_levels[rep]) for m in result.methods}) > 1
            for i, m in enumerate(result.methods):
                assert m.mean_kept == float(kept[i].mean())
        # rows of one replication stop at different fine levels
        assert split

    def test_traced_peak_holds_one_block(self, monkeypatch):
        # one block of 8 replications at n=4096 holds a few (8, n)-sized
        # arrays (observations, spectra, sigma analysis; the spectra are
        # freed before synthesis) and the block's one (24, n) complex
        # synthesis spectrum with the realness check's (24, n) float
        # temporary beside it, a traced peak of 2.36 MiB (the highest of 30
        # calls); a pass over all 64 replications at once would need several
        # times that.  The process is given two CPUs, so a helper is forked
        # whatever the host, and tracemalloc traces the caller's blocks only:
        # the helper's memory is its own process's
        import tracemalloc

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = ExperimentConfig("cusp", n=4096, alpha=1.0, snr_db=20.0, replications=64, seed=1)
        run_benchmark(config)  # spectral plans and cutoffs are cached before tracing
        tracemalloc.start()
        try:
            run_benchmark(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @staticmethod
    def _count_forks(monkeypatch):
        # the helpers forked in this process, by pid, (pid, status) per reap
        # and the monotonic ns after each reap
        forks, reaps, reaped_at = [], [], []
        real_fork, real_waitpid = os.fork, os.waitpid

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            reaps.append(reaped)
            reaped_at.append(time.monotonic_ns())
            return reaped

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        return forks, reaps, reaped_at

    @staticmethod
    def _outputs(result):
        return b"".join(m.mses.tobytes() + m.fine_levels.tobytes() for m in result.methods)

    def _serial_outputs(self, monkeypatch, config):
        with monkeypatch.context() as pinned:
            pinned.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            return self._outputs(run_benchmark(config))

    @pytest.mark.parametrize("replications, cpus, helpers", [
        (8, {0, 1}, 0),  # one block
        (36, {0}, 0),  # a process pinned to one CPU
        (36, {0, 1}, 1),
        (36, None, 0),  # no affinity call: serial, whatever os.cpu_count() says
    ])
    def test_helper_forked_only_for_several_blocks_on_several_cpus(
        self, monkeypatch, replications, cpus, helpers
    ):
        config = small_config(replications=replications)
        serial = self._serial_outputs(monkeypatch, config)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        forks, reaps, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert len(forks) == helpers
        assert reaps == [(pid, 0) for pid in forks]
        assert self._outputs(result) == serial

    def test_no_fork_while_another_thread_is_alive(self, monkeypatch):
        # forking beside a live Python thread can deadlock the helper, so the
        # cell runs serially on the caller
        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, _, _ = self._count_forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            result = run_benchmark(config)
        finally:
            release.set()
            other.join()
        assert forks == []
        assert self._outputs(result) == serial

    def test_forked_helper_gives_the_serial_bytes(self, monkeypatch):
        # 20 runs of a 5-block cell (the last block short) on two processes
        # equal each other and run_estimator on generate_dataset(config, rep)
        # bit for bit; the helper ran some of the blocks
        import lrdwaved.bench as bench_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = small_config(replications=36, methods=("iid", "lrd", "lrd"),
                              smoothing=("sqrt6", "sqrtalpha", "sqrt2alpha"))
        caller, real = os.getpid(), bench_module._observations
        helper_blocks = shared_ints(1)

        def observations(cell, reps):
            if os.getpid() != caller:
                helper_blocks[0] += 1
            return real(cell, reps)

        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, _, _ = self._count_forks(monkeypatch)
        runs = {self._outputs(run_benchmark(config)) for _ in range(20)}
        assert len(forks) == 20 and helper_blocks[0] > 0
        result = run_benchmark(config)
        assert runs == {self._outputs(result)}
        for rep in range(config.replications):
            problem, f_true = generate_dataset(config, rep)
            for i, (method, spec) in enumerate(zip(config.methods, config.smoothing)):
                alpha = config.alpha if method == "lrd" else 1.0
                report = run_estimator(
                    problem, method, resolve_smoothing(spec, alpha),
                    rng=derive_rng(config.seed, rep, i),
                )
                mse = float(np.mean((report.estimate - f_true) ** 2))
                assert result.methods[i].mses[rep] == mse
                assert result.methods[i].fine_levels[rep] == report.fine_level_used

    @pytest.mark.parametrize("on", ["caller", "helper", "both"])
    @pytest.mark.parametrize("alone", [False, True], ids=["block", "replication"])
    def test_failing_block_stops_the_cell_on_either_process(self, monkeypatch, on, alone):
        # each process records the first block it takes in shared memory and
        # waits until the other holds one too; the first block of the named
        # process (or of both) then fails as a stack wherever it runs, and
        # with alone its second replication also fails when rerun by itself.
        # No block starts after the first failure but one the other process
        # may already hold, the caller reruns what was not done, and the
        # error names the lowest failed block's range or replication, as a
        # serial run would
        import lrdwaved.bench as bench_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        failing = {"caller": [0], "helper": [1], "both": [0, 1]}[on]
        first = shared_ints(2)  # per process (caller, helper): its first block's start + 1
        failed_at = shared_ints(1)  # monotonic ns of the first failure
        starts = shared_ints(2 * 32).reshape(2, 32)  # per process: count, then start times

        def fail():
            if not failed_at[0]:
                failed_at[0] = time.monotonic_ns()
            raise ValueError("injected failure")

        def observations(cell, reps):
            me = int(os.getpid() != caller)
            if len(reps) > 1:
                starts[me, 0] += 1
                starts[me, starts[me, 0]] = time.monotonic_ns()
                if not first[me]:
                    first[me] = reps.start + 1
                    deadline = time.monotonic() + 10
                    while not first.all() and time.monotonic() < deadline:
                        time.sleep(1e-3)
                if reps.start + 1 in first[failing]:
                    fail()
            elif alone and reps.start in first[failing]:  # block start + 1
                fail()
            return real(cell, reps)

        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, reaps, reaped_at = self._count_forks(monkeypatch)
        with pytest.raises(RuntimeError) as info:
            run_benchmark(small_config(replications=80))
        assert len(forks) == 1 and reaps == [(forks[0], 0)]
        assert first.all()
        lowest = int(first[failing].min()) - 1
        if alone:
            expected = f"replication {lowest + 1} (seed 3) failed: injected failure"
        else:
            expected = f"replications {lowest}-{lowest + 7} (seed 3) failed: injected failure"
        assert info.value.args == (expected,)
        assert isinstance(info.value.__cause__, ValueError)
        # the caller's reruns after the reap are not counted
        shared_phase = [t for me in (0, 1) for t in starts[me, 1 : starts[me, 0] + 1]
                        if t < reaped_at[0]]
        assert len([t for t in shared_phase if t > failed_at[0]]) <= 1
        assert starts[:, 0].sum() < 10

    def test_interrupted_caller_joins_the_helper(self, monkeypatch):
        # the caller is interrupted while the helper holds a block it would
        # hold for a minute: the helper process is killed and reaped (joined)
        # before the interrupt leaves run_benchmark
        import lrdwaved.bench as bench_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        helper_blocks = shared_ints(1)

        def observations(cell, reps):
            if os.getpid() == caller:
                deadline = time.monotonic() + 10
                while not helper_blocks[0] and time.monotonic() < deadline:
                    time.sleep(1e-3)
                raise KeyboardInterrupt
            helper_blocks[0] += 1
            if helper_blocks[0] == 1:
                time.sleep(60)
            return real(cell, reps)

        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, reaps, _ = self._count_forks(monkeypatch)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(small_config(replications=80))
        assert time.monotonic() - began < 30
        assert helper_blocks[0] == 1
        (pid, status), = reaps
        assert pid == forks[0]
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    def test_interrupted_final_wait_kills_and_reaps_the_helper(self, monkeypatch):
        # an interrupt raised inside the caller's wait for a finished cell's
        # helper leaves run_benchmark, and the helper is killed and reaped
        # by a second wait first
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real_waitpid, calls = os.waitpid, []

        def waitpid(pid, options):
            calls.append(pid)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return real_waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", waitpid)
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(small_config(replications=80))
        monkeypatch.undo()
        assert len(calls) == 2 and calls[0] == calls[1] > 0
        with pytest.raises(ChildProcessError):  # no longer a child: reaped
            os.waitpid(calls[0], os.WNOHANG)

    def test_dead_helper_gives_the_serial_bytes(self, monkeypatch):
        # the helper finishes one block, then exits with status 1 in the
        # middle of the cell, at the start of its second block, while the
        # caller still holds its first; the caller runs what was not done
        import lrdwaved.bench as bench_module

        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        helper_blocks = shared_ints(1)

        def observations(cell, reps):
            if os.getpid() == caller:
                deadline = time.monotonic() + 10
                while helper_blocks[0] < 2 and time.monotonic() < deadline:
                    time.sleep(1e-3)
            else:
                helper_blocks[0] += 1
                if helper_blocks[0] == 2:
                    os._exit(1)
            return real(cell, reps)

        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, reaps, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert helper_blocks[0] == 2
        assert reaps == [(forks[0], 1 << 8)]  # exit status 1
        assert self._outputs(result) == serial

    def test_failed_fork_runs_the_cell_serially(self, monkeypatch):
        # a fork refused for want of processes or memory leaves every block
        # to the caller
        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert self._outputs(run_benchmark(config)) == serial

    def test_failed_pipe_runs_the_cell_serially(self, monkeypatch):
        # a pipe refused for want of descriptors leaves every block to the
        # caller, as a refused fork does, and no helper is forked
        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", pipe)
        forks, _, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert forks == []
        assert self._outputs(result) == serial

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs two CPUs to place the helper on")
    def test_helper_runs_off_the_callers_cpu(self, monkeypatch):
        # the caller is pinned to one CPU, so the CPU it forks on is known,
        # while the cell is told it may use every CPU of the process: the
        # helper's own affinity, read in the helper, is every CPU but the
        # caller's, and the caller's affinity is left as it was set
        import lrdwaved.bench as bench_module

        real_affinity, allowed = os.sched_getaffinity, os.sched_getaffinity(0)
        cpu = min(allowed)
        caller, real = os.getpid(), bench_module._observations
        helper_mask = shared_ints(max(allowed) + 2)  # a flag per CPU, then a done flag

        def observations(cell, reps):
            if os.getpid() != caller and not helper_mask[-1]:
                helper_mask[list(real_affinity(0))] = 1
                helper_mask[-1] = 1
            deadline = time.monotonic() + 10
            while not helper_mask[-1] and time.monotonic() < deadline:
                time.sleep(1e-3)
            return real(cell, reps)

        monkeypatch.setattr(bench_module, "_observations", observations)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed)
        os.sched_setaffinity(0, {cpu})
        try:
            run_benchmark(small_config(replications=36))
            assert real_affinity(0) == {cpu}
        finally:
            os.sched_setaffinity(0, allowed)
        assert helper_mask[-1] == 1
        assert set(np.flatnonzero(helper_mask[:-1]).tolist()) == allowed - {cpu}

    def test_refused_helper_affinity_gives_the_serial_bytes(self, monkeypatch):
        # the system refuses the helper's move off the caller's CPU: the
        # helper stays where the fork put it, still runs blocks, and the cell
        # gives the serial bytes
        import lrdwaved.bench as bench_module

        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        counts = shared_ints(2)  # refused moves, helper blocks

        def refuse(pid, cpus):
            counts[0] += 1
            raise PermissionError(errno.EPERM, "Operation not permitted")

        def observations(cell, reps):
            if os.getpid() != caller:
                counts[1] += 1
            deadline = time.monotonic() + 10
            while not counts[1] and time.monotonic() < deadline:
                time.sleep(1e-3)
            return real(cell, reps)

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, reaps, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert len(forks) == 1 and reaps == [(forks[0], 0)]
        assert counts[0] == 1 and counts[1] > 0
        assert self._outputs(result) == serial

    def test_short_fill_leaves_the_rest_to_the_caller(self, monkeypatch):
        # a pipe that takes only the first 2 of 5 block indices: the two
        # processes share blocks 0 and 1, and the caller runs blocks 2-4
        # after the helper is reaped; every block runs once
        import lrdwaved.bench as bench_module

        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        starts = shared_ints(2 * 5).reshape(2, 5)  # per process (caller, helper), per block
        real_write, writes = os.write, []

        def write(fd, data):
            writes.append(len(data))
            return real_write(fd, data[:8])

        def observations(cell, reps):
            starts[int(os.getpid() != caller), reps.start // bench_module.BLOCK] += 1
            return real(cell, reps)

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, reaps, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert writes == [4 * 5]
        assert len(forks) == 1 and reaps == [(forks[0], 0)]
        assert starts.sum(axis=0).tolist() == [1] * 5
        assert starts[1, 2:].sum() == 0
        assert self._outputs(result) == serial

    def test_failed_fill_runs_the_cell_serially(self, monkeypatch):
        # a fill refused by the pipe leaves every block to the caller, as a
        # refused pipe does, and no helper is forked
        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def write(fd, data):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "write", write)
        forks, _, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert forks == []
        assert self._outputs(result) == serial

    def test_helper_killed_holding_a_block_gives_the_serial_bytes(self):
        # a fresh interpreter given two CPUs: the helper claims block 0 and
        # is SIGKILLed right after its read returns, before running it; the
        # caller, which waits for that claim, runs blocks 1-4, reaps the
        # helper and reruns block 0.  The cell finishes with the serial MSEs
        # and leaves no child behind
        import lrdwaved

        src = str(Path(lrdwaved.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = "\n".join([
            "import mmap, os, signal, time",
            "import numpy as np",
            "from lrdwaved.bench import run_benchmark",
            "from lrdwaved.signals import ExperimentConfig",
            "config = ExperimentConfig('cusp', n=1024, alpha=0.6, replications=36, seed=3)",
            "os.sched_getaffinity = lambda pid: {0}",
            "serial = [m.mses.tobytes() for m in run_benchmark(config).methods]",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "taken = np.frombuffer(mmap.mmap(-1, 8), np.int64)  # the helper's index + 1",
            "caller, real_read, real_waitpid, reaps = os.getpid(), os.read, os.waitpid, []",
            "def read(fd, count):",
            "    if os.getpid() == caller:",
            "        deadline = time.monotonic() + 10",
            "        while not taken[0] and time.monotonic() < deadline:",
            "            time.sleep(1e-3)",
            "        return real_read(fd, count)",
            "    data = real_read(fd, count)",
            "    taken[0] = int.from_bytes(data, 'little') + 1",
            "    os.kill(os.getpid(), signal.SIGKILL)",
            "def waitpid(pid, options):",
            "    reaps.append(real_waitpid(pid, options))",
            "    return reaps[-1]",
            "os.read, os.waitpid = read, waitpid",
            "result = run_benchmark(config)",
            "(_, status), = reaps",
            "try:",
            "    os.waitpid(-1, os.WNOHANG)",
            "    children = True",
            "except ChildProcessError:",
            "    children = False",
            "killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL",
            "print(int(taken[0]) - 1, killed, children,",
            "      [m.mses.tobytes() for m in result.methods] == serial)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True", "False", "True"]

    def test_each_block_runs_once_across_both_processes(self, monkeypatch):
        # 20 clean runs of a 5-block cell: every block starts once per run,
        # on one process or the other, and the helper starts some of them
        import lrdwaved.bench as bench_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        starts = shared_ints(2 * 5).reshape(2, 5)  # per process (caller, helper), per block

        def observations(cell, reps):
            starts[int(os.getpid() != caller), reps.start // bench_module.BLOCK] += 1
            return real(cell, reps)

        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, _, _ = self._count_forks(monkeypatch)
        for _ in range(20):
            run_benchmark(small_config(replications=36))
        assert len(forks) == 20
        assert starts.sum(axis=0).tolist() == [20] * 5
        assert starts[1].sum() > 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_outlives_a_forked_cell(self, monkeypatch):
        # the open descriptors are the same before and after a clean forked
        # cell, one with a failing block and one whose caller is interrupted
        import lrdwaved.bench as bench_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, real = os.getpid(), bench_module._observations
        forks, _, _ = self._count_forks(monkeypatch)

        def failing(cell, reps):
            if reps.start == 8:
                raise ValueError("injected failure")
            return real(cell, reps)

        def interrupted(cell, reps):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real(cell, reps)

        for observations, raised in [(real, None), (failing, RuntimeError),
                                     (interrupted, KeyboardInterrupt)]:
            monkeypatch.setattr(bench_module, "_observations", observations)
            before = sorted(os.listdir("/proc/self/fd"))
            if raised is None:
                run_benchmark(small_config(replications=36))
            else:
                with pytest.raises(raised):
                    run_benchmark(small_config(replications=36))
            assert sorted(os.listdir("/proc/self/fd")) == before
        assert len(forks) == 3

    def test_forked_cell_imports_no_multiprocessing(self):
        # a fresh interpreter given two CPUs forks a helper for a 36-replication
        # cell and never imports multiprocessing, whose import stays resident
        import lrdwaved

        src = str(Path(lrdwaved.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = "\n".join([
            "import os, sys",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "forks, real_fork = [], os.fork",
            "def fork():",
            "    pid = real_fork()",
            "    forks.append(pid)",
            "    return pid",
            "os.fork = fork",
            "from lrdwaved.bench import run_benchmark",
            "from lrdwaved.signals import ExperimentConfig",
            "run_benchmark(ExperimentConfig('cusp', n=1024, alpha=0.6, replications=36, seed=3))",
            "print(len(forks), 'multiprocessing' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "False"]

    def test_fork_after_openblas_threads_gives_the_serial_bytes(self, monkeypatch):
        # lstsq starts the BLAS library's own threads, which a fork does not
        # copy; the helper still runs its blocks and gives the serial bytes
        config = small_config(replications=36)
        serial = self._serial_outputs(monkeypatch, config)
        a = np.arange(300 * 200, dtype=float).reshape(300, 200) % 7.0
        np.linalg.lstsq(a, a[:, 0], rcond=None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, reaps, _ = self._count_forks(monkeypatch)
        result = run_benchmark(config)
        assert len(forks) == 1 and reaps == [(forks[0], 0)]
        assert self._outputs(result) == serial

    def test_waved_tau_once_per_level_per_call(self, monkeypatch):
        # the IID method's classical tau_j is computed once per cell and level,
        # counted from a cleared tau cache
        from lrdwaved import covariance, thresholds

        calls = []
        real = covariance.waved_tau_level

        def counting(j, kernel):
            calls.append(j)
            return real(j, kernel)

        thresholds._tau.cache_clear()
        for module in (covariance, thresholds):
            if hasattr(module, "waved_tau_level"):
                monkeypatch.setattr(module, "waved_tau_level", counting)
        config = ExperimentConfig("cusp", n=1024, alpha=0.6, snr_db=30.0, replications=6, seed=5)
        result = run_benchmark(config)
        assert config.methods[0] == "iid"
        assert calls and len(calls) == len(set(calls))
        assert max(calls) == result.methods[0].fine_levels.max()

    def test_as_dict_roundtrip(self):
        result = run_benchmark(small_config(replications=2))
        payload = result.as_dict()
        assert payload["config"]["signal"] == "cusp"
        assert len(payload["methods"]) == 2

    def test_as_dict_of_numpy_scalars_is_json(self):
        # numpy scalars in the config leave as_dict as Python's int and float
        import json

        config = ExperimentConfig("cusp", n=np.int64(64), methods=("lrd",),
                                  smoothing=(np.float32(1.5),), replications=np.int64(2))
        plain = ExperimentConfig("cusp", n=64, methods=("lrd",), smoothing=(1.5,), replications=2)
        assert json.dumps(config.as_dict()) == json.dumps(plain.as_dict())
        assert json.dumps(run_benchmark(config).as_dict()) == json.dumps(
            run_benchmark(plain).as_dict())


def grid_configs():
    # different n, a three-method and a one-method cell, a one-block cell and
    # short last blocks: 3 + 1 + 2 units
    return [
        small_config(replications=20, methods=("iid", "lrd", "lrd"),
                     smoothing=("sqrt6", "sqrtalpha", "sqrt2alpha")),
        small_config(n=512, alpha=0.8, replications=5, methods=("lrd",),
                     smoothing=("sqrt2alpha",), seed=4),
        small_config(n=256, alpha=1.0, replications=12, methods=("iid",),
                     smoothing=("sqrt6",), seed=5, noise_kind="fgn"),
    ]


class TestRunGrid:
    """``bench._run_grid``: every cell's (cell, block) units on one scheduler per call."""

    @staticmethod
    def _summary(result):
        return [(m.mses.tobytes(), m.fine_levels.tobytes(), m.mean_mse, m.se,
                 m.typical_fine_level, m.mean_kept) for m in result.methods]

    def test_each_cell_gives_its_run_benchmark_bytes(self, monkeypatch):
        from lrdwaved.bench import _run_grid

        configs = grid_configs()
        with monkeypatch.context() as pinned:
            pinned.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            alone = [self._summary(run_benchmark(config)) for config in configs]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        results = _run_grid(configs)
        assert [r.config for r in results] == configs
        assert [self._summary(r) for r in results] == alone

    @pytest.mark.parametrize("replications, forked", [((8, 8, 8), 1), ((8,), 0)],
                             ids=["three-units", "one-unit"])
    def test_one_fork_per_call(self, monkeypatch, replications, forked):
        from lrdwaved.bench import _run_grid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, reaps, _ = TestRunBenchmark._count_forks(monkeypatch)
        _run_grid([small_config(replications=m, seed=3 + i) for i, m in enumerate(replications)])
        assert len(forks) == forked
        assert reaps == [(pid, 0) for pid in forks]

    @pytest.mark.parametrize("failing, message", [
        ({(9, 5)}, "replication 5 (seed 9) failed: injected failure"),
        ({(9, 5), (3, 10)}, "replication 10 (seed 3) failed: injected failure"),
    ], ids=["second-cell", "both-cells"])
    def test_failure_is_the_serial_loops_first(self, monkeypatch, failing, message):
        # a replication fails wherever it runs, in a block or alone: the error
        # names the first failing replication a loop over the cells meets,
        # with its cell's seed, and the helper is reaped
        import lrdwaved.bench as bench_module

        real = bench_module._observations

        def observations(cell, reps):
            if any((cell.noise.seed, rep) in failing for rep in reps):
                raise ValueError("injected failure")
            return real(cell, reps)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(bench_module, "_observations", observations)
        forks, reaps, _ = TestRunBenchmark._count_forks(monkeypatch)
        with pytest.raises(RuntimeError) as info:
            bench_module._run_grid([small_config(replications=12),
                                    small_config(replications=12, alpha=0.8, seed=9)])
        assert info.value.args == (message,)
        assert isinstance(info.value.__cause__, ValueError)
        assert len(forks) == 1 and reaps == [(forks[0], 0)]

    def test_helper_killed_mid_grid_gives_the_serial_bytes(self):
        # a fresh interpreter given two CPUs: the helper runs the first unit
        # it claims and is SIGKILLed right after its second claim returns; the
        # caller, which waits for that claim, runs the rest, reaps the helper
        # and reruns the unit it held.  Every cell gives the serial bytes and
        # no child is left
        import lrdwaved

        src = str(Path(lrdwaved.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = "\n".join([
            "import mmap, os, signal, time",
            "import numpy as np",
            "from lrdwaved.bench import _run_grid",
            "from lrdwaved.signals import ExperimentConfig",
            "configs = [ExperimentConfig('cusp', n=1024, alpha=0.6, replications=20, seed=3),",
            "           ExperimentConfig('doppler', n=512, alpha=0.8, replications=12, seed=4,",
            "                            methods=('lrd',), smoothing=('sqrt2alpha',)),",
            "           ExperimentConfig('bumps', n=1024, replications=8, seed=5)]",
            "def outputs(results):",
            "    return [m.mses.tobytes() + m.fine_levels.tobytes()",
            "            for r in results for m in r.methods]",
            "os.sched_getaffinity = lambda pid: {0}",
            "serial = outputs(_run_grid(configs))",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "taken = np.frombuffer(mmap.mmap(-1, 8), np.int64)  # the killed claim's index + 1",
            "caller, real_read, real_waitpid, reaps, claims = os.getpid(), os.read, os.waitpid, [], []",
            "def read(fd, count):",
            "    if os.getpid() == caller:",
            "        deadline = time.monotonic() + 10",
            "        while not taken[0] and time.monotonic() < deadline:",
            "            time.sleep(1e-3)",
            "        return real_read(fd, count)",
            "    data = real_read(fd, count)",
            "    claims.append(data)",
            "    if len(claims) == 2:",
            "        taken[0] = int.from_bytes(data, 'little') + 1",
            "        os.kill(os.getpid(), signal.SIGKILL)",
            "    return data",
            "def waitpid(pid, options):",
            "    reaps.append(real_waitpid(pid, options))",
            "    return reaps[-1]",
            "os.read, os.waitpid = read, waitpid",
            "result = _run_grid(configs)",
            "(_, status), = reaps",
            "try:",
            "    os.waitpid(-1, os.WNOHANG)",
            "    children = True",
            "except ChildProcessError:",
            "    children = False",
            "killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL",
            "print(int(taken[0]) - 1, killed, children, outputs(result) == serial)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "True", "False", "True"]


class TestRateExponent:
    def test_direct_dense_case(self):
        assert rate_exponent(1.0, 2.0, 0.0, 1.0, 2.0) == pytest.approx(2.0 / 3.0)

    def test_ill_posed_dense_case(self):
        assert rate_exponent(1.0, 2.0, 0.7, 1.0, 2.0) == pytest.approx(2.0 / 4.4)

    def test_branches_agree_at_phase_boundary(self):
        # s exactly at the boundary: both formulas coincide (elbow continuity)
        nu, alpha, p, pi = 0.5, 0.8, 4.0, 1.0
        s = (2 * nu + alpha) * (p / (2 * pi) - 0.5)
        dense = alpha * s * p / (2 * s + 2 * nu + alpha)
        sparse = alpha * p * (s - 1 / pi + 1 / p) / (2 * s + 2 * nu + alpha - 2 / pi)
        assert dense == pytest.approx(sparse, rel=1e-12)
        assert rate_exponent(s, p, nu, alpha, pi) == pytest.approx(dense, rel=1e-12)

    def test_sparse_branch_selected(self):
        nu, alpha, p, pi = 0.5, 0.8, 4.0, 1.0
        boundary = (2 * nu + alpha) * (p / (2 * pi) - 0.5)
        s = boundary - 0.1
        expected = alpha * p * (s - 1 / pi + 1 / p) / (2 * s + 2 * nu + alpha - 2 / pi)
        assert rate_exponent(s, p, nu, alpha, pi) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_nu_and_alpha_decrease(self):
        base = rate_exponent(1.0, 2.0, 0.5, 1.0, 2.0)
        assert rate_exponent(1.0, 2.0, 0.9, 1.0, 2.0) < base
        assert rate_exponent(1.0, 2.0, 0.5, 0.5, 2.0) < base

    @pytest.mark.parametrize("args, message", [
        ((1.0, 2.0, 0.5, 1.5, 2.0), "alpha must lie in (0, 1], got 1.5"),
        ((1.0, 2.0, -0.1, 1.0, 2.0), "nu must be nonnegative, got -0.1"),
        # p = 2/(2 nu + alpha) empties the sparse region, but rounding leaves
        # one s below the boundary 0.05 and above the lower bound 0.25 - 0.2
        ((float(np.nextafter(0.05, 0.0)), 5.0, 0.0, 0.4, 4.0),
         "sparse phase requires p > 2/(2 nu + alpha) = 5"),
    ], ids=["alpha", "nu", "sparse-phase"])
    def test_inadmissible_parameter_message(self, args, message):
        with pytest.raises(ValueError) as info:
            rate_exponent(*args)
        assert info.value.args == (message,)

    def test_inadmissible_parameters_named(self):
        with pytest.raises(ValueError, match="p must exceed 1"):
            rate_exponent(1.0, 1.0, 0.5, 1.0, 2.0)
        # smoothness below the sparse lower bound 1/pi - nu - alpha/2
        with pytest.raises(ValueError, match="1/pi - nu - alpha/2"):
            rate_exponent(0.5, 5.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="pi must be >= 1"):
            rate_exponent(1.0, 2.0, 0.5, 1.0, 0.5)


class TestRateExperiment:
    def test_structure_and_consistency(self):
        result = run_rate_experiment(
            "cusp",
            "lrd",
            1.0,
            0.7,
            (512, 1024, 2048),
            replications=6,
            snr_db=30.0,
            seed=2,
        )
        assert result.slope < 0.0
        assert result.mean_mse.shape == (3,)
        # doubling n never increases the MSE beyond noise: final below first
        assert result.mean_mse[-1] < result.mean_mse[0]

    def test_model_keywords_default_to_the_config_fields(self):
        import inspect
        from dataclasses import fields

        params = inspect.signature(run_rate_experiment).parameters
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        for name in ("snr_db", "seed", "noise_kind"):
            assert params[name].default == defaults[name], name

    def test_seed_past_the_domain_fails_before_any_cell_runs(self, monkeypatch):
        # grid entry i runs at seed + i: the second entry's 2**64 is refused
        # when its config is built, before the first cell runs
        from lrdwaved import bench

        calls = []
        monkeypatch.setattr(bench, "_run_grid", lambda configs: calls.extend(configs))
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_rate_experiment("cusp", "lrd", 1.0, 0.7, (256, 512), replications=2,
                                seed=2**64 - 1)
        assert calls == []

    def test_unknown_noise_kind_fails_before_any_cell_runs(self, monkeypatch):
        from lrdwaved import bench

        calls = []
        monkeypatch.setattr(bench, "_run_grid", lambda configs: calls.extend(configs))
        with pytest.raises(ValueError, match="unknown noise kind 'bogus'"):
            run_rate_experiment("cusp", "lrd", 1.0, 0.7, (256, 512), replications=2,
                                noise_kind="bogus")
        assert calls == []

    def test_grid_configs_carry_every_argument(self, monkeypatch):
        # each argument lands in its own config field, whatever the field order
        from lrdwaved import bench

        class Stop(Exception):
            pass

        configs = []

        def spy(grid):
            configs.extend(grid)
            raise Stop

        monkeypatch.setattr(bench, "_run_grid", spy)
        with pytest.raises(Stop):
            run_rate_experiment("doppler", "iid", 0.6, 0.5, (256, 512), replications=3,
                                smoothing="1.5", snr_db=10.0, seed=7, noise_kind="fgn")
        assert configs == [ExperimentConfig(
            signal="doppler", n=n, alpha=0.6, nu=0.5, snr_db=10.0, methods=("iid",),
            smoothing=("1.5",), replications=3, seed=seed, noise_kind="fgn",
        ) for n, seed in ((256, 7), (512, 8))]

    def test_smoothing_defaults_to_the_method_default(self, monkeypatch):
        # the spec rates --xi / --eta default to, which the config's default
        # IID method and its second LRD method also take
        from lrdwaved import bench

        class Stop(Exception):
            pass

        specs = []

        def spy(grid):
            specs.extend(config.smoothing for config in grid)
            raise Stop

        monkeypatch.setattr(bench, "_run_grid", spy)
        for method in ("lrd", "iid"):
            with pytest.raises(Stop):
                run_rate_experiment("cusp", method, 1.0, 0.7, (256, 512), replications=2)
        iid, _, lrd = ExperimentConfig("cusp").smoothing
        assert specs == [(lrd,)] * 2 + [(iid,)] * 2 == [("sqrt2alpha",)] * 2 + [("sqrt6",)] * 2

    def test_needs_grid(self):
        with pytest.raises(ValueError):
            run_rate_experiment("cusp", "lrd", 1.0, 0.7, (1024,), replications=2)
