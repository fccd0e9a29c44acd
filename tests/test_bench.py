import hashlib
import math

import numpy as np
import pytest

from lrdwaved.bench import (
    rate_exponent,
    run_benchmark,
    run_rate_experiment,
)
from lrdwaved.covariance import VarianceTable
from lrdwaved.estimator import run_estimator
from lrdwaved.noise import derive_rng
from lrdwaved.signals import ExperimentConfig, generate_dataset, resolve_smoothing


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

    def test_threads_share_cold_caches(self):
        # threads build the spectral plans and read the shared clean cell at
        # once, with the interpreter switching threads as often as it can
        import sys

        from lrdwaved import finescale, meyer

        serial = run_benchmark(small_config(replications=8, n=2048), threads=1)
        for cache in (meyer._detail_plan, meyer._scale_plan, finescale._cutoffs,
                      finescale._channel_noise_sd):
            cache.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_benchmark(small_config(replications=8, n=2048), threads=8)
        finally:
            sys.setswitchinterval(interval)
        for ma, mb in zip(serial.methods, threaded.methods):
            np.testing.assert_array_equal(ma.mses, mb.mses)
            np.testing.assert_array_equal(ma.fine_levels, mb.fine_levels)

    def test_se_shrinks_with_replications(self):
        small = run_benchmark(small_config(replications=16, alpha=1.0))
        large = run_benchmark(small_config(replications=64, alpha=1.0))
        # SE scales like 1/sqrt(M): expect roughly a factor 2 drop
        for ms, ml in zip(small.methods, large.methods):
            assert ml.se < 0.9 * ms.se

    def test_typical_level_is_mode(self):
        result = run_benchmark(small_config(replications=12))
        for m in result.methods:
            values, counts = np.unique(m.fine_levels, return_counts=True)
            assert m.typical_fine_level == int(values[np.argmax(counts)])

    def test_seed_changes_output(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config(seed=4))
        assert not np.array_equal(a.methods[0].mses, b.methods[0].mses)

    def test_replication_failure_names_seed(self, monkeypatch):
        import lrdwaved.bench as bench_module

        def boom(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(bench_module, "run_estimator", boom)
        with pytest.raises(RuntimeError, match=r"replication 0 \(seed 3\)"):
            run_benchmark(small_config())

    # sha256 of every method's mses (float64) then fine_levels (int64), in
    # method order, recorded before the spectral plans and the once-per-call
    # clean cell went in; fixed-seed outputs must stay byte-identical.
    @pytest.mark.parametrize(
        "alpha, digest",
        [
            (1.0, "92c2d751904e1f1d54b430b4416ad081af8b17be285aba91955313cdfb9d613e"),
            (0.4, "a4cb642331f4c98e6bf99923130b2b1b3b8b7aeeea8c0a64f0c75d183cb08584"),
        ],
    )
    def test_pinned_cusp_outputs(self, alpha, digest):
        config = ExperimentConfig(
            "cusp", n=4096, alpha=alpha, snr_db=20.0, replications=4, seed=11,
            noise_kind="farima",
        )
        h = hashlib.sha256()
        for m in run_benchmark(config).methods:
            h.update(np.ascontiguousarray(m.mses, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(m.fine_levels, dtype=np.int64).tobytes())
        assert h.hexdigest() == digest

    def test_replications_match_generate_dataset(self):
        # the once-per-call clean cell gives each replication the dataset
        # generate_dataset(config, rep) gives
        config = small_config(replications=3)
        result = run_benchmark(config)
        for rep in range(config.replications):
            problem, f_true = generate_dataset(config, rep)
            for i, (method, spec) in enumerate(zip(config.methods, config.smoothing)):
                alpha = config.alpha if method == "lrd" else 1.0
                report = run_estimator(
                    problem, method, resolve_smoothing(spec, alpha),
                    rng=derive_rng(config.seed, rep, i),
                    variance_table=VarianceTable(kernel=problem.kernel, alpha=alpha),
                )
                mse = float(np.mean((report.estimate - f_true) ** 2))
                assert result.methods[i].mses[rep] == mse

    def test_as_dict_roundtrip(self):
        result = run_benchmark(small_config(replications=2))
        payload = result.as_dict()
        assert payload["config"]["signal"] == "cusp"
        assert len(payload["methods"]) == 2


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

    def test_needs_grid(self):
        with pytest.raises(ValueError):
            run_rate_experiment("cusp", "lrd", 1.0, 0.7, (1024,), replications=2)
