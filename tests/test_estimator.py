import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdwaved.covariance import KernelSpec
from lrdwaved.estimator import (
    DeconvolutionProblem,
    deconvolve_coefficients,
    estimate_sigma,
    hard_threshold,
    run_estimator,
)
from lrdwaved.meyer import WaveletCoefficients, forward_transform, inverse_transform
from lrdwaved.noise import derive_rng
from lrdwaved.signals import blur, gamma_kernel, make_signal
from lrdwaved.thresholds import ThresholdPolicy


def identity_kernel(n):
    return KernelSpec(fourier=np.ones(n, dtype=complex), dip=0.0)


def make_policy(lambdas, method="iid", threshold_scale=False, n=1024):
    return ThresholdPolicy(
        method=method,
        smoothing=1.0,
        sigma_hat=1.0,
        alpha=1.0,
        n=n,
        lambdas=lambdas,
        threshold_scale=threshold_scale,
    )


class TestProblemValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            DeconvolutionProblem(observations=np.zeros(100), kernel=identity_kernel(100))

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            DeconvolutionProblem(observations=np.zeros(64), kernel=identity_kernel(128))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        y = np.zeros(64)
        y[5] = bad
        with pytest.raises(ValueError, match="finite"):
            DeconvolutionProblem(observations=y, kernel=identity_kernel(64))
        fourier = np.ones(64, dtype=complex)
        fourier[5] = bad
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(fourier=fourier)


class TestDeconvolveCoefficients:
    def test_identity_kernel_recovers_basis_coefficient(self):
        n = 4096
        coeffs = WaveletCoefficients.zeros(3, 7, n)
        coeffs.detail[4][7] = 1.0
        signal = inverse_transform(coeffs, n)
        problem = DeconvolutionProblem(observations=signal, kernel=identity_kernel(n))
        out = deconvolve_coefficients(problem, 3, 7)
        assert out.detail[4][7] == pytest.approx(1.0, abs=1e-8)
        out.detail[4][7] = 0.0
        rest = max(np.abs(out.detail[j]).max() for j in range(3, 8))
        assert rest < 1e-8

    def test_noiseless_blur_inverts_exactly(self):
        n = 4096
        kernel = gamma_kernel(n)
        f = make_signal("cusp", n)
        blurred = blur(f, kernel)
        problem = DeconvolutionProblem(observations=blurred, kernel=kernel, alpha=1.0)
        got = deconvolve_coefficients(problem, 3, 7)
        want = forward_transform(f, 3, 7)
        err = np.sqrt(
            sum(np.sum((got.detail[j] - want.detail[j]) ** 2) for j in range(3, 8))
            / sum(np.sum(want.detail[j] ** 2) for j in range(3, 8))
        )
        assert err < 1e-6
        np.testing.assert_allclose(got.scale, want.scale, rtol=0, atol=1e-8)

    def test_noiseless_recovery_all_signals(self):
        # reconstruction from deconvolved coefficients matches the projection
        n = 4096
        kernel = gamma_kernel(n)
        for name in ("lidar", "doppler", "bumps", "cusp"):
            f = make_signal(name, n)
            problem = DeconvolutionProblem(
                observations=blur(f, kernel), kernel=kernel, alpha=1.0
            )
            got = inverse_transform(deconvolve_coefficients(problem, 3, 7), n)
            proj = inverse_transform(forward_transform(f, 3, 7), n)
            rel = np.linalg.norm(got - proj) / np.linalg.norm(proj)
            assert rel < 1e-6, name

    def test_unbiasedness_monte_carlo(self):
        n = 1024
        kernel = gamma_kernel(n)
        f = make_signal("cusp", n)
        blurred = blur(f, kernel)
        truth = forward_transform(f, 3, 5)
        from lrdwaved.noise import NoiseModel

        model = NoiseModel(alpha=0.6, kind="fgn", seed=17)
        reps = 400
        est = np.zeros((reps, 2**4))
        for r in range(reps):
            y = blurred + 0.05 * model.sample(n, r)
            problem = DeconvolutionProblem(observations=y, kernel=kernel, alpha=0.6)
            est[r] = deconvolve_coefficients(problem, 3, 5).detail[4]
        bias = est.mean(axis=0) - truth.detail[4]
        se = est.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(bias) <= 3.5 * se)

    def test_vanishing_kernel_coefficient_named(self):
        n = 256
        fourier = np.ones(n, dtype=complex)
        fourier[7] = 0.0
        problem = DeconvolutionProblem(
            observations=np.zeros(n), kernel=KernelSpec(fourier=fourier)
        )
        with pytest.raises(ValueError, match=r"frequency 7.*level 3"):
            deconvolve_coefficients(problem, 3, 5)


class TestEstimateSigma:
    def test_pure_gaussian_noise(self):
        n = 4096
        hits = 0
        for rep in range(20):
            rng = derive_rng(23, rep)
            y = rng.standard_normal(n)
            problem = DeconvolutionProblem(observations=y, kernel=identity_kernel(n))
            hits += 0.9 <= estimate_sigma(problem) <= 1.1
        assert hits >= 18

    def test_noiseless_smooth_signal(self):
        n = 4096
        t = np.arange(n) / n
        y = np.sin(2 * np.pi * 5 * t) + np.cos(2 * np.pi * 17 * t)
        problem = DeconvolutionProblem(observations=y, kernel=identity_kernel(n))
        assert estimate_sigma(problem) < 1e-6

    def test_signal_plus_noise_within_15_percent(self):
        n = 4096
        kernel = gamma_kernel(n)
        blurred = blur(make_signal("cusp", n), kernel)
        sigma = 0.05
        good = 0
        for rep in range(20):
            rng = derive_rng(29, rep)
            y = blurred + sigma * rng.standard_normal(n)
            problem = DeconvolutionProblem(observations=y, kernel=kernel)
            good += abs(estimate_sigma(problem) - sigma) <= 0.15 * sigma
        assert good >= 18

    def test_constant_data_has_no_noise_scale(self):
        problem = DeconvolutionProblem(observations=np.ones(256), kernel=identity_kernel(256))
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_sigma(problem)

    def test_too_few_coefficients(self):
        problem = DeconvolutionProblem(observations=np.zeros(32), kernel=identity_kernel(32))
        with pytest.raises(ValueError):
            estimate_sigma(problem, finest_level=2)


class TestHardThreshold:
    def _coeffs(self, n=1024):
        rng = np.random.default_rng(5)
        c = WaveletCoefficients.zeros(3, 5, n)
        c.scale[:] = rng.standard_normal(8)
        for j in range(3, 6):
            c.detail[j][:] = rng.standard_normal(2**j)
        return c

    def test_zero_threshold_is_identity(self):
        c = self._coeffs()
        out = hard_threshold(c, make_policy({j: 0.0 for j in range(3, 6)}))
        for j in range(3, 6):
            np.testing.assert_array_equal(out.detail[j], c.detail[j])

    def test_infinite_threshold_zeroes_details(self):
        c = self._coeffs()
        out = hard_threshold(c, make_policy({j: math.inf for j in range(3, 6)}))
        for j in range(3, 6):
            assert np.all(out.detail[j] == 0.0)
        np.testing.assert_array_equal(out.scale, c.scale)

    def test_mixed_known_values(self):
        c = WaveletCoefficients.zeros(3, 3, 256)
        c.detail[3][:2] = [0.5, 1.5]
        out = hard_threshold(c, make_policy({3: 1.0}, n=256))
        assert out.detail[3][0] == 0.0
        assert out.detail[3][1] == 1.5

    def test_keeps_boundary_value(self):
        # |beta| >= lambda keeps, strict inequality drops
        c = WaveletCoefficients.zeros(3, 3, 256)
        c.detail[3][0] = 1.0
        out = hard_threshold(c, make_policy({3: 1.0}, n=256))
        assert out.detail[3][0] == 1.0

    def test_scale_threshold_option(self):
        c = WaveletCoefficients.zeros(3, 3, 256)
        c.scale[:] = 0.5
        out = hard_threshold(c, make_policy({3: 1.0}, threshold_scale=True, n=256))
        assert np.all(out.scale == 0.0)

    def test_input_unchanged(self):
        c = self._coeffs()
        before = c.detail[4].copy()
        hard_threshold(c, make_policy({j: math.inf for j in range(3, 6)}))
        np.testing.assert_array_equal(c.detail[4], before)

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_threshold_definition(self, lam):
        c = self._coeffs()
        out = hard_threshold(c, make_policy({j: lam for j in range(3, 6)}))
        for j in range(3, 6):
            kept = np.abs(c.detail[j]) >= lam
            np.testing.assert_array_equal(out.detail[j][kept], c.detail[j][kept])
            assert np.all(out.detail[j][~kept] == 0.0)


class TestRunEstimator:
    def _problem(self, alpha=1.0, snr_db=20.0, seed=31, rep=0, signal="cusp"):
        from lrdwaved.signals import ExperimentConfig, generate_dataset

        config = ExperimentConfig(signal=signal, n=4096, alpha=alpha, snr_db=snr_db, seed=seed)
        return generate_dataset(config, rep)

    def test_report_structure(self):
        problem, f_true = self._problem()
        report = run_estimator(problem, "iid", math.sqrt(6.0), rng=derive_rng(1, 0))
        assert report.estimate.shape == f_true.shape
        assert report.fine_level_used >= 3
        assert set(report.kept_count) == set(range(3, report.fine_level_used + 1))
        for j, count in report.kept_count.items():
            assert 0 <= count <= 2**j
        rec = inverse_transform(report.coefficients, problem.n)
        np.testing.assert_allclose(rec, report.estimate, atol=1e-10)

    def test_j1_override(self):
        problem, _ = self._problem()
        report = run_estimator(problem, "lrd", 1.0, j1_override=4, rng=derive_rng(1, 0))
        assert report.fine_level_used == 4
        assert report.stopping_m is None
        with pytest.raises(ValueError):
            run_estimator(problem, "lrd", 1.0, j1_override=11)

    def test_beats_zero_estimator_at_high_snr(self):
        # sanity floor: direct observation, low noise
        n = 4096
        f = make_signal("cusp", n)
        problem, f_true = self._problem(alpha=1.0, snr_db=30.0)
        report = run_estimator(problem, "iid", math.sqrt(6.0), rng=derive_rng(2, 0))
        mse = float(np.mean((report.estimate - f_true) ** 2))
        zero_mse = float(np.mean(f_true**2))
        assert mse < zero_mse

    def test_scaling_equivariance(self):
        # scaling the observations by c scales sigma_hat, thresholds and the
        # estimate by c at a fixed resolution (the data-driven level itself
        # tracks the absolute noise scale by construction)
        problem, _ = self._problem()
        scaled = DeconvolutionProblem(
            observations=3.0 * problem.observations,
            kernel=problem.kernel,
            alpha=problem.alpha,
        )
        a = run_estimator(problem, "iid", math.sqrt(6.0), j1_override=5)
        b = run_estimator(scaled, "iid", math.sqrt(6.0), j1_override=5)
        assert b.sigma_hat == pytest.approx(3.0 * a.sigma_hat, rel=1e-9)
        for j in a.policy.lambdas:
            assert b.policy.lam(j) == pytest.approx(3.0 * a.policy.lam(j), rel=1e-9)
        assert b.kept_count == a.kept_count
        np.testing.assert_allclose(b.estimate, 3.0 * a.estimate, rtol=1e-8, atol=1e-12)

    def test_lrd_fine_level_not_above_iid(self):
        # the dependence-aware rule truncates no later than the default rule
        lower = 0
        for rep in range(12):
            problem, _ = self._problem(alpha=0.4, rep=rep)
            lrd = run_estimator(problem, "lrd", 1.0, rng=derive_rng(4, rep))
            iid = run_estimator(problem, "iid", math.sqrt(6.0), rng=derive_rng(4, rep))
            assert lrd.fine_level_used <= iid.fine_level_used
            lower += lrd.fine_level_used < iid.fine_level_used
        assert lower >= 6

    def test_report_json(self):
        problem, _ = self._problem()
        report = run_estimator(problem, "lrd", 1.0, rng=derive_rng(5, 0))
        payload = json.loads(report.to_json())
        assert payload["method"] == "lrd"
        assert "lambdas" in payload and "kept_count" in payload

    def test_unknown_method(self):
        problem, _ = self._problem()
        with pytest.raises(ValueError):
            run_estimator(problem, "soft", 1.0)
