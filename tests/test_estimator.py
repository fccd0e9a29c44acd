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
from lrdwaved.signals import ExperimentConfig, blur, gamma_kernel, generate_dataset, make_signal
from lrdwaved.thresholds import ThresholdPolicy


def identity_kernel(n):
    return KernelSpec(fourier=np.ones(n, dtype=complex))


def make_policy(lambdas, method="iid", n=1024):
    return ThresholdPolicy(
        method=method,
        smoothing=1.0,
        sigma_hat=1.0,
        alpha=1.0,
        n=n,
        lambdas=lambdas,
    )


def noise_problem(n=64):
    return DeconvolutionProblem(derive_rng(1).standard_normal(n), identity_kernel(n))


class TestProblemValidation:
    @pytest.mark.parametrize("call, message", [
        (lambda: DeconvolutionProblem(np.zeros(64), identity_kernel(64), alpha=1.5),
         "alpha must lie in (0, 1], got 1.5"),
        (lambda: run_estimator(noise_problem(), "lrd", 0.0),
         "smoothing constant must be positive, got 0.0"),
        (lambda: run_estimator(noise_problem(), "lrd", float("nan")),
         "smoothing constant must be finite, got nan"),
        (lambda: run_estimator(noise_problem(), "iid", float("inf")),
         "smoothing constant must be finite, got inf"),
        (lambda: deconvolve_coefficients(noise_problem(), 5, 4), "need j0 <= j1, got (5, 4)"),
        (lambda: run_estimator(noise_problem(), "lrd", 1.0, j1_override=5),
         "fine level j1=5 too large for n=64: need j1 <= log2(n)-2 "
         "so all band frequencies stay below the Nyquist range"),
        (lambda: run_estimator(noise_problem(), "lrd", 1.0, j1_override=2),
         "need j0 <= j1, got (3, 2)"),
    ], ids=["problem-alpha", "run-estimator-smoothing", "run-estimator-nan-smoothing",
            "run-estimator-inf-smoothing", "deconvolve-j0-above-j1",
            "j1-override-too-fine", "j1-override-below-j0"])
    def test_public_input_check_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.value.args == (message,)

    def test_levels_checked_before_the_grid(self):
        # j0 > j1 is reported first everywhere, even where j1 is also too
        # fine for the grid
        from lrdwaved.thresholds import build_policy

        n, message = 64, "need j0 <= j1, got (9, 8)"
        calls = [
            lambda: deconvolve_coefficients(noise_problem(n), 9, 8),
            lambda: forward_transform(np.zeros(n), 9, 8),
            lambda: build_policy("iid", identity_kernel(n), n, 1.0, 1.0, 1.0, 9, 8),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert info.value.args == (message,)

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

    @given(
        st.sampled_from([32, 64, 256]),
        st.integers(0, 2**31 - 1),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_at_any_position_rejected(self, n, where, bad, imaginary):
        # one NaN or infinity anywhere in y, or in either part of K_hat, is refused
        position = where % n
        y = np.random.default_rng(where).standard_normal(n)
        y[position] = bad
        with pytest.raises(ValueError, match="finite"):
            DeconvolutionProblem(observations=y, kernel=identity_kernel(n))
        fourier = np.ones(n, dtype=complex)
        fourier[position] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
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
        # a detail-band zero names its level, a scale-band zero the scale level
        n = 256
        for ell, band in ((7, "level 3"), (2, "scale level 3")):
            fourier = np.ones(n, dtype=complex)
            fourier[ell] = 0.0
            problem = DeconvolutionProblem(
                observations=np.zeros(n), kernel=KernelSpec(fourier=fourier)
            )
            with pytest.raises(ValueError, match=rf"frequency {ell} \({band}\)"):
                deconvolve_coefficients(problem, 3, 5)

    def test_subnormal_kernel_coefficient_named(self):
        # |K_hat| = 1e-320 is not zero but overflows Y_hat / K_hat to inf, which the
        # analysis turns into NaN coefficients: it is refused as vanishing
        problem, _ = generate_dataset(ExperimentConfig("cusp", n=1024, alpha=0.6))
        fourier = problem.kernel.fourier.copy()
        fourier[[20, -20]] = 1e-320
        problem = DeconvolutionProblem(problem.observations, KernelSpec(fourier), alpha=0.6)
        with pytest.raises(ValueError, match=r"vanishes at frequency -?20 \(level 4\)"):
            deconvolve_coefficients(problem, 3, 5)

    def test_unit_kernel_gives_the_forward_transform_bytes(self):
        # deconvolution analyses Y_hat / K_hat and the forward transform Y_hat over unit
        # divisors, in one band loop: with K_hat = 1 the two agree bit for bit on every band
        y = derive_rng(6).standard_normal(256)
        got = deconvolve_coefficients(DeconvolutionProblem(y, KernelSpec(np.ones(256))), 3, 6)
        want = forward_transform(y, 3, 6)
        assert got.scale.tobytes() == want.scale.tobytes()
        for j in range(3, 7):
            assert got.detail[j].tobytes() == want.detail[j].tobytes(), j

    def test_one_band_loop_per_transform(self, monkeypatch):
        # the forward transform and deconvolution each run meyer._analysis once, over all bands
        from lrdwaved import meyer

        calls, real = [], meyer._analysis

        def counting(spectra, j0, j1, divisors, label):
            calls.append((j0, j1))
            return real(spectra, j0, j1, divisors, label)

        monkeypatch.setattr(meyer, "_analysis", counting)
        y = derive_rng(6).standard_normal(256)
        forward_transform(y, 3, 6)
        assert calls == [(3, 6)]
        deconvolve_coefficients(DeconvolutionProblem(y, gamma_kernel(256)), 3, 5)
        assert calls == [(3, 6), (3, 5)]

    def test_kernel_bands_gathered_once_per_kernel_value(self):
        # the validated band coefficients are cached by (kernel value, level) and
        # read-only: a second problem through an equal kernel gathers and checks
        # no band; a vanishing coefficient is not cached and raises every time
        from lrdwaved.covariance import _kernel_band
        from lrdwaved.meyer import _detail_plan

        _kernel_band.cache_clear()
        kernel = gamma_kernel(256)
        rng = np.random.default_rng(4)
        deconvolve_coefficients(DeconvolutionProblem(rng.standard_normal(256), kernel), 3, 5)
        assert _kernel_band.cache_info().misses == 4  # the scale band and levels 3-5
        band = _kernel_band(kernel, 4)
        assert not band.flags.writeable
        np.testing.assert_array_equal(band, kernel.fourier[_detail_plan(4, 256).index])

        y = rng.standard_normal(256)
        deconvolve_coefficients(DeconvolutionProblem(y, KernelSpec(kernel.fourier)), 3, 5)
        assert _kernel_band.cache_info().misses == 4

        fourier = np.ones(256, dtype=complex)
        fourier[7] = 0.0
        problem = DeconvolutionProblem(np.zeros(256), KernelSpec(fourier=fourier))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"frequency 7 \(level 3\)"):
                deconvolve_coefficients(problem, 3, 5)


def random_kernel(n, seed):
    """A real kernel's spectrum with no zero: Hermitian, |K_hat| in [0.05, 1]."""
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.05, 1.0, n // 2 + 1) * np.exp(2j * np.pi * rng.uniform(size=n // 2 + 1))
    half[0] = half[0].real
    half[-1] = abs(half[-1])
    return KernelSpec(fourier=np.concatenate([half, np.conj(half[-2:0:-1])]))


class TestDeconvolutionProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(-3.0, 3.0, allow_nan=False),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_in_observations(self, seed, a, b):
        n = 256
        kernel = random_kernel(n, seed)
        rng = np.random.default_rng(seed + 1)
        y1, y2 = rng.standard_normal(n), rng.standard_normal(n)

        def dec(y):
            return deconvolve_coefficients(DeconvolutionProblem(observations=y, kernel=kernel), 3, 6)

        mix, c1, c2 = dec(a * y1 + b * y2), dec(y1), dec(y2)
        scale = 1.0 + abs(a) * np.abs(c1.detail[6]).max() + abs(b) * np.abs(c2.detail[6]).max()
        np.testing.assert_allclose(mix.scale, a * c1.scale + b * c2.scale, rtol=0, atol=1e-12 * scale)
        for j in mix.levels():
            np.testing.assert_allclose(
                mix.detail[j], a * c1.detail[j] + b * c2.detail[j], rtol=0, atol=1e-12 * scale
            )

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_circular_shift_equivariance(self, seed, j0, steps):
        # rolling y by n 2^-j0 samples shifts time by 2^-j0: level-j coefficients
        # roll by 2^(j - j0) places and the scale coefficients by one
        n = 256
        kernel = random_kernel(n, seed)
        y = np.random.default_rng(seed + 1).standard_normal(n)
        shift = steps * n // 2**j0
        base = deconvolve_coefficients(DeconvolutionProblem(observations=y, kernel=kernel), j0, 6)
        moved = deconvolve_coefficients(
            DeconvolutionProblem(observations=np.roll(y, shift), kernel=kernel), j0, 6
        )
        scale = 1.0 + max(np.abs(base.detail[j]).max() for j in base.levels())
        np.testing.assert_allclose(moved.scale, np.roll(base.scale, steps), rtol=0, atol=1e-12 * scale)
        for j in base.levels():
            np.testing.assert_allclose(
                moved.detail[j], np.roll(base.detail[j], steps * 2 ** (j - j0)),
                rtol=0, atol=1e-12 * scale,
            )


class TestObservationSpectrum:
    def test_observations_are_a_read_only_copy(self):
        y = np.arange(64, dtype=float)
        problem = DeconvolutionProblem(observations=y, kernel=identity_kernel(64))
        y[0] = 99.0
        assert problem.observations[0] == 0.0
        with pytest.raises(ValueError):
            problem.observations[1] = 5.0

    def test_spectrum_computed_once_and_read_only(self):
        y = np.random.default_rng(1).standard_normal(128)
        problem = DeconvolutionProblem(observations=y, kernel=identity_kernel(128))
        assert problem.spectrum is problem.spectrum
        np.testing.assert_array_equal(problem.spectrum, np.fft.fft(y) / 128)
        assert not problem.spectrum.flags.writeable

    def test_one_fft_of_y_per_problem(self, monkeypatch):
        # sigma_hat and the deconvolution of every method read one cached Y_hat
        from lrdwaved.signals import ExperimentConfig, generate_dataset

        problem, _ = generate_dataset(ExperimentConfig(signal="cusp", n=1024, alpha=0.6), 0)
        calls = []
        real_fft = np.fft.fft

        def counting_fft(a, *args, **kwargs):
            if np.shape(a)[-1] == problem.n:
                calls.append(1)
            return real_fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        for method, smoothing in (("iid", 2.4), ("lrd", 1.0), ("lrd", 1.4)):
            run_estimator(problem, method, smoothing, rng=derive_rng(1, 0))
        assert len(calls) == 1


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
        # a failed estimate is not cached: every read raises again
        with pytest.raises(ValueError, match="finite and positive"):
            problem.sigma_hat

    def test_stacked_sigma_hats_equal_each_problem(self):
        from lrdwaved.estimator import _sigma_hats

        n = 1024
        kernel = gamma_kernel(n)
        rng = np.random.default_rng(12)
        problems = [DeconvolutionProblem(rng.standard_normal(n) * s, kernel) for s in (0.5, 1, 2)]
        spectra = np.array([p.spectrum for p in problems])
        assert _sigma_hats(spectra).tolist() == [p.sigma_hat for p in problems]
        spectra[1] = DeconvolutionProblem(np.ones(n), kernel).spectrum
        with pytest.raises(ValueError, match="finite and positive, got 0.0"):
            _sigma_hats(spectra)

    @given(
        st.integers(1, 1024),
        st.integers(1, 3),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mad_equals_the_median_mad(self, half, rows, pool, seed):
        # tie-heavy rows of even width 2..2048, drawn from a few values and
        # both signed zeros, give np.median's MAD bit for bit
        from lrdwaved.estimator import _mad

        values = np.array(pool + [0.0, -0.0])
        x = np.random.default_rng(seed).choice(values, size=(rows, 2 * half))
        # values near the float limit overflow to inf alike in both
        with np.errstate(over="ignore"):
            expected = np.median(np.abs(x - np.median(x, axis=-1, keepdims=True)), axis=-1)
            assert _mad(x).tobytes() == expected.tobytes()

    def test_stacked_pass_takes_kernels_equal_by_value(self):
        # a pass through a kernel that is another object with equal
        # coefficients equals the pass through the shared kernel
        from lrdwaved.estimator import _block_pass
        from lrdwaved.meyer import _spectra

        rng = np.random.default_rng(13)
        ys = np.array([rng.standard_normal(256) for _ in range(2)])
        shared = gamma_kernel(256)
        methods = [("lrd", 1.0), ("iid", 2.0)]
        passes = [
            _block_pass(
                _spectra(ys), kernel, 0.6, methods,
                [[derive_rng(2, b, i) for i in range(2)] for b in range(2)],
            )
            for kernel in (shared, KernelSpec(shared.fourier))
        ]
        assert passes[1].estimates.tobytes() == passes[0].estimates.tobytes()
        assert passes[1].levels.tolist() == passes[0].levels.tolist()

    def test_block_pass_analyses_the_finest_level_once_for_every_method(self, monkeypatch):
        # the stopping rule and the thresholds of all three default methods on
        # every dataset of a block read one stacked sigma_hat: one analysis of
        # the finest level J, the problems' own sigma_hat recipe
        from lrdwaved import meyer
        from lrdwaved.estimator import _block_pass
        from lrdwaved.signals import ExperimentConfig, generate_dataset

        config = ExperimentConfig(signal="cusp", n=1024, alpha=0.6)
        problems = [generate_dataset(config, rep)[0] for rep in range(2)]
        methods = [("iid", 2.4), ("lrd", 0.77), ("lrd", 1.1)]
        finest = int(math.log2(config.n)) - 2
        calls = []
        real = meyer._detail_from_spectrum

        def counting(spectrum, j, n):
            calls.append(j)
            return real(spectrum, j, n)

        monkeypatch.setattr(meyer, "_detail_from_spectrum", counting)
        block = _block_pass(
            np.stack([p.spectrum for p in problems]), problems[0].kernel, 0.6, methods,
            [[derive_rng(1, b, i) for i in range(3)] for b in range(2)],
        )
        assert calls.count(finest) == 1
        assert block.sigma_hats.tolist() == [p.sigma_hat for p in problems]
        reports = [
            run_estimator(problems[0], method, smoothing, rng=derive_rng(1, 0, i))
            for i, (method, smoothing) in enumerate(methods)
        ]
        assert estimate_sigma(problems[0]) == problems[0].sigma_hat
        assert {r.sigma_hat for r in reports} == {problems[0].sigma_hat}


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
        payload = json.loads(json.dumps(report.as_dict(), sort_keys=True))
        assert payload["method"] == "lrd"
        assert "lambdas" in payload and "kept_count" in payload

    def test_report_json_with_a_float32_alpha(self):
        # unchecked, the problem kept the float32 and json.dumps refused the report's alpha
        problem, _ = generate_dataset(ExperimentConfig("cusp", n=1024, alpha=0.6))
        problem = DeconvolutionProblem(problem.observations, problem.kernel, np.float32(0.6))
        report = run_estimator(problem, "lrd", 1.0, rng=derive_rng(5, 0))
        assert json.loads(json.dumps(report.as_dict()))["alpha"] == float(np.float32(0.6))

    def test_warm_replication_evaluates_no_window(self, monkeypatch):
        # after one warm-up run at a given n, a replication reads every band
        # layout and window from the cached plans and every tau from the
        # value cache, though its kernel is another object
        from lrdwaved import covariance, meyer
        from lrdwaved.signals import ExperimentConfig, generate_dataset

        config = ExperimentConfig(signal="cusp", n=1024, alpha=0.6, snr_db=20.0, seed=8)
        warm, _ = generate_dataset(config, 0)
        for method in ("iid", "lrd"):
            run_estimator(warm, method, 1.0, j1_override=8)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm replication evaluated a Meyer window or band")

        for name in ("psi_hat", "phi_hat", "band_set", "scale_band_set"):
            monkeypatch.setattr(meyer, name, forbidden)
        monkeypatch.setattr(covariance, "psi_hat", forbidden)
        gamma_kernel.cache_clear()
        problem, _ = generate_dataset(config, 1)
        assert problem.kernel is not warm.kernel
        for method in ("iid", "lrd"):
            report = run_estimator(problem, method, 1.0, rng=derive_rng(8, 1))
            assert np.all(np.isfinite(report.estimate))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the input
    @pytest.mark.parametrize("y_scale, k_hat_20, where", [
        (3e305, None, "scale level 3"),  # Y_hat overflows at frequency 0
        (1e20, 1e-300, "detail level 4"),  # Y_hat / K_hat overflows at frequency 20
    ])
    def test_non_finite_coefficients_named_by_level(self, y_scale, k_hat_20, where):
        # finite observations and a finite sigma_hat, yet every f_hat would be NaN
        problem, _ = generate_dataset(ExperimentConfig("cusp", n=1024, alpha=0.6, seed=0))
        fourier = problem.kernel.fourier.copy()
        if k_hat_20 is not None:
            fourier[[20, -20]] = k_hat_20
        problem = DeconvolutionProblem(
            problem.observations * y_scale, KernelSpec(fourier), alpha=0.6
        )
        with pytest.raises(ValueError, match=f"deconvolved coefficients at {where} are not"):
            run_estimator(problem, "iid", math.sqrt(6.0), j1_override=5)

    def test_unknown_method(self):
        problem, _ = self._problem()
        with pytest.raises(ValueError):
            run_estimator(problem, "soft", 1.0)

    def test_block_lambdas_are_build_policy_lambdas(self):
        # every row's lambda_j equals build_policy's bit for bit, for both
        # methods, whatever table build_policy is given: none, one that
        # matches, matches by kernel value, or has the wrong alpha or kernel
        from lrdwaved.covariance import KernelSpec, VarianceTable
        from lrdwaved.estimator import _block_pass
        from lrdwaved.meyer import _spectra
        from lrdwaved.signals import ExperimentConfig, _clean_cell, _noisy_problem, _observations
        from lrdwaved.thresholds import build_policy

        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, seed=3)
        cell = _clean_cell(config)
        kernel = cell.kernel
        problems = [_noisy_problem(cell, rep) for rep in range(3)]
        same_values = KernelSpec(fourier=kernel.fourier.copy())
        other = gamma_kernel(1024, shape=0.3)
        tables = [
            None,
            VarianceTable(kernel=kernel, alpha=0.4),
            VarianceTable(kernel=same_values, alpha=0.4),
            VarianceTable(kernel=kernel, alpha=0.9),
            VarianceTable(kernel=other, alpha=0.4),
            VarianceTable(kernel=kernel, alpha=1.0),
            VarianceTable(kernel=other, alpha=1.0),
        ]
        methods = [("lrd", 0.7), ("iid", 2.1)]
        rngs = [[derive_rng(6, rep, i) for i in range(2)] for rep in range(3)]
        block = _block_pass(_spectra(_observations(cell, range(3))), kernel, 0.4, methods, rngs)
        # build_policy reports the alpha the method assumes, as run_estimator does
        assumed = [
            run_estimator(problems[r // 2], *methods[r % 2], rng=derive_rng(6, r // 2, r % 2))
            .policy.alpha
            for r in range(6)
        ]
        assert assumed == [0.4, 1.0] * 3
        for table in tables:
            for r, j1 in enumerate(block.levels.tolist()):
                (method, smoothing), b = methods[r % 2], r // 2
                policy = build_policy(
                    method, kernel, 1024, 0.4, block.sigma_hats[b], smoothing, 3, j1,
                    variance_table=table,
                )
                assert policy.alpha == assumed[r]
                lambdas = {j: float(lams[r]) for j, lams in block.lambdas.items() if j <= j1}
                assert lambdas == policy.lambdas
                # a row's lambda above its own fine level is +inf
                assert all(lams[r] == np.inf for j, lams in block.lambdas.items() if j > j1)
                assert all(
                    lambdas[j].hex() == policy.lambdas[j].hex() for j in policy.lambdas
                )

    def test_block_stack_is_each_rows_hard_threshold(self):
        # every row of the pass's one thresholded band stack, its lambda and
        # kept count per level, equal hard_threshold of that row's dataset's
        # deconvolved coefficients under run_estimator's policy, bit for bit;
        # the scale block is the dataset's, untouched
        from lrdwaved.estimator import _block_pass, deconvolve_coefficients
        from lrdwaved.meyer import _spectra
        from lrdwaved.signals import ExperimentConfig, _clean_cell, _noisy_problem, _observations

        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, seed=3)
        cell = _clean_cell(config)
        methods = [("iid", 2.1), ("lrd", 0.7), ("lrd", 1.3)]
        rngs = [[derive_rng(7, rep, i) for i in range(3)] for rep in range(4)]
        block = _block_pass(_spectra(_observations(cell, range(4))), cell.kernel, 0.4, methods,
                            rngs)
        top = max(block.detail)
        assert len(set(block.levels.tolist())) > 1
        for r, j1 in enumerate(block.levels.tolist()):
            b, i = divmod(r, 3)
            problem = _noisy_problem(cell, b)
            report = run_estimator(problem, *methods[i], rng=derive_rng(7, b, i))
            kept = hard_threshold(deconvolve_coefficients(problem, 3, j1), report.policy)
            assert block.scale[b].tobytes() == kept.scale.tobytes()
            for j in range(3, top + 1):
                if j <= j1:
                    assert block.detail[j][r].tobytes() == kept.detail[j].tobytes()
                    assert block.lambdas[j][r] == report.policy.lambdas[j]
                    assert block.counts[j][r] == np.count_nonzero(kept.detail[j])
                    assert block.counts[j][r] == report.kept_count[j]
                else:
                    assert not block.detail[j][r].any() and block.counts[j][r] == 0
            assert block.kept[r] == sum(report.kept_count.values())

    def test_block_rows_stop_at_their_own_fine_level(self):
        # a block whose rows stop at levels 4, 5 and 6 thresholds every row at
        # every level up to 6: above a row's own level its coefficients are 0,
        # its lambda +inf and its kept count 0, and the row still equals
        # run_estimator on its dataset and keeps the MSE it had when each level
        # held only the rows that reach it (sha256 of the 24 MSEs, row order)
        import hashlib

        from lrdwaved.estimator import _block_pass
        from lrdwaved.meyer import _spectra
        from lrdwaved.signals import (
            ExperimentConfig, _clean_cell, _noisy_problem, _observations, resolve_smoothing,
        )
        from lrdwaved.thresholds import _method_alpha

        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, replications=8, seed=3)
        cell = _clean_cell(config)
        methods = [
            (method, resolve_smoothing(spec, _method_alpha(method, 0.4)))
            for method, spec in zip(config.methods, config.smoothing)
        ]
        rngs = [[derive_rng(3, rep, i) for i in range(3)] for rep in range(8)]
        block = _block_pass(_spectra(_observations(cell, range(8))), cell.kernel, 0.4, methods,
                            rngs)
        assert set(block.levels.tolist()) == {4, 5, 6}
        assert max(block.detail) == 6
        for r, j1 in enumerate(block.levels.tolist()):
            for j in range(j1 + 1, 7):
                assert not block.detail[j][r].any()
                assert block.lambdas[j][r] == np.inf
                assert block.counts[j][r] == 0
            b, i = divmod(r, 3)
            alone = run_estimator(_noisy_problem(cell, b), *methods[i], rng=derive_rng(3, b, i))
            assert alone.fine_level_used == j1
            assert np.array_equal(block.estimates[r], alone.estimate)
        sq = np.subtract(block.estimates, cell.f_true)
        sq *= sq
        assert hashlib.sha256(sq.mean(axis=1).tobytes()).hexdigest() == (
            "6550d6beea7996621b4b1def30879a8a073afeb9be77d35c5c7884f2ad2439fe"
        )
