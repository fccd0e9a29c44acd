import math

import numpy as np
import pytest

from lrdwaved.covariance import z_var
from lrdwaved.estimator import estimate_sigma
from lrdwaved.finescale import (
    OPERATIONAL_LOG_POWER,
    _FIRST_WIDTH,
    _channel,
    _channel_noise_sd,
    _cutoffs,
    _fine_levels,
    StoppingResult,
    fine_level_details,
    kernel_channel,
    lemma_bracket,
    stopping_time,
)
from lrdwaved.noise import derive_rng
from lrdwaved.signals import ExperimentConfig, gamma_kernel, generate_dataset
from lrdwaved.thresholds import c_n


class TestStoppingTime:
    def test_all_zero_stops_immediately(self):
        result = stopping_time(np.zeros(100), 1.0, 0.1)
        assert result.M == 1
        assert result.j_hat == -1
        assert not result.saturated

    def test_saturation_flagged(self):
        mags = np.full(64, 1e9)
        result = stopping_time(mags, 1.0, 0.01)
        assert result.saturated
        assert result.M == 64

    @pytest.mark.parametrize("observation", [[], np.ones((2, 4))], ids=["empty", "2-d"])
    def test_observation_shape_checked(self, observation):
        with pytest.raises(ValueError) as info:
            stopping_time(observation, 1.0, 0.1)
        assert info.value.args == ("kernel observation must be a nonempty 1-d sequence",)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            stopping_time(np.ones(8), 1.0, 1.0)
        with pytest.raises(ValueError):
            stopping_time(np.ones(8), 1.0, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        mags = rng.uniform(0, 1, 256)
        a = stopping_time(mags, 0.6, 0.05)
        b = stopping_time(mags, 0.6, 0.05)
        assert a.M == b.M and a.j_hat == b.j_hat

    def test_power_law_crossing_matches_analytic(self):
        # |Y_e[l]| = l^-nu crosses the cutoff at (eps^a log(1/eps^2))^(-2/(2nu+a))
        nu, alpha, eps = 0.7, 1.0, 1e-3
        ells = np.arange(1, 100_001, dtype=float)
        mags = ells**-nu
        result = stopping_time(mags, alpha, eps)
        predicted = (eps**alpha * math.log(1.0 / eps**2)) ** (-2.0 / (2 * nu + alpha))
        assert abs(result.M - predicted) <= 2.0
        # and the lemma-style bracket exponents straddle the rule
        m_lo = (eps**alpha * math.log(1.0 / eps**2) ** (4 / 3)) ** (-2.0 / (2 * nu + alpha))
        m_hi = (eps**alpha * math.log(1.0 / eps**2) ** (2 / 3)) ** (-2.0 / (2 * nu + alpha))
        assert m_lo <= result.M <= m_hi

    def test_level_formula(self):
        mags = np.ones(1000)
        mags[99:] = 0.0
        result = stopping_time(mags, 1.0, 1e-4)
        assert result.M == 100
        assert result.j_hat == int(math.floor(math.log2(100))) - 1

    def test_trace_layout(self):
        result = stopping_time(np.linspace(1, 0, 50), 0.8, 0.05)
        trace = result.threshold_trace
        assert trace.shape == (50, 3)
        np.testing.assert_array_equal(trace[:, 0], np.arange(1, 51))
        assert np.all(trace[:, 2] > 0)


class TestKernelChannel:
    def test_noiseless_channel_is_normalized_kernel(self):
        kernel = gamma_kernel(1024)
        channel = kernel_channel(kernel, 0.6, 2.0, None)
        ells = np.arange(1, 512)
        np.testing.assert_allclose(channel, kernel.fourier[ells] / 2.0)

    def test_noise_level_scales_with_alpha(self):
        kernel = gamma_kernel(1024)
        devs = {}
        for alpha in (1.0, 0.2):
            resid = kernel_channel(kernel, alpha, 1.0, derive_rng(3)) - kernel_channel(
                kernel, alpha, 1.0, None
            )
            devs[alpha] = np.abs(resid[:8]).mean()
        # strong dependence carries much larger low-frequency channel noise
        assert devs[0.2] > 3.0 * devs[1.0]

    def test_matches_gathered_formula(self):
        # the sliced kernel and the cached noise s.d. give the channel the
        # per-call gather and z_var evaluation gave, bit for bit; the stream's
        # normals are interleaved as (re, im) per frequency
        n, alpha, sigma = 512, 0.4, 0.3
        kernel = gamma_kernel(n)
        ells = np.arange(1, n // 2)
        normals = derive_rng(5, 1).standard_normal(2 * ells.size)
        w = (normals[0::2] + 1j * normals[1::2]) * np.sqrt(z_var(ells, 1.0 - alpha / 2.0) / 2.0)
        want = kernel.fourier[ells] / sigma + n ** (-alpha / 2.0) * w
        np.testing.assert_array_equal(kernel_channel(kernel, alpha, sigma, derive_rng(5, 1)), want)

    def test_cached_arrays_read_only_bounded_and_keyed_by_value(self):
        for build, args, same in (
            (_cutoffs, (100, 0.6, 0.1, 0.5), (np.int64(100), np.float64(0.6), 0.1, 0.5)),
            (_channel_noise_sd, (256, 0.6), (np.int64(256), np.float64(0.6))),
        ):
            values = build(*args)
            assert build(*same) is values
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0
            info = build.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        assert _channel_noise_sd(256, 0.6) is not _channel_noise_sd(256, 0.8)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            kernel_channel(gamma_kernel(256), 0.5, 0.0, None)
        with pytest.raises(ValueError, match="sigma_hat must be positive"):
            _channel(gamma_kernel(256), 0.5, [0.3, -1.0], [None, None], 0, 127)

    @pytest.mark.parametrize("sigma_hat", [math.nan, math.inf])
    def test_non_finite_sigma_refused_by_kernel_channel(self, sigma_hat):
        # a NaN sigma_hat would give an all-NaN channel
        with pytest.raises(ValueError, match="sigma_hat must be positive"):
            kernel_channel(gamma_kernel(1024), 0.6, sigma_hat, None)

    def test_non_finite_sigma_refused_by_fine_level_details(self):
        # a NaN channel never crosses its cutoff, so the stop would saturate silently
        problem, _ = generate_dataset(ExperimentConfig("cusp", n=1024, alpha=0.6))
        with pytest.raises(ValueError, match="sigma_hat must be positive"):
            fine_level_details(problem, 0.6, sigma_hat=math.nan, rng=derive_rng(1))

    def test_non_finite_sigma_refused_by_lemma_bracket(self):
        # a NaN channel would give the saturated bracket (511, 511)
        with pytest.raises(ValueError, match="sigma_hat must be positive"):
            lemma_bracket(gamma_kernel(1024), 0.6, math.nan, 1024**-0.5)

    def test_stacked_rows_equal_one_row_channels(self):
        # rows of several problems, each divided by its own sigma_hat
        n, alpha = 512, 0.6
        kernel = gamma_kernel(n)
        sigmas = [0.3, 0.3, 0.7, 0.7, 1.1]
        keys = [(4, 0, 0), (4, 0, 1), (4, 1, 0), None, (4, 2, 0)]
        rngs = [None if key is None else derive_rng(*key) for key in keys]
        size = n // 2 - 1
        # built in pieces, the later ones over a subset of the rows
        stacked = np.empty((len(keys), size), dtype=complex)
        for rows, lo, hi in (([0, 1, 2, 3, 4], 0, 100), ([0, 2, 3], 100, 101),
                             ([1, 4], 100, 200), ([0, 2, 3], 101, 200),
                             ([0, 1, 2, 3, 4], 200, size)):
            stacked[rows, lo:hi] = _channel(
                kernel, alpha, [sigmas[i] for i in rows], [rngs[i] for i in rows], lo, hi
            )
        for row, sigma, key in zip(stacked, sigmas, keys):
            alone = kernel_channel(kernel, alpha, sigma, None if key is None else derive_rng(*key))
            assert row.tobytes() == alone.tobytes()

    def test_stacked_fine_levels_equal_one_row_levels(self):
        config = ExperimentConfig("cusp", n=1024, alpha=0.4, snr_db=30.0, seed=3)
        problems = [generate_dataset(config, rep)[0] for rep in range(3)]
        rows = [(rep, i, alpha) for rep in range(3) for i, alpha in enumerate((1.0, 0.4))]
        stacked = _fine_levels(
            problems[0].kernel, 0.4, [alpha for *_, alpha in rows],
            [problems[rep].sigma_hat for rep, *_ in rows],
            [derive_rng(3, rep, i) for rep, i, _ in rows], 3,
        )
        for (level, stop_m, saturated), (rep, i, alpha) in zip(stacked, rows):
            alone_level, alone = fine_level_details(
                problems[rep], alpha, rng=derive_rng(3, rep, i)
            )
            assert (level, stop_m, saturated) == (alone_level, alone.M, alone.saturated)

    def test_prefix_scan_equals_full_trace_beyond_the_first_width(self):
        # Doppler 30 dB at alpha=0.2 crosses in the second and third widths; a
        # large sigma_hat crosses early, and a halved or tiny one saturates
        config = ExperimentConfig("doppler", n=1024, alpha=0.2, snr_db=30.0, seed=3)
        problems = [generate_dataset(config, rep)[0] for rep in range(3)]
        sigmas = [p.sigma_hat for p in problems]
        rows = [  # (problem, stream key, rule alpha, sigma_hat)
            (0, (3, 0, 0), 1.0, 0.5 * sigmas[0]),
            (0, (3, 0, 1), 0.2, sigmas[0]),
            (1, (3, 1, 0), 1.0, sigmas[1]),
            (1, None, 0.2, sigmas[1]),
            (2, (3, 2, 0), 1.0, 20.0 * sigmas[2]),
            (2, (3, 2, 1), 0.2, sigmas[2]),
            (2, (3, 2, 2), 0.2, 1e-6),
        ]

        def rng(key):
            return None if key is None else derive_rng(*key)

        stacked = _fine_levels(
            problems[0].kernel, 0.2, [alpha for *_, alpha, _ in rows],
            [sigma for *_, sigma in rows], [rng(key) for _, key, *_ in rows], 3,
        )
        for (level, stop_m, saturated), (rep, key, alpha, sigma) in zip(stacked, rows):
            alone_level, alone = fine_level_details(
                problems[rep], alpha, sigma_hat=sigma, rng=rng(key)
            )
            assert (level, stop_m, saturated) == (alone_level, alone.M, alone.saturated)
        ms = [stop_m for _, stop_m, saturated in stacked if not saturated]
        assert min(ms) <= _FIRST_WIDTH < max(ms)
        assert any(128 < m <= 256 for m in ms) and max(ms) > 256
        assert [saturated for *_, saturated in stacked].count(True) == 2


class TestLemmaBracket:
    def test_ordering(self):
        kernel = gamma_kernel(4096)
        m_c, m_d = lemma_bracket(kernel, 1.0, 0.05, 4096**-0.5)
        assert 1 <= m_c <= m_d

    def test_contains_noiseless_stopping_time(self):
        kernel = gamma_kernel(4096)
        for log_power in (1.0, OPERATIONAL_LOG_POWER):
            for alpha in (1.0, 0.6):
                channel = kernel_channel(kernel, alpha, 0.05, None)
                m = stopping_time(channel, alpha, 4096**-0.5, log_power).M
                m_c, m_d = lemma_bracket(kernel, alpha, 0.05, 4096**-0.5, log_power)
                assert m_c <= m <= m_d


class TestEstimateFineLevel:
    def _problem(self, alpha, snr_db=20.0, rep=0, seed=41):
        config = ExperimentConfig(signal="cusp", n=4096, alpha=alpha, snr_db=snr_db, seed=seed)
        return generate_dataset(config, rep)[0]

    def test_white_noise_typical_level(self):
        # cusp at 20dB under the default rule concentrates on level 5
        levels = []
        for rep in range(40):
            problem = self._problem(1.0, rep=rep)
            levels.append(fine_level_details(problem, 1.0, rng=derive_rng(43, rep))[0])
        values, counts = np.unique(levels, return_counts=True)
        assert values[np.argmax(counts)] == 5

    def test_strong_dependence_typical_level(self):
        levels = []
        for rep in range(40):
            problem = self._problem(0.4, rep=rep)
            levels.append(fine_level_details(problem, 0.4, rng=derive_rng(47, rep))[0])
        values, counts = np.unique(levels, return_counts=True)
        assert values[np.argmax(counts)] == 3

    def test_never_below_coarse_level(self):
        problem = self._problem(0.2, snr_db=5.0)
        level = fine_level_details(problem, 0.2, rng=derive_rng(53, 0))[0]
        assert level >= 3

    def test_monotone_in_alpha_for_fixed_realization(self):
        # dependence-aware cutoff never selects beyond the white-noise rule
        weaker = 0
        for rep in range(30):
            problem = self._problem(0.2, rep=rep)
            sh = estimate_sigma(problem)
            lo, _ = fine_level_details(problem, 0.2, sigma_hat=sh, rng=derive_rng(59, rep))
            hi, _ = fine_level_details(problem, 1.0, sigma_hat=sh, rng=derive_rng(59, rep))
            assert lo <= hi
            weaker += lo < hi
        assert weaker >= 20

    def test_determinism_given_rng(self):
        problem = self._problem(0.6)
        a = fine_level_details(problem, 0.6, rng=derive_rng(61, 0))[0]
        b = fine_level_details(problem, 0.6, rng=derive_rng(61, 0))[0]
        assert a == b

    def test_saturation_reported_not_clamped(self):
        # a flat huge channel saturates; the result must say so
        mags = np.full(2047, 1e12)
        result = stopping_time(mags, 1.0, 4096**-0.5)
        assert result.saturated

    def test_details_expose_stopping_result(self):
        problem = self._problem(0.6)
        level, stopping = fine_level_details(problem, 0.6, rng=derive_rng(67, 0))
        assert isinstance(stopping, StoppingResult)
        assert level == min(max(stopping.j_hat, 3), 8)

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.7, -1.0])
    def test_alpha_outside_its_domain_refused(self, alpha):
        # unchecked, fine_level_details gives a saturated stop at NaN and
        # levels 3 / 5 / 3 at the others, and c_n(1024, nan) is NaN
        problem, _ = generate_dataset(ExperimentConfig("cusp", n=1024, alpha=0.6))
        message = r"alpha must lie in \(0, 1\], got "
        with pytest.raises(ValueError, match=message):
            fine_level_details(problem, alpha, rng=derive_rng(1))
        with pytest.raises(ValueError, match=message):
            c_n(1024, alpha)
        with pytest.raises(ValueError, match=message):
            stopping_time(np.ones(10), alpha, 0.01)
