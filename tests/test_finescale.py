import math

import numpy as np
import pytest

from lrdwaved.covariance import z_var
from lrdwaved.estimator import estimate_sigma
from lrdwaved.finescale import (
    OPERATIONAL_LOG_POWER,
    _channel_noise_sd,
    _cutoffs,
    StoppingResult,
    estimate_fine_level,
    fine_level_details,
    kernel_channel,
    lemma_bracket,
    stopping_time,
)
from lrdwaved.noise import derive_rng
from lrdwaved.signals import ExperimentConfig, gamma_kernel, generate_dataset


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
        np.testing.assert_allclose(channel, kernel.coefficient(ells) / 2.0)

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
        # per-call gather and z_var evaluation gave, bit for bit
        n, alpha, sigma = 512, 0.4, 0.3
        kernel = gamma_kernel(n)
        ells = np.arange(1, n // 2)
        rng = derive_rng(5, 1)
        w = (rng.standard_normal(ells.size) + 1j * rng.standard_normal(ells.size)) * np.sqrt(
            z_var(ells, 1.0 - alpha / 2.0) / 2.0
        )
        want = kernel.coefficient(ells) / sigma + n ** (-alpha / 2.0) * w
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
            levels.append(estimate_fine_level(problem, 1.0, rng=derive_rng(43, rep)))
        values, counts = np.unique(levels, return_counts=True)
        assert values[np.argmax(counts)] == 5

    def test_strong_dependence_typical_level(self):
        levels = []
        for rep in range(40):
            problem = self._problem(0.4, rep=rep)
            levels.append(estimate_fine_level(problem, 0.4, rng=derive_rng(47, rep)))
        values, counts = np.unique(levels, return_counts=True)
        assert values[np.argmax(counts)] == 3

    def test_never_below_coarse_level(self):
        problem = self._problem(0.2, snr_db=5.0)
        level = estimate_fine_level(problem, 0.2, rng=derive_rng(53, 0))
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
        a = estimate_fine_level(problem, 0.6, rng=derive_rng(61, 0))
        b = estimate_fine_level(problem, 0.6, rng=derive_rng(61, 0))
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
