import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from lrdwaved.noise import (
    NoiseModel,
    _embedding_sqrt,
    _farima_factor,
    _sqrt_embedding_eigenvalues,
    derive_rng,
    farima_autocovariance,
    fgn_autocovariance,
)


class TestAutocovariances:
    def test_fgn_unit_variance(self):
        for hurst in (0.5, 0.7, 0.9):
            assert fgn_autocovariance(0, hurst) == 1.0

    def test_fgn_white_noise_case(self):
        assert fgn_autocovariance(1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_fgn_lag_one_value(self):
        assert fgn_autocovariance(1, 0.8) == pytest.approx(0.5 * (2**1.6 - 2), rel=1e-12)

    def test_fgn_symmetric_in_lag(self):
        assert fgn_autocovariance(-4, 0.7) == fgn_autocovariance(4, 0.7)

    def test_fgn_hurst_range(self):
        with pytest.raises(ValueError):
            fgn_autocovariance(1, 0.3)
        with pytest.raises(ValueError):
            fgn_autocovariance(1, 1.0)

    def test_farima_gamma0(self):
        from math import gamma

        d = 0.2
        assert farima_autocovariance(0, d) == pytest.approx(
            gamma(1 - 2 * d) / gamma(1 - d) ** 2, rel=1e-12
        )

    def test_farima_lag_ratio(self):
        # gamma(1)/gamma(0) = d/(1-d)
        for d in (0.1, 0.25, 0.4):
            ratio = farima_autocovariance(1, d) / farima_autocovariance(0, d)
            assert ratio == pytest.approx(d / (1 - d), rel=1e-12)

    def test_farima_matches_lag_recursion(self):
        # per-lag reference; the cumulative product rounds in another order
        for d in (0.05, 0.25, 0.45):
            gam = [farima_autocovariance(0, d)]
            for lag in range(1, 4096):
                gam.append(gam[-1] * (lag - 1.0 + d) / (lag - d))
            rtol = 4 * 4096 * np.finfo(float).eps
            np.testing.assert_allclose(farima_autocovariance(np.arange(4096), d), gam, rtol=rtol)

    def test_farima_d_range(self):
        with pytest.raises(ValueError):
            farima_autocovariance(1, 0.5)
        with pytest.raises(ValueError):
            farima_autocovariance(1, -0.1)


class TestNoiseModel:
    def test_parameter_links(self):
        m = NoiseModel(alpha=0.6, kind="fgn")
        assert m.hurst == pytest.approx(0.7)
        assert m.d == pytest.approx(0.2)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(alpha=0.0)
        with pytest.raises(ValueError):
            NoiseModel(alpha=1.2)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(alpha=0.5, kind="garch")


class TestDeterminism:
    def test_fgn_reproducible(self):
        m = NoiseModel(alpha=0.4, kind="fgn", seed=42)
        a = m.sample(512)
        b = m.sample(512)
        np.testing.assert_array_equal(a, b)

    def test_farima_reproducible(self):
        m = NoiseModel(alpha=0.4, kind="farima", seed=42)
        np.testing.assert_array_equal(m.sample(256), m.sample(256))

    def test_replication_key_changes_stream(self):
        m = NoiseModel(alpha=0.4, kind="fgn", seed=42)
        assert not np.array_equal(m.sample(256, 0), m.sample(256, 1))

    def test_derive_rng_independent_of_call_order(self):
        a = derive_rng(5, 3).standard_normal(4)
        _ = derive_rng(5, 9).standard_normal(4)
        b = derive_rng(5, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
        st.lists(st.integers(0, 2100), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_draws_continue_one_draw(self, seed, key, sizes):
        # the stopping rule draws a channel row's normals in pieces and relies on
        # standard_normal(a + b) equalling standard_normal(a) then standard_normal(b)
        whole = derive_rng(seed, *key).standard_normal(sum(sizes))
        rng = derive_rng(seed, *key)
        pieces = np.concatenate([rng.standard_normal(size) for size in sizes])
        assert pieces.tobytes() == whole.tobytes()


class TestStreamKeys:
    def test_layout_is_philox_key_and_counter(self):
        # key (seed, number of key ints), counter (0, *key) padded with zeros
        from numpy.random import Generator, Philox

        for seed, key in ((7, ()), (7, (3,)), (7, (3, 1)), (2**64 - 1, (5, 0, 2**64 - 1))):
            counter = sum(k << (64 * (i + 1)) for i, k in enumerate(key))
            want = Generator(Philox(key=seed + (len(key) << 64), counter=counter))
            got = derive_rng(seed, *key)
            assert got.standard_normal(9).tobytes() == want.standard_normal(9).tobytes()

    @pytest.mark.parametrize(
        "seed, key, match",
        [(-1, (), "seed must be"), (2**64, (0,), "seed must be"), (3, (0, -2), "key integers must"),
         (3, (2**64,), "key integers must"), (3, (0, 1, 2, 3), "at most 3 integers")],
    )
    def test_outside_the_domain_raises(self, seed, key, match):
        with pytest.raises(ValueError, match=match):
            derive_rng(seed, *key)

    words = st.integers(0, 3) | st.integers(0, 2**64 - 1)

    @given(st.lists(words, min_size=1, max_size=4), st.lists(words, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_distinct_tuples_give_distinct_first_draws(self, a, b):
        # (seed, *key) with 0-3 key ints; small words make neighbours like
        # (s,) and (s, 0) common
        if a == b:
            b = b + [0] if len(b) < 4 else b[:-1]
        first = [derive_rng(*words).standard_normal(2).tobytes() for words in (a, b)]
        assert first[0] != first[1]


class TestFgnSampling:
    def test_white_noise_case_lag1(self):
        n = 1024
        m = NoiseModel(alpha=1.0, kind="fgn", seed=0)
        x = m.sample(n)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1) < 3.0 / np.sqrt(n)

    def test_autocovariance_matches_theory(self):
        # sample autocovariance at lags 0..50 within 3 MC standard errors
        n, reps = 4096, 200
        m = NoiseModel(alpha=0.4, kind="fgn", seed=7)
        lags = np.arange(51)
        est = np.empty((reps, lags.size))
        for r in range(reps):
            x = m.sample(n, r)
            for h in lags:
                est[r, h] = np.mean(x[: n - h] * x[h:])
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(reps)
        theory = fgn_autocovariance(lags, m.hurst)
        assert np.all(np.abs(mean - theory) <= 3.0 * se)


class TestFarimaSampling:
    def test_no_memory_is_iid(self):
        m = NoiseModel(alpha=1.0, kind="farima", seed=1)
        x = m.sample(2048)
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 3.0 / np.sqrt(2048)

    def test_lag1_autocorrelation(self):
        # alpha=0.2 -> d=0.4 -> corr = d/(1-d) = 2/3; pooled ratio of the
        # unbiased moment estimates (per-path ratios carry an O(n^(2H-2)) bias)
        n, reps = 4096, 200
        m = NoiseModel(alpha=0.2, kind="farima", seed=5)
        g1 = np.empty(reps)
        g0 = np.empty(reps)
        for r in range(reps):
            x = m.sample(n, r)
            g1[r] = np.mean(x[:-1] * x[1:])
            g0[r] = np.mean(x * x)
        ratio = g1.mean() / g0.mean()
        # delta-method standard error of the ratio across replicates
        grad = np.array([1.0 / g0.mean(), -g1.mean() / g0.mean() ** 2])
        cov = np.cov(np.stack([g1, g0])) / reps
        se = np.sqrt(grad @ cov @ grad)
        assert abs(ratio - 2.0 / 3.0) <= 3.0 * se


class TestDistributionalInvariants:
    def test_mean_and_variance_standardized(self):
        n, reps = 4096, 200
        for kind in ("fgn", "farima"):
            m = NoiseModel(alpha=0.6, kind=kind, seed=11)
            means = np.empty(reps)
            variances = np.empty(reps)
            for r in range(reps):
                x = m.sample(n, r)
                means[r] = x.mean()
                variances[r] = np.mean(x * x)  # mean is known to be zero
            se_mean = means.std(ddof=1) / np.sqrt(reps)
            se_var = variances.std(ddof=1) / np.sqrt(reps)
            assert abs(means.mean()) <= 3.0 * se_mean
            assert abs(variances.mean() - 1.0) <= 3.0 * se_var, kind

    def test_white_noise_generators_agree(self):
        # fGn at alpha=1 and FARIMA at d=0 are both i.i.d. N(0,1)
        fgn = NoiseModel(alpha=1.0, kind="fgn", seed=3)
        far = NoiseModel(alpha=1.0, kind="farima", seed=4)
        a = np.concatenate([fgn.sample(2048, r) for r in range(4)])
        b = np.concatenate([far.sample(2048, r) for r in range(4)])
        _, pvalue = stats.ks_2samp(a, b)
        assert pvalue > 0.01

    def test_long_memory_block_variance_slope(self):
        # variance of block means scales like m^(-alpha)
        alpha = 0.2
        m = NoiseModel(alpha=alpha, kind="fgn", seed=13)
        n, reps = 2**14, 64
        block_sizes = [2**k for k in range(4, 11)]
        variances = []
        for size in block_sizes:
            vals = []
            for r in range(reps):
                x = m.sample(n, r)
                means = x[: (n // size) * size].reshape(-1, size).mean(axis=1)
                vals.append(np.mean(means**2))
            variances.append(np.mean(vals))
        slope = np.polyfit(np.log(block_sizes), np.log(variances), 1)[0]
        assert abs(slope + alpha) < 0.15


class TestEmbeddingGuard:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            NoiseModel(alpha=0.5, kind="fgn").sample(0)

    def test_short_series_still_exact(self):
        m = NoiseModel(alpha=0.3, kind="fgn", seed=9)
        x = m.sample(3)
        assert x.shape == (3,)


def durbin_levinson_reference(gam, innovations):
    """Reference O(n^2) recursion x_t = sum_j phi_tj x_(t-j) + v_t^(1/2) e_t, unit variance."""
    n = innovations.size
    x = np.empty(n)
    phi = np.empty(max(n - 1, 0))
    v = gam[0]
    x[0] = innovations[0] * np.sqrt(v)
    for t in range(1, n):
        if t == 1:
            kappa = gam[1] / gam[0]
        else:
            kappa = (gam[t] - phi[: t - 1] @ gam[t - 1 : 0 : -1]) / v
            phi[: t - 1] = phi[: t - 1] - kappa * phi[t - 2 :: -1]
        phi[t - 1] = kappa
        v *= 1.0 - kappa * kappa
        x[t] = phi[:t] @ x[t - 1 :: -1] + innovations[t] * np.sqrt(v)
    return x / np.sqrt(gam[0])


def circulant_reference(sqrt_eig, rng, n):
    """Reference Davies-Harte draw: the full Hermitian spectrum of size 2m, one complex ifft."""
    size = sqrt_eig.size
    m = size // 2
    draws = rng.standard_normal(2 * m)
    zeta = np.empty(size, dtype=complex)
    zeta[0], zeta[m] = draws[0], draws[1]
    zeta[1:m] = (draws[2 : m + 1] + 1j * draws[m + 1 :]) / np.sqrt(2.0)
    zeta[m + 1 :] = np.conj(zeta[m - 1 : 0 : -1])
    return np.fft.ifft(sqrt_eig * zeta).real[:n] * np.sqrt(size)


def correlation_matrix(kind, alpha, n):
    m = NoiseModel(alpha=alpha, kind=kind)
    if kind == "farima":
        gam = farima_autocovariance(np.arange(n), m.d)
    else:
        gam = fgn_autocovariance(np.arange(n), m.hurst)
    return linalg.toeplitz(gam / gam[0])


class TestExactness:
    @pytest.mark.parametrize("hurst", [0.5, 0.6, 0.9])
    def test_fgn_embedding_reproduces_autocovariance(self, hurst):
        n = 1000
        root = _sqrt_embedding_eigenvalues(hurst, n)
        np.testing.assert_allclose(
            np.fft.ifft(root**2)[:n].real, fgn_autocovariance(np.arange(n), hurst), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 1000])
    def test_farima_is_cholesky_factor_times_innovations(self, d, n):
        # the Durbin-Levinson path: x = L e, L L^T = R, e the model's first n normals
        m = NoiseModel(alpha=1.0 - 2.0 * d, kind="farima", seed=23)
        chol = linalg.cholesky(correlation_matrix("farima", m.alpha, n), lower=True)
        expected = chol @ m.rng(4).standard_normal(n)
        np.testing.assert_allclose(m.sample(n, 4), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.95, 0.6, 0.2, 0.05])
    @pytest.mark.parametrize("n", [1, 2, 3, 1024])
    def test_farima_matches_durbin_levinson_path(self, alpha, n):
        # same innovations, so the same path; float64 roundoff only
        m = NoiseModel(alpha=alpha, kind="farima", seed=29)
        gam = farima_autocovariance(np.arange(max(n, 2)), m.d)
        expected = durbin_levinson_reference(gam, m.rng(0, 2).standard_normal(n))
        atol = 64 * max(n, 16) * np.finfo(float).eps
        np.testing.assert_allclose(m.sample(n, 0, 2), expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("alpha", [0.9, 0.6, 0.2, 0.05])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 4096, 16384])
    def test_fgn_matches_full_spectrum_draw(self, alpha, n):
        # the same normals in the same order, so the same path; float64 roundoff only
        m = NoiseModel(alpha=alpha, kind="fgn", seed=31)
        expected = circulant_reference(_sqrt_embedding_eigenvalues(m.hurst, n), m.rng(0, 5), n)
        atol = 64 * max(n, 16) * np.finfo(float).eps
        np.testing.assert_allclose(m.sample(n, 0, 5), expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("n", [1, 3, 4096])
    def test_white_noise_is_one_stream_for_both_kinds(self, n):
        # at alpha = 1 both kinds are i.i.d. N(0, 1) and draw it from the same stream
        fgn = NoiseModel(alpha=1.0, kind="fgn", seed=37).sample(n, 2, 6)
        farima = NoiseModel(alpha=1.0, kind="farima", seed=37).sample(n, 2, 6)
        assert fgn.tobytes() == farima.tobytes()

    @pytest.mark.parametrize("kind, alpha", [("farima", 0.2), ("farima", 0.6), ("fgn", 0.2)])
    def test_dense_cholesky_whitening(self, kind, alpha):
        # L^-1 x is i.i.d. N(0, 1) when x has the Toeplitz correlation L L^T
        n, reps = 64, 2000
        m = NoiseModel(alpha=alpha, kind=kind, seed=17)
        chol = linalg.cholesky(correlation_matrix(kind, alpha, n), lower=True)
        draws = np.stack([m.sample(n, r) for r in range(reps)])
        z = linalg.solve_triangular(chol, draws.T, lower=True).T
        _, pvalue = stats.kstest(z.ravel(), "norm")
        assert pvalue > 0.01
        lag1 = np.mean(z[:, :-1] * z[:, 1:])
        assert abs(lag1) <= 3.0 / np.sqrt(reps * (n - 1))

    def test_factors_are_read_only_and_keyed_by_value(self):
        a = _farima_factor(NoiseModel(alpha=0.6).d, 128)
        b = _farima_factor(NoiseModel(alpha=0.6, seed=3).d, 128)
        assert a is b
        assert not any(part.flags.writeable for part in a)
        assert not _sqrt_embedding_eigenvalues(0.7, 128).flags.writeable
        for cached in (_farima_factor, _sqrt_embedding_eigenvalues):
            assert cached.cache_info().maxsize is not None

    def test_embedding_failure_reports_last_size(self):
        # lag-1 correlation 1 and nothing beyond: eigenvalues 1 + 2 cos(w) dip to -1
        # at every size; n=16 tries circulant sizes 32, 64, ..., 512
        def not_psd(m):
            return np.concatenate([[1.0, 1.0], np.zeros(m - 1)])

        with pytest.raises(RuntimeError, match=r"up to size 512$"):
            _embedding_sqrt(not_psd, 16)


class TestStreamPins:
    # sha256 of the float64 bytes for NoiseModel(seed=2024) and key (0, 1); the
    # fGn and i.i.d. FARIMA streams feed the white-noise and fGn benchmark cells.
    # Recorded when derive_rng became a keyed Philox stream (version 0.2.0); the
    # fGn pins were re-recorded when the fGn draw became one half-spectrum real
    # inverse FFT and alpha = 1 one white stream for both kinds
    PINS = {
        ("fgn", 1.0, 3): "d5f9b1df93407fc39e4dccc304157e29a07edd1c23bd4504b3082e8a6ab03cf5",
        ("fgn", 1.0, 4096): "753e603a5acb5d8689b82a82d3947382fe1870cceb2d54eaeb922cd9ac166254",
        ("fgn", 0.6, 3): "b840b54482583995773dd618ecc37269d33a70b5aa71548bf175ad4c4ddfc255",
        ("fgn", 0.6, 4096): "7ddff722ec977e5f708832462717713c85bc4daa820b2d0b5be8a1b0fcd4e075",
        ("fgn", 0.2, 3): "1200a14e559fd559571d22fc7fb23f738caa9b7b8f48ff02cf7673bfab13e6ea",
        ("fgn", 0.2, 4096): "4cda3a321a9500e4782dc0dec4a1e93642b165450d5490253498d1af1f25a3ed",
        ("farima", 1.0, 3): "d5f9b1df93407fc39e4dccc304157e29a07edd1c23bd4504b3082e8a6ab03cf5",
        ("farima", 1.0, 4096): "753e603a5acb5d8689b82a82d3947382fe1870cceb2d54eaeb922cd9ac166254",
    }

    @pytest.mark.parametrize("kind, alpha, n", sorted(PINS))
    def test_stream_is_pinned(self, kind, alpha, n):
        x = NoiseModel(alpha=alpha, kind=kind, seed=2024).sample(n, 0, 1)
        assert hashlib.sha256(x.tobytes()).hexdigest() == self.PINS[(kind, alpha, n)]
