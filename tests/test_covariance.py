import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lrdwaved.covariance import (
    KernelSpec,
    VarianceTable,
    fbm_spectral_constant,
    tau_level,
    waved_tau_level,
    z_var,
)
from lrdwaved.meyer import band_set, periodized_psi_hat, psi_hat
from lrdwaved.signals import gamma_kernel


# Dense oracle for tau_level: the pairwise Fourier-domain noise covariance.
def _support_levels(omega: int) -> range:
    """Levels j with psi_hat(omega 2^-j) != 0, i.e. |omega| in band_set(j)."""
    a = abs(omega)
    # band membership: 2^j//3 + 1 <= a <= 2^(j+2)//3
    lo = max(int(math.floor(math.log2(3.0 * a / 4.0))) - 1, 0)
    hi = int(math.ceil(math.log2(3.0 * a))) + 1
    levels = []
    for j in range(lo, hi + 1):
        if 2**j // 3 + 1 <= a <= 2 ** (j + 2) // 3:
            levels.append(j)
    return range(levels[0], levels[-1] + 1) if levels else range(0)


def z_cov(omega: int, ell: int, hurst: float) -> complex:
    """Covariance of the Fourier-domain noise at integer frequencies.

    Closed form: for each level j whose band contains both frequencies, the
    shift sum collapses to 2^j when 2^j divides ell - omega and to 0
    otherwise, leaving at most three contributing levels.
    """
    omega = int(omega)
    ell = int(ell)
    if omega == 0 or ell == 0:
        raise ValueError("frequencies must be nonzero")
    acc = 0.0 + 0.0j
    for j in _support_levels(omega):
        if (ell - omega) % 2**j != 0:
            continue
        b = complex(psi_hat(ell / 2**j))
        if b == 0:
            continue
        a = complex(psi_hat(omega / 2**j))
        acc += a * np.conj(b)
    const = fbm_spectral_constant(hurst)
    return const * abs(omega * ell) ** (0.5 - hurst) * acc


def brute_force_z_cov(omega, ell, hurst, max_level=20):
    """Literal double sum over levels and shifts, truncated at max_level."""
    acc = 0.0 + 0.0j
    for j in range(max_level):
        a = complex(psi_hat(omega / 2**j))
        b = complex(psi_hat(ell / 2**j))
        if a == 0 or b == 0:
            continue
        for k in range(2**j):
            acc += 2.0**-j * np.exp(2j * np.pi * (ell - omega) * k / 2**j) * a * np.conj(b)
    return fbm_spectral_constant(hurst) * abs(omega * ell) ** (0.5 - hurst) * acc


def identity_kernel(n=4096):
    return KernelSpec(fourier=np.ones(n, dtype=complex))


class TestSpectralConstant:
    def test_white_noise_normalization(self):
        assert fbm_spectral_constant(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_decreasing_in_hurst(self):
        values = [fbm_spectral_constant(h) for h in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_tau_level_alpha_out_of_range_named(alpha):
    with pytest.raises(ValueError) as info:
        tau_level(3, gamma_kernel(64), alpha)
    assert info.value.args == (f"alpha must lie in (0, 1], got {alpha}",)


class TestZCov:
    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            z_cov(0, 3, 0.7)
        with pytest.raises(ValueError):
            z_cov(3, 0, 0.7)

    def test_white_noise_diagonal(self):
        for omega in (1, 2, 5, 17, 100):
            assert z_cov(omega, omega, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_off_diagonal_vanishes(self):
        # H = 1/2 is genuine white noise: distinct frequencies are uncorrelated
        for omega, ell in ((3, 4), (4, -4), (2, 6), (8, 16), (5, 9)):
            assert abs(z_cov(omega, ell, 0.5)) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            omega = int(rng.integers(1, 65)) * int(rng.choice([-1, 1]))
            ell = int(rng.integers(1, 65)) * int(rng.choice([-1, 1]))
            for hurst in (0.5, 0.7, 0.9):
                closed = z_cov(omega, ell, hurst)
                brute = brute_force_z_cov(omega, ell, hurst)
                assert closed == pytest.approx(brute, abs=1e-12)

    def test_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            omega = int(rng.integers(1, 200)) * int(rng.choice([-1, 1]))
            ell = int(rng.integers(1, 200)) * int(rng.choice([-1, 1]))
            assert z_cov(omega, ell, 0.7) == pytest.approx(
                np.conj(z_cov(ell, omega, 0.7)), abs=1e-12
            )

    def test_magnitude_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            omega = int(rng.integers(1, 500))
            ell = int(rng.integers(1, 500))
            hurst = float(rng.uniform(0.5, 0.95))
            bound = 3.0 * abs(omega * ell) ** (0.5 - hurst)
            assert abs(z_cov(omega, ell, hurst)) <= bound + 1e-12

    def test_vanishes_without_shared_dyadic_offset(self):
        # no contributing level divides ell - omega
        assert z_cov(3, 5, 0.7) == 0
        assert z_cov(2, 4, 0.7) == 0
        assert z_cov(3, -3, 0.7) == 0

    def test_variance_power_law(self):
        # Var(Z[w]) tracks |w|^(alpha-1) within constant factors
        for alpha in (1.0, 0.6):
            hurst = 1.0 - alpha / 2.0
            for omega in (2, 7, 31, 128, 1024):
                ratio = z_cov(omega, omega, hurst).real / omega ** (alpha - 1.0)
                assert 1.0 / 3.0 <= ratio <= 3.0

    def test_diagonal_equals_z_var(self):
        for omega in (1, 3, 10, 47):
            for hurst in (0.5, 0.7, 0.85):
                assert z_cov(omega, omega, hurst).real == pytest.approx(
                    z_var(omega, hurst), rel=1e-12
                )

    def test_quadrature_oracle_for_variance(self):
        # Var(int_0^1 exp(-2 pi i l x) dB_H) = 2H(2H-1) int_0^1 (1-u) cos(2 pi l u) u^(2H-2) du
        for hurst in (0.7, 0.8):
            for ell in (5, 12, 40):
                integral, _ = quad(
                    lambda u: (1 - u) * math.cos(2 * math.pi * ell * u) * u ** (2 * hurst - 2),
                    0.0,
                    1.0,
                    limit=400,
                )
                exact = 2 * hurst * (2 * hurst - 1) * integral
                assert z_var(ell, hurst) == pytest.approx(exact, rel=0.02)


class TestTauLevel:
    def test_white_noise_identity_kernel(self):
        kernel = identity_kernel()
        for j in (2, 3, 4, 5, 6):
            assert tau_level(j, kernel, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_double_sum(self):
        # the residue-class folds agree with the full band double sum of z_cov
        # at any shift k, including the band-edge levels 0 and 1 and a
        # non-Hermitian kernel
        gamma = gamma_kernel(1024)
        rng = np.random.default_rng(17)
        rand = KernelSpec(fourier=rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        cases = [(gamma, j, alpha, k) for j, alpha, k in (
            (0, 0.6, 0), (1, 0.3, 1), (2, 0.6, 0), (3, 0.3, 5), (4, 0.8, 0), (5, 0.4, 0))]
        cases += [(rand, j, alpha, k) for j, alpha, k in (
            (0, 0.5, 0), (1, 0.2, 1), (3, 0.7, 0), (5, 0.3, 31))]
        for kernel, j, alpha, k in cases:
            hurst = 1.0 - alpha / 2.0
            ells = band_set(j)
            psi0 = {int(e): complex(periodized_psi_hat(j, k, int(e))) for e in ells}
            kl = {int(e): complex(kernel.fourier[int(e) % kernel.n]) for e in ells}
            acc = 0.0 + 0.0j
            for w in ells:
                for le in ells:
                    acc += (
                        np.conj(psi0[int(le)])
                        * psi0[int(w)]
                        / (kl[int(le)] * np.conj(kl[int(w)]))
                        * z_cov(int(w), int(le), hurst)
                    )
            assert tau_level(j, kernel, alpha) == pytest.approx(math.sqrt(acc.real), rel=1e-10)

    def test_asymptotic_bound(self):
        # tau^2 * 2^(j(1 - alpha - 2 nu)) stays bounded across levels
        kernel = gamma_kernel(4096)
        nu = 0.7
        for alpha in (1.0, 0.6):
            values = [
                tau_level(j, kernel, alpha) ** 2 * 2.0 ** (j * (1.0 - alpha - 2.0 * nu))
                for j in range(3, 9)
            ]
            assert max(values) / min(values) < 5.0

    def test_exact_discrete_variance_oracle(self):
        # Var of the deconvolved coefficient over exact unit fGn, computed from
        # the Toeplitz autocovariance (no Monte Carlo), matches eps^2a tau^2
        from lrdwaved.noise import fgn_autocovariance

        n = 4096
        kernel = gamma_kernel(n)
        idx = np.arange(n)
        gam = None
        for alpha, j, k, tol in ((1.0, 4, 0, 1e-6), (0.6, 4, 0, 0.05), (0.6, 4, 8, 0.05)):
            hurst = 1.0 - alpha / 2.0
            gam = fgn_autocovariance(np.arange(n), hurst)
            ells = band_set(j)
            weights = np.conj(
                2.0 ** (-j / 2) * np.exp(-2j * np.pi * ells * k / 2**j) * psi_hat(ells / 2**j)
            ) / kernel.fourier[ells % n]
            g = np.zeros(n, dtype=complex)
            for ell, w in zip(ells, weights):
                g += w * np.exp(-2j * np.pi * ell * idx / n)
            # Var(beta_hat) = n^-2 sum_{i,m} gamma(i-m) g_i conj(g_m)
            m = 1
            while m < 2 * n:
                m *= 2
            spec = np.fft.fft(g, m)
            corr = np.fft.ifft(spec * np.conj(spec))
            var = gam[0] * corr[0].real
            var += 2.0 * np.sum(gam[1:] * corr[1:n].real)
            var /= n**2
            theory = n ** (-alpha) * tau_level(j, kernel, alpha) ** 2
            assert var / theory == pytest.approx(1.0, abs=tol), (alpha, j, k)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 6),
        st.floats(0.05, 1.0, allow_nan=False),
        st.floats(-12.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_and_positive_for_random_kernels(self, seed, j, alpha, log_scale):
        # any kernel with no zero on the band is admissible, Hermitian or not,
        # at magnitudes from 1e-12 to 1e3
        rng = np.random.default_rng(seed)
        n = 256
        mags = 10.0**log_scale * rng.uniform(0.01, 1.0, n)
        kernel = KernelSpec(fourier=mags * np.exp(2j * np.pi * rng.uniform(size=n)))
        tau = tau_level(j, kernel, alpha)
        assert math.isfinite(tau) and tau > 0.0

    def test_vanishing_kernel_rejected(self):
        fourier = np.ones(256, dtype=complex)
        fourier[5] = 0.0
        kernel = KernelSpec(fourier=fourier)
        with pytest.raises(ValueError, match="frequency"):
            tau_level(3, kernel, 0.6)

    def test_overflowing_tau_rejected(self):
        kernel = KernelSpec(fourier=np.full(256, 1e-200 + 0.0j))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite and positive"):
            tau_level(3, kernel, 0.6)

    def test_band_exceeding_grid_rejected(self):
        kernel = identity_kernel(64)
        with pytest.raises(ValueError):
            tau_level(6, kernel, 1.0)

class TestWavedTau:
    def test_identity_kernel(self):
        kernel = identity_kernel()
        for j in (3, 5, 7):
            assert waved_tau_level(j, kernel) == pytest.approx(1.0, abs=1e-12)

    def test_constant_kernel_orientations(self):
        kernel = KernelSpec(fourier=np.full(512, 0.5 + 0.0j))
        # the variance-faithful orientation grows as the kernel shrinks
        assert waved_tau_level(4, kernel) == pytest.approx(2.0, rel=1e-12)

    def test_gamma_kernel_golden_value(self):
        # regression lock for the default orientation at level 5
        kernel = gamma_kernel(4096)
        assert waved_tau_level(5, kernel) == pytest.approx(13.852277, rel=1e-5)


class TestVarianceTable:
    def test_caches_values(self):
        kernel = gamma_kernel(1024)
        table = VarianceTable(kernel=kernel, alpha=0.6)
        first = table.tau(4)
        assert table.taus[4] == first
        assert table.tau(4) == first

    def test_reads_the_value_cache(self):
        # a table's tau is the cached value, shared with every equal kernel
        from lrdwaved.thresholds import _tau

        kernel = gamma_kernel(1024)
        _tau.cache_clear()
        first = VarianceTable(kernel=kernel, alpha=0.6).tau(4)
        second = VarianceTable(kernel=KernelSpec(kernel.fourier), alpha=0.6).tau(4)
        assert first == second == tau_level(4, kernel, 0.6)
        assert _tau.cache_info().misses == 1 and _tau.cache_info().hits == 1


class TestKernelSpec:
    def test_equal_values_compare_equal_and_hash_alike(self):
        a, b = KernelSpec(gamma_kernel(64).fourier), KernelSpec(gamma_kernel(64).fourier)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != gamma_kernel(64, shape=0.5)
        assert a != gamma_kernel(128)
        assert a != a.fourier.tolist() and a != "kernel"
        assert len({a, b, gamma_kernel(64, shape=0.5)}) == 2
        # equal coefficients whatever their signed zeros or dtype
        signed = KernelSpec(fourier=np.array([1.0, -0.0, 2.0 - 0.0j]))
        plain = KernelSpec(fourier=np.array([1.0, 0.0, 2.0]))
        assert signed == plain and hash(signed) == hash(plain)

    def test_hash_is_computed_once_when_first_asked(self):
        kernel = KernelSpec(gamma_kernel(64).fourier)
        assert "_hash" not in vars(kernel)
        first = hash(kernel)
        assert vars(kernel)["_hash"] == first == hash(kernel)

    def test_coefficients_are_a_read_only_copy(self):
        fourier = np.ones(64, dtype=complex)
        kernel = KernelSpec(fourier=fourier)
        fourier[3] = 2.0
        assert kernel.fourier[3] == 1.0
        assert kernel == KernelSpec(fourier=np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            kernel.fourier[3] = 2.0
