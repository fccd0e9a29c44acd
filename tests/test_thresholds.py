import math

import numpy as np
import pytest

from lrdwaved.covariance import KernelSpec, VarianceTable
from lrdwaved.signals import gamma_kernel
from lrdwaved.thresholds import (
    ThresholdPolicy,
    build_policy,
    c_n,
    fine_level_theoretical,
)


def identity_kernel(n=4096):
    return KernelSpec(fourier=np.ones(n, dtype=complex))


class TestSampleFactor:
    def test_white_noise_value(self):
        assert c_n(4096, 1.0) == pytest.approx(0.04507, abs=2e-5)

    def test_half_alpha_value(self):
        assert c_n(4096, 0.5) == pytest.approx(0.3605, abs=2e-4)

    def test_decreasing_in_alpha(self):
        for n in (8, 64, 4096):
            values = [c_n(n, a) for a in (0.2, 0.4, 0.6, 0.8, 1.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            c_n(1, 0.5)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: c_n(1, 0.5), ValueError, "need n >= 2, got 1"),
        (lambda: fine_level_theoretical(1, 1.0, 0.0), ValueError, "need n >= 2, got 1"),
        (lambda: ThresholdPolicy("iid", 1.0, 1.0, 1.0, 64, {3: 0.1}).lam(9), KeyError,
         "policy has no threshold for level 9"),
    ], ids=["c-n-small-n", "fine-level-small-n", "policy-missing-level"])
    def test_public_input_check_message(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert info.value.args == (message,)


class TestFineLevelTheoretical:
    def test_direct_case(self):
        assert fine_level_theoretical(4096, 1.0, 0.0) == 8

    def test_gamma_kernel_case(self):
        assert fine_level_theoretical(4096, 1.0, 0.7) == 3

    def test_nonincreasing_as_alpha_decreases(self):
        for nu in (0.0, 0.7):
            levels = [fine_level_theoretical(4096, a, nu) for a in (1.0, 0.8, 0.6, 0.4, 0.2)]
            assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            fine_level_theoretical(4096, 1.5, 0.0)
        with pytest.raises(ValueError):
            fine_level_theoretical(4096, 1.0, -0.1)


class TestBuildPolicy:
    def test_iid_formula(self):
        n = 4096
        policy = build_policy("iid", identity_kernel(n), n, 1.0, 2.0, math.sqrt(6.0), 3, 5)
        for j in range(3, 6):
            expected = math.sqrt(6.0) * 1.0 * 2.0 * math.sqrt(math.log(n) / n)
            assert policy.lam(j) == pytest.approx(expected, rel=1e-12)

    def test_lrd_formula_shape(self):
        n = 4096
        kernel = gamma_kernel(n)
        policy = build_policy("lrd", kernel, n, 0.6, 1.5, math.sqrt(1.2), 3, 5)
        from lrdwaved.covariance import tau_level

        for j in range(3, 6):
            expected = math.sqrt(1.2) * tau_level(j, kernel, 0.6) * 1.5 * c_n(n, 0.6)
            assert policy.lam(j) == pytest.approx(expected, rel=1e-12)

    def test_methods_coincide_in_direct_white_case(self):
        # alpha=1 with a flat kernel and equal smoothing gives equal thresholds
        n = 1024
        kernel = identity_kernel(n)
        lrd = build_policy("lrd", kernel, n, 1.0, 1.0, 2.0, 3, 6)
        iid = build_policy("iid", kernel, n, 1.0, 1.0, 2.0, 3, 6)
        for j in range(3, 7):
            assert lrd.lam(j) == pytest.approx(iid.lam(j), rel=1e-10)

    def test_lrd_threshold_grows_as_alpha_drops(self):
        # with alpha + 2 nu > 1 both c_n and tau grow under stronger dependence
        n = 4096
        kernel = gamma_kernel(n)
        lam = {
            a: build_policy("lrd", kernel, n, a, 1.0, 1.0, 4, 4).lam(4) for a in (1.0, 0.6, 0.3)
        }
        assert lam[0.3] > lam[0.6] > lam[1.0]

    def test_tau_cache_is_keyed_by_kernel_value(self):
        # tau is computed once per (method, level, kernel coefficients, alpha):
        # an equal kernel held by another object, or any table passed in,
        # reads the cached values; another kernel or alpha computes its own
        from lrdwaved.thresholds import _tau

        n = 1024
        kernel = gamma_kernel(n)
        _tau.cache_clear()
        first = build_policy("lrd", kernel, n, 0.6, 1.0, 1.0, 3, 5)
        assert _tau.cache_info().misses == 3
        table = VarianceTable(kernel=gamma_kernel(n, shape=0.5), alpha=0.8)
        same = KernelSpec(kernel.fourier)
        again = build_policy("lrd", same, n, 0.6, 1.0, 1.0, 3, 5, variance_table=table)
        assert again.lambdas == first.lambdas
        assert _tau.cache_info().misses == 3 and table.taus == {}
        build_policy("lrd", gamma_kernel(n, shape=0.5), n, 0.6, 1.0, 1.0, 3, 5)
        build_policy("lrd", gamma_kernel(n), n, 0.8, 1.0, 1.0, 3, 5)
        build_policy("iid", gamma_kernel(n), n, 0.6, 1.0, 1.0, 3, 5)
        build_policy("iid", gamma_kernel(n), n, 0.8, 1.0, 1.0, 3, 5)
        assert _tau.cache_info().misses == 12

    def test_positivity_and_validation(self):
        n = 256
        with pytest.raises(ValueError):
            build_policy("iid", identity_kernel(n), n, 1.0, 1.0, 0.0, 3, 5)
        with pytest.raises(ValueError):
            build_policy("iid", identity_kernel(n), n, 1.0, 1.0, 1.0, 5, 3)
        with pytest.raises(ValueError):
            build_policy("ridge", identity_kernel(n), n, 1.0, 1.0, 1.0, 3, 5)

