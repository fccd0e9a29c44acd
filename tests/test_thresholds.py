import math

import numpy as np
import pytest

from lrdwaved.covariance import KernelSpec, VarianceTable
from lrdwaved.signals import gamma_kernel
from lrdwaved.thresholds import (
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

    def test_variance_table_reused_by_kernel_value(self):
        # a table fills only when build_policy accepts it: equal alpha and
        # equal kernel coefficients, whichever object holds them
        n = 1024
        kernel = gamma_kernel(n)
        same = VarianceTable(kernel=gamma_kernel(n), alpha=0.6)
        build_policy("lrd", kernel, n, 0.6, 1.0, 1.0, 3, 5, variance_table=same)
        assert set(same.taus) == {3, 4, 5}
        for table in (VarianceTable(kernel=gamma_kernel(n, shape=0.5), alpha=0.6),
                      VarianceTable(kernel=gamma_kernel(n), alpha=0.8)):
            build_policy("lrd", kernel, n, 0.6, 1.0, 1.0, 3, 5, variance_table=table)
            assert table.taus == {}

    def test_positivity_and_validation(self):
        n = 256
        with pytest.raises(ValueError):
            build_policy("iid", identity_kernel(n), n, 1.0, 1.0, 0.0, 3, 5)
        with pytest.raises(ValueError):
            build_policy("iid", identity_kernel(n), n, 1.0, 1.0, 1.0, 5, 3)
        with pytest.raises(ValueError):
            build_policy("ridge", identity_kernel(n), n, 1.0, 1.0, 1.0, 3, 5)

