import dataclasses

import numpy as np
import pytest

from lrdwaved.signals import (
    SIGNAL_NAMES,
    ExperimentConfig,
    blur,
    calibrate_sigma,
    gamma_kernel,
    generate_dataset,
    grid_norm,
    make_signal,
    resolve_smoothing,
)


class TestMakeSignal:
    def test_cusp_minimum_at_location(self):
        n = 4096
        f = make_signal("cusp", n)
        t = np.arange(n) / n
        idx = np.argmin(np.abs(t - 0.37))
        assert f[idx] == pytest.approx(0.0, abs=0.03)
        assert f.min() >= 0.0

    def test_doppler_envelope_vanishes_at_ends(self):
        f = make_signal("doppler", 1024)
        assert f[0] == 0.0
        assert abs(f[-1]) < 0.05

    def test_bumps_nonnegative(self):
        assert make_signal("bumps", 2048).min() >= 0.0

    def test_lidar_piecewise_levels(self):
        f = make_signal("lidar", 4096)
        assert set(np.round(np.unique(f), 6)) == {0.0, 0.8775, 1.35}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_signal("heavisine", 256)

    def test_deterministic(self):
        np.testing.assert_array_equal(make_signal("bumps", 512), make_signal("bumps", 512))

    def test_golden_peak_to_peak(self):
        # frozen normalization constants
        expected = {"cusp": 1.8786, "doppler": 2.7736, "bumps": 8.8421, "lidar": 1.35}
        for name in SIGNAL_NAMES:
            f = make_signal(name, 4096)
            assert f.max() - f.min() == pytest.approx(expected[name], abs=2e-4), name

    def test_golden_checksums(self):
        # regression lock on the embedded constants
        sums = {name: float(np.sum(make_signal(name, 1024))) for name in SIGNAL_NAMES}
        expected = {
            "cusp": 1187.7907676991865,
            "doppler": 138.6856209468856,
            "bumps": 501.12887732679593,
            "lidar": 639.0899999999999,
        }
        for name, value in expected.items():
            assert sums[name] == pytest.approx(value, rel=1e-12), name


class TestGammaKernel:
    def test_dc_normalization(self):
        k = gamma_kernel(4096)
        assert k.fourier[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_conjugate_symmetry(self):
        k = gamma_kernel(1024)
        for ell in (1, 5, 100, 511):
            assert k.fourier[-ell] == pytest.approx(np.conj(k.fourier[ell]), abs=1e-13)

    def test_polynomial_decay_band(self):
        # |K[l]| l^0.7 bounded above and below within a factor-5 band
        n = 4096
        k = gamma_kernel(n)
        ells = np.arange(4, n // 4 + 1)
        values = np.abs(k.fourier[ells]) * ells**0.7
        assert values.max() / values.min() < 5.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gamma_kernel(256, shape=0.0)
        with pytest.raises(ValueError):
            gamma_kernel(256, scale=-1.0)


class TestSnrCalibration:
    def test_zero_db(self):
        blurred = np.sin(2 * np.pi * np.arange(256) / 256)
        assert calibrate_sigma(blurred, 0.0) == pytest.approx(grid_norm(blurred))

    def test_twenty_db(self):
        blurred = np.cos(2 * np.pi * np.arange(256) / 256)
        assert calibrate_sigma(blurred, 20.0) == pytest.approx(grid_norm(blurred) / 10.0)

    def test_roundtrip_identity(self):
        blurred = make_signal("cusp", 512)
        sigma = calibrate_sigma(blurred, 17.5)
        recovered = 10.0 * np.log10(grid_norm(blurred) ** 2 / sigma**2)
        assert recovered == pytest.approx(17.5, abs=1e-9)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            calibrate_sigma(np.zeros(64), 10.0)


class TestGenerateDataset:
    def test_zero_noise_limit(self):
        # huge SNR means observations equal the blurred truth numerically
        config = ExperimentConfig(signal="cusp", n=256, alpha=0.6, snr_db=400.0, seed=1)
        problem, f_true = generate_dataset(config)
        kernel = gamma_kernel(256)
        np.testing.assert_allclose(problem.observations, blur(f_true, kernel), atol=1e-8)

    def test_white_noise_scale(self):
        # alpha=1 noise is sigma 2^(-1/2) i.i.d. N(0,1)
        config = ExperimentConfig(signal="lidar", n=4096, alpha=1.0, snr_db=20.0, seed=2)
        problem, f_true = generate_dataset(config)
        blurred = blur(f_true, gamma_kernel(4096))
        sigma = calibrate_sigma(blurred, 20.0)
        resid = problem.observations - blurred
        assert resid.std() == pytest.approx(sigma * 2**-0.5, rel=0.1)

    def test_cells_share_the_clean_signal(self):
        # f and K*f are built once per (signal, kernel value): cells that differ in
        # alpha, SNR, seed, noise kind or M, or hold another kernel object of the
        # same value, get the same read-only arrays; sigma and the noise stay per cell
        from lrdwaved.signals import _clean_cell

        base = ExperimentConfig(signal="bumps", n=512, alpha=0.6, snr_db=20.0, seed=3)
        cell = _clean_cell(base)
        assert not cell.f_true.flags.writeable and not cell.blurred.flags.writeable
        for change in (dict(alpha=0.2), dict(snr_db=10.0), dict(seed=9),
                       dict(noise_kind="fgn"), dict(replications=7), dict(signal="Bumps")):
            other = _clean_cell(dataclasses.replace(base, **change))
            assert other.f_true is cell.f_true and other.blurred is cell.blurred, change
        gamma_kernel.cache_clear()
        again = _clean_cell(base)
        assert again.kernel is not cell.kernel and again.blurred is cell.blurred
        assert _clean_cell(dataclasses.replace(base, nu=0.5)).blurred is not cell.blurred
        assert _clean_cell(dataclasses.replace(base, snr_db=10.0)).noise_scale == pytest.approx(
            cell.noise_scale * 10 ** 0.5
        )

    def test_determinism(self):
        config = ExperimentConfig(signal="doppler", n=512, alpha=0.4, snr_db=10.0, seed=3)
        a, _ = generate_dataset(config, replication=5)
        b, _ = generate_dataset(config, replication=5)
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_replications_differ(self):
        config = ExperimentConfig(signal="doppler", n=512, alpha=0.4, snr_db=10.0, seed=3)
        a, _ = generate_dataset(config, replication=0)
        b, _ = generate_dataset(config, replication=1)
        assert not np.array_equal(a.observations, b.observations)

    def test_empirical_noise_scale_matches_target(self):
        # realized noise variance tracks sigma^2 2^(-alpha) within 1 dB over 50 reps
        config = ExperimentConfig(signal="cusp", n=4096, alpha=0.6, snr_db=20.0, seed=4)
        f_true = make_signal("cusp", 4096)
        blurred = blur(f_true, gamma_kernel(4096))
        sigma = calibrate_sigma(blurred, 20.0)
        target = sigma**2 * 2**-0.6
        ratios = []
        for rep in range(50):
            problem, _ = generate_dataset(config, rep)
            resid = problem.observations - blurred
            ratios.append(np.mean(resid**2) / target)
        avg_db = 10.0 * np.log10(np.mean(ratios))
        assert abs(avg_db) < 1.0

    @pytest.mark.parametrize("call, message", [
        (lambda: calibrate_sigma(np.ones(8), float("nan")), "snr_db must be finite"),
        (lambda: blur(np.zeros(32), gamma_kernel(64)), "signal and kernel grids disagree"),
    ], ids=["calibrate-nan-snr", "blur-grids"])
    def test_public_input_check_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.value.args == (message,)

    @pytest.mark.parametrize("spec", ["0.8", 0.8])
    def test_numeric_smoothing_spec_is_its_value(self, spec):
        assert resolve_smoothing(spec, 0.4) == 0.8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(signal="cusp", n=1000)
        with pytest.raises(ValueError):
            ExperimentConfig(signal="cusp", alpha=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(signal="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(signal="cusp", methods=("iid",), smoothing=("sqrt6", "sqrt6"))

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (2**64, ValueError), (1.5, TypeError)]
    )
    def test_seed_outside_the_stream_domain_rejected(self, seed, error):
        # the config is refused when built, not when its first block runs
        with pytest.raises(error, match="seed must be an integer|cannot be interpreted"):
            ExperimentConfig("cusp", n=256, replications=2, seed=seed)
        assert ExperimentConfig("cusp", seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("field, value", [
        ("replications", 2.5), ("replications", 2.0), ("n", 64.0), ("n", "64"),
    ])
    def test_non_integer_count_names_its_field(self, field, value):
        # refused when the config is built, not by a bare TypeError later
        with pytest.raises(ValueError) as info:
            ExperimentConfig("cusp", **{"n": 64, "replications": 2, field: value})
        assert info.value.args == (f"{field} must be an integer, got {value!r}",)
        assert ExperimentConfig("cusp", n=np.int64(64), replications=np.int32(2)).n == 64

    @pytest.mark.parametrize("spec, message", [
        ("nan", "smoothing must be finite, got nan"),
        ("inf", "smoothing must be finite, got inf"),
        ("-inf", "smoothing must be finite, got -inf"),
        (float("nan"), "smoothing must be finite, got nan"),
        ("0", "smoothing must be positive, got 0.0"),
    ])
    def test_non_finite_smoothing_rejected(self, spec, message):
        # a NaN threshold would keep every coefficient and an infinite one none
        with pytest.raises(ValueError) as info:
            resolve_smoothing(spec, 0.6)
        assert info.value.args == (message,)
        with pytest.raises(ValueError) as info:
            ExperimentConfig("cusp", n=64, methods=("lrd",), smoothing=(spec,))
        assert info.value.args == (message,)

    def test_unknown_noise_kind_rejected(self):
        # refused when the config is built, with NoiseModel's own message
        with pytest.raises(ValueError) as info:
            ExperimentConfig("cusp", n=64, noise_kind="bogus")
        assert info.value.args == ("unknown noise kind 'bogus'",)
        assert ExperimentConfig("cusp", n=64, noise_kind="fgn").noise_kind == "fgn"

    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError, match="at least one method"):
            ExperimentConfig("cusp", n=256, replications=2, methods=(), smoothing=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            ExperimentConfig(signal="cusp", methods=("iid", "bogus"), smoothing=("sqrt6", "sqrt6"))

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ValueError, match="unknown smoothing spec 'bogus'"):
            ExperimentConfig(signal="cusp", methods=("lrd",), smoothing=("bogus",))
        with pytest.raises(ValueError, match="smoothing must be positive"):
            ExperimentConfig(signal="cusp", methods=("iid",), smoothing=("-1",))
