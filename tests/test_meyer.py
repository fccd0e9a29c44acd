import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdwaved import meyer
from lrdwaved.meyer import (
    WaveletCoefficients,
    aux_polynomial,
    band_set,
    forward_transform,
    inverse_transform,
    periodized_psi_hat,
    phi_hat,
    psi_hat,
    scale_band_set,
)


class TestAuxPolynomial:
    def test_boundaries(self):
        assert aux_polynomial(0.0) == 0.0
        assert aux_polynomial(1.0) == 1.0

    def test_midpoint(self):
        # symmetry v(x) + v(1-x) = 1 forces v(1/2) = 1/2
        assert aux_polynomial(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_clamped_outside(self):
        assert aux_polynomial(-3.0) == 0.0
        assert aux_polynomial(7.5) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert aux_polynomial(x) + aux_polynomial(1.0 - x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_range(self, x):
        assert 0.0 <= aux_polynomial(x) <= 1.0


class TestWindows:
    def test_phi_cases(self):
        assert phi_hat(0.0) == 1.0
        assert phi_hat(0.25) == 1.0
        assert phi_hat(0.7) == 0.0
        assert phi_hat(0.5) == pytest.approx(np.cos(np.pi / 4.0), abs=1e-14)

    def test_phi_even(self):
        w = np.linspace(0, 1.5, 101)
        np.testing.assert_allclose(phi_hat(w), phi_hat(-w))

    def test_psi_support(self):
        assert psi_hat(0.0) == 0.0
        assert psi_hat(2.0) == 0.0
        assert psi_hat(1.0 / 3.0) == 0.0
        assert psi_hat(-5.0) == 0.0

    def test_psi_first_branch_value(self):
        expected = np.exp(-1j * np.pi / 2.0) * np.sin(np.pi / 2.0 * aux_polynomial(0.5))
        assert psi_hat(0.5) == pytest.approx(expected, abs=1e-14)

    def test_psi_magnitude_bounded(self):
        w = np.linspace(-2, 2, 2001)
        assert np.abs(psi_hat(w)).max() <= 1.0 + 1e-15

    def test_partition_of_unity(self):
        w = np.linspace(-2.0, 2.0, 10_000)
        total = phi_hat(w) ** 2 + sum(np.abs(psi_hat(w / 2**j)) ** 2 for j in range(13))
        assert np.abs(total - 1.0).max() < 1e-12


class TestBandSets:
    def test_example_j2(self):
        b = band_set(2)
        assert b.size == 8
        assert set(b.tolist()) == {-5, -4, -3, -2, 2, 3, 4, 5}

    def test_example_j0(self):
        b = band_set(0)
        assert set(b.tolist()) == {-1, 1}
        assert b.size == 2

    def test_example_j3(self):
        b = band_set(3)
        assert b.min() == -10 and b.max() == 10
        assert b.size == 16

    @given(st.integers(min_value=0, max_value=14))
    @settings(max_examples=15, deadline=None)
    def test_cardinality(self, j):
        assert band_set(j).size == 2 ** (j + 1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            band_set(-1)

    def test_disjoint_beyond_adjacent(self):
        for j in range(0, 9):
            for jp in range(j + 2, 11):
                a = set(band_set(j).tolist())
                b = set(band_set(jp).tolist())
                assert not a & b, f"bands {j} and {jp} overlap"

    def test_adjacent_bands_overlap(self):
        for j in range(1, 9):
            a = set(band_set(j).tolist())
            b = set(band_set(j + 1).tolist())
            assert a & b

    def test_band_support_matches_window(self):
        # psi_hat(l / 2^j) is nonzero exactly on the band frequencies
        for j in range(0, 8):
            freqs = set(band_set(j).tolist())
            for ell in range(-2 ** (j + 2), 2 ** (j + 2) + 1):
                if ell == 0:
                    continue
                nonzero = abs(psi_hat(ell / 2**j)) > 0
                assert nonzero == (ell in freqs)


class TestPeriodizedCoefficients:
    def test_zero_frequency(self):
        for j in range(0, 6):
            assert periodized_psi_hat(j, 0, 0) == 0

    def test_direct_formula(self):
        assert periodized_psi_hat(2, 0, 3) == pytest.approx(0.5 * psi_hat(0.75), abs=1e-14)

    def test_phase_shift(self):
        expected = 0.5 * np.exp(-2j * np.pi * 3.0 / 4.0) * psi_hat(0.75)
        assert periodized_psi_hat(2, 1, 3) == pytest.approx(expected, abs=1e-14)

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            periodized_psi_hat(2, 4, 3)
        with pytest.raises(ValueError):
            periodized_psi_hat(2, -1, 3)


class TestTransforms:
    @pytest.mark.parametrize("call, message", [
        (lambda: forward_transform(np.zeros(64), 4, 3), "need j0 <= j1, got (4, 3)"),
        (lambda: WaveletCoefficients(3, 4, 64, np.zeros(4), {3: np.zeros(8), 4: np.zeros(16)}),
         "scale must hold 2^3 entries"),
        (lambda: WaveletCoefficients(3, 4, 64, np.zeros(8), {3: np.zeros(8), 4: np.zeros(8)}),
         "detail level 4 must hold 2^4 entries"),
        (lambda: WaveletCoefficients.zeros(3, 6, 64), "need j0 <= j1 < log2(n), got (3, 6, 64)"),
        (lambda: scale_band_set(-1), "scale level must be nonnegative, got -1"),
    ], ids=["forward-j0-above-j1", "scale-shape", "detail-shape", "j1-at-log2-n",
            "scale-band-negative-level"])
    def test_public_input_check_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.value.args == (message,)

    @pytest.mark.parametrize("signal, message", [
        (np.full(256, np.nan), "signal values are not finite"),
        (np.r_[np.zeros(255), -np.inf], "signal values are not finite"),
        # finite samples whose coefficients overflow
        ((np.sin(np.arange(256)) + 1) * 3e306, "scale coefficients at level 3 are not finite"),
    ], ids=["nan", "inf", "overflow"])
    def test_forward_refuses_non_finite(self, signal, message):
        # one ValueError and no numpy RuntimeWarning, which fails the test
        with pytest.raises(ValueError) as info:
            forward_transform(signal, 3, 5)
        assert info.value.args == (message,)

    def test_single_basis_function(self):
        n = 1024
        coeffs = WaveletCoefficients.zeros(3, 7, n)
        coeffs.detail[3][0] = 1.0
        samples = inverse_transform(coeffs, n)
        back = forward_transform(samples, 3, 7)
        assert back.detail[3][0] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(back.scale).max() < 1e-10
        for j in range(4, 8):
            assert np.abs(back.detail[j]).max() < 1e-10

    def test_constant_has_no_details(self):
        n = 256
        back = forward_transform(np.ones(n), 3, 5)
        for j in range(3, 6):
            assert np.abs(back.detail[j]).max() < 1e-12
        # the constant lives in the scale block
        rec = inverse_transform(back, n)
        np.testing.assert_allclose(rec, np.ones(n), atol=1e-12)

    def test_roundtrip_on_span(self):
        n = 1024
        rng = np.random.default_rng(7)
        coeffs = WaveletCoefficients.zeros(3, 7, n)
        coeffs.scale[:] = rng.standard_normal(8)
        for j in range(3, 8):
            coeffs.detail[j][:] = rng.standard_normal(2**j)
        signal = inverse_transform(coeffs, n)
        back = forward_transform(signal, 3, 7)
        np.testing.assert_allclose(back.scale, coeffs.scale, atol=1e-10)
        for j in range(3, 8):
            np.testing.assert_allclose(back.detail[j], coeffs.detail[j], atol=1e-10)

    def test_forward_projects_smooth_signal(self):
        # analysis then synthesis reproduces the projection onto levels <= j1
        n = 1024
        t = np.arange(n) / n
        signal = np.sin(2 * np.pi * 3 * t) + 0.3 * np.cos(2 * np.pi * 11 * t)
        # frequencies 3 and 11 are fully covered by levels <= 5 at j0 = 3
        rec = inverse_transform(forward_transform(signal, 3, 5), n)
        np.testing.assert_allclose(rec, signal, atol=1e-10)

    def test_stacked_synthesis_checks_each_row_against_its_own_scale(self):
        # rows with different fine levels synthesize as their one-row calls,
        # and a small row with an imaginary residual raises beside a large
        # clean row whose scale would hide it
        n = 256
        rng = np.random.default_rng(3)
        big = WaveletCoefficients.zeros(3, 5, n)
        big.scale[:] = 1e6 * rng.standard_normal(8)
        small = WaveletCoefficients.zeros(3, 4, n)
        small.detail[4][:] = rng.standard_normal(16)
        def synthesize(expansions):
            # row r of the stack is expansions[r], zero above its own fine level
            top = max(c.j1 for c in expansions)
            detail = {
                j: np.array([c.detail[j] if c.j1 >= j else np.zeros(2**j) for c in expansions])
                for j in range(3, top + 1)
            }
            return meyer._synthesize(np.array([c.scale for c in expansions]), detail, n)

        stacked = synthesize([big, small])
        np.testing.assert_array_equal(stacked[0], inverse_transform(big, n))
        np.testing.assert_array_equal(stacked[1], inverse_transform(small, n))

        dirty = WaveletCoefficients(
            j0=3, j1=4, n=n, scale=small.scale.astype(complex),
            detail={j: d.astype(complex) for j, d in small.detail.items()},
        )
        dirty.detail[4][0] += 1e-6j
        # one level-4 coefficient of size 1e-6 moves no sample by more than 1e-5
        assert 1e-9 * np.abs(stacked[0]).max() > 1e-4
        with pytest.raises(AssertionError, match=r"synthesized samples \(row 1\) should be real"):
            synthesize([big, dirty])

    def test_zero_coefficients_give_zero_signal(self):
        out = inverse_transform(WaveletCoefficients.zeros(3, 5, 256), 256)
        assert np.abs(out).max() == 0.0

    def test_orthonormality_gram(self):
        n = 1024
        j0, j1 = 3, 7
        size = 2**j0 + sum(2**j for j in range(j0, j1 + 1))
        basis = np.empty((size, n))
        row = 0
        for k in range(2**j0):
            c = WaveletCoefficients.zeros(j0, j1, n)
            c.scale[k] = 1.0
            basis[row] = inverse_transform(c, n)
            row += 1
        for j in range(j0, j1 + 1):
            for k in range(2**j):
                c = WaveletCoefficients.zeros(j0, j1, n)
                c.detail[j][k] = 1.0
                basis[row] = inverse_transform(c, n)
                row += 1
        gram = basis @ basis.T / n
        assert np.abs(gram - np.eye(size)).max() < 1e-8

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros(1000), 3, 5)
        with pytest.raises(ValueError):
            forward_transform(np.zeros(64), 3, 5)  # j1 > log2(64) - 2

    def test_scale_band_set(self):
        assert scale_band_set(3).tolist() == list(range(-5, 6))


class TestSpectralPlans:
    def test_plan_matches_windows(self):
        n, j = 1024, 5
        plan = meyer._detail_plan(j, n)
        ells = band_set(j)
        np.testing.assert_array_equal(plan.frequencies, ells)
        np.testing.assert_array_equal(plan.index, ells % n)
        np.testing.assert_array_equal(plan.residues, ells % 2**j)
        np.testing.assert_array_equal(plan.analysis, np.conj(psi_hat(ells / 2**j)))
        np.testing.assert_array_equal(plan.synthesis, 2.0 ** (-j / 2.0) * psi_hat(ells / 2**j))
        scale = meyer._scale_plan(3, n)
        np.testing.assert_array_equal(scale.frequencies, scale_band_set(3))
        np.testing.assert_array_equal(scale.synthesis, 2.0**-1.5 * phi_hat(scale_band_set(3) / 8))

    def test_plan_entries_read_only(self):
        for plan in (meyer._detail_plan(4, 256), meyer._scale_plan(3, 256)):
            for name in ("frequencies", "index", "residues", "analysis", "synthesis"):
                values = getattr(plan, name)
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 0

    def test_plans_keyed_by_value_and_bounded(self):
        for build in (meyer._detail_plan, meyer._scale_plan):
            assert build(4, 512) is build(np.int64(4), np.int64(512))
            assert build(4, 512) is not build(4, 1024)
            info = build.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize


class TestStackedAnalysis:
    @pytest.mark.parametrize("n", [2**k for k in range(5, 15)])
    def test_spectra_rows_are_the_real_input_transform(self, n):
        # the one Y_hat = fft(y) / n recipe, complex cast and in place, bit for bit
        rng = np.random.default_rng(n)
        for rows in (1, 3, 8):
            stack = rng.standard_normal((rows, n))
            for row, spectrum in zip(stack, meyer._spectra(stack)):
                assert spectrum.tobytes() == (np.fft.fft(row) / n).tobytes()

    def test_stacked_analysis_equals_each_row(self):
        # one fold and one batched inverse FFT over a stack give each row's
        # one-row analysis bit for bit, detail and scale bands alike
        n = 1024
        rng = np.random.default_rng(8)
        spectra = np.fft.fft(rng.standard_normal((5, n)), axis=-1) / n
        spectra[2, :] = -0.0  # signed zeros fold as they do alone
        for plan, what in ((meyer._detail_plan(6, n), "detail"), (meyer._scale_plan(3, n), "scale"),
                           (meyer._detail_plan(8, n), "detail")):
            stacked = meyer._analyze(np.take(spectra, plan.index, axis=-1), plan, what)
            for row, spectrum in zip(stacked, spectra):
                alone = meyer._analyze(spectrum[plan.index], plan, what)
                assert row.tobytes() == alone.tobytes()

    def test_stacked_fold_equals_each_row(self):
        # a fold with repeated residue classes, as the tau factors use
        rng = np.random.default_rng(9)
        ells = band_set(5)
        values = rng.standard_normal((3, ells.size)) + 1j * rng.standard_normal((3, ells.size))
        for width in (16, 32, 64):
            stacked = meyer._band_fold(values, ells % width, width)
            for row, v in zip(stacked, values):
                alone = np.zeros(width, dtype=complex)
                np.add.at(alone, ells % width, v)
                assert row.tobytes() == alone.tobytes()

    def test_analysis_residual_names_its_row(self):
        n = 256
        plan = meyer._detail_plan(4, n)
        values = np.zeros((3, plan.index.size), dtype=complex)
        values[1, 0] = 1.0  # one frequency without its conjugate: a complex coefficient
        with pytest.raises(AssertionError, match=r"detail coefficients at level 4 \(row 1\)"):
            meyer._analyze(values, plan, "detail")


class TestExactScaling:
    # the forward norm and the unscaled inverse replace a division by n after
    # every FFT and a multiplication by n after every synthesis; n is a power
    # of two, so both are exact
    @pytest.mark.parametrize("n", [2**k for k in range(5, 14)])
    def test_spectra_equal_fft_over_n(self, n):
        rows = np.random.default_rng(n).standard_normal((3, n)) * [[1e-3], [1.0], [1e6]]
        stacked = meyer._spectra(rows)
        for row, spectrum in zip(rows, stacked):
            assert spectrum.tobytes() == (np.fft.fft(row) / n).tobytes()

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_synthesis_equals_scaled_inverse_fft(self, n):
        rng = np.random.default_rng(n + 1)
        top = int(np.log2(n)) - 2
        scale = rng.standard_normal((3, 8))
        detail = {j: rng.standard_normal((3, 2**j)) for j in range(3, top + 1)}
        detail[top][2] = 0.0  # row 2 stops one level below the others
        spectrum = np.zeros((3, n), dtype=complex)
        plan = meyer._scale_plan(3, n)
        spectrum[:, plan.index] += meyer._band_terms(plan, scale)
        for j, values in sorted(detail.items()):
            # the expected spectrum adds each band only to the rows that reach it
            plan, rows = meyer._detail_plan(j, n), np.arange(3)[: 3 - (j == top)]
            spectrum[rows[:, np.newaxis], plan.index] += meyer._band_terms(plan, values[rows])
        expected = (np.fft.ifft(spectrum, axis=-1) * n).real
        assert meyer._synthesize(scale, detail, n).tobytes() == expected.tobytes()

    @staticmethod
    def _full_check(values):
        # the check without the fast path: each row against its own scale
        imag = np.abs(values.imag).max(axis=-1)
        bad = imag > 1e-9 * np.maximum(np.abs(values).max(axis=-1), 1.0)
        return int(bad.argmax()) if bad.any() else None

    @pytest.mark.parametrize("real_scale, passes", [(10.0, True), (1.0, False)])
    def test_real_part_fast_path_takes_the_full_decision(self, real_scale, passes):
        # an imaginary residual of 5e-9 is above the fast path's 1e-9 and
        # within the bound of a row whose real part reaches 10, not of one at 1
        values = np.full((3, 16), 0.5 + 0j)
        values[1, 4] = real_scale + 5e-9j
        assert (self._full_check(values) is None) == passes
        if passes:
            assert meyer._real_part(values, "x").tobytes() == values.real.tobytes()
        else:
            with pytest.raises(AssertionError, match=r"x \(row 1\) should be real"):
                meyer._real_part(values, "x")

    @pytest.mark.parametrize("real_scale, passes", [(10.0, True), (1.0, False)])
    def test_real_part_on_a_wide_stack_takes_the_full_decision(self, real_scale, passes):
        # a synthesized-block-sized stack gets the one-expression check's
        # decision and row index
        values = np.full((11, 4096), 0.5 + 0j)
        values[9, 4] = real_scale + 5e-9j
        if passes:
            assert meyer._real_part(values, "x").tobytes() == values.real.tobytes()
        else:
            with pytest.raises(AssertionError, match=r"x \(row 9\) should be real"):
                meyer._real_part(values, "x")
        assert (self._full_check(values) is None) == passes

    def test_real_part_nan_row_takes_the_full_check(self):
        # a NaN row is never within a bound, so it skips the fast path; the
        # full check then passes it, as it did before, and still names a bad row
        values = np.full((3, 16), 0.5 + 0j)
        values[0, 2] = complex(np.nan, np.nan)
        assert self._full_check(values) is None
        out = meyer._real_part(values, "x")
        assert out.tobytes() == values.real.tobytes()
        values[2, 5] += 1e-3j
        assert self._full_check(values) == 2
        with pytest.raises(AssertionError, match=r"x \(row 2\) should be real"):
            meyer._real_part(values, "x")
