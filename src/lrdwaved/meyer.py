"""Periodized Meyer wavelets evaluated in the Fourier domain.

The scaling window ``phi_hat`` and detail window ``psi_hat`` are band-limited,
so every periodized basis function has finitely many nonzero Fourier
coefficients.  Analysis and synthesis of length-n sampled signals therefore
reduce to an FFT plus per-level sums over small frequency bands.  A band's
layout and windows depend only on (level, n), so each pair's spectral plan
is built on first use and then read from a bounded cache.  A pass holds the
bands of levels j0..j1 as one band stack, whose plan (keyed by (j0, j1, n))
concatenates theirs, so each step runs over every level at once.

Fourier convention throughout: for samples y_0..y_{n-1} on t_i = i/n,

    y_tilde[l] = (1/n) * sum_i y_i exp(-2 pi i l i / n),

which approximates the Fourier coefficient of a 1-periodic function, so
Parseval sums against basis coefficients need no extra scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "WaveletCoefficients",
    "aux_polynomial",
    "phi_hat",
    "psi_hat",
    "band_set",
    "scale_band_set",
    "periodized_psi_hat",
    "forward_transform",
    "inverse_transform",
]


def aux_polynomial(x):
    """Auxiliary window polynomial v with three vanishing moments.

    v(x) = x^4 (35 - 84 x + 70 x^2 - 20 x^3), clamped to [0, 1] outside the
    unit interval.  Satisfies v(0) = 0, v(1) = 1 and v(x) + v(1 - x) = 1.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    # the polynomial maps [0,1] onto [0,1] but rounding can overshoot by 1 ulp
    out = np.clip(x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3), 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def phi_hat(omega):
    """Fourier transform of the Meyer scaling function.

    Equals 1 for |omega| <= 1/3, cos(pi/2 v(3|omega| - 1)) on the transition
    band (1/3, 2/3], and 0 beyond.
    """
    w = np.abs(np.asarray(omega, dtype=float))
    out = np.zeros_like(w)
    out[w <= 1.0 / 3.0] = 1.0
    mid = (w > 1.0 / 3.0) & (w <= 2.0 / 3.0)
    out[mid] = np.cos(np.pi / 2.0 * aux_polynomial(3.0 * w[mid] - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


def psi_hat(omega):
    """Fourier transform of the Meyer mother wavelet (complex valued).

    Carries the phase factor exp(-i pi omega); vanishes outside
    1/3 < |omega| <= 4/3.
    """
    w = np.asarray(omega, dtype=float)
    aw = np.abs(w)
    out = np.zeros(w.shape, dtype=complex)
    lo = (aw > 1.0 / 3.0) & (aw <= 2.0 / 3.0)
    hi = (aw > 2.0 / 3.0) & (aw <= 4.0 / 3.0)
    if np.any(lo):
        out[lo] = np.exp(-1j * np.pi * w[lo]) * np.sin(
            np.pi / 2.0 * aux_polynomial(3.0 * aw[lo] - 1.0)
        )
    if np.any(hi):
        out[hi] = np.exp(-1j * np.pi * w[hi]) * np.cos(
            np.pi / 2.0 * aux_polynomial(1.5 * aw[hi] - 1.0)
        )
    if out.ndim == 0:
        return complex(out)
    return out


def band_set(j: int) -> np.ndarray:
    """Frequencies {±a : ceil(2^j/3) <= a <= floor(2^(j+2)/3)}; size 2^(j+1)."""
    if j < 0:
        raise ValueError(f"detail level must be nonnegative, got {j}")
    # 2^j is never divisible by 3, so ceil(2^j/3) = 2^j//3 + 1.
    pos = np.arange(2**j // 3 + 1, 2 ** (j + 2) // 3 + 1, dtype=int)
    return np.concatenate([-pos[::-1], pos])


def scale_band_set(j: int) -> np.ndarray:
    """Frequencies where the level-j periodized scaling function is nonzero."""
    if j < 0:
        raise ValueError(f"scale level must be nonnegative, got {j}")
    hi = 2 ** (j + 1) // 3
    return np.arange(-hi, hi + 1, dtype=int)


def periodized_psi_hat(j: int, k: int, ell):
    """Fourier coefficient of the periodized detail function at frequency ell.

    Equals 2^(-j/2) exp(-2 pi i ell k / 2^j) psi_hat(ell 2^-j); nonzero only
    on band_set(j).
    """
    if not 0 <= k < 2**j:
        raise ValueError(f"shift k={k} out of range for level j={j}")
    ell = np.asarray(ell, dtype=float)
    return 2.0 ** (-j / 2.0) * np.exp(-2j * np.pi * ell * k / 2**j) * psi_hat(ell / 2**j)


@dataclass
class WaveletCoefficients:
    """Scale coefficients at j0 plus detail coefficients for levels j0..j1."""

    j0: int
    j1: int
    n: int
    scale: np.ndarray
    detail: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        _check_levels(self.n, self.j0, self.j1)
        if self.scale.shape != (2**self.j0,):
            raise ValueError(f"scale must hold 2^{self.j0} entries")
        for j in range(self.j0, self.j1 + 1):
            if j not in self.detail or self.detail[j].shape != (2**j,):
                raise ValueError(f"detail level {j} must hold 2^{j} entries")

    @classmethod
    def zeros(cls, j0: int, j1: int, n: int) -> "WaveletCoefficients":
        _check_levels(n, j0, j1)  # before 2**j0 is read
        detail = {j: np.zeros(2**j) for j in range(j0, j1 + 1)}
        return cls(j0, j1, n, np.zeros(2**j0), detail)

    def levels(self) -> range:
        return range(self.j0, self.j1 + 1)


def _check_levels(n: int, j0: int, j1: int) -> None:
    """The one level-range check: 0 <= j0 <= j1 first, then ``_check_grid``."""
    if j0 < 0:
        raise ValueError(f"coarse level j0 must be nonnegative, got {j0}")
    if j0 > j1:
        raise ValueError(f"need j0 <= j1, got ({j0}, {j1})")
    _check_grid(n, j1)


def _check_length(n: int, what: str) -> None:
    """Raise unless a data grid's length ``n`` is a power of two >= 32; ``what`` names it."""
    if n < 32 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two >= 32, got {n}")


def _check_grid(n: int, j: int, band: str | None = None) -> None:
    """The one level-fits-grid rule: ``_check_length``, then j <= log2(n)-2 (named ``band``)."""
    _check_length(n, "grid length")
    if j > int(np.log2(n)) - 2:
        name, symbol = (f"fine level j1={j}", "j1") if band is None else (band, "level")
        raise ValueError(
            f"{name} too large for n={n}: need {symbol} <= log2(n)-2 "
            "so all band frequencies stay below the Nyquist range"
        )


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    """Real part of ``values``; a row's imaginary residual must be within 1e-9 * max(|z|, 1)."""
    rows = values.reshape(-1, values.shape[-1])
    imag = np.abs(rows.imag).max(axis=-1)
    # every row's bound below is at least 1e-9, so rows within it pass at
    # once (a NaN row does not)
    if (imag <= 1e-9).all():
        return values.real
    bad = imag > 1e-9 * np.maximum(np.abs(rows).max(axis=-1), 1.0)
    if bad.any():
        i = int(bad.argmax())
        where = f" (row {i})" if values.ndim > 1 else ""
        raise AssertionError(
            f"{what}{where} should be real; residual imaginary part {imag[i]:.3e}"
        )
    return values.real


def _band_fold(values: np.ndarray, residues: np.ndarray, width: int) -> np.ndarray:
    """Sum ``values`` over the frequency residue classes ``residues`` (= l mod ``width``).

    The one fold behind analysis, deconvolution and the tau variance factors:
    a level-j coefficient vector is the inverse FFT of a fold of width 2^j.
    ``values`` may be a (rows, band) stack; each row folds as it would alone.
    """
    rows = values.reshape(-1, residues.size)
    z = np.zeros((rows.shape[0], width), dtype=complex)
    # one flat add.at: the stack's classes are disjoint, each summed in band order
    flat = (np.arange(rows.shape[0])[:, np.newaxis] * width + residues).ravel()
    np.add.at(z.reshape(-1), flat, rows.ravel())
    return z.reshape(values.shape[:-1] + (width,))


@dataclass(frozen=True)
class _BandPlan:
    """Read-only layout of one level's band on the length-n grid.

    ``index`` holds l mod n (the FFT position), ``residues`` l mod 2^level
    (the fold class), ``analysis`` the conjugate window and ``synthesis`` the
    window times 2^(-level/2).
    """

    level: int
    frequencies: np.ndarray
    index: np.ndarray
    residues: np.ndarray
    analysis: np.ndarray
    synthesis: np.ndarray


def _plan(level: int, n: int, ells: np.ndarray, window: np.ndarray) -> _BandPlan:
    arrays = {
        "frequencies": ells,
        "index": ells % n,
        "residues": ells % 2**level,
        "analysis": np.conj(window),
        "synthesis": 2.0 ** (-level / 2.0) * window,
    }
    for values in arrays.values():
        values.setflags(write=False)
    return _BandPlan(level=level, **arrays)


# A plan depends only on (level, n); callers check the grid first.
@lru_cache(maxsize=64)
def _detail_plan(j: int, n: int) -> _BandPlan:
    ells = band_set(j)
    return _plan(j, n, ells, psi_hat(ells / 2**j))


@lru_cache(maxsize=64)
def _scale_plan(j: int, n: int) -> _BandPlan:
    ells = scale_band_set(j)
    return _plan(j, n, ells, phi_hat(ells / 2**j))


@dataclass(frozen=True)
class _StackPlan:
    """Read-only layout of a band stack: the scale band at j0, then detail bands j0..j1.

    A pass holds its coefficients as one (rows, width) stack, band b in the
    columns ``starts[b]:starts[b + 1]``.  The stacked arrays concatenate the
    bands' plans in that order: ``index`` (FFT positions), ``residues`` (fold
    classes, offset by each band's column start), the ``analysis`` and
    ``synthesis`` windows, and ``gains``, each column's 2^(level/2).
    """

    j0: int
    bands: tuple[tuple[str, _BandPlan], ...]
    starts: np.ndarray
    index: np.ndarray
    residues: np.ndarray
    analysis: np.ndarray
    synthesis: np.ndarray
    gains: np.ndarray

    def split(self, stack: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The scale block and a detail block per level of ``stack``, as column views."""
        blocks = [stack[..., a:b] for a, b in zip(self.starts[:-1], self.starts[1:])]
        return blocks[0], dict(zip(range(self.j0, self.j0 + len(blocks) - 1), blocks[1:]))


# A stack plan depends only on (j0, j1, n); callers check the levels first.
@lru_cache(maxsize=64)
def _stack_plan(j0: int, j1: int, n: int) -> _StackPlan:
    bands = (("scale", _scale_plan(j0, n)),) + tuple(
        ("detail", _detail_plan(j, n)) for j in range(j0, j1 + 1))
    widths = [2**plan.level for _, plan in bands]
    starts = np.concatenate([[0], np.cumsum(widths)])
    arrays = {
        "starts": starts,
        "index": np.concatenate([plan.index for _, plan in bands]),
        "residues": np.concatenate([plan.residues + a for (_, plan), a in zip(bands, starts)]),
        "analysis": np.concatenate([plan.analysis for _, plan in bands]),
        "synthesis": np.concatenate([plan.synthesis for _, plan in bands]),
        "gains": np.repeat([2.0 ** (plan.level / 2.0) for _, plan in bands], widths),
    }
    for values in arrays.values():
        values.setflags(write=False)
    return _StackPlan(j0=j0, bands=bands, **arrays)


def _analyze(values: np.ndarray, plan: _BandPlan, what: str) -> np.ndarray:
    """Coefficients of one band from ``values``, the spectrum at ``plan.index``.

    ``values`` may be a (rows, band) stack: one fold and one batched inverse
    FFT give every row's coefficients, each equal to its one-row analysis.
    """
    z = _band_fold(values * plan.analysis, plan.residues, 2**plan.level)
    coeffs = np.fft.ifft(z, axis=-1, out=z)
    coeffs *= 2.0 ** (plan.level / 2.0)
    return _real_part(coeffs, f"{what} coefficients at level {plan.level}")


def _spectra(rows) -> np.ndarray:
    """y_tilde = fft(y) / n of each row of a (rows, n) real stack, bit for bit as for real input.

    The forward norm scales by 1/n inside the transform; n is a power of two, so exactly.
    A row near the float limit overflows to inf or NaN without a numpy warning; the
    estimator's finite checks on sigma_hat and the deconvolved coefficients refuse it.
    """
    out = np.array(rows, dtype=complex)  # fft casts real input in small chunks, at twice its cost
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.fft(out, axis=-1, out=out, norm="forward")


def _detail_from_spectrum(spectrum: np.ndarray, j: int, n: int) -> np.ndarray:
    plan = _detail_plan(j, n)
    return _analyze(np.take(spectrum, plan.index, axis=-1), plan, "detail")


def forward_transform(signal: np.ndarray, j0: int, j1: int) -> WaveletCoefficients:
    """Analyze a sampled periodic signal into periodized Meyer coefficients at levels j0..j1."""
    signal = np.asarray(signal, dtype=float)
    n = signal.shape[0]
    _check_levels(n, j0, j1)
    _check_finite(signal, "signal values")
    stack = _analysis(_spectra(signal[np.newaxis]), j0, j1, 1.0, "{kind} coefficients at level {j}")
    scale, detail = _stack_plan(j0, j1, n).split(stack[0])
    return WaveletCoefficients(j0, j1, n, scale, detail)


def _analysis(spectra: np.ndarray, j0: int, j1: int, divisors, label: str) -> np.ndarray:
    """The one band analysis: the (B, width) band stack (``_stack_plan``) of a (B, n) stack.

    Every band of the spectra is divided by ``divisors`` (a scalar, or the
    bands' divisors concatenated in stack order), windowed and folded into its
    column block at once; each block is inverse transformed in place.  The
    stack is refused unless real and finite; the band named is the first
    whose check fails, scale first, then detail j0..j1, the real-part check
    before the finite one, the latter named by ``label`` filled in with the
    band's kind and level.
    """
    plan = _stack_plan(j0, j1, spectra.shape[-1])
    # a band of a finite spectrum can overflow, by itself or over its divisor; the checks refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.take(spectra, plan.index, axis=-1) / divisors
        values *= plan.analysis
        z = _band_fold(values, plan.residues, plan.starts[-1])
        for a, b in zip(plan.starts[:-1], plan.starts[1:]):
            np.fft.ifft(z[:, a:b], axis=-1, out=z[:, a:b])
        z *= plan.gains
    coeffs = z.real
    if not ((np.abs(z.imag) <= 1e-9).all() and np.isfinite(coeffs).all()):
        for (kind, band), a, b in zip(plan.bands, plan.starts[:-1], plan.starts[1:]):
            block = _real_part(z[:, a:b], f"{kind} coefficients at level {band.level}")
            _check_finite(block, label.format(kind=kind, j=band.level))
    return coeffs


def _check_finite(values: np.ndarray, what: str) -> None:
    """Raise unless every one of ``values``, named by ``what``, is finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} are not finite")


def _synthesize(scale: np.ndarray, detail: dict, n: int) -> np.ndarray:
    """(rows, n) samples from a (rows, 2^j0) scale stack and detail stacks, one inverse FFT.

    ``detail`` maps each level j0..j1 to the (rows, 2^j) stack of every row;
    a row that stops below j holds zeros there, which add only signed zeros.
    Each band's FFT fills its column block of one band stack, and one gather,
    one window multiply and one scatter add every term to a complex (rows, n)
    spectrum, each frequency's terms in the band order scale, then detail j0,
    j0+1, ...; a row is its one-row synthesis exactly.  The spectrum is
    inverse transformed in place with no 1/n (the forward norm's inverse);
    the samples are its real view.
    """
    j0, j1 = scale.shape[-1].bit_length() - 1, max(detail, default=0)
    _check_grid(n, j1)
    plan = _stack_plan(j0, j1, n)
    blocks = [scale] + [detail[j] for j in range(j0, j1 + 1)]
    spectrum = np.zeros((scale.shape[0], n), dtype=complex)  # first, so the temporaries free above it
    bands = np.empty((scale.shape[0], plan.starts[-1]), dtype=complex)
    for values, a, b in zip(blocks, plan.starts[:-1], plan.starts[1:]):
        np.fft.fft(values, axis=-1, out=bands[:, a:b])
    terms = np.take(bands, plan.residues, axis=-1)
    del bands
    np.multiply(plan.synthesis, terms, out=terms)  # the window first: x*y and y*x may differ
    # one flat add.at, row by row: each frequency's (at most two) terms in band order
    flat = np.add.outer(np.arange(0, spectrum.size, n), plan.index).ravel()
    np.add.at(spectrum.reshape(-1), flat, terms.ravel())
    del terms, flat
    samples = np.fft.ifft(spectrum, axis=-1, out=spectrum, norm="forward")
    return _real_part(samples, "synthesized samples")


def inverse_transform(coeffs: WaveletCoefficients, n: int) -> np.ndarray:
    """Synthesize samples on t_i = i/n from periodized Meyer coefficients."""
    detail = {j: coeffs.detail[j][np.newaxis] for j in coeffs.levels()}
    return _synthesize(coeffs.scale[np.newaxis], detail, n)[0]
