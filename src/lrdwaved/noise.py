"""Long-range dependent Gaussian noise generators.

Two stationary unit-variance generators parameterized by the dependence level
alpha in (0, 1] (Hurst index H = 1 - alpha/2, memory d = (1 - alpha)/2), both
exact and O(n log n) from factors cached by (parameter, n): fractional Gaussian
noise by circulant embedding (Davies-Harte), one real inverse FFT of a
half-spectrum work array, and FARIMA(0, d, 0) as its Durbin-Levinson path, one
FFT convolution with the closed-form Cholesky factor.  alpha = 1 reduces both
to i.i.d. standard Gaussians, drawn as one white stream: the two kinds give the
same bytes there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NOISE_KINDS",
    "NoiseModel",
    "fgn_autocovariance",
    "farima_autocovariance",
    "derive_rng",
]

NOISE_KINDS = ("fgn", "farima")

_MAX_EMBED_DOUBLINGS = 4

# a stream is addressed by a master seed and up to this many key integers,
# each in [0, 2^64): one 64-bit word of the Philox key or counter apiece
_MAX_KEY_INTS = 3
_WORD_LIMIT = 2**64


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based stream for (master seed, replication key).

    The Philox-4x64 key is (master_seed, len(key)) and the counter starts at
    (0, *key) padded with zeros to four words, so distinct tuples address
    distinct streams, tuples of different lengths included.  A stream
    advances the lowest counter word only, and would need 2^64 blocks of
    four draws to reach another stream's start.
    """
    words = _stream_words(master_seed, key)
    # key words 0-1, then counter words 0-3
    state = np.array([words[0], len(key), 0, *words[1:]] + [0] * (_MAX_KEY_INTS - len(key)),
                     dtype=np.uint64)
    generator, philox, fixed_key = _philox_types()
    return generator(philox(fixed_key(state[:2]), counter=state[2:]))


def _stream_words(master_seed: int, key: tuple) -> list[int]:
    """(master_seed, *key) as Python ints, or ValueError outside derive_rng's domain."""
    if len(key) > _MAX_KEY_INTS:
        raise ValueError(f"a stream key has at most {_MAX_KEY_INTS} integers, got {len(key)}")
    words = [operator.index(word) for word in (master_seed, *key)]
    if not 0 <= words[0] < _WORD_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {words[0]}")
    if key and (min(words[1:]) < 0 or max(words[1:]) >= _WORD_LIMIT):
        raise ValueError(f"key integers must lie in [0, 2**64), got {tuple(words[1:])}")
    return words


@lru_cache(maxsize=1)
def _philox_types():
    """(Generator, Philox, FixedKey), FixedKey a seed sequence that hands Philox its key.

    Built on the first stream, not at import, so that importing the package
    leaves numpy.random, and its start-up time, out.  Given a seed
    sequence, Philox takes its key from generate_state(2, uint64), and
    BitGenerator skips the OS entropy it gathers when only key= is given.
    """
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Generator, Philox, FixedKey


def _check_alpha(alpha: float) -> float:
    """The dependence level as a Python float (not a numpy scalar); raise unless it is in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class NoiseModel:
    """Dependence level, generator kind and seed for one noise process."""

    alpha: float
    kind: str = "farima"  # one of NOISE_KINDS
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def hurst(self) -> float:
        return 1.0 - self.alpha / 2.0

    @property
    def d(self) -> float:
        return (1.0 - self.alpha) / 2.0

    def rng(self, *key: int) -> np.random.Generator:
        return derive_rng(self.seed, *key)

    def sample(self, n: int, *key: int) -> np.ndarray:
        """Exact unit-variance sample of length n for a replication key."""
        if n < 1:
            raise ValueError("need n >= 1")
        out = np.empty(n)
        self._sample_into(out, *key)
        return out

    def _sample_into(self, out: np.ndarray, *key: int) -> None:
        """``sample(out.size, *key)`` written into ``out``, a contiguous float row."""
        n, rng = out.shape[0], self.rng(*key)
        if self.kind == "fgn" and self.d > 0.0:
            _circulant_sample(_sqrt_embedding_eigenvalues(self.hurst, n), rng, out)
            return
        rng.standard_normal(out=out)  # the innovations, or the white noise itself at d = 0
        if self.d > 0.0:
            psi_hat, weights, inv_b = _farima_factor(self.d, n)
            path = np.fft.irfft(psi_hat * np.fft.rfft(weights * out, 2 * n), 2 * n)
            np.multiply(path[:n], inv_b, out=out)


def _check_hurst(hurst: float) -> None:
    """Raise unless the Hurst index lies in [1/2, 1); NaN does not."""
    if not 0.5 <= hurst < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {hurst}")


def fgn_autocovariance(h, hurst: float):
    """Autocovariance of unit-variance fractional Gaussian noise at lag h."""
    _check_hurst(hurst)
    h = np.abs(np.asarray(h, dtype=float))
    out = 0.5 * ((h + 1.0) ** (2 * hurst) - 2.0 * h ** (2 * hurst) + np.abs(h - 1.0) ** (2 * hurst))
    if out.ndim == 0:
        return float(out)
    return out


def farima_autocovariance(h, d: float):
    """Autocovariance of FARIMA(0, d, 0) with unit innovation variance.

    gamma(0) = Gamma(1-2d)/Gamma(1-d)^2 and gamma(h) = gamma(h-1) (h-1+d)/(h-d).
    """
    if not 0.0 <= d < 0.5:
        raise ValueError(f"memory parameter d must lie in [0, 1/2), got {d}")
    lag = np.arange(1.0, int(np.max(np.abs(h))) + 1)
    gam0 = math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    out = np.cumprod(np.r_[gam0, (lag - 1.0 + d) / (lag - d)])[np.abs(np.asarray(h, dtype=int))]
    return float(out) if out.ndim == 0 else out


def _embedding_sqrt(acov, n: int) -> np.ndarray:
    """Square-rooted eigenvalues of the size-2m circulant embedding of acov(m), lags 0..m,
    with m = max(n, 2) doubled until the embedding is nonnegative definite."""
    m = max(n, 2)
    for _ in range(_MAX_EMBED_DOUBLINGS + 1):
        gam = acov(m)
        eig = np.fft.fft(np.concatenate([gam, gam[-2:0:-1]])).real
        if eig.min() >= -1e-12 * eig.max():
            return np.sqrt(np.maximum(eig, 0.0))
        m *= 2
    raise RuntimeError(f"circulant embedding stayed non-positive up to size {m}")


@lru_cache(maxsize=16)
def _sqrt_embedding_eigenvalues(hurst: float, n: int) -> np.ndarray:
    root = _embedding_sqrt(lambda m: fgn_autocovariance(np.arange(m + 1), hurst), n)
    root.flags.writeable = False
    return root


def _circulant_sample(sqrt_eig: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> None:
    """First ``out.size`` values of one draw with the embedded circulant covariance, into ``out``.

    The stream gives zeta_0, zeta_m, then the real and the imaginary parts of
    zeta_1..zeta_(m-1); one call draws them all.  The draw is real, so only
    the m + 1 nonnegative frequencies of its Hermitian spectrum are built,
    in one work array, and one real inverse FFT of size 2m gives the path.
    """
    size = sqrt_eig.size
    m = size // 2
    draws = rng.standard_normal(2 * m)
    zeta = np.empty(m + 1, dtype=complex)
    zeta[0], zeta[m] = draws[0], draws[1]
    zeta.real[1:m], zeta.imag[1:m] = draws[2 : m + 1], draws[m + 1 :]
    # numpy divides a complex by sqrt(2) as a multiply by this reciprocal, part by part
    zeta.view(float)[2 : 2 * m] *= 1.0 / np.sqrt(2.0)
    zeta *= sqrt_eig[: m + 1]
    path = np.fft.irfft(zeta, size, norm="forward")
    np.divide(path[: out.size], np.sqrt(size), out=out)


@lru_cache(maxsize=16)
def _farima_factor(d: float, n: int) -> tuple[np.ndarray, ...]:
    """Read-only (psi_hat, w, 1/b) with L e = (psi * (w e))[:n] / b, L the Cholesky factor.

    Durbin-Levinson builds x from A x = D^(1/2) e; Hosking's (1981) phi_tj =
    -a_j b_(t-j) / b_t, a = coefficients of (1 - z)^d, b_t = Gamma(t+1-d) / Gamma(t+1)
    make A = B^-1 T_a B, so L = B^-1 T_psi B (D / D_0)^(1/2) with psi = coefficients
    of (1 - z)^-d and w_t = b_t (D_t / D_0)^(1/2) = (Gamma(t+1-2d) / Gamma(t+1))^(1/2).
    """
    t = np.arange(1.0, n)
    psi = np.cumprod(np.r_[1.0, (t - 1.0 + d) / t])
    b = np.cumprod(np.r_[1.0, (t - d) / t])
    weights = np.sqrt(np.cumprod(np.r_[1.0, (t - 2.0 * d) / t]))
    parts = (np.fft.rfft(psi, 2 * n), weights, 1.0 / b)
    for part in parts:
        part.flags.writeable = False
    return parts

