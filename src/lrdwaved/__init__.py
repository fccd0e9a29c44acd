"""Hard-thresholding Meyer wavelet deconvolution under long-range dependence."""

__version__ = "0.2.0"

from .bench import (
    BenchResult,
    RateResult,
    rate_exponent,
    run_benchmark,
    run_rate_experiment,
)
from .covariance import (
    KernelSpec,
    VarianceTable,
    fbm_spectral_constant,
    tau_level,
    waved_tau_level,
    z_var,
)
from .estimator import (
    DeconvolutionProblem,
    EstimateReport,
    deconvolve_coefficients,
    estimate_sigma,
    hard_threshold,
    run_estimator,
)
from .finescale import StoppingResult, lemma_bracket, stopping_time
from .meyer import (
    WaveletCoefficients,
    aux_polynomial,
    band_set,
    forward_transform,
    inverse_transform,
    periodized_psi_hat,
    phi_hat,
    psi_hat,
)
from .noise import (
    NoiseModel,
    derive_rng,
    farima_autocovariance,
    fgn_autocovariance,
)
from .signals import (
    ExperimentConfig,
    blur,
    calibrate_sigma,
    gamma_kernel,
    generate_dataset,
    grid_norm,
    make_signal,
)
from .thresholds import (
    ThresholdPolicy,
    build_policy,
    c_n,
    fine_level_theoretical,
)

__all__ = [
    "__version__",
    "BenchResult",
    "DeconvolutionProblem",
    "EstimateReport",
    "ExperimentConfig",
    "KernelSpec",
    "NoiseModel",
    "RateResult",
    "StoppingResult",
    "ThresholdPolicy",
    "VarianceTable",
    "WaveletCoefficients",
    "aux_polynomial",
    "band_set",
    "blur",
    "build_policy",
    "c_n",
    "calibrate_sigma",
    "deconvolve_coefficients",
    "derive_rng",
    "estimate_sigma",
    "farima_autocovariance",
    "fbm_spectral_constant",
    "fgn_autocovariance",
    "fine_level_theoretical",
    "forward_transform",
    "gamma_kernel",
    "generate_dataset",
    "grid_norm",
    "hard_threshold",
    "inverse_transform",
    "lemma_bracket",
    "make_signal",
    "periodized_psi_hat",
    "phi_hat",
    "psi_hat",
    "rate_exponent",
    "run_benchmark",
    "run_estimator",
    "run_rate_experiment",
    "stopping_time",
    "tau_level",
    "waved_tau_level",
    "z_var",
]
