"""Each input-domain rule raises its one message at every entry point that takes the input.

The rules: a dependence level alpha in (0, 1], a Hurst index in [1/2, 1), a
Gamma kernel of shape nu in (0, 1] with a finite positive scale, a grid
length that is a power of two >= 32, a finite number ("X must be finite,
got v"), a finite array ("X are not finite"), a finite positive noise scale
estimate sigma_hat, a level range 0 <= j0 <= j1 <= log2(n) - 2, and a
smoothing spec that is a named spec, a numeric string or a real number.
NaN and infinity are refused by name wherever a rule applies.  Each rule's
message is written once in the package, and no module branches on a method
name: the method table in ``thresholds`` says what each name means.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdwaved
from lrdwaved.bench import rate_exponent
from lrdwaved.cli import main
from lrdwaved.covariance import KernelSpec, fbm_spectral_constant, tau_level
from lrdwaved.estimator import DeconvolutionProblem
from lrdwaved.finescale import fine_level_details, kernel_channel, lemma_bracket, stopping_time
from lrdwaved.meyer import WaveletCoefficients, forward_transform
from lrdwaved.noise import NoiseModel, fgn_autocovariance
from lrdwaved.signals import ExperimentConfig, calibrate_sigma, gamma_kernel, generate_dataset
from lrdwaved.thresholds import build_policy, c_n, fine_level_theoretical, resolve_smoothing

nan, inf = math.nan, math.inf


def raises_exactly(call, message: str) -> None:
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)


def cli_refuses(argv, tmp_path, capsys, message: str) -> None:
    """The CLI exits 3 with ``message`` as its only stderr line and creates no output."""
    out = tmp_path / "out"
    assert main([str(a) for a in argv] + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


ALPHA_ENTRY_POINTS = {
    "NoiseModel": lambda a: NoiseModel(alpha=a),
    "tau_level": lambda a: tau_level(4, gamma_kernel(256), a),
    "c_n": lambda a: c_n(4096, a),
    "fine_level_theoretical": lambda a: fine_level_theoretical(4096, a, 0.7),
    "ExperimentConfig": lambda a: ExperimentConfig("cusp", n=64, alpha=a),
    "DeconvolutionProblem": lambda a: DeconvolutionProblem(np.zeros(64), gamma_kernel(64), a),
    "rate_exponent": lambda a: rate_exponent(0.5, 2.0, 0.7, a, 2.0),
    "stopping_time": lambda a: stopping_time(np.ones(10), a, 0.01),
}


@pytest.mark.parametrize("entry", ALPHA_ENTRY_POINTS)
@pytest.mark.parametrize("alpha", [nan, 0.0, 1.5, -1.0])
def test_alpha_rule_at_every_entry_point(entry, alpha):
    message = f"alpha must lie in (0, 1], got {alpha}"
    raises_exactly(lambda: ALPHA_ENTRY_POINTS[entry](alpha), message)


HURST_ENTRY_POINTS = {
    "fgn_autocovariance": lambda h: fgn_autocovariance(1, h),
    "fbm_spectral_constant": fbm_spectral_constant,
}


@pytest.mark.parametrize("entry", HURST_ENTRY_POINTS)
@pytest.mark.parametrize("hurst", [nan, 0.4, 1.0])
def test_hurst_rule_at_every_entry_point(entry, hurst):
    message = f"Hurst index must lie in [1/2, 1), got {hurst}"
    raises_exactly(lambda: HURST_ENTRY_POINTS[entry](hurst), message)


KERNEL_CASES = [
    ({"nu": nan}, "nu must lie in (0, 1], got nan"),
    ({"nu": 0.0}, "nu must lie in (0, 1], got 0.0"),
    ({"nu": 2.0}, "nu must lie in (0, 1], got 2.0"),
    ({"kernel_scale": nan}, "kernel_scale must be finite, got nan"),
    ({"kernel_scale": inf}, "kernel_scale must be finite, got inf"),
    ({"kernel_scale": -1.0}, "kernel_scale must be positive, got -1.0"),
]
KERNEL_IDS = ["nu-nan", "nu-0", "nu-2", "scale-nan", "scale-inf", "scale-negative"]


@pytest.mark.parametrize("flags, message", KERNEL_CASES, ids=KERNEL_IDS)
class TestKernelRule:
    def test_gamma_kernel(self, flags, message):
        shape, scale = flags.get("nu", 0.7), flags.get("kernel_scale", 0.25)
        raises_exactly(lambda: gamma_kernel(256, shape, scale), message)

    def test_experiment_config(self, flags, message):
        raises_exactly(lambda: ExperimentConfig("cusp", n=64, **flags), message)

    def test_simulate(self, flags, message, tmp_path, capsys):
        argv = ["simulate", "--signal", "cusp", "--n", 64]
        for name, value in flags.items():
            argv += [f"--{name.replace('_', '-')}", value]
        cli_refuses(argv, tmp_path, capsys, message)


@pytest.mark.parametrize("n", [16, 100])
class TestGridLengthRule:
    def test_experiment_config(self, n):
        raises_exactly(lambda: ExperimentConfig("cusp", n=n),
                       f"n must be a power of two >= 32, got {n}")

    def test_deconvolution_problem(self, n):
        raises_exactly(lambda: DeconvolutionProblem(np.zeros(n), KernelSpec(np.ones(n))),
                       f"observation length must be a power of two >= 32, got {n}")

    def test_simulate_flag(self, n, tmp_path, capsys):
        cli_refuses(["simulate", "--signal", "cusp", "--n", n], tmp_path, capsys,
                    f"--n must be a power of two >= 32, got {n}")


TOO_FINE = ("fine level j1={j1} too large for n={n}: need j1 <= log2(n)-2 "
            "so all band frequencies stay below the Nyquist range")
SIGMA_NAN = "noise scale estimate must be finite and positive, got nan"
J0_NEGATIVE = "coarse level j0 must be nonnegative, got -1"


@pytest.mark.parametrize("call, message", [
    (lambda: rate_exponent(0.5, nan, 0.7, 0.4, 2.0), "loss exponent p must exceed 1, got nan"),
    (lambda: rate_exponent(0.5, 2.0, 0.7, 0.4, nan),
     "Besov integrability pi must be >= 1, got nan"),
    (lambda: rate_exponent(0.5, 2.0, nan, 0.4, 2.0), "nu must be nonnegative, got nan"),
    (lambda: rate_exponent(nan, 2.0, 0.7, 0.4, 2.0),
     "need smoothness s > 1/pi - nu - alpha/2 = -0.4, got nan"),
    (lambda: rate_exponent(0.5, 2.0, inf, 0.4, 2.0), "nu must be finite, got inf"),
    (lambda: rate_exponent(inf, 2.0, 0.7, 0.4, 2.0), "s must be finite, got inf"),
    (lambda: rate_exponent(0.5, inf, 0.7, 0.4, 2.0), "p must be finite, got inf"),
    (lambda: rate_exponent(0.5, 2.0, 0.7, 0.4, inf), "pi must be finite, got inf"),
    (lambda: fine_level_theoretical(4096, 0.6, nan), "nu must be nonnegative, got nan"),
    (lambda: fine_level_theoretical(4096, 0.6, inf), "nu must be finite, got inf"),
    # unchecked, calibrate_sigma gives sigma = nan, inf and (with a numpy warning) inf
    (lambda: calibrate_sigma(np.full(8, nan), 20.0), "blurred signal values are not finite"),
    (lambda: calibrate_sigma(np.full(8, inf), 20.0), "blurred signal values are not finite"),
    (lambda: calibrate_sigma(np.full(8, 1e200), 20.0),
     "blurred signal grid norm must be finite, got inf"),
    # level 7's band reaches n/2 = 128, so no transform on n = 256 can hold it
    (lambda: WaveletCoefficients.zeros(3, 7, 256), TOO_FINE.format(j1=7, n=256)),
    (lambda: tau_level(9, gamma_kernel(512), 0.6), TOO_FINE.format(j1=9, n=512)),
    (lambda: KernelSpec(np.full(64, nan)), "kernel Fourier coefficients are not finite"),
    (lambda: build_policy("lrd", gamma_kernel(256), 256, 0.6, nan, 1.0, 3, 5), SIGMA_NAN),
    (lambda: kernel_channel(gamma_kernel(256), 0.6, nan, None), SIGMA_NAN),
    (lambda: fine_level_details(generate_dataset(ExperimentConfig("cusp", n=256, alpha=0.6))[0],
                                0.6, sigma_hat=nan), SIGMA_NAN),
    (lambda: lemma_bracket(gamma_kernel(256), 0.6, nan, 256**-0.5), SIGMA_NAN),
    # unchecked, numpy scalars and None raised AttributeError (no .lower())
    (lambda: resolve_smoothing(None, 0.6), "unknown smoothing spec None"),
    (lambda: resolve_smoothing(b"1.5", 0.6), "unknown smoothing spec b'1.5'"),
    (lambda: resolve_smoothing(np.float32(-1.5), 0.6), "smoothing must be positive, got -1.5"),
    (lambda: resolve_smoothing(np.int64(0), 0.6), "smoothing must be positive, got 0.0"),
    (lambda: ExperimentConfig("cusp", n=64, methods=("lrd",), smoothing=(np.float32(nan),)),
     "smoothing must be finite, got nan"),
    # unchecked, 2**-1 reached np.zeros as a float and raised TypeError
    (lambda: WaveletCoefficients.zeros(-1, 3, 64), J0_NEGATIVE),
    (lambda: forward_transform(np.zeros(64), -1, 3), J0_NEGATIVE),
    (lambda: build_policy("lrd", gamma_kernel(256), 256, 0.6, 1.0, 1.0, -1, 5), J0_NEGATIVE),
], ids=["rate-p-nan", "rate-pi-nan", "rate-nu-nan", "rate-s-nan", "rate-nu-inf", "rate-s-inf",
        "rate-p-inf", "rate-pi-inf", "fine-level-nu-nan", "fine-level-nu-inf",
        "calibrate-nan-signal", "calibrate-inf-signal", "calibrate-norm-overflow",
        "coefficients-j1-too-fine", "tau-level-too-fine", "kernel-nan", "policy-sigma-nan",
        "channel-sigma-nan", "fine-level-sigma-nan", "bracket-sigma-nan", "smoothing-none",
        "smoothing-bytes", "smoothing-float32-negative", "smoothing-int64-zero",
        "config-smoothing-float32-nan", "coefficients-j0-negative", "forward-j0-negative",
        "policy-j0-negative"])
def test_non_finite_rate_arguments_refused(call, message):
    # unchecked: NaN rates, 0.0 at nu = inf, and a float-to-int error at nu = NaN
    raises_exactly(call, message)


RULE_TEMPLATES = ["must be finite, got", "are not finite",
                  "noise scale estimate must be finite and positive", "too large for n"]


@pytest.mark.parametrize("template", RULE_TEMPLATES)
def test_each_rule_message_is_written_once(template):
    # a rule's second inline copy would drift from the first: entry points call its function
    package = Path(lrdwaved.__file__).parent
    homes = {path.name: path.read_text().count(template) for path in package.glob("*.py")}
    assert sum(homes.values()) == 1, {name: k for name, k in homes.items() if k}


@pytest.mark.parametrize("spec, value", [(np.float32(1.5), 1.5), (np.int64(2), 2.0),
                                         (True, 1.0), ("2.5", 2.5), ("SQRT6", math.sqrt(6.0))],
                         ids=["float32", "int64", "bool", "numeric-string", "name-any-case"])
def test_every_real_smoothing_spec_resolves(spec, value):
    assert resolve_smoothing(spec, 0.6) == value
    config = ExperimentConfig("cusp", n=64, methods=("lrd",), smoothing=(spec,))
    assert config.smoothing == (spec,)


METHOD_BRANCH = re.compile(r"""[=!]=\s*["'](iid|lrd)["']|["'](iid|lrd)["']\s*[=!]=""")


def test_no_module_branches_on_a_method_name():
    # what a method name means is one row of thresholds._METHODS; a comparison would be a second
    package = Path(lrdwaved.__file__).parent
    branches = [f"{path.name}:{i}" for path in sorted(package.glob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if METHOD_BRANCH.search(line)]
    assert branches == []


@pytest.mark.parametrize("log_power", [nan, inf])
def test_non_finite_log_power_refused(log_power):
    # unchecked, NaN gives a saturated stop at M = 10 and a (127, 127) bracket
    message = f"log_power must be finite, got {log_power}"
    raises_exactly(lambda: stopping_time(np.ones(10), 0.6, 0.01, log_power), message)
    raises_exactly(lambda: lemma_bracket(gamma_kernel(256), 0.6, 0.05, 256**-0.5, log_power),
                   message)


@pytest.mark.parametrize("y_scale, message", [
    (3e305, "deconvolved coefficients at scale level 3 are not finite"),  # Y_hat[0] overflows
    (5e307, "noise scale estimate must be finite and positive, got nan"),  # the finest band too
])
def test_overflowing_observations_print_one_error_line(tmp_path, y_scale, message):
    # a process of its own, so that stderr shows any numpy warning as a user would see it
    assert main(["simulate", "--signal", "cusp", "--n", "1024", "--alpha", "0.6", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    dataset = tmp_path / "dataset.csv"
    lines = dataset.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index("y")
    for i in range(head + 1, len(lines)):
        row = lines[i].split(",")
        row[col] = repr(float(row[col]) * y_scale)
        lines[i] = ",".join(row)
    dataset.write_text("\n".join(lines) + "\n")
    src = str(Path(lrdwaved.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lrdwaved.cli", "estimate", str(dataset), "--method", "iid",
         "--alpha", "0.6", "--j1", "5", "--out", str(tmp_path / "est")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 3
    assert proc.stderr == f"error: {message}\n"
