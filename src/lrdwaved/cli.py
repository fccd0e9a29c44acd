"""Command-line interface: batch simulation, estimation and benchmarking.

Exit codes: 0 success, 2 usage, 3 validation, 4 runtime failure.  Outputs are
deterministic for a fixed seed: CSV uses '.' decimals, comma separators, LF
endings and shortest round-trip float formatting; JSON uses sorted keys.
Every CSV carries a provenance header (version, config hash, seed), and each
JSON report the same provenance as a block; the hash covers every flag the
command parsed, the seed resolved and input files by their bytes, except
--out and --threads, which change no output byte.  Each command declares
only the flags it reads, except --threads on benchmark and rates: it is
checked (at least 1) but not read, since each call already runs its blocks
on the calling process and one helper process, forked once per call for more
than one block in total, when the process may use two CPUs and runs no other
thread.  The model flags set ExperimentConfig's fields and default to them,
as do benchmark's --methods, --smoothing, --replications and noise's --n, --kind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import _run_grid, run_rate_experiment
from .covariance import KernelSpec
from .estimator import DeconvolutionProblem, run_estimator
from .finescale import fine_level_details
from .meyer import _check_length
from .noise import NOISE_KINDS, NoiseModel, _stream_words, derive_rng
from .signals import (
    SIGNAL_NAMES,
    ExperimentConfig,
    _clean_cell,
    _noisy_problem,
    gamma_kernel,
)
from .thresholds import _METHODS, _SMOOTHING_SPECS, DEFAULT_COARSE_LEVEL, DEFAULT_SMOOTHING
from .thresholds import _method_alpha, resolve_smoothing

ENV_SEED = "LRDWAVED_SEED"
# flags that name an input file; provenance records the file's bytes, not its path
_FILE_FLAGS = ("input", "kernel_file")


class ValidationError(ValueError):
    """Bad input values or malformed files (exit code 3)."""


def _fmt(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def _provenance(args, seed: int) -> dict:
    """Version, seed, config hash and the flags it covers, for one run.

    The hash covers every parsed flag, with the seed resolved and each input
    file as the sha256 of its bytes, except --out and --threads, which change
    no output byte.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "threads")}
    config["seed"] = seed
    for name in _FILE_FLAGS:
        if config.get(name) is not None:
            config[name] = "sha256:" + hashlib.sha256(Path(config[name]).read_bytes()).hexdigest()
    blob = json.dumps(config, sort_keys=True).encode()
    return {
        "lrdwaved": __version__,
        "config_hash": hashlib.sha256(blob).hexdigest()[:12],
        "seed": seed,
        "config": config,
    }


def _write_csv(path: Path, provenance: dict, columns: list[str], rows) -> None:
    lines = [f"# {key}={provenance[key]}" for key in ("lrdwaved", "config_hash", "seed")]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def _resolve_seed(args, runs: int = 1) -> int:
    """--seed, else $LRDWAVED_SEED, else 0.

    A command that runs at seeds seed, seed+1, ..., seed+runs-1 needs all of
    them in derive_rng's domain; a seed that leaves it names its source.
    """
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get(ENV_SEED)
        if env is None:
            return 0
        try:
            seed, source = int(env), f"${ENV_SEED}"
        except ValueError:
            raise ValidationError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    try:
        _stream_words(seed, ())
        _stream_words(seed + runs - 1, ())
    except ValueError:
        if runs == 1:
            domain = "[0, 2**64)"
        else:
            domain = f"[0, 2**64 - {runs - 1}) to give {runs} consecutive seeds"
        raise ValidationError(f"{source}: seed must be an integer in {domain}, got {seed}") from None
    return seed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_grid(text: str, flag: str, name: str, kind) -> list:
    """The comma-separated entries of ``flag`` as ``kind``: at least one, none repeated."""
    tokens = [token for token in text.split(",") if token]
    try:
        values = [kind(token) for token in tokens]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None
    if not values:
        raise ValidationError(f"{flag} must list at least one {name}")
    repeated = [token for i, (token, v) in enumerate(zip(tokens, values)) if v in values[:i]]
    if repeated:
        raise ValidationError(f"{flag} lists {name}={repeated[0]} more than once")
    return values


def _smoothing(spec: str, flag: str, alpha: float = 1.0) -> float:
    """``resolve_smoothing``, naming ``flag``; a spec is valid at every alpha or at none."""
    try:
        return resolve_smoothing(spec, alpha)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _method_smoothing(args, alpha: float = 1.0) -> tuple[str, float]:
    """``--method``'s smoothing spec (its row's flag) and its value on data at ``alpha``."""
    flag = _METHODS[args.method].flag
    spec = getattr(args, flag)
    return spec, _smoothing(spec, f"--{flag}", _method_alpha(args.method, alpha))


def _add_method_flags(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--method", choices=tuple(_METHODS), default=default)
    for name, row in _METHODS.items():
        parser.add_argument(f"--{row.flag}", default=row.default,
                            help=f"{name.upper()} smoothing: {'|'.join(_SMOOTHING_SPECS)}|number")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValidationError(f"--threads must be at least 1, got {threads}")


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads", type=int, default=1,
        help="not read: the blocks run on two processes, the helper forked once per call, "
        "when there is more than one block in total and two CPUs are free (>= 1)",
    )


def _add_seed_and_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help=f"RNG seed (fallback: ${ENV_SEED})")
    parser.add_argument("--out", default=".", help="output directory (created if absent)")


# each model flag and the ExperimentConfig field it sets; the field gives its default
_MODEL_FLAGS = {
    "--signal": ("signal", dict(required=True, choices=SIGNAL_NAMES)),
    "--n": ("n", dict(type=int)),
    "--alpha": ("alpha", dict(type=float)),
    "--nu": ("nu", dict(type=float, help="Gamma kernel shape (= DIP)")),
    "--kernel-scale": ("kernel_scale", dict(type=float)),
    "--snr": ("snr_db", dict(type=float, help="blurred SNR in dB")),
    "--noise-kind": ("noise_kind", dict(choices=NOISE_KINDS)),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
# argparse dest -> field: "--kernel-scale" sets args.kernel_scale, "--snr" args.snr
_FIELD_OF = {flag[2:].replace("-", "_"): field for flag, (field, _) in _MODEL_FLAGS.items()}


def _add_model_flags(parser: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    for flag, (field, spec) in _MODEL_FLAGS.items():
        if flag not in omit:
            parser.add_argument(flag, default=_DEFAULTS.get(field), **spec)


def _model(args) -> dict:
    """The ExperimentConfig fields that the command's model flags set."""
    return {_FIELD_OF[dest]: v for dest, v in vars(args).items() if dest in _FIELD_OF}


def _experiment_config(
    args, seed: int, methods: tuple, smoothing: tuple, replications: int = 1, **model
) -> ExperimentConfig:
    """The model flags (``model`` overrides them), the seed and the command's methods."""
    _check_length(args.n, "--n")
    model = {**_model(args), **model, "replications": replications, "seed": seed}
    return ExperimentConfig(methods=methods, smoothing=smoothing, **model)


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    config = _experiment_config(args, seed, ("iid",), (DEFAULT_SMOOTHING["iid"],))
    out = _out_dir(args)
    cell = _clean_cell(config)
    t = np.arange(config.n) / config.n
    rows = zip(t, _noisy_problem(cell, 0).observations, cell.f_true, cell.blurred)
    _write_csv(
        out / "dataset.csv", _provenance(args, seed), ["t", "y", "f_true", "blurred"], rows
    )
    _write_json(out / "config.json", config.as_dict())
    print(f"wrote {out / 'dataset.csv'} and {out / 'config.json'}")
    return 0


def _read_dataset(path: Path) -> dict[str, np.ndarray]:
    if not path.exists():
        raise ValidationError(f"input file {path} does not exist")
    names: list[str] | None = None
    data: list[list[float]] = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if names is None:
            names = fields
            continue
        if len(fields) != len(names):
            raise ValidationError(
                f"{path} line {number}: {len(fields)} fields, the header has {len(names)}"
            )
        try:
            data.append([float(v) for v in fields])
        except ValueError as exc:
            raise ValidationError(f"{path} line {number}: {exc}") from None
    if names is None or not data:
        raise ValidationError(f"{path} has no data rows")
    arr = np.asarray(data)
    return {name: arr[:, i] for i, name in enumerate(names)}


def _read_kernel_file(path: Path, n: int) -> KernelSpec:
    table = _read_dataset(path)
    for col in ("ell", "re", "im"):
        if col not in table:
            raise ValidationError(f"kernel table {path} needs columns ell,re,im")
    ell = table["ell"]
    whole = np.isfinite(ell) & (ell == np.round(ell))
    if not np.all(whole):
        bad = float(ell[np.argmin(whole)])
        raise ValidationError(f"kernel table {path}: ell={bad!r} is not an integer")
    # beyond int64 the cast below would give INT64_MIN, frequency 0, with only a warning
    huge = np.abs(ell) >= 2.0**63
    if np.any(huge):
        bad = float(ell[np.argmax(huge)])
        raise ValidationError(f"kernel table {path}: ell={bad!r} is out of range")
    idx = ell.astype(int) % n
    counts = np.bincount(idx, minlength=n)
    if np.any(counts > 1):
        raise ValidationError(
            f"kernel table {path}: frequency {_signed(int(np.argmax(counts > 1)), n)} "
            f"appears {counts.max()} times (rows wrap mod n={n})"
        )
    # every |l| < n/2 must be given; the Nyquist frequency n/2 may stay unset
    counts[n // 2] = 1
    if not np.all(counts):
        missing = [_signed(int(i), n) for i in np.flatnonzero(counts == 0)]
        first = min(missing, key=lambda f: (abs(f), f < 0))
        raise ValidationError(
            f"kernel table {path} leaves frequency {first} unset "
            f"({len(missing)} of the {n - 1} with |l| < n/2 missing)"
        )
    fourier = np.zeros(n, dtype=complex)
    fourier[idx] = table["re"] + 1j * table["im"]
    return KernelSpec(fourier=fourier)


def _signed(index: int, n: int) -> int:
    return index - n if index > n // 2 else index


def cmd_estimate(args) -> int:
    seed = _resolve_seed(args)
    for name in ("nu", "kernel_scale"):
        if getattr(args, name) is None:  # not given: hashed as its default
            setattr(args, name, _DEFAULTS[_FIELD_OF[name]])
        elif args.kernel_file is not None:
            raise ValidationError(f"--{name.replace('_', '-')} does not apply with --kernel-file")
    table = _read_dataset(Path(args.input))
    for col in ("t", "y"):
        if col not in table:
            raise ValidationError(f"dataset {args.input} needs at least columns t,y")
    y = table["y"]
    _check_length(len(y), "dataset length")

    if args.kernel_file is not None:
        kernel = _read_kernel_file(Path(args.kernel_file), len(y))
    else:
        kernel = gamma_kernel(len(y), shape=args.nu, scale=args.kernel_scale)
    problem = DeconvolutionProblem(observations=y, kernel=kernel, alpha=args.alpha)

    _, smoothing = _method_smoothing(args, problem.alpha)
    report = run_estimator(
        problem, args.method, smoothing, j1_override=args.j1, j0=args.j0, rng=derive_rng(seed)
    )

    out = _out_dir(args)
    provenance = _provenance(args, seed)
    columns = ["t", "f_hat"]
    series = [table["t"], report.estimate]
    if "f_true" in table:
        columns.append("f_true")
        series.append(table["f_true"])
    columns.append("y")
    series.append(y)
    _write_csv(out / "estimate.csv", provenance, columns, zip(*series))
    report_payload = report.as_dict()
    report_payload["provenance"] = provenance
    _write_json(out / "report.json", report_payload)
    print(
        f"method={args.method} sigma_hat={report.sigma_hat:.6g} "
        f"j1={report.fine_level_used} kept={sum(report.kept_count.values())}"
    )
    return 0


def _render_table(results: list[dict]) -> str:
    """Aligned text table: rows are methods, columns are alpha values."""
    alphas = sorted({r["config"]["alpha"] for r in results}, reverse=True)
    methods = [(m["method"], m["smoothing"]) for m in results[0]["methods"]]
    sig = results[0]["config"]["signal"]
    snr = results[0]["config"]["snr_db"]
    lines = [f"{sig} @ {snr:g}dB   (mean MSE, typical fine level)"]
    header = ["method".ljust(16)] + [f"alpha={a:g}".rjust(16) for a in alphas]
    lines.append(" ".join(header))
    for i, (method, spec) in enumerate(methods):
        cells = [f"{method}:{spec}".ljust(16)]
        for a in alphas:
            res = next(r for r in results if r["config"]["alpha"] == a)
            m = res["methods"][i]
            cells.append(f"{m['mean_mse']:.4f} ({m['typical_fine_level']})".rjust(16))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def cmd_benchmark(args) -> int:
    seed = _resolve_seed(args)
    _check_threads(args.threads)
    alphas = _parse_grid(args.alpha_grid, "--alpha-grid", "alpha", float)
    methods = tuple(args.methods.split(","))
    smoothing = tuple(args.smoothing.split(","))
    for spec in smoothing:
        _smoothing(spec, "--smoothing")
    configs = [
        _experiment_config(args, seed, methods, smoothing, args.replications, alpha=alpha)
        for alpha in alphas
    ]
    out = _out_dir(args)
    results = _run_grid(configs)

    provenance = _provenance(args, seed)
    rows = [
        [args.signal, m.method, m.smoothing_spec, res.config.alpha, args.snr, m.mean_mse, m.se,
         m.typical_fine_level]
        for res in results for m in res.methods
    ]
    _write_csv(
        out / "results.csv",
        provenance,
        ["signal", "method", "smoothing", "alpha", "snr_db", "mean_mse", "se", "typical_j1"],
        rows,
    )
    dicts = [r.as_dict() for r in results]
    _write_json(out / "results.json", {"provenance": provenance, "results": dicts})
    text = _render_table(dicts)
    (out / "table.txt").write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return 0


def cmd_table(args) -> int:
    path = Path(args.results)
    if not path.exists():
        raise ValidationError(f"results file {path} does not exist")
    try:  # a file from outside the program: any shape it may have is validation
        results = json.loads(path.read_text(encoding="utf-8")).get("results")
        text = _render_table(results) if results else None
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path} is not a benchmark results file ({type(exc).__name__}: {exc})"
        ) from exc
    if text is None:
        raise ValidationError(f"{path} holds no benchmark results")
    if args.out is not None:
        out = _out_dir(args)
        (out / "table.txt").write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return 0


def cmd_rates(args) -> int:
    n_grid = _parse_grid(args.n_grid, "--n-grid", "n", int)
    for n in n_grid:
        _check_length(n, "--n-grid entry")
    # grid entry i runs at seed + i
    seed = _resolve_seed(args, runs=len(n_grid))
    _check_threads(args.threads)
    smoothing, _ = _method_smoothing(args)
    # the run checks every grid config first; --out is created after it
    result = run_rate_experiment(
        **_model(args),
        method=args.method,
        n_grid=n_grid,
        replications=args.replications,
        smoothing=smoothing,
        seed=seed,
    )
    out = _out_dir(args)
    provenance = _provenance(args, seed)
    rows = zip(result.n_grid, result.mean_mse)
    _write_csv(out / "rates.csv", provenance, ["n", "mean_mse"], rows)
    summary = result.as_dict()
    summary["provenance"] = provenance
    _write_json(out / "rates.json", summary)
    print(
        f"slope={result.slope:.4f} theoretical_exponent={result.theoretical_exponent:.4f}"
    )
    return 0


def cmd_noise(args) -> int:
    seed = _resolve_seed(args)
    model = NoiseModel(alpha=args.alpha, kind=args.kind, seed=seed)
    out = _out_dir(args)
    sample = model.sample(args.n)
    _write_csv(out / "noise.csv", _provenance(args, seed), ["value"], ([v] for v in sample))
    print(f"wrote {out / 'noise.csv'}")
    return 0


def cmd_stopping_trace(args) -> int:
    seed = _resolve_seed(args)
    config = _experiment_config(args, seed, ("lrd",), ("sqrtalpha",))
    out = _out_dir(args)
    problem = _noisy_problem(_clean_cell(config), 0)
    # the stream of run_benchmark's replication 0, method 0: the trace shows
    # the level a one-method LRD benchmark of this config picks
    level, stopping = fine_level_details(problem, args.alpha, rng=derive_rng(seed, 0, 0))
    _write_csv(
        out / "stopping_trace.csv",
        _provenance(args, seed),
        ["ell", "magnitude", "cutoff"],
        ([int(row[0]), row[1], row[2]] for row in stopping.threshold_trace),
    )
    print(f"M={stopping.M} j_hat={stopping.j_hat} level={level} saturated={stopping.saturated}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdwaved",
        description="Wavelet deconvolution under long-range dependent noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    _add_model_flags(p)
    _add_seed_and_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the estimator on a dataset CSV")
    p.add_argument("input", help="dataset CSV with columns t,y[,f_true,...]")
    _add_model_flags(p, omit=("--signal", "--n", "--snr", "--noise-kind"))
    p.set_defaults(nu=None, kernel_scale=None)  # None marks a flag not given
    p.add_argument(
        "--kernel-file",
        default=None,
        help="CSV with columns ell,re,im: one row per integer frequency |ell| < n/2",
    )
    _add_method_flags(p, default="iid")
    p.add_argument("--j0", type=int, default=DEFAULT_COARSE_LEVEL)
    p.add_argument("--j1", type=int, default=None, help="override the data-driven fine level")
    _add_seed_and_out(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo MSE benchmark")
    _add_model_flags(p, omit=("--alpha",))
    p.add_argument("--alpha-grid", default="1,0.8,0.6,0.4,0.2")
    p.add_argument("--methods", default=",".join(_DEFAULTS["methods"]))
    p.add_argument("--smoothing", default=",".join(_DEFAULTS["smoothing"]))
    p.add_argument("--replications", type=int, default=_DEFAULTS["replications"])
    _add_threads_flag(p)
    _add_seed_and_out(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("table", help="re-render a benchmark results JSON as text")
    p.add_argument("results", help="results.json produced by the benchmark command")
    p.add_argument("--out", default=None, help="directory for table.txt (default: print only)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("rates", help="rate-of-convergence experiment")
    _add_model_flags(p, omit=("--n", "--kernel-scale"))
    _add_method_flags(p, default="lrd")
    p.add_argument("--n-grid", default="1024,2048,4096,8192,16384")
    p.add_argument("--replications", type=int, default=32)
    _add_threads_flag(p)
    _add_seed_and_out(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("noise", help="dump a noise sample as CSV")
    p.add_argument("--kind", choices=NOISE_KINDS, default=_DEFAULTS["noise_kind"])
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--n", type=int, default=_DEFAULTS["n"])
    _add_seed_and_out(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("stopping-trace", help="stopping-rule diagnostic trace")
    _add_model_flags(p)
    _add_seed_and_out(p)
    p.set_defaults(func=cmd_stopping_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
