"""Command-line interface: batch simulation, estimation and benchmarking.

Exit codes: 0 success, 2 usage, 3 validation, 4 runtime failure.  Outputs are
deterministic for a fixed seed: CSV uses '.' decimals, comma separators, LF
endings and shortest round-trip float formatting; JSON uses sorted keys.
Every file carries a provenance header (version, config hash, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import run_benchmark, run_rate_experiment
from .covariance import KernelSpec
from .estimator import DeconvolutionProblem, run_estimator
from .finescale import fine_level_details
from .noise import NoiseModel
from .signals import (
    SIGNAL_NAMES,
    ExperimentConfig,
    blur,
    gamma_kernel,
    generate_dataset,
    resolve_smoothing,
)

ENV_SEED = "LRDWAVED_SEED"


class ValidationError(ValueError):
    """Bad input values or malformed files (exit code 3)."""


def _fmt(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(payload: dict, seed: int) -> list[str]:
    return [
        f"# lrdwaved={__version__}",
        f"# config_hash={_config_hash(payload)}",
        f"# seed={seed}",
    ]


def _provenance_dict(payload: dict, seed: int) -> dict:
    return {
        "lrdwaved": __version__,
        "config_hash": _config_hash(payload),
        "seed": seed,
        "config": payload,
    }


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    lines = header + [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_n(n: int) -> int:
    if n < 32 or (n & (n - 1)) != 0:
        raise ValidationError(f"--n must be a power of two >= 32, got {n}")
    return n


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help=f"RNG seed (fallback: ${ENV_SEED})")
    parser.add_argument("--out", default=".", help="output directory (created if absent)")


def _add_model_flags(parser: argparse.ArgumentParser, with_signal: bool = True) -> None:
    if with_signal:
        parser.add_argument("--signal", required=True, choices=SIGNAL_NAMES)
    parser.add_argument("--n", type=int, default=4096)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--nu", type=float, default=0.7, help="Gamma kernel shape (= DIP)")
    parser.add_argument("--kernel-scale", type=float, default=0.25)
    parser.add_argument("--snr", type=float, default=20.0, help="blurred SNR in dB")
    parser.add_argument("--noise-kind", choices=("farima", "fgn"), default="farima")


def cmd_simulate(args) -> int:
    n = _check_n(args.n)
    seed = _resolve_seed(args)
    out = _out_dir(args)
    config = ExperimentConfig(
        signal=args.signal,
        n=n,
        alpha=args.alpha,
        nu=args.nu,
        snr_db=args.snr,
        methods=("iid",),
        smoothing=("sqrt6",),
        replications=1,
        seed=seed,
        noise_kind=args.noise_kind,
        kernel_scale=args.kernel_scale,
    )
    problem, f_true = generate_dataset(config, 0)
    blurred = blur(f_true, problem.kernel)
    payload = config.as_dict()
    t = np.arange(n) / n
    rows = zip(t, problem.observations, f_true, blurred)
    _write_csv(
        out / "dataset.csv",
        _provenance(payload, seed),
        ["t", "y", "f_true", "blurred"],
        rows,
    )
    _write_json(out / "config.json", payload)
    print(f"wrote {out / 'dataset.csv'} and {out / 'config.json'}")
    return 0


def _read_dataset(path: Path) -> dict[str, np.ndarray]:
    if not path.exists():
        raise ValidationError(f"input file {path} does not exist")
    names: list[str] | None = None
    data: list[list[float]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if names is None:
            names = line.split(",")
            continue
        data.append([float(v) for v in line.split(",")])
    if names is None or not data:
        raise ValidationError(f"{path} has no data rows")
    arr = np.asarray(data)
    if arr.shape[1] != len(names):
        raise ValidationError(f"{path}: ragged rows")
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
    return KernelSpec(fourier=fourier, dip=None)


def _signed(index: int, n: int) -> int:
    return index - n if index > n // 2 else index


def cmd_estimate(args) -> int:
    seed = _resolve_seed(args)
    out = _out_dir(args)
    table = _read_dataset(Path(args.input))
    for col in ("t", "y"):
        if col not in table:
            raise ValidationError(f"dataset {args.input} needs at least columns t,y")
    y = table["y"]
    n = y.shape[0]
    if n < 32 or (n & (n - 1)) != 0:
        raise ValidationError(f"dataset length must be a power of two >= 32, got {n}")

    if args.kernel_file is not None:
        kernel = _read_kernel_file(Path(args.kernel_file), n)
    else:
        kernel = gamma_kernel(n, shape=args.nu, scale=args.kernel_scale)
    problem = DeconvolutionProblem(observations=y, kernel=kernel, alpha=args.alpha)

    method = args.method
    smoothing_spec = args.xi if method == "lrd" else args.eta
    alpha_eff = args.alpha if method == "lrd" else 1.0
    smoothing = resolve_smoothing(smoothing_spec, alpha_eff)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    report = run_estimator(
        problem, method, smoothing, j1_override=args.j1, j0=args.j0, rng=rng
    )

    payload = {
        "input": str(args.input),
        "method": method,
        "smoothing": str(smoothing_spec),
        "alpha": args.alpha,
        "j0": args.j0,
        "j1": args.j1,
        "seed": seed,
    }
    columns = ["t", "f_hat"]
    series = [table["t"], report.estimate]
    if "f_true" in table:
        columns.append("f_true")
        series.append(table["f_true"])
    columns.append("y")
    series.append(y)
    _write_csv(out / "estimate.csv", _provenance(payload, seed), columns, zip(*series))
    report_payload = report.as_dict()
    report_payload["provenance"] = _provenance_dict(payload, seed)
    _write_json(out / "report.json", report_payload)
    print(
        f"method={method} sigma_hat={report.sigma_hat:.6g} "
        f"j1={report.fine_level_used} kept={sum(report.kept_count.values())}"
    )
    return 0


def _render_table_dicts(results: list[dict]) -> str:
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


def _render_table(results) -> str:
    return _render_table_dicts([r.as_dict() for r in results])


def cmd_benchmark(args) -> int:
    n = _check_n(args.n)
    seed = _resolve_seed(args)
    out = _out_dir(args)
    alphas = [float(a) for a in args.alpha_grid.split(",") if a]
    if not alphas:
        raise ValidationError("--alpha-grid must list at least one alpha")
    methods = tuple(args.methods.split(","))
    smoothing = tuple(args.smoothing.split(","))
    if len(methods) != len(smoothing):
        raise ValidationError("--methods and --smoothing must have the same length")

    results = []
    for alpha in alphas:
        config = ExperimentConfig(
            signal=args.signal,
            n=n,
            alpha=alpha,
            nu=args.nu,
            snr_db=args.snr,
            methods=methods,
            smoothing=smoothing,
            replications=args.replications,
            seed=seed,
            noise_kind=args.noise_kind,
            kernel_scale=args.kernel_scale,
        )
        results.append(run_benchmark(config, threads=args.threads))

    payload = {
        "signal": args.signal,
        "n": n,
        "alpha_grid": alphas,
        "nu": args.nu,
        "snr_db": args.snr,
        "methods": list(methods),
        "smoothing": list(smoothing),
        "replications": args.replications,
        "seed": seed,
        "noise_kind": args.noise_kind,
    }
    rows = []
    for res in results:
        for m in res.methods:
            rows.append(
                [
                    args.signal,
                    m.method,
                    m.smoothing_spec,
                    res.config.alpha,
                    args.snr,
                    m.mean_mse,
                    m.se,
                    m.typical_fine_level,
                ]
            )
    _write_csv(
        out / "results.csv",
        _provenance(payload, seed),
        ["signal", "method", "smoothing", "alpha", "snr_db", "mean_mse", "se", "typical_j1"],
        rows,
    )
    _write_json(
        out / "results.json",
        {
            "provenance": _provenance_dict(payload, seed),
            "results": [r.as_dict() for r in results],
        },
    )
    text = _render_table(results)
    (out / "table.txt").write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return 0


def cmd_table(args) -> int:
    path = Path(args.results)
    if not path.exists():
        raise ValidationError(f"results file {path} does not exist")
    payload = json.loads(path.read_text(encoding="utf-8"))
    results = payload.get("results")
    if not results:
        raise ValidationError(f"{path} holds no benchmark results")
    text = _render_table_dicts(results)
    if args.out != ".":
        out = _out_dir(args)
        (out / "table.txt").write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return 0


def cmd_rates(args) -> int:
    seed = _resolve_seed(args)
    out = _out_dir(args)
    n_grid = [int(v) for v in args.n_grid.split(",") if v]
    for n in n_grid:
        _check_n(n)
    result = run_rate_experiment(
        args.signal,
        args.method,
        args.alpha,
        args.nu,
        n_grid,
        args.replications,
        smoothing=args.xi if args.method == "lrd" else args.eta,
        snr_db=args.snr,
        seed=seed,
        noise_kind=args.noise_kind,
        threads=args.threads,
    )
    payload = {
        "signal": args.signal,
        "method": args.method,
        "alpha": args.alpha,
        "nu": args.nu,
        "n_grid": n_grid,
        "replications": args.replications,
        "snr_db": args.snr,
        "seed": seed,
    }
    rows = zip(result.n_grid, result.mean_mse)
    _write_csv(out / "rates.csv", _provenance(payload, seed), ["n", "mean_mse"], rows)
    summary = result.as_dict()
    summary["provenance"] = _provenance_dict(payload, seed)
    _write_json(out / "rates.json", summary)
    print(
        f"slope={result.slope:.4f} theoretical_exponent={result.theoretical_exponent:.4f}"
    )
    return 0


def cmd_noise(args) -> int:
    seed = _resolve_seed(args)
    out = _out_dir(args)
    model = NoiseModel(alpha=args.alpha, kind=args.kind, seed=seed)
    sample = model.sample(args.n)
    payload = {"kind": args.kind, "alpha": args.alpha, "n": args.n, "seed": seed}
    _write_csv(out / "noise.csv", _provenance(payload, seed), ["value"], ([v] for v in sample))
    print(f"wrote {out / 'noise.csv'}")
    return 0


def cmd_stopping_trace(args) -> int:
    n = _check_n(args.n)
    seed = _resolve_seed(args)
    out = _out_dir(args)
    config = ExperimentConfig(
        signal=args.signal,
        n=n,
        alpha=args.alpha,
        nu=args.nu,
        snr_db=args.snr,
        methods=("lrd",),
        smoothing=("sqrtalpha",),
        replications=1,
        seed=seed,
        noise_kind=args.noise_kind,
        kernel_scale=args.kernel_scale,
    )
    problem, _ = generate_dataset(config, 0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    level, stopping = fine_level_details(problem, args.alpha, rng=rng)
    payload = config.as_dict()
    trace = stopping.threshold_trace
    _write_csv(
        out / "stopping_trace.csv",
        _provenance(payload, seed),
        ["ell", "magnitude", "cutoff"],
        ([int(row[0]), row[1], row[2]] for row in trace),
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
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the estimator on a dataset CSV")
    p.add_argument("input", help="dataset CSV with columns t,y[,f_true,...]")
    p.add_argument("--method", choices=("iid", "lrd"), default="iid")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.7)
    p.add_argument("--kernel-scale", type=float, default=0.25)
    p.add_argument(
        "--kernel-file",
        default=None,
        help="CSV with columns ell,re,im: one row per integer frequency |ell| < n/2",
    )
    p.add_argument("--xi", default="sqrt2alpha", help="LRD smoothing: sqrtalpha|sqrt2alpha|number")
    p.add_argument("--eta", default="sqrt6", help="IID smoothing constant")
    p.add_argument("--j0", type=int, default=3)
    p.add_argument("--j1", type=int, default=None, help="override the data-driven fine level")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo MSE benchmark")
    _add_model_flags(p)
    p.add_argument("--alpha-grid", default="1,0.8,0.6,0.4,0.2")
    p.add_argument("--methods", default="iid,lrd,lrd")
    p.add_argument("--smoothing", default="sqrt6,sqrtalpha,sqrt2alpha")
    p.add_argument("--replications", type=int, default=64)
    p.add_argument("--threads", type=int, default=1, help="replication threads (GIL-bound)")
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("table", help="re-render a benchmark results JSON as text")
    p.add_argument("results", help="results.json produced by the benchmark command")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("rates", help="rate-of-convergence experiment")
    _add_model_flags(p)
    p.add_argument("--method", choices=("iid", "lrd"), default="lrd")
    p.add_argument("--xi", default="sqrt2alpha")
    p.add_argument("--eta", default="sqrt6")
    p.add_argument("--n-grid", default="1024,2048,4096,8192,16384")
    p.add_argument("--replications", type=int, default=32)
    p.add_argument("--threads", type=int, default=1, help="replication threads (GIL-bound)")
    _add_common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("noise", help="dump a noise sample as CSV")
    p.add_argument("--kind", choices=("fgn", "farima"), default="farima")
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--n", type=int, default=4096)
    _add_common(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("stopping-trace", help="stopping-rule diagnostic trace")
    _add_model_flags(p)
    _add_common(p)
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
