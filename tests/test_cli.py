import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrdwaved.cli import build_parser, main


def run_cli(args):
    return main([str(a) for a in args])


def read_csv(path: Path):
    names = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        if names is None:
            names = line.split(",")
            continue
        rows.append(line.split(","))
    return names, rows


class TestSimulate:
    def test_writes_dataset_and_config(self, tmp_path):
        code = run_cli(
            ["simulate", "--signal", "cusp", "--n", 256, "--alpha", "0.5",
             "--snr", 20, "--seed", 7, "--out", tmp_path]
        )
        assert code == 0
        names, rows = read_csv(tmp_path / "dataset.csv")
        assert names == ["t", "y", "f_true", "blurred"]
        assert len(rows) == 256
        config = json.loads((tmp_path / "config.json").read_text())
        assert config["signal"] == "cusp" and config["alpha"] == 0.5

    def test_provenance_header(self, tmp_path):
        run_cli(["simulate", "--signal", "lidar", "--n", 128, "--seed", 1, "--out", tmp_path])
        head = (tmp_path / "dataset.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# lrdwaved=")
        assert head[1].startswith("# config_hash=")
        assert head[2] == "# seed=1"

    def test_non_power_of_two_rejected(self, tmp_path, capsys):
        code = run_cli(["simulate", "--signal", "cusp", "--n", 1000, "--out", tmp_path])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_signal_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--n", 256, "--out", tmp_path])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--signal", "cusp", "--frobnicate", 1, "--out", tmp_path])
        assert exc.value.code == 2


class TestEstimate:
    def _simulate(self, tmp_path, **kw):
        args = ["simulate", "--signal", "cusp", "--n", 1024, "--alpha", "0.5",
                "--snr", 20, "--seed", 3, "--out", tmp_path]
        run_cli(args)
        return tmp_path / "dataset.csv"

    def test_estimate_outputs(self, tmp_path):
        dataset = self._simulate(tmp_path)
        code = run_cli(
            ["estimate", dataset, "--method", "lrd", "--alpha", "0.5",
             "--xi", "sqrt2alpha", "--seed", 5, "--out", tmp_path]
        )
        assert code == 0
        names, rows = read_csv(tmp_path / "estimate.csv")
        assert names == ["t", "f_hat", "f_true", "y"]
        assert len(rows) == 1024
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["method"] == "lrd"
        assert "sigma_hat" in report and "lambdas" in report
        prov = report["provenance"]
        assert prov["seed"] == 5 and "config_hash" in prov and "lrdwaved" in prov

    def test_lrd_level_not_above_iid(self, tmp_path):
        dataset = self._simulate(tmp_path)
        run_cli(["estimate", dataset, "--method", "lrd", "--alpha", "0.5",
                 "--seed", 5, "--out", tmp_path / "lrd"])
        run_cli(["estimate", dataset, "--method", "iid", "--alpha", "0.5",
                 "--seed", 5, "--out", tmp_path / "iid"])
        lrd = json.loads((tmp_path / "lrd" / "report.json").read_text())
        iid = json.loads((tmp_path / "iid" / "report.json").read_text())
        assert lrd["fine_level_used"] <= iid["fine_level_used"]

    def test_j1_override_echoed(self, tmp_path):
        dataset = self._simulate(tmp_path)
        code = run_cli(["estimate", dataset, "--j1", 4, "--seed", 5, "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fine_level_used"] == 4
        assert report["provenance"]["config"]["j1"] == 4

    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        code = run_cli(["estimate", tmp_path / "nope.csv", "--out", tmp_path])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_non_finite_observation_is_validation_error(self, tmp_path, capsys):
        dataset = self._simulate(tmp_path)
        lines = dataset.read_text().splitlines()
        head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        row = lines[head + 1].split(",")
        row[lines[head].split(",").index("y")] = "nan"
        lines[head + 1] = ",".join(row)
        dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "est"
        code = run_cli(["estimate", dataset, "--seed", 5, "--out", out])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not (out / "estimate.csv").exists()

    @staticmethod
    def _kernel_file(tmp_path, ells, n=1024, zero_beyond=None):
        """Write the built-in Gamma kernel's rows for ``ells`` as an ell,re,im table."""
        from lrdwaved.signals import gamma_kernel

        kernel = gamma_kernel(n)
        lines = ["ell,re,im"]
        for ell in ells:
            c = kernel.fourier[int(np.floor(ell)) % n]
            if zero_beyond is not None and abs(ell) > zero_beyond:
                c = 0.0j
            lines.append(f"{ell!r},{float(c.real)!r},{float(c.imag)!r}")
        kfile = tmp_path / "kernel.csv"
        kfile.write_text("\n".join(lines) + "\n")
        return kfile

    def _estimate_with(self, tmp_path, kfile):
        dataset = self._simulate(tmp_path)
        return run_cli(["estimate", dataset, "--kernel-file", kfile, "--seed", 5,
                        "--out", tmp_path / "kf"])

    def test_kernel_file_non_integer_ell_rejected(self, tmp_path, capsys):
        ells = [int(e) for e in range(-511, 512)] + [1.5]
        ells.remove(1)
        code = self._estimate_with(tmp_path, self._kernel_file(tmp_path, ells))
        assert code == 3
        assert "ell=1.5 is not an integer" in capsys.readouterr().err

    def test_kernel_file_duplicate_frequency_rejected(self, tmp_path, capsys):
        # 1029 wraps onto 5 mod 1024; the last row must not silently win
        ells = list(range(-511, 512)) + [1029]
        code = self._estimate_with(tmp_path, self._kernel_file(tmp_path, ells))
        assert code == 3
        assert "frequency 5 appears 2 times" in capsys.readouterr().err

    def test_kernel_file_missing_frequency_named(self, tmp_path, capsys):
        # only |l| <= 40 given: the rest used to read as K_hat = 0
        code = self._estimate_with(tmp_path, self._kernel_file(tmp_path, range(-40, 41)))
        assert code == 3
        err = capsys.readouterr().err
        assert "leaves frequency 41 unset" in err
        assert not (tmp_path / "kf" / "estimate.csv").exists()

    def test_kernel_file_explicit_zero_rows_allowed(self, tmp_path):
        kfile = self._kernel_file(tmp_path, range(-512, 512), zero_beyond=300)
        assert self._estimate_with(tmp_path, kfile) == 0

    def test_kernel_file(self, tmp_path):
        dataset = self._simulate(tmp_path)
        n = 1024
        kfile = self._kernel_file(tmp_path, range(-n // 2 + 1, n // 2), n)
        code = run_cli(["estimate", dataset, "--kernel-file", kfile, "--seed", 5,
                        "--out", tmp_path / "kf"])
        assert code == 0
        # the tabled kernel reproduces the built-in Gamma kernel run exactly
        run_cli(["estimate", dataset, "--seed", 5, "--out", tmp_path / "builtin"])
        a = json.loads((tmp_path / "kf" / "report.json").read_text())
        b = json.loads((tmp_path / "builtin" / "report.json").read_text())
        assert a["sigma_hat"] == b["sigma_hat"]
        assert a["fine_level_used"] == b["fine_level_used"]
        assert a["kept_count"] == b["kept_count"]


class TestBenchmarkCommand:
    def test_alpha_grid_columns(self, tmp_path):
        code = run_cli(
            ["benchmark", "--signal", "cusp", "--n", 512, "--alpha-grid", "1,0.6,0.2",
             "--replications", 3, "--seed", 1, "--threads", 1, "--out", tmp_path]
        )
        assert code == 0
        names, rows = read_csv(tmp_path / "results.csv")
        assert names == ["signal", "method", "smoothing", "alpha", "snr_db",
                         "mean_mse", "se", "typical_j1"]
        alphas = {row[3] for row in rows}
        assert len(alphas) == 3
        assert len(rows) == 9  # 3 methods x 3 alphas
        assert (tmp_path / "table.txt").exists()

    def test_table_subcommand_rerenders(self, tmp_path, capsys):
        run_cli(["benchmark", "--signal", "cusp", "--n", 512, "--alpha-grid", "1,0.6",
                 "--replications", 2, "--seed", 1, "--threads", 1, "--out", tmp_path])
        first = (tmp_path / "table.txt").read_text()
        capsys.readouterr()
        code = run_cli(["table", tmp_path / "results.json", "--out", tmp_path / "re"])
        assert code == 0
        assert capsys.readouterr().out.strip() == first.strip()
        assert (tmp_path / "re" / "table.txt").read_text() == first

    def test_threads_default_to_one(self):
        parser = build_parser()
        assert parser.parse_args(["benchmark", "--signal", "cusp"]).threads == 1
        assert parser.parse_args(["rates", "--signal", "cusp"]).threads == 1

    def test_deterministic_outputs(self, tmp_path):
        args = ["benchmark", "--signal", "cusp", "--n", 512, "--alpha-grid", "0.6",
                "--replications", 8, "--seed", 1, "--out"]
        run_cli(args + [tmp_path / "a", "--threads", 1])
        run_cli(args + [tmp_path / "b", "--threads", 4])
        for name in ("results.csv", "results.json", "table.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestNoiseCommand:
    def test_csv_format(self, tmp_path):
        code = run_cli(["noise", "--kind", "fgn", "--alpha", "0.4", "--n", 64,
                        "--seed", 9, "--out", tmp_path])
        assert code == 0
        names, rows = read_csv(tmp_path / "noise.csv")
        assert names == ["value"]
        assert len(rows) == 64

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LRDWAVED_SEED", "33")
        run_cli(["noise", "--n", 32, "--out", tmp_path / "a"])
        run_cli(["noise", "--n", 32, "--seed", 33, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "noise.csv").read_bytes() == (
            tmp_path / "b" / "noise.csv"
        ).read_bytes()


class TestStoppingTrace:
    def test_trace_columns(self, tmp_path):
        code = run_cli(["stopping-trace", "--signal", "cusp", "--n", 512,
                        "--alpha", "0.6", "--seed", 2, "--out", tmp_path])
        assert code == 0
        names, rows = read_csv(tmp_path / "stopping_trace.csv")
        assert names == ["ell", "magnitude", "cutoff"]
        assert len(rows) == 255  # frequencies 1..n/2-1


class TestRatesCommand:
    def test_rates_outputs(self, tmp_path):
        code = run_cli(["rates", "--signal", "cusp", "--method", "lrd", "--alpha", "1.0",
                        "--n-grid", "256,512,1024", "--replications", 3,
                        "--seed", 4, "--threads", 1, "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "rates.json").read_text())
        assert "slope" in payload and len(payload["mean_mse"]) == 3


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lrdwaved.cli", "noise", "--n", "16",
             "--seed", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
