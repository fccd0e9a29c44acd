import argparse
import json
import os
import re
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

    def test_utf8_bom_dataset_reads_as_plain(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a BOM; unchecked, the first
        # header field read "\ufefft" and the dataset was refused for want of a t column
        dataset = self._simulate(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
        for path, out in ((dataset, "plain"), (bom, "bom")):
            assert run_cli(["estimate", path, "--seed", 5, "--out", tmp_path / out]) == 0
        assert read_csv(tmp_path / "bom" / "estimate.csv") == read_csv(
            tmp_path / "plain" / "estimate.csv"
        )

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

    def test_j1_override_too_fine_writes_no_estimate(self, tmp_path, capsys):
        dataset = self._simulate(tmp_path)
        out = tmp_path / "est"
        assert run_cli(["estimate", dataset, "--j1", 11, "--seed", 5, "--out", out]) == 3
        assert (
            "error: fine level j1=11 too large for n=1024: need j1 <= log2(n)-2 "
            "so all band frequencies stay below the Nyquist range"
        ) in capsys.readouterr().err
        assert not (out / "estimate.csv").exists()

    def test_j1_override_too_fine_creates_no_out(self, tmp_path, capsys):
        # the estimator's level check runs before --out is created
        run_cli(["simulate", "--signal", "cusp", "--n", 256, "--seed", 3, "--out", tmp_path])
        out = tmp_path / "est"
        code = run_cli(["estimate", tmp_path / "dataset.csv", "--j1", 11, "--seed", 5,
                        "--out", out])
        assert code == 3
        assert "fine level j1=11 too large for n=256" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_smoothing_names_its_flag(self, tmp_path, capsys):
        dataset = self._simulate(tmp_path)
        for method, flag in (("lrd", "--xi"), ("iid", "--eta")):
            out = tmp_path / method
            code = run_cli(["estimate", dataset, "--method", method, "--alpha", "0.5",
                            flag, "bogus", "--seed", 5, "--out", out])
            assert code == 3
            assert f"error: {flag}: unknown smoothing spec 'bogus'" in capsys.readouterr().err
            assert not out.exists()

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

    def test_ragged_row_is_validation_error(self, tmp_path, capsys):
        # a short row and a non-numeric field both name their line
        for name, text, message in (
            ("ragged.csv", "# comment\nt,y\n0,1\n0.5\n", "line 4: 1 fields, the header has 2"),
            ("text.csv", "t,y\n0.0,1.0\n0.0,abc1.49\n",
             "line 3: could not convert string to float: 'abc1.49'"),
        ):
            dataset = tmp_path / name
            dataset.write_text(text)
            code = run_cli(["estimate", dataset, "--seed", 5, "--out", tmp_path / "est"])
            assert code == 3
            assert f"{dataset} {message}" in capsys.readouterr().err
            assert not (tmp_path / "est" / "estimate.csv").exists()

    @pytest.mark.parametrize("text, kernel, message", [
        ("# comment\nt,y\n", None, "{dataset} has no data rows"),
        ("t,x\n0,1\n", None, "dataset {dataset} needs at least columns t,y"),
        (None, "ell,re\n0,1\n", "kernel table {kernel} needs columns ell,re,im"),
    ], ids=["header-only", "no-y-column", "kernel-without-im"])
    def test_input_without_its_columns_or_rows_is_named(
        self, tmp_path, capsys, text, kernel, message
    ):
        dataset = self._simulate(tmp_path)
        argv = ["estimate", dataset, "--seed", 5, "--out", tmp_path / "est"]
        if text is not None:
            dataset.write_text(text)
        if kernel is not None:
            (tmp_path / "kernel.csv").write_text(kernel)
            argv += ["--kernel-file", tmp_path / "kernel.csv"]
        assert run_cli(argv) == 3
        message = message.format(dataset=dataset, kernel=tmp_path / "kernel.csv")
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

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

    def test_kernel_file_out_of_range_ell_rejected(self, tmp_path, capsys):
        # frequency 0 left out and a 1e30 row added: the row must not be read
        # as frequency 0
        ells = [e for e in range(-511, 512) if e] + [1e30]
        code = self._estimate_with(tmp_path, self._kernel_file(tmp_path, ells))
        assert code == 3
        assert "ell=1e+30 is out of range" in capsys.readouterr().err
        assert not (tmp_path / "kf").exists()

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

    def test_kernel_file_subnormal_coefficient_rejected(self, tmp_path, capsys):
        # K_hat[+-20] = 1e-320 would overflow Y_hat / K_hat: exit 0 with every f_hat NaN
        from lrdwaved.signals import gamma_kernel

        run_cli(["simulate", "--signal", "cusp", "--n", 1024, "--alpha", 0.6, "--seed", 0,
                 "--out", tmp_path])
        fourier = gamma_kernel(1024).fourier.copy()
        fourier[[20, -20]] = 1e-320
        ells = range(-511, 512)
        rows = [f"{ell},{float(c.real)!r},{float(c.imag)!r}" for ell, c in zip(ells, fourier[ells])]
        (tmp_path / "kernel.csv").write_text("\n".join(["ell,re,im"] + rows) + "\n")
        code = run_cli(["estimate", tmp_path / "dataset.csv", "--kernel-file",
                        tmp_path / "kernel.csv", "--method", "iid", "--alpha", 0.6,
                        "--j1", 5, "--out", tmp_path / "kf"])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"kernel Fourier coefficient vanishes at frequency -?20 ", err), err
        assert not (tmp_path / "kf").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the input
    def test_overflowing_observations_rejected(self, tmp_path, capsys):
        # y scaled by 3e305 is finite, and so is its sigma_hat (2.79e304), but its
        # spectrum overflows at frequency 0: exit 0 with every f_hat NaN
        run_cli(["simulate", "--signal", "cusp", "--n", 1024, "--alpha", 0.6, "--seed", 0,
                 "--out", tmp_path])
        dataset = tmp_path / "dataset.csv"
        lines = dataset.read_text().splitlines()
        head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        col = lines[head].split(",").index("y")
        for i in range(head + 1, len(lines)):
            row = lines[i].split(",")
            row[col] = repr(float(row[col]) * 3e305)
            lines[i] = ",".join(row)
        dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "est"
        code = run_cli(["estimate", dataset, "--method", "iid", "--alpha", 0.6, "--j1", 5,
                        "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: deconvolved coefficients at scale level 3 are not finite" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("payload, message", [
        (None, "results file {path} does not exist"),
        ({"provenance": {}, "results": []}, "{path} holds no benchmark results"),
        ([], "{path} is not a benchmark results file (AttributeError"),
        ({"results": [{"config": {}}]}, "{path} is not a benchmark results file (KeyError"),
        ({"results": "abc"}, "{path} is not a benchmark results file (TypeError"),
    ], ids=["missing", "no-results", "top-level-list", "no-alpha", "results-string"])
    def test_table_without_results_is_validation_error(self, tmp_path, capsys, payload, message):
        path = tmp_path / "results.json"
        if payload is not None:
            path.write_text(json.dumps(payload))
        assert run_cli(["table", path, "--out", tmp_path / "re"]) == 3
        assert f"error: {message.format(path=path)}" in capsys.readouterr().err
        assert not (tmp_path / "re").exists()

    def test_unknown_method_is_validation_error(self, tmp_path, capsys):
        code = run_cli(["benchmark", "--signal", "cusp", "--n", 512, "--alpha-grid", "1",
                        "--methods", "iid,bogus", "--smoothing", "sqrt6,sqrt6",
                        "--replications", 2, "--seed", 1, "--out", tmp_path])
        assert code == 3
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()

    def test_repeated_alpha_is_validation_error(self, tmp_path, capsys):
        # also a non-numeric alpha and an unknown smoothing: each exits 3
        # before --out is created
        for i, (flags, message) in enumerate((
            (["--alpha-grid", "1,0.6,1"], "--alpha-grid lists alpha=1 more than once"),
            (["--alpha-grid", "1,x"], "--alpha-grid: could not convert string to float: 'x'"),
            (["--alpha-grid", ","], "--alpha-grid must list at least one alpha"),
            (["--alpha-grid", "1", "--methods", "lrd", "--smoothing", "bogus"],
             "--smoothing: unknown smoothing spec 'bogus'"),
            (["--alpha-grid", "1", "--methods", "iid", "--smoothing", "-1"],
             "--smoothing: smoothing must be positive, got -1.0"),
        )):
            out = tmp_path / str(i)
            code = run_cli(["benchmark", "--signal", "cusp", "--n", 512, *flags,
                            "--replications", 2, "--seed", 1, "--out", out])
            assert code == 3
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("spec", ["nan", "inf", "-inf"])
    def test_non_finite_smoothing_is_validation_error(self, tmp_path, capsys, spec):
        # a NaN smoothing once wrote an IID row from keep-everything thresholds
        out = tmp_path / "bench"
        code = run_cli(["benchmark", "--signal", "cusp", "--n", 256,
                        f"--smoothing={spec},sqrtalpha,sqrt2alpha", "--replications", 2,
                        "--seed", 1, "--out", out])
        assert code == 3
        assert (f"error: --smoothing: smoothing must be finite, got {float(spec)}"
                in capsys.readouterr().err)
        assert not out.exists()
        code = run_cli(["rates", "--signal", "cusp", "--n-grid", "64,128", f"--xi={spec}",
                        "--replications", 2, "--seed", 1, "--out", out])
        assert code == 3
        message = f"error: --xi: smoothing must be finite, got {float(spec)}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_n_is_validation_error(self, tmp_path, capsys):
        code = run_cli(["rates", "--signal", "cusp", "--n-grid", "256,256,512",
                        "--replications", 2, "--seed", 1, "--out", tmp_path])
        assert code == 3
        assert "--n-grid lists n=256 more than once" in capsys.readouterr().err
        assert not (tmp_path / "rates.csv").exists()

    def test_bad_n_grid_entry_names_n_grid(self, tmp_path, capsys):
        for grid, message in (
            ("100,256", "--n-grid entry must be a power of two >= 32, got 100"),
            ("64,abc", "--n-grid: invalid literal for int() with base 10: 'abc'"),
            (",", "--n-grid must list at least one n"),
        ):
            code = run_cli(["rates", "--signal", "cusp", "--n-grid", grid,
                            "--replications", 2, "--seed", 1, "--out", tmp_path])
            assert code == 3
            assert f"error: {message}" in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    def test_unknown_rates_smoothing_creates_nothing(self, tmp_path, capsys):
        # the message names the flag the method reads
        for method, flag in (("lrd", "--xi"), ("iid", "--eta")):
            out = tmp_path / method
            code = run_cli(["rates", "--signal", "cusp", "--n-grid", "64,128", "--method", method,
                            flag, "bogus", "--replications", 2, "--seed", 1, "--out", out])
            assert code == 3
            assert f"error: {flag}: unknown smoothing spec 'bogus'" in capsys.readouterr().err
            assert not out.exists()

    def test_rates_seed_past_the_last_grid_seed_names_its_source(
        self, tmp_path, capsys, monkeypatch
    ):
        # grid entry i runs at seed + i, so 2**64 - 1 leaves no seed for the second
        top = 2**64 - 1
        command = ["rates", "--signal", "cusp", "--n-grid", "64,128", "--replications", 2]
        for source, seed_flags in (("--seed", ["--seed", top]), ("$LRDWAVED_SEED", [])):
            monkeypatch.setenv("LRDWAVED_SEED", str(top))
            out = tmp_path / source
            assert run_cli(command + seed_flags + ["--out", out]) == 3
            assert (
                f"error: {source}: seed must be an integer in [0, 2**64 - 1) "
                f"to give 2 consecutive seeds, got {top}"
            ) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["rates", "--signal", "cusp", "--n-grid", "64,128", "--alpha", 1.5],
         "alpha must lie in (0, 1], got 1.5"),
        (["rates", "--signal", "cusp", "--n-grid", "64,128", "--nu", 2],
         "nu must lie in (0, 1], got 2.0"),
        (["rates", "--signal", "cusp", "--n-grid", "64,128", "--replications", 0],
         "replications must be at least 1, got 0"),
        (["benchmark", "--signal", "cusp", "--n", 64, "--alpha-grid", "1", "--nu", 2],
         "nu must lie in (0, 1], got 2.0"),
        (["benchmark", "--signal", "cusp", "--n", 64, "--alpha-grid", "1", "--kernel-scale", -1],
         "kernel_scale must be positive, got -1.0"),
        (["benchmark", "--signal", "cusp", "--n", 64, "--alpha-grid", "1", "--snr", "nan"],
         "snr_db must be finite, got nan"),
        (["simulate", "--signal", "cusp", "--n", 64, "--nu", 2], "nu must lie in (0, 1], got 2.0"),
        (["stopping-trace", "--signal", "cusp", "--n", 64, "--nu", 2],
         "nu must lie in (0, 1], got 2.0"),
        (["noise", "--n", 64, "--alpha", 1.5], "alpha must lie in (0, 1], got 1.5"),
        (["estimate", "<dataset>", "--nu", 2], "nu must lie in (0, 1], got 2.0"),
        (["estimate", "<dataset>", "--kernel-scale", -1],
         "kernel_scale must be positive, got -1.0"),
        # the kernel file is not read: the flag check comes first
        (["estimate", "<dataset>", "--kernel-file", "<dataset>", "--nu", 0.3],
         "--nu does not apply with --kernel-file"),
        (["estimate", "<dataset>", "--kernel-file", "<dataset>", "--kernel-scale", 0.25],
         "--kernel-scale does not apply with --kernel-file"),
    ])
    def test_bad_model_flag_names_it_and_creates_nothing(self, tmp_path, capsys, argv, message):
        if "<dataset>" in argv:
            run_cli(["simulate", "--signal", "cusp", "--n", 64, "--out", tmp_path / "data"])
            argv = [tmp_path / "data" / "dataset.csv" if a == "<dataset>" else a for a in argv]
        out = tmp_path / "out"
        assert run_cli(argv + ["--seed", 1, "--out", out]) == 3
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["benchmark", "--n", 512, "--alpha-grid", "1"],
                                         ["rates", "--n-grid", "256,512"]])
    def test_threads_below_one_is_validation_error(self, tmp_path, capsys, command):
        code = run_cli(command + ["--signal", "cusp", "--replications", 2,
                                  "--threads", -3, "--seed", 1, "--out", tmp_path])
        assert code == 3
        assert "--threads must be at least 1, got -3" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_stream_domain_names_the_flag(self, tmp_path, capsys, seed):
        code = run_cli(["noise", "--n", 32, "--seed", seed, "--out", tmp_path])
        assert code == 3
        assert f"error: --seed: seed must be an integer in [0, 2**64), got {seed}" in (
            capsys.readouterr().err
        )
        assert not any(tmp_path.iterdir())

    def test_env_seed_outside_the_stream_domain_names_the_variable(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("LRDWAVED_SEED", "-5")
        assert run_cli(["noise", "--n", 32, "--out", tmp_path]) == 3
        assert "error: $LRDWAVED_SEED: seed must be" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_env_seed_not_an_integer_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LRDWAVED_SEED", "1.5")
        assert run_cli(["noise", "--n", 32, "--out", tmp_path]) == 3
        assert "error: LRDWAVED_SEED must be an integer, got '1.5'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_out_naming_a_file_is_a_runtime_failure(self, tmp_path, capsys):
        import errno
        import os

        path = tmp_path / "taken"
        path.write_text("")
        assert run_cli(["noise", "--n", 32, "--seed", 1, "--out", path]) == 4
        expected = FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))
        assert f"error: {expected}" in capsys.readouterr().err
        assert path.read_text() == ""

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

    def test_level_is_the_one_method_benchmark_level(self, tmp_path, capsys):
        # the trace draws from replication 0, method 0 of run_benchmark's
        # streams; at Lidar 20 dB, alpha=0.4, the level moves with the stream
        from lrdwaved.bench import run_benchmark
        from lrdwaved.signals import ExperimentConfig

        for seed in range(10):
            code = run_cli(["stopping-trace", "--signal", "lidar", "--n", 1024, "--alpha", 0.4,
                            "--seed", seed, "--out", tmp_path])
            assert code == 0
            printed = dict(item.split("=") for item in capsys.readouterr().out.split())
            config = ExperimentConfig("lidar", n=1024, alpha=0.4, methods=("lrd",),
                                      smoothing=("sqrtalpha",), replications=1, seed=seed)
            [method] = run_benchmark(config).methods
            assert int(printed["level"]) == method.fine_levels[0], seed


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
        # the child imports the package the tests import, installed or not
        import lrdwaved

        src = str(Path(lrdwaved.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lrdwaved.cli", "noise", "--n", "16",
             "--seed", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0


def config_hash(out: Path) -> str:
    """The config hash of the one CSV in ``out``, checked against its JSON provenance."""
    [csv] = out.glob("*.csv")
    line = csv.read_text().splitlines()[1]
    assert line.startswith("# config_hash=")
    digest = line.split("=", 1)[1]
    for path in out.glob("*.json"):
        prov = json.loads(path.read_text()).get("provenance")
        assert prov is None or prov["config_hash"] == digest
    return digest


DATASET, KERNEL = "<dataset>", "<kernel>"
BENCHMARK = ["benchmark", "--signal", "cusp", "--n", 512, "--alpha-grid", "0.6",
             "--replications", 2]
RATES = ["rates", "--signal", "cusp", "--alpha", 0.6, "--n-grid", "256,512",
         "--replications", 2]
ESTIMATE = ["estimate", DATASET, "--method", "lrd", "--alpha", 0.5]
SIMULATE = ["simulate", "--signal", "cusp", "--n", 512]


class TestProvenance:
    @pytest.fixture
    def files(self, tmp_path):
        """A 512-point dataset and a kernel table that differs from the default kernel."""
        from lrdwaved.signals import gamma_kernel

        run_cli(SIMULATE + ["--alpha", 0.5, "--seed", 3, "--out", tmp_path / "data"])
        fourier = gamma_kernel(512, shape=0.8).fourier
        rows = [f"{ell},{float(fourier[ell].real)!r},{float(fourier[ell].imag)!r}"
                for ell in range(-255, 256)]
        kernel = tmp_path / "data" / "kernel.csv"
        kernel.write_text("\n".join(["ell,re,im"] + rows) + "\n")
        return {DATASET: tmp_path / "data" / "dataset.csv", KERNEL: kernel}

    @pytest.mark.parametrize(
        "base, change",
        [
            (BENCHMARK, ["--kernel-scale", 0.3]),
            (RATES, ["--xi", "sqrtalpha"]),
            (RATES, ["--noise-kind", "fgn"]),
            (ESTIMATE, ["--nu", 0.8]),
            (ESTIMATE, ["--kernel-scale", 0.3]),
            (ESTIMATE, ["--kernel-file", KERNEL]),
            (SIMULATE, ["--snr", 30]),
        ],
        ids=["benchmark-kernel-scale", "rates-xi", "rates-noise-kind", "estimate-nu",
             "estimate-kernel-scale", "estimate-kernel-file", "simulate-snr"],
    )
    def test_output_affecting_flag_changes_the_hash(self, tmp_path, files, base, change):
        base = [files.get(a, a) for a in base]
        assert run_cli(base + ["--seed", 1, "--out", tmp_path / "a"]) == 0
        change = [files.get(a, a) for a in change]
        assert run_cli(base + change + ["--seed", 1, "--out", tmp_path / "b"]) == 0
        [csv] = (tmp_path / "a").glob("*.csv")
        assert read_csv(csv) != read_csv(tmp_path / "b" / csv.name)
        assert config_hash(tmp_path / "a") != config_hash(tmp_path / "b")

    # config hashes of default-flag runs at seed 0 (no --seed, no $LRDWAVED_SEED);
    # a changed model default, flag dest or type changes them
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["simulate", "--signal", "cusp", "--n", 64], "376b3e439696"),
            (["benchmark", "--signal", "cusp", "--n", 64, "--replications", 2], "e3414e86af78"),
            (["rates", "--signal", "cusp", "--n-grid", "32,64", "--replications", 2],
             "52301e66403b"),
            (["stopping-trace", "--signal", "cusp", "--n", 64], "a7e0f604bf54"),
            (["noise", "--n", 64], "02f3539c294e"),
            (["estimate", DATASET], "e0404bf95c27"),
            (["estimate", DATASET, "--nu", 0.7], "e0404bf95c27"),
        ],
        ids=["simulate", "benchmark", "rates", "stopping-trace", "noise", "estimate",
             "estimate-nu"],
    )
    def test_default_flag_hash_is_pinned(self, tmp_path, monkeypatch, argv, digest):
        monkeypatch.delenv("LRDWAVED_SEED", raising=False)
        # a fixed 64-point table written without the package, so its bytes never change
        dataset = tmp_path / "dataset.csv"
        rows = [f"{i / 64!r},{(i * 37 % 64) / 64!r}" for i in range(64)]
        dataset.write_text("\n".join(["t,y"] + rows) + "\n")
        argv = [dataset if a == DATASET else a for a in argv]
        assert run_cli(argv + ["--out", tmp_path / "out"]) == 0
        assert config_hash(tmp_path / "out") == digest

    @pytest.mark.parametrize("flag", [DATASET, KERNEL])
    def test_input_file_is_hashed_by_its_bytes(self, tmp_path, files, flag):
        # two files written in turn to one path; the outputs and hashes differ
        argv = ESTIMATE + ["--kernel-file", KERNEL, "--seed", 1, "--out"]
        argv = [files.get(a, a) for a in argv]
        assert run_cli(argv + [tmp_path / "a"]) == 0
        if flag == DATASET:
            run_cli(SIMULATE + ["--alpha", 0.5, "--seed", 4, "--out", files[DATASET].parent])
        else:
            header, *rows = files[KERNEL].read_text().splitlines()
            rows = [[float(v) for v in row.split(",")] for row in rows]
            rows = [f"{int(ell)},{2.0 * re!r},{2.0 * im!r}" for ell, re, im in rows]
            files[KERNEL].write_text("\n".join([header] + rows) + "\n")
        assert run_cli(argv + [tmp_path / "b"]) == 0
        [csv] = (tmp_path / "a").glob("*.csv")
        assert read_csv(csv) != read_csv(tmp_path / "b" / csv.name)
        assert config_hash(tmp_path / "a") != config_hash(tmp_path / "b")

    @pytest.mark.parametrize(
        "command",
        [BENCHMARK + ["--threads"], RATES + ["--threads"], ESTIMATE, SIMULATE,
         ["noise", "--n", 64], ["stopping-trace", "--signal", "cusp", "--n", 512],
         ["table", "<results>"]],
        ids=["benchmark", "rates", "estimate", "simulate", "noise", "stopping-trace", "table"],
    )
    def test_out_and_threads_change_no_byte(self, tmp_path, files, command):
        run_cli(BENCHMARK + ["--seed", 1, "--out", tmp_path / "bench"])
        files["<results>"] = tmp_path / "bench" / "results.json"
        command = [files.get(a, a) for a in command]
        for name, threads in (("a", 1), ("b", 2)):
            if command[-1] == "--threads":
                argv = command + [threads, "--seed", 1]
            else:
                argv = command if command[0] == "table" else command + ["--seed", 1]
            assert run_cli(argv + ["--out", tmp_path / name]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestDeclaredFlags:
    @pytest.mark.parametrize(
        "argv",
        [["rates", "--signal", "cusp", "--n", 512],
         ["rates", "--signal", "cusp", "--kernel-scale", 0.3],
         ["table", "results.json", "--seed", 1]],
        ids=["rates-n", "rates-kernel-scale", "table-seed"],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", tmp_path])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_model_flag_defaults_are_the_config_fields(self):
        # every flag that sets an ExperimentConfig field defaults to that field's default
        from dataclasses import fields

        from lrdwaved.signals import ExperimentConfig

        field_of = {"--n": "n", "--alpha": "alpha", "--nu": "nu", "--kernel-scale": "kernel_scale",
                    "--snr": "snr_db", "--noise-kind": "noise_kind", "--kind": "noise_kind",
                    "--methods": "methods", "--smoothing": "smoothing",
                    "--replications": "replications"}
        # estimate marks --nu and --kernel-scale not given with None; noise draws at
        # alpha 0.6 and rates runs 32 replications per grid size
        own = {("estimate", "--nu"): None, ("estimate", "--kernel-scale"): None,
               ("noise", "--alpha"): 0.6, ("rates", "--replications"): 32}
        defaults = {f.name: ",".join(f.default) if isinstance(f.default, tuple) else f.default
                    for f in fields(ExperimentConfig)}
        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        checked = set()
        for command, parser in sub.choices.items():
            for action in parser._actions:
                for flag in set(action.option_strings) & set(field_of):
                    expected = own.get((command, flag), defaults[field_of[flag]])
                    assert action.default == expected, (command, flag)
                    checked.add(flag)
        assert checked == set(field_of)

    def test_noise_kind_choices_are_the_noise_kinds(self):
        # --noise-kind of every model command and noise --kind offer NoiseModel's kinds
        from lrdwaved.noise import NOISE_KINDS

        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        seen = set()
        for command, parser in sub.choices.items():
            for action in parser._actions:
                for flag in {"--noise-kind", "--kind"} & set(action.option_strings):
                    assert tuple(action.choices) == NOISE_KINDS, (command, flag)
                    seen.add((command, flag))
        assert ("noise", "--kind") in seen and ("benchmark", "--noise-kind") in seen

    def test_benchmark_alpha_is_read_as_alpha_grid(self):
        args = build_parser().parse_args(["benchmark", "--signal", "cusp", "--alpha", "0.6"])
        assert args.alpha_grid == "0.6" and not hasattr(args, "alpha")

    def test_table_out_dot_writes_the_working_directory(self, tmp_path, monkeypatch):
        run_cli(BENCHMARK + ["--seed", 1, "--out", tmp_path / "bench"])
        results = tmp_path / "bench" / "results.json"
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run_cli(["table", results]) == 0
        assert not any(cwd.iterdir())
        assert run_cli(["table", results, "--out", "."]) == 0
        assert (cwd / "table.txt").read_text() == (tmp_path / "bench" / "table.txt").read_text()
