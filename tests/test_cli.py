"""End-to-end tests of the command-line interface and CSV data handling."""

import io
import json
import math
import re

import numpy as np
import pytest

from hdsigntest import (
    DataFileError,
    ExperimentPlan,
    InvalidSpecError,
    matrix_to_csv,
    parse_matrix_csv,
    read_matrix_csv,
    write_matrix_csv,
)
from hdsigntest import cli, montecarlo
from hdsigntest.cli import build_parser, main
from hdsigntest.generators import MODEL_NAMES
from hdsigntest.statistics import ONE_SAMPLE_STATS, TWO_SAMPLE_STATS


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def sample_csvs(tmp_path):
    rng = np.random.default_rng(80)
    x = rng.standard_normal((12, 8))
    y = rng.standard_normal((14, 8)) + 0.3
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    write_matrix_csv(x, xp)
    write_matrix_csv(y, yp)
    return str(xp), str(yp), x, y


class TestCsvIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((9, 5)) * 1e3
        path = tmp_path / "m.csv"
        write_matrix_csv(x, path)
        assert np.array_equal(read_matrix_csv(path), x)

    def test_header_autodetect(self):
        text = "a,b,c\n1,2,3\n4,5,6\n"
        assert np.array_equal(parse_matrix_csv(text), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_ragged_row_context(self):
        rows = [",".join(["1.0"] * 96) for _ in range(20)]
        rows[16] = ",".join(["1.0"] * 95)
        with pytest.raises(DataFileError, match=r"row 17: expected 96 fields, found 95"):
            parse_matrix_csv("\n".join(rows))

    def test_non_numeric_cell_context(self):
        with pytest.raises(DataFileError, match=r"row 2, column 3"):
            parse_matrix_csv("1,2,3\n4,5,oops\n")

    def test_nan_cell_context(self):
        with pytest.raises(DataFileError, match=r"row 2, column 1: non-finite"):
            parse_matrix_csv("1,2,3\nnan,5,6\n")

    def test_empty_file(self):
        with pytest.raises(DataFileError):
            parse_matrix_csv("\n\n")

    def test_header_only(self):
        with pytest.raises(DataFileError, match="only a header line, no data rows$"):
            parse_matrix_csv("a,b,c\n")

    def test_byte_order_mark(self, tmp_path):
        # A UTF-8 byte-order mark does not make the first row a header, and
        # a header after one is still the only line skipped.
        rows = np.arange(10.0).reshape(5, 2)
        path = tmp_path / "bom.csv"
        for text, want in (("\ufeff" + matrix_to_csv(rows), rows),
                           ("\ufeffa,b\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]])):
            path.write_bytes(text.encode("utf-8"))
            assert np.array_equal(parse_matrix_csv(text), want)
            assert np.array_equal(read_matrix_csv(path), want)

    def test_undecodable_byte(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1.0,2.0\n3.0,4.\xe9\n")
        want = f"^{re.escape(str(path))}: byte offset 14: not UTF-8 text"
        with pytest.raises(DataFileError, match=want):
            read_matrix_csv(path)
        code, _, err = run_cli(["one-sample", "--x", str(path), "--stat", "cq1",
                                "--method", "asymptotic"])
        assert code == 3
        assert err.startswith(f"data error: {path}: byte offset 14")


class TestTwoSampleCommand:
    def test_json_schema(self, sample_csvs):
        xp, yp, _, _ = sample_csvs
        code, out, err = run_cli(
            ["two-sample", "--x", xp, "--y", yp, "--stat", "cq2",
             "--method", "asymptotic", "--format", "json"]
        )
        assert code == 0, err
        data = json.loads(out)
        for key in ("schema", "stat_kind", "statistic", "z", "p_value", "reject",
                    "alpha", "method", "n_resamples", "seed", "nuisance"):
            assert key in data
        assert data["schema"] == 1
        assert data["stat_kind"] == "cq2"
        assert set(data["nuisance"]) == {"tr1", "tr2", "tr12", "gamma",
                                         "sigma1_sq", "sigma2_sq"}

    def test_permutation_determinism(self, sample_csvs):
        xp, yp, _, _ = sample_csvs
        argv = ["two-sample", "--x", xp, "--y", yp, "--stat", "wmw",
                "--method", "permutation", "--perms", "200", "--seed", "7"]
        code_a, out_a, _ = run_cli(argv)
        code_b, out_b, _ = run_cli(argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_missing_file_is_data_error(self, tmp_path):
        code, _, err = run_cli(
            ["two-sample", "--x", str(tmp_path / "no.csv"), "--y", str(tmp_path / "no.csv"),
             "--stat", "cq2", "--method", "asymptotic"]
        )
        assert code == 3
        assert "data error" in err

    def test_ragged_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,5\n")
        good = tmp_path / "good.csv"
        write_matrix_csv(np.zeros((4, 3)), good)
        code, _, err = run_cli(
            ["two-sample", "--x", str(bad), "--y", str(good),
             "--stat", "cq2", "--method", "asymptotic"]
        )
        assert code == 3
        assert "expected 3 fields, found 2" in err

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_matrix_csv(np.random.default_rng(0).standard_normal((5, 3)), a)
        write_matrix_csv(np.random.default_rng(1).standard_normal((5, 4)), b)
        code, _, err = run_cli(
            ["two-sample", "--x", str(a), "--y", str(b),
             "--stat", "cq2", "--method", "asymptotic"]
        )
        assert code == 3
        assert "dimension" in err.lower()

    def test_csv_format(self, sample_csvs):
        xp, yp, _, _ = sample_csvs
        code, out, _ = run_cli(
            ["two-sample", "--x", xp, "--y", yp, "--stat", "cq2",
             "--method", "asymptotic", "--format", "csv"]
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("stat_kind,statistic,z,p_value,reject")

    def test_text_format(self, sample_csvs):
        xp, yp, _, _ = sample_csvs
        code, out, err = run_cli(
            ["two-sample", "--x", xp, "--y", yp, "--stat", "cq2",
             "--method", "asymptotic", "--alpha", "0.1", "--format", "text"]
        )
        assert code == 0, err
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "statistic cq2", "method", "z-score", "p-value", "reject at alpha=0.1"]
        code, out, err = run_cli(
            ["two-sample", "--x", xp, "--y", yp, "--stat", "wmw",
             "--method", "permutation", "--perms", "20", "--seed", "3",
             "--format", "text"]
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[1] == "method: permutation"
        assert not any(line.startswith("z-score") for line in lines)
        assert lines[-1] == "resamples: 20 (seed 3)"


class TestOneSampleCommand:
    def test_spatial_sign_stat(self, sample_csvs):
        xp, _, x, _ = sample_csvs
        code, out, _ = run_cli(
            ["one-sample", "--x", xp, "--stat", "s", "--method", "asymptotic"]
        )
        assert code == 0
        assert json.loads(out)["stat_kind"] == "s"

    def test_sr_needs_four_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_matrix_csv(np.random.default_rng(2).standard_normal((3, 4)), path)
        code, _, err = run_cli(
            ["one-sample", "--x", str(path), "--stat", "sr", "--method", "asymptotic"]
        )
        assert code == 3
        assert "at least 4" in err

    def test_signflip_determinism(self, sample_csvs):
        xp, _, _, _ = sample_csvs
        argv = ["one-sample", "--x", xp, "--stat", "cq1", "--method", "signflip",
                "--perms", "150", "--seed", "9"]
        _, out_a, _ = run_cli(argv)
        _, out_b, _ = run_cli(argv)
        assert out_a == out_b


class TestSimulateCommand:
    def test_fig1_grid_reduced_emits_ten_points(self, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "100:1.5,200:3,400:4.5,800:6,1600:7.5",
             "--tests", "wmw:asym,cq2:asym", "--reps", "5",
             "--seed", "3", "--out", str(out_path)]
        )
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "model,d,c,stat,method,rate,se"
        assert len(lines) == 11
        manifest = json.loads((tmp_path / "curves.csv.manifest.json").read_text())
        assert manifest["schema"] == 1
        assert len(manifest["points"]) == 10
        assert manifest["plan"]["base_seed"] == 3

    def test_zero_reps_is_usage_error(self, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "20:1", "--tests", "cq2:asym", "--reps", "0",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "usage error" in err

    def test_bad_grid_syntax(self, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "20-1", "--tests", "cq2:asym", "--reps", "2",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_grid_tokens(self, tmp_path):
        # An empty token is skipped; a point listed twice is refused by the
        # plan's grid rule, naming the point, before any replicate runs.
        out_path = tmp_path / "o.csv"
        code, out, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "100:1,", "--tests", "cq2:asym", "--reps", "2",
             "--out", str(out_path)]
        )
        assert (code, out) == (0, f"wrote 1 curve points to {out_path}\n"), err
        assert len(out_path.read_text().splitlines()) == 2
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "100:1,100:1", "--tests", "cq2:asym", "--reps", "2",
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert err.endswith("usage error: grid point (d=100, c=1.0) is listed twice\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("where", ["missing", "directory", "manifest"])
    def test_unwritable_out_is_usage_error(self, monkeypatch, tmp_path, where):
        # An --out whose plot CSV or manifest cannot be written is refused
        # before the study runs.
        calls = []
        monkeypatch.setattr(montecarlo, "_evaluate",
                            lambda *args: calls.append(args))
        out_path = {"missing": tmp_path / "missing" / "o.csv", "directory": tmp_path,
                    "manifest": tmp_path / "o.csv"}[where]
        if where == "manifest":
            (tmp_path / "o.csv.manifest.json").mkdir()
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "20:1", "--tests", "cq2:asym", "--reps", "2",
             "--out", str(out_path)]
        )
        assert code == 2
        assert err.startswith(f"usage error: --out {str(out_path)!r} cannot be written")
        assert calls == []

    @pytest.mark.parametrize("shift", ["inf", "nan", "1e400"])
    def test_nonfinite_grid_shift(self, shift, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", f"10:{shift}", "--tests", "cq2:asym", "--reps", "2",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "usage error" in err and "finite" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("shift", [math.inf, math.nan])
    def test_plan_rejects_nonfinite_shift(self, shift):
        with pytest.raises(InvalidSpecError, match="finite"):
            ExperimentPlan(model="ar1-gauss", grid=((10, 1.0), (10, shift)), m=8, n=8,
                           tests=(("cq2", "asymptotic"),), replications=2)

    def test_oracle_on_model_without_scales(self, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "20:1", "--tests", "wmw:oracle", "--reps", "2",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "oracle" in err

    def test_identical_invocations_identical_csv(self, tmp_path):
        args = ["simulate", "--model", "spherical-t5", "--m", "8", "--n", "8",
                "--grid", "30:1", "--tests", "wmw:perm,cq2:asym,wmw:oracle",
                "--reps", "10", "--perms", "50", "--seed", "5"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out_a)])[0] == 0
        assert run_cli(args + ["--out", str(out_b)])[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        man_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        man_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        man_a.pop("timestamp")
        man_b.pop("timestamp")
        man_a["command"].remove(f"--out={out_a}")
        man_b["command"].remove(f"--out={out_b}")
        assert man_a == man_b


class TestSelftestCommand:
    def test_default_run_passes(self):
        code, out, _ = run_cli(["selftest", "--trials", "25"])
        assert code == 0
        for name in ("t_cq1", "t_cq2", "t_s", "t_sr", "t_wmw",
                     "permutation_kernels", "tr_sigma_sq", "tr_sigma_cross", "gamma1"):
            assert name in out
        assert "rsrm_one_sample_collapse" in out
        assert "rsrm_two_sample_collapse" in out

    def test_single_trial_covers_everything(self):
        code, out, _ = run_cli(["selftest", "--trials", "1"])
        assert code == 0
        assert out.count("[ok]") >= 8

    def test_exact_zero_statistic_passes(self):
        # Trial 19 of seed 24 has T_WMW = 0 exactly (m = n = 2, d = 1), and
        # the fast path gives 2.8e-15 there: a few eps, not a relative error.
        code, out, _ = run_cli(["selftest", "--trials", "19", "--seed", "24"])
        assert code == 0, out

    def test_seed_determinism(self):
        _, out_a, _ = run_cli(["selftest", "--trials", "5", "--seed", "11"])
        _, out_b, _ = run_cli(["selftest", "--trials", "5", "--seed", "11"])
        assert out_a == out_b

    def test_zero_trials_usage_error(self):
        code, _, _ = run_cli(["selftest", "--trials", "0"])
        assert code == 2

    def test_failed_check_exit_code(self, monkeypatch):
        monkeypatch.setattr(cli, "run_selftest", lambda trials, seed: {"t_cq1": 1.0,
                                                                     "t_s": 0.0})
        code, out, _ = run_cli(["selftest", "--trials", "1"])
        assert code == 1
        assert "[FAIL]" in out and "[ok]" in out
        assert out.endswith("selftest FAILED\n")


class TestUsageErrors:
    def test_unknown_stat_choice(self, sample_csvs):
        xp, yp, _, _ = sample_csvs
        code, _, _ = run_cli(
            ["two-sample", "--x", xp, "--y", yp, "--stat", "nope",
             "--method", "asymptotic"]
        )
        assert code == 2

    def test_bad_numeric_flags(self, sample_csvs, tmp_path):
        xp, yp, _, _ = sample_csvs
        for argv in (
            ["two-sample", "--x", xp, "--y", yp, "--stat", "wmw",
             "--method", "permutation", "--perms", "0"],
            ["one-sample", "--x", xp, "--stat", "sr", "--method", "signflip",
             "--perms", "-3"],
            ["two-sample", "--x", xp, "--y", yp, "--stat", "cq2",
             "--method", "asymptotic", "--alpha", "1.5"],
            ["two-sample", "--x", xp, "--y", yp, "--stat", "cq2",
             "--method", "permutation", "--perms", "10", "--seed", "-1"],
            ["one-sample", "--x", xp, "--stat", "cq1", "--method", "signflip",
             "--seed", "-1"],
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
             "--grid", "20:1", "--tests", "cq2:asym", "--reps", "2",
             "--seed", "-1", "--out", str(tmp_path / "o.csv")],
            ["simulate", "--model", "ar1-gauss", "--m", "-3", "--n", "8",
             "--grid", "20:1", "--tests", "wmw:asym", "--reps", "5",
             "--out", str(tmp_path / "o.csv")],
            ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "1",
             "--grid", "20:1", "--tests", "wmw:asym", "--reps", "5",
             "--out", str(tmp_path / "o.csv")],
            *(
                ["simulate", "--model", "ar1-gauss", "--m", "8", "--n", "8",
                 "--grid", "20:1", "--tests", "wmw:asym", "--reps", "5",
                 "--out", str(tmp_path / "o.csv"), *flags]
                for flags in (["--rho", "1.5"], ["--beta", "0"], ["--grid", "0:1"],
                              ["--grid", "10:inf"], ["--tests", "cq1:asym"],
                              ["--tests", ","], ["--tests", "wmw"], ["--m", "1"],
                              ["--m", "3"], ["--tests", "cq2:asym,cq2:asym"])
            ),
            ["selftest", "--trials", "1", "--seed", "-1"],
        ):
            code, _, err = run_cli(argv)
            assert code == 2, argv
            assert "usage error:" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--perms", "0", "value must be at least 1, got 0"),
        ("--perms", "2.5", "invalid literal for int() with base 10: '2.5'"),
        ("--seed", "-1", "value must be non-negative, got -1"),
        ("--alpha", "1.5", "value must be in (0, 1), got 1.5"),
        ("--alpha", "nan", "value must be in (0, 1), got nan"),
    ])
    def test_flag_error_names_the_flag(self, sample_csvs, flag, value, message):
        # The flag types apply the library's rules; argparse names the flag.
        xp, yp, _, _ = sample_csvs
        code, _, err = run_cli(["two-sample", "--x", xp, "--y", yp, "--stat", "wmw",
                                "--method", "permutation", flag, value])
        assert code == 2
        assert f"usage error: argument {flag}: {message}\n" in err

    def test_missing_required_flag(self):
        code, _, _ = run_cli(["two-sample", "--stat", "cq2", "--method", "asymptotic"])
        assert code == 2

    def test_choices_are_the_library_names(self):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")

        def choices(command, dest):
            parser = subparsers.choices[command]
            return next(a.choices for a in parser._actions if a.dest == dest)

        assert choices("two-sample", "stat") == TWO_SAMPLE_STATS
        assert choices("one-sample", "stat") == ONE_SAMPLE_STATS
        assert choices("simulate", "model") == MODEL_NAMES
