import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ardlkit
from ardlkit import errors, unitroot
from ardlkit.ardl import ArdlSpec
from ardlkit.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    PipelineConfig,
    UsageError,
    _config_from_args,
    build_parser,
    main,
    run_pipeline,
    run_unit_roots,
)
from ardlkit.critical import critical_values
from ardlkit.frame import TimeSeriesFrame, load_csv
from ardlkit.synthetic import Dgp, generate, random_walk

from conftest import (FIXTURE_CSV, differenced_residual_frame, exact_ecm_frame,
                      trend_linked_frame)
from regenerate_goldens import csv_text


def write_csv(path: Path, dgp: Dgp) -> Path:
    path.write_text(csv_text(generate(dgp, start_year=1941)))
    return path


def fixture_args(out: Path) -> list:
    return ["--data", str(FIXTURE_CSV), "--dependent", "Y",
            "--regressors", "X1,X2,X3,X4,X5", "--out", str(out)]


MODEL_COMMANDS = ("bounds", "ardl", "robust", "granger", "diag", "pipeline")


def command_argv(command: str, data: Path, out: Path, regressors=("X1",)) -> list:
    """argv running ``command`` on ``data`` with dependent Y; ``pipeline``
    gets a JSON config written next to ``out``."""
    if command == "unitroot":
        return ["unitroot", "--data", str(data), "--out", str(out)]
    if command == "pipeline":
        config = out.with_name(out.name + ".json")
        config.write_text(json.dumps({"data_path": str(data), "dependent": "Y",
                                      "regressors": list(regressors)}))
        return ["pipeline", "--config", str(config), "--out", str(out)]
    return [command, "--data", str(data), "--dependent", "Y",
            "--regressors", ",".join(regressors), "--out", str(out)]


class TestPipelineConfig:
    def test_from_dict_defaults(self):
        config = PipelineConfig.from_dict(
            {"data_path": "d.csv", "dependent": "Y", "regressors": ["X1"]}
        )
        assert config.regressors == ("X1",)
        assert config.max_p == 2 and config.criterion == "aic"
        assert config.format == "markdown"

    @pytest.mark.parametrize("command", ["bounds", "granger", "diag"])
    def test_left_out_flags_take_the_config_defaults(self, command):
        args = build_parser().parse_args([command, "--data", "d.csv", "--dependent", "Y",
                                          "--regressors", "X1, X2"])
        config = _config_from_args(args)
        assert (config.data_path, config.dependent, config.regressors) == ("d.csv", "Y",
                                                                           ("X1", "X2"))
        for field in fields(PipelineConfig):
            if field.name not in ("data_path", "dependent", "regressors"):
                assert getattr(config, field.name) == field.default, field.name

    def test_near_equal_level_is_stored_as_that_level(self):
        config = PipelineConfig("d.csv", "Y", ("X1",), level=0.10000000001)
        assert config.level == 0.10

    def test_unknown_key_named(self):
        with pytest.raises(UsageError, match="max_lags"):
            PipelineConfig.from_dict(
                {"data_path": "d", "dependent": "Y", "regressors": ["X"],
                 "max_lags": 3}
            )

    def test_missing_keys_named(self):
        with pytest.raises(UsageError, match="dependent"):
            PipelineConfig.from_dict({"data_path": "d", "regressors": ["X"]})

    @pytest.mark.parametrize("bad, message", [
        ({"level": 0.2}, "level"),
        ({"regressors": ["X", "Y"]}, "also listed"),
        ({"max_p": 0}, "max_p"),
        ({"bandwidth": -1}, "bandwidth"),
        ({"bandwidth": 2.5}, "bandwidth"),
        ({"granger_lag": 0}, "granger_lag"),
        ({"granger_lag": "abc"}, "granger_lag"),
        ({"dols_leads": -1}, "dols_leads"),
        ({"dols_lags": "1"}, "dols_lags"),
        ({"bounds_table": "x"}, "bounds_table"),
        ({"criterion": "x"}, "criterion"),
        ({"format": "x"}, "format"),
        ({"bg_order": 0}, "bg_order"),
        ({"bg_order": "x"}, "bg_order"),
        ({"max_p": 2.5}, "max_p"),
        ({"max_q": True}, "max_q"),
        ({"level": "0.05"}, "level"),
        ({"regressors": "X1"}, "regressors must be a list"),
        ({"regressors": ["X1", "X1"]}, "distinct"),
        ({"dependent": 5}, "strings"),
        ({"log_transform": "no"}, "log_transform must be a bool"),
        ({"data_path": 5}, "data_path must be a str"),
        ({"output_dir": None}, "output_dir"),
        ({"deterministic": "x"}, "deterministic"),
    ], ids=["level", "dependent-as-regressor", "max_p", "bandwidth", "bandwidth-float",
            "granger_lag-0", "granger_lag-text", "dols_leads", "dols_lags-text",
            "bounds_table", "criterion", "format", "bg_order-0", "bg_order-text",
            "max_p-float", "max_q-bool", "level-text", "regressors-text",
            "regressors-repeated", "dependent-number", "log_transform-text",
            "data_path-number", "output_dir-null", "deterministic"])
    def test_invalid_values_are_usage_errors(self, bad, message):
        raw = {"data_path": "d", "dependent": "Y", "regressors": ["X"], **bad}
        with pytest.raises(UsageError, match=message):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("bad", [{"dols_leads": -1}, {"bounds_table": "x"},
                                     {"criterion": "x"}, {"format": "x"}, {"bg_order": 0},
                                     {"bg_order": "x"}, {"max_p": 2.5}, {"level": "0.05"},
                                     {"regressors": "X1"}, {"log_transform": "no"},
                                     {"max_q": True}],
                             ids=["dols_leads", "bounds_table", "criterion", "format",
                                  "bg_order-0", "bg_order-text", "max_p-float", "level-text",
                                  "regressors-text", "log_transform-text", "max_q-bool"])
    def test_invalid_config_file_exits_usage(self, tmp_path, capsys, bad):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"data_path": str(FIXTURE_CSV), "dependent": "Y",
                                      "regressors": ["X1"], **bad}))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('["X1"]')
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        rc = main(["bounds", "--data", str(tmp_path / "none.csv"),
                   "--dependent", "Y", "--regressors", "X1",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS])
    def test_data_path_is_a_directory(self, tmp_path, capsys, command):
        assert main(command_argv(command, tmp_path, tmp_path / "o")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and "Traceback" not in err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path)]) == EXIT_DATA
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS])
    def test_data_that_is_not_utf8(self, tmp_path, capsys, command):
        data = tmp_path / "latin1.csv"
        data.write_bytes(FIXTURE_CSV.read_bytes().replace(b"Year", b"Ann\xe9e"))
        assert main(command_argv(command, data, tmp_path / "o")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{data} is not UTF-8 text: byte 3" in err

    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS])
    def test_data_with_a_repeated_column_name(self, tmp_path, capsys, command):
        data = tmp_path / "repeated.csv"
        data.write_bytes(FIXTURE_CSV.read_bytes().replace(b"X2", b"X1", 1))
        assert main(command_argv(command, data, tmp_path / "o")) == EXIT_DATA
        assert "name 'X1' repeats an earlier column" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS])
    def test_data_with_a_byte_order_mark(self, tmp_path, command):
        # spreadsheets' "CSV UTF-8" exports start with a UTF-8 byte-order mark
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + FIXTURE_CSV.read_bytes())
        written = []
        for name, path in (("plain", FIXTURE_CSV), ("bom", data)):
            out = tmp_path / name
            assert main(command_argv(command, path, out)) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]

    def test_config_with_a_byte_order_mark(self, tmp_path):
        written = []
        for name in ("plain", "bom"):
            out = tmp_path / name
            argv = command_argv("pipeline", FIXTURE_CSV, out)
            if name == "bom":
                config = Path(argv[2])
                config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
            assert main(argv) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{"data_path": "\xff"}')
        assert main(["pipeline", "--config", str(config)]) == EXIT_DATA
        assert f"{config} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS, "mc"])
    def test_out_names_an_existing_file(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        argv = (["mc", "--test", "adf", "--reps", "100", "--T", "30", "--out", str(out)]
                if command == "mc" else command_argv(command, FIXTURE_CSV, out))
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err
        assert out.read_text() == "keep me\n"

    def test_unknown_argument(self, capsys):
        assert main(["bounds", "--data", "x.csv", "--frobnicate"]) == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "data_path": str(FIXTURE_CSV), "dependent": "Y",
            "regressors": ["X1"], "max_lags": 4,
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        assert "max_lags" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS])
    def test_possible_i2_data(self, tmp_path, command):
        # a twice-integrated dependent fails the I(0)/I(1) gate, which every
        # subcommand keeps, granger included
        import numpy as np

        from ardlkit.synthetic import random_walk

        frame_path = tmp_path / "i2.csv"
        y = np.cumsum(random_walk(80, 3))
        x = random_walk(80, 900)
        lines = ["Year,Y,X1"]
        for i in range(80):
            lines.append(f"{1941 + i},{float(y[i])!r},{float(x[i])!r}")
        frame_path.write_text("\n".join(lines) + "\n")
        rc = main(command_argv(command, frame_path, tmp_path / "o"))
        assert rc == EXIT_PRECONDITION

    @pytest.mark.parametrize("command, code", [
        ("bounds", 0), ("ardl", 0), ("granger", 0), ("diag", 0),
        ("robust", EXIT_NUMERICAL), ("pipeline", EXIT_NUMERICAL),
    ])
    def test_short_sample_fails_only_where_read(self, tmp_path, capsys, command, code):
        # T = 16 fits the bounds test, Granger and the diagnostics, but not
        # FMOLS/CCR, which need 20 observations
        data = write_csv(tmp_path / "t16.csv",
                         Dgp("ecm_system", 16, 0, {"alpha": -0.8, "beta": (1.5,)}))
        assert main(command_argv(command, data, tmp_path / "o")) == code
        err = capsys.readouterr().err
        assert ("error in robustness" in err) == (code != 0)

    @pytest.mark.parametrize("command, code", [
        ("bounds", EXIT_NUMERICAL), ("ardl", EXIT_NUMERICAL), ("pipeline", EXIT_NUMERICAL),
        ("granger", 0),
    ])
    def test_exact_fit_fails_the_bounds_test(self, tmp_path, capsys, command, code):
        # the lag search picks a conditional regression that fits dY exactly
        data = tmp_path / "exact.csv"
        data.write_text(csv_text(exact_ecm_frame()))
        assert main(command_argv(command, data, tmp_path / "o")) == code
        err = capsys.readouterr().err
        assert err == ("error in ardl: exact fit: the residuals are rounding error\n"
                       if code else "")

    def test_singular_omega22_fails_robustness(self, tmp_path, capsys):
        data = tmp_path / "linked.csv"
        data.write_text(csv_text(trend_linked_frame()))
        argv = command_argv("robust", data, tmp_path / "o", ("X1", "X2"))
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("error in robustness: regressor block of the "
                                           "long-run covariance is singular\n")

    def test_singular_short_run_covariance_fails_robustness(self, tmp_path, capsys):
        # FMOLS runs on this frame; CCR's Sigma is singular
        data = tmp_path / "differenced.csv"
        data.write_text(csv_text(differenced_residual_frame()))
        assert main(command_argv("robust", data, tmp_path / "o")) == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("error in robustness: short-run covariance Sigma "
                                           "of (u, dx) is singular\n")

    @pytest.mark.parametrize("command, code", [
        ("bounds", EXIT_PRECONDITION), ("ardl", EXIT_PRECONDITION),
        ("robust", EXIT_PRECONDITION), ("pipeline", EXIT_PRECONDITION),
        ("granger", 0), ("diag", 0),
    ])
    def test_six_regressors_fail_only_where_bounds_are_read(self, tmp_path, capsys, command,
                                                            code):
        # the Case-III bounds tables stop at k = 5: the subcommands that read
        # them fail with one line, the others run
        names = ("Y", *(f"X{j}" for j in range(1, 7)))
        columns = [random_walk(60, seed) for seed in range(len(names))]
        lines = [",".join(("Year", *names))]
        lines += [",".join((str(1941 + t), *(repr(float(c[t])) for c in columns)))
                  for t in range(60)]
        data = tmp_path / "k6.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(command_argv(command, data, tmp_path / "o", names[1:])) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error in ardl: no critical values at k = 6: ")
            assert err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1",
         "--level", "0.2"],
        ["bounds", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1,Y"],
        ["bounds", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1,X1"],
        ["robust", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1",
         "--bandwidth", "abc"],
        ["robust", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1",
         "--dols-leads", "-1"],
        ["granger", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1",
         "--granger-lag", "abc"],
        ["granger", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1",
         "--granger-lag", "0"],
        ["unitroot", "--data", str(FIXTURE_CSV), "--level", "0.025"],
        ["unitroot", "--data", str(FIXTURE_CSV), "--bandwidth", "-1"],
        ["unitroot", "--data", str(FIXTURE_CSV), "--vars", "Y,X1,Y"],
        ["unitroot", "--data", str(FIXTURE_CSV), "--vars", ","],
        ["unitroot", "--data", str(FIXTURE_CSV), "--vars", " , "],
        # the unit-root tables have no 20% or 2.5% critical values
        ["mc", "--test", "adf", "--level", "0.2"],
        ["mc", "--test", "dfgls", "--level", "0.025"],
        # mc's own range checks: at least 100 replications, T >= 10, |rho| < 1
        ["mc", "--test", "adf", "--reps", "50"],
        ["mc", "--test", "adf", "--T", "5"],
        ["mc", "--test", "adf", "--dgp", "ar1", "--rho", "1.5"],
        # the Granger test takes any level in (0, 1), and no DGP parameter
        # may be NaN or infinite
        ["mc", "--test", "granger", "--level", "1.5", "--reps", "100", "--T", "30"],
        ["mc", "--test", "pp", "--dgp", "ar1", "--rho", "nan", "--reps", "100"],
        ["mc", "--test", "adf", "--drift", "nan", "--reps", "100"],
        ["mc", "--test", "adf", "--drift", "inf", "--reps", "100"],
        # each DGP flag belongs to one DGP: --rho to ar1, --drift to random_walk
        ["mc", "--test", "adf", "--dgp", "random_walk", "--rho", "0.99", "--reps", "100"],
        ["mc", "--test", "adf", "--dgp", "ecm_system", "--drift", "5", "--reps", "100"],
    ], ids=["level", "dependent-as-regressor", "repeated-regressor", "bandwidth", "dols-leads",
            "granger-lag", "granger-lag-0", "unitroot-level", "unitroot-bandwidth",
            "unitroot-repeated-vars", "unitroot-no-vars", "unitroot-blank-vars", "mc-adf-level", "mc-dfgls-level", "mc-reps", "mc-T",
            "mc-rho", "mc-granger-level", "mc-rho-nan", "mc-drift-nan", "mc-drift-inf",
            "mc-rho-random-walk", "mc-drift-ecm-system"])
    def test_invalid_option_value_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_mc_failing_replications_are_numerical_errors(self, tmp_path, capsys):
        # at T = 10 every ADF replication is too short for its default max lag
        out = tmp_path / "o"
        rc = main(["mc", "--test", "adf", "--T", "10", "--reps", "100", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "more than 1% of replications failed" in capsys.readouterr().err

    def test_mc_overflowing_draw_is_a_numerical_error(self, tmp_path, capsys):
        # a finite drift whose walk overflows: one error line naming the seed
        # and the parameters, and no numpy warning
        out = tmp_path / "o"
        rc = main(["mc", "--test", "adf", "--dgp", "random_walk", "--drift", "1e308",
                   "--reps", "100", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("error: random_walk draws a non-finite value at "
                                           "seed 0 with T=100, drift=1e+308\n")
        assert not out.exists()

    def test_mc_abort_names_the_first_failure(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["mc", "--test", "pp", "--T", "12", "--reps", "100", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "more than 1% of replications failed (2/2)" in err
        assert "PP needs n >= 15, got 12" in err

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Year,Y,X1\n1990,1,2\n1991,3\n")
        rc = main(["bounds", "--data", str(bad), "--dependent", "Y",
                   "--regressors", "X1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA


class TestSubcommands:
    def test_bounds(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bounds", *fixture_args(out)]) == 0
        assert (out / "bounds.md").exists()

    def test_ardl(self, tmp_path):
        out = tmp_path / "o"
        assert main(["ardl", *fixture_args(out)]) == 0
        assert (out / "ardl.md").exists()
        assert (out / "bounds.md").exists()

    def test_robust(self, tmp_path):
        out = tmp_path / "o"
        assert main(["robust", *fixture_args(out)]) == 0
        assert (out / "robustness.md").exists()

    def test_granger(self, tmp_path):
        out = tmp_path / "o"
        assert main(["granger", *fixture_args(out)]) == 0
        assert (out / "causality.md").exists()

    def test_diag(self, tmp_path):
        out = tmp_path / "o"
        assert main(["diag", *fixture_args(out)]) == 0
        for name in ("diagnostics.md", "cusum.csv", "cusum.svg",
                     "cusum_sq.csv", "cusum_sq.svg"):
            assert (out / name).exists()

    def test_json_report_through_a_link_to_dev_null(self, tmp_path, capsys):
        # an output that is not a regular file is written, not cut
        out = tmp_path / "o"
        out.mkdir()
        (out / "report.json").symlink_to(os.devnull)
        rc = main(["unitroot", "--data", str(FIXTURE_CSV), "--out", str(out), "--format", "json"])
        assert (rc, capsys.readouterr().err) == (0, "")
        assert os.readlink(out / "report.json") == os.devnull

    def test_unitroot(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["unitroot", "--data", str(FIXTURE_CSV), "--vars", "Y,X1",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "unit_root.md").exists()

    def test_unitroot_vars_parse_like_regressors(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["unitroot", "--data", str(FIXTURE_CSV), "--vars", "Y, X1,",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        rows = json.loads((out / "report.json").read_text())["unit_root"]
        assert [row["variable"] for row in rows] == ["Y", "X1"]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "o"
        assert main(["bounds", *fixture_args(out), "--format", "csv"]) == 0
        text = (out / "bounds.csv").read_text()
        assert "F statistics" in text

    @pytest.mark.parametrize("command", ["ardl", "robust"])
    def test_bounds_table_option(self, tmp_path, command):
        out = tmp_path / "o"
        argv = [command, *fixture_args(out), "--bounds-table", "pesaran", "--format", "json"]
        assert main(argv) == 0
        bounds = json.loads((out / "report.json").read_text())["bounds"]["critical_bounds"]
        assert bounds == {str(level): list(pair)
                          for level, pair in critical_values("pesaran", "III", 5).items()}

    @pytest.mark.parametrize("fmt", ["markdown", "json"])
    @pytest.mark.parametrize("command", ["unitroot", *MODEL_COMMANDS])
    def test_written_files(self, tmp_path, command, fmt):
        tables = {
            "unitroot": ["unit_root"],
            "bounds": ["bounds"],
            "ardl": ["ardl", "bounds"],
            "robust": ["bounds", "robustness"],
            "granger": ["causality"],
            "diag": ["diagnostics"],
            "pipeline": ["ardl", "bounds", "causality", "diagnostics", "robustness",
                         "unit_root"],
        }[command]
        expected = {f"{t}.md" for t in tables} if fmt == "markdown" else {"report.json"}
        if command in ("diag", "pipeline"):
            expected |= {"cusum.csv", "cusum.svg", "cusum_sq.csv", "cusum_sq.svg"}
        out = tmp_path / "o"
        argv = command_argv(command, FIXTURE_CSV, out, ("X1", "X2", "X3", "X4", "X5"))
        assert main([*argv, "--format", fmt]) == 0
        assert {p.name for p in out.iterdir()} == expected
        if fmt == "json":
            stability = {"stability"} if command in ("diag", "pipeline") else set()
            assert set(json.loads((out / "report.json").read_text())) == {*tables, *stability}

    def test_robust_bandwidth_reaches_dols(self, tmp_path):
        # DOLS scales its standard errors by the residuals' long-run variance
        # at --bandwidth, the setting FMOLS and CCR read
        stderrs = {}
        for bandwidth in ("auto", "0", "8"):
            out = tmp_path / bandwidth
            argv = ["robust", *fixture_args(out), "--bandwidth", bandwidth, "--format", "json"]
            assert main(argv) == 0
            rows = json.loads((out / "report.json").read_text())["robustness"]["estimates"]
            stderrs[bandwidth] = {row["method"]: row["coef"]["X1"][1] for row in rows}
        for method in ("fmols", "dols", "ccr"):
            for bandwidth in ("0", "8"):
                assert stderrs[bandwidth][method] != stderrs["auto"][method], method
        assert stderrs["0"]["dols"] < stderrs["auto"]["dols"] < stderrs["8"]["dols"]

    def test_near_equal_level_is_that_level(self, tmp_path):
        # a level within math.isclose of 0.1 is 0.1: the bounds decision, the
        # unit-root tables and the CUSUM bounds are all read at 10%
        written = []
        for level in ("0.1", "0.10000000001"):
            out = tmp_path / level
            assert main(["robust", *fixture_args(out), "--level", level]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]

    def test_mc(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["mc", "--test", "adf", "--dgp", "random_walk", "--T", "50",
                   "--reps", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert lines[0] == "replication,statistic,reject"
        assert len(lines) == 101
        assert "rejection rate at 5%" in capsys.readouterr().out

    # sha256 of mc.csv at --T 30 --reps 100 --seed 0, recorded before the DGP
    # parameters were bound to their generators' signatures; the Granger
    # ones since each F comes from one QR, with every reject flag as before
    MC_DIGESTS = {
        ("adf", "random_walk"): "78efc679dc826eefbc0411558d474bc4b9e6419c9a3778dab32d640fe122437e",
        ("adf", "ar1"): "bde68860d9e36b6ef18289262bb9ea441229440415fbd981abb33b49050720f4",
        ("adf", "ecm_system"): "b4c409da17760a9b609f0330fd675bcfabb25427a49e661e3bb2463e34d856df",
        ("pp", "random_walk"): "e2156af840c33de67d5bf7f7da929c2c4d02c212b5899dbb989635990b5d4473",
        ("pp", "ar1"): "38ea6a0e3077a34ea0565a0ae25ba3a2f208e3ba107209191e5eedbfacb7b1b8",
        ("pp", "ecm_system"): "47b7c4a6584da99432ac48b89e6393f6e0e23f83e70e792f34782ea12b4e890e",
        ("dfgls", "random_walk"): "0889976790b81af27baaffc7f1cb2317d6c38c98700ccf4bc94f0828749c28f2",
        ("dfgls", "ar1"): "63a9c7fc9a6f6b5ee57519f20875487d786cf7bc3ebbe170eec767e248c254a2",
        ("dfgls", "ecm_system"): "47b450940b71a20fb688423e4540a41b8bc6013ce5085e48c032a03ea114ee90",
        ("granger", "random_walk"): "96701fbd8fb906cf338a677b84d8f1f3f3c371f0a09de4d32bb9bcaa3099b402",
        ("granger", "ar1"): "31590472bb612c7a6303a1f04d09b0f906d50ce66479b78b44a40353da65c584",
        ("granger", "ecm_system"): "cbb282515ef432c4df3f8076bccd1585858030462074c792da028fbb52af0c2b",
        ("adf", "ar1", "--rho", "0.9"):
            "f9cd2cee69693885df079bbed7b1e01437c3c0b964bda7ac7802e8ac3ea6747a",
        ("adf", "random_walk", "--drift", "0.1"):
            "35a9e7dd32c01749ae06505eae5118de15dc0958c35a0c82b98dc03eb8151576",
    }

    @pytest.mark.parametrize("case", MC_DIGESTS, ids=" ".join)
    def test_mc_csv_bits_are_pinned(self, tmp_path, case):
        test, dgp, *flags = case
        out = tmp_path / "o"
        assert main(["mc", "--test", test, "--dgp", dgp, *flags, "--T", "30",
                     "--reps", "100", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "mc.csv").read_bytes()).hexdigest() == self.MC_DIGESTS[case]

    def test_mc_granger_takes_any_level(self, tmp_path, capsys):
        # the Granger test compares p-values, so it needs no critical-value table
        rc = main(["mc", "--test", "granger", "--dgp", "ar1", "--T", "50",
                   "--reps", "100", "--level", "0.025", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "rejection rate at 2.5%" in capsys.readouterr().out


class TestPipelineCommand:
    def test_json_report_round_trips(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "data_path": str(FIXTURE_CSV), "dependent": "Y",
            "regressors": ["X1", "X2", "X3", "X4", "X5"],
        }))
        out = tmp_path / "o"
        rc = main(["pipeline", "--config", str(config), "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) >= {"unit_root", "bounds", "ardl", "robustness",
                               "causality", "diagnostics", "stability"}
        assert report["bounds"]["k"] == 5

    def test_log_transform_fits_the_logs(self, tmp_path):
        # the paper's L-prefixed variables: log_transform on exp(fixture)
        # writes the report of the logs read as LY, LX1, ...
        names = ("Y", "X1", "X2", "X3", "X4", "X5")
        fixture = load_csv(FIXTURE_CSV.read_text())
        raw = TimeSeriesFrame(fixture.years, {n: np.exp(fixture.column(n)) for n in names})
        logs = TimeSeriesFrame(fixture.years, {f"L{n}": np.log(raw.column(n)) for n in names})
        reports = []
        for frame, prefix, log_transform in ((raw, "", True), (logs, "L", False)):
            data = tmp_path / f"{prefix or 'exp'}.csv"
            data.write_text(csv_text(frame))
            config = tmp_path / f"{prefix or 'exp'}.json"
            config.write_text(json.dumps({"data_path": str(data), "dependent": f"{prefix}Y",
                                          "regressors": [f"{prefix}{n}" for n in names[1:]],
                                          "log_transform": log_transform}))
            out = tmp_path / f"{prefix or 'exp'}_out"
            assert main(["pipeline", "--config", str(config), "--out", str(out),
                         "--format", "json"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert set(json.loads(reports[0])["ardl"]["long_run"]) == {f"L{n}" for n in names[1:]}

    def test_runs_are_deterministic(self, tmp_path):
        config = PipelineConfig(
            data_path=str(FIXTURE_CSV), dependent="Y",
            regressors=("X1", "X2", "X3", "X4", "X5"),
        )
        a = run_pipeline(config)
        b = run_pipeline(config)
        assert a.bounds.f_stat == b.bounds.f_stat
        assert a.ecm.ect == b.ecm.ect

    def test_ecm_section_carries_the_lag_spec(self):
        config = PipelineConfig(data_path=str(FIXTURE_CSV), dependent="Y",
                                regressors=("X1", "X2", "X3", "X4", "X5"))
        report = run_pipeline(config, ("ecm",))
        assert report.ecm.spec == ArdlSpec(1, (0, 0, 0, 0, 0))
        assert report.to_dict()["ardl"]["spec"] == {"p": 1, "q": [0, 0, 0, 0, 0]}
        with pytest.raises(ValueError, match="ardl_spec"):
            run_pipeline(config, ("ardl_spec",))

    def test_robustness_warning_when_not_cointegrated(self, tmp_path):
        import numpy as np

        from ardlkit.synthetic import ar1, random_walk

        # independent near-walk regressor: bounds should not scream
        # cointegration for every seed; pick one known inconclusive
        path = tmp_path / "w.csv"
        y = random_walk(200, 44)
        x = random_walk(200, 99044)
        lines = ["Year,Y,X1"]
        for i in range(200):
            lines.append(f"{1800 + i},{float(y[i])!r},{float(x[i])!r}")
        path.write_text("\n".join(lines) + "\n")
        config = PipelineConfig(data_path=str(path), dependent="Y",
                                regressors=("X1",))
        report = run_pipeline(config)
        if report.bounds.decision[0.05] != "cointegrated":
            assert report.robustness_warning
        else:  # pragma: no cover - seed-dependent guard
            assert report.robustness_warning is None

    @pytest.mark.parametrize("level, text", [(0.01, "1%"), (0.025, "2.5%"), (0.05, "5%"),
                                             (0.10, "10%")])
    def test_robustness_warning_names_the_level(self, level, text):
        # the fixture's regressors X1 and X2 are not cointegrated at any level
        config = PipelineConfig(data_path=str(FIXTURE_CSV), dependent="X1",
                                regressors=("X2",), level=level)
        report = run_pipeline(config, ("bounds", "robustness"))
        assert report.bounds.decision[level] != "cointegrated"
        assert report.robustness_warning == (
            f"bounds test did not find cointegration at the {text} level; "
            "FMOLS/DOLS/CCR estimates assume a cointegrating relation")


class TestRunUnitRoots:
    """``run_unit_roots`` raises the first failure of the per-variable
    order: variable by variable, ADF, PP, DF-GLS, the level before the
    difference, and a variable's possible I(2) after its own tests."""

    ORDER = [(v, test, diff) for v in range(3) for test in unitroot.TESTS for diff in (0, 1)]

    @staticmethod
    def planted(monkeypatch, frame) -> dict:
        """A plan that ``unit_root_block`` then follows: it returns
        plan[(row, test, diff)] in place of that row's outcome."""
        plan = {}
        real = unitroot.unit_root_block

        def block(test, Y, deterministic, **options):
            diff = int(Y.shape[1] < frame.n)
            return [plan.get((v, test, diff), outcome)
                    for v, outcome in enumerate(real(test, Y, deterministic, **options))]

        monkeypatch.setattr(unitroot, "unit_root_block", block)
        return plan

    def test_first_failure_in_order(self, monkeypatch):
        frame = load_csv(FIXTURE_CSV.read_text())
        names = frame.names[:3]
        plan = self.planted(monkeypatch, frame)
        for i, first in enumerate(self.ORDER):
            plan.clear()
            plan.update({key: errors.NumericalError(repr(key)) for key in self.ORDER[i:]})
            with pytest.raises(errors.NumericalError) as raised:
                run_unit_roots(frame, names, "constant", "auto", 0.05)
            assert str(raised.value) == repr(first)

    def test_possible_i2_beats_a_later_variable_but_not_its_own_tests(self, monkeypatch):
        frame = load_csv(FIXTURE_CSV.read_text())
        names = frame.names[:3]
        adf = unitroot.adf(frame.column(names[0]))
        no_reject = adf._replace(reject=dict.fromkeys(adf.reject, False))
        plan = self.planted(monkeypatch, frame)
        plan.update({(0, "adf", 0): no_reject, (0, "adf", 1): no_reject,
                     (1, "adf", 0): errors.NumericalError("later variable")})
        with pytest.raises(errors.PossibleI2):
            run_unit_roots(frame, names, "constant", "auto", 0.05)
        plan[(0, "dfgls", 1)] = errors.NumericalError("own test")
        with pytest.raises(errors.NumericalError, match="own test"):
            run_unit_roots(frame, names, "constant", "auto", 0.05)

    def test_real_failures(self):
        n = 60
        twice = np.cumsum(random_walk(n, 8))  # twice-integrated: possible I(2)
        frame = TimeSeriesFrame(tuple(range(1950, 1950 + n)),
                                {"A": random_walk(n, 3), "B": twice, "C": np.arange(n, 0.0, -1.0)})
        with pytest.raises(errors.PossibleI2):
            run_unit_roots(frame, ("A", "B", "C"), "constant", "auto", 0.05)
        with pytest.raises(errors.DegenerateSeries):
            run_unit_roots(frame, ("A", "C", "B"), "constant", "auto", 0.05)
        with pytest.raises(errors.UnknownVariable):
            run_unit_roots(frame, ("A", "D", "C"), "constant", "auto", 0.05)
        with pytest.raises(errors.DegenerateSeries):
            run_unit_roots(frame, ("C", "D"), "constant", "auto", 0.05)
        assert run_unit_roots(frame, (), "constant", "auto", 0.05) == []


def modules_after_import(prefix: str, argv=None) -> list:
    """Modules under ``prefix`` loaded by ``import ardlkit, ardlkit.cli``, then
    by ``ardlkit.cli.main(argv)`` if argv is given, which must exit 0, in a
    fresh interpreter that imports this ardlkit."""
    src = str(Path(ardlkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = f"assert ardlkit.cli.main({argv!r}) == 0; " if argv else ""
    code = (f"import ardlkit, ardlkit.cli, json, sys; {run}print(ardlkit.cli.__file__); "
            f"print(json.dumps([m for m in sorted(sys.modules) if (m + '.').startswith('{prefix}.')]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert Path(out[-2]).resolve().parent == Path(ardlkit.__file__).resolve().parent
    return json.loads(out[-1])


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats would be most of the cost of a cold ardlkit process
    assert modules_after_import("scipy.stats") == []


def test_cli_import_leaves_scipy_unloaded():
    # the normal, chi2, F and t tails come from math, the normal variates
    # from synthetic's own inverse normal CDF
    assert modules_after_import("scipy") == []


@pytest.mark.parametrize("test", ["adf", "pp", "dfgls", "granger"])
def test_mc_run_leaves_scipy_unloaded(test, tmp_path):
    argv = ["mc", "--test", test, "--reps", "100", "--out", str(tmp_path)]
    assert modules_after_import("scipy", argv) == []
    assert (tmp_path / "mc.csv").is_file()
