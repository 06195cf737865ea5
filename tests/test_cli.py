import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ardlkit
from ardlkit.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    PipelineConfig,
    UsageError,
    main,
    run_pipeline,
)
from ardlkit.synthetic import Dgp, generate

from conftest import FIXTURE_CSV


def write_csv(path: Path, dgp: Dgp) -> Path:
    frame = generate(dgp, start_year=1941)
    lines = ["Year," + ",".join(frame.names)]
    for i, year in enumerate(frame.years):
        cells = ",".join(repr(float(frame.columns[n][i])) for n in frame.names)
        lines.append(f"{year},{cells}")
    path.write_text("\n".join(lines) + "\n")
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
    ], ids=["level", "dependent-as-regressor", "max_p", "bandwidth", "bandwidth-float",
            "granger_lag-0", "granger_lag-text", "dols_leads", "dols_lags-text",
            "bounds_table", "criterion", "format"])
    def test_invalid_values_are_usage_errors(self, bad, message):
        raw = {"data_path": "d", "dependent": "Y", "regressors": ["X"], **bad}
        with pytest.raises(UsageError, match=message):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("bad", [{"dols_leads": -1}, {"bounds_table": "x"},
                                     {"criterion": "x"}, {"format": "x"}],
                             ids=["dols_leads", "bounds_table", "criterion", "format"])
    def test_invalid_config_file_exits_usage(self, tmp_path, capsys, bad):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"data_path": str(FIXTURE_CSV), "dependent": "Y",
                                      "regressors": ["X1"], **bad}))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        rc = main(["bounds", "--data", str(tmp_path / "none.csv"),
                   "--dependent", "Y", "--regressors", "X1",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1",
         "--level", "0.2"],
        ["bounds", "--data", str(FIXTURE_CSV), "--dependent", "Y", "--regressors", "X1,Y"],
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
        # the unit-root tables have no 20% or 2.5% critical values
        ["mc", "--test", "adf", "--level", "0.2"],
        ["mc", "--test", "dfgls", "--level", "0.025"],
    ], ids=["level", "dependent-as-regressor", "bandwidth", "dols-leads", "granger-lag",
            "granger-lag-0", "unitroot-level", "unitroot-bandwidth", "mc-adf-level",
            "mc-dfgls-level"])
    def test_invalid_option_value_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

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

    def test_unitroot(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["unitroot", "--data", str(FIXTURE_CSV), "--vars", "Y,X1",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "unit_root.md").exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "o"
        assert main(["bounds", *fixture_args(out), "--format", "csv"]) == 0
        text = (out / "bounds.csv").read_text()
        assert "F statistics" in text

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

    def test_mc(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["mc", "--test", "adf", "--dgp", "random_walk", "--T", "50",
                   "--reps", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert lines[0] == "replication,statistic,reject"
        assert len(lines) == 101
        assert "rejection rate at 5%" in capsys.readouterr().out

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

    def test_runs_are_deterministic(self, tmp_path):
        config = PipelineConfig(
            data_path=str(FIXTURE_CSV), dependent="Y",
            regressors=("X1", "X2", "X3", "X4", "X5"),
        )
        a = run_pipeline(config)
        b = run_pipeline(config)
        assert a.bounds.f_stat == b.bounds.f_stat
        assert a.ecm.ect == b.ecm.ect

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


def test_cli_import_leaves_scipy_stats_unloaded():
    # p-values come from scipy.special ufuncs; importing scipy.stats would
    # be most of the cost of a cold ardlkit process
    src = str(Path(ardlkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import ardlkit.cli, sys; print(ardlkit.cli.__file__); "
            "print([m for m in sorted(sys.modules) if m.split('.')[:2] == ['scipy', 'stats']])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == Path(ardlkit.__file__).resolve().parent
    assert out[1] == "[]"
