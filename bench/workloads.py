"""The three benchmark workloads: their seeded inputs, one op, and its check.

Every input comes from a fixed pool whose discrete outputs under the
original code are stored in ``reference.json`` (see ``make_reference.py``).
The workload seed only chooses which pool items a run uses and in which
order, so any seed can be checked.  Inputs are generated in ``prepare``,
before timing starts, and are never filtered or re-seeded.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from ardlkit import cli, report, synthetic, unitroot
from ardlkit.errors import ArdlkitError

from tracer import Tracer

# The data-generating process of tests/data/fixture.csv (regenerate_goldens.py).
ECM_PARAMS = {"alpha": -0.3, "sigma": 0.4, "delta": 0.2, "intercept": 1.0}
K5_BETA = (0.5, -0.3, 0.4, -0.2, 0.3)
K2_BETA = (0.5, -0.3)

PIPELINE_POOL, PIPELINE_SEED0, PIPELINE_BATCH = 256, 7_100_000, 40
MC_POOL, MC_SEED0, MC_REPS, MC_T = 512, 7_200_000, 100, 100
MC_TESTS = ("adf", "pp", "dfgls")
CLI_POOL, CLI_SEED0, CLI_T = 64, 7_300_000, 50
CLI_COMMANDS = ("unitroot", "bounds", "ardl", "robust", "granger", "diag", "pipeline")

# Dataset 0 of pipeline_k5 is compared with the committed golden report at
# |fresh - golden| <= GOLDEN_ATOL + GOLDEN_RTOL * |golden| for every number.
# The golden and fresh output differ near the 13th digit of the CUSUM path,
# and an exact recursive-residual rewrite moves it by about 3e-10.
GOLDEN_RTOL, GOLDEN_ATOL = 1e-8, 1e-9
CHILD_TIMEOUT_S = 120
TRACER_SCRIPT = Path(__file__).resolve().with_name("tracer.py")


def pipeline_pool_dgp(i: int) -> synthetic.Dgp:
    return synthetic.Dgp("ecm_system", 80, PIPELINE_SEED0 + i, {"beta": K5_BETA, **ECM_PARAMS})


def mc_pool_dgp(j: int) -> synthetic.Dgp:
    return synthetic.Dgp("random_walk", MC_T, MC_SEED0 + MC_REPS * j, {"drift": 0.0})


def cli_pool_dgp(j: int) -> synthetic.Dgp:
    return synthetic.Dgp("ecm_system", CLI_T, CLI_SEED0 + j, {"beta": K2_BETA, **ECM_PARAMS})


def child_env(root: Path) -> dict:
    """The environment of a child interpreter: ardlkit from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def write_csv(dgp: synthetic.Dgp, path: Path) -> Path:
    frame = synthetic.generate(dgp, start_year=1941)
    lines = ["Year," + ",".join(frame.names)]
    for i, year in enumerate(frame.years):
        lines.append(f"{year}," + ",".join(repr(float(frame.columns[n][i])) for n in frame.names))
    path.write_text("\n".join(lines) + "\n")
    return path


def pipeline_config(csv_path: Path, names) -> cli.PipelineConfig:
    return cli.PipelineConfig(data_path=str(csv_path), dependent=names[0],
                              regressors=tuple(names[1:]))


def discrete(doc: dict) -> dict:
    """The discrete outputs of a report.json: integration orders, bounds
    decisions and the chosen ARDL spec, where the report has them."""
    out = {}
    if "unit_root" in doc:
        out["orders"] = {row["variable"]: row["decision"] for row in doc["unit_root"]}
    if "bounds" in doc:
        out["bounds"] = doc["bounds"]["decision"]
    if doc.get("ardl", {}).get("spec"):
        spec = doc["ardl"]["spec"]
        out["spec"] = [spec["p"], spec["q"]]
    return out


def numeric_mismatch(fresh, golden, where: str = "") -> str | None:
    """First place where two JSON documents differ beyond the golden tolerance."""
    if isinstance(golden, bool) or golden is None or isinstance(golden, str):
        return None if fresh == golden else f"{where}: {fresh!r} != {golden!r}"
    if isinstance(golden, (int, float)):
        if isinstance(fresh, bool) or not isinstance(fresh, (int, float)):
            return f"{where}: {fresh!r} is not a number"
        if math.isnan(golden) and math.isnan(fresh):
            return None
        if abs(fresh - golden) <= GOLDEN_ATOL + GOLDEN_RTOL * abs(golden):
            return None
        return f"{where}: {fresh!r} != {golden!r}"
    if isinstance(golden, dict):
        if not isinstance(fresh, dict) or fresh.keys() != golden.keys():
            return f"{where}: keys differ"
        for key in golden:
            bad = numeric_mismatch(fresh[key], golden[key], f"{where}/{key}")
            if bad:
                return bad
        return None
    if not isinstance(fresh, list) or len(fresh) != len(golden):
        return f"{where}: lengths differ"
    for i, (a, b) in enumerate(zip(fresh, golden)):
        bad = numeric_mismatch(a, b, f"{where}[{i}]")
        if bad:
            return bad
    return None


def error_label(exc: ArdlkitError) -> str:
    stage = getattr(exc, "stage", None)
    cause = getattr(exc, "cause", exc)
    return f"{stage}:{type(cause).__name__}" if stage else type(exc).__name__


def pipeline_op(config: cli.PipelineConfig, out: Path) -> str:
    """One pipeline_k5 op: the full pipeline and a JSON report in ``out``."""
    try:
        rep = cli.run_pipeline(config)
    except ArdlkitError as exc:
        return error_label(exc)
    report.render(rep, "json", out)
    return "ok"


def mc_op(test: str, dgp: synthetic.Dgp) -> list[int]:
    """One mc_unitroot op: [rejections, failed replications]."""
    res = synthetic.mc_rejection_rate(MC_TEST_FNS[test], dgp, MC_REPS, 0.05)
    return [round(res.rate * (res.reps - res.failures)), res.failures]


class InProcess:
    """An op runs inside this process; tracing rebinds ardlkit functions."""

    in_process = True

    def before(self, i: int) -> None:
        pass

    @contextlib.contextmanager
    def tracing(self):
        with Tracer() as tracer:
            yield tracer.take


class PipelineK5(InProcess):
    """run_pipeline + render(json) over a batch of k=5, T=80 datasets."""

    name = "pipeline_k5"
    cycle = PIPELINE_BATCH

    def __init__(self, root: Path, work: Path, seed: int, reference: dict):
        self.root, self.work = root, work
        self.ref_fixture = reference["pipeline_k5_fixture"]
        self.ref_pool = reference["pipeline_k5_pool"]
        self.golden = json.loads((root / "tests/golden/json/report.json").read_text())
        self.pool_items = random.Random(seed).sample(range(PIPELINE_POOL), PIPELINE_BATCH - 1)

    def prepare(self) -> None:
        fixture = self.root / "tests/data/fixture.csv"
        csvs = [fixture] + [write_csv(pipeline_pool_dgp(i), self.work / f"k5_{i}.csv")
                            for i in self.pool_items]
        names = fixture.read_text().splitlines()[0].split(",")[1:]
        self.configs = [pipeline_config(p, names) for p in csvs]
        self.outs = [self.work / f"out{d}" for d in range(PIPELINE_BATCH)]
        self.expected = [self.ref_fixture] + [self.ref_pool[i] for i in self.pool_items]

    def run(self, i: int):
        d = i % PIPELINE_BATCH
        return pipeline_op(self.configs[d], self.outs[d])

    def check(self, i: int, outcome) -> str | None:
        d = i % PIPELINE_BATCH
        expected = self.expected[d]
        if outcome != expected["outcome"]:
            return f"dataset {d}: outcome {outcome} != {expected['outcome']}"
        if outcome != "ok":
            return None
        doc = json.loads((self.outs[d] / "report.json").read_text())
        if d == 0:
            bad = numeric_mismatch(doc, self.golden, "report.json")
            if bad:
                return f"fixture differs from the golden: {bad}"
        got = discrete(doc)
        want = {k: v for k, v in expected.items() if k != "outcome"}
        return None if got == want else f"dataset {d}: {got} != {want}"


def _mc_test(name: str):
    def test(frame, level, seed):
        # looked up at call time, so a traced run goes through the wrapper
        rep = getattr(unitroot, name)(frame.column("Y"))
        return rep.statistic, rep.reject["5%"]
    return test


MC_TEST_FNS = {name: _mc_test(name) for name in MC_TESTS}


class McUnitroot(InProcess):
    """mc_rejection_rate on the T=100 random walk, cycling ADF, PP and DF-GLS."""

    name = "mc_unitroot"
    cycle = len(MC_TESTS)
    reps_per_op = MC_REPS

    def __init__(self, root: Path, work: Path, seed: int, reference: dict):
        self.ref = {test: reference[f"mc_unitroot_{test}"] for test in MC_TESTS}
        self.order = random.Random(seed).sample(range(MC_POOL), MC_POOL)

    def prepare(self) -> None:
        self.dgps = [mc_pool_dgp(j) for j in self.order]

    def _item(self, i: int):
        return MC_TESTS[i % len(MC_TESTS)], (i // len(MC_TESTS)) % MC_POOL

    def run(self, i: int):
        test, k = self._item(i)
        return mc_op(test, self.dgps[k])

    def check(self, i: int, outcome) -> str | None:
        test, k = self._item(i)
        want = self.ref[test][self.order[k]]
        return None if outcome == want else f"{test} pool {self.order[k]}: {outcome} != {want}"


def cli_argv(command: str, csv_path: Path, config_path: Path, out: Path) -> list[str]:
    io_flags = ["--out", str(out), "--format", "json"]
    if command == "pipeline":
        return ["pipeline", "--config", str(config_path), *io_flags]
    if command == "unitroot":
        return ["unitroot", "--data", str(csv_path), *io_flags]
    return [command, "--data", str(csv_path), "--dependent", "Y",
            "--regressors", "X1,X2", *io_flags]


class CliColdK2:
    """One fresh ``python -m ardlkit.cli`` process per op on k=2, T=50 CSVs."""

    name = "cli_cold_k2"
    cycle = len(CLI_COMMANDS)
    in_process = False

    def __init__(self, root: Path, work: Path, seed: int, reference: dict):
        self.root, self.work = root, work
        self.ref = reference[self.name]
        self.order = random.Random(seed).sample(range(CLI_POOL), CLI_POOL)
        self.max_child_rss_kb = 0
        self._spans_path: Path | None = None
        self.env = child_env(root)

    def prepare(self) -> None:
        self.csvs, self.configs = [], []
        for j in self.order:
            csv_path = write_csv(cli_pool_dgp(j), self.work / f"k2_{j}.csv")
            config_path = self.work / f"k2_{j}.json"
            config_path.write_text(json.dumps(
                {"data_path": str(csv_path), "dependent": "Y", "regressors": ["X1", "X2"]}))
            self.csvs.append(csv_path)
            self.configs.append(config_path)

    def _item(self, i: int):
        return CLI_COMMANDS[i % len(CLI_COMMANDS)], (i // len(CLI_COMMANDS)) % CLI_POOL

    def _out(self, command: str) -> Path:
        return self.work / f"cli_{command}"

    def before(self, i: int) -> None:
        """Untimed: drop the previous output so a check never reads stale files."""
        command, _ = self._item(i)
        (self._out(command) / "report.json").unlink(missing_ok=True)
        if self._spans_path is not None:
            self._spans_path.unlink(missing_ok=True)

    def run(self, i: int):
        command, k = self._item(i)
        argv = cli_argv(command, self.csvs[k], self.configs[k], self._out(command))
        head = ([str(TRACER_SCRIPT), str(self._spans_path), "--"] if self._spans_path
                else ["-m", "ardlkit.cli"])
        with open(os.devnull, "wb") as sink, subprocess.Popen(
                [sys.executable, *head, *argv], cwd=self.root, env=self.env,
                stdout=sink, stderr=sink) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, i: int, exit_code) -> str | None:
        command, k = self._item(i)
        want = self.ref[self.order[k]][command]
        if exit_code != want["exit"]:
            return f"{command} pool {self.order[k]}: exit {exit_code} != {want['exit']}"
        if exit_code != 0:
            return None
        got = discrete(json.loads((self._out(command) / "report.json").read_text()))
        want = {key: v for key, v in want.items() if key != "exit"}
        return None if got == want else f"{command} pool {self.order[k]}: {got} != {want}"

    def _read_spans(self) -> list[list]:
        # a child killed before it wrote its spans leaves no file
        if not self._spans_path.exists():
            return []
        return json.loads(self._spans_path.read_text())

    @contextlib.contextmanager
    def tracing(self):
        self._spans_path = self.work / "spans.json"
        try:
            yield self._read_spans
        finally:
            self._spans_path = None


WORKLOADS = {cls.name: cls for cls in (PipelineK5, McUnitroot, CliColdK2)}
