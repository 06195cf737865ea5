"""Write bench/reference.json: the discrete outputs of every pool input.

The reference records what the code produced when the benchmark was
defined, so that a later change which alters a chosen ARDL spec, an
integration order, a bounds decision, a Monte-Carlo rejection count or
an exit code shows up as a failed op.  Regenerate it only for an
intentional change of those outputs, and record that change.

    python3 bench/make_reference.py      # from the repository root, about 2 minutes
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in run.py, before numpy loads

import workloads as w  # noqa: E402
from ardlkit import cli  # noqa: E402


def pipeline_outcome(csv_path: Path, names, out: Path) -> dict:
    outcome = w.pipeline_op(w.pipeline_config(csv_path, names), out)
    if outcome != "ok":
        return {"outcome": outcome}
    return {"outcome": "ok", **w.discrete(json.loads((out / "report.json").read_text()))}


def cli_outcomes(csv_path: Path, config_path: Path, work: Path) -> dict:
    outcomes = {}
    for command in w.CLI_COMMANDS:
        out = work / f"cli_{command}"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(w.cli_argv(command, csv_path, config_path, out))
        doc = json.loads((out / "report.json").read_text()) if code == 0 else {}
        outcomes[command] = {"exit": code, **w.discrete(doc)}
    return outcomes


def main() -> None:
    work = ROOT / ".bench_out" / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        fixture = ROOT / "tests/data/fixture.csv"
        names = fixture.read_text().splitlines()[0].split(",")[1:]
        pipeline = {
            "fixture": pipeline_outcome(fixture, names, work / "fixture"),
            "pool": [pipeline_outcome(w.write_csv(w.pipeline_pool_dgp(i), work / "k5.csv"),
                                      names, work / "k5") for i in range(w.PIPELINE_POOL)],
        }
        mc = {test: [w.mc_op(test, w.mc_pool_dgp(j)) for j in range(w.MC_POOL)]
              for test in w.MC_TESTS}
        cli_ref = []
        for j in range(w.CLI_POOL):
            csv_path = w.write_csv(w.cli_pool_dgp(j), work / "k2.csv")
            config_path = work / "k2.json"
            config_path.write_text(json.dumps(
                {"data_path": str(csv_path), "dependent": "Y", "regressors": ["X1", "X2"]}))
            cli_ref.append(cli_outcomes(csv_path, config_path, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # one pool item per line, so a regenerated reference diffs readably
    def block(items) -> str:
        return "[\n" + ",\n".join("    " + json.dumps(x, sort_keys=True) for x in items) + "\n  ]"

    text = "{\n"
    text += f'  "pipeline_k5_fixture": {json.dumps(pipeline["fixture"], sort_keys=True)},\n'
    text += f'  "pipeline_k5_pool": {block(pipeline["pool"])},\n'
    text += ",\n".join(f'  "mc_unitroot_{t}": {block(mc[t])}' for t in w.MC_TESTS) + ",\n"
    text += f'  "cli_cold_k2": {block(cli_ref)}\n}}\n'
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(text)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
