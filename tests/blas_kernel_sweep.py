"""Rerun the tests that pin output bits under each OpenBLAS kernel set.

Run from the repository root:

    python3 tests/blas_kernel_sweep.py [pytest arguments]

numpy's OpenBLAS is a DYNAMIC_ARCH build: it picks its kernel set for
the CPU when it loads, and ``OPENBLAS_CORETYPE`` makes a process load
another one.  The SVDs, QRs and matrix products of two kernel sets can
differ in their last bits, so the goldens, the ``mc.csv`` digests and
the tests that compare a block's rows with one-row calls hold only
under some of them.  For each set in ``KERNELS`` the script runs pytest
in a subprocess of its own, one after the other, with
``OPENBLAS_NUM_THREADS=1``, on the tests in ``BIT_PINNING`` or, when
given, on the pytest arguments instead.  It prints one table row per
set (the set the library reports it loaded, read as
``regenerate_goldens.blas_kernel`` reads it, and the counts of passed
and failed tests), then each failed test with the sets it failed
under.  In another subprocess per set it renders the fixture pipeline
as json, as ``regenerate_goldens.py`` does, and prints one more table:
for each top-level section of ``tests/golden/json/report.json``, the
largest relative difference of the set's numbers from the golden's
(inf where a string, a flag or the shape differs).  It exits 0 whatever
it found.  Like ``line_trace.py`` it is not part of Tier-1.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNELS = ("Prescott", "Nehalem", "Sandybridge", "Haswell", "Zen", "SkylakeX")

BIT_PINNING = (
    "tests/test_acceptance.py::test_10_determinism_and_goldens",
    "tests/test_report.py::test_rendering_twice_into_one_directory_gives_the_goldens",
    "tests/test_cli.py::TestSubcommands::test_mc_csv_bits_are_pinned",
    "tests/test_synthetic.py::TestGenerate::test_fixture_regenerates_from_its_seed",
    "tests/test_unitroot.py::TestUnitRootBlock::test_first_sweep_chunk_keeps_its_bits",
    "tests/test_unitroot.py::TestUnitRootBlock::test_rows_equal_the_one_row_tests",
    "tests/test_unitroot.py::TestUnitRootBlock::test_a_failing_row_fails_alone",
    "tests/test_regression.py::TestPrefixRss::test_mixed_block_rows_match_their_one_row_blocks",
    "tests/test_regression.py::TestWaldF::test_block_rows_equal_one_row_calls",
    "tests/test_causality.py::TestCausalityMatrix::test_rows_equal_the_per_pair_tests",
)

GOLDEN_JSON = ROOT / "tests" / "golden" / "json" / "report.json"
PROBE = "from blas_kernel_sweep import probe; probe()"


def environment(kernel: str) -> dict:
    """This process's environment with ``kernel`` forced, one BLAS thread,
    and src/ and tests/ on the path."""
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def largest_difference(fresh, golden) -> float:
    """The largest relative difference |f - g| / |g| (|f - g| where g is 0)
    between the numbers of two json documents: 0 for equal documents, inf
    where the shapes or any other leaf differ."""
    if isinstance(golden, dict):
        if not isinstance(fresh, dict) or fresh.keys() != golden.keys():
            return math.inf
        return max((largest_difference(fresh[key], golden[key]) for key in golden), default=0.0)
    if isinstance(golden, list):
        if not isinstance(fresh, list) or len(fresh) != len(golden):
            return math.inf
        return max(map(largest_difference, fresh, golden), default=0.0)
    if type(golden) in (int, float) and type(fresh) in (int, float):
        if fresh == golden or (math.isnan(fresh) and math.isnan(golden)):
            return 0.0
        diff = abs(fresh - golden) / (abs(golden) or 1.0)
        return math.inf if math.isnan(diff) else diff
    return 0.0 if fresh == golden else math.inf


def probe() -> None:
    """Print as one JSON object the kernel set this process loaded and, for
    each section of the golden report.json, the largest relative
    difference of the fixture pipeline's report.json from it."""
    from ardlkit.cli import PipelineConfig, run_pipeline
    from ardlkit.report import render
    from regenerate_goldens import DATA, blas_kernel

    config = PipelineConfig(data_path=str(DATA / "fixture.csv"), dependent="Y",
                            regressors=("X1", "X2", "X3", "X4", "X5"))
    with tempfile.TemporaryDirectory() as out:
        render(run_pipeline(config), "json", out)
        fresh = json.loads((Path(out) / "report.json").read_text())
    golden = json.loads(GOLDEN_JSON.read_text())
    differences = {section: largest_difference(fresh.get(section), value)
                   for section, value in golden.items()}
    print(json.dumps({"loaded": blas_kernel(), "differences": differences}))


def count(summary: str, outcome: str) -> int:
    """The number pytest's summary line gives for ``outcome``, 0 if none."""
    found = re.search(rf"(\d+) {outcome}", summary)
    return int(found.group(1)) if found else 0


def sweep(kernel: str, args: list[str]) -> tuple[str, int, list[str], dict]:
    """(the kernel set loaded, tests passed, failures by name, each report
    section's largest relative difference from the golden) under ``kernel``."""
    env = environment(kernel)
    probed = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                            capture_output=True, text=True)
    found = json.loads(probed.stdout) if probed.returncode == 0 else {}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          *args], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    # "FAILED <node id> - <message>"; a parametrized id can hold spaces
    failures = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
                if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode < 0:
        failures.append(f"pytest ended by signal {-run.returncode}")
    summary = lines[-1] if lines else ""
    return (found.get("loaded") or "?", count(summary, "passed"), failures,
            found.get("differences", {}))


def main(args: list[str]) -> None:
    args = args or list(BIT_PINNING)
    results = {kernel: sweep(kernel, args) for kernel in KERNELS}
    print("| kernel | loaded | passed | failed |")
    print("|---|---|---|---|")
    for kernel, (loaded, passed, failures, _) in results.items():
        print(f"| `{kernel}` | `{loaded}` | {passed} | {len(failures)} |")
    failed_under: dict[str, list[str]] = {}
    for kernel, (_, _, failures, _) in results.items():
        for name in failures:
            failed_under.setdefault(name, []).append(kernel)
    for name, kernels in failed_under.items():
        print(f"{name}: {', '.join(kernels)}")
    sections = list(json.loads(GOLDEN_JSON.read_text()))
    print()
    print("| kernel | " + " | ".join(sections) + " |")
    print("|---" * (len(sections) + 1) + "|")
    for kernel, (*_, differences) in results.items():
        cells = [f"{differences[s]:.1e}" if s in differences else "?" for s in sections]
        print(f"| `{kernel}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
