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
under, and exits 0 whatever it found.  Like ``line_trace.py`` it is
not part of Tier-1.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
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

LOADED = "from regenerate_goldens import blas_kernel; print(blas_kernel())"


def environment(kernel: str) -> dict:
    """This process's environment with ``kernel`` forced, one BLAS thread,
    and src/ and tests/ on the path."""
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def count(summary: str, outcome: str) -> int:
    """The number pytest's summary line gives for ``outcome``, 0 if none."""
    found = re.search(rf"(\d+) {outcome}", summary)
    return int(found.group(1)) if found else 0


def sweep(kernel: str, args: list[str]) -> tuple[str, int, list[str]]:
    """(the kernel set loaded, tests passed, failures by name) under ``kernel``."""
    env = environment(kernel)
    loaded = subprocess.run([sys.executable, "-c", LOADED], cwd=ROOT, env=env,
                            capture_output=True, text=True)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          *args], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    # "FAILED <node id> - <message>"; a parametrized id can hold spaces
    failures = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
                if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode < 0:
        failures.append(f"pytest ended by signal {-run.returncode}")
    summary = lines[-1] if lines else ""
    return loaded.stdout.strip() or "?", count(summary, "passed"), failures


def main(args: list[str]) -> None:
    args = args or list(BIT_PINNING)
    results = {kernel: sweep(kernel, args) for kernel in KERNELS}
    print("| kernel | loaded | passed | failed |")
    print("|---|---|---|---|")
    for kernel, (loaded, passed, failures) in results.items():
        print(f"| `{kernel}` | `{loaded}` | {passed} | {len(failures)} |")
    failed_under: dict[str, list[str]] = {}
    for kernel, (_, _, failures) in results.items():
        for name in failures:
            failed_under.setdefault(name, []).append(kernel)
    for name, kernels in failed_under.items():
        print(f"{name}: {', '.join(kernels)}")


if __name__ == "__main__":
    main(sys.argv[1:])
