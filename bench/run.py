"""ardlkit benchmark: three seeded workloads measured from outside the package.

    python3 bench/run.py --workload pipeline_k5 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0 --holdout-seed 9001

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half with spans
around every traced public function, and prints the per-module metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, sample counts, failures, self-test) is written to
``.bench_out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread, set before numpy loads, so a run never uses more than
# one core and children inherit the setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("pipeline_k5", "mc_unitroot", "cli_cold_k2")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout-seed", type=int, default=None,
                   help="also check the outputs of this seed's inputs (untimed)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ardlkit" / "__init__.py").is_file() or not (ROOT / "tests/data").is_dir():
        print(f"error: no ardlkit sources under {SRC}; run from an ardlkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ardlkit
    if Path(ardlkit.__file__).resolve().parent != (SRC / "ardlkit").resolve():
        print(f"error: imported ardlkit from {ardlkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    return harness.run_all(args) if args.workload == "all" else harness.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
