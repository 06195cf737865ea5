"""Check ``synthetic.normals`` bitwise against ``scipy.special.ndtri``.

Run from the repository root:

    PYTHONPATH=src python3 tests/ndtri_sweep.py

The sweep draws ROW splitmix64 uniforms for every seed of SEEDS,
4,000,000 in all, and compares each normal variate of ``normals`` with
scipy's ``ndtri`` of the same uniform, bit for bit.  About 27% of the
draws take cephes' tail branch and a few of them, below exp(-32), its
far-tail polynomial.  It prints every mismatch and exits 1 if there is
any.  The test suite runs the first seed through the same function
(``mismatches``).
"""

from __future__ import annotations

import sys

import numpy as np
from scipy.special import ndtri

from ardlkit.synthetic import normals, uniforms

SEEDS = range(40)
ROW = 100_000


def mismatches(seeds) -> list[str]:
    """One line per draw whose bits differ from scipy's, over ``seeds``."""
    out = []
    for seed in seeds:
        u = uniforms(seed, ROW)
        got, want = normals(seed, ROW), ndtri(u)
        for i in np.flatnonzero(got.view(np.uint64) != want.view(np.uint64)):
            out.append(f"seed {seed}, draw {i}: u = {u[i]!r}, normals {got[i]!r}, "
                       f"ndtri {want[i]!r}")
    return out


def main() -> int:
    found = mismatches(SEEDS)
    for line in found:
        print(line)
    print(f"{len(SEEDS) * ROW} draws, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
