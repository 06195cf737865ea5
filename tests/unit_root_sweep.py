"""Pin the bits of every unit-root statistic against recorded digests.

Run from the repository root:

    PYTHONPATH=src python3 tests/unit_root_sweep.py

The sweep draws, at each T of SIZES, three splitmix-seeded series for
every seed of SEEDS: a random walk, an AR(1) (rho = 0.5), and the walk of
an AR(1) (rho = 0.6), whose serially correlated differences make the lag
searches choose longer lags.  It adds two series that fail: a straight
line (``DegenerateSeries``) and a constant but for its last value
(``RankDeficient`` in the ADF regression).  It runs ADF, PP and DF-GLS on
every series, for every deterministic case and, for ADF and DF-GLS, every
criterion, once a series at a time (``adf``, ``pp``, ``dfgls``) and once
on each T's block of all of them (``unit_root_block``).  Each outcome is
one line: the ``repr`` of the statistic, the lag or bandwidth, the
critical values and the decisions, or the error's type and message.

The seeds run in chunks of CHUNK, and each chunk's lines have one sha256
digest, recorded in DIGESTS when the sweep was written and recorded again
when ADF and DF-GLS began to read their t-ratio off one QR (every lag,
decision and error message kept; the statistics moved by at most
8.9e-14 * max(|t|, 1)), and again when PP began to read Z_t off the QR of
ADF(0)'s regression (only PP statistics moved, 6,980 of 60,480 lines, by
at most 9.6e-14 * max(|z|, 1)).  It prints every
chunk whose digest differs and exits 1 if there is any.  The test suite
runs the first chunk through the same function (``mismatches``).
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from ardlkit import errors, unitroot
from ardlkit.regression import CRITERIA
from ardlkit.synthetic import ar1, random_walk

SIZES = (33, 50, 100)
SEEDS = range(150)
CHUNK = 10
DETERMINISTIC = ("none", "constant", "constant_trend")
CASES = ([("pp", det, {}) for det in DETERMINISTIC]
         + [(test, det, {"criterion": kind}) for test in ("adf", "dfgls")
            for det in DETERMINISTIC for kind in CRITERIA])

# sha256 of each chunk's lines, chunk i holding SEEDS[i * CHUNK:(i + 1) * CHUNK]
DIGESTS = (
    "6001da523fc2d7c4ace6e56d1e2d98c1c9859c47c735a481d50ebd9d4015864e",
    "5eac4defda28c60d010ccddd5ead99a0948ad1dbd01a16482cc0bedb7a4042fa",
    "3c187368f8a15ece5b6949bc8049458a978082b59236402c9cded75b2f13c318",
    "3092f1eb7b6cdbbfc408d18cd21841f48254e1c78635ff1bc0acf7f36ed5c6e0",
    "dd8050244d2f791ac63667b1107e80a5d60a5fa3c7dae0203b2393a253a77f91",
    "a1c16dc7aafcfd10203fd9029cfc08d66e3b3c06afd3ba573e3b6392483bc859",
    "80d48b5c0a3b7a29999724aac442390233364f72d453c2973c7c2c806c11838a",
    "c451d8f48f925f0993aa3bfe4e6cbb4b232a9e44acc75ee5ae39fe8c64842ec1",
    "cb24a823a80b4356277bbc5645f97872ece400d87e7e6e33a819fcbccd835b48",
    "abcd90e10a6f5998cddbe57aa53b773780d2a5dad79144e7d5b851d9b258c3ac",
    "5b4144f476872346eb7f60bfb07cad590b384e0fa7b63da1a96537c3e4d68a86",
    "f5a721fb6026870537d79cb11a74299ab51010f491ac242a3b5683c05338fb54",
    "dab45173b462eae1897a6f05b6de14aeda5dabc76b699a4b6f95430950a2a2ac",
    "982240aade20ace49474f924f84a17c879e9449712135b6d7afc4fefc1da8cb3",
    "e0bb80757c157ee711b1063d2db209b8133fd80e1ccf08a3355c25c33c167aff",
)


def block(seeds, T: int) -> np.ndarray:
    """The (3 len(seeds) + 2, T) block of a chunk at size T."""
    seeds = list(seeds)
    stuck = np.full(T, 2.0)
    stuck[-1] = 3.0
    return np.vstack([random_walk(T, seeds), ar1(T, [s + 1_000_000 for s in seeds], 0.5),
                      np.cumsum(ar1(T, [s + 2_000_000 for s in seeds], 0.6), axis=1),
                      np.arange(T, dtype=float), stuck])


def outcome_text(outcome) -> str:
    if isinstance(outcome, errors.ArdlkitError):
        return f"{type(outcome).__name__}: {outcome}"
    return (f"{outcome.statistic!r} {outcome.lag_or_bandwidth} {outcome.critical_values!r} "
            f"{outcome.reject!r}")


def one_row(test: str, y, deterministic: str, options: dict):
    try:
        return getattr(unitroot, test)(y, deterministic, **options)
    except errors.ArdlkitError as exc:
        return exc


def lines(seeds) -> list[str]:
    """One line per outcome of every case on the chunk ``seeds``."""
    out = []
    for T in SIZES:
        Y = block(seeds, T)
        for test, det, options in CASES:
            label = f"T={T} {test} {det} {options.get('criterion', '')}"
            out += [f"{label} row {i}: {outcome_text(one_row(test, y, det, options))}"
                    for i, y in enumerate(Y)]
            out += [f"{label} block {i}: {outcome_text(outcome)}"
                    for i, outcome in enumerate(unitroot.unit_root_block(test, Y, det, **options))]
    return out


def chunks() -> list[range]:
    return [SEEDS[lo:lo + CHUNK] for lo in range(0, len(SEEDS), CHUNK)]


def digest(seeds) -> str:
    return hashlib.sha256("\n".join(lines(seeds)).encode()).hexdigest()


def mismatches(indices) -> list[str]:
    """One line per chunk of ``indices`` whose digest is not the recorded one."""
    every = chunks()
    return [f"chunk {i} (seeds {every[i].start}-{every[i].stop - 1}): digest {got}, "
            f"recorded {DIGESTS[i]}"
            for i in indices if (got := digest(every[i])) != DIGESTS[i]]


def main() -> int:
    found = mismatches(range(len(chunks())))
    for line in found:
        print(line)
    print(f"{len(chunks())} chunks, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
