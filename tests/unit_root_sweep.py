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
8.9e-14 * max(|t|, 1)).  It prints every
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
    "4246b71a1209bac836d6aaea57a3ea5fa0ded88887c186484748f5e0db63a07a",
    "214c68b8b7097839fb34394c8e0c1a505734c948cc8b786ab94321884540553b",
    "671a23f7f7f71a2c1154324b9bf651b604bc11aa32ccc8f5ad577006ebe98380",
    "ac68c3d63f985c470f3513ef40bdebffd775206db76222d1ea62552fd7200c9e",
    "a36717bb920777d044deb45516e14bec89077c0dd7b3dd942c63995d31eef2e7",
    "29de89f5e44fbd0755f3500521129b87b0e88e7983c3ca0df91d86d22f0e391c",
    "53eaae878f89ca4c99cad496980c285b1fca7ce76f477ff808d7ed4d5c100d27",
    "72612ea964bcc71874762612ef31f98ad9b1fa6e71d35b2778385d7723001984",
    "1919d8e1ca7b7011eac5e93fdff5374d2471e6355fd6fbb7dab08ce9c949795a",
    "57afe34068518aa49c79c666d64912a4f7f9f19aa630b78e7f8080a473d0ea7a",
    "c606a4d1b02fd842f97c59cdc370663ac10897a5a42384233fb2b6668ceeb7c9",
    "19bb72d651a2836c86ce53c25da19c33d71235f88d6e122b5e750a6fe780e0bc",
    "69b02736e8b64d51ed4ef66508823081daadbc8962061f686b87f1bccde78d11",
    "a3ce6641cfc419523e45aebfd36ba18b92aacb00f2360daf30dc7d85f0a5911b",
    "5c70507f1b54cb93ec14adf80f2bf0304f9ad582885b5fd04cd495e07e18d821",
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
