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
digest, recorded in DIGESTS when the sweep was written.  It prints every
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
    "a330b17661897b1222158b0320088c411b73bf90a3e24ff4ed880b7e972f139f",
    "a1a906d1d0bf1af5f45ad50cf2a1a7a97b9a21f169354198ed47fcba4d815e73",
    "8804f4e71be7476fbf7a2e162e8d3ad9636d8e1658147fd0e26ad690302f31cc",
    "3982786e612bbe571c84856dd7d2c7c5721a65ef89f26cec86c2b2bb1eb1467a",
    "0e5b9e1f3352a6a80128b1a55e764070c733b17a58cedaf61064dc169b4c380b",
    "f37e087bdf88326bdab74ddd67aa9d24c00887b3de6f47c7589e89e52a0f8639",
    "5897becd49ce77575fae9c6fef0192807cf2f30ebefd6812ee10043df5a82e25",
    "991a34e63023a185ca0dddd0c32cad8f930f519ece42472f50adf568d3cdc3a2",
    "46cfe46187b4eece85bd3c254b54d57aea6e94dc52c322cfd038836d74369e8c",
    "eb0bd3b1a70234e96a4af867cf2eb30be93703b8bdc68859c76a417f1abb3273",
    "b93c63b4ea0f8327d54d7cbdea5b6d3938a9110be7aa1919e2b1e366fc3016b1",
    "76b21df123496ef20d7ff48e477073ed512a790ddf281caa3cde4a57b4d28e3c",
    "9f6564e80c57e183c3816ec19070d2430a3d3480c7417b775dcaf53b6e0b06fe",
    "8513924d47eaef4ddb0ccda75a243eb03821e0839b1a03c2d2a2ec187f0685a8",
    "0b8e861b8ccf77b6229f35b20d4c9d6d7eae400d1861488a17c4192d11d52813",
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
