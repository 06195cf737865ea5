"""Every null table ardlkit reads, as data behind one lookup.

``critical_values(family, case, t)`` reads table (family, case) of
``TABLES`` at t: the sample size T of a unit-root test, the number m of
recursive residuals of a stability test, or the number k of regressors
of a bounds table.  A ``Table`` is a cubic in 1/T, or rows read linearly
in 1/t between them, as finite-sample critical values move like 1/T,
and by its own rules beyond them.  Each read is cached, and every call
returns its own dict.
"""

import functools
import itertools
import math
from typing import NamedTuple

from .errors import NoCriticalValues
from .regression import STARS

# Critical-value keys ("1%", ...) of the unit-root tables by test level.
LEVEL_KEYS = {level: f"{level:.0%}" for level in STARS}


class Table(NamedTuple):
    """Critical values from ``source``, one entry per level of ``levels``.
    ``rows`` is a response surface, per level (b0, b1, b2, b3) of
    cv = b0 + b1/T + b2/T^2 + b3/T^3, or a dict from t (named ``axis``) to
    rows.  Below a dict's first row ``below`` applies, above its last
    ``above``: "clamp" reads the nearest row, "sqrt" scales the last by
    sqrt(last / t), and "missing" raises ``NoCriticalValues``."""
    source: str
    levels: tuple
    rows: tuple | dict
    axis: str = "T"
    below: str = "missing"
    above: str = "missing"

    def read(self, t) -> tuple:
        if isinstance(self.rows, tuple):
            return tuple(b0 + b1 / t + b2 / t**2 + b3 / t**3 for b0, b1, b2, b3 in self.rows)
        first, last = min(self.rows), max(self.rows)
        if t > last and self.above == "sqrt":
            return tuple(c * math.sqrt(last / t) for c in self.rows[last])
        if t < first and self.below != "clamp" or t > last and self.above != "clamp":
            raise NoCriticalValues(f"no critical values at {self.axis} = {t}: the table covers "
                                   f"{self.axis} = {first}..{last} ({self.source})")
        t = min(max(t, first), last)
        if t in self.rows:
            return self.rows[t]
        lo, hi = next((lo, hi) for lo, hi in itertools.pairwise(sorted(self.rows)) if t <= hi)
        w = (1.0 / t - 1.0 / lo) / (1.0 / hi - 1.0 / lo)
        return tuple((1 - w) * a + w * b for a, b in zip(self.rows[lo], self.rows[hi]))


_UNIT_ROOT_LEVELS = tuple(LEVEL_KEYS.values())
_MACKINNON = "MacKinnon (2010), Dickey-Fuller response surfaces for one series"
_ERS = "Elliott, Rothenberg & Stock (1996), Table 1, detrended case"
_SIMULATED = "a 200k-replication simulation of cumulative normalized chi-square(1) spacings"
_PESARAN = "Pesaran, Shin & Smith (2001), Table CI(iii), asymptotic Case III"
# Bounds per level, (I(0) lower, I(1) upper), in the report's column order.
BOUNDS_LEVELS = (0.10, 0.05, 0.025, 0.01)
_PESARAN_CASE3 = {
    1: ((4.04, 4.78), (4.94, 5.73), (5.77, 6.68), (6.84, 7.84)),
    2: ((3.17, 4.14), (3.79, 4.85), (4.41, 5.52), (5.15, 6.36)),
    3: ((2.72, 3.77), (3.23, 4.35), (3.69, 4.89), (4.29, 5.61)),
    4: ((2.45, 3.52), (2.86, 4.01), (3.25, 4.49), (3.74, 5.06)),
    5: ((2.26, 3.35), (2.62, 3.79), (2.96, 4.18), (3.41, 4.68)),
}
# The embedded small-sample bounds at k = 5; their provenance is not recorded.
PAPER_BOUNDS_K5 = ((1.98, 3.01), (2.29, 3.24), (2.60, 3.71), (2.98, 3.99))

TABLES = {
    ("adf", "none"): Table(_MACKINNON, _UNIT_ROOT_LEVELS, (
        (-2.56574, -2.2358, -3.627, 0.0),
        (-1.94100, -0.2686, -3.365, 31.223),
        (-1.61682, 0.2656, -2.714, 25.364),
    )),
    ("adf", "constant"): Table(_MACKINNON, _UNIT_ROOT_LEVELS, (
        (-3.43035, -6.5393, -16.786, -79.433),
        (-2.86154, -2.8903, -4.234, -40.040),
        (-2.56677, -1.5384, -2.809, 0.0),
    )),
    ("adf", "constant_trend"): Table(_MACKINNON, _UNIT_ROOT_LEVELS, (
        (-3.95877, -9.0531, -28.428, -134.155),
        (-3.41049, -4.3904, -9.036, -45.374),
        (-3.12705, -2.5856, -3.925, -22.380),
    )),
    ("dfgls", "constant_trend"): Table(_ERS, _UNIT_ROOT_LEVELS, {
        50: (-3.77, -3.19, -2.89),
        100: (-3.58, -3.03, -2.74),
        200: (-3.46, -2.93, -2.64),
        10**9: (-3.48, -2.89, -2.57),
    }, below="clamp", above="clamp"),
    # the asymptotic constants a of the boundary a*sqrt(m) + 2a*t/sqrt(m)
    ("stability", "cusum"): Table("Brown, Durbin & Evans (1975)", tuple(STARS),
                                  {math.inf: (1.143, 0.948, 0.850)}, "m", below="clamp"),
    # c0 for max_t |S_t - t/m|; past the last row c0 falls like 1/sqrt(m)
    ("stability", "cusum_sq"): Table(_SIMULATED, tuple(STARS), {
        6: (0.65650, 0.55318, 0.48843),
        8: (0.61092, 0.50826, 0.45387),
        10: (0.56905, 0.47188, 0.42128),
        12: (0.53899, 0.44632, 0.39708),
        15: (0.49752, 0.41028, 0.36511),
        20: (0.44353, 0.36584, 0.32664),
        25: (0.40613, 0.33454, 0.29888),
        30: (0.37663, 0.31018, 0.27715),
        40: (0.33020, 0.27375, 0.24482),
        50: (0.29942, 0.24796, 0.22163),
        60: (0.27589, 0.22834, 0.20436),
        80: (0.24273, 0.20017, 0.17947),
        100: (0.21795, 0.18054, 0.16183),
        150: (0.18051, 0.14888, 0.13359),
        200: (0.15688, 0.13035, 0.11689),
        300: (0.12895, 0.10724, 0.09635),
        500: (0.10059, 0.08374, 0.07520),
    }, "m", below="clamp", above="sqrt"),
    ("embedded", "III"): Table(f"{_PESARAN}, with small-sample bounds at k = 5", BOUNDS_LEVELS,
                               {**_PESARAN_CASE3, 5: PAPER_BOUNDS_K5}, "k"),
    ("pesaran", "III"): Table(_PESARAN, BOUNDS_LEVELS, _PESARAN_CASE3, "k"),
}
# PP's Z_t shares the Dickey-Fuller surfaces of ADF; DF-GLS's demeaned case,
# like its no-deterministic one, reads the no-constant surface.
TABLES.update({("pp", case): table for (test, case), table in TABLES.items() if test == "adf"})
TABLES.update({("dfgls", case): TABLES["adf", "none"] for case in ("none", "constant")})


@functools.lru_cache(maxsize=None)
def _read(family: str, case: str, t) -> tuple:
    if (family, case) not in TABLES:
        raise ValueError(f"no critical-value table {family!r} for case {case!r}")
    return tuple(zip(TABLES[family, case].levels, TABLES[family, case].read(t)))


def critical_values(family: str, case: str, t) -> dict:
    """Table (family, case) at t as {level: value}, in the table's level
    order; ``NoCriticalValues`` where the table has no values at t."""
    return dict(_read(family, case, t))
