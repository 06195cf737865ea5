"""The 50-digit mpmath oracle behind the accuracy test of ``tail_probability``.

``points()`` lists every (distribution, statistic, df) the test evaluates,
and ``exact`` computes one upper tail at 50 significant digits.  Run as a
script, this writes the tails of all points to ``tests/data/tail_oracle.npy``
as double-doubles: row i holds hi = float(exact) and lo = float(exact - hi),
so hi + lo keeps about 32 of the 50 digits, far more than a relative error
near 1e-16 needs.

    python tests/tail_oracle.py      # from the repository root, about 15 s
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TABLE = Path(__file__).resolve().parent / "data" / "tail_oracle.npy"

SYMMETRIC = np.concatenate([np.linspace(-9.0, 9.0, 361), np.logspace(-6, 1.5, 40),
                            -np.logspace(-6, 1.5, 40)])
POSITIVE = np.concatenate([np.logspace(-8, 3, 441), np.linspace(0.05, 40.0, 800)])
CHI2_DF = (1, 2, 3, 7, 20, 50)
F_D1 = (1, 2, 4, 6)
F_D2 = (5, 30, 67, 72, 73, 76, 200)

# (d1, d2, F) behind the p-values of the fixture report: the bounds
# test's reference F (6 level terms, 72 residual df) and the ten
# pairwise Granger tests (lag, nobs - 2 * lag - 1).
FIXTURE_F_TRIPLES = [
    (6, 72, 6.856271846667381),
    (1, 76, 7.122924189973401),
    (1, 76, 4.286119154961761),
    (2, 73, 1.4619627784379738),
    (4, 67, 4.197739753289797),
    (1, 76, 2.2945963580474897),
    (2, 73, 2.5397151233336173),
    (1, 76, 9.890165968189153),
    (1, 76, 1.5190167962468284),
    (1, 76, 1.7186348133062208),
    (1, 76, 0.2393667769001557),
]
# The same eleven F as the difference of two fits' RSS gave them, before
# each F came from one QR: at most 1.6e-13 (relative) from the ones above,
# and kept on the grid as tail points of their own.
TWO_FIT_F_TRIPLES = [
    (6, 72, 6.856271846667391),
    (1, 76, 7.122924189973372),
    (1, 76, 4.286119154961754),
    (2, 73, 1.4619627784379727),
    (4, 67, 4.197739753289787),
    (1, 76, 2.2945963580474817),
    (2, 73, 2.5397151233336146),
    (1, 76, 9.890165968189164),
    (1, 76, 1.5190167962468204),
    (1, 76, 1.7186348133062017),
    (1, 76, 0.23936677690019298),
]


def points() -> list[tuple[str, float, object]]:
    """(distribution, statistic, df) of every tail in the table, in its order."""
    rows = [("normal", float(x), None) for x in SYMMETRIC]
    rows += [("chi2", float(x), df) for df in CHI2_DF for x in POSITIVE]
    rows += [("f", float(x), (d1, d2)) for d1 in F_D1 for d2 in F_D2 for x in POSITIVE]
    rows += [("f", f, (d1, d2)) for d1, d2, f in FIXTURE_F_TRIPLES + TWO_FIT_F_TRIPLES]
    return rows


def exact(dist: str, stat: float, df):
    """The upper tail P(S > stat) at 50 digits, as an mpmath number; for F,
    I_{d2 / (d2 + d1 f)}(d2 / 2, d1 / 2)."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(stat)
        if dist == "normal":
            return mpmath.ncdf(-x)
        if dist == "chi2":
            return mpmath.gammainc(mpmath.mpf(df) / 2, x / 2, mpmath.inf, regularized=True)
        d1, d2 = df
        return mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, d2 / (d2 + d1 * x),
                              regularized=True)


def double_double(value) -> tuple[float, float]:
    """hi = float(value) and lo = float(value - hi) of an mpmath number."""
    import mpmath

    with mpmath.workdps(50):
        hi = float(value)
        return hi, float(value - hi)


def main() -> None:
    table = np.array([double_double(exact(*point)) for point in points()])
    assert (table[:, 0] > 0).all(), "a tail underflows to zero"
    np.save(TABLE, table)
    print(f"wrote {TABLE} ({table.shape[0]} tails)")


if __name__ == "__main__":
    main()
