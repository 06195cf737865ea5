from pathlib import Path

import numpy as np
import pytest

from ardlkit.frame import TimeSeriesFrame
from ardlkit.synthetic import ecm_system, normals, random_walk

TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
GOLDEN_DIR = TESTS_DIR / "golden"
FIXTURE_CSV = DATA_DIR / "fixture.csv"
PIPELINE_CONFIG = DATA_DIR / "pipeline.json"


def make_frame(columns: dict, start_year: int = 1900) -> TimeSeriesFrame:
    n = len(next(iter(columns.values())))
    return TimeSeriesFrame(
        tuple(range(start_year, start_year + n)),
        {k: np.asarray(v, dtype=float) for k, v in columns.items()},
    )


@pytest.fixture
def coint_frame() -> TimeSeriesFrame:
    """A seeded bivariate cointegrated system, T = 200."""
    return make_frame(ecm_system(200, 7, beta=(2.0,), alpha=-0.3))


def trend_linked_frame(T: int = 40) -> TimeSeriesFrame:
    """Y, X1 and X2 = 2 X1 + t, X1 a seeded walk.  The static design
    [X1, X2, 1] has full rank, but dX2 = 2 dX1 + 1, so the regressor block
    of the differences' long-run covariance is singular."""
    x1 = random_walk(T, 3)
    x2 = 2.0 * x1 + np.arange(T)
    return make_frame({"Y": 0.5 * x1 + 0.2 * x2 + normals(5, T), "X1": x1, "X2": x2})


def differenced_residual_frame(T: int = 40) -> TimeSeriesFrame:
    """Y = 1 + X/2 + u with u[1:] = dX + b and u orthogonal to [X, 1], so
    the static OLS residuals are u and the short-run covariance of
    (u[1:], dX) is singular while dX's long-run variance is not."""
    x = random_walk(T, 3)
    dx = np.diff(x)
    # u[0] and b solve sum(u) = 0 and u @ x = 0
    u0, b = np.linalg.solve([[1.0, T - 1.0], [x[0], x[1:].sum()]],
                            [-dx.sum(), -(dx @ x[1:])])
    return make_frame({"Y": 1.0 + 0.5 * x + np.concatenate([[u0], dx + b]), "X1": x})


def exact_ecm_frame(T: int = 60) -> TimeSeriesFrame:
    """Y from an error-correction recursion on X1, a seeded walk, with no
    error term: dY(t) = 0.5 - 0.4 (Y(t-1) - 2 X1(t-1)) + 0.3 dX1(t-1), so
    ARDL(1, 1)'s conditional regression, and any that holds its columns,
    fits dY exactly."""
    x = random_walk(T, 3)
    y = np.empty(T)
    y[:2] = 1.0, 1.2
    for t in range(2, T):
        y[t] = y[t - 1] + 0.5 - 0.4 * (y[t - 1] - 2.0 * x[t - 1]) + 0.3 * (x[t - 1] - x[t - 2])
    return make_frame({"Y": y, "X1": x})
