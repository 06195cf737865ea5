"""Pairwise Granger causality tests.

The null "x does not Granger-cause y" is an F-test on the block of x
lags in a bivariate autoregression of y.  p < alpha is evidence of
causality; the report legend follows the statistics, not prose
conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArdlkitError, SeriesTooShort
from .frame import TimeSeriesFrame, lag_matrix
from .regression import first_minimum, ols, subset_criteria, wald_f_zero

REPORT_LEVELS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class CausalityReport:
    cause: str
    effect: str
    lag: int
    nobs: int
    f_stat: float
    p: float
    reject_at: dict[float, bool]
    error: str | None = None


def _granger_design(x: np.ndarray, y: np.ndarray, lag: int):
    ylags = lag_matrix(y, lag)
    xlags = lag_matrix(x, lag)
    lhs = y[lag:]
    const = np.ones(lhs.shape[0])
    unrestricted = np.column_stack([const, ylags, xlags])
    restricted = np.column_stack([const, ylags])
    return lhs, unrestricted, restricted


def granger_pair(x, y, lag: int, cause: str = "x", effect: str = "y") -> CausalityReport:
    """Test whether lags of x improve prediction of y beyond y's own lags."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if lag < 1:
        raise ValueError("lag must be >= 1")
    n = min(x.shape[0], y.shape[0])
    if n <= 2 * lag + 2:
        raise SeriesTooShort(f"Granger test with lag {lag} needs n > {2 * lag + 2}, got {n}")
    x, y = x[-n:], y[-n:]
    lhs, xu, xr = _granger_design(x, y, lag)
    fit_u = ols(lhs, xu)
    fit_r = ols(lhs, xr)
    subset = tuple(range(1 + lag, 1 + 2 * lag))
    wald = wald_f_zero(fit_u, subset, fit_r.rss)
    reject = {lv: wald.p < lv for lv in REPORT_LEVELS}
    return CausalityReport(cause, effect, lag, lhs.shape[0], wald.f, wald.p, reject)


def select_granger_lag(x, y, max_lag: int = 4, criterion: str = "aic") -> int:
    """Minimize the criterion of the unrestricted model on a common sample.

    Series of unequal length are trimmed to their common tail, as in
    ``granger_pair``.  The design for each lag is a column subset of the
    max-lag design, so ``subset_criteria`` scores every lag from that one
    design; a lag that ``ols`` rejects is skipped, and ``first_minimum``
    picks the lag.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = min(x.shape[0], y.shape[0])
    x, y = x[-n:], y[-n:]
    max_lag = min(max_lag, max(1, (n - 3) // 2))
    lhs_common = y[max_lag:]
    X = np.column_stack([np.ones(lhs_common.shape[0]), lag_matrix(y, max_lag),
                         lag_matrix(x, max_lag)])
    subsets = [[0, *range(1, 1 + lag), *range(1 + max_lag, 1 + max_lag + lag)]
               for lag in range(1, max_lag + 1)]
    return 1 + first_minimum(subset_criteria(lhs_common, X, subsets, criterion))


def causality_matrix(frame: TimeSeriesFrame, variables, dependent: str,
                     lag: int | str = "auto") -> list[CausalityReport]:
    """Both directions for every (variable, dependent) pair.

    A failed pair is reported as an errored row; the rest proceed.
    """
    dep = frame.column(dependent)
    reports: list[CausalityReport] = []
    for name in variables:
        if name == dependent:
            reports.append(_errored(name, dependent, "variable equals the dependent"))
            reports.append(_errored(dependent, name, "variable equals the dependent"))
            continue
        other = frame.column(name)
        for cause, effect, cx, cy in (
            (name, dependent, other, dep),
            (dependent, name, dep, other),
        ):
            try:
                use_lag = select_granger_lag(cx, cy) if lag == "auto" else int(lag)
                reports.append(granger_pair(cx, cy, use_lag, cause, effect))
            except ArdlkitError as exc:
                reports.append(_errored(cause, effect, str(exc)))
    return reports


def _errored(cause: str, effect: str, message: str) -> CausalityReport:
    return CausalityReport(cause, effect, 0, 0, math.nan, math.nan,
                           {lv: False for lv in REPORT_LEVELS}, error=message)


def classify_direction(forward: CausalityReport, backward: CausalityReport,
                       level: float = 0.05) -> str:
    """bidirectional / unidirectional / none for a pair of reports."""
    if forward.error or backward.error:
        return "error"
    f_sig = forward.p < level
    b_sig = backward.p < level
    if f_sig and b_sig:
        return "bidirectional"
    if f_sig or b_sig:
        return "unidirectional"
    return "none"
