"""Pairwise Granger causality tests.

The null "x does not Granger-cause y" is an F-test on the block of x
lags in a bivariate autoregression of y.  p < alpha is evidence of
causality; the report legend follows the statistics, not prose
conventions.

Every test runs through one kernel, ``granger_block``, on a block of
equal-length (cause, effect) pairs: one ``regression.search`` call picks
the lag of every pair, and the pairs that use the same lag share one
``regression.wald_f``, which takes each F from one QR of the
unrestricted model.  ``causality_matrix`` makes one call on a
frame's 2k ordered pairs; ``select_granger_lag`` and ``granger_pair`` are
the one-pair case.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import ArdlkitError, SeriesTooShort, TooFewObservations
from .frame import TimeSeriesFrame
from .regression import STARS, prefix_plan, row_ranges, search, wald_f


class CausalityReport(NamedTuple):
    cause: str
    effect: str
    lag: int
    nobs: int
    f_stat: float
    p: float
    reject_at: dict[float, bool]
    error: str | None = None


def _granger_designs(causes: np.ndarray, effects: np.ndarray, lag: int):
    """(lhs, design) of the unrestricted model of every pair, rows of the
    (R, n) ``causes`` and ``effects``: the (R, n - lag) left-hand sides and
    the designs of a constant, then ``lag`` lags of the effect, then ``lag``
    lags of the cause, which are the columns the F-test tests."""
    n = effects.shape[1]
    X = np.empty((effects.shape[0], n - lag, 1 + 2 * lag))
    X[:, :, 0] = 1.0
    for j in range(1, lag + 1):
        X[:, :, j] = effects[:, lag - j:n - j]
        X[:, :, lag + j] = causes[:, lag - j:n - j]
    return effects[:, lag:], X


def granger_block(causes, effects, labels, lag: int | str) -> list[CausalityReport | ArdlkitError]:
    """Whether row r of ``causes`` Granger-causes row r of ``effects``, both
    (R, n) arrays, for every r, with one outcome per row: its report,
    labelled by the (cause, effect) names ``labels[r]``, or the
    ``ArdlkitError`` that row raised.

    ``lag`` is a fixed lag, or "auto" for each pair's lag as
    ``select_granger_lag`` picks it with its defaults (AIC over 1..4).  A
    pair whose cause or effect holds a NaN or an infinity fails alone
    with ``DegenerateSeries`` before any factorization.  One
    ``regression.search`` call picks the lag of every other pair, and the
    pairs that use the same lag share one ``wald_f``.  Each row's numbers
    are bitwise those of its one-row block.
    """
    causes = np.asarray(causes, dtype=float)
    effects = np.asarray(effects, dtype=float)
    if not len(effects):
        return []
    outcomes = _nonfinite(causes, effects)
    live = [r for r, outcome in enumerate(outcomes) if outcome is None]
    if lag == "auto":
        try:
            lags = _search_lags(causes[live], effects[live], 4, "aic") if live else []
        except SeriesTooShort as exc:  # the rows share n, so they fail alike
            return [outcome or exc for outcome in outcomes]
    elif int(lag) < 1:
        raise ValueError("lag must be >= 1")
    else:
        lags = [int(lag)] * len(live)
    for use in sorted(set(lags)):
        rows = [r for r, q in zip(live, lags) if q == use]
        done = _fit_rows(causes[rows], effects[rows], use, [labels[r] for r in rows])
        for r, outcome in zip(rows, done):
            outcomes[r] = outcome
    return outcomes


def _nonfinite(causes: np.ndarray, effects: np.ndarray) -> list:
    """``DegenerateSeries`` for each pair whose cause or effect holds a NaN
    or an infinity, None for the others: ``regression.row_ranges`` over
    the differences of both series.  A pair too short to difference has
    nothing to screen; the lag checks reject it."""
    if effects.shape[1] < 2:
        return [None] * len(effects)
    spans = row_ranges(np.diff(np.stack([causes, effects], axis=1), axis=2))
    return [None if isinstance(span, tuple) else span for span in spans]


def _search_lags(causes: np.ndarray, effects: np.ndarray, max_lag: int,
                 criterion: str) -> list[int]:
    """Each pair's lag for ``granger_block``: the first minimum of the
    criterion of the unrestricted model over lags 1..max_lag, on the
    common sample of the max-lag design.  max_lag is capped at
    max(1, (n - 3) // 2).  With that design's columns in the order
    [const, y_1, x_1, y_2, x_2, ...], the design for each lag is a column
    prefix, so ``regression.search`` scores every lag of every pair from
    one cached ``prefix_plan`` and picks each pair's lag; a lag that
    ``ols`` rejects is skipped, and a pair whose every lag is rejected
    takes lag 1."""
    n = effects.shape[1]
    max_lag = min(max_lag, max(1, (n - 3) // 2))
    if max_lag < 1:
        raise ValueError("max lag must be >= 1")
    if n <= max_lag:
        raise SeriesTooShort(f"need more than {max_lag} observations for {max_lag} lags, got {n}")
    lhs, X = _granger_designs(causes, effects, max_lag)
    order = [0, *(c for lag in range(1, max_lag + 1) for c in (lag, max_lag + lag))]
    plan = prefix_plan(tuple(range(3, 2 * max_lag + 2, 2)))
    return [1 + (i or 0) for i in search(lhs, X[..., order], plan, criterion)]


def _fit_rows(causes: np.ndarray, effects: np.ndarray, lag: int, labels) -> list:
    """The F-tests of ``granger_block`` for pairs at one lag, on the lag's
    own sample: one ``wald_f`` of every pair's unrestricted design, whose
    last ``lag`` columns, the cause's lags, are the tested block."""
    n = effects.shape[1]
    if n <= 2 * lag + 2:
        return [SeriesTooShort(f"Granger test with lag {lag} needs n > {2 * lag + 2}, got {n}")
                for _ in labels]
    lhs, X = _granger_designs(causes, effects, lag)
    try:
        walds = wald_f(lhs, X, lag)
    except TooFewObservations as exc:  # the rows share their shape, so they fail alike
        return [exc] * len(labels)
    return [wald if isinstance(wald, ArdlkitError) else
            CausalityReport(cause, effect, lag, lhs.shape[1], wald.f, wald.p,
                            {lv: wald.p < lv for lv in STARS})
            for wald, (cause, effect) in zip(walds, labels)]


def _one_pair(x, y):
    """x and y as (1, n) blocks, trimmed to their common tail of n points."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = min(x.shape[0], y.shape[0])
    return x[x.shape[0] - n:][None], y[y.shape[0] - n:][None]


def granger_pair(x, y, lag: int, cause: str = "x", effect: str = "y") -> CausalityReport:
    """Test whether lags of x improve prediction of y beyond y's own lags:
    the one-pair ``granger_block`` at the fixed ``lag``, its error raised.
    Series of unequal length are trimmed to their common tail."""
    [outcome] = granger_block(*_one_pair(x, y), [(cause, effect)], operator.index(lag))
    if isinstance(outcome, ArdlkitError):
        raise outcome
    return outcome


def select_granger_lag(x, y, max_lag: int = 4, criterion: str = "aic") -> int:
    """Minimize the criterion of the unrestricted model on a common sample:
    the one-pair lag search of ``granger_block``.  Series of unequal
    length are trimmed to their common tail, as in ``granger_pair``; a
    NaN or an infinity in either raises ``DegenerateSeries``."""
    causes, effects = _one_pair(x, y)
    [error] = _nonfinite(causes, effects)
    if error is not None:
        raise error
    [lag] = _search_lags(causes, effects, max_lag, criterion)
    return lag


def causality_matrix(frame: TimeSeriesFrame, variables, dependent: str,
                     lag: int | str = "auto") -> list[CausalityReport]:
    """Both directions for every (variable, dependent) pair, from one
    ``granger_block`` call on every ordered pair.

    A failed pair is reported as an errored row; the rest proceed.  A
    variable that is the dependent gives two errored rows, and an unknown
    one raises ``UnknownVariable``.
    """
    dep = frame.column(dependent)
    labels, causes, effects = [], [], []
    for name in variables:
        if name != dependent:
            other = frame.column(name)
            labels += [(name, dependent), (dependent, name)]
            causes += [other, dep]
            effects += [dep, other]
    outcomes = iter(granger_block(causes, effects, labels, lag))
    reports: list[CausalityReport] = []
    for name in variables:
        for cause, effect in ((name, dependent), (dependent, name)):
            if name == dependent:
                reports.append(_errored(cause, effect, "variable equals the dependent"))
                continue
            outcome = next(outcomes)
            reports.append(_errored(cause, effect, str(outcome))
                           if isinstance(outcome, ArdlkitError) else outcome)
    return reports


def _errored(cause: str, effect: str, message: str) -> CausalityReport:
    return CausalityReport(cause, effect, 0, 0, math.nan, math.nan,
                           dict.fromkeys(STARS, False), error=message)


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
