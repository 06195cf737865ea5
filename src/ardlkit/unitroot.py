"""ADF, Phillips-Perron, and DF-GLS unit-root tests.

All three are left-tail tests of the unit-root null.  Critical values
come from ``critical``: the MacKinnon (2010) response surface (ADF, PP,
and the demeaned and no-deterministic DF-GLS cases) and the
Elliott-Rothenberg-Stock (1996) table for the detrended DF-GLS case.
Each test runs on a block of equal-length series through one kernel,
``unit_root_block``; ``adf``, ``pp`` and ``dfgls`` are its one-series case.
Every statistic comes from one QR of its own regression: ADF and DF-GLS
read the Dickey-Fuller t-ratio off the chosen one (``regression.t_last``),
and PP reads it, and the residuals its long-run variance needs, off
ADF(0)'s.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .critical import LEVEL_KEYS, critical_values
from .errors import (ArdlkitError, DegenerateResiduals, DegenerateSeries, PossibleI2,
                     RankDeficient, SeriesTooShort, TooFewObservations)
from .regression import (RANK_TOL, STARS, _rank_deficiency, _raw_r, _tau, long_run_covariance,
                         prefix_plan, resolve_bandwidth, row_ranges, search_extremes,
                         singular_value_ratios, t_last)

TESTS = ("adf", "pp", "dfgls")


class UnitRootReport(NamedTuple):
    variable: str
    test: str
    deterministic: str
    lag_or_bandwidth: int
    statistic: float
    critical_values: dict[str, float]
    reject: dict[str, bool]

    def stars(self) -> str:
        return next((mark for lv, mark in STARS.items() if self.reject[LEVEL_KEYS[lv]]), "")


class IntegrationDecision(NamedTuple):
    variable: str
    order: str  # "I0" or "I1"
    evidence: tuple[UnitRootReport, UnitRootReport]


def _report(test, deterministic, lag_or_bw, stat, nobs) -> UnitRootReport:
    """The report of ``stat``, with its own dicts of critical values and
    decisions."""
    stat = float(stat)
    cvs = critical_values(test, deterministic, nobs)
    return UnitRootReport("", test, deterministic, lag_or_bw, stat, cvs,
                          {key: stat < cv for key, cv in cvs.items()})


@functools.lru_cache(maxsize=None)
def _deterministic_block(deterministic: str, n: int) -> np.ndarray:
    """The (n, d) deterministic columns, built once per shape and read-only."""
    if deterministic == "none":
        z = np.empty((n, 0))
    elif deterministic == "constant":
        z = np.ones((n, 1))
    elif deterministic == "constant_trend":
        z = np.column_stack([np.ones(n), np.arange(1, n + 1, dtype=float)])
    else:
        raise ValueError(f"unknown deterministic {deterministic!r}")
    z.flags.writeable = False
    return z


def _df_designs(Y: np.ndarray, dY: np.ndarray, deterministic: str, p: int):
    """Designs of the ADF regression with p augmentation lags, one per row
    of Y (R, n), from its differences dY (R, n-1): the (R, n-1-p)
    left-hand sides and the stacked designs.  The lag search scores its
    nested prefixes at p = max_lag; every statistic is read off
    ``_tau_designs``.

    Rows are aligned to t = p+1 .. n-1 (0-based).  Columns: y_{t-1},
    deterministic terms, then the p lagged differences.
    """
    m = dY.shape[1]
    terms = _deterministic_block(deterministic, m - p)
    base = 1 + terms.shape[1]
    X = np.empty((Y.shape[0], m - p, base + p))
    X[:, :, 0] = Y[:, p:-1]
    X[:, :, 1:base] = terms
    for j in range(p):
        X[:, :, base + j] = dY[:, p - j - 1:m - j - 1]
    return dY[:, p:], X


def _tau_designs(Y: np.ndarray, dY: np.ndarray, deterministic: str, p: int,
                 max_lag: int) -> np.ndarray:
    """The ADF regressions of ``_df_designs`` with p augmentation lags as
    the (R, n-1-p, k+1) stack [X | lhs] that ``t_last`` factors, with
    y_{t-1} moved last in X: the deterministic terms, the p lagged
    differences, y_{t-1}, then Delta y_t.

    The trend counts from 1 at the first row of the max-lag design, so on
    that design's rows each column of X is bitwise one of its leading
    columns; a trend's origin leaves the t-ratio as it is, in exact
    arithmetic.
    """
    m = dY.shape[1]
    terms = _deterministic_block(deterministic, m - p)
    d = terms.shape[1]
    if d == 2:
        terms = terms - (0.0, max_lag - p)
    A = np.empty((Y.shape[0], m - p, d + p + 2))
    A[:, :, :d] = terms
    for j in range(p):
        A[:, :, d + j] = dY[:, p - j - 1:m - j - 1]
    A[:, :, -2] = Y[:, p:-1]
    A[:, :, -1] = dY[:, p:]
    return A


def minimum_length(test: str, max_lag: int | None = None) -> int:
    """The shortest series ``test`` runs on: 15 for PP, and max_lag + 10
    for ADF and DF-GLS, which is 12 at the default max lag
    (``default_max_lag`` of the series' length).  Raises ``ValueError`` for
    an unknown test or a negative max_lag."""
    if test == "pp":
        return 15
    if test not in TESTS:
        raise ValueError(f"unknown unit-root test {test!r}")
    if max_lag is None:  # n - default_max_lag(n) never falls as n grows
        return next(n for n in itertools.count(10) if n >= default_max_lag(n) + 10)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    return max_lag + 10


def default_max_lag(n: int) -> int:
    """Schwert's shorter rule floor(4 * (n/100)^(1/4)).

    The longer 12-multiplier rule lets AIC pick spurious long lags in
    samples near T = 100, pushing the empirical size of the 5% test
    above 6%; the 4-multiplier rule keeps it near nominal.
    """
    return int(math.floor(4.0 * (n / 100.0) ** 0.25))


def unit_root_block(test: str, block, deterministic: str = "constant", *,
                    max_lag: int | None = None, criterion: str = "aic",
                    bandwidth: int | str = "auto") -> list[UnitRootReport | ArdlkitError]:
    """``test`` ("adf", "pp" or "dfgls") on every row of ``block``, an
    (R, n) array of equal-length series, with one outcome per row: its
    report, or the ``ArdlkitError`` that row raised.

    ``max_lag`` and ``criterion`` set the ADF and DF-GLS lag search,
    ``bandwidth`` the PP long-run variance.  A row whose differences hold
    a NaN or an infinity, or are all equal, fails alone with
    ``DegenerateSeries``, found by ``regression.row_ranges`` from one
    max/min pair over the block's one ``np.diff``.  That difference feeds
    every design at every lag (DF-GLS differences its detrended block
    once).  A block shorter than ``minimum_length`` gives every row
    ``SeriesTooShort``.  The rows share every factorization they can: one
    batched SVD without U and one batched QR score the lag search of all
    rows, one batched QR of the rows that choose the same lag gives their
    t-ratios, and one batched QR of PP's ADF(0) regressions gives their
    t-ratios and residuals.  What depends only on the shape is built once and
    cached: the deterministic columns, the critical values per (table,
    nobs) in ``critical``, and the SVD of the GLS quasi-differenced design
    per (deterministic, n).  Each row's numbers are bitwise those of its
    one-row block.
    """
    Y = np.asarray(block, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"block must be an (R, n) array, got shape {Y.shape}")
    n = Y.shape[1]
    if max_lag is None and test != "pp":
        max_lag = default_max_lag(n)
    shortest = minimum_length(test, max_lag)
    if n < shortest:
        name = {"adf": "ADF", "dfgls": "DF-GLS"}.get(test)
        too_short = (f"{name} needs n >= max_lag + 10 (n={n}, max_lag={max_lag})" if name
                     else f"PP needs n >= {shortest}, got {n}")
        return [SeriesTooShort(too_short) for _ in Y]
    dY = Y[:, 1:] - Y[:, :-1]
    outcomes: list = []
    for span in row_ranges(dY):
        if isinstance(span, tuple):
            span = DegenerateSeries() if span[0] == span[1] else None
        outcomes.append(span)
    live = [r for r, outcome in enumerate(outcomes) if outcome is None]
    if len(live) < len(outcomes):
        Y, dY = Y[live], dY[live]
    if live:
        if test == "pp":
            done = _pp_rows(Y, dY, deterministic, bandwidth)
        else:
            done = _df_rows(test, Y, dY, deterministic, max_lag, criterion)
        for r, outcome in zip(live, done):
            outcomes[r] = outcome
    return outcomes


def _df_rows(test: str, Y: np.ndarray, dY: np.ndarray, deterministic: str, max_lag: int,
             criterion: str) -> list:
    """ADF, or DF-GLS on the GLS-detrended rows, for ``unit_root_block``.

    Each row's lag p minimizes the criterion over lags 0..max_lag, the
    nested column prefixes of the max-lag design on its common sample
    (one cached ``prefix_plan``), picked by ``regression.search``, lag 0
    when every lag is NaN.  The statistic is the Dickey-Fuller t-ratio of
    the ADF(p) regression on its own sample, read off one QR of that
    regression by ``regression.t_last``; the rows that choose the same p
    share one batched QR.  The rank rule needs no second SVD where the
    search's bounds it: the ADF(p) design is the search design's leading
    columns on the common sample plus E, the max_lag - p rows that sample
    drops, so its singular-value ratio is at least
    s_min / sqrt(s_max**2 + ||E||_F**2), with s_min and s_max from the
    search's SVD.  Any row that bound does not clear is decided by its
    own SVD.  Without deterministic terms the detrending is a no-op and
    DF-GLS is the no-constant Dickey-Fuller regression, so only its trend
    case takes the ERS table.
    """
    terms = deterministic
    if test == "dfgls":
        Y, terms = _gls_detrend_block(Y, deterministic), "none"
        dY = Y[:, 1:] - Y[:, :-1]
    lhs, X = _df_designs(Y, dY, terms, max_lag)
    plan = prefix_plan(tuple(range(X.shape[2] - max_lag, X.shape[2] + 1)))
    picks, extremes = search_extremes(lhs, X, plan, criterion)
    groups: dict[int, list[int]] = {}
    for r, p in enumerate(picks):
        groups.setdefault(p or 0, []).append(r)
    outcomes: list = [None] * len(picks)
    for p in sorted(groups):
        rows = groups[p]
        A = (_tau_designs(Y, dY, terms, p, max_lag) if len(rows) == len(picks)
             else _tau_designs(Y[rows], dY[rows], terms, p, max_lag))
        # below its first max_lag - p rows, each design (A less its last
        # column) is the search's leading columns on the common sample:
        # its s_min is at least the search's, and those first rows add at
        # most their squares to s_max**2
        spill = np.square(A[:, :max_lag - p, :-1]).sum(axis=(1, 2)).tolist()
        floors = [None if extremes[r] is None
                  else extremes[r][0] / math.sqrt(extremes[r][1] * extremes[r][1] + e)
                  for r, e in zip(rows, spill)]
        nobs = A.shape[1]
        for r, tau in zip(rows, t_last(A, floors)):
            if isinstance(tau, RankDeficient):
                outcomes[r] = _in_search_order(tau, A.shape[2] - 1)
            else:
                outcomes[r] = _report(test, deterministic, p, tau, nobs)
    return outcomes


def _in_search_order(exc: RankDeficient, k: int) -> RankDeficient:
    """``exc`` of a k-column ``_tau_designs`` X, its columns named in the
    order of ``_df_designs``, where y_{t-1} comes first."""
    return RankDeficient(sorted(0 if c == k - 1 else c + 1 for c in exc.columns))


@functools.lru_cache(maxsize=None)
def _lower(k: int) -> np.ndarray:
    """The (k, k) lower-triangle mask, built once per k and read-only."""
    mask = np.tri(k)
    mask.flags.writeable = False
    return mask


def _pp_rows(Y: np.ndarray, dY: np.ndarray, deterministic: str, bandwidth: int | str) -> list:
    """Phillips-Perron Z_t for ``unit_root_block``.

    The Dickey-Fuller regression is run without augmentation lags and
    serial correlation is absorbed through the Bartlett long-run
    variance of the residuals.  That regression is ADF(0)'s
    [deterministic terms, y_{t-1} | Delta y_t] (``_tau_designs``), and one
    raw QR factors it as ``t_last`` does: R's y column gives tau and the
    exact-fit test (``regression._tau``), se / s is 1 / |R[k-1, k-1]|,
    and the triangular solve of R against its y column gives the
    coefficients, hence the residuals.  One SVD without U decides the rank
    rule, and a singular row fails alone.
    """
    A = _tau_designs(Y, dY, deterministic, 0, 0)
    nobs, k = A.shape[1], A.shape[2] - 1
    bw = resolve_bandwidth(bandwidth, nobs)
    ratios = singular_value_ratios(np.linalg.svd(A[:, :, :k], compute_uv=False))
    outcomes: list = [None if ratio >= RANK_TOL
                      else _in_search_order(_rank_deficiency(A[i, :, :k]), k)
                      for i, ratio in enumerate(ratios)]
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if len(live) < len(A):
        A = A[live]
    h = _raw_r(A)
    # R b = R's y column, R' being h's lower triangle
    coef = np.linalg.solve((h[:, :k, :k] * _lower(k)).transpose(0, 2, 1), h[:, k, :k, None])
    residuals = A[:, :, k] - (A[:, :, :k] @ coef)[..., 0]
    root_df = math.sqrt(nobs - k)
    for i, u, diagonal, column in zip(live, residuals, h[:, k - 1, k - 1].tolist(),
                                      h[:, k, :k + 1].tolist()):
        tau, exact = _tau(diagonal, column, root_df)
        try:
            lam2, _, gamma0 = map(float, long_run_covariance(u, bw))
            if exact or min(gamma0, lam2) <= 0.0:  # an exact fit, or a zero long-run variance
                raise DegenerateResiduals()
        except ArdlkitError as exc:
            outcomes[i] = exc
            continue
        z_tau = math.sqrt(gamma0 / lam2) * tau - 0.5 * (lam2 - gamma0) / math.sqrt(lam2) * (
            nobs / abs(diagonal)
        )
        outcomes[i] = _report("pp", deterministic, bw, z_tau, nobs)
    return outcomes


@functools.lru_cache(maxsize=None)
def _gls_factor(deterministic: str, n: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """abar = 1 + cbar/n and the SVD (U', s, V) of the quasi-differenced
    deterministic design, once per (deterministic, n) and read-only.  That
    design has full rank whenever n exceeds its width.  Raises
    ``TooFewObservations`` when it does not."""
    z = _deterministic_block(deterministic, n)
    if n <= z.shape[1]:
        raise TooFewObservations(n, z.shape[1])
    a = 1.0 + (-7.0 if deterministic == "constant" else -13.5) / n
    zq = z.copy()
    zq[1:] = z[1:] - a * z[:-1]
    u, s, vt = np.linalg.svd(zq[None], full_matrices=False)
    factor = (u.transpose(0, 2, 1), s[..., None], vt.transpose(0, 2, 1))
    for array in factor:
        array.flags.writeable = False
    return (a, *factor)


def _gls_detrend_block(Y: np.ndarray, deterministic: str) -> np.ndarray:
    """``gls_detrend`` of every row of Y (R, n): the rows share one
    quasi-differenced design, whose cached SVD fits them all."""
    n = Y.shape[1]
    z = _deterministic_block(deterministic, n)
    if z.shape[1] == 0:  # nothing to detrend
        return Y.copy()
    a, ut, s, v = _gls_factor(deterministic, n)
    Yq = Y.copy()
    Yq[:, 1:] = Y[:, 1:] - a * Y[:, :-1]
    coef = (v @ ((ut @ Yq[..., None]) / s))[..., 0]
    return Y - (z @ coef[..., None])[..., 0]


def _single(test: str, series, deterministic: str, **options) -> UnitRootReport:
    """``test`` on one series: the one-row ``unit_root_block``, its error raised."""
    [outcome] = unit_root_block(test, np.asarray(series, dtype=float).ravel()[None],
                                deterministic, **options)
    if isinstance(outcome, ArdlkitError):
        raise outcome
    return outcome


def adf(series, deterministic: str = "constant", max_lag: int | None = None,
        criterion: str = "aic") -> UnitRootReport:
    """Augmented Dickey-Fuller test with IC-based lag selection."""
    return _single("adf", series, deterministic, max_lag=max_lag, criterion=criterion)


def pp(series, deterministic: str = "constant", bandwidth: int | str = "auto") -> UnitRootReport:
    """Phillips-Perron Z_t test."""
    return _single("pp", series, deterministic, bandwidth=bandwidth)


def dfgls(series, deterministic: str = "constant", max_lag: int | None = None,
          criterion: str = "aic") -> UnitRootReport:
    """Elliott-Rothenberg-Stock GLS-detrended Dickey-Fuller test."""
    return _single("dfgls", series, deterministic, max_lag=max_lag, criterion=criterion)


def gls_detrend(series, deterministic: str = "constant") -> np.ndarray:
    """Quasi-difference the series with abar = 1 - cbar/T and detrend."""
    return _gls_detrend_block(np.asarray(series, dtype=float).ravel()[None], deterministic)[0]


def integration_order(level_report: UnitRootReport, diff_report: UnitRootReport,
                      level: float = 0.05) -> IntegrationDecision:
    """Classify a variable as I(0) or I(1); both-fail is a hard error."""
    if level_report.test != diff_report.test:
        raise ValueError("level and difference reports come from different tests")
    if level_report.variable != diff_report.variable:
        raise ValueError("level and difference reports cover different variables")
    key = LEVEL_KEYS.get(level)
    if key is None:
        raise ValueError(f"integration decision level must be one of {tuple(STARS)}, got {level}")
    if level_report.reject[key]:
        order = "I0"
    elif diff_report.reject[key]:
        order = "I1"
    else:
        raise PossibleI2(level_report.variable)
    return IntegrationDecision(level_report.variable, order, (level_report, diff_report))
