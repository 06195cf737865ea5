"""ADF, Phillips-Perron, and DF-GLS unit-root tests.

All three are left-tail tests of the unit-root null.  Critical values
come from the MacKinnon (2010) response surface (ADF, PP, and the
demeaned and no-deterministic DF-GLS cases) and the
Elliott-Rothenberg-Stock (1996) table for the detrended DF-GLS case.
Each test runs on a block of equal-length series through one kernel,
``unit_root_block``; ``adf``, ``pp`` and ``dfgls`` are its one-series case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ArdlkitError, DegenerateResiduals, DegenerateSeries, PossibleI2,
                     SeriesTooShort)
from .regression import (STARS, KernelSpec, bartlett_variances, first_minimum,
                         interpolate_in_inverse, ols_stack, prefix_plan, search_criteria)

TESTS = ("adf", "pp", "dfgls")

# MacKinnon (2010) response-surface coefficients, single series:
# cv = b0 + b1/T + b2/T^2 + b3/T^3 at 1%, 5%, 10%.
_MACKINNON_2010 = {
    "none": (
        (-2.56574, -2.2358, -3.627, 0.0),
        (-1.94100, -0.2686, -3.365, 31.223),
        (-1.61682, 0.2656, -2.714, 25.364),
    ),
    "constant": (
        (-3.43035, -6.5393, -16.786, -79.433),
        (-2.86154, -2.8903, -4.234, -40.040),
        (-2.56677, -1.5384, -2.809, 0.0),
    ),
    "constant_trend": (
        (-3.95877, -9.0531, -28.428, -134.155),
        (-3.41049, -4.3904, -9.036, -45.374),
        (-3.12705, -2.5856, -3.925, -22.380),
    ),
}

# Elliott-Rothenberg-Stock (1996), Table 1, detrended case; rows are
# sample sizes, columns 1%, 5%, 10%.  Interpolated linearly in 1/T.
_ERS_TREND = {
    50: (-3.77, -3.19, -2.89),
    100: (-3.58, -3.03, -2.74),
    200: (-3.46, -2.93, -2.64),
    10**9: (-3.48, -2.89, -2.57),
}

# Critical-value keys ("1%", ...) by test level; the tables cover no other level.
LEVEL_KEYS = {level: f"{level:.0%}" for level in STARS}


@dataclass(frozen=True)
class UnitRootReport:
    variable: str
    test: str
    deterministic: str
    lag_or_bandwidth: int
    statistic: float
    critical_values: dict[str, float]
    reject: dict[str, bool]

    def stars(self) -> str:
        return next((mark for lv, mark in STARS.items() if self.reject[LEVEL_KEYS[lv]]), "")


@dataclass(frozen=True)
class IntegrationDecision:
    variable: str
    order: str  # "I0" or "I1"
    evidence: tuple[UnitRootReport, UnitRootReport]


def mackinnon_critical_values(deterministic: str, nobs: int) -> dict[str, float]:
    coeffs = _MACKINNON_2010[deterministic]
    return {
        key: b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
        for key, (b0, b1, b2, b3) in zip(LEVEL_KEYS.values(), coeffs)
    }


def ers_critical_values(nobs: int) -> dict[str, float]:
    """The ERS trend table at nobs, clamped to its first and last rows."""
    return dict(zip(LEVEL_KEYS.values(), interpolate_in_inverse(_ERS_TREND, nobs)))


def _report(variable, test, deterministic, lag_or_bw, stat, cvs) -> UnitRootReport:
    reject = {key: bool(stat < cvs[key]) for key in LEVEL_KEYS.values()}
    return UnitRootReport(variable, test, deterministic, lag_or_bw, float(stat), cvs, reject)


def _deterministic_block(deterministic: str, n: int) -> np.ndarray:
    if deterministic == "none":
        return np.empty((n, 0))
    if deterministic == "constant":
        return np.ones((n, 1))
    if deterministic == "constant_trend":
        return np.column_stack([np.ones(n), np.arange(1, n + 1, dtype=float)])
    raise ValueError(f"unknown deterministic {deterministic!r}")


def _df_designs(Y: np.ndarray, deterministic: str, p: int):
    """Designs of the ADF regression with p augmentation lags, one per row
    of Y (R, n): the (R, n-1-p) left-hand sides and the stacked designs.

    Rows are aligned to t = p+1 .. n-1 (0-based).  Columns: y_{t-1},
    deterministic terms, then the p lagged differences.
    """
    dY = np.diff(Y, axis=1)
    m = dY.shape[1]
    terms = _deterministic_block(deterministic, m - p)
    base = 1 + terms.shape[1]
    X = np.empty((Y.shape[0], m - p, base + p))
    X[:, :, 0] = Y[:, p:-1]
    X[:, :, 1:base] = terms
    for j in range(p):
        X[:, :, base + j] = dY[:, p - j - 1:m - j - 1]
    return dY[:, p:], X


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
    ``bandwidth`` the PP long-run variance.  The rows share every
    factorization they can: one batched QR scores the lag search of all
    rows, the rows that choose the same lag are fitted by one
    ``ols_stack``, and so are the GLS detrending and PP's ADF(0)
    regressions.  Each row's numbers are bitwise those of its one-row
    block.
    """
    Y = np.asarray(block, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"block must be an (R, n) array, got shape {Y.shape}")
    n = Y.shape[1]
    if test == "pp":
        too_short = f"PP needs n >= 15, got {n}" if n < 15 else None
    elif test in ("adf", "dfgls"):
        max_lag = default_max_lag(n) if max_lag is None else max_lag
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        name = "ADF" if test == "adf" else "DF-GLS"
        too_short = (f"{name} needs n >= max_lag + 10 (n={n}, max_lag={max_lag})"
                     if n < max_lag + 10 else None)
    else:
        raise ValueError(f"unknown unit-root test {test!r}")
    if too_short is not None:
        return [SeriesTooShort(too_short) for _ in Y]
    flat = np.ptp(np.diff(Y, axis=1), axis=1) == 0
    outcomes: list = [DegenerateSeries() if f else None for f in flat]
    live = np.flatnonzero(~flat)
    if live.size:
        if test == "pp":
            done = _pp_rows(Y[live], deterministic, bandwidth)
        else:
            done = _df_rows(test, Y[live], deterministic, max_lag, criterion)
        for r, outcome in zip(live, done):
            outcomes[r] = outcome
    return outcomes


def _df_rows(test: str, Y: np.ndarray, deterministic: str, max_lag: int,
             criterion: str) -> list:
    """ADF, or DF-GLS on the GLS-detrended rows, for ``unit_root_block``.

    Each row's lag p minimizes the criterion over lags 0..max_lag, the
    nested column prefixes of the max-lag design on its common sample
    (one cached ``prefix_plan``), by ``first_minimum``.  The statistic is
    the Dickey-Fuller t-ratio of the ADF(p) regression on its own sample,
    so the rows that choose the same p share one fit.  Without
    deterministic terms the detrending is a no-op and DF-GLS is the
    no-constant Dickey-Fuller regression, so only its trend case takes
    the ERS table.
    """
    terms = deterministic
    if test == "dfgls":
        Y, terms = _gls_detrend_block(Y, deterministic), "none"
    lhs, X = _df_designs(Y, terms, max_lag)
    plan = prefix_plan(tuple(range(X.shape[2] - max_lag, X.shape[2] + 1)))
    lags = [first_minimum(scores) for scores in search_criteria(lhs, X, plan, criterion).tolist()]
    outcomes: list = [None] * len(lags)
    for p in sorted(set(lags)):
        rows = [r for r, q in enumerate(lags) if q == p]
        lhs, X = _df_designs(Y[rows], terms, p)
        fit = ols_stack(lhs, X)
        nobs = lhs.shape[1]
        if test == "dfgls" and deterministic == "constant_trend":
            cvs = ers_critical_values(nobs)
        else:
            cvs = mackinnon_critical_values(terms, nobs)
        for i, r in enumerate(rows):
            outcomes[r] = fit.singular.get(i) or _report("", test, deterministic, p,
                                                         fit.tstats[i, 0], dict(cvs))
    return outcomes


def _pp_rows(Y: np.ndarray, deterministic: str, bandwidth: int | str) -> list:
    """Phillips-Perron Z_t for ``unit_root_block``.

    The Dickey-Fuller regression is run without augmentation lags and
    serial correlation is absorbed through the Bartlett long-run
    variance of the residuals.
    """
    spec = KernelSpec(bandwidth=bandwidth)
    lhs, X = _df_designs(Y, deterministic, 0)
    fit = ols_stack(lhs, X)
    nobs = lhs.shape[1]
    bw = spec.resolve(nobs)
    cvs = mackinnon_critical_values(deterministic, nobs)
    outcomes: list = []
    for i, u in enumerate(fit.residuals):
        try:
            if i in fit.singular:
                raise fit.singular[i]
            gamma0, lam2 = bartlett_variances(u, bw)
            s2 = float(fit.rss[i]) / fit.df_resid
            if min(gamma0, lam2, s2) <= 0.0:  # an exact fit, or a zero long-run variance
                raise DegenerateResiduals()
        except ArdlkitError as exc:
            outcomes.append(exc)
            continue
        tau = fit.tstats[i, 0]
        z_tau = math.sqrt(gamma0 / lam2) * tau - 0.5 * (lam2 - gamma0) / math.sqrt(lam2) * (
            nobs * fit.stderr[i, 0] / math.sqrt(s2)
        )
        outcomes.append(_report("", "pp", deterministic, bw, z_tau, dict(cvs)))
    return outcomes


def _gls_detrend_block(Y: np.ndarray, deterministic: str) -> np.ndarray:
    """``gls_detrend`` of every row of Y (R, n): the rows share one
    quasi-differenced design, so one ``ols_stack`` fits them all."""
    n = Y.shape[1]
    cbar = -7.0 if deterministic == "constant" else -13.5
    a = 1.0 + cbar / n
    z = _deterministic_block(deterministic, n)
    if z.shape[1] == 0:  # nothing to detrend
        return Y.copy()
    zq = z.copy()
    zq[1:] = z[1:] - a * z[:-1]
    Yq = Y.copy()
    Yq[:, 1:] = Y[:, 1:] - a * Y[:, :-1]
    fit = ols_stack(Yq, zq[None])
    if fit.singular:
        raise fit.singular[0]
    return Y - (z @ fit.coef[..., None])[..., 0]


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
