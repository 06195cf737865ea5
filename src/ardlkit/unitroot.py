"""ADF, Phillips-Perron, and DF-GLS unit-root tests.

All three are left-tail tests of the unit-root null.  Critical values
come from the MacKinnon (2010) response surface (ADF, PP, and the
demeaned and no-deterministic DF-GLS cases) and the
Elliott-Rothenberg-Stock (1996) table for the detrended DF-GLS case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, PossibleI2, SeriesTooShort
from .frame import lag_matrix
from .regression import (KernelSpec, bartlett_variances, first_minimum, interpolate_in_inverse,
                         ols, subset_criteria)

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

# Critical-value keys by test level; the tables cover no other level.
LEVEL_KEYS = {0.01: "1%", 0.05: "5%", 0.10: "10%"}


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
        if self.reject["1%"]:
            return "***"
        if self.reject["5%"]:
            return "**"
        if self.reject["10%"]:
            return "*"
        return ""


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


def _df_design(y: np.ndarray, deterministic: str, p: int):
    """Design of the ADF regression with p augmentation lags.

    Rows are aligned to t = p+1 .. n-1 (0-based).  Columns: y_{t-1},
    deterministic terms, then the p lagged differences.
    """
    dy = np.diff(y)
    rows = dy.shape[0] - p
    lhs = dy[p:]
    level = y[p:-1]
    blocks = [level[:, None], _deterministic_block(deterministic, rows)]
    if p > 0:
        blocks.append(lag_matrix(dy, p))
    X = np.column_stack([b for b in blocks if b.shape[1]])
    return lhs, X


def _select_adf_lag(y: np.ndarray, deterministic: str, max_lag: int, criterion: str) -> int:
    """Pick the augmentation lag by information criterion on a common sample:
    lags 0..max_lag are the nested column prefixes of the max-lag design,
    scored by ``subset_criteria`` and chosen by ``first_minimum``."""
    lhs, X = _df_design(y, deterministic, max_lag)
    base = X.shape[1] - max_lag
    prefixes = [list(range(base + p)) for p in range(max_lag + 1)]
    return first_minimum(subset_criteria(lhs, X, prefixes, criterion))


def default_max_lag(n: int) -> int:
    """Schwert's shorter rule floor(4 * (n/100)^(1/4)).

    The longer 12-multiplier rule lets AIC pick spurious long lags in
    samples near T = 100, pushing the empirical size of the 5% test
    above 6%; the 4-multiplier rule keeps it near nominal.
    """
    return int(math.floor(4.0 * (n / 100.0) ** 0.25))


def _checked_series(series, name: str, max_lag: int | None):
    """The series as a float vector and the resolved max_lag, once the
    input is long enough for the max-lag design and not degenerate."""
    y = np.asarray(series, dtype=float).ravel()
    n = y.shape[0]
    if max_lag is None:
        max_lag = default_max_lag(n)
    if n < max_lag + 10:
        raise SeriesTooShort(f"{name} needs n >= max_lag + 10 (n={n}, max_lag={max_lag})")
    if np.ptp(np.diff(y)) == 0:
        raise DegenerateSeries()
    return y, max_lag


def _df_statistic(y: np.ndarray, deterministic: str, max_lag: int, criterion: str):
    """The chosen lag p, the Dickey-Fuller t-ratio of the ADF(p) regression
    and its number of observations."""
    p = _select_adf_lag(y, deterministic, max_lag, criterion)
    lhs, X = _df_design(y, deterministic, p)
    return p, ols(lhs, X).tstats[0], lhs.shape[0]


def adf(series, deterministic: str = "constant", max_lag: int | None = None,
        criterion: str = "aic") -> UnitRootReport:
    """Augmented Dickey-Fuller test with IC-based lag selection."""
    y, max_lag = _checked_series(series, "ADF", max_lag)
    p, stat, nobs = _df_statistic(y, deterministic, max_lag, criterion)
    cvs = mackinnon_critical_values(deterministic, nobs)
    return _report("", "adf", deterministic, p, stat, cvs)


def pp(series, deterministic: str = "constant", bandwidth: int | str = "auto") -> UnitRootReport:
    """Phillips-Perron Z_t test.

    The Dickey-Fuller regression is run without augmentation lags and
    serial correlation is absorbed through the Bartlett long-run
    variance of the residuals.
    """
    y = np.asarray(series, dtype=float).ravel()
    n = y.shape[0]
    if n < 15:
        raise SeriesTooShort(f"PP needs n >= 15, got {n}")
    if np.ptp(np.diff(y)) == 0:
        raise DegenerateSeries()
    spec = KernelSpec(bandwidth=bandwidth)
    fit = ols(*_df_design(y, deterministic, 0))
    u = fit.residuals
    nobs = u.shape[0]
    bw = spec.resolve(nobs)
    gamma0, lam2 = bartlett_variances(u, bw)
    tau = fit.tstats[0]
    z_tau = math.sqrt(gamma0 / lam2) * tau - 0.5 * (lam2 - gamma0) / math.sqrt(lam2) * (
        nobs * fit.stderr[0] / math.sqrt(fit.s2)
    )
    cvs = mackinnon_critical_values(deterministic, nobs)
    return _report("", "pp", deterministic, bw, z_tau, cvs)


def gls_detrend(series, deterministic: str = "constant") -> np.ndarray:
    """Quasi-difference the series with abar = 1 - cbar/T and detrend."""
    y = np.asarray(series, dtype=float).ravel()
    n = y.shape[0]
    cbar = -7.0 if deterministic == "constant" else -13.5
    a = 1.0 + cbar / n
    z = _deterministic_block(deterministic, n)
    if z.shape[1] == 0:  # nothing to detrend
        return y.copy()
    zq = z.copy()
    zq[1:] = z[1:] - a * z[:-1]
    yq = y.copy()
    yq[1:] = y[1:] - a * y[:-1]
    return y - z @ ols(yq, zq).coef


def dfgls(series, deterministic: str = "constant", max_lag: int | None = None,
          criterion: str = "aic") -> UnitRootReport:
    """Elliott-Rothenberg-Stock GLS-detrended Dickey-Fuller test.

    Without deterministic terms the detrending is a no-op and the test is
    the no-constant Dickey-Fuller regression, so only the trend case takes
    the ERS table.
    """
    y, max_lag = _checked_series(series, "DF-GLS", max_lag)
    p, stat, nobs = _df_statistic(gls_detrend(y, deterministic), "none", max_lag, criterion)
    if deterministic == "constant_trend":
        cvs = ers_critical_values(nobs)
    else:
        cvs = mackinnon_critical_values("none", nobs)
    return _report("", "dfgls", deterministic, p, stat, cvs)


def integration_order(level_report: UnitRootReport, diff_report: UnitRootReport,
                      level: float = 0.05) -> IntegrationDecision:
    """Classify a variable as I(0) or I(1); both-fail is a hard error."""
    if level_report.test != diff_report.test:
        raise ValueError("level and difference reports come from different tests")
    if level_report.variable != diff_report.variable:
        raise ValueError("level and difference reports cover different variables")
    key = LEVEL_KEYS.get(level)
    if key is None:
        raise ValueError(f"integration decision level must be 1%, 5% or 10%, got {level}")
    if level_report.reject[key]:
        order = "I0"
    elif diff_report.reject[key]:
        order = "I1"
    else:
        raise PossibleI2(level_report.variable)
    return IntegrationDecision(level_report.variable, order, (level_report, diff_report))
