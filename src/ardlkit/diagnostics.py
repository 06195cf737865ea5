"""Residual diagnostics and recursive-stability analysis.

Jarque-Bera (normality), Breusch-Godfrey LM (serial correlation) and
Breusch-Pagan-Godfrey (heteroscedasticity) on a fitted regression, plus
CUSUM and CUSUM-of-squares paths built from recursive residuals, with
their bounds from ``critical``.  For the three residual tests the null
is the desirable state, so a verdict of "pass" means p > level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .critical import critical_values
from .errors import AllZeroResiduals, DegenerateResiduals, RankDeficient
from .regression import (RANK_TOL, STARS, RegressionResult, ols, singular_value_ratio,
                         tail_probability)


class DiagnosticsReport(NamedTuple):
    jb: tuple[float, float]
    lm: tuple[float, float, int]
    bpg: tuple[float, float]
    verdicts: dict[str, str]
    level: float


class StabilityPath(NamedTuple):
    statistic: str  # "cusum" or "cusum_sq"
    t_index: tuple[int, ...]
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    stable: bool


def jarque_bera(residuals) -> tuple[float, float]:
    """Moment-based JB statistic with the classical biased kurtosis."""
    u = np.asarray(residuals, dtype=float).ravel()
    n = u.shape[0]
    if n < 4:
        raise DegenerateResiduals(f"JB needs n >= 4, got {n}")
    c = u - u.mean()
    m2 = float(np.mean(c**2))
    if m2 <= 0:
        raise DegenerateResiduals()
    skew = float(np.mean(c**3)) / m2**1.5
    kurt = float(np.mean(c**4)) / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return jb, tail_probability("chi2", jb, 2)


def breusch_godfrey(fit: RegressionResult, design, order: int = 2) -> tuple[float, float]:
    """LM test: n * R^2 of residuals on the design plus residual lags."""
    if order < 1:
        raise ValueError("order must be >= 1")
    u = fit.residuals
    X = np.atleast_2d(np.asarray(design, dtype=float))
    n, k = X.shape
    if n != u.shape[0]:
        raise ValueError("design and residuals have different lengths")
    if n <= k + order:
        raise DegenerateResiduals(f"BG with order {order} needs n > k + order")
    if np.ptp(u) == 0:
        return 0.0, 1.0
    lagged = np.zeros((n, order))
    for j in range(1, order + 1):
        lagged[j:, j - 1] = u[:-j]
    aux = ols(u, np.column_stack([X, lagged]))
    stat = n * aux.r2
    return float(stat), tail_probability("chi2", stat, order)


def breusch_pagan_godfrey(fit: RegressionResult, design) -> tuple[float, float]:
    """n * R^2 of squared residuals on the original design."""
    u = fit.residuals
    X = np.atleast_2d(np.asarray(design, dtype=float))
    n, k = X.shape
    if n != u.shape[0]:
        raise ValueError("design and residuals have different lengths")
    if n <= k:
        raise DegenerateResiduals("BPG needs n > k")
    aux = ols(u**2, X)
    stat = n * aux.r2
    return float(stat), tail_probability("chi2", stat, max(k - 1, 1))


def verdict(p: float, level: float = 0.05) -> str:
    """The null is the desirable state: p > level means "pass"."""
    return "pass" if p > level else "fail"


def diagnostics_report(fit: RegressionResult, design, bg_order: int = 2,
                       level: float = 0.05) -> DiagnosticsReport:
    jb = jarque_bera(fit.residuals)
    lm_stat, lm_p = breusch_godfrey(fit, design, bg_order)
    bpg = breusch_pagan_godfrey(fit, design)
    verdicts = {
        "normality": verdict(jb[1], level),
        "serial_correlation": verdict(lm_p, level),
        "heteroscedasticity": verdict(bpg[1], level),
    }
    return DiagnosticsReport(jb, (lm_stat, lm_p, bg_order), bpg, verdicts, level)


def recursive_residuals(y, X) -> np.ndarray:
    """One-step-ahead scaled prediction errors w_{k+1}..w_T.

    w_t = (y_t - x_t'b_{t-1}) / sqrt(f_t) with f_t = 1 + x_t'P x_t and
    P = (X_{t-1}'X_{t-1})^{-1}; under the true model with i.i.d.
    N(0, sigma^2) errors the w_t are i.i.d. N(0, sigma^2).

    P is never formed: the recursion carries a square-root factor S with
    P = S S', started as R^{-1} from a QR of the first k rows, and takes
    each new row by Potter's rank-one update
    S <- S - (S a) a' / (f + sqrt(f)) with a = S'x_t and f = 1 + a'a.
    Working with S rather than P keeps the condition number of the first
    block from being squared, so w is accurate to a few ulp instead of
    losing digits to the normal equations.  A first block that is singular
    by ``singular_value_ratio`` raises ``RankDeficient``.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, k = X.shape
    if n <= k:
        raise DegenerateResiduals("recursive residuals need n > k")
    head = X[:k]
    if singular_value_ratio(np.linalg.svd(head, compute_uv=False)) < RANK_TOL:
        raise RankDeficient(range(k))
    q, r = np.linalg.qr(head)
    s = np.linalg.inv(r)
    beta = s @ (q.T @ y[:k])
    w = np.empty(n - k)
    for t in range(k, n):
        xt = X[t]
        a = s.T @ xt
        f = 1.0 + a @ a
        root = math.sqrt(f)
        error = y[t] - xt @ beta
        gain = s @ a  # P x_t
        w[t - k] = error / root
        beta += gain * (error / f)
        s -= np.outer(gain / (f + root), a)
    return w


def cusum(y, X, level: float = 0.05) -> StabilityPath:
    """Cumulative sum of scaled recursive residuals with BDE bounds."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return cusum_path(recursive_residuals(y, X), X.shape[1], level)


def cusum_path(w, k: int, level: float = 0.05) -> StabilityPath:
    """CUSUM path of the recursive residuals w_{k+1}..w_T of a k-column
    design, as returned by ``recursive_residuals``."""
    w = np.asarray(w, dtype=float)
    m = w.shape[0]
    a = _bound("cusum", m, level)
    spread = np.ptp(w)
    if spread == 0 and w[0] == 0:
        sigma = 1.0  # exact fit: the path is identically zero
    else:
        # equal residuals (a single one among them) leave no spread to
        # scale by, and tiny ones can square to zero
        sigma = math.sqrt(float(np.sum((w - w.mean()) ** 2)) / (m - 1)) if spread else 0.0
        if sigma == 0:
            raise DegenerateResiduals("CUSUM needs recursive residuals that differ to "
                                      "estimate sigma")
    path = np.cumsum(w) / sigma
    steps = np.arange(1, m + 1, dtype=float)
    bound = a * math.sqrt(m) + 2.0 * a * steps / math.sqrt(m)
    stable = bool(np.all(np.abs(path) <= bound))
    return StabilityPath("cusum", tuple(range(k + 1, k + m + 1)), path, -bound, bound, stable)


def _bound(statistic: str, m: int, level: float) -> float:
    """The ``statistic``'s critical value for m recursive residuals."""
    if level not in STARS:
        raise ValueError(f"level must be one of {tuple(STARS)}")
    return critical_values("stability", statistic, m)[level]


def cusum_sq(y, X, level: float = 0.05) -> StabilityPath:
    """Cumulative sum of squared recursive residuals with c0 bounds."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return cusum_sq_path(recursive_residuals(y, X), X.shape[1], level)


def cusum_sq_path(w, k: int, level: float = 0.05) -> StabilityPath:
    """CUSUM-of-squares path of the recursive residuals w_{k+1}..w_T of a
    k-column design, as returned by ``recursive_residuals``."""
    w = np.asarray(w, dtype=float)
    m = w.shape[0]
    cumulative = np.cumsum(w**2)
    total = float(cumulative[-1])
    if total <= 0:
        raise AllZeroResiduals()
    # dividing by the running total's own last entry makes the terminal
    # value exactly 1.0 in floating point
    path = cumulative / total
    center = np.arange(1, m + 1, dtype=float) / m
    c0 = _bound("cusum_sq", m, level)
    lower = center - c0
    upper = center + c0
    stable = bool(np.all((path >= lower) & (path <= upper)))
    return StabilityPath("cusum_sq", tuple(range(k + 1, k + m + 1)), path, lower, upper, stable)
