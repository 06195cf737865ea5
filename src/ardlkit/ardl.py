"""ARDL lag selection, the conditional level regression, the bounds
F-test, long-run coefficients, and the two-step error-correction model.

The conditional regression explains the differenced dependent variable
with an intercept, one lag of every variable in levels, lagged
differences of the dependent variable (p-1 of them), and lagged
differences of each regressor (q_i of them).  The bounds test is a Wald
F on the joint nullity of the level block.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .critical import BOUNDS_LEVELS, TABLES, critical_values
from .errors import NearSingularAdjustment, NoFeasibleSpec, RankDeficient
from .frame import ModelSpec, TimeSeriesFrame
from .regression import (RegressionResult, first_minimum, ols, search_criteria, search_plan,
                         wald_f_zero)

# The critical-bounds tables bounds_test takes.
BOUNDS_TABLES = tuple(family for family, case in TABLES if case == "III")


@dataclass(frozen=True)
class ArdlSpec:
    p: int
    q: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(int(v) for v in self.q))
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if any(v < 0 for v in self.q):
            raise ValueError("every q must be >= 0")

    @property
    def total_lags(self) -> int:
        return self.p + sum(self.q)


@dataclass(frozen=True)
class ArdlFit:
    spec: ArdlSpec
    regression: RegressionResult
    names: tuple[str, ...]          # column labels of the design
    level_indices: tuple[int, ...]  # lagged-level terms, dependent first
    diff_indices: tuple[int, ...]
    lhs: np.ndarray                 # retained for the restricted bounds fit
    design: np.ndarray


@dataclass(frozen=True)
class BoundsResult:
    f_stat: float
    k: int
    critical_bounds: dict[float, tuple[float, float]]
    decision: dict[float, str]
    reference_p: float
    negative_numerator: bool = False


@dataclass(frozen=True)
class EcmResult:
    spec: ArdlSpec
    long_run: dict[str, tuple[float, float]]
    short_run: dict[str, tuple[float, float]]
    ect: tuple[float, float]
    intercept: tuple[float, float]
    r2: float
    convergence_warning: bool
    regression: RegressionResult
    names: tuple[str, ...]


def _conditional_design(frame: TimeSeriesFrame, spec: ModelSpec, ardl_spec: ArdlSpec,
                        start: int | None = None):
    """Build (lhs, design, labels, level_idx, diff_idx).

    Row t covers observations from ``start`` (0-based index into the
    frame, defaults to the smallest feasible) through n-1.
    """
    y = frame.column(spec.dependent)
    xs = [frame.column(name) for name in spec.regressors]
    n = frame.n
    p, q = ardl_spec.p, ardl_spec.q
    min_start = 1 + max([p - 1, *q, 0])
    t0 = min_start if start is None else start
    if t0 < min_start:
        raise ValueError("start precedes the first feasible observation")
    if t0 >= n:
        raise NoFeasibleSpec(f"sample exhausted for p={p}, q={q} with n={n}")

    rows = n - t0
    dy = np.diff(y)
    dxs = [np.diff(x) for x in xs]

    labels = ["const"]
    cols = [np.ones(rows)]
    level_idx = []
    labels.append(f"{spec.dependent}(-1)")
    cols.append(y[t0 - 1:n - 1])
    level_idx.append(1)
    for j, name in enumerate(spec.regressors):
        labels.append(f"{name}(-1)")
        cols.append(xs[j][t0 - 1:n - 1])
        level_idx.append(1 + 1 + j)

    diff_idx = []
    for lag in range(1, p):
        labels.append(f"D.{spec.dependent}(-{lag})")
        cols.append(dy[t0 - 1 - lag:n - 1 - lag])
        diff_idx.append(len(labels) - 1)
    for j, name in enumerate(spec.regressors):
        for lag in range(1, q[j] + 1):
            labels.append(f"D.{name}(-{lag})")
            cols.append(dxs[j][t0 - 1 - lag:n - 1 - lag])
            diff_idx.append(len(labels) - 1)

    lhs = dy[t0 - 1:n - 1]
    X = np.column_stack(cols)
    return lhs, X, tuple(labels), tuple(level_idx), tuple(diff_idx)


def select_ardl_lags(frame: TimeSeriesFrame, spec: ModelSpec,
                     criterion: str = "aic") -> ArdlSpec:
    """Exhaustive (p, q_1..q_k) grid search on a common estimation sample.

    Every candidate's design is a column subset of the widest one, so
    ``search_criteria`` scores the whole grid from that one design.  In
    the grid's order the candidates that differ only in q_k come together,
    each a column prefix of the next, and one batched QR factors these
    chains (162 of 3 at k = 5 and max_p = max_q = 2).  A candidate needs
    at least 5 more observations than parameters; the feasible candidates
    and their ``SearchPlan`` are built once per (max_p, max_q, k, rows).
    ``first_minimum`` picks in the plan's rank, as in every lag search:
    ties break toward fewer total lags, then the smaller (p, q) tuple.
    """
    spec.validate_against(frame)
    common_start = 1 + max(spec.max_p - 1, spec.max_q)
    rows = frame.n - common_start
    candidates, plan = _lag_plan(spec.max_p, spec.max_q, spec.k, rows)
    if not candidates:
        raise NoFeasibleSpec(f"no candidate has 5 observations to spare on the "
                             f"common sample of {rows} rows")
    widest = ArdlSpec(spec.max_p, (spec.max_q,) * spec.k)
    lhs, X, *_ = _conditional_design(frame, spec, widest, start=common_start)
    ranked = search_criteria(lhs[None], X[None], plan, criterion)[0, plan.order]
    if np.isnan(ranked).all():
        raise NoFeasibleSpec(f"every feasible candidate is rank deficient on the "
                             f"common sample of {rows} rows")
    p, *q = candidates[plan.order[first_minimum(ranked.tolist())]]
    return ArdlSpec(p, q)


@functools.lru_cache(maxsize=None)
def _lag_plan(max_p: int, max_q: int, k: int, rows: int):
    """The candidates of the (max_p, max_q) grid for k regressors that have
    5 observations to spare on ``rows`` common-sample rows, and the
    ``SearchPlan`` of their columns, built once per key."""
    candidates, columns, widths = _lag_grid(max_p, max_q, k)
    feasible = [i for i, width in enumerate(widths) if rows >= width + 5]
    return (tuple(candidates[i] for i in feasible),
            search_plan(columns[i] for i in feasible))


def _lag_grid(max_p: int, max_q: int, k: int):
    """The (max_p, max_q) grid of ARDL(p, q_1..q_k) for k regressors, as
    three tuples in the grid's order: each candidate (p, q_1, .., q_k); the
    columns of the widest design that form its design, in
    ``_conditional_design``'s order; and their count."""
    own = 2 + k  # const and the k + 1 levels precede the lagged differences
    first = own + max_p - 1
    candidates, columns = [], []
    for p, q in itertools.product(range(1, max_p + 1),
                                  itertools.product(range(max_q + 1), repeat=k)):
        cols = list(range(own + p - 1))
        for j, qj in enumerate(q):
            cols += range(first + j * max_q, first + j * max_q + qj)
        candidates.append((p, *q))
        columns.append(tuple(cols))
    return tuple(candidates), tuple(columns), tuple(len(cols) for cols in columns)


def fit_conditional_ecm(frame: TimeSeriesFrame, spec: ModelSpec,
                        ardl_spec: ArdlSpec) -> ArdlFit:
    """OLS of the conditional level regression on its own maximal sample."""
    spec.validate_against(frame)
    lhs, X, labels, level_idx, diff_idx = _conditional_design(frame, spec, ardl_spec)
    try:
        fit = ols(lhs, X)
    except RankDeficient as exc:
        raise RankDeficient([labels[i] for i in exc.columns]) from None
    return ArdlFit(ardl_spec, fit, labels, level_idx, diff_idx, lhs, X)


def bounds_test(fit: ArdlFit, table: str = "embedded") -> BoundsResult:
    """Wald F on joint nullity of the level terms versus critical bounds.

    ``table`` selects the Case-III bounds in ``critical``: "pesaran", the
    published asymptotic table for k = 1..5, or "embedded", the same
    table with small-sample bounds at k = 5.  Beyond k = 5 both raise
    ``NoCriticalValues``.  The reported F p-value is a standard F
    reference only; the decision uses the bound comparison.
    """
    reg = fit.regression
    level_idx = set(fit.level_indices)
    if not level_idx:
        raise ValueError("no level terms to test")
    keep = [i for i in range(reg.nparams) if i not in level_idx]
    if keep:
        rss_r = ols(fit.lhs, fit.design[:, keep]).rss
    else:
        rss_r = float(fit.lhs @ fit.lhs)
    wald = wald_f_zero(reg, fit.level_indices, rss_r)
    result = decide_bounds(wald.f, len(fit.level_indices) - 1, table)
    return replace(result, reference_p=wald.p, negative_numerator=wald.negative_numerator)


def decide_bounds(f_stat: float, k: int, table: str = "embedded") -> BoundsResult:
    """Classify an externally supplied F statistic against ``table``'s
    Case-III bounds for k regressors; k must be an integer."""
    bounds = critical_values(table, "III", operator.index(k))
    decision = {}
    for level, (lo, hi) in bounds.items():
        if f_stat > hi:
            decision[level] = "cointegrated"
        elif f_stat < lo:
            decision[level] = "not_cointegrated"
        else:
            decision[level] = "inconclusive"
    return BoundsResult(f_stat, k, bounds, decision, math.nan)


def long_run_coefficients(fit: ArdlFit) -> dict[str, tuple[float, float]]:
    """LR_i = -tau_{i+1} / tau_1 with delta-method standard errors."""
    reg = fit.regression
    dep_idx = fit.level_indices[0]
    tau1 = reg.coef[dep_idx]
    tol = 1e-8
    if abs(tau1) < tol:
        raise NearSingularAdjustment(tau1, tol)
    cov = reg.coef_cov()
    out: dict[str, tuple[float, float]] = {}
    for idx in fit.level_indices[1:]:
        taui = reg.coef[idx]
        lr = -taui / tau1
        grad = np.zeros(reg.nparams)
        grad[idx] = -1.0 / tau1
        grad[dep_idx] = taui / tau1**2
        var = float(grad @ cov @ grad)
        name = fit.names[idx]
        base = name[:-4] if name.endswith("(-1)") else name
        out[base] = (float(lr), math.sqrt(max(var, 0.0)))
    return out


def fit_ecm(frame: TimeSeriesFrame, spec: ModelSpec, ardl_spec: ArdlSpec,
            long_run: dict[str, tuple[float, float]]) -> EcmResult:
    """Two-step ECM: lagged long-run residual plus short-run dynamics.

    The error-correction term is ECT_{t-1} = y_{t-1} - c' - sum LR_i
    x_{i,t-1}, with c' the intercept of the static long-run relation
    evaluated at the supplied long-run slopes.
    """
    spec.validate_against(frame)
    y = frame.column(spec.dependent)
    lr_slopes = np.asarray([long_run[name][0] for name in spec.regressors])
    xmat = np.column_stack([frame.column(name) for name in spec.regressors])
    ect_level = y - xmat @ lr_slopes
    intercept = float(ect_level.mean())
    ect = ect_level - intercept

    lhs, X, labels, _level_idx, diff_idx = _conditional_design(frame, spec, ardl_spec)
    keep = [0, *diff_idx]  # the constant and the lagged differences
    t0 = frame.n - lhs.shape[0]
    labels = [*(labels[i] for i in keep), "ECT(-1)"]
    reg = ols(lhs, np.column_stack([X[:, keep], ect[t0 - 1:-1]]))
    theta = float(reg.coef[-1])
    theta_se = float(reg.stderr[-1])
    short_run = {
        label: (float(c), float(s))
        for label, c, s in zip(labels[1:-1], reg.coef[1:-1], reg.stderr[1:-1])
    }
    warn = not (-2.0 < theta < 0.0)
    return EcmResult(
        spec=ardl_spec,
        long_run=dict(long_run),
        short_run=short_run,
        ect=(theta, theta_se),
        intercept=(float(reg.coef[0]), float(reg.stderr[0])),
        r2=reg.r2,
        convergence_warning=warn,
        regression=reg,
        names=tuple(labels),
    )
