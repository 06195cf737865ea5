"""ARDL lag selection, the conditional level regression, the bounds
F-test, long-run coefficients, and the two-step error-correction model.

The conditional regression explains the differenced dependent variable
with an intercept, one lag of every variable in levels, lagged
differences of the dependent variable (p-1 of them), and lagged
differences of each regressor (q_i of them).  The bounds test is a Wald
F on the joint nullity of the level block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArdlkitError, NearSingularAdjustment, NoFeasibleSpec, RankDeficient
from .frame import ModelSpec, TimeSeriesFrame
from .regression import RegressionResult, ols, subset_criteria, wald_f_zero

# The critical-bounds tables bounds_test takes.
BOUNDS_TABLES = ("embedded", "pesaran")

# Critical bounds for k = 5 regressors as embedded defaults; per level,
# (I0 lower bound, I1 upper bound).
PAPER_BOUNDS_K5 = {
    0.10: (1.98, 3.01),
    0.05: (2.29, 3.24),
    0.025: (2.60, 3.71),
    0.01: (2.98, 3.99),
}

# Pesaran-Shin-Smith (2001), Table CI, Case III (unrestricted intercept,
# no trend), asymptotic; keyed by number of regressors k.
PESARAN_CASE3 = {
    1: {0.10: (4.04, 4.78), 0.05: (4.94, 5.73), 0.025: (5.77, 6.68), 0.01: (6.84, 7.84)},
    2: {0.10: (3.17, 4.14), 0.05: (3.79, 4.85), 0.025: (4.41, 5.52), 0.01: (5.15, 6.36)},
    3: {0.10: (2.72, 3.77), 0.05: (3.23, 4.35), 0.025: (3.69, 4.89), 0.01: (4.29, 5.61)},
    4: {0.10: (2.45, 3.52), 0.05: (2.86, 4.01), 0.025: (3.25, 4.49), 0.01: (3.74, 5.06)},
    5: {0.10: (2.26, 3.35), 0.05: (2.62, 3.79), 0.025: (2.96, 4.18), 0.01: (3.41, 4.68)},
}


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
    idx = np.arange(t0, n)

    labels = ["const"]
    cols = [np.ones(rows)]
    level_idx = []
    labels.append(f"{spec.dependent}(-1)")
    cols.append(y[idx - 1])
    level_idx.append(1)
    for j, name in enumerate(spec.regressors):
        labels.append(f"{name}(-1)")
        cols.append(xs[j][idx - 1])
        level_idx.append(1 + 1 + j)

    diff_idx = []
    for lag in range(1, p):
        labels.append(f"D.{spec.dependent}(-{lag})")
        cols.append(dy[idx - 1 - lag])
        diff_idx.append(len(labels) - 1)
    for j, name in enumerate(spec.regressors):
        for lag in range(1, q[j] + 1):
            labels.append(f"D.{name}(-{lag})")
            cols.append(dxs[j][idx - 1 - lag])
            diff_idx.append(len(labels) - 1)

    lhs = dy[idx - 1]
    X = np.column_stack(cols)
    return lhs, X, tuple(labels), tuple(level_idx), tuple(diff_idx)


def select_ardl_lags(frame: TimeSeriesFrame, spec: ModelSpec,
                     criterion: str = "aic") -> ArdlSpec:
    """Exhaustive (p, q_1..q_k) grid search on a common estimation sample.

    Every candidate's design is a column subset of the widest one, so
    ``subset_criteria`` scores the whole grid from that one design.  A
    candidate needs at least 5 more observations than parameters.  Ties
    break toward fewer total lags, then the lexicographically smaller
    (p, q) tuple.
    """
    spec.validate_against(frame)
    common_start = 1 + max(spec.max_p - 1, spec.max_q)
    grid = list(itertools.product(
        range(1, spec.max_p + 1),
        itertools.product(range(spec.max_q + 1), repeat=spec.k),
    ))
    rows = frame.n - common_start
    columns = [_grid_columns(spec, p, q) for p, q in grid]
    feasible = [i for i, cols in enumerate(columns) if rows >= len(cols) + 5]
    if feasible:
        widest = ArdlSpec(spec.max_p, (spec.max_q,) * spec.k)
        lhs, X, *_ = _conditional_design(frame, spec, widest, start=common_start)
        scores = subset_criteria(lhs, X, [columns[i] for i in feasible], criterion)
        ranked = [(ic, p + sum(q), (p, *q))
                  for ic, (p, q) in zip(scores, (grid[i] for i in feasible)) if ic is not None]
        if ranked:
            p, *q = min(ranked)[2]
            return ArdlSpec(p, q)
    # every candidate failed: report the first three as fitted one by one
    failures = []
    for p, q in grid[:3]:
        try:
            lhs, X, *_ = _conditional_design(frame, spec, ArdlSpec(p, q), start=common_start)
            if lhs.shape[0] < X.shape[1] + 5:
                raise NoFeasibleSpec(
                    f"sample {lhs.shape[0]} too small for {X.shape[1]} parameters"
                )
            ols(lhs, X)
        except (ArdlkitError, np.linalg.LinAlgError) as exc:
            failures.append(f"p={p},q={q}: {exc}")
    raise NoFeasibleSpec("; ".join(failures) or "empty grid")


def _grid_columns(spec: ModelSpec, p: int, q: tuple[int, ...]) -> list[int]:
    """Columns of the widest design (max_p, max_q each) that form the
    design of ARDL(p, q), in ``_conditional_design``'s order."""
    own = 2 + spec.k  # const and the k + 1 levels precede the lagged differences
    columns = list(range(own + p - 1))
    first = own + spec.max_p - 1
    for j, qj in enumerate(q):
        columns += range(first + j * spec.max_q, first + j * spec.max_q + qj)
    return columns


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

    ``table`` selects the embedded default bounds (k = 5) or the
    published Pesaran Case-III asymptotic table ("pesaran").  The
    reported F p-value is a standard F reference only; the decision uses
    the bound comparison.
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
    """Classify an externally supplied F statistic against the bounds."""
    bounds = _bounds_table(k, table)
    decision = {}
    for level, (lo, hi) in bounds.items():
        if f_stat > hi:
            decision[level] = "cointegrated"
        elif f_stat < lo:
            decision[level] = "not_cointegrated"
        else:
            decision[level] = "inconclusive"
    return BoundsResult(f_stat, k, bounds, decision, math.nan)


def _bounds_table(k: int, table: str) -> dict[float, tuple[float, float]]:
    if table == "embedded":
        if k == 5:
            return dict(PAPER_BOUNDS_K5)
        table = "pesaran"  # the embedded default only covers k = 5
    if table == "pesaran":
        if k not in PESARAN_CASE3:
            raise ValueError(f"no Pesaran Case-III bounds for k={k}")
        return dict(PESARAN_CASE3[k])
    raise ValueError(f"unknown bounds table {table!r}")


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

    n = frame.n
    p, q = ardl_spec.p, ardl_spec.q
    t0 = 1 + max([p - 1, *q, 0])
    idx = np.arange(t0, n)
    dy = np.diff(y)
    labels = ["const"]
    cols = [np.ones(idx.shape[0])]
    for lag in range(1, p):
        labels.append(f"D.{spec.dependent}(-{lag})")
        cols.append(dy[idx - 1 - lag])
    for j, name in enumerate(spec.regressors):
        dx = np.diff(frame.column(name))
        for lag in range(1, q[j] + 1):
            labels.append(f"D.{name}(-{lag})")
            cols.append(dx[idx - 1 - lag])
    labels.append("ECT(-1)")
    cols.append(ect[idx - 1])

    reg = ols(dy[idx - 1], np.column_stack(cols))
    theta = float(reg.coef[-1])
    theta_se = float(reg.stderr[-1])
    short_run = {
        label: (float(c), float(s))
        for label, c, s in zip(labels[1:-1], reg.coef[1:-1], reg.stderr[1:-1])
    }
    warn = not (-2.0 < theta < 0.0)
    return EcmResult(
        long_run=dict(long_run),
        short_run=short_run,
        ect=(theta, theta_se),
        intercept=(float(reg.coef[0]), float(reg.stderr[0])),
        r2=reg.r2,
        convergence_warning=warn,
        regression=reg,
        names=tuple(labels),
    )
