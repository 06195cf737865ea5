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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .critical import BOUNDS_LEVELS, TABLES, critical_values
from .errors import ArdlkitError, NearSingularAdjustment, NoFeasibleSpec, RankDeficient
from .frame import ModelSpec, TimeSeriesFrame
from .regression import RegressionResult, ols, search, search_plan, wald_f

# The critical-bounds tables bounds_test takes.
BOUNDS_TABLES = tuple(family for family, case in TABLES if case == "III")


@dataclass(frozen=True)
class ArdlSpec:
    p: int
    q: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        if type(self.p) is not int or self.p < 1:
            raise ValueError(f"p must be an integer >= 1, got {self.p!r}")
        if any(type(v) is not int or v < 0 for v in self.q):
            raise ValueError(f"every q must be an integer >= 0, got {self.q!r}")

    @property
    def total_lags(self) -> int:
        return self.p + sum(self.q)


class ArdlFit(NamedTuple):
    spec: ArdlSpec
    regression: RegressionResult
    names: tuple[str, ...]          # column labels of the design
    level_indices: tuple[int, ...]  # lagged-level terms, dependent first
    diff_indices: tuple[int, ...]
    lhs: np.ndarray                 # retained for the bounds test and the ECM
    design: np.ndarray


class BoundsResult(NamedTuple):
    f_stat: float
    k: int
    critical_bounds: dict[float, tuple[float, float]]
    decision: dict[float, str]
    reference_p: float


class EcmResult(NamedTuple):
    spec: ArdlSpec
    long_run: dict[str, tuple[float, float]]
    short_run: dict[str, tuple[float, float]]
    ect: tuple[float, float]
    intercept: tuple[float, float]
    r2: float
    convergence_warning: bool
    regression: RegressionResult
    names: tuple[str, ...]


def _layout(k: int, p: int, q) -> tuple[tuple[str, int, int], ...]:
    """The conditional regression's columns in order, each (kind, variable,
    lag) with variable 0 the dependent and j the j-th regressor: the
    constant; the k + 1 levels at t-1, dependent first; the dependent's
    differences at lags 1..p-1; then regressor j's differences at lags
    1..q_j."""
    return (("const", 0, 0),
            *(("level", j, 1) for j in range(k + 1)),
            *(("diff", 0, lag) for lag in range(1, p)),
            *(("diff", j, lag) for j in range(1, k + 1) for lag in range(1, q[j - 1] + 1)))


def _conditional_design(frame: TimeSeriesFrame, spec: ModelSpec, ardl_spec: ArdlSpec):
    """Build (lhs, design, labels, level_idx, diff_idx), the design's
    columns in ``_layout``'s order, on the rows from the first feasible one,
    t0 = 1 + max(p - 1, q_1, .., q_k) (0-based), through n-1."""
    p, q = ardl_spec.p, ardl_spec.q
    if len(q) != spec.k:
        raise ValueError(f"q has {len(q)} orders for the {spec.k} regressors {spec.regressors}")
    names = (spec.dependent, *spec.regressors)
    levels = [frame.column(name) for name in names]
    n = frame.n
    t0 = 1 + max([p - 1, *q, 0])
    if t0 >= n:
        raise NoFeasibleSpec(f"sample exhausted for p={p}, q={q} with n={n}")

    diffs = [np.diff(x) for x in levels]
    layout = _layout(spec.k, p, q)
    labels, cols = [], []
    for kind, j, lag in layout:
        if kind == "const":
            labels.append("const")
            cols.append(np.ones(n - t0))
        elif kind == "level":
            labels.append(f"{names[j]}(-1)")
            cols.append(levels[j][t0 - 1:n - 1])
        else:
            labels.append(f"D.{names[j]}(-{lag})")
            cols.append(diffs[j][t0 - 1 - lag:n - 1 - lag])
    level_idx = tuple(i for i, (kind, _, _) in enumerate(layout) if kind == "level")
    diff_idx = tuple(i for i, (kind, _, _) in enumerate(layout) if kind == "diff")
    return diffs[0][t0 - 1:n - 1], np.column_stack(cols), tuple(labels), level_idx, diff_idx


def select_ardl_lags(frame: TimeSeriesFrame, spec: ModelSpec,
                     criterion: str = "aic") -> ArdlSpec:
    """Exhaustive (p, q_1..q_k) grid search on a common estimation sample.

    Every candidate's design is a column subset of the widest one, so
    ``regression.search`` scores the whole grid from that one design.  In
    the grid's order the candidates that differ only in q_k come together,
    each a column prefix of the next, and one batched QR factors these
    chains (162 of 3 at k = 5 and max_p = max_q = 2).  A candidate needs
    at least 5 more observations than parameters; the feasible candidates
    and their ``SearchPlan`` are built once per (max_p, max_q, k, rows).
    ``regression.search`` picks in the plan's rank, as in every lag
    search: ties break toward fewer total lags, then the smaller (p, q)
    tuple.
    """
    spec.validate_against(frame)
    rows = frame.n - 1 - max(spec.max_p - 1, spec.max_q)  # the widest candidate's
    candidates, plan = _lag_plan(spec.max_p, spec.max_q, spec.k, rows)
    if not candidates:
        raise NoFeasibleSpec(f"no candidate has 5 observations to spare on the "
                             f"common sample of {rows} rows")
    widest = ArdlSpec(spec.max_p, (spec.max_q,) * spec.k)
    lhs, X, *_ = _conditional_design(frame, spec, widest)
    [pick] = search(lhs[None], X[None], plan, criterion)
    if pick is None:
        raise NoFeasibleSpec(f"every feasible candidate is rank deficient on the "
                             f"common sample of {rows} rows")
    p, *q = candidates[pick]
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
    positions of its ``_layout`` in the widest layout, which are the
    columns of the widest design that form its design; and their count."""
    position = {column: i for i, column in enumerate(_layout(k, max_p, (max_q,) * k))}
    candidates, columns = [], []
    for p, q in itertools.product(range(1, max_p + 1),
                                  itertools.product(range(max_q + 1), repeat=k)):
        candidates.append((p, *q))
        columns.append(tuple(position[column] for column in _layout(k, p, q)))
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
    reference only; the decision uses the bound comparison.  The F is
    ``regression.wald_f``'s, with the level columns last in its QR only;
    an exact fit raises ``DegenerateResiduals``.
    """
    levels = fit.level_indices
    order = [i for i in range(fit.design.shape[1]) if i not in levels] + list(levels)
    [wald] = wald_f(fit.lhs[None], fit.design[None, :, order], len(levels))
    if isinstance(wald, RankDeficient):
        raise RankDeficient([fit.names[j] for j in sorted(order[i] for i in wald.columns)])
    if isinstance(wald, ArdlkitError):
        raise wald
    return decide_bounds(wald.f, len(levels) - 1, table)._replace(reference_p=wald.p)


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
        out[fit.names[idx].removesuffix("(-1)")] = (float(lr), math.sqrt(max(var, 0.0)))
    return out


def fit_ecm(frame: TimeSeriesFrame, spec: ModelSpec, fit: ArdlFit,
            long_run: dict[str, tuple[float, float]]) -> EcmResult:
    """Two-step ECM: lagged long-run residual plus short-run dynamics.

    The error-correction term is ECT_{t-1} = y_{t-1} - c' - sum LR_i
    x_{i,t-1}, with c' the intercept of the static long-run relation
    evaluated at the supplied long-run slopes.  The ECM is fitted on the
    conditional fit's sample: its lhs, and its design's constant and
    lagged differences next to the ECT.
    """
    spec.validate_against(frame)
    y = frame.column(spec.dependent)
    lr_slopes = np.asarray([long_run[name][0] for name in spec.regressors])
    xmat = np.column_stack([frame.column(name) for name in spec.regressors])
    ect_level = y - xmat @ lr_slopes
    intercept = float(ect_level.mean())
    ect = ect_level - intercept

    keep = [0, *fit.diff_indices]  # the constant and the lagged differences
    t0 = frame.n - fit.lhs.shape[0]
    labels = [*(fit.names[i] for i in keep), "ECT(-1)"]
    reg = ols(fit.lhs, np.column_stack([fit.design[:, keep], ect[t0 - 1:-1]]))
    theta = float(reg.coef[-1])
    theta_se = float(reg.stderr[-1])
    short_run = {
        label: (float(c), float(s))
        for label, c, s in zip(labels[1:-1], reg.coef[1:-1], reg.stderr[1:-1])
    }
    warn = not (-2.0 < theta < 0.0)
    return EcmResult(
        spec=fit.spec,
        long_run=dict(long_run),
        short_run=short_run,
        ect=(theta, theta_se),
        intercept=(float(reg.coef[0]), float(reg.stderr[0])),
        r2=reg.r2,
        convergence_warning=warn,
        regression=reg,
        names=tuple(labels),
    )
