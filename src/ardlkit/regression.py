"""Least squares, hypothesis-test plumbing, information criteria, and
kernel long-run variance estimation.

This is the shared numerical engine.  Every fit goes through one
function, ``ols_stack``, which fits a stack of designs by one batched
SVD; ``ols`` is its one-row case, and a row fitted in a stack gets the
bits it gets alone.  Rank detection, the solution, and (X'X)^-1 all come
from that one rank-revealing factorization.  Severe collinearity among
lagged logs is the expected failure mode and is reported with the
offending columns.  Every Wald F comes from one function, ``wald_f``,
which reads the RSS and the F's numerator off one QR as sums of squares.
Every lag search (ARDL, unit-root, Granger) picks its lag by one function,
``search``: it scores every row as ``search_criteria`` does, as one (R, C)
array, and makes one Python pass per row in the plan's rank, which is the
one place where ties are screened and a list is picked.  What a search
needs besides the data (its chains of nested column lists, their gather
and pick indices, the tie-break rank) is a ``SearchPlan``, built once per
search key and cached by the caller.  One Householder QR of [X | y]
scores one chain of leading columns, and one batched QR of R's columns
scores any other chains.  Every long-run variance (PP, DOLS, FMOLS, CCR)
comes from one Bartlett estimator, ``long_run_covariance``, whose scalar
case is ``long_run_variance``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (ArdlkitError, BandwidthTooLarge, DegenerateResiduals, DegenerateSeries,
                     InvalidDf, NumericalError, RankDeficient, TooFewObservations)

# The information criteria criterion_from_rss knows.
CRITERIA = ("aic", "sic", "hq")

# Singular values below RANK_TOL * largest count as zero.
RANK_TOL = 1e-10

# search_criteria scores a row of a search from its QR's RSS only when the
# singular-value ratio of the row's full design, taken before the QR, is at
# least RANK_MARGIN * RANK_TOL, and fits every subset by ols otherwise;
# search re-scores by ols the subsets whose criteria lie within TIE_RTOL
# (relative) of the smallest.  The chain QR and a subset's own SVD differ
# in the last bits, and these are the decisions such bits could flip.
RANK_MARGIN = 10.0
TIE_RTOL = 1e-8

# The significance levels the star, unit-root and CUSUM tables cover, with
# their stars; the bounds tables' levels are critical.BOUNDS_LEVELS.
STARS = {0.01: "***", 0.05: "**", 0.10: "*"}


class RegressionResult(NamedTuple):
    coef: np.ndarray
    stderr: np.ndarray
    tstats: np.ndarray
    residuals: np.ndarray
    rss: float
    tss: float
    r2: float
    df_resid: int
    loglik: float
    xtx_inverse: np.ndarray
    degenerate_r2: bool = False

    @property
    def nobs(self) -> int:
        return self.residuals.shape[0]

    @property
    def nparams(self) -> int:
        return self.coef.shape[0]

    @property
    def s2(self) -> float:
        return self.rss / self.df_resid

    def coef_cov(self) -> np.ndarray:
        return self.s2 * self.xtx_inverse


def resolve_bandwidth(bandwidth: int | str, n: int) -> int:
    """The Bartlett-kernel bandwidth for a series of length n: a
    non-negative integer as given, or for "auto" the Newey-West rule
    floor(4 * (n/100)^(2/9)).  Any other value raises ``ValueError``."""
    if bandwidth == "auto":
        return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))
    if type(bandwidth) is not int or bandwidth < 0:
        raise ValueError(f"bandwidth must be a non-negative integer or 'auto', got {bandwidth!r}")
    return bandwidth


def singular_value_ratio(s: np.ndarray) -> float:
    """s_min/s_max of a matrix's singular values ``s`` (largest first, as
    numpy returns them), 0 for a zero matrix.  This is the one rank rule:
    a matrix whose ratio is below RANK_TOL is singular."""
    return singular_value_ratios(np.asarray(s)[None])[0]


def singular_value_ratios(s: np.ndarray) -> list[float]:
    """``singular_value_ratio`` of each row of a stack's singular values s."""
    return [s_min / s_max if s_max > 0 else 0.0
            for s_min, s_max in zip(s[:, -1].tolist(), s[:, 0].tolist())]


def _dependent_columns(vt: np.ndarray, s: np.ndarray) -> list[int]:
    """Columns implicated in the null space of a rank-deficient design."""
    null_rows = vt[s < RANK_TOL * s[0]] if s[0] > 0 else vt
    weights = np.abs(null_rows).max(axis=0)
    return [int(i) for i in np.flatnonzero(weights > 1e-8 * weights.max())]


class StackedFit(NamedTuple):
    """Least-squares fits of R rows on their designs, row r of every array
    for fit r.  ``singular`` maps each row whose design is singular to its
    ``RankDeficient``; that row's numbers are meaningless."""

    coef: np.ndarray         # (R, k)
    residuals: np.ndarray    # (R, n)
    rss: np.ndarray          # (R,)
    xtx_inverse: np.ndarray  # (R, k, k)
    stderr: np.ndarray       # (R, k)
    tstats: np.ndarray       # (R, k)
    df_resid: int
    singular: dict[int, RankDeficient]


def ols_stack(Y, X) -> StackedFit:
    """Minimize ||Y[r] - X[r] b||^2 for every row r of Y (R, n) on its
    design X[r] of X (R, n, k), through one batched SVD.

    Each design whose ``singular_value_ratio`` is below RANK_TOL is flagged
    with its ``RankDeficient`` and solved with unit singular values, which
    keeps its arithmetic finite.  Every product is a stacked matmul, which
    makes the same BLAS call for each row as for a lone one, so a row's
    numbers are bitwise those of fitting it alone.  Raises
    ``TooFewObservations`` when n <= k.
    """
    n, k = X.shape[1:]
    if n <= k:
        raise TooFewObservations(n, k)
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    singular = {i: RankDeficient(_dependent_columns(vt[i], s[i]))
                for i, ratio in enumerate(singular_value_ratios(s)) if ratio < RANK_TOL}
    if singular:
        s = s.copy()
        s[list(singular)] = 1.0
    v = vt.transpose(0, 2, 1)
    coef = (v @ ((u.transpose(0, 2, 1) @ Y[..., None]) / s[..., None]))[..., 0]
    residuals = Y - (X @ coef[..., None])[..., 0]
    rss = (residuals[:, None, :] @ residuals[..., None])[:, 0, 0]
    xtx_inverse = (v / s[:, None, :] ** 2) @ vt
    s2 = rss / (n - k)
    stderr = np.sqrt(np.maximum(s2[:, None] * xtx_inverse.diagonal(axis1=1, axis2=2), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = coef / stderr  # a zero stderr gives +-inf, or nan for a zero coef
    return StackedFit(coef, residuals, rss, xtx_inverse, stderr, tstats, n - k, singular)


def ols(y, X) -> RegressionResult:
    """Minimize ||y - Xb||^2 via SVD; full diagnostics retained.  This is
    the one-row case of ``ols_stack``.

    Raises ``RankDeficient`` naming the dependent columns when the
    design is numerically singular, and ``TooFewObservations`` when
    n <= k.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fit = ols_stack(y[None], X[None])
    if fit.singular:
        raise fit.singular[0]
    n = X.shape[0]
    residuals = fit.residuals[0]
    rss = float(fit.rss[0])

    has_const = np.any(np.ptp(X, axis=0) == 0)
    tss = float(np.sum((y - y.mean()) ** 2)) if has_const else float(y @ y)
    degenerate = tss <= 0.0
    r2 = 0.0 if degenerate else 1.0 - rss / tss
    sigma2 = rss / n
    loglik = (-n / 2.0 * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0) if sigma2 > 0
              else math.inf)
    return RegressionResult(
        coef=fit.coef[0],
        stderr=fit.stderr[0],
        tstats=fit.tstats[0],
        residuals=residuals,
        rss=rss,
        tss=tss,
        r2=r2,
        df_resid=fit.df_resid,
        loglik=loglik,
        xtx_inverse=fit.xtx_inverse[0],
        degenerate_r2=degenerate,
    )


def stars(p: float) -> str:
    """The stars of the smallest level in ``STARS`` above p; none for NaN."""
    return next((mark for level, mark in STARS.items() if p < level), "")


def normal_test(coef: float, se: float) -> tuple[float, float]:
    """t = coef / se and its two-sided normal p-value.  At se = 0, t is
    +-inf (p = 0) for a non-zero coef and NaN (p NaN, no stars) for zero."""
    t = coef / se if se > 0 else math.inf * float(np.sign(coef))
    return t, 2.0 * tail_probability("normal", abs(t))


class WaldF(NamedTuple):
    f: float
    p: float


def wald_f(Y, X, m: int) -> list[WaldF | NumericalError]:
    """F-test that the last m of X's k columns add nothing, for every row
    Y[r] of Y (R, n) on its design X[r] of X (R, n, k): the row's
    ``WaldF``, the ``RankDeficient`` of an X that fails the rank rule, or
    ``DegenerateResiduals`` for an exact fit, whose RSS is at most
    (RANK_TOL * ||Y[r]||)**2.  Raises ``ValueError`` unless 1 <= m <= k,
    and ``TooFewObservations`` when n <= k.

    R's y column from one QR of [X[r] | Y[r]] (``_raw_r``) holds both sums
    of squares (Golub 1965): the RSS is R[k, k]**2, and the restricted RSS
    less it is the sum of R[i, k]**2 over the m tested rows, >= 0.
    """
    n, k = X.shape[1:]
    if not 1 <= m <= k:
        raise ValueError(f"m must be in 1..{k}, got {m}")
    if n <= k:
        raise TooFewObservations(n, k)
    ratios = singular_value_ratios(np.linalg.svd(X, compute_uv=False))
    squares = _raw_r(X, Y)[:, k, :k + 1] ** 2  # R's y column, squared
    outcomes: list = []
    for i, (ratio, rss, num, yy) in enumerate(zip(
            ratios, squares[:, k].tolist(), squares[:, k - m:k].sum(axis=1).tolist(),
            squares.sum(axis=1).tolist())):
        if ratio < RANK_TOL:
            _, s, vt = np.linalg.svd(X[i], full_matrices=False)
            outcomes.append(RankDeficient(_dependent_columns(vt, s)))
        elif _exact_fit(rss, yy):
            outcomes.append(DegenerateResiduals("exact fit: the residuals are rounding error"))
        else:
            f = (num / m) / (rss / (n - k))
            outcomes.append(WaldF(f, tail_probability("f", f, (m, n - k))))
    return outcomes


def _exact_fit(rss, yy):
    """Whether an RSS is rounding error, at most (RANK_TOL * ||y||)**2 for
    a y with y'y = yy: the exact-fit floor of ``wald_f`` and of every lag
    search, which scores such a fit -inf.  Elementwise on arrays."""
    return rss <= RANK_TOL**2 * yy


class SearchPlan(NamedTuple):
    """What a lag search over the column lists ``columns`` needs besides the
    data, built by ``search_plan`` once per search key and read-only: every
    caller caches its plans (``prefix_plan``; ``ardl._lag_plan``).

    The lists are scored in chains: a list that has the one before it as
    its prefix extends that one's chain, and any other list starts a chain.
    Every list starts with X's first ``shared`` columns, which R of
    ``_chain_rss`` already has in triangular form.  ``gather`` holds each
    chain's other rows of the padded R: its columns after the shared ones,
    then zero columns (row span + 1) up to the widest list, then y (row
    span).  It is None for one chain of leading columns, which is read off
    that R directly.  ``pick`` is each list's place in the flattened tail
    sums.  ``order`` ranks the lists for ties: narrower first, then in list
    order, which in the ARDL grid is fewer total lags, then the smaller
    (p, q); a tuple, so that ``search``'s pass loops over Python ints.
    """

    columns: tuple[tuple[int, ...], ...]
    widths: np.ndarray         # (C,) each list's column count
    width: int                 # the widest list's
    order: tuple[int, ...]     # (C,) list indices, best rank first
    span: int                  # X's leading columns the QR factors
    shared: int                # leading columns every list starts with
    gather: np.ndarray | None  # (chains, width + 1 - shared)
    pick: np.ndarray           # (C,)


def search_plan(columns) -> SearchPlan:
    """The ``SearchPlan`` of the column lists ``columns``."""
    columns = tuple(tuple(int(c) for c in s) for s in columns)
    tips, chain = [], []  # each chain's widest list; each list's chain
    for s in columns:
        if tips and s[:len(tips[-1])] == tips[-1]:
            tips[-1] = s
        else:
            tips.append(s)
        chain.append(len(tips) - 1)
    widths = np.array([len(s) for s in columns], dtype=np.intp)
    width = span = int(widths.max(initial=0))
    shared, gather = 0, None
    if tips and tips != [tuple(range(width))]:
        span = 1 + max(max(tip, default=-1) for tip in tips)
        while shared < widths.min() and all(tip[shared] == shared for tip in tips):
            shared += 1
        gather = np.array([tip[shared:] + (span + 1,) * (width - len(tip)) + (span,)
                           for tip in tips], dtype=np.intp)
    pick = np.asarray(chain, dtype=np.intp) * (width + 1 - shared) + width - widths
    plan = SearchPlan(columns, widths, width, tuple(np.argsort(widths, kind="stable").tolist()),
                      span, shared, gather, pick)
    for array in (plan.widths, plan.gather, plan.pick):
        if array is not None:
            array.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=None)
def prefix_plan(widths: tuple[int, ...]) -> SearchPlan:
    """The cached plan of the leading-column prefixes of ``widths``: one
    chain, as in every unit-root and Granger lag search."""
    return search_plan(tuple(range(w)) for w in widths)


def search(Y, X, plan: SearchPlan, kind: str = "aic") -> list[int | None]:
    """The list of ``plan`` that each row Y[r] of Y (R, n) on its X[r] of
    X (R, n, K) picks, as an index into ``plan.columns``: the first minimum
    of its criteria in the plan's rank, where a later list must beat the
    best so far by more than 1e-12, or None when every criterion is NaN.

    This is the one place where a lag search screens ties and picks.  It
    scores the rows as ``search_criteria`` does and makes one pass per row
    (``_scan``) that finds the first minimum and screens the row for ties.
    A tied row that the chain QR scored is re-scored by ``_settle_ties``
    and picked again; a row that ``ols`` scored is exact already.
    """
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    scores, by_qr = _scores(Y, X, plan, kind)
    order = plan.order
    picks = []
    for r, (row, qr) in enumerate(zip(scores.tolist(), by_qr)):
        pick, tied = _scan(row, order)
        if tied and qr:
            pick = _scan(_settle_ties(Y[r], X[r], plan.columns, row, kind), order)[0]
        picks.append(pick)
    return picks


def search_criteria(Y, X, plan: SearchPlan, kind: str = "aic") -> np.ndarray:
    """``info_criterion(ols(Y[r], X[r][:, s]), kind)``, to rounding, for every
    row Y[r] of Y (R, n) on its X[r] of X (R, n, K) and every column list s
    of ``plan``, as one (R, C) array: NaN where ``ols`` rejects X[r][:, s],
    and for a list as long as n.

    Each row's bound is the ``singular_value_ratio`` of its X, from the
    search's one SVD of X, taken without U before any QR; dropping columns
    cannot lower it, so it bounds the ratio of every list.  A row whose
    bound is at least RANK_TOL * RANK_MARGIN, so that ``ols`` accepts each
    list, is scored from RSS (``_chain_rss``), and ``ols`` fits every list
    of every other row.  A plan with a list as wide as n, which ``ols``
    rejects, takes neither the SVD nor the QR, and ``ols`` scores its rows.
    Ties are not screened here: ``search`` screens them, and re-scores the
    near-best lists of a tied row by ``ols``.
    """
    return _scores(np.asarray(Y, dtype=float), np.asarray(X, dtype=float), plan, kind)[0]


def _scores(Y: np.ndarray, X: np.ndarray, plan: SearchPlan,
            kind: str) -> tuple[np.ndarray, list[bool]]:
    """``search_criteria``'s array, and for each row whether the chain QR
    scored it (True) or ``ols`` did (False)."""
    _check_criterion(kind)
    n, k = X.shape[1:]
    by_qr = [False] * len(X)
    if n >= k and plan.width < n:
        s = np.linalg.svd(X, compute_uv=False)
        by_qr = [ratio >= RANK_TOL * RANK_MARGIN for ratio in singular_value_ratios(s)]
    if plan.columns and any(by_qr):
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = n * np.log(_chain_rss(Y, X, plan) / n) + _penalty(n, kind) * plan.widths
    else:
        scores = np.empty((len(X), len(plan.columns)))
    for r, qr in enumerate(by_qr):
        if not qr:
            scores[r] = [_exact_criterion(Y[r], X[r][:, s], kind) for s in plan.columns]
    return scores, by_qr


def _chain_rss(Y, X, plan: SearchPlan) -> np.ndarray:
    """The (R, C) RSS of every row on every list of ``plan``; 0 where it is
    at most the exact-fit floor (``_exact_fit``) of ||Y[r]||**2.

    One Householder QR factors [X[r] | Y[r]] on its n rows, for every row:
    the RSS of a chain's first m columns is the sum of R[i, w]**2 over
    i >= m, where column w holds Y[r] (Golub 1965).  One chain of X's
    leading columns, as in every unit-root and Granger search, is read off
    that R.  Any other plan takes each chain's columns of R, padded to the
    widest chain with zero columns, and factors them all in one batched QR
    on R's rows: those columns have the Gram matrix of the data's, so the
    same R.  The columns every chain starts with are triangular already,
    so their Householder steps are the identity and the batched QR takes
    only the other columns, on the rows below them (Furnival & Wilson
    1974), with the same bits.
    """
    width, span, shared = plan.width, plan.span, plan.shared
    h = _raw_r(X[:, :, :span], Y)
    yy = None  # ||Y[r]||**2, the last tail sum of one chain of leading columns
    if plan.gather is not None:
        yy = (h[:, span, :span + 1] ** 2).sum(axis=1, keepdims=True)
        # R's columns and a zero column, as rows, below the shared rows:
        # [X[r] | Y[r]] = Q R, so any of R's columns give the R of the same
        # columns of the data
        cols = np.zeros((len(X), span + 2, span + 1 - shared))
        cols[:, :span + 1, :X.shape[1] - shared] = np.tril(h[..., :span + 1])[..., shared:]
        h = np.linalg.qr(cols[:, plan.gather].transpose(0, 1, 3, 2), mode="raw")[0]
        width -= shared
    # tail[r, c, j] = sum of R[i, width]**2 over i >= width - j
    tail = (h[..., width, width::-1] ** 2).cumsum(axis=-1).reshape(len(X), -1)
    rss = tail[:, plan.pick]
    rss[_exact_fit(rss, tail[:, -1:] if yy is None else yy)] = 0.0
    return rss


def _raw_r(X, Y) -> np.ndarray:
    """h of one raw-mode QR of [X[r] | Y[r]] per row r: R[i, j] = h[r, j, i], i <= j."""
    return np.linalg.qr(np.concatenate([X, Y[..., None]], axis=2), mode="raw")[0]


def _settle_ties(y, X, columns, scores: list, kind: str) -> list:
    """A tied row's criteria over the lists ``columns``, as ``search`` takes
    them: ``scores`` (the chain QR's, changed in place) with the lists
    within TIE_RTOL of the smallest re-scored by ``ols``, until the
    near-best ones are all exact."""
    exact: set[int] = set()
    while True:
        live = [s for s in scores if not math.isnan(s)]
        if not live:
            return scores
        best = min(live)
        window = _tie_window(best) if math.isfinite(best) else 0.0
        near = [i for i, s in enumerate(scores) if s == best or s - best <= window]
        todo = [i for i in near if i not in exact]
        if len(near) < 2 or not todo:
            return scores
        for i in todo:
            exact.add(i)
            scores[i] = _exact_criterion(y, X[:, columns[i]], kind)


def _tie_window(best: float) -> float:
    """How far a criterion may lie above the smallest, ``best``, and tie
    with it: TIE_RTOL relative, and absolute below 1."""
    return TIE_RTOL * max(abs(best), 1.0)


def _exact_criterion(y, X, kind: str) -> float:
    """``info_criterion`` of ``ols(y, X)``, -inf for an exact fit, NaN where
    ``ols`` rejects X."""
    try:
        fit = ols(y, X)
    except (ArdlkitError, np.linalg.LinAlgError):
        return math.nan
    return -math.inf if _exact_fit(fit.rss, y @ y) else info_criterion(fit, kind)


def _scan(scores: list, order) -> tuple[int | None, bool]:
    """``search``'s one pass over a row's ``scores`` in ``order``: the first
    minimum and whether the row is tied.

    The first minimum is the index of the lowest score (NaN: skipped),
    where a later one must beat the best so far by more than 1e-12:
    order[0] when no score is below +inf, and None when every one is NaN.
    With m1 <= m2 the two smallest non-NaN scores, a row of two or more
    scores is tied when one is NaN or not (m2 - m1 > ``_tie_window(m1)``),
    so that an inf - inf or a NaN difference counts as tied.
    """
    best, bar = None, math.inf
    m1 = m2 = math.inf
    nans = 0
    for i in order:
        s = scores[i]
        if s < m2:
            if s < bar:  # bar <= every score so far, so s < m2 here
                best, bar = i, s - 1e-12
            if s < m1:
                m1, m2 = s, m1
            else:
                m2 = s
        elif s != s:
            nans += 1
    tied = len(order) > 1 and (nans > 0 or not (m2 - m1 > _tie_window(m1)))
    if best is None and nans < len(order):
        best = order[0]  # every score is +inf, or +inf and NaN
    return best, tied


def first_minimum(scores) -> int:
    """Index of the lowest of ``scores`` (NaN: skipped), where a later one
    must beat the best so far by more than 1e-12; 0 if none is scored.
    This is the index half of ``search``'s pass, in list order."""
    pick = _scan(scores, range(len(scores)))[0]
    return 0 if pick is None else pick


def criterion_from_rss(rss: float, n: int, k: int, kind: str = "aic") -> float:
    """aic / sic / hq of a k-parameter Gaussian fit with residual sum of
    squares ``rss`` on n observations; rss <= 0 gives -inf."""
    _check_criterion(kind)
    if rss <= 0.0:
        return -math.inf
    return n * math.log(rss / n) + _penalty(n, kind) * k


def _penalty(n: int, kind: str) -> float:
    """The criterion's penalty per parameter on n observations."""
    if kind == "aic":
        return 2.0
    if kind == "sic":
        return math.log(n)
    return 2.0 * math.log(math.log(n))


def _check_criterion(kind: str) -> None:
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion {kind!r}")


def info_criterion(fit: RegressionResult, kind: str = "aic") -> float:
    """aic / sic / hq on the concentrated Gaussian likelihood.

    A perfect fit (rss == 0) returns -inf; callers must handle the
    sentinel.
    """
    return criterion_from_rss(fit.rss, fit.nobs, fit.nparams, kind)


@functools.lru_cache(maxsize=None)
def _bartlett_weights(bw: int) -> np.ndarray:
    """The Bartlett kernel's lag weights 1 - j/(bw+1), j = 1..bw, computed
    once per bandwidth and read-only."""
    weights = 1.0 - np.arange(1, bw + 1) / (bw + 1.0)
    weights.flags.writeable = False
    return weights


def long_run_variance(u, bandwidth: int | str = "auto") -> float:
    """Bartlett-kernel long-run variance of a scalar series: the omega of
    ``long_run_covariance`` on the flattened series."""
    return float(long_run_covariance(np.ravel(u), bandwidth)[0])


def long_run_covariance(eta, bandwidth: int | str = "auto"):
    """The Bartlett-kernel long-run covariance of a series of shape (n,)
    or (n, m): returns (omega, one_sided, short_run), scalars for a 1-D
    series and (m, m) arrays otherwise.

    omega     = G0 + sum w_j (G_j + G_j'),
    one_sided = G0 + sum w_j G_j,
    short_run = G0,
    with w_j = 1 - j/(bw+1) at bandwidth bw = ``resolve_bandwidth(bandwidth, n)``
    and G_j = (1/n) sum_t eta_t eta_{t-j}' on the demeaned series; the
    divisor n keeps omega positive semidefinite.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim not in (1, 2):
        raise ValueError(f"a series must have shape (n,) or (n, m), got {eta.shape}")
    n = eta.shape[0]
    if n < 2:
        raise TooFewObservations(n, 2)
    bw = resolve_bandwidth(bandwidth, n)
    if bw >= n:
        raise BandwidthTooLarge(bw, n)
    v = eta - eta.sum(axis=0) / n  # the mean's bits, without np.mean's overhead
    vt = v.T  # once: a 1-D series' .T costs a view per lag
    G = np.asarray([vt[..., j:] @ v[: n - j] / n for j in range(bw + 1)])
    w = _bartlett_weights(bw).reshape((bw,) + (1,) * (G.ndim - 1))
    S = (w * G[1:]).sum(axis=0)
    return G[0] + (S + S.T), G[0] + S, G[0]


def row_ranges(d: np.ndarray) -> list[tuple[float, float] | DegenerateSeries]:
    """The (max, min) of each row of ``d`` (R, ...), from one max and one
    min over the block, or ``DegenerateSeries`` for a row holding a NaN or
    an infinity: the screen the unit-root and Granger blocks run on their
    rows' differences before any factorization."""
    axes = tuple(range(1, d.ndim))
    return [(hi, lo) if math.isfinite(hi) and math.isfinite(lo)
            else DegenerateSeries("series has a non-finite value")
            for hi, lo in zip(d.max(axis=axes).tolist(), d.min(axis=axes).tolist())]


def tail_probability(dist: str, stat: float, df=None) -> float:
    """Upper-tail probability for the normal, chi2, and F families.

    The normal, chi2 and F tails come from the ``math`` module: erfc, and
    the regularized incomplete gamma and beta functions by power series
    and continued fraction (DiDonato & Morris 1992; Numerical Recipes
    6.2-6.4).  Against a 50-digit oracle they are off by at most 2.8e-16,
    6.3e-15 and 7.5e-14 (relative) on the test grid, below scipy's own
    errors there.  Accuracy falls off outside ardlkit's use: for a chi2
    df below 1 the series' 1 - P cancels, and for an F with d1 + d2 past
    340 the lgamma form costs about lgamma((d1 + d2) / 2) ulp.  A series
    or fraction that does not converge raises ``NumericalError``.

    As in scipy.stats, a chi2 or F statistic at or below zero gives 1.0,
    NaN gives NaN, and +-inf give 0 and 1.
    """
    if dist == "normal":
        return math.nan if math.isnan(stat) else _normal_sf(stat)
    if dist == "chi2":
        if df is None or df <= 0:
            raise InvalidDf(f"chi2 distribution needs df > 0, got {df}")
        return _chi2_sf(df, stat) if 0.0 < stat < math.inf else _outside_support(stat)
    if dist == "f":
        try:
            d1, d2 = df
        except (TypeError, ValueError):
            raise InvalidDf(f"F distribution needs df pair, got {df}") from None
        if d1 <= 0 or d2 <= 0:
            raise InvalidDf(f"F distribution needs positive df pair, got {df}")
        return _f_sf(d1, d2, stat) if 0.0 < stat < math.inf else _outside_support(stat)
    raise ValueError(f"unknown distribution {dist!r}")


# 1/sqrt(2) as a double-double, its high part split in two halves of 26
# bits by Dekker's constant 2^27 + 1, and 2/sqrt(pi).
_RSQRT2_HI = 0.7071067811865476
_RSQRT2_LO = -4.833646656726457e-17
_SPLIT = 134217729.0
_RSQRT2_HI_HI = _SPLIT * _RSQRT2_HI - (_SPLIT * _RSQRT2_HI - _RSQRT2_HI)
_RSQRT2_HI_LO = _RSQRT2_HI - _RSQRT2_HI_HI
_TWO_OVER_SQRT_PI = 1.1283791670955126

# The series and continued fractions stop when a step changes the result
# by at most _EPS (relative), raise after _MAX_TERMS steps, and keep
# Lentz's denominators away from zero with _TINY.
_EPS = 2.0**-52
_MAX_TERMS = 10_000
_TINY = 1e-300


def _outside_support(stat: float) -> float:
    """The chi2 or F tail at a statistic outside (0, inf)."""
    return math.nan if math.isnan(stat) else 1.0 if stat <= 0.0 else 0.0


def _normal_sf(x: float) -> float:
    """Q(x) = erfc(z) / 2 at z = x / sqrt(2), where the rounding error dz
    of z (an exact product by Dekker's split) is put back to first order:
    erfc(z + dz) = erfc(z) - 2/sqrt(pi) exp(-z^2) dz."""
    if x < 0.0:
        return 1.0 - _normal_sf(-x)
    if x > 40.0:  # Q(40) ~ 4e-350 underflows, and inf would split to nan
        return 0.0
    z = x * _RSQRT2_HI
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    dz = (((x_hi * _RSQRT2_HI_HI - z) + x_hi * _RSQRT2_HI_LO + x_lo * _RSQRT2_HI_HI)
          + x_lo * _RSQRT2_HI_LO + x * _RSQRT2_LO)
    return 0.5 * (math.erfc(z) - _TWO_OVER_SQRT_PI * math.exp(-z * z) * dz)


def _chi2_sf(df: float, stat: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) at a = df/2, x = stat/2 > 0: one
    minus the power series of P(a, x) below x = a + 1, the continued
    fraction of Q above it (Numerical Recipes' gser and gcf)."""
    a, x = 0.5 * df, 0.5 * stat
    # e^-x x^a / Gamma(a); x^a is taken in two halves, which cannot
    # overflow here, and the lgamma form loses |a log x - x| ulp
    if a < 170.0 and x < 700.0:
        half = x ** (0.5 * a)
        front = math.exp(-x) * half * half / math.gamma(a)
    else:
        front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _MAX_TERMS):
            term *= x / (a + n)
            total += term
            if term < total * _EPS:
                return 1.0 - front * total
        raise NumericalError(f"incomplete gamma series did not converge at a={a}, x={x}")
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_TERMS):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return front * h
    raise NumericalError(f"incomplete gamma continued fraction did not converge at a={a}, x={x}")


def _f_sf(d1: float, d2: float, f: float) -> float:
    """P(F > f) = I_x(d2/2, d1/2) at x = 1 / (1 + r), r = d1 f / d2 > 0,
    from the continued fraction of I_x below its switch point and of
    I_y(d1/2, d2/2) = 1 - I_x above it (Numerical Recipes' betai)."""
    a, b = 0.5 * d2, 0.5 * d1
    r = d1 * f / d2
    if r == 0.0:  # f so small that r underflows
        return 1.0
    # x^a y^b / B(a, b) with y = 1 - x = r / (1 + r).  s = a + b rounds by
    # ds for non-integer df, which Gamma(s + ds) = Gamma(s) exp(ds psi(s))
    # puts back; |ds| <= ulp(s) / 2, so psi(s) ~ log(s) - 1/(2s) suffices.
    s = a + b
    ds = (a - (s - (s - a))) + (b - (s - a))
    log_xy = ds * (math.log(s) - 0.5 / s) - a * math.log1p(r) - b * math.log1p(1.0 / r)
    if s < 170.0 and log_xy > -700.0:
        front = math.gamma(s) / (math.gamma(a) * math.gamma(b)) * math.exp(log_xy)
    else:
        front = math.exp(math.lgamma(s) - math.lgamma(a) - math.lgamma(b) + log_xy)
    x = 1.0 / (1.0 + r)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, r / (1.0 + r)) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction for I_x(a, b) B(a, b) a / (x^a (1-x)^b) by
    modified Lentz (Numerical Recipes' betacf); it converges fast for
    x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        an = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        d = 1.0 + an * d
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = 1.0 + an / c
        if abs(c) < _TINY:
            c = _TINY
        h *= d * c
        an = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        d = 1.0 + an * d
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = 1.0 + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise NumericalError(f"incomplete beta continued fraction did not converge at a={a}, b={b}, x={x}")
