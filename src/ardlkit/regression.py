"""Least squares, hypothesis-test plumbing, information criteria, and
kernel long-run variance estimation.

This is the shared numerical engine.  Fits go through a single SVD so
that rank detection, the solution, and (X'X)^-1 all come from one
rank-revealing factorization; severe collinearity among lagged logs is
the expected failure mode and is reported with the offending columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ArdlkitError, BandwidthTooLarge, InvalidDf, RankDeficient, TooFewObservations

# The information criteria criterion_from_rss knows.
CRITERIA = ("aic", "sic", "hq")

# Singular values below RANK_TOL * largest count as zero.
RANK_TOL = 1e-10

# subset_rss factors at most this many subsets per batched QR, so its
# working copy stays small whatever the number of subsets.
SUBSET_CHUNK = 24

# subset_criteria leaves a subset whose singular-value ratio lies within
# this factor of RANK_TOL to ols, and re-scores by ols the subsets whose
# criteria lie within TIE_RTOL (relative) of the smallest: batched and
# per-subset factorizations differ in the last bits, and these are the
# decisions such bits could flip.
RANK_MARGIN = 10.0
TIE_RTOL = 1e-8


@dataclass(frozen=True)
class RegressionResult:
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


@dataclass(frozen=True)
class KernelSpec:
    """Bartlett-kernel long-run variance settings.

    ``bandwidth`` is a non-negative integer or "auto", which resolves to
    the Newey-West rule floor(4 * (n/100)^(2/9)).
    """

    kernel: str = "bartlett"
    bandwidth: int | str = "auto"

    def __post_init__(self):
        if self.kernel != "bartlett":
            raise ValueError("only the bartlett kernel is supported")
        if self.bandwidth != "auto":
            if int(self.bandwidth) != self.bandwidth or self.bandwidth < 0:
                raise ValueError("bandwidth must be a non-negative integer or 'auto'")

    def resolve(self, n: int) -> int:
        if self.bandwidth == "auto":
            return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))
        return int(self.bandwidth)


def _dependent_columns(vt: np.ndarray, s: np.ndarray, tol: float) -> list[int]:
    """Columns implicated in the null space of a rank-deficient design."""
    null_rows = vt[s < tol] if s.size else vt
    if null_rows.size == 0:
        null_rows = vt[-1:]
    weights = np.abs(null_rows).max(axis=0)
    return [int(i) for i in np.flatnonzero(weights > 1e-8 * weights.max())]


def ols(y, X) -> RegressionResult:
    """Minimize ||y - Xb||^2 via SVD; full diagnostics retained.

    Raises ``RankDeficient`` naming the dependent columns when the
    design is numerically singular, and ``TooFewObservations`` when
    n <= k.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, k = X.shape
    if n <= k:
        raise TooFewObservations(n, k)

    u, s, vt = np.linalg.svd(X, full_matrices=False)
    tol = RANK_TOL * s[0] if s[0] > 0 else RANK_TOL
    if s[-1] < tol:  # singular values come sorted, largest first
        raise RankDeficient(_dependent_columns(vt, s, tol))

    coef = vt.T @ ((u.T @ y) / s)
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    xtx_inv = (vt.T / s**2) @ vt

    has_const = np.any(np.ptp(X, axis=0) == 0)
    if has_const:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    degenerate = tss <= 0.0
    r2 = 0.0 if degenerate else 1.0 - rss / tss

    df_resid = n - k
    s2 = rss / df_resid
    stderr = np.sqrt(np.maximum(s2 * xtx_inv.diagonal(), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = coef / stderr  # a zero stderr gives +-inf, or nan for a zero coef
    sigma2 = rss / n
    if sigma2 > 0:
        loglik = -n / 2.0 * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0)
    else:
        loglik = math.inf
    return RegressionResult(
        coef=coef,
        stderr=stderr,
        tstats=tstats,
        residuals=residuals,
        rss=rss,
        tss=tss,
        r2=r2,
        df_resid=df_resid,
        loglik=loglik,
        xtx_inverse=xtx_inv,
        degenerate_r2=degenerate,
    )


class WaldF(NamedTuple):
    f: float
    p: float
    negative_numerator: bool


def wald_f_zero(fit: RegressionResult, subset, restricted_rss: float) -> WaldF:
    """F-test that the coefficients indexed by ``subset`` are jointly zero.

    ``restricted_rss`` comes from the nested model with those columns
    dropped.  A numerator below -1e-10 (nesting violated) is reported as
    F = 0 with a flag rather than raised.
    """
    m = len(tuple(subset))
    if m == 0:
        raise ValueError("subset must be nonempty")
    num = restricted_rss - fit.rss
    if num < -1e-10 * max(fit.rss, 1.0):
        return WaldF(0.0, 1.0, True)
    num = max(num, 0.0)
    f = (num / m) / (fit.rss / fit.df_resid)
    p = tail_probability("f", f, (m, fit.df_resid))
    return WaldF(float(f), float(p), False)


def subset_rss(y, X, subsets) -> tuple[np.ndarray, np.ndarray]:
    """RSS of y regressed on X[:, s] for every column subset s in
    ``subsets``, and a lower bound on the singular-value ratio
    s_min/s_max of X[:, s].

    The subsets go by size, SUBSET_CHUNK at a time, through one batched
    Householder QR: each is stacked as [X_S | y], zero-padded on the
    right to the widest of its chunk (columns to the right leave the
    leading ones of a QR unchanged), and R[m, m]**2 is its RSS.  The
    ratio bound is X's own s_min/s_max when that is at least
    RANK_TOL * RANK_MARGIN, since dropping columns cannot lower it;
    otherwise it is the exact ratio of R[:m, :m], whose singular values
    are those of X_S, so ``ratio < RANK_TOL`` is the rule by which
    ``ols`` rejects X_S.  Every subset needs fewer columns than X has
    rows.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, k = X.shape
    s = np.linalg.svd(X, compute_uv=False)
    bound = float(s[-1] / s[0]) if n >= k and s[0] > 0 else 0.0
    exact = bound < RANK_TOL * RANK_MARGIN
    columns = np.vstack([X.T, y, np.zeros(n)])  # row k is y, row k + 1 padding
    order = sorted(range(len(subsets)), key=lambda i: len(subsets[i]))
    rss = np.empty(len(subsets))
    ratio = np.full(len(subsets), bound)
    for lo in range(0, len(order), SUBSET_CHUNK):
        chunk = order[lo:lo + SUBSET_CHUNK]
        sizes = np.array([len(subsets[i]) for i in chunk])
        width = int(sizes[-1])
        if n <= width:
            raise TooFewObservations(n, width)
        idx = np.full((len(chunk), width + 1), k + 1)
        for row, i in enumerate(chunk):
            idx[row, :sizes[row] + 1] = [*subsets[i], k]
        r = np.linalg.qr(columns[idx].transpose(0, 2, 1), mode="r")
        rows = np.arange(len(chunk))
        rss[chunk] = r[rows, sizes, sizes] ** 2
        if exact:
            block = r[:, :width, :width] * (np.arange(width) < sizes[:, None])[:, None, :]
            sv = np.linalg.svd(block, compute_uv=False)
            ratio[chunk] = np.divide(sv[rows, sizes - 1], sv[:, 0],
                                     out=np.zeros(len(chunk)), where=sv[:, 0] > 0)
    return rss, ratio


def subset_criteria(y, X, subsets, kind: str = "aic") -> list[float | None]:
    """``info_criterion(ols(y, X[:, s]), kind)``, to rounding, for every
    column subset s, or None where ``ols`` rejects X[:, s]; scored by
    ``subset_rss``.

    A subset whose singular-value ratio is within RANK_MARGIN of RANK_TOL
    takes the verdict of ``ols``.  When two or more subsets lie within
    TIE_RTOL (relative) of the smallest criterion, ``ols`` re-scores them,
    so a choice between near-equal criteria rests on exact values.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    scores: list[float | None] = [None] * len(subsets)
    exact: set[int] = set()

    def refit(i: int) -> None:
        exact.add(i)
        try:
            scores[i] = info_criterion(ols(y, X[:, subsets[i]]), kind)
        except (ArdlkitError, np.linalg.LinAlgError):
            scores[i] = None

    fits = [i for i, subset in enumerate(subsets) if len(subset) < n]
    rss, ratio = subset_rss(y, X, [subsets[i] for i in fits])
    for i, r, q in zip(fits, rss, ratio):
        if q >= RANK_TOL * RANK_MARGIN:
            scores[i] = criterion_from_rss(float(r), n, len(subsets[i]), kind)
        elif q >= RANK_TOL / RANK_MARGIN:
            refit(i)
    while True:
        live = [(s, i) for i, s in enumerate(scores) if s is not None]
        if not live:
            return scores
        best = min(live)[0]
        window = TIE_RTOL * max(abs(best), 1.0) if math.isfinite(best) else 0.0
        near = [i for s, i in live if s == best or s - best <= window]
        todo = [i for i in near if i not in exact]
        if len(near) < 2 or not todo:
            return scores
        for i in todo:
            refit(i)


def first_minimum(scores) -> int:
    """Index of the lowest of ``scores`` (None: skipped), where a later one
    must beat the best so far by more than 1e-12; 0 if none is scored."""
    best_i, best = 0, math.inf
    for i, score in enumerate(scores):
        if score is not None and score < best - 1e-12:
            best_i, best = i, score
    return best_i


def criterion_from_rss(rss: float, n: int, k: int, kind: str = "aic") -> float:
    """aic / sic / hq of a k-parameter Gaussian fit with residual sum of
    squares ``rss`` on n observations; rss <= 0 gives -inf."""
    if rss <= 0.0:
        return -math.inf
    base = n * math.log(rss / n)
    if kind == "aic":
        return base + 2.0 * k
    if kind == "sic":
        return base + k * math.log(n)
    if kind == "hq":
        return base + 2.0 * k * math.log(math.log(n))
    raise ValueError(f"unknown criterion {kind!r}")


def info_criterion(fit: RegressionResult, kind: str = "aic") -> float:
    """aic / sic / hq on the concentrated Gaussian likelihood.

    A perfect fit (rss == 0) returns -inf; callers must handle the
    sentinel.
    """
    return criterion_from_rss(fit.rss, fit.nobs, fit.nparams, kind)


def _autocovariances(u: np.ndarray, upto: int) -> np.ndarray:
    """gamma_0..gamma_upto of the demeaned series, divisor n."""
    n = u.shape[0]
    v = u - u.mean()
    return np.asarray([v[j:] @ v[: n - j] / n for j in range(upto + 1)])


def long_run_variance(u, spec: KernelSpec = KernelSpec()) -> float:
    """Bartlett-kernel long-run variance of a scalar series.

    lambda^2 = gamma_0 + 2 * sum_{j<=l} (1 - j/(l+1)) gamma_j, computed
    on the demeaned series with divisor-n autocovariances (keeps the
    estimate positive semidefinite).
    """
    u = np.asarray(u, dtype=float).ravel()
    n = u.shape[0]
    if n < 2:
        raise TooFewObservations(n, 2)
    bw = spec.resolve(n)
    if bw >= n:
        raise BandwidthTooLarge(bw, n)
    gamma = _autocovariances(u, bw)
    weights = 1.0 - np.arange(1, bw + 1) / (bw + 1.0)
    return float(gamma[0] + 2.0 * np.sum(weights * gamma[1:]))


def long_run_covariance(eta, spec: KernelSpec = KernelSpec()):
    """Matrix analogue: returns (omega, one_sided, short_run).

    omega     = G0 + sum w_j (G_j + G_j'),
    one_sided = G0 + sum w_j G_j,
    short_run = G0,
    with G_j = (1/n) sum_t eta_t eta_{t-j}' on the demeaned series.
    """
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    n, m = eta.shape
    if n < 2:
        raise TooFewObservations(n, 2)
    bw = spec.resolve(n)
    if bw >= n:
        raise BandwidthTooLarge(bw, n)
    v = eta - eta.mean(axis=0)
    g0 = v.T @ v / n
    omega = g0.copy()
    one_sided = g0.copy()
    for j in range(1, bw + 1):
        w = 1.0 - j / (bw + 1.0)
        gj = v[j:].T @ v[: n - j] / n
        omega += w * (gj + gj.T)
        one_sided += w * gj
    return omega, one_sided, g0


def tail_probability(dist: str, stat: float, df=None) -> float:
    """Upper-tail probability for the normal, t, chi2, and F families.

    Calls the scipy.special ufuncs behind ``scipy.stats.<dist>.sf``, so
    the values are the same to the bit without importing scipy.stats,
    which is most of a cold start.  As in scipy.stats, a chi2 or F
    statistic at or below zero gives 1.0 (the ufuncs give NaN below
    zero), and NaN gives NaN.
    """
    if dist == "normal":
        return float(special.ndtr(-stat))
    if dist == "t":
        if df is None or df <= 0:
            raise InvalidDf(f"t distribution needs df > 0, got {df}")
        return float(special.stdtr(df, -stat))
    if dist == "chi2":
        if df is None or df <= 0:
            raise InvalidDf(f"chi2 distribution needs df > 0, got {df}")
        return 1.0 if stat <= 0 else float(special.chdtrc(df, stat))
    if dist == "f":
        try:
            d1, d2 = df
        except (TypeError, ValueError):
            raise InvalidDf(f"F distribution needs df pair, got {df}") from None
        if d1 <= 0 or d2 <= 0:
            raise InvalidDf(f"F distribution needs positive df pair, got {df}")
        return 1.0 if stat <= 0 else float(special.fdtrc(d1, d2, stat))
    raise ValueError(f"unknown distribution {dist!r}")
