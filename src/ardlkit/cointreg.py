"""FMOLS, DOLS, and CCR cointegrating-regression estimators.

All three correct static OLS for endogeneity and serial correlation.
FMOLS applies a semiparametric transform of the dependent variable plus
a bias term, DOLS augments the regression with leads and lags of the
differenced regressors, and CCR applies Park's canonical transformation
to both sides.  With bandwidth 0 and orthogonal disturbances every
correction vanishes and each estimator reduces to OLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SeriesTooShort, SingularOmega22, TooFewObservations
from .frame import ModelSpec, TimeSeriesFrame
from .regression import KernelSpec, RANK_TOL, long_run_covariance, long_run_variance, ols, tail_probability


@dataclass(frozen=True)
class CointEstimate:
    method: str
    coef: dict[str, tuple[float, float, float]]  # name -> (coef, stderr, tstat)
    r2: float
    bandwidth_or_leads: int
    pvalues: dict[str, float]


def _static_pieces(frame: TimeSeriesFrame, spec: ModelSpec):
    """Static OLS residuals u_t and regressor innovations v_t = dx_t."""
    spec.validate_against(frame)
    y = frame.column(spec.dependent)
    xmat = np.column_stack([frame.column(name) for name in spec.regressors])
    n = frame.n
    design = np.column_stack([xmat, np.ones(n)])
    static = ols(y, design)
    beta = static.coef[: spec.k]
    u = static.residuals
    v = np.diff(xmat, axis=0)
    return y, xmat, static, beta, u, v


def _finish(method, names, coef, stderr, r2, width) -> CointEstimate:
    table = {}
    pvals = {}
    for name, c, s in zip(names, coef, stderr):
        t = c / s if s > 0 else math.inf * np.sign(c)
        table[name] = (float(c), float(s), float(t))
        pvals[name] = 2.0 * tail_probability("normal", abs(t))
    return CointEstimate(method, table, float(r2), int(width), pvals)


def _r2(y: np.ndarray, resid: np.ndarray) -> float:
    centered = y - y.mean()
    tss = float(centered @ centered)
    return 1.0 - float(resid @ resid) / tss if tss > 0 else 0.0


def _long_run_partition(u: np.ndarray, v: np.ndarray, kernel: KernelSpec):
    """The block FMOLS and CCR share: the Bartlett long-run covariance of
    eta_t = (u_t, dx_t') and the partition of Omega around the regressors.

    Returns eta, the resolved bandwidth, Lambda, Sigma, the gain
    Omega_22^-1 Omega_21 and omega_11.2 = omega_11 - Omega_12 gain.
    """
    n = u.shape[0]
    if n < 20:
        raise TooFewObservations(n, 20)
    eta = np.column_stack([u[1:], v])
    bw = kernel.resolve(eta.shape[0])
    omega, lam, sigma = long_run_covariance(eta, KernelSpec(bandwidth=bw))
    omega_12 = omega[:1, 1:]
    omega_22 = omega[1:, 1:]
    if np.linalg.cond(omega_22) > 1.0 / RANK_TOL:
        raise SingularOmega22()
    gain = np.linalg.solve(omega_22, omega_12.T)
    omega_112 = float(omega[0, 0] - (omega_12 @ gain)[0, 0])
    return eta, bw, lam, sigma, gain, omega_112


def fmols(frame: TimeSeriesFrame, spec: ModelSpec,
          kernel: KernelSpec = KernelSpec()) -> CointEstimate:
    """Phillips-Hansen fully modified OLS."""
    y, xmat, static, beta, u, v = _static_pieces(frame, spec)
    n = frame.n
    _eta, bw, lam, _sigma, gain, omega_112 = _long_run_partition(u, v, kernel)

    y_plus = y[1:] - v @ gain.ravel()
    lam_12_plus = lam[:1, 1:] - gain.T @ lam[1:, 1:]

    z = np.column_stack([xmat[1:], np.ones(n - 1)])
    fit = ols(y_plus, z)
    bias = np.zeros(fit.nparams)
    bias[: spec.k] = lam_12_plus.ravel()
    theta = fit.coef - fit.nobs * (fit.xtx_inverse @ bias)
    stderr = np.sqrt(max(omega_112, 0.0) * fit.xtx_inverse.diagonal())

    resid = y[1:] - z @ theta
    names = (*spec.regressors, "const")
    return _finish("fmols", names, theta, stderr, _r2(y[1:], resid), bw)


def dols(frame: TimeSeriesFrame, spec: ModelSpec, leads: int = 1,
         lags: int = 1) -> CointEstimate:
    """Stock-Watson dynamic OLS with leads and lags of the differenced
    regressors; reported coefficients cover the levels and intercept."""
    if leads < 0 or lags < 0:
        raise ValueError("leads and lags must be >= 0")
    y, xmat, _static, _beta, _u, v = _static_pieces(frame, spec)
    n = frame.n
    k = spec.k
    if n < leads + lags + k + 10:
        raise SeriesTooShort(
            f"DOLS needs n >= leads + lags + k + 10 (n={n}, leads={leads}, lags={lags})"
        )

    # v has rows for t = 1..n-1; observation t is usable when
    # t-lags >= 1 and t+leads <= n-1
    t = np.arange(1 + lags, n - leads)
    cols = [xmat[t], np.ones(t.shape[0])[:, None]]
    names = [*spec.regressors, "const"]
    for j in range(-lags, leads + 1):
        cols.append(v[t + j - 1])
    X = np.column_stack(cols)
    try:
        fit = ols(y[t], X)
    except RankDeficient as exc:
        raise RankDeficient(exc.columns) from None

    # rescale conventional standard errors by the residual long-run variance
    lrv = long_run_variance(fit.residuals, KernelSpec(bandwidth="auto"))
    scale = lrv / fit.s2 if fit.s2 > 0 else 1.0
    stderr = fit.stderr * math.sqrt(max(scale, 0.0))
    width = k + 1
    return _finish("dols", names, fit.coef[:width], stderr[:width],
                   _r2(y[t], fit.residuals), leads + lags)


def ccr(frame: TimeSeriesFrame, spec: ModelSpec,
        kernel: KernelSpec = KernelSpec()) -> CointEstimate:
    """Park's canonical cointegrating regression."""
    y, xmat, static, beta, u, v = _static_pieces(frame, spec)
    n = frame.n
    eta, bw, lam, sigma, gain, omega_112 = _long_run_partition(u, v, kernel)
    if np.linalg.cond(sigma) > 1.0 / RANK_TOL:
        raise SingularOmega22()
    shift = np.linalg.solve(sigma, lam[:, 1:])  # Sigma^-1 Lambda_2

    x_star = xmat[1:] - eta @ shift
    y_star = y[1:] - v @ gain.ravel() - eta @ (shift @ beta)

    fit = ols(y_star, np.column_stack([x_star, np.ones(n - 1)]))
    stderr = np.sqrt(max(omega_112, 0.0) * fit.xtx_inverse.diagonal())

    z_orig = np.column_stack([xmat[1:], np.ones(n - 1)])
    resid = y[1:] - z_orig @ fit.coef
    names = (*spec.regressors, "const")
    return _finish("ccr", names, fit.coef, stderr, _r2(y[1:], resid), bw)
