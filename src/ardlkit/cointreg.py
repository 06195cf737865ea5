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
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, SeriesTooShort, SingularOmega22, TooFewObservations
from .frame import ModelSpec, TimeSeriesFrame
from .regression import (RANK_TOL, long_run_covariance, long_run_variance, normal_test, ols,
                         resolve_bandwidth, singular_value_ratio)


class CointEstimate(NamedTuple):
    method: str
    coef: dict[str, tuple[float, float, float]]  # name -> (coef, stderr, tstat)
    r2: float
    bandwidth_or_leads: int
    pvalues: dict[str, float]


def _static_data(frame: TimeSeriesFrame, spec: ModelSpec):
    """y, the static design [x_t, 1], and the regressor innovations
    v_t = dx_t.  FMOLS and CCR start from the static OLS of y on the
    design; DOLS does not."""
    spec.validate_against(frame)
    y = frame.column(spec.dependent)
    xmat = np.column_stack([frame.column(name) for name in spec.regressors])
    design = np.column_stack([xmat, np.ones(frame.n)])
    return y, design, np.diff(xmat, axis=0)


def _finish(method, names, coef, stderr, r2, width) -> CointEstimate:
    table = {}
    pvals = {}
    for name, c, s in zip(names, coef, stderr):
        t, pvals[name] = normal_test(c, s)
        table[name] = (float(c), float(s), float(t))
    return CointEstimate(method, table, float(r2), int(width), pvals)


def _r2(y: np.ndarray, resid: np.ndarray) -> float:
    centered = y - y.mean()
    tss = float(centered @ centered)
    return 1.0 - float(resid @ resid) / tss if tss > 0 else 0.0


def _long_run_partition(u: np.ndarray, v: np.ndarray, bandwidth: int | str):
    """The block FMOLS and CCR share: the Bartlett long-run covariance of
    eta_t = (u_t, dx_t') and the partition of Omega around the regressors.

    Returns eta, the resolved bandwidth, Lambda, Sigma, the gain
    Omega_22^-1 Omega_21 and omega_11.2 = omega_11 - Omega_12 gain.
    """
    n = u.shape[0]
    if n < 20:
        raise TooFewObservations(n, 20)
    eta = np.column_stack([u[1:], v])
    bw = resolve_bandwidth(bandwidth, eta.shape[0])
    omega, lam, sigma = long_run_covariance(eta, bw)
    omega_12 = omega[:1, 1:]
    omega_22 = omega[1:, 1:]
    if singular_value_ratio(np.linalg.svd(omega_22, compute_uv=False)) < RANK_TOL:
        raise SingularOmega22()
    gain = np.linalg.solve(omega_22, omega_12.T)
    omega_112 = float(omega[0, 0] - (omega_12 @ gain)[0, 0])
    return eta, bw, lam, sigma, gain, omega_112


def fmols(frame: TimeSeriesFrame, spec: ModelSpec,
          bandwidth: int | str = "auto") -> CointEstimate:
    """Phillips-Hansen fully modified OLS at Bartlett ``bandwidth``."""
    y, design, v = _static_data(frame, spec)
    u = ols(y, design).residuals
    _eta, bw, lam, _sigma, gain, omega_112 = _long_run_partition(u, v, bandwidth)

    y_plus = y[1:] - v @ gain.ravel()
    lam_12_plus = lam[:1, 1:] - gain.T @ lam[1:, 1:]

    z = design[1:]
    fit = ols(y_plus, z)
    bias = np.zeros(fit.nparams)
    bias[: spec.k] = lam_12_plus.ravel()
    theta = fit.coef - fit.nobs * (fit.xtx_inverse @ bias)
    stderr = np.sqrt(max(omega_112, 0.0) * fit.xtx_inverse.diagonal())

    resid = y[1:] - z @ theta
    names = (*spec.regressors, "const")
    return _finish("fmols", names, theta, stderr, _r2(y[1:], resid), bw)


def dols(frame: TimeSeriesFrame, spec: ModelSpec, leads: int = 1,
         lags: int = 1, bandwidth: int | str = "auto") -> CointEstimate:
    """Stock-Watson dynamic OLS with leads and lags of the differenced
    regressors; reported coefficients cover the levels and intercept,
    with standard errors scaled by the residuals' Bartlett long-run
    variance at ``bandwidth``."""
    if leads < 0 or lags < 0:
        raise ValueError("leads and lags must be >= 0")
    y, design, v = _static_data(frame, spec)
    n = frame.n
    k = spec.k
    if n < leads + lags + k + 10:
        raise SeriesTooShort(
            f"DOLS needs n >= leads + lags + k + 10 (n={n}, leads={leads}, lags={lags})"
        )

    # v has rows for t = 1..n-1; observation t is usable when
    # t-lags >= 1 and t+leads <= n-1
    t = np.arange(1 + lags, n - leads)
    cols = [design[t]]
    names = [*spec.regressors, "const"]
    for j in range(-lags, leads + 1):
        cols.append(v[t + j - 1])
    X = np.column_stack(cols)
    fit = ols(y[t], X)

    # rescale conventional standard errors by the residual long-run variance
    lrv = long_run_variance(fit.residuals, bandwidth)
    scale = lrv / fit.s2 if fit.s2 > 0 else 1.0
    stderr = fit.stderr * math.sqrt(max(scale, 0.0))
    width = k + 1
    return _finish("dols", names, fit.coef[:width], stderr[:width],
                   _r2(y[t], fit.residuals), leads + lags)


def ccr(frame: TimeSeriesFrame, spec: ModelSpec,
        bandwidth: int | str = "auto") -> CointEstimate:
    """Park's canonical cointegrating regression at Bartlett ``bandwidth``."""
    y, design, v = _static_data(frame, spec)
    static = ols(y, design)
    beta, u = static.coef[:spec.k], static.residuals
    eta, bw, lam, sigma, gain, omega_112 = _long_run_partition(u, v, bandwidth)
    if singular_value_ratio(np.linalg.svd(sigma, compute_uv=False)) < RANK_TOL:
        raise NumericalError("short-run covariance Sigma of (u, dx) is singular")
    shift = np.linalg.solve(sigma, lam[:, 1:])  # Sigma^-1 Lambda_2

    x_star = design[1:, :spec.k] - eta @ shift
    y_star = y[1:] - v @ gain.ravel() - eta @ (shift @ beta)

    fit = ols(y_star, np.column_stack([x_star, np.ones(frame.n - 1)]))
    stderr = np.sqrt(max(omega_112, 0.0) * fit.xtx_inverse.diagonal())

    resid = y[1:] - design[1:] @ fit.coef
    names = (*spec.regressors, "const")
    return _finish("ccr", names, fit.coef, stderr, _r2(y[1:], resid), bw)
