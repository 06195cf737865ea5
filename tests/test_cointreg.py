import numpy as np
import pytest

from ardlkit import errors
from ardlkit.cointreg import ccr, dols, fmols
from ardlkit.frame import ModelSpec, load_csv
from ardlkit.regression import KernelSpec, ols
from ardlkit.synthetic import ecm_system, normals, random_walk

from conftest import FIXTURE_CSV, make_frame


def orthogonalized_frame(T=60, seed=17, beta=(0.7, -0.4), const=2.0):
    """Construct data on which every correction term vanishes exactly.

    The noise is projected out of the span of every moment the three
    estimators touch (levels, padded lags and leads of the regressors,
    demeaned differences, padded intercepts), so with bandwidth 0 the
    semiparametric transforms are identities and all three estimators
    must reproduce the static OLS coefficients.
    """
    k = len(beta)
    xs = np.column_stack([random_walk(T, seed + 100 * (j + 1)) for j in range(k)])
    raw = normals(seed, T)

    span = [np.ones(T)]
    for j in range(k):
        x = xs[:, j]
        dx = np.diff(x)
        span.append(x)
        span.append(np.concatenate([[0.0], dx - dx.mean()]))
        span.append(np.concatenate([[0.0], x[:-1]]))
        span.append(np.concatenate([[0.0], x[1:]]))
    span.append(np.concatenate([[0.0], np.ones(T - 1)]))
    S = np.column_stack(span)
    proj = S @ np.linalg.lstsq(S, raw, rcond=None)[0]
    u = raw - proj

    y = const + xs @ np.asarray(beta) + u
    cols = {"Y": y}
    for j in range(k):
        cols[f"X{j + 1}"] = xs[:, j]
    return make_frame(cols), np.asarray(beta), const


def static_ols_theta(frame, spec):
    y = frame.column(spec.dependent)
    X = np.column_stack([frame.column(n) for n in spec.regressors] + [np.ones(frame.n)])
    return ols(y, X).coef



def oracle_fmols_ccr(mpmath, frame, spec, bw):
    """FMOLS and CCR coefficients and standard errors in mpmath at the
    caller's precision, each least-squares step by its normal equations."""
    mpf = mpmath.mpf
    n, k = frame.n, spec.k
    w = k + 1
    y = [mpf(float(v)) for v in frame.column(spec.dependent)]
    x = [[mpf(float(v)) for v in row]
         for row in np.column_stack([frame.column(r) for r in spec.regressors])]

    def lsq(lhs, rows):
        Z = mpmath.matrix(rows)
        inverse = (Z.T * Z) ** -1
        return inverse * (Z.T * mpmath.matrix(lhs)), inverse

    def dot(a, b):
        return mpmath.fsum(p * q for p, q in zip(a, b))

    static, _ = lsq(y, [[*x[t], 1] for t in range(n)])
    beta = [static[j] for j in range(k)]
    u = [y[t] - dot(x[t], beta) - static[k] for t in range(n)]
    eta = [[u[t], *(x[t][j] - x[t - 1][j] for j in range(k))] for t in range(1, n)]
    m = n - 1
    means = [mpmath.fsum(row[a] for row in eta) / m for a in range(w)]
    dev = [[row[a] - means[a] for a in range(w)] for row in eta]

    def gamma(j):
        return mpmath.matrix([[mpmath.fsum(dev[t][a] * dev[t - j][b] for t in range(j, m)) / m
                               for b in range(w)] for a in range(w)])

    sigma = gamma(0)
    omega, lam = sigma.copy(), sigma.copy()
    for j in range(1, bw + 1):
        g, weight = gamma(j), 1 - mpf(j) / (bw + 1)
        omega += weight * (g + g.T)
        lam += weight * g
    omega_22 = mpmath.matrix([[omega[1 + a, 1 + b] for b in range(k)] for a in range(k)])
    gain = omega_22 ** -1 * mpmath.matrix([omega[1 + a, 0] for a in range(k)])
    omega_112 = omega[0, 0] - mpmath.fsum(omega[0, 1 + a] * gain[a] for a in range(k))
    gain = [gain[a] for a in range(k)]
    z = [[*x[t], 1] for t in range(1, n)]

    y_plus = [y[t] - dot(eta[t - 1][1:], gain) for t in range(1, n)]
    bias = [lam[0, 1 + j] - mpmath.fsum(gain[a] * lam[1 + a, 1 + j] for a in range(k))
            for j in range(k)] + [0]
    Z = mpmath.matrix(z)
    inverse = (Z.T * Z) ** -1
    fm = inverse * (Z.T * mpmath.matrix(y_plus) - m * mpmath.matrix(bias))
    fm_se = [mpmath.sqrt(omega_112 * inverse[j, j]) for j in range(w)]

    shift = sigma ** -1 * mpmath.matrix([[lam[a, 1 + j] for j in range(k)] for a in range(w)])
    kappa = [0, *gain]
    tilt = [dot([shift[a, j] for j in range(k)], beta) + kappa[a] for a in range(w)]
    z_star = [[x[t][j] - mpmath.fsum(eta[t - 1][a] * shift[a, j] for a in range(w))
               for j in range(k)] + [1] for t in range(1, n)]
    y_star = [y[t] - dot(eta[t - 1], tilt) for t in range(1, n)]
    cc, cc_inverse = lsq(y_star, z_star)
    cc_se = [mpmath.sqrt(omega_112 * cc_inverse[j, j]) for j in range(w)]
    as_float = lambda v: np.array([float(e) for e in v])
    return {"fmols": (as_float(fm), as_float(fm_se)), "ccr": (as_float(cc), as_float(cc_se))}


class TestFixtureOracle:
    @pytest.mark.parametrize("bandwidth", ["auto", 6])
    def test_fmols_and_ccr_match_mpmath(self, bandwidth):
        mpmath = pytest.importorskip("mpmath")
        frame = load_csv(FIXTURE_CSV.read_text())
        spec = ModelSpec("Y", ("X1", "X2", "X3", "X4", "X5"))
        kernel = KernelSpec(bandwidth=bandwidth)
        with mpmath.workdps(50):
            expected = oracle_fmols_ccr(mpmath, frame, spec, kernel.resolve(frame.n - 1))
        for est in (fmols(frame, spec, kernel), ccr(frame, spec, kernel)):
            coef, stderr = expected[est.method]
            names = (*spec.regressors, "const")
            np.testing.assert_allclose([est.coef[n][0] for n in names], coef, rtol=2e-14,
                                       atol=0, err_msg=est.method)
            np.testing.assert_allclose([est.coef[n][1] for n in names], stderr, rtol=1e-14,
                                       atol=0, err_msg=est.method)


class TestCollapseToOls:
    def test_all_three_estimators(self):
        frame, beta, const = orthogonalized_frame()
        spec = ModelSpec("Y", ("X1", "X2"))
        theta = static_ols_theta(frame, spec)
        np.testing.assert_allclose(theta, [*beta, const], atol=1e-8)
        kernel = KernelSpec(bandwidth=0)
        for est in (
            fmols(frame, spec, kernel),
            dols(frame, spec, leads=0, lags=0),
            ccr(frame, spec, kernel),
        ):
            got = [est.coef[n][0] for n in ("X1", "X2", "const")]
            np.testing.assert_allclose(got, theta, atol=1e-10,
                                       err_msg=est.method)


@pytest.fixture(scope="module")
def big_frame():
    return make_frame(ecm_system(400, 31, beta=(2.0, -1.0), alpha=-0.3))


class TestConsistency:

    @pytest.mark.parametrize("method", ["fmols", "dols", "ccr"])
    def test_recovers_long_run_vector(self, big_frame, method):
        spec = ModelSpec("Y", ("X1", "X2"))
        est = {"fmols": fmols, "ccr": ccr}.get(method)
        result = est(big_frame, spec) if est else dols(big_frame, spec)
        assert result.coef["X1"][0] == pytest.approx(2.0, abs=0.15)
        assert result.coef["X2"][0] == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("method", ["fmols", "dols", "ccr"])
    def test_report_shape(self, big_frame, method):
        spec = ModelSpec("Y", ("X1", "X2"))
        est = {"fmols": fmols, "ccr": ccr}.get(method)
        result = est(big_frame, spec) if est else dols(big_frame, spec)
        assert result.method == method
        assert set(result.coef) == {"X1", "X2", "const"}
        for name, (c, s, t) in result.coef.items():
            assert s > 0
            assert t == pytest.approx(c / s)
            assert 0.0 <= result.pvalues[name] <= 1.0
        assert 0.0 <= result.r2 <= 1.0


class TestValidation:
    def test_fmols_too_short(self):
        frame = make_frame(ecm_system(15, 3, beta=(1.0,)))
        with pytest.raises(errors.TooFewObservations):
            fmols(frame, ModelSpec("Y", ("X1",)))

    def test_ccr_too_short(self):
        frame = make_frame(ecm_system(15, 3, beta=(1.0,)))
        with pytest.raises(errors.TooFewObservations):
            ccr(frame, ModelSpec("Y", ("X1",)))

    def test_dols_negative_leads(self, coint_frame):
        with pytest.raises(ValueError):
            dols(coint_frame, ModelSpec("Y", ("X1",)), leads=-1)

    def test_dols_too_short(self):
        frame = make_frame(ecm_system(12, 3, beta=(1.0,)))
        with pytest.raises(errors.SeriesTooShort):
            dols(frame, ModelSpec("Y", ("X1",)), leads=2, lags=2)

    def test_dols_width_report(self, coint_frame):
        result = dols(coint_frame, ModelSpec("Y", ("X1",)), leads=2, lags=1)
        assert result.bandwidth_or_leads == 3

    def test_fmols_reports_bandwidth(self, coint_frame):
        result = fmols(coint_frame, ModelSpec("Y", ("X1",)), KernelSpec(bandwidth=6))
        assert result.bandwidth_or_leads == 6
