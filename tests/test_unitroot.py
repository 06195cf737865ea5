import math

import numpy as np
import pytest

from ardlkit import errors
from ardlkit.frame import load_csv
from ardlkit.regression import CRITERIA, info_criterion, ols
from ardlkit.synthetic import ar1, normals, random_walk
from ardlkit.unitroot import (
    IntegrationDecision,
    adf,
    default_max_lag,
    dfgls,
    ers_critical_values,
    gls_detrend,
    integration_order,
    mackinnon_critical_values,
    pp,
)

from conftest import FIXTURE_CSV

# Statistics frozen from an independent augmented-Dickey-Fuller
# implementation on the same seeded series.
RW = random_walk(120, 11)  # driftless random walk, T = 120
ADF_RW_STAT = -1.214509406279582
ADF_RW_CT_STAT = -1.5547366830752485
ADF_STATIONARY_STAT = -8.339018246063553  # AR(1) rho=0.4, T=150, seed 5
ADF_MA_STAT = -2.668201812660823  # cumulated MA(1), lag 3 selected
PP_RW_BW3_STAT = -1.2129815123373304
PP_RW_AUTO_STAT = -1.2145413541901349
DFGLS_RW_STAT = 0.9277865889800758
DFGLS_RW_CT_STAT = -1.7608284441843216


def brute_force_lag(y, deterministic, max_lag, criterion):
    """The reference lag search: one design and one ``ols`` fit per lag on
    the common sample of the max-lag design; a later lag must beat the
    best so far by more than 1e-12."""
    dy = np.diff(y)
    rows = np.arange(max_lag, dy.shape[0])
    det = {"none": [], "constant": [np.ones(rows.shape[0])],
           "constant_trend": [np.ones(rows.shape[0]), rows + 1.0]}[deterministic]
    best_p, best = 0, math.inf
    for p in range(max_lag + 1):
        X = np.column_stack([y[rows], *det, *(dy[rows - j] for j in range(1, p + 1))])
        ic = info_criterion(ols(dy[rows], X), criterion)
        if ic < best - 1e-12:
            best_p, best = p, ic
    return best_p


def ma_series():
    e = normals(1, 160)
    return np.cumsum(e[1:] + 0.6 * e[:-1])


class TestAdf:
    def test_random_walk_frozen_statistic(self):
        rep = adf(RW)
        assert rep.statistic == pytest.approx(ADF_RW_STAT, abs=1e-10)
        assert rep.lag_or_bandwidth == 0
        assert rep.test == "adf" and rep.deterministic == "constant"

    def test_lag_selection_on_ma_errors(self):
        rep = adf(ma_series())
        assert rep.lag_or_bandwidth == 3
        assert rep.statistic == pytest.approx(ADF_MA_STAT, abs=1e-10)

    def test_constant_trend_case(self):
        rep = adf(RW, "constant_trend")
        assert rep.statistic == pytest.approx(ADF_RW_CT_STAT, abs=1e-10)

    def test_stationary_series_rejects(self):
        rep = adf(ar1(150, 5, 0.4))
        assert rep.statistic == pytest.approx(ADF_STATIONARY_STAT, abs=1e-10)
        assert rep.reject["1%"] and rep.reject["5%"] and rep.reject["10%"]
        assert rep.stars() == "***"

    def test_random_walk_fails_to_reject(self):
        rep = adf(RW)
        assert not any(rep.reject.values())
        assert rep.stars() == ""

    def test_critical_values_from_response_surface(self):
        rep = adf(RW, max_lag=0)
        nobs = 119
        assert rep.critical_values == mackinnon_critical_values("constant", nobs)

    def test_degenerate_series(self):
        with pytest.raises(errors.DegenerateSeries):
            adf(np.arange(50.0))  # constant differences

    def test_too_short(self):
        with pytest.raises(errors.SeriesTooShort):
            adf(np.array([1.0, 2.0, 1.5]))

    def test_explicit_max_lag_zero(self):
        rep = adf(RW, max_lag=0)
        assert rep.lag_or_bandwidth == 0


class TestLagSelection:
    @pytest.mark.parametrize("T", [33, 50, 100])
    @pytest.mark.parametrize("deterministic", ["none", "constant", "constant_trend"])
    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("test", [adf, dfgls], ids=["adf", "dfgls"])
    def test_matches_brute_force_search(self, test, criterion, deterministic, T):
        max_lag = default_max_lag(T)
        for seed in range(8):
            y = random_walk(T, seed)
            rep = test(y, deterministic, criterion=criterion)
            if test is dfgls:
                y, deterministic_terms = gls_detrend(y, deterministic), "none"
            else:
                deterministic_terms = deterministic
            assert rep.lag_or_bandwidth == brute_force_lag(y, deterministic_terms, max_lag,
                                                           criterion)

    @pytest.mark.parametrize("test, T, seed, sic_lag, hq_lag", [
        (adf, 50, 8, 2, 3),
        (dfgls, 50, 10, 0, 2),
    ], ids=["adf", "dfgls"])
    def test_hq_is_honoured(self, test, T, seed, sic_lag, hq_lag):
        y = random_walk(T, seed)
        assert test(y, criterion="sic").lag_or_bandwidth == sic_lag
        assert test(y, criterion="hq").lag_or_bandwidth == hq_lag

    @pytest.mark.parametrize("test", [adf, dfgls], ids=["adf", "dfgls"])
    def test_unknown_criterion(self, test):
        with pytest.raises(ValueError, match="criterion"):
            test(RW, criterion="x")


class TestMackinnonCriticalValues:
    def test_response_surface_values(self):
        # cv = b0 + b1/T + b2/T^2 + b3/T^3 cross-checked against the
        # published MacKinnon (2010) N=1 surface at T=119
        cvs = mackinnon_critical_values("constant", 119)
        assert cvs["1%"] == pytest.approx(-3.4865346059036564, abs=1e-12)
        assert cvs["5%"] == pytest.approx(-2.8861509858476264, abs=1e-12)
        assert cvs["10%"] == pytest.approx(-2.579896092790057, abs=1e-12)

    def test_ordering(self):
        for det in ("none", "constant", "constant_trend"):
            cvs = mackinnon_critical_values(det, 100)
            assert cvs["1%"] < cvs["5%"] < cvs["10%"]

    def test_asymptote(self):
        cvs = mackinnon_critical_values("constant", 10**9)
        assert cvs["5%"] == pytest.approx(-2.86154, abs=1e-5)


class TestPp:
    def test_fixed_bandwidth_frozen_statistic(self):
        rep = pp(RW, bandwidth=3)
        assert rep.statistic == pytest.approx(PP_RW_BW3_STAT, abs=1e-10)
        assert rep.lag_or_bandwidth == 3

    def test_auto_bandwidth(self):
        rep = pp(RW)
        assert rep.lag_or_bandwidth == 4  # floor(4 * (119/100)^(2/9))
        assert rep.statistic == pytest.approx(PP_RW_AUTO_STAT, abs=1e-10)

    def test_bandwidth_zero_equals_df_t_stat(self):
        for seed in (11, 23, 57):
            y = random_walk(100, seed)
            assert pp(y, bandwidth=0).statistic == pytest.approx(
                adf(y, max_lag=0).statistic, abs=1e-10
            )

    def test_too_short(self):
        with pytest.raises(errors.SeriesTooShort):
            pp(np.arange(10.0) ** 1.5)


class TestDfgls:
    def test_constant_case_frozen_statistic(self):
        rep = dfgls(RW)
        assert rep.statistic == pytest.approx(DFGLS_RW_STAT, abs=1e-10)

    def test_trend_case_frozen_statistic(self):
        rep = dfgls(RW, "constant_trend")
        assert rep.statistic == pytest.approx(DFGLS_RW_CT_STAT, abs=1e-10)

    def test_trend_case_uses_ers_table(self):
        rep = dfgls(RW, "constant_trend")
        assert rep.critical_values == ers_critical_values(
            119 - rep.lag_or_bandwidth
        )

    def test_stationary_series_rejects(self):
        rep = dfgls(ar1(200, 5, 0.3))
        assert rep.reject["5%"]

    def test_detrending_removes_mean(self):
        y = random_walk(100, 3) + 500.0
        yd = gls_detrend(y, "constant")
        # GLS demeaning is anchored at the first observation, so the
        # residual mean is small relative to the level shift
        assert abs(yd.mean()) < 5.0

    @pytest.mark.parametrize("deterministic", ["constant", "constant_trend"])
    def test_fixture_matches_mpmath_oracle(self, deterministic):
        mpmath = pytest.importorskip("mpmath")
        frame = load_csv(FIXTURE_CSV.read_text())
        for name in frame.names:
            y = frame.column(name)
            n = y.shape[0]
            with mpmath.workdps(50):
                cbar = -7 if deterministic == "constant" else mpmath.mpf("-13.5")
                a = 1 + cbar / n
                z = [[mpmath.mpf(1)] if deterministic == "constant"
                     else [mpmath.mpf(1), mpmath.mpf(t)] for t in range(1, n + 1)]
                ys = [mpmath.mpf(float(v)) for v in y]
                zq = mpmath.matrix([z[0]] + [[c - a * d for c, d in zip(z[t], z[t - 1])]
                                             for t in range(1, n)])
                yq = mpmath.matrix([ys[0]] + [ys[t] - a * ys[t - 1] for t in range(1, n)])
                coef = mpmath.lu_solve(zq.T * zq, zq.T * yq)
                expected = [float(ys[t] - (mpmath.matrix([z[t]]) * coef)[0]) for t in range(n)]
            np.testing.assert_allclose(gls_detrend(y, deterministic), expected,
                                       rtol=0, atol=4e-15 * np.abs(expected).max())


class TestErsCriticalValues:
    def test_table_rows(self):
        assert ers_critical_values(50) == {"1%": -3.77, "5%": -3.19, "10%": -2.89}
        assert ers_critical_values(100) == {"1%": -3.58, "5%": -3.03, "10%": -2.74}
        assert ers_critical_values(200) == {"1%": -3.46, "5%": -2.93, "10%": -2.64}

    def test_interpolation_between_rows(self):
        cvs = ers_critical_values(150)
        assert -3.03 < cvs["5%"] < -2.93

    def test_clamped_below_grid(self):
        assert ers_critical_values(20) == ers_critical_values(50)

    def test_large_sample_near_asymptote(self):
        assert ers_critical_values(10**8)["5%"] == pytest.approx(-2.89, abs=1e-4)


class TestDefaultMaxLag:
    def test_schwert_rule(self):
        assert default_max_lag(100) == 4
        assert default_max_lag(50) == 3
        assert default_max_lag(500) == 5


class TestIntegrationOrder:
    def test_i0(self):
        level = adf(ar1(150, 5, 0.4))
        diff = adf(np.diff(ar1(150, 5, 0.4)))
        decision = integration_order(level, diff)
        assert isinstance(decision, IntegrationDecision)
        assert decision.order == "I0"

    def test_i1(self):
        y = random_walk(150, 8)
        decision = integration_order(adf(y), adf(np.diff(y)))
        assert decision.order == "I1"

    def test_possible_i2(self):
        y = np.cumsum(random_walk(150, 8))  # twice-integrated
        with pytest.raises(errors.PossibleI2):
            integration_order(adf(y), adf(np.diff(y)))

    def test_mismatched_tests_rejected(self):
        y = random_walk(150, 8)
        with pytest.raises(ValueError):
            integration_order(adf(y), pp(np.diff(y)))

    def test_bad_level(self):
        y = random_walk(150, 8)
        with pytest.raises(ValueError):
            integration_order(adf(y), adf(np.diff(y)), level=0.2)
