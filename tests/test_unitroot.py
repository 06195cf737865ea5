import math

import numpy as np
import pytest

from ardlkit import errors, unitroot
from ardlkit.critical import critical_values
from ardlkit.frame import load_csv
from ardlkit.regression import (CRITERIA, RANK_TOL, info_criterion, long_run_variance, ols,
                                resolve_bandwidth, singular_value_ratios)
from ardlkit.synthetic import ar1, normals, random_walk
from ardlkit.unitroot import (
    IntegrationDecision,
    _df_designs,
    adf,
    default_max_lag,
    dfgls,
    gls_detrend,
    integration_order,
    pp,
    unit_root_block,
)

import unit_root_sweep
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

    def test_unknown_deterministic(self):
        with pytest.raises(ValueError, match="unknown deterministic 'trend'"):
            adf(RW, "trend")

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
        assert rep.critical_values == critical_values("adf", "constant", nobs)

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
        for max_lag in (None, 0):
            with pytest.raises(ValueError, match="criterion"):
                test(RW, max_lag=max_lag, criterion="x")


    @pytest.mark.parametrize("test", [adf, dfgls], ids=["adf", "dfgls"])
    def test_negative_max_lag(self, test):
        with pytest.raises(ValueError, match="max_lag must be >= 0"):
            test(RW, max_lag=-1)


class TestMackinnonCriticalValues:
    def test_response_surface_values(self):
        # cv = b0 + b1/T + b2/T^2 + b3/T^3 cross-checked against the
        # published MacKinnon (2010) N=1 surface at T=119
        cvs = critical_values("adf", "constant", 119)
        assert cvs["1%"] == pytest.approx(-3.4865346059036564, abs=1e-12)
        assert cvs["5%"] == pytest.approx(-2.8861509858476264, abs=1e-12)
        assert cvs["10%"] == pytest.approx(-2.579896092790057, abs=1e-12)

    def test_ordering(self):
        for det in ("none", "constant", "constant_trend"):
            cvs = critical_values("adf", det, 100)
            assert cvs["1%"] < cvs["5%"] < cvs["10%"]

    def test_asymptote(self):
        cvs = critical_values("adf", "constant", 10**9)
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
        # PP runs the ADF regression without augmentation lags, so with no
        # kernel correction the two statistics are the same number
        for deterministic in ("constant", "constant_trend"):
            for seed in (11, 23, 57):
                y = random_walk(100, seed)
                assert (pp(y, deterministic, bandwidth=0).statistic
                        == adf(y, deterministic, max_lag=0).statistic)

    @pytest.mark.parametrize("seed", [7_200_000, 7_200_325, 7_200_963])
    def test_bandwidth_zero_matches_mpmath_df_t_ratio(self, seed):
        # the walks on which a levels-form refit (y_t on y_{t-1}, then
        # coef - 1) loses most digits of the Dickey-Fuller t-ratio
        mpmath = pytest.importorskip("mpmath")
        y = random_walk(100, seed)
        with mpmath.workdps(50):
            ys = [mpmath.mpf(float(v)) for v in y]
            X = mpmath.matrix([[level, 1] for level in ys[:-1]])
            dy = mpmath.matrix([b - a for a, b in zip(ys, ys[1:])])
            xtx_inv = (X.T * X) ** -1
            coef = xtx_inv * (X.T * dy)
            resid = dy - X * coef
            s2 = sum(r**2 for r in resid) / (len(ys) - 3)
            expected = float(coef[0] / mpmath.sqrt(s2 * xtx_inv[0, 0]))
        assert pp(y, bandwidth=0).statistic == pytest.approx(expected, rel=1e-12, abs=0)

    def test_too_short(self):
        with pytest.raises(errors.SeriesTooShort):
            pp(np.arange(10.0) ** 1.5)

    @pytest.mark.parametrize("deterministic", ["constant", "constant_trend"])
    @pytest.mark.parametrize("bandwidth", ["auto", 0, 3])
    def test_one_autocovariance_pass_is_bitwise_the_two_pass_statistic(self, deterministic,
                                                                       bandwidth):
        # gamma_0 and lambda^2 as two separate long_run_variance calls, the
        # way pp computed them before they shared one autocovariance pass
        frame = load_csv(FIXTURE_CSV.read_text())
        for name in frame.names:
            for y in (frame.column(name), np.diff(frame.column(name))):
                lhs, X = _df_designs(y[None], np.diff(y)[None], deterministic, 0)
                fit = ols(lhs[0], X[0])
                nobs = fit.residuals.shape[0]
                bw = resolve_bandwidth(bandwidth, nobs)
                lam2 = long_run_variance(fit.residuals, bw)
                gamma0 = long_run_variance(fit.residuals, 0)
                z_tau = (math.sqrt(gamma0 / lam2) * fit.tstats[0]
                         - 0.5 * (lam2 - gamma0) / math.sqrt(lam2)
                         * (nobs * fit.stderr[0] / math.sqrt(fit.s2)))
                assert pp(y, deterministic, bandwidth).statistic == z_tau

    def test_bandwidth_too_large(self):
        with pytest.raises(errors.BandwidthTooLarge):
            pp(RW, bandwidth=RW.shape[0] - 1)

    def test_an_exact_fit_fails_alone(self):
        # the ADF(0) regression fits 1 + 0.5^t exactly, so its residuals
        # have no variance, short- or long-run
        exact = 1.0 + 0.5 ** np.arange(30)
        with pytest.raises(errors.DegenerateResiduals):
            pp(exact)
        walk = random_walk(30, 4)
        rows = unit_root_block("pp", np.array([exact, walk]))
        assert isinstance(rows[0], errors.DegenerateResiduals)
        assert rows[1] == pp(walk)


class TestDfgls:
    def test_constant_case_frozen_statistic(self):
        rep = dfgls(RW)
        assert rep.statistic == pytest.approx(DFGLS_RW_STAT, abs=1e-10)

    def test_trend_case_frozen_statistic(self):
        rep = dfgls(RW, "constant_trend")
        assert rep.statistic == pytest.approx(DFGLS_RW_CT_STAT, abs=1e-10)

    def test_trend_case_uses_ers_table(self):
        rep = dfgls(RW, "constant_trend")
        assert rep.critical_values == critical_values(
            "dfgls", "constant_trend", 119 - rep.lag_or_bandwidth
        )

    def test_no_deterministic_case_is_the_no_constant_df_test(self):
        # nothing to detrend, so the statistic and the MacKinnon "none"
        # surface are those of the no-constant ADF regression
        rep = dfgls(RW, "none")
        assert rep.critical_values == critical_values("adf", "none",
                                                      119 - rep.lag_or_bandwidth)
        assert rep.critical_values["5%"] == pytest.approx(-1.94, abs=0.01)
        ref = adf(RW, "none")
        assert (rep.statistic, rep.lag_or_bandwidth) == (ref.statistic, ref.lag_or_bandwidth)

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
    def test_quasi_differenced_design_has_full_rank(self, deterministic):
        # the detrending solves on the cached SVD without a rank check: at
        # every n from DF-GLS's shortest series up, the design needs none
        for n in range(10, 1001):
            _, _, s, _ = unitroot._gls_factor.__wrapped__(deterministic, n)
            assert singular_value_ratios(s[..., 0])[0] >= RANK_TOL, n

    @pytest.mark.parametrize("deterministic, n", [("constant", 1), ("constant_trend", 2)])
    def test_detrending_needs_more_observations_than_terms(self, deterministic, n):
        with pytest.raises(errors.TooFewObservations):
            gls_detrend(np.arange(1.0, n + 1.0), deterministic)

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
    @staticmethod
    def ers(nobs):
        return critical_values("dfgls", "constant_trend", nobs)

    def test_table_rows(self):
        assert self.ers(50) == {"1%": -3.77, "5%": -3.19, "10%": -2.89}
        assert self.ers(100) == {"1%": -3.58, "5%": -3.03, "10%": -2.74}
        assert self.ers(200) == {"1%": -3.46, "5%": -2.93, "10%": -2.64}

    def test_interpolation_between_rows(self):
        cvs = self.ers(150)
        assert -3.03 < cvs["5%"] < -2.93

    def test_clamped_below_grid(self):
        assert self.ers(20) == self.ers(50)

    def test_large_sample_near_asymptote(self):
        assert self.ers(10**8)["5%"] == pytest.approx(-2.89, abs=1e-4)


def block_rows(T):
    """Random walks, a stationary AR(1) and cumulated MA(1) series of
    length T: rows that choose different augmentation lags."""
    e = normals(T, T + 1)
    return np.array([*(random_walk(T, seed) for seed in range(5)), ar1(T, 7, 0.3),
                     np.cumsum(e[1:] + 0.6 * e[:-1]), np.cumsum(e[1:] - 0.8 * e[:-1])])


def one_row(test, y, deterministic, **options):
    """The report of ``test`` on the series y alone, or the error it raises."""
    try:
        return {"adf": adf, "pp": pp, "dfgls": dfgls}[test](y, deterministic, **options)
    except errors.ArdlkitError as exc:
        return exc


def assert_same_outcomes(rows, singles):
    for row, single in zip(rows, singles, strict=True):
        if isinstance(single, errors.ArdlkitError):
            assert type(row) is type(single) and str(row) == str(single)
        else:
            assert row == single  # every float bitwise


class TestUnitRootBlock:
    @pytest.mark.parametrize("T", [33, 50, 80, 100])
    def test_rows_equal_the_one_row_tests(self, T):
        Y = block_rows(T)
        lags = set()
        for deterministic in ("none", "constant", "constant_trend"):
            runs = [("pp", {"bandwidth": bw}) for bw in ("auto", 0, 4)]
            runs += [(test, {"criterion": kind}) for test in ("adf", "dfgls") for kind in CRITERIA]
            for test, options in runs:
                rows = unit_root_block(test, Y, deterministic, **options)
                assert_same_outcomes(rows, [one_row(test, y, deterministic, **options) for y in Y])
                if test != "pp":
                    lags.add(frozenset(row.lag_or_bandwidth for row in rows))
        assert max(map(len, lags)) >= 2  # a block with more than one stacked final fit

    def test_a_failing_row_fails_alone(self):
        Y = block_rows(60)
        Y[1] = np.arange(60.0)  # constant differences
        Y[4, :-1] = 2.0  # a constant level but for the last value: y_{t-1} repeats the constant
        Y[5, 17] = np.nan
        Y[6, 40] = np.inf
        for test in ("adf", "pp", "dfgls"):
            rows = unit_root_block(test, Y, "constant")
            assert isinstance(rows[1], errors.DegenerateSeries)
            for r in (5, 6):
                assert isinstance(rows[r], errors.DegenerateSeries)
                assert "non-finite value" in str(rows[r])
            assert_same_outcomes(rows, [one_row(test, y, "constant") for y in Y])
            assert sum(isinstance(row, errors.ArdlkitError) for row in rows) <= 4
        assert isinstance(unit_root_block("adf", Y, "constant")[4], errors.RankDeficient)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_series_is_degenerate(self, bad):
        y = RW.copy()
        y[0] = bad
        for test in (adf, pp, dfgls):
            with pytest.raises(errors.DegenerateSeries, match="non-finite value"):
                test(y)

    def test_each_report_has_its_own_dicts(self):
        # the critical values are cached per shape; a report's dicts are its own
        first, second = unit_root_block("adf", block_rows(50)[:2])
        first.critical_values["5%"] = 0.0
        first.reject["5%"] = True
        third = adf(block_rows(50)[0])
        assert third.critical_values == second.critical_values != first.critical_values
        assert third.reject == second.reject

    def test_first_sweep_chunk_keeps_its_bits(self):
        # one of tests/unit_root_sweep.py's 15 chunks: every test, deterministic
        # case and criterion at T = 33, 50, 100, one row at a time and as blocks
        assert unit_root_sweep.mismatches([0]) == []

    def test_a_too_large_max_lag_is_an_outcome_of_every_row(self):
        Y = block_rows(40)
        for test in ("adf", "dfgls"):
            rows = unit_root_block(test, Y, max_lag=31)
            assert all(isinstance(row, errors.SeriesTooShort) for row in rows)
            with pytest.raises(errors.SeriesTooShort):
                {"adf": adf, "dfgls": dfgls}[test](Y[0], max_lag=31)
        # the widest lag prefixes leave too few rows and are skipped
        assert_same_outcomes(unit_root_block("adf", Y, max_lag=30),
                             [one_row("adf", y, "constant", max_lag=30) for y in Y])
        rows = unit_root_block("pp", Y, bandwidth=39)
        assert all(isinstance(row, errors.BandwidthTooLarge) for row in rows)

    def test_empty_block(self):
        for test in ("adf", "pp", "dfgls"):
            assert unit_root_block(test, np.empty((0, 50))) == []

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError, match="unit-root test"):
            unit_root_block("kpss", block_rows(50))
        with pytest.raises(ValueError, match="block"):
            unit_root_block("adf", random_walk(50, 1))


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

    def test_reports_of_two_variables_rejected(self):
        y = random_walk(150, 8)
        with pytest.raises(ValueError, match="different variables"):
            integration_order(adf(y)._replace(variable="a"), adf(np.diff(y))._replace(variable="b"))
