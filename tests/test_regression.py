import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ardlkit import errors
from ardlkit.regression import (
    RANK_TOL,
    SUBSET_CHUNK,
    KernelSpec,
    criterion_from_rss,
    info_criterion,
    long_run_covariance,
    long_run_variance,
    ols,
    subset_criteria,
    subset_rss,
    tail_probability,
    wald_f_zero,
)
from ardlkit.synthetic import ar1, normals

from conftest import GOLDEN_DIR

# Quadratic fit of y = [1,3,2,5,4,7] on [1, t, t^2]; reference values
# frozen from an independent least-squares computation.
QUAD_X = np.column_stack([np.ones(6), np.arange(1.0, 7.0), np.arange(1.0, 7.0) ** 2])
QUAD_Y = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 7.0])
QUAD_COEF = (0.8999999999999984, 0.4035714285714307, 0.08928571428571391)
QUAD_STDERR = (2.196100440065788, 1.4367489164706533, 0.20092261684336024)
QUAD_RSS = 4.52142857142857
QUAD_R2 = 0.8062244897959184
QUAD_LLF = -7.6648367901484855


class TestOls:
    def test_frozen_quadratic_fit(self):
        fit = ols(QUAD_Y, QUAD_X)
        np.testing.assert_allclose(fit.coef, QUAD_COEF, rtol=1e-10)
        np.testing.assert_allclose(fit.stderr, QUAD_STDERR, rtol=1e-10)
        assert fit.rss == pytest.approx(QUAD_RSS, rel=1e-10)
        assert fit.r2 == pytest.approx(QUAD_R2, rel=1e-10)
        assert fit.loglik == pytest.approx(QUAD_LLF, rel=1e-10)
        assert fit.df_resid == 3
        assert fit.nobs == 6 and fit.nparams == 3

    def test_tstats_are_coef_over_stderr(self):
        fit = ols(QUAD_Y, QUAD_X)
        np.testing.assert_allclose(fit.tstats, np.asarray(QUAD_COEF) / np.asarray(QUAD_STDERR))

    def test_xtx_inverse(self):
        fit = ols(QUAD_Y, QUAD_X)
        np.testing.assert_allclose(fit.xtx_inverse, np.linalg.inv(QUAD_X.T @ QUAD_X),
                                   rtol=1e-8)

    def test_residual_orthogonality(self):
        fit = ols(QUAD_Y, QUAD_X)
        np.testing.assert_allclose(QUAD_X.T @ fit.residuals, np.zeros(3), atol=1e-10)

    def test_rank_deficient_names_columns(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(errors.RankDeficient) as err:
            ols(np.arange(10.0), X)
        assert 1 in err.value.columns and 2 in err.value.columns

    def test_too_few_observations(self):
        with pytest.raises(errors.TooFewObservations):
            ols(np.zeros(3), np.eye(3))

    def test_uncentered_tss_without_constant(self):
        y = np.array([1.0, 2.0, 3.0, 5.0])
        X = np.arange(1.0, 5.0)[:, None]
        fit = ols(y, X)
        assert fit.tss == pytest.approx(float(y @ y))

    def test_centered_tss_with_constant(self):
        fit = ols(QUAD_Y, QUAD_X)
        assert fit.tss == pytest.approx(float(np.sum((QUAD_Y - QUAD_Y.mean()) ** 2)))

    def test_degenerate_r2_flag(self):
        y = np.full(5, 3.0)
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        fit = ols(y, X)
        assert fit.degenerate_r2
        assert fit.r2 == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_perfect_fit_property(self, seed):
        X = np.column_stack([np.ones(12), normals(seed, 12)])
        beta = np.array([2.0, -1.5])
        fit = ols(X @ beta, X)
        np.testing.assert_allclose(fit.coef, beta, atol=1e-8)
        assert fit.rss == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("y, tstats", [
        ([3.0, 0.0, 0.0, 0.0], [math.inf, math.nan]),
        ([-3.0, 0.0, 0.0, 0.0], [-math.inf, math.nan]),
        ([0.0, 2.5, 0.0, 0.0], [math.nan, math.inf]),
    ])
    def test_zero_stderr_tstats(self, y, tstats):
        # an exact fit: a nonzero coefficient over a zero stderr is +-inf,
        # a zero one is nan
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        fit = ols(np.array(y), X)
        assert fit.rss == 0.0
        np.testing.assert_array_equal(fit.stderr, [0.0, 0.0])
        np.testing.assert_array_equal(fit.tstats, tstats)


class TestWaldF:
    def test_matches_direct_formula(self):
        y = normals(4, 60)
        X = np.column_stack([np.ones(60), normals(5, 60), normals(6, 60)])
        full = ols(y, X)
        restricted = ols(y, X[:, :1])
        wald = wald_f_zero(full, (1, 2), restricted.rss)
        m = 2
        expected = ((restricted.rss - full.rss) / m) / (full.rss / full.df_resid)
        assert wald.f == pytest.approx(expected, rel=1e-12)
        assert wald.p == pytest.approx(stats.f.sf(expected, m, full.df_resid), rel=1e-12)
        assert not wald.negative_numerator

    def test_negative_numerator_flagged(self):
        y = normals(4, 30)
        X = np.column_stack([np.ones(30), normals(5, 30)])
        fit = ols(y, X)
        wald = wald_f_zero(fit, (1,), fit.rss * 0.5)  # "restricted" fits better
        assert wald.negative_numerator
        assert wald.f == 0.0 and wald.p == 1.0

    def test_empty_subset_rejected(self):
        fit = ols(QUAD_Y, QUAD_X)
        with pytest.raises(ValueError):
            wald_f_zero(fit, (), 1.0)


class TestInfoCriterion:
    def test_closed_forms(self):
        fit = ols(QUAD_Y, QUAD_X)
        n, k = 6, 3
        base = n * math.log(fit.rss / n)
        assert info_criterion(fit, "aic") == pytest.approx(base + 2 * k)
        assert info_criterion(fit, "sic") == pytest.approx(base + k * math.log(n))
        assert info_criterion(fit, "hq") == pytest.approx(base + 2 * k * math.log(math.log(n)))

    def test_perfect_fit_sentinel(self):
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        fit = ols(np.zeros(8), X)
        assert fit.rss == 0.0
        assert info_criterion(fit, "aic") == -math.inf

    def test_unknown_kind(self):
        fit = ols(QUAD_Y, QUAD_X)
        with pytest.raises(ValueError):
            info_criterion(fit, "bic2")


class TestSubsetRss:
    @staticmethod
    def design(n=40, k=9, seed=3):
        X = normals(seed, n * k).reshape(n, k)
        X[:, 0] = 1.0
        return X, X @ np.linspace(0.5, -0.5, k) + normals(seed + 1, n)

    @staticmethod
    def subsets(k, count, seed=4):
        rng = np.random.default_rng(seed)
        return [sorted(rng.choice(k, size=rng.integers(1, k + 1), replace=False))
                for _ in range(count)]

    def test_rss_matches_ols(self):
        X, y = self.design()
        subsets = self.subsets(X.shape[1], 3 * SUBSET_CHUNK + 5)  # several chunks
        rss, ratio = subset_rss(y, X, subsets)
        for s, r, q in zip(subsets, rss, ratio):
            assert r == pytest.approx(ols(y, X[:, s]).rss, rel=1e-12)
            sv = np.linalg.svd(X[:, s], compute_uv=False)
            assert 0 < q <= sv[-1] / sv[0] * (1 + 1e-12)  # a lower bound

    def test_exact_ratio_when_design_is_singular(self):
        X, y = self.design()
        X[:, 5] = X[:, 3] - 2.0 * X[:, 4]
        subsets = self.subsets(X.shape[1], 40)
        rss, ratio = subset_rss(y, X, subsets)
        for s, q in zip(subsets, ratio):
            sv = np.linalg.svd(X[:, s], compute_uv=False)
            if {3, 4, 5} <= set(s):
                assert q < RANK_TOL
            else:
                assert q == pytest.approx(sv[-1] / sv[0], rel=1e-8)

    def test_criteria_match_ols(self):
        X, y = self.design()
        X[:, 5] = X[:, 3] - 2.0 * X[:, 4]
        subsets = self.subsets(X.shape[1], 40)
        for kind in ("aic", "sic", "hq"):
            for s, ic in zip(subsets, subset_criteria(y, X, subsets, kind)):
                try:
                    expected = info_criterion(ols(y, X[:, s]), kind)
                except errors.RankDeficient:
                    assert ic is None
                else:
                    assert ic == pytest.approx(expected, rel=1e-12)

    def test_too_wide_subset_scores_none(self):
        X, y = self.design(n=6, k=6)
        assert subset_criteria(y, X, [[0, 1], list(range(6))])[1] is None
        with pytest.raises(errors.TooFewObservations):
            subset_rss(y, X, [list(range(6))])

    def test_criterion_from_rss_is_info_criterion(self):
        fit = ols(QUAD_Y, QUAD_X)
        for kind in ("aic", "sic", "hq"):
            assert criterion_from_rss(fit.rss, 6, 3, kind) == info_criterion(fit, kind)


class TestKernelSpec:
    def test_auto_bandwidth_rule(self):
        assert KernelSpec().resolve(100) == 4
        assert KernelSpec().resolve(50) == 3
        assert KernelSpec().resolve(500) == 5

    def test_fixed_bandwidth(self):
        assert KernelSpec(bandwidth=7).resolve(100) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1)
        with pytest.raises(ValueError):
            KernelSpec(kernel="parzen")


class TestLongRunVariance:
    def test_bandwidth_zero_is_variance(self):
        u = normals(2, 300)
        v = u - u.mean()
        assert long_run_variance(u, KernelSpec(bandwidth=0)) == pytest.approx(
            float(v @ v) / 300, rel=1e-12
        )

    def test_brute_force_formula(self):
        u = ar1(200, 3, 0.6)
        bw = 5
        v = u - u.mean()
        gamma = [float(v[j:] @ v[: 200 - j]) / 200 for j in range(bw + 1)]
        expected = gamma[0] + 2 * sum(
            (1 - j / (bw + 1)) * gamma[j] for j in range(1, bw + 1)
        )
        assert long_run_variance(u, KernelSpec(bandwidth=bw)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_bandwidth_too_large(self):
        with pytest.raises(errors.BandwidthTooLarge):
            long_run_variance(np.arange(5.0), KernelSpec(bandwidth=5))

    def test_too_few_observations(self):
        with pytest.raises(errors.TooFewObservations):
            long_run_variance(np.array([1.0]))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed, bw):
        u = normals(seed, 64)
        assert long_run_variance(u, KernelSpec(bandwidth=bw)) >= 0.0


class TestLongRunCovariance:
    def test_scalar_case_matches_variance(self):
        u = ar1(150, 9, 0.4)
        omega, one_sided, g0 = long_run_covariance(u[:, None], KernelSpec(bandwidth=3))
        assert omega[0, 0] == pytest.approx(
            long_run_variance(u, KernelSpec(bandwidth=3)), rel=1e-12
        )

    def test_decomposition_identity(self):
        eta = np.column_stack([ar1(120, 1, 0.5), ar1(120, 2, 0.3)])
        omega, one_sided, g0 = long_run_covariance(eta, KernelSpec(bandwidth=4))
        np.testing.assert_allclose(omega, one_sided + one_sided.T - g0, rtol=1e-10)
        np.testing.assert_allclose(omega, omega.T, rtol=1e-12)

    def test_short_run_is_sample_covariance(self):
        eta = np.column_stack([normals(1, 80), normals(2, 80)])
        _, _, g0 = long_run_covariance(eta, KernelSpec(bandwidth=2))
        v = eta - eta.mean(axis=0)
        np.testing.assert_allclose(g0, v.T @ v / 80, rtol=1e-12)


class TestTailProbability:
    def test_families(self):
        assert tail_probability("normal", 1.96) == pytest.approx(stats.norm.sf(1.96))
        assert tail_probability("t", 2.0, 10) == pytest.approx(stats.t.sf(2.0, 10))
        assert tail_probability("chi2", 5.0, 2) == pytest.approx(stats.chi2.sf(5.0, 2))
        assert tail_probability("f", 3.0, (2, 30)) == pytest.approx(stats.f.sf(3.0, 2, 30))

    def test_invalid_df(self):
        with pytest.raises(errors.InvalidDf):
            tail_probability("chi2", 1.0, 0)
        with pytest.raises(errors.InvalidDf):
            tail_probability("t", 1.0, None)
        with pytest.raises(errors.InvalidDf):
            tail_probability("f", 1.0, 3)
        with pytest.raises(errors.InvalidDf):
            tail_probability("f", 1.0, (0, 5))

    @pytest.mark.parametrize("dist, df", [
        ("t", 0), ("t", -1.5), ("chi2", None), ("chi2", -2),
        ("f", None), ("f", (1, 2, 3)), ("f", (4, 0)), ("f", (-1, 30)),
    ])
    def test_invalid_df_checked_before_the_statistic(self, dist, df):
        for stat in (1.0, -1.0, math.nan, math.inf):
            with pytest.raises(errors.InvalidDf):
                tail_probability(dist, stat, df)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            tail_probability("cauchy", 1.0)

    def test_bitwise_equal_to_scipy_stats_on_the_support(self):
        symmetric = np.concatenate([np.linspace(-9.0, 9.0, 361), np.logspace(-6, 1.5, 40),
                                    -np.logspace(-6, 1.5, 40)])
        positive = np.concatenate([np.logspace(-8, 3, 441), np.linspace(0.05, 40.0, 800)])

        def check(dist, grid, df, oracle):
            got = np.array([tail_probability(dist, float(x), df) for x in grid])
            np.testing.assert_array_equal(got, oracle(grid), err_msg=f"{dist} df={df}")

        check("normal", symmetric, None, stats.norm.sf)
        for df in (1, 2.5, 5, 30, 200):
            check("t", symmetric, df, lambda g: stats.t.sf(g, df))
        for df in (1, 2, 3, 7, 20, 50):
            check("chi2", positive, df, lambda g: stats.chi2.sf(g, df))
        for d1 in (1, 2, 4, 6):
            for d2 in (5, 30, 67, 72, 73, 76, 200):
                check("f", positive, (d1, d2), lambda g: stats.f.sf(g, d1, d2))
        for d1, d2, f in FIXTURE_F_TRIPLES:
            assert tail_probability("f", f, (d1, d2)) == stats.f.sf(f, d1, d2)

    @pytest.mark.parametrize("dist, df", [("chi2", 3), ("f", (3, 40))])
    @pytest.mark.parametrize("stat", [-math.inf, -2.5, -1e-300, -0.0, 0.0])
    def test_nonpositive_chi2_and_f_statistics_give_one(self, dist, df, stat):
        # the raw ufuncs give NaN below zero; scipy.stats gives 1.0
        assert tail_probability(dist, stat, df) == 1.0

    @pytest.mark.parametrize("dist, df", [("normal", None), ("t", 7), ("chi2", 3), ("f", (3, 40))])
    def test_nan_and_infinite_statistics(self, dist, df):
        assert math.isnan(tail_probability(dist, math.nan, df))
        assert tail_probability(dist, math.inf, df) == 0.0
        assert tail_probability(dist, -math.inf, df) == 1.0
        oracle = {"normal": stats.norm, "t": stats.t, "chi2": stats.chi2, "f": stats.f}[dist]
        args = () if df is None else np.atleast_1d(df)
        for stat in (math.nan, math.inf, -math.inf, -1.0, 0.0):
            np.testing.assert_equal(tail_probability(dist, stat, df), oracle.sf(stat, *args))


# (d1, d2, F) behind the p-values of the fixture report: the bounds
# test's reference F (6 level terms, 72 residual df) and the ten
# pairwise Granger tests (lag, nobs - 2 * lag - 1).
FIXTURE_F_TRIPLES = [
    (6, 72, 6.856271846667391),
    (1, 76, 7.122924189973372),
    (1, 76, 4.286119154961754),
    (2, 73, 1.4619627784379727),
    (4, 67, 4.197739753289787),
    (1, 76, 2.2945963580474817),
    (2, 73, 2.5397151233336146),
    (1, 76, 9.890165968189164),
    (1, 76, 1.5190167962468204),
    (1, 76, 1.7186348133062017),
    (1, 76, 0.23936677690019298),
]


def f_tail_oracle(d1, d2, f) -> float:
    """P(F > f) = I_{d2 / (d2 + d1 f)}(d2 / 2, d1 / 2) at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(d2) / (d2 + d1 * mpmath.mpf(f))
        return float(mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, x,
                                    regularized=True))


@pytest.mark.parametrize("d1, d2, f", FIXTURE_F_TRIPLES)
def test_f_tail_matches_mpmath_oracle(d1, d2, f):
    expected = f_tail_oracle(d1, d2, f)
    assert tail_probability("f", f, (d1, d2)) == pytest.approx(expected, rel=1e-13, abs=0)


def test_golden_report_p_values_match_mpmath_oracle():
    report = json.loads((GOLDEN_DIR / "json" / "report.json").read_text())
    rows = [(report["bounds"]["f_stat"], report["bounds"]["reference_p"])]
    rows += [(row["f_stat"], row["p"]) for row in report["causality"]]
    assert [f for f, _ in rows] == [f for _, _, f in FIXTURE_F_TRIPLES]
    for (d1, d2, f), (_, p) in zip(FIXTURE_F_TRIPLES, rows):
        assert p == pytest.approx(f_tail_oracle(d1, d2, f), rel=1e-13, abs=0)
