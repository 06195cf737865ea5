import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ardlkit import causality, errors, regression, unitroot
from ardlkit.ardl import bounds_test, fit_conditional_ecm, select_ardl_lags
from ardlkit.frame import ModelSpec, load_csv
from ardlkit.regression import (
    RANK_MARGIN,
    RANK_TOL,
    TIE_RTOL,
    criterion_from_rss,
    first_minimum,
    info_criterion,
    long_run_covariance,
    long_run_variance,
    ols,
    prefix_plan,
    resolve_bandwidth,
    search,
    search_criteria,
    search_plan,
    singular_value_ratio,
    tail_probability,
    wald_f,
)
from ardlkit.synthetic import ar1, normals, random_walk

import lag_search_sweep
import tail_oracle
from conftest import FIXTURE_CSV, GOLDEN_DIR
from tail_oracle import FIXTURE_F_TRIPLES, TWO_FIT_F_TRIPLES

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


def f_from_two_fits(y, X, m) -> float:
    """The F of the last m columns of X from two ``ols`` fits' RSS."""
    full, restricted = ols(y, X), ols(y, X[:, :-m])
    return ((restricted.rss - full.rss) / m) / (full.rss / full.df_resid)


def mp_wald_f(y, X, m) -> float:
    """The F of the last m columns of X at 60 digits: both fits' normal
    equations solved by mpmath, so that their RSS difference keeps some 40
    digits however small F is."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b = mpmath.matrix(y.tolist())

        def rss(A):
            A = mpmath.matrix(A.tolist())
            r = b - A * mpmath.lu_solve(A.T * A, A.T * b)
            return sum(v * v for v in r)

        n, k = X.shape
        full = rss(X)
        return float(((rss(X[:, :-m]) - full) / m) / (full / (n - k)))


class TestWaldF:
    def test_matches_direct_formula(self):
        y = normals(4, 60)
        X = np.column_stack([np.ones(60), normals(5, 60), normals(6, 60)])
        [wald] = wald_f(y[None], X[None], 2)
        expected = f_from_two_fits(y, X, 2)
        assert wald.f == pytest.approx(expected, rel=1e-12)
        assert wald.p == pytest.approx(stats.f.sf(expected, 2, 57), rel=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="m must be in 1..3"):
            wald_f(QUAD_Y[None], QUAD_X[None], 0)

    def test_subset_wider_than_the_design_rejected(self):
        with pytest.raises(ValueError, match="m must be in 1..3"):
            wald_f(QUAD_Y[None], QUAD_X[None], 4)

    def test_an_rss_pair_is_not_data(self):
        # the signature takes the data, so an (rss, restricted_rss, m, df)
        # call cannot compute something else
        fit = ols(QUAD_Y, QUAD_X)
        with pytest.raises(TypeError):
            wald_f(fit.rss, 1.0, 1, fit.df_resid)

    def test_too_few_observations(self):
        with pytest.raises(errors.TooFewObservations):
            wald_f(QUAD_Y[None, :3], QUAD_X[None, :3], 1)

    def test_one_qr_and_one_svd_without_vectors(self, monkeypatch):
        svd, qr = Counted(monkeypatch, "svd"), Counted(monkeypatch, "qr")
        Y = normals(7, 3 * 40).reshape(3, 40)
        X = np.stack([np.column_stack([np.ones(40), normals(8 + r, 40), normals(20 + r, 40)])
                      for r in range(3)])
        wald_f(Y, X, 1)
        assert svd.kwargs == [{"compute_uv": False}] and qr.kwargs == [{"mode": "raw"}]

    def test_block_rows_equal_one_row_calls(self):
        R, n = 12, 35
        Y = normals(9, R * n).reshape(R, n)
        X = np.concatenate([np.ones((R, n, 1)), normals(10, R * n * 4).reshape(R, n, 4)], axis=2)
        for m in (1, 2, 4):
            block = wald_f(Y, X, m)
            assert block == [wald_f(Y[r:r + 1], X[r:r + 1], m)[0] for r in range(R)]

    def test_singular_row_fails_alone_with_its_columns(self):
        y = normals(11, 30)
        good = np.column_stack([np.ones(30), normals(12, 30), normals(13, 30)])
        bad = good.copy()
        bad[:, 2] = 2.0 * bad[:, 1]
        outcomes = wald_f(np.stack([y, y]), np.stack([good, bad]), 1)
        assert outcomes[0].f == pytest.approx(f_from_two_fits(y, good, 1), rel=1e-12)
        assert isinstance(outcomes[1], errors.RankDeficient)
        with pytest.raises(errors.RankDeficient) as exc:
            ols(y, bad)
        assert outcomes[1].columns == exc.value.columns == (1, 2)

    @pytest.mark.parametrize("y", [np.zeros(30), 1.0 + 0.5 * np.arange(30.0)])
    def test_exact_fit_is_degenerate(self, y):
        X = np.column_stack([np.ones(30), np.arange(30.0), np.cos(np.arange(30.0))])
        [outcome] = wald_f(y[None], X[None], 1)
        assert isinstance(outcome, errors.DegenerateResiduals)

    def test_near_exact_fit_is_tested(self):
        # residuals of norm ~5e-8 against a y of norm ~50 lie above the
        # exact-fit floor of 5e-9; the F is then good to about
        # eps * ||y|| / ||residuals|| ~ 2e-7, relative
        t = np.arange(30.0)
        X = np.column_stack([np.ones(30), t, np.cos(t)])
        y = 1.0 + 0.5 * t + 1e-8 * normals(14, 30)
        [wald] = wald_f(y[None], X[None], 1)
        assert wald.f == pytest.approx(mp_wald_f(y, X, 1), rel=1e-4)


class TestTLast:
    @staticmethod
    def stack(y, X):
        return np.column_stack([X, y])[None]

    def test_matches_ols_and_the_root_of_wald_f(self):
        y = normals(4, 60)
        X = np.column_stack([np.ones(60), normals(5, 60), normals(6, 60)])
        [tau] = regression.t_last(self.stack(y, X), [None])
        assert tau == pytest.approx(ols(y, X).tstats[-1], rel=1e-12)
        assert tau**2 == pytest.approx(wald_f(y[None], X[None], 1)[0].f, rel=1e-12)

    def test_a_floor_that_clears_the_rule_takes_no_svd(self, monkeypatch):
        y = normals(7, 40)
        X = np.column_stack([np.ones(40), normals(8, 40)])
        svd = Counted(monkeypatch, "svd")
        cleared, decided = regression.t_last(np.concatenate([self.stack(y, X)] * 2), [1.0, None])
        assert svd.kwargs == [{"compute_uv": False}]  # the second row's alone
        assert cleared == decided

    def test_singular_row_fails_alone_with_its_columns(self):
        y = normals(11, 30)
        good = np.column_stack([np.ones(30), normals(12, 30), normals(13, 30)])
        bad = good.copy()
        bad[:, 2] = 2.0 * bad[:, 1]
        tau, singular = regression.t_last(np.concatenate([self.stack(y, good),
                                                          self.stack(y, bad)]), [None, None])
        assert tau == pytest.approx(ols(y, good).tstats[-1], rel=1e-12)
        assert isinstance(singular, errors.RankDeficient) and singular.columns == (1, 2)

    @pytest.mark.parametrize("b, expected", [((2.0, 0.0), math.nan), ((2.0, 3.0), math.inf),
                                             ((2.0, -3.0), -math.inf)])
    def test_an_exact_fit_is_what_a_zero_standard_error_gives_ols(self, b, expected):
        # the Householder steps of this design are exact, so R[k, k] is 0
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        y = X @ np.array(b)
        [tau] = regression.t_last(self.stack(y, X), [1.0])
        np.testing.assert_array_equal([tau, ols(y, X).tstats[-1]], [expected, expected])


class TestWaldFOracle:
    """The one-QR F against a 60-digit fit where two fits' RSS cancel."""

    # replications of mc --test granger --dgp random_walk --T 30 --seed 0
    # with F near 1e-7; two fits' RSS difference erred by up to 3.9e-7
    @pytest.mark.parametrize("rep", [1934, 576, 457])
    def test_granger_near_zero_f(self, rep):
        y = random_walk(30, rep)
        x = ar1(30, rep + 500_000_000, 0.5)
        report = causality.granger_pair(x, y, 1)
        assert report.f_stat < 1e-6
        X = np.column_stack([np.ones(29), y[:-1], x[:-1]])
        expected = mp_wald_f(y[1:], X, 1)
        assert abs(report.f_stat - expected) < 1e-11 * expected

    def test_fixture_bounds_f(self):
        frame = load_csv(FIXTURE_CSV.read_text())
        spec = ModelSpec("Y", ("X1", "X2", "X3", "X4", "X5"))
        fit = fit_conditional_ecm(frame, spec, select_ardl_lags(frame, spec))
        levels = list(fit.level_indices)
        order = [i for i in range(fit.design.shape[1]) if i not in levels] + levels
        expected = mp_wald_f(fit.lhs, fit.design[:, order], len(levels))
        assert abs(bounds_test(fit).f_stat - expected) < 1e-13 * expected


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

    def test_unknown_kind_on_a_perfect_fit(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            criterion_from_rss(0.0, 10, 2, "x")


def criteria(y, X, subsets, kind="aic"):
    """``search_criteria`` of one row y on its X over the lists ``subsets``."""
    return search_criteria(y[None], X[None], search_plan(subsets), kind)[0].tolist()


def ratio(X) -> float:
    return singular_value_ratio(np.linalg.svd(X, compute_uv=False))


class Counted:
    """Counts the calls of ``module.<name>`` (``np.linalg`` by default) while
    patched in, and keeps each call's keyword arguments."""

    def __init__(self, monkeypatch, name, module=np.linalg):
        self.calls = 0
        self.kwargs = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            self.kwargs.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


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
        # the RSS each AIC stands for, n exp((aic - 2m) / n), is ols's; a
        # random list of the first 7 columns and its extension by column 7
        # form a chain, its extensions by 8 and by 7 and 8 one chain each,
        # and the chains' unequal widths are padded
        X, y = self.design()
        n = X.shape[0]
        subsets = [base + extra for base in self.subsets(7, 20)
                   for extra in ([], [7], [8], [7, 8])]
        bound = ratio(X)
        assert bound >= RANK_TOL * RANK_MARGIN
        for s, ic in zip(subsets, criteria(y, X, subsets)):
            assert n * math.exp((ic - 2 * len(s)) / n) == pytest.approx(ols(y, X[:, s]).rss,
                                                                       rel=1e-12)
            assert bound <= ratio(X[:, s]) * (1 + 1e-12)  # one bound for every list

    def test_near_singular_design_is_fitted_by_ols(self, monkeypatch):
        # X5 = X3 - 2 X4 exactly, which ols rejects, and up to a perturbation
        # that leaves the subsets holding all three at a ratio of about
        # 5e-10, which ols accepts: both are below the margin, so the search
        # goes to ols without factoring any subset by QR
        base, y = self.design()
        subsets = self.subsets(base.shape[1], 40)
        qr = Counted(monkeypatch, "qr")
        criteria(y, base, subsets)
        assert qr.calls == 2  # one QR of [X | y] and one batched QR of the chains
        for eps in (0.0, 4e-9):
            X = base.copy()
            X[:, 5] = X[:, 3] - 2.0 * X[:, 4] + eps * normals(11, X.shape[0])
            assert ratio(X) < RANK_TOL * RANK_MARGIN
            qr.calls = 0
            assert_ols_decisions(y, X, subsets, rejected=eps == 0.0)
            assert qr.calls == 0

    def test_one_svd_per_search(self, monkeypatch):
        # the bound of a search of several chains, and of one chain of
        # leading columns, comes from one SVD of X taken without U
        X, y = self.design()
        svd = Counted(monkeypatch, "svd")
        for subsets in (self.subsets(X.shape[1], 40), [[0, 1], [0, 1, 2], [0, 1, 2, 3]]):
            svd.kwargs.clear()
            criteria(y, X, subsets)
            assert svd.kwargs == [{"compute_uv": False}]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_several_chains_on_as_few_rows_as_columns(self, extra):
        # on n = K rows R has n rows, padded to K + 1 by zeros, and on
        # n = K + 1 it has all K + 1; every list narrower than n is ols's
        k = 6
        X, y = self.design(n=k + extra, k=k)
        subsets = [s for s in self.subsets(k, 40) if len(s) < len(X)] + [[0, 1, 2], [0, 1, 4, 5]]
        assert ratio(X) >= RANK_TOL * RANK_MARGIN
        for kind in ("aic", "sic", "hq"):
            np.testing.assert_allclose(criteria(y, X, subsets, kind),
                                       ols_criteria(y, X, subsets, kind), rtol=1e-12, atol=0)

    def test_narrow_chain_of_leading_columns_takes_one_qr(self, monkeypatch):
        # a chain of leading columns that stops short of X's last columns is
        # still one chain: one QR, and ols's criteria
        X, y = self.design()
        prefixes = [[0, 1], [0, 1, 2], [0, 1, 2, 3]]
        qr = Counted(monkeypatch, "qr")
        scores = criteria(y, X, prefixes)
        assert qr.calls == 1
        np.testing.assert_allclose(scores, ols_criteria(y, X, prefixes, "aic"), rtol=1e-12, atol=0)

    def test_criteria_match_ols(self):
        X, y = self.design()
        X[:, 5] = X[:, 3] - 2.0 * X[:, 4]
        subsets = self.subsets(X.shape[1], 40)
        for kind in ("aic", "sic", "hq"):
            for s, ic in zip(subsets, criteria(y, X, subsets, kind)):
                try:
                    expected = info_criterion(ols(y, X[:, s]), kind)
                except errors.RankDeficient:
                    assert math.isnan(ic)
                else:
                    assert ic == pytest.approx(expected, rel=1e-12)

    def test_too_wide_subset_scores_none(self):
        X, y = self.design(n=6, k=6)
        assert math.isnan(criteria(y, X, [[0, 1], list(range(6))])[1])
        assert np.isnan(criteria(y, X, [list(range(6))])).all()

    def test_unknown_kind_when_every_subset_is_rank_deficient(self):
        X, y = self.design()
        X[:, 1] = X[:, 0]
        with pytest.raises(ValueError, match="unknown criterion"):
            criteria(y, X, [[0, 1], [0, 1, 2]], "x")

    def test_criterion_from_rss_is_info_criterion(self):
        fit = ols(QUAD_Y, QUAD_X)
        for kind in ("aic", "sic", "hq"):
            assert criterion_from_rss(fit.rss, 6, 3, kind) == info_criterion(fit, kind)


def assert_ols_decisions(y, X, subsets, rejected: bool):
    """Each criterion of ``search_criteria`` is ``ols``'s, and NaN exactly
    where ``ols`` raises, which it does for some subset iff ``rejected``."""
    for kind in ("aic", "sic", "hq"):
        scores = criteria(y, X, subsets, kind)
        raised = 0
        for s, ic in zip(subsets, scores):
            try:
                expected = info_criterion(ols(y, X[:, s]), kind)
            except errors.RankDeficient:
                raised += 1
                assert math.isnan(ic)
            else:
                assert ic == pytest.approx(expected, rel=1e-12)
        assert (raised > 0) == rejected
        assert raised < len(subsets)


def ols_criteria(y, X, subsets, kind):
    """The criterion of ``ols`` on each column list, NaN where it raises."""
    scores = []
    for s in subsets:
        try:
            scores.append(info_criterion(ols(y, X[:, s]), kind))
        except errors.ArdlkitError:
            scores.append(math.nan)
    return scores


def adf_design(seed, T, deterministic, max_lag):
    """The max-lag ADF design of a seeded random walk and its lag prefixes."""
    y = random_walk(T, seed)
    lhs, X = unitroot._df_designs(y[None], np.diff(y)[None], deterministic, max_lag)
    lhs, X = lhs[0], X[0]
    base = X.shape[1] - max_lag
    return lhs, X, [list(range(base + p)) for p in range(max_lag + 1)]


def adf_blocks(seeds, deterministic, max_lag=None):
    """The max-lag ADF designs of seeded random walks, stacked by T in
    (33, 50, 100) (seed % 3 picks it), with their lag prefixes."""
    for T in (33, 50, 100):
        designs = [adf_design(seed, T, deterministic,
                              unitroot.default_max_lag(T) if max_lag is None else max_lag)
                   for seed in seeds if (33, 50, 100)[seed % 3] == T]
        yield (np.array([d[0] for d in designs]), np.array([d[1] for d in designs]),
               designs[0][2])


class TestSearchPlan:
    def test_chains_and_rank(self):
        # two chains, the second padded to the first's width; the rank puts
        # narrower lists first, in list order among equal widths
        plan = search_plan([[0, 2], [0, 2, 3], [1], [1, 4]])
        assert plan.columns == ((0, 2), (0, 2, 3), (1,), (1, 4))
        assert (plan.width, plan.span, plan.shared) == (3, 5, 0)
        np.testing.assert_array_equal(plan.gather, [[0, 2, 3, 5], [1, 4, 6, 5]])
        np.testing.assert_array_equal(plan.order, [2, 0, 3, 1])
        np.testing.assert_array_equal(plan.pick, [1, 0, 6, 5])
        assert not plan.widths.flags.writeable
        # chains that all start with columns 0 and 1 factor only the rest
        plan = search_plan([[0, 1], [0, 1, 3], [0, 1, 2], [0, 1, 2, 4]])
        assert (plan.width, plan.span, plan.shared) == (4, 5, 2)
        np.testing.assert_array_equal(plan.gather, [[3, 6, 5], [2, 4, 5]])
        np.testing.assert_array_equal(plan.pick, [2, 1, 4, 3])
        lead = prefix_plan((2, 3, 5))
        assert lead.gather is None and (lead.width, lead.span) == (5, 5)
        np.testing.assert_array_equal(lead.pick, [3, 2, 0])

    def test_unit_root_and_granger_plans_are_built_once_per_key(self, monkeypatch):
        prefix_plan.cache_clear()
        builds = Counted(monkeypatch, "search_plan", regression)
        for seed in range(3):
            unitroot.adf(random_walk(100, seed))
            unitroot.dfgls(random_walk(100, seed))
            causality.select_granger_lag(ar1(60, seed, 0.5), random_walk(60, seed))
        unitroot.adf(random_walk(100, 0), max_lag=2)
        info = prefix_plan.cache_info()
        # one plan per tuple of prefix widths: ADF's 2..6 and 2..4, DF-GLS's
        # 1..5 (no deterministic terms after detrending), Granger's 3, 5, 7, 9
        assert (info.misses, info.hits, builds.calls) == (4, 6, 4)

    @pytest.mark.parametrize("search", ["adf", "dfgls", "granger"])
    def test_one_svd_and_one_qr_per_search(self, monkeypatch, search):
        # ADF and DF-GLS take one more QR, which reads the t-ratio of the
        # chosen lag, and no SVD with U; the first call builds what is
        # cached per shape (DF-GLS's GLS factor)
        y = random_walk(100, 4)
        if search == "granger":
            run = functools.partial(causality.select_granger_lag, ar1(100, 5, 0.5), y)
        else:
            run = functools.partial(getattr(unitroot, search), y)
        run()
        svd, qr = Counted(monkeypatch, "svd"), Counted(monkeypatch, "qr")
        run()
        assert svd.kwargs == [{"compute_uv": False}]
        assert qr.calls == (1 if search == "granger" else 2)

    def test_near_tie_is_rescored_by_ols(self, monkeypatch):
        # column 4 repeats column 3 up to 1e-5 of a direction orthogonal to
        # y and to every other column: the design is sound (ratio ~5e-6),
        # and the lists [0, 1, 3] and [0, 1, 4], the best two, lie about
        # 5e-10 (relative) apart, so the search's pass finds the row tied
        # and ols fits both again and only them; search_criteria, which
        # screens no ties, fits none
        base, y = TestSubsetRss.design(k=4)
        z = normals(21, base.shape[0])
        q = np.linalg.qr(np.column_stack([base, y]))[0]
        z -= q @ (q.T @ z)
        z *= 1e-5 * np.linalg.norm(base[:, 3]) / np.linalg.norm(z)
        X = np.column_stack([base, base[:, 3] + z])
        subsets = [[0, 1], [0, 1, 3], [0, 1, 4]]
        assert ratio(X) >= RANK_TOL * RANK_MARGIN
        exact = ols_criteria(y, X, subsets, "aic")
        assert abs(exact[1] - exact[2]) <= TIE_RTOL * abs(exact[1]) and exact[1] != exact[2]
        fits = Counted(monkeypatch, "ols", regression)
        scores = criteria(y, X, subsets)
        assert fits.calls == 0
        assert scores == pytest.approx(exact, rel=1e-12)
        assert search(y[None], X[None], search_plan(subsets)) == [first_minimum(exact)]
        assert fits.calls == 2

    def test_first_sweep_specs_match_the_ols_oracle(self):
        # the ARDL order and the ADF, DF-GLS and Granger lags of the first
        # 30 of tests/lag_search_sweep.py's 1,800 specs: every shape and
        # criterion, seeds 0-2
        specs = lag_search_sweep.SPECS[:30]
        assert {(k, T) for _, k, T, _ in specs} == set(lag_search_sweep.SHAPES)
        assert lag_search_sweep.mismatches(specs) == []


def numpy_tied(row) -> bool:
    """The numpy tie screen over one row of criteria that the search pass
    replaced, kept as the reference the pass must agree with: a row is
    tied when more than one of its scores is not farther than the window
    above the smallest, where a NaN anywhere makes every score near."""
    scores = np.asarray(row, dtype=float)[None]
    with np.errstate(invalid="ignore"):
        best = scores.min(axis=1, keepdims=True)
        far = scores - best > TIE_RTOL * np.maximum(np.abs(best), 1.0)
    return (np.add.reduce(far, axis=1) < scores.shape[1] - 1).tolist()[0]


def loop_first_minimum(row, order):
    """The first-minimum rule as a loop of its own: the lowest score taken in
    ``order`` (NaN: skipped), beaten only by more than 1e-12."""
    best_i, bar = order[0], math.inf
    for i in order:
        if row[i] < bar:
            best_i, bar = i, row[i] - 1e-12
    return best_i


class TestTieScreen:
    """``search``'s one pass (``regression._scan``) gives the numpy screen's
    tied or untied answer, and the first-minimum rule's index."""

    @staticmethod
    def check(row, order=None):
        order = list(range(len(row))) if order is None else order
        pick, tied = regression._scan(row, order)
        assert tied == numpy_tied(row), row
        if all(math.isnan(s) for s in row):
            assert pick is None
        else:
            assert pick == loop_first_minimum(row, order), (row, order)
        return tied

    @pytest.mark.parametrize("row, tied", [
        ([math.nan, 1.0], True),
        ([3.0, math.nan, 1.0], True),
        ([math.nan, math.nan], True),
        ([math.nan, -math.inf, 2.0], True),
        ([math.inf, math.nan], True),
        ([-math.inf, 1.0, 2.0], True),     # -inf alone: inf - -inf is not past an inf window
        ([3.0, -math.inf, -math.inf], True),
        ([-math.inf, -math.inf], True),
        ([math.inf, math.inf], True),      # inf - inf is NaN
        ([math.inf, math.inf, math.inf], True),
        ([2.0, math.inf], False),
        ([1.0], False),                    # a one-list plan is never tied
        ([-math.inf], False),
        ([math.inf], False),
        ([math.nan], False),
        ([2.0, 2.0], True),                # exact duplicates
        ([5.0, -3.0, -3.0], True),
        ([0.0, 0.0, 1.0], True),
        ([5.0, -3.0, 4.0], False),
    ])
    def test_special_rows(self, row, tied):
        assert self.check(row) is tied
        assert self.check(row[::-1], list(range(len(row)))[::-1]) is tied

    @pytest.mark.parametrize("best", [0.0, 0.4, -1e-3, -250.3, 1e6, -7.5e11])
    def test_runner_up_one_ulp_inside_and_outside_the_window(self, best):
        window = TIE_RTOL * max(abs(best), 1.0)
        inside = best + window
        while inside - best > window:
            inside = np.nextafter(inside, -math.inf)
        while np.nextafter(inside, math.inf) - best <= window:
            inside = np.nextafter(inside, math.inf)
        outside = float(np.nextafter(inside, math.inf))
        inside = float(inside)
        for runner_up, tied in ((inside, True), (outside, False)):
            far = best + 3.0 * window
            for row in ([runner_up, best, far], [far, runner_up, best]):
                assert self.check(row) is tied

    def test_seeded_random_rows(self):
        # rows of 1..6 scores around a best at scales 1e-3..1e6: exact
        # copies, scores 5e-13 and 2e-12 below it, runners-up inside and
        # outside the window, NaN, +-inf
        rng = np.random.default_rng(30)
        counts = {True: 0, False: 0}
        for _ in range(10_000):
            size = int(rng.integers(1, 7))
            best = float(rng.normal() * 10.0 ** rng.integers(-3, 7))
            window = TIE_RTOL * max(abs(best), 1.0)
            row = []
            for u in rng.random(size).tolist():
                if u < 0.03:
                    row.append(math.nan)
                elif u < 0.06:
                    row.append(math.inf)
                elif u < 0.08:
                    row.append(-math.inf)
                elif u < 0.3:
                    row.append(best)
                elif u < 0.4:  # below the best by less or more than 1e-12
                    row.append(best - float(rng.choice([5e-13, 2e-12])))
                else:
                    row.append(best + window * float(rng.choice([0.5, 0.999, 1.001, 2.0, 1e6])))
            counts[self.check(row, rng.permutation(size).tolist())] += 1
        assert min(counts.values()) > 2_000

    def test_settle_ties_returns_an_all_nan_row_as_it_is(self, monkeypatch):
        fits = Counted(monkeypatch, "ols", regression)
        row = [math.nan, math.nan]
        assert regression._settle_ties(QUAD_Y, QUAD_X, ((0, 1), (0, 1, 2)), row, "aic") is row
        assert all(math.isnan(s) for s in row) and fits.calls == 0


class TestPrefixRss:
    """The one-chain searches of the unit-root tests: each row of a block
    (the batched path) is scored bitwise as alone, and as ``ols`` scores it."""

    @pytest.mark.parametrize("deterministic", ["none", "constant", "constant_trend"])
    def test_matches_the_batched_path(self, deterministic):
        for lhs, X, prefixes in adf_blocks(range(40), deterministic, 4):
            batched = search_criteria(lhs, X, search_plan(prefixes))
            for y, x, scores in zip(lhs, X, batched):
                np.testing.assert_array_equal(criteria(y, x, prefixes), scores)
                np.testing.assert_allclose(scores, ols_criteria(y, x, prefixes, "aic"),
                                           rtol=1e-12, atol=0)

    def test_lag_choice_matches_the_batched_path(self):
        searches = 0
        for kind in ("aic", "sic", "hq"):
            for deterministic in ("none", "constant", "constant_trend"):
                for lhs, X, prefixes in adf_blocks(range(112), deterministic):
                    picks = search(lhs, X, search_plan(prefixes), kind)
                    for y, x, pick in zip(lhs, X, picks):
                        exact = first_minimum(ols_criteria(y, x, prefixes, kind))
                        assert pick == exact, (kind, deterministic)
                        searches += 1
        assert searches >= 1000

    def test_near_collinear_design_is_fitted_by_ols(self):
        # the widest prefix repeats a column up to a perturbation that puts
        # its ratio near 1e-12, which ols rejects, or near 3.5e-10, which
        # ols accepts: both are below the margin
        lhs, base, _ = adf_design(5, 60, "constant_trend", 3)
        for eps, rejected in ((1e-10, True), (3e-8, False)):
            X = np.column_stack([base, base[:, 2] + eps * normals(77, base.shape[0])])
            prefixes = [list(range(m)) for m in range(3, X.shape[1] + 1)]
            assert ratio(X) < RANK_TOL * RANK_MARGIN
            assert_ols_decisions(lhs, X, prefixes, rejected)

    def test_near_collinear_search_runs_no_qr(self, monkeypatch):
        # the bound comes from X before any QR: a search below the margin
        # goes to ols with no QR, a sound one takes one
        lhs, base, prefixes = adf_design(5, 60, "constant_trend", 3)
        qr = Counted(monkeypatch, "qr")
        criteria(lhs, base, prefixes)
        assert qr.calls == 1
        for eps in (1e-10, 3e-8):
            X = np.column_stack([base, base[:, 2] + eps * normals(77, base.shape[0])])
            qr.calls = 0
            criteria(lhs, X, [*prefixes, list(range(X.shape[1]))])
            assert qr.calls == 0

    def test_prefix_as_wide_as_the_sample(self):
        # on 4 rows the prefixes of 4 and 5 columns score NaN, and the 5
        # columns of X bound nothing, so ols fits the rest
        lhs, X, prefixes = adf_design(3, 33, "constant", 3)
        scores = criteria(lhs[:4], X[:4], prefixes)
        assert np.isnan(scores[2:]).all()
        assert scores[:2] == [info_criterion(ols(lhs[:4], X[:4, s])) for s in prefixes[:2]]

    def test_plan_as_wide_as_the_sample_goes_to_ols(self, monkeypatch):
        # a Granger search at n = 12 fits lags 1..4 on 8 rows, where lag 4
        # has 9 columns: ols scores the search, with no SVD bound, no QR and
        # no second plan, and the lag is the oracle's
        x, y = ar1(12, 3, 0.5), random_walk(12, 4)
        prefix_plan((3, 5, 7, 9))
        builds = Counted(monkeypatch, "search_plan", regression)
        svd, qr = Counted(monkeypatch, "svd"), Counted(monkeypatch, "qr")
        for kind in ("aic", "sic", "hq"):
            lag = causality.select_granger_lag(x, y, criterion=kind)
            assert lag == lag_search_sweep.granger_oracle(x, y, kind)
        assert builds.calls == 0 and qr.calls == 0
        assert {"compute_uv": False} not in svd.kwargs

    def test_mixed_block_rows_match_their_one_row_blocks(self):
        # blocks of sound rows and rows below the rank margin (a series
        # 1e-11 from a constant, whose lagged level is nearly the constant
        # column): each row's outcome, its lag and statistic bits or its
        # error, is the one it gets alone
        def outcome(o):
            if isinstance(o, errors.ArdlkitError):
                return type(o).__name__, str(o)
            if isinstance(o, causality.CausalityReport):
                return o.lag, o.f_stat.hex(), o.p.hex()
            return o.lag_or_bandwidth, float(o.statistic).hex()

        for seed in range(16):
            rw, rw2 = random_walk(50, seed), random_walk(50, seed + 10_000)
            block = np.array([rw, 1 + 1e-11 * rw2, rw2, 3 + 1e-11 * rw])
            for test in ("adf", "dfgls"):
                for kind in ("aic", "sic", "hq"):
                    rows = unitroot.unit_root_block(test, block, criterion=kind)
                    for row, got in zip(block, rows):
                        [alone] = unitroot.unit_root_block(test, row[None], criterion=kind)
                        assert outcome(got) == outcome(alone), (seed, test, kind)
            x, x2 = ar1(50, seed, 0.5), ar1(50, seed + 20_000, 0.5)
            causes = np.array([x, 1 + 1e-11 * x2, x2, 3 + 1e-11 * x])
            effects = np.array([rw, rw2, 1 + 1e-11 * rw, rw])
            rows = causality.granger_block(causes, effects, [("x", "y")] * 4, "auto")
            for cause, effect, got in zip(causes, effects, rows):
                [alone] = causality.granger_block(cause[None], effect[None], [("x", "y")], "auto")
                assert outcome(got) == outcome(alone), seed


class TestResolveBandwidth:
    def test_auto_bandwidth_rule(self):
        assert resolve_bandwidth("auto", 100) == 4
        assert resolve_bandwidth("auto", 50) == 3
        assert resolve_bandwidth("auto", 500) == 5

    def test_fixed_bandwidth(self):
        assert resolve_bandwidth(7, 100) == 7

    def test_invalid(self):
        for bad in (-1, 2.5, True, "x", None):
            with pytest.raises(ValueError, match="bandwidth"):
                resolve_bandwidth(bad, 100)
            for call in (long_run_variance, long_run_covariance):
                with pytest.raises(ValueError, match="bandwidth"):
                    call(normals(1, 50)[:, None], bad)


class TestLongRunVariance:
    def test_bandwidth_zero_is_variance(self):
        u = normals(2, 300)
        v = u - u.mean()
        assert long_run_variance(u, 0) == pytest.approx(
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
        assert long_run_variance(u, bw) == pytest.approx(
            expected, rel=1e-12
        )

    def test_bandwidth_too_large(self):
        with pytest.raises(errors.BandwidthTooLarge):
            long_run_variance(np.arange(5.0), 5)

    def test_too_few_observations(self):
        with pytest.raises(errors.TooFewObservations):
            long_run_variance(np.array([1.0]))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed, bw):
        u = normals(seed, 64)
        assert long_run_variance(u, bw) >= 0.0


class TestLongRunCovariance:
    def test_scalar_case_matches_variance(self):
        u = ar1(150, 9, 0.4)
        omega, one_sided, g0 = long_run_covariance(u[:, None], 3)
        assert omega[0, 0] == pytest.approx(
            long_run_variance(u, 3), rel=1e-12
        )

    def test_decomposition_identity(self):
        eta = np.column_stack([ar1(120, 1, 0.5), ar1(120, 2, 0.3)])
        omega, one_sided, g0 = long_run_covariance(eta, 4)
        np.testing.assert_allclose(omega, one_sided + one_sided.T - g0, rtol=1e-10)
        np.testing.assert_allclose(omega, omega.T, rtol=1e-12)

    @pytest.mark.parametrize("bw", [0, 3, 9])  # 9 lags reach numpy's pairwise summation
    def test_double_loop_oracle(self, bw):
        eta = np.column_stack([ar1(90, 4, 0.5), ar1(90, 5, -0.3), normals(6, 90)])
        n, m = eta.shape
        mean = [sum(eta[t, a] for t in range(n)) / n for a in range(m)]
        v = [[eta[t, a] - mean[a] for a in range(m)] for t in range(n)]

        def gamma(j, a, b):
            return sum(v[t][a] * v[t - j][b] for t in range(j, n)) / n

        short_run = np.array([[gamma(0, a, b) for b in range(m)] for a in range(m)])
        lagged = np.array([[sum((1 - j / (bw + 1)) * gamma(j, a, b) for j in range(1, bw + 1))
                            for b in range(m)] for a in range(m)])
        omega, one_sided, g0 = long_run_covariance(eta, bw)
        np.testing.assert_allclose(g0, short_run, rtol=1e-13, atol=0)
        np.testing.assert_allclose(one_sided, short_run + lagged, rtol=1e-13, atol=0)
        np.testing.assert_allclose(omega, short_run + lagged + lagged.T, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bw", [0, 4, "auto"])
    def test_series_returns_the_scalar_variance(self, bw):
        u = ar1(150, 9, 0.4)
        omega, one_sided, g0 = long_run_covariance(u, bw)
        assert np.ndim(omega) == np.ndim(one_sided) == np.ndim(g0) == 0
        assert omega == long_run_variance(u, bw)
        assert g0 == long_run_variance(u, 0)

    @pytest.mark.parametrize("bw", [0, 3, 9])
    def test_series_and_column_agree(self, bw):
        u = ar1(150, 9, 0.4)
        for scalar, column in zip(long_run_covariance(u, bw), long_run_covariance(u[:, None], bw)):
            assert column.shape == (1, 1)
            assert column[0, 0] == pytest.approx(scalar, rel=1e-14, abs=0)

    def test_rejects_other_shapes(self):
        for eta in (np.float64(1.0), np.zeros((10, 2, 2))):
            with pytest.raises(ValueError, match="shape"):
                long_run_covariance(eta, 0)

    def test_short_run_is_sample_covariance(self):
        eta = np.column_stack([normals(1, 80), normals(2, 80)])
        _, _, g0 = long_run_covariance(eta, 2)
        v = eta - eta.mean(axis=0)
        np.testing.assert_allclose(g0, v.T @ v / 80, rtol=1e-12)


class TestTailProbability:
    def test_families(self):
        assert tail_probability("normal", 1.96) == pytest.approx(stats.norm.sf(1.96))
        assert tail_probability("chi2", 5.0, 2) == pytest.approx(stats.chi2.sf(5.0, 2))
        assert tail_probability("f", 3.0, (2, 30)) == pytest.approx(stats.f.sf(3.0, 2, 30))

    def test_f_whose_ratio_underflows(self):
        # r = d1 f / d2 rounds to 0: the tail is all of the mass
        assert 5e-324 * 1 / 10 == 0.0
        assert tail_probability("f", 5e-324, (1, 10)) == 1.0

    def test_invalid_df(self):
        with pytest.raises(errors.InvalidDf):
            tail_probability("chi2", 1.0, 0)
        with pytest.raises(errors.InvalidDf):
            tail_probability("f", 1.0, 3)
        with pytest.raises(errors.InvalidDf):
            tail_probability("f", 1.0, (0, 5))

    @pytest.mark.parametrize("dist, df", [
        ("chi2", 0), ("chi2", -1.5), ("chi2", None), ("chi2", -2),
        ("f", None), ("f", (1, 2, 3)), ("f", (4, 0)), ("f", (-1, 30)),
    ])
    def test_invalid_df_checked_before_the_statistic(self, dist, df):
        for stat in (1.0, -1.0, math.nan, math.inf):
            with pytest.raises(errors.InvalidDf):
                tail_probability(dist, stat, df)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            tail_probability("cauchy", 1.0)

    def test_t_is_unknown(self):
        # no ardlkit computation takes a t tail, so there is none
        for df in (None, 5):
            with pytest.raises(ValueError, match="unknown distribution 't'"):
                tail_probability("t", 2.0, df)

    SYMMETRIC = tail_oracle.SYMMETRIC
    POSITIVE = tail_oracle.POSITIVE

    def test_no_less_accurate_than_scipy(self):
        # the largest relative errors of scipy 1.17.1's norm.sf, chi2.sf and
        # f.sf against the 50-digit oracle, on these same points
        scipy_worst = {"normal": 8.1e-14, "chi2": 6.1e-14, "f": 2.4e-13}
        points = tail_oracle.points()
        hi, lo = np.load(tail_oracle.TABLE).T
        got = np.array([tail_probability(dist, x, df) for dist, x, df in points])
        error = np.abs((got - hi) - lo) / hi  # got - hi is exact: they agree to 1e-13
        dists = np.array([dist for dist, _, _ in points])
        for dist, bound in scipy_worst.items():
            worst = error[dists == dist].max()
            assert worst <= bound, (dist, worst)

    def test_oracle_table_holds_the_oracle(self):
        # a few dozen points across every family, recomputed at 50 digits
        mpmath = pytest.importorskip("mpmath")
        points = tail_oracle.points()
        table = np.load(tail_oracle.TABLE)
        assert table.shape == (len(points), 2)
        for i in [*range(0, len(points), 997), len(points) - 1]:
            exact = tail_oracle.exact(*points[i])
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(table[i, 0]) + table[i, 1] - exact) <= 1e-30 * exact, i

    def test_chi2_with_two_df_is_exponential(self):
        for x in self.POSITIVE:
            assert tail_probability("chi2", float(x), 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)

    # not nu = 1: scipy's t(1) tail near 0 is off by up to 2.8e-11 (relative)
    @pytest.mark.parametrize("nu", [2.5, 5, 30, 76, 200])
    def test_f_with_one_numerator_df_is_squared_t(self, nu):
        for t in self.SYMMETRIC:
            two_sided = 2.0 * stats.t.sf(abs(float(t)), nu)
            assert tail_probability("f", float(t * t), (1, nu)) == pytest.approx(two_sided, rel=1e-13)

    def test_normal_tails_sum_to_one(self):
        for x in self.SYMMETRIC:
            assert tail_probability("normal", float(x)) + tail_probability("normal", float(-x)) == 1.0

    @pytest.mark.parametrize("dist, df", [("chi2", 1), ("chi2", 3), ("chi2", 400),
                                          ("f", (3, 40)), ("f", (1, 500))])
    def test_nan_statistic_returns_before_any_iteration(self, monkeypatch, dist, df):
        # with no iterations allowed, any series or fraction would raise
        monkeypatch.setattr(regression, "_MAX_TERMS", 1)
        assert math.isnan(tail_probability(dist, math.nan, df))
        with pytest.raises(errors.NumericalError, match="did not converge"):
            tail_probability(dist, 2.0, df)

    @pytest.mark.parametrize("dist, df", [("chi2", 3), ("f", (3, 40))])
    @pytest.mark.parametrize("stat", [-math.inf, -2.5, -1e-300, -0.0, 0.0])
    def test_nonpositive_chi2_and_f_statistics_give_one(self, dist, df, stat):
        # the raw ufuncs give NaN below zero; scipy.stats gives 1.0
        assert tail_probability(dist, stat, df) == 1.0

    @pytest.mark.parametrize("dist, df", [("normal", None), ("chi2", 1), ("chi2", 3), ("f", (3, 40))])
    def test_nan_and_infinite_statistics(self, dist, df):
        assert math.isnan(tail_probability(dist, math.nan, df))
        assert tail_probability(dist, math.inf, df) == 0.0
        assert tail_probability(dist, -math.inf, df) == 1.0
        oracle = {"normal": stats.norm, "chi2": stats.chi2, "f": stats.f}[dist]
        args = () if df is None else np.atleast_1d(df)
        for stat in (math.nan, math.inf, -math.inf, -1.0, 0.0):
            np.testing.assert_equal(tail_probability(dist, stat, df), oracle.sf(stat, *args))


def f_tail_oracle(d1, d2, f) -> float:
    """P(F > f) at 50 digits, rounded to a float."""
    pytest.importorskip("mpmath")
    return float(tail_oracle.exact("f", f, (d1, d2)))


@pytest.mark.parametrize("d1, d2, f", FIXTURE_F_TRIPLES + TWO_FIT_F_TRIPLES)
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
