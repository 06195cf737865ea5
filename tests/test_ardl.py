import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ardlkit import ardl, errors, regression
from ardlkit.ardl import (
    BOUNDS_LEVELS,
    ArdlSpec,
    _conditional_design,
    _lag_grid,
    _lag_plan,
    bounds_test,
    decide_bounds,
    fit_conditional_ecm,
    fit_ecm,
    long_run_coefficients,
    select_ardl_lags,
)
from ardlkit.critical import PAPER_BOUNDS_K5, critical_values
from ardlkit.frame import ModelSpec, TimeSeriesFrame, load_csv
from ardlkit.regression import (criterion_from_rss, info_criterion, ols, search_criteria,
                                search_plan)
from ardlkit.synthetic import ecm_system, random_walk

from conftest import FIXTURE_CSV, exact_ecm_frame, make_frame
from test_regression import Counted


def five_var_frame(T=120, seed=99):
    cols = ecm_system(T, seed, beta=(0.5, -0.3, 0.4, -0.2, 0.3),
                      alpha=-0.3, sigma=0.4, delta=0.2, intercept=1.0)
    return make_frame(cols)


def grid_columns(spec, p, q):
    """The columns of the widest design that ``select_ardl_lags`` scores
    as ARDL(p, q)."""
    candidates, columns, _ = _lag_grid(spec.max_p, spec.max_q, spec.k)
    return columns[candidates.index((p, *q))]


def common_design(frame, spec, ardl_spec):
    """The lhs and design of ``ardl_spec`` on the grid's common sample: the
    last rows of its own, as many as the widest candidate has."""
    lhs, X, *_ = _conditional_design(frame, spec, ardl_spec)
    rows = frame.n - 1 - max(spec.max_p - 1, spec.max_q)
    return lhs[-rows:], X[-rows:]


def brute_force_search(frame, spec, criterion):
    """The per-candidate reference search: one design and one ``ols`` fit
    per (p, q) on the common sample.  Returns the winning (p, q) and every
    candidate's criterion (None where the fit failed)."""
    scores, best = {}, None
    for p in range(1, spec.max_p + 1):
        for q in itertools.product(range(spec.max_q + 1), repeat=spec.k):
            lhs, X = common_design(frame, spec, ArdlSpec(p, q))
            try:
                if lhs.shape[0] < X.shape[1] + 5:
                    raise errors.NoFeasibleSpec("sample too small")
                ic = info_criterion(ols(lhs, X), criterion)
            except errors.ArdlkitError:
                scores[(p, q)] = None
                continue
            scores[(p, q)] = ic
            key = (ic, p + sum(q), (p, *q))
            if best is None or key < best[0]:
                best = (key, (p, q))
    return best[1], scores


class TestArdlSpec:
    def test_total_lags(self):
        assert ArdlSpec(2, (1, 0, 3)).total_lags == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ArdlSpec(0, (1,))
        with pytest.raises(ValueError):
            ArdlSpec(1, (-1,))

    @pytest.mark.parametrize("p, q", [(2, (0.5,)), (1.5, (0,)), (True, (1,)), (1, (0, False))])
    def test_lags_must_be_integers(self, p, q):
        # int() used to truncate a q of 0.5 to 0, and a bool passed as 1
        with pytest.raises(ValueError, match="integer"):
            ArdlSpec(p, q)

    @pytest.mark.parametrize("regressors, q", [(("X1",), (0, 3)), (("X1", "X2"), (1,))])
    def test_q_must_give_one_order_per_regressor(self, regressors, q):
        frame = five_var_frame(T=60)
        with pytest.raises(ValueError, match=f"q has {len(q)} orders"):
            fit_conditional_ecm(frame, ModelSpec("Y", regressors), ArdlSpec(1, q))


class TestConditionalDesign:
    def test_column_count(self, coint_frame):
        # 1 intercept + (k+1) levels + (p-1) own diffs + sum(q) regressor diffs
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(2, (1,)))
        assert fit.regression.nparams == 1 + 2 + 1 + 1
        assert fit.names == ("const", "Y(-1)", "X1(-1)", "D.Y(-1)", "D.X1(-1)")
        assert fit.level_indices == (1, 2)
        assert fit.diff_indices == (3, 4)

    def test_five_regressor_column_count(self):
        frame = five_var_frame()
        spec = ModelSpec("Y", ("X1", "X2", "X3", "X4", "X5"))
        fit = fit_conditional_ecm(frame, spec, ArdlSpec(2, (1, 1, 1, 1, 1)))
        assert fit.regression.nparams == 1 + 6 + 1 + 5

    def test_sample_alignment(self, coint_frame):
        # p=1, q=(0,) uses observations 2..n of the frame
        fit = fit_conditional_ecm(coint_frame, ModelSpec("Y", ("X1",)), ArdlSpec(1, (0,)))
        assert fit.regression.nobs == coint_frame.n - 1

    def test_lhs_is_differenced_dependent(self, coint_frame):
        fit = fit_conditional_ecm(coint_frame, ModelSpec("Y", ("X1",)), ArdlSpec(1, (0,)))
        np.testing.assert_allclose(fit.lhs, np.diff(coint_frame.column("Y")))

    def test_frame_too_short_for_the_spec(self):
        # ARDL(1, 3)'s first feasible row is the 5th; the frame has 3
        frame = make_frame({"Y": random_walk(3, 1), "X1": random_walk(3, 2)})
        with pytest.raises(errors.NoFeasibleSpec, match="sample exhausted"):
            fit_conditional_ecm(frame, ModelSpec("Y", ("X1",)), ArdlSpec(1, (3,)))

    def test_rank_deficiency_named_by_label(self, coint_frame):
        # ols reports design positions; the fit names them
        x1 = coint_frame.column("X1")
        frame = make_frame({"Y": coint_frame.column("Y"), "X1": x1, "X2": 2.0 * x1})
        with pytest.raises(errors.RankDeficient) as info:
            fit_conditional_ecm(frame, ModelSpec("Y", ("X1", "X2")), ArdlSpec(1, (0, 0)))
        assert info.value.columns == ("X1(-1)", "X2(-1)")
        assert "[X1(-1), X2(-1)]" in str(info.value)


class TestSelectArdlLags:
    def test_within_limits(self, coint_frame):
        spec = ModelSpec("Y", ("X1",), max_p=3, max_q=2)
        chosen = select_ardl_lags(coint_frame, spec)
        assert 1 <= chosen.p <= 3
        assert all(0 <= q <= 2 for q in chosen.q)

    def test_matches_exhaustive_search(self, coint_frame):
        k3_frame = make_frame(ecm_system(90, 31, beta=(1.0, -0.5, 0.7), alpha=-0.4,
                                         sigma=0.5, delta=0.2, intercept=1.0))
        cases = [(coint_frame, ModelSpec("Y", ("X1",), max_p=2, max_q=2)),
                 (k3_frame, ModelSpec("Y", ("X1", "X2", "X3"), max_p=3, max_q=3))]
        for frame, spec in cases:
            for criterion in ("aic", "sic", "hq"):
                chosen = select_ardl_lags(frame, spec, criterion)
                assert (chosen.p, chosen.q) == brute_force_search(frame, spec, criterion)[0]

    def test_exact_fits_tie_and_the_narrowest_wins(self):
        # ARDL(1, 1) and every candidate that holds its columns fit dY
        # exactly.  Their RSS is rounding noise, by which AIC once picked
        # ARDL(1, 2) (-3976.5 against -3946.4); both scoring paths now put
        # such an RSS at the exact-fit floor and score it -inf.
        frame, spec = exact_ecm_frame(), ModelSpec("Y", ("X1",))
        for criterion in ("aic", "sic", "hq"):
            assert select_ardl_lags(frame, spec, criterion) == ArdlSpec(1, (1,))
        # the widest design, ARDL(2, 2)'s, is singular, so ols scored that
        # grid; the chain QR scores the p = 1 candidates' columns, as one
        # chain and as two (ARDL(1, 1) is columns 0-3)
        lhs, X, *_ = _conditional_design(frame, spec, ArdlSpec(1, (2,)))
        for columns, exact in ((((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)), [False, True, True]),
                               (((0, 1, 2, 4), (0, 1, 2, 3)), [False, True])):
            plan = search_plan(columns)
            [by_qr], [qr] = regression._scores(lhs[None], X[None], plan, "aic")
            by_ols = [regression._exact_criterion(lhs, X[:, list(s)], "aic") for s in columns]
            assert qr and (plan.gather is None) == (len(exact) == 3)
            assert [s == -math.inf for s in by_qr] == [s == -math.inf for s in by_ols] == exact

    def test_rank_deficient_candidates_skipped(self):
        # X2(t) = X1(t-1): with q1 >= 1 the columns X1(-1), X2(-1) and
        # D.X1(-1) are collinear, so every such candidate is singular
        walk = random_walk(101, 5)
        frame = make_frame({"Y": 0.5 * walk[1:] + random_walk(100, 6),
                            "X1": walk[1:], "X2": walk[:-1]})
        spec = ModelSpec("Y", ("X1", "X2"), max_p=2, max_q=2)
        for criterion in ("aic", "sic", "hq"):
            best, scores = brute_force_search(frame, spec, criterion)
            assert {cand for cand, ic in scores.items() if ic is None} == {
                cand for cand in scores if cand[1][0] >= 1}
            chosen = select_ardl_lags(frame, spec, criterion)
            assert (chosen.p, chosen.q) == best

        lhs, X, *_ = _conditional_design(frame, spec, ArdlSpec(2, (2, 2)))
        cands = list(scores)
        plan = search_plan(grid_columns(spec, p, q) for p, q in cands)
        [batched] = search_criteria(lhs[None], X[None], plan, "hq").tolist()
        for cand, ic in zip(cands, batched):
            if scores[cand] is None:
                assert math.isnan(ic)
            else:
                assert ic == pytest.approx(scores[cand], rel=1e-12)

    def test_near_tie_rescored_exactly(self, coint_frame, monkeypatch):
        # Move a worse candidate with fewer lags just below the best RSS
        # score: trusting the RSS scores would select it, the exact
        # re-score must not.
        spec = ModelSpec("Y", ("X1",), max_p=3, max_q=3)
        best, scores = brute_force_search(coint_frame, spec, "aic")
        cheap = min((c for c in scores if c != best), key=lambda c: (c[0] + sum(c[1]), c))
        assert cheap[0] + sum(cheap[1]) < best[0] + sum(best[1])
        assert scores[cheap] - scores[best] > 1e-6 * abs(scores[best])
        real_rss = regression._chain_rss

        def tied_rss(Y, X, plan):
            rss = real_rss(Y, X, plan)
            n = X.shape[1]
            b, j = (plan.columns.index(grid_columns(spec, *cand)) for cand in (best, cheap))
            ic_best = criterion_from_rss(rss[0, b], n, plan.widths[b])
            target = ic_best - 0.5 * regression.TIE_RTOL * abs(ic_best)
            rss[0, j] = n * math.exp((target - 2.0 * plan.widths[j]) / n)
            return rss

        monkeypatch.setattr(regression, "_chain_rss", tied_rss)
        chosen = select_ardl_lags(coint_frame, spec, "aic")
        assert (chosen.p, chosen.q) == best

    def test_exact_ties_break_toward_fewer_lags_then_smaller_orders(self, monkeypatch):
        # every candidate ties, and ARDL(1; 0, 0) is not scored: of the three
        # with 2 lags, ARDL(1; 0, 1), ARDL(1; 1, 0) and ARDL(2; 0, 0), the
        # smallest (p, q) wins
        frame = five_var_frame(T=60)
        spec = ModelSpec("Y", ("X1", "X2"), max_p=3, max_q=2)

        def tied(Y, X, plan, kind):
            # ols scored the row (False), so the search picks from these
            # exact scores without re-scoring them
            scores = np.zeros((1, len(plan.columns)))
            scores[0, plan.order[0]] = np.nan
            return scores, [False]

        monkeypatch.setattr(regression, "_scores", tied)
        assert select_ardl_lags(frame, spec) == ArdlSpec(1, (0, 1))

    def test_fixture_grid_fits_few_candidates_exactly(self, monkeypatch):
        frame = load_csv(FIXTURE_CSV.read_text())
        spec = ModelSpec("Y", ("X1", "X2", "X3", "X4", "X5"), max_p=2, max_q=2)
        calls = []

        def counted(y, X):
            calls.append(np.shape(X))
            return ols(y, X)

        monkeypatch.setattr(regression, "ols", counted)
        monkeypatch.setattr(ardl, "ols", counted)
        select_ardl_lags(frame, spec)
        assert len(calls) <= 5  # the per-candidate search made 486 fits

    @pytest.mark.parametrize("max_p, max_q, k", [(2, 2, 5), (3, 1, 2), (1, 0, 1), (4, 3, 1)])
    def test_grid_columns_name_each_candidates_design(self, max_p, max_q, k):
        names = [f"X{j}" for j in range(1, k + 1)]
        frame = make_frame({"Y": random_walk(40, 11),
                            **{name: random_walk(40, 12 + j) for j, name in enumerate(names)}})
        spec = ModelSpec("Y", tuple(names), max_p=max_p, max_q=max_q)
        candidates, columns, widths = _lag_grid(max_p, max_q, k)
        grid = list(itertools.product(range(1, max_p + 1),
                                      itertools.product(range(max_q + 1), repeat=k)))
        assert candidates == tuple((p, *q) for p, q in grid)
        *_, widest, _, _ = _conditional_design(frame, spec, ArdlSpec(max_p, (max_q,) * k))
        for (p, *q), cols, width in zip(candidates, columns, widths):
            *_, labels, _, _ = _conditional_design(frame, spec, ArdlSpec(p, q))
            assert tuple(widest[c] for c in cols) == labels
            assert width == len(cols)

    def test_grid_is_built_once_per_key(self, coint_frame, monkeypatch):
        # the plan is cached per (max_p, max_q, k, rows): the criterion is
        # not part of the key, and a shorter sample is another key
        _lag_plan.cache_clear()
        builds = Counted(monkeypatch, "search_plan", ardl)
        spec = ModelSpec("Y", ("X1",), max_p=3, max_q=2)
        first = select_ardl_lags(coint_frame, spec)
        assert select_ardl_lags(coint_frame, spec, "sic") and select_ardl_lags(coint_frame, spec)
        info = _lag_plan.cache_info()
        assert (info.misses, info.hits, builds.calls) == (1, 2, 1)
        assert select_ardl_lags(coint_frame, spec) == first
        short = TimeSeriesFrame(coint_frame.years[:60],
                                {name: col[:60] for name, col in coint_frame.columns.items()})
        select_ardl_lags(short, spec)
        assert (_lag_plan.cache_info().misses, builds.calls) == (2, 2)

    def test_exact_fallback_lets_only_package_errors_skip(self, coint_frame, monkeypatch):
        # every candidate's rank verdict falls to ols, which fails
        def rank_deficient(y, X):
            raise errors.RankDeficient([1])

        def broken(y, X):
            raise RuntimeError("not a numerical failure")

        spec = ModelSpec("Y", ("X1",))
        monkeypatch.setattr(regression, "RANK_MARGIN", math.inf)
        monkeypatch.setattr(regression, "ols", rank_deficient)
        with pytest.raises(errors.NoFeasibleSpec, match="every feasible candidate is rank deficient"):
            select_ardl_lags(coint_frame, spec)
        monkeypatch.setattr(regression, "ols", broken)
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            select_ardl_lags(coint_frame, spec)

    def test_one_svd_and_two_qrs_per_search(self, monkeypatch):
        # the rank bound's SVD of X, the QR of [X | y], and one batched QR
        # of the 162 chains of the k = 5 grid, each past the constant and
        # the 6 levels every candidate holds: 11 columns and y
        frame = load_csv(FIXTURE_CSV.read_text())
        spec = ModelSpec("Y", ("X1", "X2", "X3", "X4", "X5"), max_p=2, max_q=2)
        svd, qr = Counted(monkeypatch, "svd", np.linalg), Counted(monkeypatch, "qr", np.linalg)
        select_ardl_lags(frame, spec)
        assert svd.kwargs == [{"compute_uv": False}] and qr.calls == 2
        _, plan = _lag_plan(2, 2, 5, frame.n - 3)
        assert plan.gather.shape == (162, 12) and plan.shared == 7 and len(plan.columns) == 486

    def test_unknown_criterion(self, coint_frame, monkeypatch):
        # rejected before any factorization
        svd, qr = Counted(monkeypatch, "svd", np.linalg), Counted(monkeypatch, "qr", np.linalg)
        with pytest.raises(ValueError, match="unknown criterion"):
            select_ardl_lags(coint_frame, ModelSpec("Y", ("X1",)), "bic2")
        assert svd.calls == qr.calls == 0

    def test_infeasible_sample(self):
        frame = make_frame({"Y": np.arange(8.0) + 0.1 * np.sin(np.arange(8)),
                            "X1": np.cos(np.arange(8.0))})
        with pytest.raises(errors.NoFeasibleSpec, match="common sample of 5 rows"):
            select_ardl_lags(frame, ModelSpec("Y", ("X1",), max_p=2, max_q=2))


class TestBoundsTest:
    def test_matches_brute_force_f(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(2, (1,)))
        result = bounds_test(fit, table="pesaran")
        keep = [i for i in range(fit.regression.nparams) if i not in fit.level_indices]
        restricted = ols(fit.lhs, fit.design[:, keep])
        m = len(fit.level_indices)
        expected = ((restricted.rss - fit.regression.rss) / m) / (
            fit.regression.rss / fit.regression.df_resid
        )
        assert result.f_stat == pytest.approx(expected, rel=1e-12)
        assert result.k == 1

    def test_exact_fit_is_degenerate(self):
        # an F of two zero sums of squares is rounding noise, not a test
        frame = exact_ecm_frame()
        fit = fit_conditional_ecm(frame, ModelSpec("Y", ("X1",)), ArdlSpec(1, (1,)))
        with pytest.raises(errors.DegenerateResiduals):
            bounds_test(fit)

    def test_rank_deficient_design_names_its_columns(self, coint_frame):
        # the F's QR puts the level columns last; the error names the labels
        fit = fit_conditional_ecm(coint_frame, ModelSpec("Y", ("X1",)), ArdlSpec(2, (1,)))
        design = fit.design.copy()
        design[:, 2] = 3.0 * design[:, 3]  # X1(-1) repeats D.Y(-1)
        with pytest.raises(errors.RankDeficient) as exc:
            bounds_test(fit._replace(design=design))
        assert exc.value.columns == ("X1(-1)", "D.Y(-1)")

    def test_cointegrated_system_detected(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(2, (1,)))
        result = bounds_test(fit, table="pesaran")
        assert result.decision[0.05] == "cointegrated"

    def test_independent_walks_not_detected(self):
        frame = make_frame({"Y": random_walk(300, 42), "X1": random_walk(300, 99042)})
        fit = fit_conditional_ecm(frame, ModelSpec("Y", ("X1",)), ArdlSpec(1, (0,)))
        result = bounds_test(fit, table="pesaran")
        assert result.decision[0.05] in ("not_cointegrated", "inconclusive")


class TestDecideBounds:
    def test_embedded_table_fixture(self):
        result = decide_bounds(5.0348, 5)
        assert result.critical_bounds == dict(zip(BOUNDS_LEVELS, PAPER_BOUNDS_K5))
        for level in (0.01, 0.025, 0.05, 0.10):
            assert result.decision[level] == "cointegrated"

    def test_pesaran_fallback_for_other_k(self):
        result = decide_bounds(6.0, 1)
        assert result.critical_bounds == critical_values("pesaran", "III", 1)
        assert result.decision[0.05] == "cointegrated"

    def test_below_lower_bound(self):
        result = decide_bounds(1.0, 5)
        for level in (0.01, 0.025, 0.05, 0.10):
            assert result.decision[level] == "not_cointegrated"

    def test_inconclusive_band(self):
        result = decide_bounds(3.1, 5)  # between 2.29 and 3.24 at 5%
        assert result.decision[0.05] == "inconclusive"

    def test_unknown_k(self):
        with pytest.raises(errors.NoCriticalValues, match="k = 9"):
            decide_bounds(3.0, 9, table="pesaran")

    @pytest.mark.parametrize("k", [2.5, 5.0])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(TypeError):
            decide_bounds(3.0, k)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            decide_bounds(3.0, 5, table="narayan")

    @given(st.floats(0.0, 12.0), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_decision_consistent_with_bounds(self, f, k):
        result = decide_bounds(f, k, table="pesaran")
        for level, (lo, hi) in result.critical_bounds.items():
            if f > hi:
                assert result.decision[level] == "cointegrated"
            elif f < lo:
                assert result.decision[level] == "not_cointegrated"
            else:
                assert result.decision[level] == "inconclusive"


class TestLongRunCoefficients:
    def test_recovers_true_vector(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(2, (1,)))
        lr = long_run_coefficients(fit)
        est, se = lr["X1"]
        assert est == pytest.approx(2.0, abs=0.25)
        assert se > 0

    def test_ratio_definition(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(1, (0,)))
        reg = fit.regression
        expected = -reg.coef[2] / reg.coef[1]
        assert long_run_coefficients(fit)["X1"][0] == pytest.approx(expected, rel=1e-12)

    def test_delta_method_stderr(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(1, (0,)))
        reg = fit.regression
        tau1, tau2 = reg.coef[1], reg.coef[2]
        cov = reg.coef_cov()
        grad = np.zeros(reg.nparams)
        grad[2] = -1.0 / tau1
        grad[1] = tau2 / tau1**2
        expected = float(np.sqrt(grad @ cov @ grad))
        assert long_run_coefficients(fit)["X1"][1] == pytest.approx(expected, rel=1e-10)

    def test_zero_adjustment_coefficient_is_not_identified(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(coint_frame, spec, ArdlSpec(1, (0,)))
        coef = fit.regression.coef.copy()
        coef[fit.level_indices[0]] = 0.0
        fit = fit._replace(regression=fit.regression._replace(coef=coef))
        with pytest.raises(errors.NearSingularAdjustment) as raised:
            long_run_coefficients(fit)
        assert str(raised.value) == ("lagged-dependent level coefficient 0 is below tolerance "
                                     "1e-08; long-run coefficients are not identified")


class TestFitEcm:
    def test_adjustment_speed_recovered(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        ardl_spec = ArdlSpec(2, (1,))
        fit = fit_conditional_ecm(coint_frame, spec, ardl_spec)
        ecm = fit_ecm(coint_frame, spec, fit, long_run_coefficients(fit))
        theta, se = ecm.ect
        assert theta == pytest.approx(-0.3, abs=0.12)
        assert se > 0
        assert not ecm.convergence_warning

    def test_short_run_labels(self, coint_frame):
        spec = ModelSpec("Y", ("X1",))
        ardl_spec = ArdlSpec(2, (1,))
        fit = fit_conditional_ecm(coint_frame, spec, ardl_spec)
        ecm = fit_ecm(coint_frame, spec, fit, long_run_coefficients(fit))
        assert ecm.spec == ardl_spec
        assert set(ecm.short_run) == {"D.Y(-1)", "D.X1(-1)"}
        assert ecm.names[0] == "const" and ecm.names[-1] == "ECT(-1)"

    def test_convergence_warning_on_divergent_ect(self):
        # feed a long-run vector so wrong that the ECT carries no
        # corrective signal; theta lands near zero but the warning only
        # triggers outside (-2, 0), so force the sign by construction
        frame = make_frame({"Y": np.cumsum(np.ones(60)) + 0.01 * random_walk(60, 1),
                            "X1": random_walk(60, 2)})
        spec = ModelSpec("Y", ("X1",))
        fit = fit_conditional_ecm(frame, spec, ArdlSpec(1, (0,)))
        ecm = fit_ecm(frame, spec, fit, {"X1": (0.0, 0.0)})
        # trending dependent with zero long-run slope: ECT trends with Y,
        # and the fit cannot produce a stabilizing negative theta
        assert ecm.convergence_warning == (not (-2.0 < ecm.ect[0] < 0.0))
