import math

import numpy as np
import pytest

from ardlkit import causality, errors
from ardlkit.causality import (
    CausalityReport,
    causality_matrix,
    classify_direction,
    granger_pair,
    select_granger_lag,
)
from ardlkit.frame import lag_matrix
from ardlkit.regression import info_criterion, ols, tail_probability
from ardlkit.synthetic import ar1, ecm_system, normals

from conftest import make_frame
from test_regression import Counted

# F and p frozen from an independent restricted/unrestricted RSS
# computation for the seeded pair below at lag 2.
GRANGER_F = 16.876554727957732
GRANGER_P = 5.58317423806088e-07


def causal_pair(T=100):
    x = ar1(T, 2, 0.5)
    y = np.roll(x, 1) * 0.6 + ar1(T, 3, 0.3)
    return x, y


def brute_force_f(x, y, lag):
    """Granger F via two plain lstsq fits, no shared plumbing."""
    n = len(y)
    rows = n - lag
    ylags = np.column_stack([y[lag - j - 1 : n - j - 1] for j in range(lag)])
    xlags = np.column_stack([x[lag - j - 1 : n - j - 1] for j in range(lag)])
    lhs = y[lag:]
    const = np.ones(rows)
    Xu = np.column_stack([const, ylags, xlags])
    Xr = np.column_stack([const, ylags])

    def rss(X):
        b = np.linalg.lstsq(X, lhs, rcond=None)[0]
        r = lhs - X @ b
        return float(r @ r)

    rss_u, rss_r = rss(Xu), rss(Xr)
    df = rows - Xu.shape[1]
    return ((rss_r - rss_u) / lag) / (rss_u / df)


class TestGrangerPair:
    def test_frozen_oracle(self):
        x, y = causal_pair()
        report = granger_pair(x, y, 2)
        assert report.f_stat == pytest.approx(GRANGER_F, abs=1e-9)
        assert report.p == pytest.approx(GRANGER_P, rel=1e-6)
        assert report.reject_at == {0.01: True, 0.05: True, 0.10: True}
        assert report.nobs == 98

    def test_matches_brute_force(self):
        for seed in range(12):
            x = ar1(80, seed, 0.5)
            y = ar1(80, 1000 + seed, 0.4)
            for lag in (1, 2, 3):
                report = granger_pair(x, y, lag)
                assert report.f_stat == pytest.approx(
                    brute_force_f(x, y, lag), abs=1e-8
                )

    def test_independent_series_usually_insignificant(self):
        x = ar1(300, 5, 0.5)
        y = ar1(300, 6005, 0.5)
        report = granger_pair(x, y, 2)
        assert report.p > 0.01

    def test_labels(self):
        x, y = causal_pair()
        report = granger_pair(x, y, 2, cause="LAI", effect="LCO2")
        assert report.cause == "LAI" and report.effect == "LCO2"

    def test_bad_lag(self):
        x, y = causal_pair()
        with pytest.raises(ValueError):
            granger_pair(x, y, 0)

    @pytest.mark.parametrize("lag", ["auto", 2.0])
    def test_lag_must_be_an_integer(self, lag):
        # a lag search is select_granger_lag's; granger_pair tests one fixed lag
        x, y = causal_pair()
        with pytest.raises(TypeError):
            granger_pair(x, y, lag)

    def test_too_short(self):
        with pytest.raises(errors.SeriesTooShort):
            granger_pair(np.arange(8.0), np.arange(8.0) ** 2, 3)

    def test_bitwise_equal_to_two_ols_fits(self):
        # the one-QR F of wald_f against the RSS difference of two ols fits,
        # which these well-conditioned cases keep to 1e-12
        for T in (20, 33, 80):
            for seed in range(4):
                x = ar1(T, 500 + seed, 0.5)
                y = 0.3 * np.roll(x, 1) + ar1(T, 600 + seed, 0.4)
                for lag in range(1, 5):
                    X = np.column_stack([np.ones(T - lag), lag_matrix(y, lag), lag_matrix(x, lag)])
                    full, restricted = ols(y[lag:], X), ols(y[lag:], X[:, :1 + lag])
                    f = ((restricted.rss - full.rss) / lag) / (full.rss / full.df_resid)
                    report = granger_pair(x, y, lag)
                    assert report.f_stat == pytest.approx(f, rel=1e-12)
                    assert report.p == pytest.approx(tail_probability("f", f, (lag, full.df_resid)),
                                                     rel=1e-12)
                    assert report.nobs == T - lag

    @pytest.mark.parametrize("y", [np.arange(40.0), 0.5 * np.arange(40.0) + 1.0,
                                   0.9 ** np.arange(40.0)])
    def test_exact_fit_is_degenerate(self, y):
        # y on a constant and its own lag is exact: its F would be rounding noise
        with pytest.raises(errors.DegenerateResiduals):
            granger_pair(np.sin(np.arange(40.0)), y, 1)

    def test_unequal_lengths_use_common_tail(self):
        x, y = causal_pair(120)
        report_full = granger_pair(x[20:], y[20:], 2)
        report_trim = granger_pair(x, y[20:], 2)
        assert report_trim.f_stat == pytest.approx(report_full.f_stat, rel=1e-12)


class TestSelectGrangerLag:
    def test_within_range(self):
        x, y = causal_pair()
        assert 1 <= select_granger_lag(x, y, 4) <= 4

    def test_lag_and_length_guards(self):
        x, y = causal_pair()
        with pytest.raises(ValueError, match="max lag must be >= 1"):
            select_granger_lag(x, y, max_lag=0)
        with pytest.raises(errors.SeriesTooShort):
            select_granger_lag([1.0], [2.0])

    def test_short_series_caps_lag(self):
        x = normals(1, 12)
        y = normals(2, 12)
        assert select_granger_lag(x, y, 4) <= 4

    @staticmethod
    def per_lag_search(x, y, max_lag, criterion):
        """One ``ols`` fit per lag on the common sample; failed fits skipped."""
        max_lag = min(max_lag, max(1, (len(y) - 3) // 2))
        best_lag, best_ic, failed = 1, math.inf, []
        for lag in range(1, max_lag + 1):
            drop = max_lag - lag
            X = np.column_stack([np.ones(len(y) - max_lag), lag_matrix(y, lag)[drop:],
                                 lag_matrix(x, lag)[drop:]])
            try:
                ic = info_criterion(ols(y[max_lag:], X), criterion)
            except errors.ArdlkitError:
                failed.append(lag)
                continue
            if ic < best_ic - 1e-12:
                best_lag, best_ic = lag, ic
        return best_lag, failed

    def test_matches_per_lag_search(self):
        for seed in range(12):
            x = ar1(60 + 10 * seed, 40 + seed, 0.5)
            y = 0.4 * np.roll(x, 1 + seed % 3) + ar1(60 + 10 * seed, 80 + seed, 0.4)
            for cx, cy in ((x, y), (y, x)):
                for criterion in ("aic", "sic", "hq"):
                    expected, _ = self.per_lag_search(cx, cy, 4, criterion)
                    assert select_granger_lag(cx, cy, 4, criterion) == expected

    @pytest.mark.parametrize("T", [20, 33, 80])
    def test_matches_per_lag_search_at_every_max_lag(self, T):
        for seed in range(8):
            x = ar1(T, 200 + seed, 0.5)
            y = 0.4 * np.roll(x, 1 + seed % 3) + ar1(T, 300 + seed, 0.4)
            for max_lag in range(1, 5):
                for cx, cy in ((x, y), (y, x)):
                    for criterion in ("aic", "sic", "hq"):
                        expected, _ = self.per_lag_search(cx, cy, max_lag, criterion)
                        assert select_granger_lag(cx, cy, max_lag, criterion) == expected

    def test_unequal_lengths_use_common_tail(self):
        for seed in range(6):
            long, short = ar1(120, 50 + seed, 0.5), ar1(100, 70 + seed, 0.4)
            for x, y in ((long, short), (short, long)):
                for criterion in ("aic", "sic", "hq"):
                    trimmed = select_granger_lag(x[-100:], y[-100:], 4, criterion)
                    assert select_granger_lag(x, y, 4, criterion) == trimmed

    def test_rank_deficient_lags_skipped(self):
        # x(t) = y(t-1): from lag 2 on, x's first lag repeats y's second
        y = ar1(61, 9, 0.5)
        x = np.concatenate([[0.0], y[:-1]])
        expected, failed = self.per_lag_search(x, y, 4, "aic")
        assert failed == [2, 3, 4]
        assert select_granger_lag(x, y, 4) == expected == 1


def frame_k(k, T, seed=0):
    beta = (0.5, -0.3, 0.4, -0.2, 0.3)[:k]
    return make_frame(ecm_system(T, 40 + seed, beta=beta, alpha=-0.3, sigma=0.4))


def per_pair(frame, variables, dependent, lag):
    """The reference rows: one ``select_granger_lag`` and one ``granger_pair``
    call per ordered pair."""
    rows = []
    for name in variables:
        for cause, effect in ((name, dependent), (dependent, name)):
            x, y = frame.column(cause), frame.column(effect)
            try:
                use = select_granger_lag(x, y) if lag == "auto" else lag
                rows.append(granger_pair(x, y, use, cause, effect))
            except errors.ArdlkitError as exc:
                rows.append(causality._errored(cause, effect, str(exc)))
    return rows


class TestCausalityMatrix:
    def test_both_directions_per_pair(self, coint_frame):
        reports = causality_matrix(coint_frame, ("X1",), "Y", lag=2)
        assert [(r.cause, r.effect) for r in reports] == [("X1", "Y"), ("Y", "X1")]
        assert all(r.error is None for r in reports)

    def test_dependent_as_variable_is_errored_row(self, coint_frame):
        reports = causality_matrix(coint_frame, ("Y",), "Y", lag=2)
        assert all(r.error for r in reports)
        assert all(math.isnan(r.f_stat) for r in reports)

    def test_one_year_frame_gives_errored_rows(self):
        # too short to difference or to take one lag: every pair fails alike
        frame = make_frame({"Y": [1.0], "X1": [2.0], "X2": [3.0]})
        reports = causality_matrix(frame, ("X1", "X2"), "Y")
        assert len(reports) == 4
        assert {r.error for r in reports} == {"need more than 1 observations for 1 lags, got 1"}

    def test_auto_lag(self, coint_frame):
        reports = causality_matrix(coint_frame, ("X1",), "Y")
        assert all(r.lag >= 1 for r in reports)

    @pytest.mark.parametrize("T", [20, 33, 80])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_rows_equal_the_per_pair_tests(self, T, k):
        frame = frame_k(k, T)
        names = tuple(f"X{j}" for j in range(1, k + 1))
        for lag in ("auto", 1, 2, 3, 4):
            reports = causality_matrix(frame, names, "Y", lag)
            assert [repr(r) for r in reports] == [repr(r) for r in per_pair(frame, names, "Y", lag)]
            assert all(r.error is None for r in reports)

    def test_singular_pair_fails_alone(self):
        # X1(t) = Y(t-1): at lag 2, X1's first lag repeats Y's second
        frame = frame_k(2, 60, seed=3)
        y = frame.column("Y")
        frame = make_frame({"Y": y, "X1": np.concatenate([[0.0], y[:-1]]),
                            "X2": frame.column("X2")})
        reports = causality_matrix(frame, ("X1", "X2"), "Y", 2)
        for report, (x, y) in zip(reports[:2], (("X1", "Y"), ("Y", "X1"))):
            with pytest.raises(errors.RankDeficient) as exc:
                granger_pair(frame.column(x), frame.column(y), 2)
            assert report.error == str(exc.value)
            assert (report.cause, report.effect, report.lag, report.nobs) == (x, y, 0, 0)
        assert reports[2:] == causality_matrix(frame, ("X2",), "Y", 2)
        assert all(r.error is None for r in reports[2:])

    @pytest.mark.parametrize("T, lag, error", [(20, 9, errors.SeriesTooShort),
                                               (7, 2, errors.TooFewObservations)])
    def test_lag_too_large_for_the_sample(self, T, lag, error):
        frame = frame_k(2, T)
        reports = causality_matrix(frame, ("X1", "X2"), "Y", lag)
        with pytest.raises(error) as exc:
            granger_pair(frame.column("X1"), frame.column("Y"), lag)
        assert [r.error for r in reports] == [str(exc.value)] * 4
        assert reports == per_pair(frame, ("X1", "X2"), "Y", lag)

    def test_dependent_as_variable_errors_in_place(self):
        frame = frame_k(2, 33)
        reports = causality_matrix(frame, ("X1", "Y", "X2"), "Y")
        assert [(r.cause, r.effect) for r in reports[2:4]] == [("Y", "Y")] * 2
        assert all(r.error == "variable equals the dependent" for r in reports[2:4])
        assert reports[:2] + reports[4:] == causality_matrix(frame, ("X1", "X2"), "Y")

    def test_unknown_variable_raises(self):
        frame = frame_k(2, 33)
        with pytest.raises(errors.UnknownVariable):
            causality_matrix(frame, ("X1", "X9"), "Y")
        with pytest.raises(errors.UnknownVariable):
            causality_matrix(frame, ("X1",), "Z")

    def test_one_lag_search_per_matrix(self, monkeypatch):
        frame = frame_k(5, 33)
        search = Counted(monkeypatch, "search", causality)
        causality_matrix(frame, tuple(f"X{j}" for j in range(1, 6)), "Y")
        assert search.calls == 1  # the per-pair loop made one per ordered pair

    @pytest.mark.parametrize("lag", ["auto", 3])
    def test_two_stacked_fits_per_lag(self, monkeypatch, lag):
        # one wald_f per lag in use, whose two stacked factorizations are
        # the rank rule's SVD and the F's QR
        frame = frame_k(5, 33)  # its auto lags are 1, 3 and 4
        walds = Counted(monkeypatch, "wald_f", causality)
        svd, qr = Counted(monkeypatch, "svd"), Counted(monkeypatch, "qr")
        reports = causality_matrix(frame, tuple(f"X{j}" for j in range(1, 6)), "Y", lag)
        assert all(r.error is None for r in reports)
        assert walds.calls == len({r.lag for r in reports})
        if lag == 3:
            assert svd.calls == qr.calls == 1


class TestGrangerBlock:
    @pytest.mark.parametrize("lag", [1, "auto"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["cause", "effect"])
    def test_non_finite_row_fails_alone(self, lag, bad, side):
        causes = np.array([ar1(40, 2, 0.5), ar1(40, 4, 0.5)])
        effects = 0.6 * np.roll(causes, 1, axis=1) + np.array([ar1(40, 3, 0.3), ar1(40, 5, 0.3)])
        labels = [("x1", "y1"), ("x2", "y2")]
        [alone] = causality.granger_block(causes[1:], effects[1:], labels[1:], lag)
        (causes if side == "cause" else effects)[0, 17] = bad
        failed, kept = causality.granger_block(causes, effects, labels, lag)
        assert isinstance(failed, errors.DegenerateSeries)
        assert str(failed) == "series has a non-finite value"
        assert repr(kept) == repr(alone)
        with pytest.raises(errors.DegenerateSeries, match="non-finite"):
            if lag == "auto":
                select_granger_lag(causes[0], effects[0])
            else:
                granger_pair(causes[0], effects[0], lag)


class TestClassifyDirection:
    def make(self, p, error=None):
        return CausalityReport("a", "b", 1, 50, 1.0, p,
                               {0.01: False, 0.05: False, 0.10: False}, error)

    def test_bidirectional(self):
        assert classify_direction(self.make(0.01), self.make(0.02)) == "bidirectional"

    def test_unidirectional(self):
        assert classify_direction(self.make(0.01), self.make(0.5)) == "unidirectional"
        assert classify_direction(self.make(0.5), self.make(0.01)) == "unidirectional"

    def test_none(self):
        assert classify_direction(self.make(0.3), self.make(0.6)) == "none"

    def test_error(self):
        assert classify_direction(self.make(0.01), self.make(0.01, "x")) == "error"

    def test_level_respected(self):
        assert classify_direction(self.make(0.02), self.make(0.5), level=0.01) == "none"
