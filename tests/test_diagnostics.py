import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ardlkit import errors
from ardlkit.ardl import fit_conditional_ecm, select_ardl_lags
from ardlkit.critical import critical_values
from ardlkit.diagnostics import (
    breusch_godfrey,
    breusch_pagan_godfrey,
    cusum,
    cusum_path,
    cusum_sq,
    cusum_sq_path,
    diagnostics_report,
    jarque_bera,
    recursive_residuals,
    verdict,
)
from ardlkit.frame import ModelSpec, load_csv
from ardlkit.regression import ols
from ardlkit.synthetic import ar1, normals

from conftest import FIXTURE_CSV

# Frozen from independent implementations of the three residual tests
# on the same seeded inputs.
JB_NORMALS_STAT = 1.8372038090339173
JB_NORMALS_P = 0.39907659842413934
BG_STAT = 7.793986962340083
BG_P = 0.020302860710365522
BPG_STAT = 0.08073157812487075
BPG_P = 0.7763084361654574


def seeded_fit():
    X = np.column_stack([np.ones(100), ar1(100, 7, 0.3)])
    y = X @ np.array([1.0, 0.5]) + normals(8, 100)
    return ols(y, X), X, y


def fixture_ecm_design():
    """lhs and design of the conditional ECM the pipeline picks on the fixture."""
    frame = load_csv(FIXTURE_CSV.read_text())
    spec = ModelSpec("Y", ("X1", "X2", "X3", "X4", "X5"))
    fit = fit_conditional_ecm(frame, spec, select_ardl_lags(frame, spec, "aic"))
    return fit.lhs, fit.design


def oracle_recursive_residuals(mpmath, y, X):
    """Brown-Durbin-Evans recursion in mpmath at the caller's precision."""
    n, k = X.shape
    rows = [[mpmath.mpf(float(v)) for v in row] for row in X]
    ys = [mpmath.mpf(float(v)) for v in y]
    head = mpmath.matrix(rows[:k])
    p = (head.T * head) ** -1
    beta = p * head.T * mpmath.matrix(ys[:k])
    w = []
    for t in range(k, n):
        xt = mpmath.matrix(rows[t])
        gain = p * xt
        f = 1 + (xt.T * gain)[0]
        error = ys[t] - (xt.T * beta)[0]
        w.append(error / mpmath.sqrt(f))
        beta += gain * (error / f)
        p -= gain * gain.T / f
    return w


class TestJarqueBera:
    def test_hand_derived_value(self):
        stat, p = jarque_bera(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        # skewness 0, biased kurtosis 1.7 -> JB = 5/6 * (1.3^2 / 4)
        assert stat == pytest.approx(0.35208333333, abs=1e-8)
        assert p == pytest.approx(0.8385830416490585, rel=1e-10)

    def test_frozen_oracle(self):
        stat, p = jarque_bera(normals(9, 200))
        assert stat == pytest.approx(JB_NORMALS_STAT, rel=1e-10)
        assert p == pytest.approx(JB_NORMALS_P, rel=1e-10)

    def test_too_short(self):
        with pytest.raises(errors.DegenerateResiduals):
            jarque_bera(np.array([1.0, 2.0]))

    def test_constant_residuals(self):
        with pytest.raises(errors.DegenerateResiduals):
            jarque_bera(np.full(10, 3.0))

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_and_shift_invariance(self, seed, scale):
        u = normals(seed, 60)
        base, _ = jarque_bera(u)
        moved, _ = jarque_bera(scale * u + 7.0)
        assert moved == pytest.approx(base, rel=1e-8)


class TestBreuschGodfrey:
    def test_frozen_oracle(self):
        fit, X, _ = seeded_fit()
        stat, p = breusch_godfrey(fit, X, 2)
        assert stat == pytest.approx(BG_STAT, rel=1e-10)
        assert p == pytest.approx(BG_P, rel=1e-10)

    def test_zero_residuals_passes(self):
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        fit = ols(np.zeros(30), X)
        assert breusch_godfrey(fit, X, 2) == (0.0, 1.0)

    def test_bad_order(self):
        fit, X, _ = seeded_fit()
        with pytest.raises(ValueError):
            breusch_godfrey(fit, X, 0)

    def test_length_mismatch(self):
        fit, X, _ = seeded_fit()
        with pytest.raises(ValueError):
            breusch_godfrey(fit, X[:50], 2)

    def test_too_few_observations_for_the_order(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        fit = ols(np.array([1.0, 3.0, 2.0, 5.0]), X)
        with pytest.raises(errors.DegenerateResiduals, match="n > k \\+ order"):
            breusch_godfrey(fit, X, 2)


class TestBreuschPaganGodfrey:
    def test_frozen_oracle(self):
        fit, X, _ = seeded_fit()
        stat, p = breusch_pagan_godfrey(fit, X)
        assert stat == pytest.approx(BPG_STAT, rel=1e-10)
        assert p == pytest.approx(BPG_P, rel=1e-10)

    def test_guards(self):
        fit, X, _ = seeded_fit()
        with pytest.raises(ValueError, match="different lengths"):
            breusch_pagan_godfrey(fit, X[:50])
        y = np.array([1.0, 3.0, 2.0])
        fit = ols(y, np.ones((3, 1)))
        with pytest.raises(errors.DegenerateResiduals, match="BPG needs n > k"):
            breusch_pagan_godfrey(fit, np.column_stack([np.ones(3), np.arange(3.0), y]))

    def test_detects_constructed_heteroscedasticity(self):
        t = np.arange(200.0)
        X = np.column_stack([np.ones(200), t])
        y = 1.0 + 0.5 * t + (0.1 + 0.05 * t) * normals(4, 200)
        fit = ols(y, X)
        _, p = breusch_pagan_godfrey(fit, X)
        assert p < 0.01


class TestVerdict:
    def test_threshold(self):
        assert verdict(0.06) == "pass"
        assert verdict(0.04) == "fail"
        assert verdict(0.04, level=0.01) == "pass"

    def test_report_verdicts(self):
        fit, X, _ = seeded_fit()
        report = diagnostics_report(fit, X)
        assert report.verdicts["normality"] == verdict(report.jb[1])
        assert report.verdicts["serial_correlation"] == verdict(report.lm[1])
        assert report.verdicts["heteroscedasticity"] == verdict(report.bpg[1])
        assert report.lm[2] == 2  # order echoed back


class TestRecursiveResiduals:
    def test_too_few_observations(self):
        with pytest.raises(errors.DegenerateResiduals, match="need n > k"):
            recursive_residuals(np.ones(2), np.eye(2))

    def test_matches_naive_rolling_ols(self):
        _, X, y = seeded_fit()
        w = recursive_residuals(y, X)
        k = X.shape[1]
        for t in range(k, len(y)):
            b = np.linalg.lstsq(X[:t], y[:t], rcond=None)[0]
            xt = X[t]
            f = 1.0 + xt @ np.linalg.inv(X[:t].T @ X[:t]) @ xt
            expected = (y[t] - xt @ b) / np.sqrt(f)
            assert w[t - k] == pytest.approx(expected, abs=1e-8)

    def test_length(self):
        _, X, y = seeded_fit()
        assert recursive_residuals(y, X).shape == (98,)

    def test_singular_head(self):
        X = np.column_stack([np.ones(20), np.concatenate([np.ones(2), np.arange(18.0)])])
        with pytest.raises(errors.RankDeficient):
            recursive_residuals(np.arange(20.0), X)

    def test_scaling_the_data_scales_the_residuals(self):
        # a well-conditioned design with no constant: scaling y and X by c
        # scales every w by c, and the head block's rank verdict is ols's,
        # which does not depend on scale
        X = normals(21, 120).reshape(40, 3)
        y = X @ np.array([1.0, -0.5, 0.25]) + normals(22, 40)
        w = recursive_residuals(y, X)
        for c in (1e-12, 1.0, 1e12):
            np.testing.assert_allclose(recursive_residuals(c * y, c * X) / c, w,
                                       rtol=1e-12, atol=0)

    def test_fixture_design_matches_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        y, X = fixture_ecm_design()
        with mpmath.workdps(50):
            w = oracle_recursive_residuals(mpmath, y, X)
            m = len(w)
            mean = mpmath.fsum(w) / m
            sigma = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in w) / (m - 1))
            total = mpmath.fsum(v**2 for v in w)
            cum, cum_sq, cusum_path, cusum_sq_path = 0, 0, [], []
            for v in w:
                cum += v
                cum_sq += v**2
                cusum_path.append(float(cum / sigma))
                cusum_sq_path.append(float(cum_sq / total))
            w = [float(v) for v in w]
        np.testing.assert_allclose(recursive_residuals(y, X), w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cusum(y, X).values, cusum_path, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cusum_sq(y, X).values, cusum_sq_path, rtol=0, atol=1e-12)


class TestPathsFromResiduals:
    def test_same_paths_as_from_the_design(self):
        y, X = fixture_ecm_design()
        w = recursive_residuals(y, X)
        for level in (0.01, 0.05, 0.10):
            for built, direct in ((cusum_path(w, X.shape[1], level), cusum(y, X, level)),
                                  (cusum_sq_path(w, X.shape[1], level), cusum_sq(y, X, level))):
                assert built.t_index == direct.t_index
                assert built.stable == direct.stable
                for field in ("values", "lower", "upper"):
                    np.testing.assert_array_equal(getattr(built, field), getattr(direct, field))

    def test_pipeline_computes_recursive_residuals_once(self, monkeypatch):
        from ardlkit import cli, diagnostics

        calls = []
        real = diagnostics.recursive_residuals

        def counted(y, X):
            calls.append(1)
            return real(y, X)

        monkeypatch.setattr(diagnostics, "recursive_residuals", counted)
        config = cli.PipelineConfig(data_path=str(FIXTURE_CSV), dependent="Y",
                                    regressors=("X1", "X2", "X3", "X4", "X5"))
        report = cli.run_pipeline(config)
        assert [path.statistic for path in report.stability] == ["cusum", "cusum_sq"]
        assert len(calls) == 1


class TestCusum:
    def test_stable_on_stable_data(self):
        _, X, y = seeded_fit()
        path = cusum(y, X)
        assert path.stable
        assert path.statistic == "cusum"
        assert len(path.values) == 98
        assert path.t_index == tuple(range(3, 101))

    def test_bound_formula(self):
        _, X, y = seeded_fit()
        path = cusum(y, X, level=0.05)
        m = len(path.values)
        a = critical_values("stability", "cusum", m)[0.05]
        steps = np.arange(1, m + 1)
        np.testing.assert_allclose(
            path.upper, a * np.sqrt(m) + 2 * a * steps / np.sqrt(m), rtol=1e-12
        )
        np.testing.assert_allclose(path.lower, -path.upper, rtol=1e-12)

    def test_detects_structural_break(self):
        t = np.arange(120.0)
        X = np.column_stack([np.ones(120), t])
        y = 1.0 + 0.2 * t + 0.2 * normals(3, 120)
        y[60:] += 0.8 * (t[60:] - 60)  # slope break at t = 60
        assert not cusum(y, X).stable

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        _, X, y = seeded_fit()
        base = cusum(y, X)
        # recursive residuals are linear in y, so rescaling y rescales
        # both the path numerator and sigma-hat identically
        scaled = cusum(scale * y, X)
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-8)

    def test_bad_level(self):
        _, X, y = seeded_fit()
        with pytest.raises(ValueError):
            cusum(y, X, level=0.07)

    def test_one_recursive_residual(self):
        # a 4 x 3 design leaves one recursive residual, too few to scale
        # the path by, unless the fit is exact and the path is zero
        X = np.column_stack([np.ones(4), np.arange(4.0), [1.0, -2.0, 0.5, 3.0]])
        with pytest.raises(errors.DegenerateResiduals):
            cusum(np.array([1.0, 0.5, 2.0, -1.0]), X)
        path = cusum_path(np.zeros(1), 3)
        assert path.values.tolist() == [0.0] and path.t_index == (4,)

    def test_equal_recursive_residuals(self):
        # residuals that are all equal, or so small that their squares
        # underflow, leave sigma zero, unless the fit is exact and the path
        # is zero
        with pytest.raises(errors.DegenerateResiduals):
            cusum_path(np.full(3, 0.5), 2)
        with pytest.raises(errors.DegenerateResiduals):
            cusum_path(np.array([1e-200, 2e-200, 3e-200]), 2)  # squares underflow
        path = cusum_path(np.zeros(3), 2)
        assert path.values.tolist() == [0.0, 0.0, 0.0] and path.stable


class TestCusumSq:
    def test_terminal_value_exactly_one(self):
        _, X, y = seeded_fit()
        path = cusum_sq(y, X)
        assert path.values[-1] == 1.0

    def test_path_monotone_in_unit_interval(self):
        _, X, y = seeded_fit()
        path = cusum_sq(y, X)
        assert np.all(np.diff(path.values) >= 0)
        assert np.all((path.values >= 0) & (path.values <= 1))

    def test_center_line(self):
        _, X, y = seeded_fit()
        path = cusum_sq(y, X)
        m = len(path.values)
        center = np.arange(1, m + 1) / m
        np.testing.assert_allclose(path.upper - center, center - path.lower, atol=1e-12)

    def test_stable_on_stable_data(self):
        _, X, y = seeded_fit()
        assert cusum_sq(y, X).stable

    def test_detects_variance_break(self):
        X = np.column_stack([np.ones(160), ar1(160, 2, 0.3)])
        e = normals(5, 160)
        e[80:] *= 6.0  # variance break halfway
        y = X @ np.array([1.0, 0.5]) + e
        assert not cusum_sq(y, X).stable

    def test_exact_fit_raises(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        with pytest.raises(errors.AllZeroResiduals):
            cusum_sq(np.zeros(20), X)

    def test_critical_value_interpolation_monotone(self):
        values = [critical_values("stability", "cusum_sq", m)[0.05] for m in range(6, 400, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # tighter bound at stricter level
        c0 = critical_values("stability", "cusum_sq", 100)
        assert c0[0.01] > c0[0.05] > c0[0.10]
