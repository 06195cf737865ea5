"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them inline).
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from ardlkit.ardl import (
    ArdlSpec,
    bounds_test,
    decide_bounds,
    fit_conditional_ecm,
    fit_ecm,
    long_run_coefficients,
    select_ardl_lags,
)
from ardlkit.causality import CausalityReport, classify_direction, granger_pair
from ardlkit.cli import PipelineConfig, run_pipeline
from ardlkit.cointreg import ccr, dols, fmols
from ardlkit.critical import critical_values
from ardlkit.diagnostics import cusum, cusum_sq, jarque_bera, verdict
from ardlkit.frame import ModelSpec
from ardlkit.regression import ols
from ardlkit.report import render
from ardlkit.synthetic import ar1, ecm_system, normals, random_walk
from ardlkit.unitroot import (
    UnitRootReport,
    adf,
    integration_order,
    pp,
)

from conftest import FIXTURE_CSV, GOLDEN_DIR, make_frame
from regenerate_goldens import VERSIONS, environment_versions
from test_causality import brute_force_f
from test_cointreg import orthogonalized_frame


def report_line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")


def first_difference(produced: Path, golden: Path) -> str:
    """The first line at which two text files differ."""
    new = produced.read_text().splitlines()
    old = golden.read_text().splitlines()
    for number, (a, b) in enumerate(zip(new, old), start=1):
        if a != b:
            return f"line {number}: {a!r} != golden {b!r}"
    return f"line {min(len(new), len(old)) + 1}: {len(new)} lines != golden {len(old)}"


def describe_golden_mismatches(mismatches, out_root: Path) -> str:
    """First differing line of each file, and the builds behind both sides."""
    lines = [f"{rel} {first_difference(out_root / rel, GOLDEN_DIR / rel)}"
             for rel in mismatches]
    lines.append(f"goldens written under {json.loads(VERSIONS.read_text())}")
    lines.append(f"running under {environment_versions()}")
    return "\n".join(lines)


def test_01_bounds_decision_fixture():
    start = time.perf_counter()
    result = decide_bounds(5.0348, 5)
    elapsed = time.perf_counter() - start
    ok = all(result.decision[lv] == "cointegrated"
             for lv in (0.01, 0.025, 0.05, 0.10))
    report_line(1, ok, f"F=5.0348 k=5 cointegrated at all levels ({elapsed * 1e3:.2f} ms)")
    assert ok
    assert elapsed < 0.01


def test_02_adf_size_and_runtime():
    reps = 10_000
    start = time.perf_counter()
    rejections = sum(
        adf(random_walk(100, seed)).reject["5%"] for seed in range(reps)
    )
    elapsed = time.perf_counter() - start
    rate = rejections / reps
    ok = 0.04 <= rate <= 0.06 and elapsed <= 60.0
    report_line(2, ok, f"ADF 5% size {rate:.4f} over {reps} walks in {elapsed:.1f}s")
    assert 0.04 <= rate <= 0.06
    assert elapsed <= 60.0


def test_03_adf_power():
    reps = 1_000
    rejections = sum(
        adf(ar1(100, seed, 0.5)).reject["5%"] for seed in range(reps)
    )
    rate = rejections / reps
    ok = rate >= 0.95
    report_line(3, ok, f"ADF power {rate:.3f} on AR(1) rho=0.5")
    assert rate >= 0.95


def test_04_pp_adf_identity():
    worst = 0.0
    for seed in range(100):
        y = random_walk(100, seed)
        diff = abs(pp(y, bandwidth=0).statistic - adf(y, max_lag=0).statistic)
        worst = max(worst, diff)
    ok = worst < 1e-10
    report_line(4, ok, f"max |PP(bw=0) - DF t| = {worst:.2e} over 100 seeds")
    assert worst < 1e-10


def test_05_long_run_recovery():
    lrs, ects = [], []
    negative = 0
    for seed in range(200):
        frame = make_frame(ecm_system(500, 1_000 + seed, beta=(2.0,), alpha=-0.3))
        spec = ModelSpec("Y", ("X1",))
        ardl_spec = select_ardl_lags(frame, spec)
        fit = fit_conditional_ecm(frame, spec, ardl_spec)
        long_run = long_run_coefficients(fit)
        ecm = fit_ecm(frame, spec, fit, long_run)
        lrs.append(long_run["X1"][0])
        ects.append(ecm.ect[0])
        negative += ecm.ect[0] < 0
    mean_lr = float(np.mean(lrs))
    mean_ect = float(np.mean(ects))
    share_negative = negative / 200
    ok = (abs(mean_lr - 2.0) <= 0.1 and abs(mean_ect + 0.3) <= 0.1
          and share_negative >= 0.95)
    report_line(5, ok, f"mean LR {mean_lr:.4f}, mean ECT {mean_ect:.4f}, "
                       f"ECT<0 in {share_negative:.1%}")
    assert abs(mean_lr - 2.0) <= 0.1
    assert abs(mean_ect + 0.3) <= 0.1
    assert share_negative >= 0.95


def test_06_bounds_discrimination():
    def exceedance(frames):
        hits = 0
        for frame in frames:
            spec = ModelSpec("Y", ("X1",))
            ardl_spec = select_ardl_lags(frame, spec)
            fit = fit_conditional_ecm(frame, spec, ardl_spec)
            result = bounds_test(fit, table="pesaran")
            hits += result.f_stat > result.critical_bounds[0.05][1]
        return hits / len(frames)

    coint = exceedance([
        make_frame(ecm_system(500, 1_000 + seed, beta=(2.0,), alpha=-0.3))
        for seed in range(200)
    ])
    independent = exceedance([
        make_frame({"Y": random_walk(500, 3_000 + seed),
                    "X1": random_walk(500, 900_000 + seed)})
        for seed in range(200)
    ])
    ok = coint >= 0.90 and independent <= 0.15
    report_line(6, ok, f"upper-bound exceedance: cointegrated {coint:.2f}, "
                       f"independent {independent:.2f}")
    assert coint >= 0.90
    assert independent <= 0.15


def test_07_robustness_collapse_to_ols():
    frame, beta, const = orthogonalized_frame()
    spec = ModelSpec("Y", ("X1", "X2"))
    y = frame.column("Y")
    X = np.column_stack([frame.column("X1"), frame.column("X2"),
                         np.ones(frame.n)])
    theta = ols(y, X).coef
    worst = 0.0
    for est in (fmols(frame, spec, 0), dols(frame, spec, leads=0, lags=0),
                ccr(frame, spec, 0)):
        got = np.array([est.coef[n][0] for n in ("X1", "X2", "const")])
        worst = max(worst, float(np.max(np.abs(got - theta))))
    ok = worst < 1e-10
    report_line(7, ok, f"max |estimator - OLS| = {worst:.2e} on orthogonalized data")
    assert worst < 1e-10


def test_08_granger_oracle_and_size():
    worst = 0.0
    for seed in range(100):
        x = ar1(60 + (seed % 40), seed, 0.5)
        y = ar1(60 + (seed % 40), 5_000 + seed, 0.4)
        lag = 1 + seed % 3
        mine = granger_pair(x, y, lag).f_stat
        worst = max(worst, abs(mine - brute_force_f(x, y, lag)))

    reps = 2_000
    rejections = 0
    for seed in range(reps):
        x = ar1(100, 10_000_000 + seed, 0.5)
        y = ar1(100, 20_000_000 + seed, 0.5)
        rejections += granger_pair(x, y, 2).p < 0.05
    rate = rejections / reps
    ok = worst < 1e-8 and 0.035 <= rate <= 0.065
    report_line(8, ok, f"max |F - brute force| = {worst:.2e}; size {rate:.4f}")
    assert worst < 1e-8
    assert 0.035 <= rate <= 0.065


def test_09_diagnostics_closed_forms():
    jb_stat, _ = jarque_bera(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    jb_ok = abs(jb_stat - 0.35208) <= 1e-4

    X = np.column_stack([np.ones(80), ar1(80, 7, 0.3)])
    y = X @ np.array([1.0, 0.5]) + normals(8, 80)
    terminal = cusum_sq(y, X).values[-1]
    terminal_ok = terminal == 1.0

    base = cusum(y, X).values
    scaled = cusum(1_000.0 * y, X).values
    scale_gap = float(np.max(np.abs(base - scaled)))
    scale_ok = scale_gap < 1e-8

    ok = jb_ok and terminal_ok and scale_ok
    report_line(9, ok, f"JB {jb_stat:.5f}, CUSUM-SQ terminal {terminal!r}, "
                       f"CUSUM scale gap {scale_gap:.2e}")
    assert jb_ok and terminal_ok and scale_ok


def test_10_determinism_and_goldens(tmp_path):
    config = PipelineConfig(
        data_path=str(FIXTURE_CSV), dependent="Y",
        regressors=("X1", "X2", "X3", "X4", "X5"),
    )
    start = time.perf_counter()
    report = run_pipeline(config)
    outputs = {}
    for fmt in ("markdown", "csv", "json"):
        render(report, fmt, tmp_path / fmt)
        outputs[fmt] = tmp_path / fmt
    elapsed = time.perf_counter() - start

    mismatches = []
    for fmt, out_dir in outputs.items():
        golden_dir = GOLDEN_DIR / fmt
        names = sorted(p.name for p in golden_dir.iterdir())
        assert sorted(p.name for p in out_dir.iterdir()) == names
        for name in names:
            if (out_dir / name).read_bytes() != (golden_dir / name).read_bytes():
                mismatches.append(f"{fmt}/{name}")
    ok = not mismatches and elapsed <= 5.0
    report_line(10, ok, f"golden outputs byte-identical "
                        f"({sum(1 for _ in GOLDEN_DIR.rglob('*') if _.is_file())} files), "
                        f"pipeline {elapsed:.2f}s" + (f"; mismatches {mismatches}" if mismatches else ""))
    assert not mismatches, describe_golden_mismatches(mismatches, tmp_path)
    assert elapsed <= 5.0


def test_11_published_decision_fixtures():
    # Unit-root decision column: statistics as printed, constant case,
    # n = 33 annual observations
    cvs = critical_values("adf", "constant", 33)

    def report(var, stat):
        return UnitRootReport(var, "adf", "constant", 0, stat, cvs,
                              {k: stat < v for k, v in cvs.items()})

    lco2 = integration_order(report("LCO2", -0.644), report("LCO2", -4.647))
    lgdp = integration_order(report("LGDP", -0.740), report("LGDP", -4.739))
    lindus = integration_order(report("LINDUS", -4.981), report("LINDUS", -6.0))
    unit_ok = (lco2.order == "I1" and lgdp.order == "I1"
               and lindus.order == "I0"
               and report("LCO2", -4.647).stars() == "***")

    # Causality directionality from published p-values
    def causal(cause, effect, p):
        return CausalityReport(cause, effect, 2, 30, 1.0, p,
                               {0.01: p < 0.01, 0.05: p < 0.05, 0.10: p < 0.10})

    ai = classify_direction(causal("LAI", "LCO2", 0.0027),
                            causal("LCO2", "LAI", 0.7692))
    indus = classify_direction(causal("LINDUS", "LCO2", 0.0077),
                               causal("LCO2", "LINDUS", 0.0154))
    ren_reject = causal("LREN", "LCO2", 0.0072).reject_at[0.01]
    causal_ok = ai == "unidirectional" and indus == "bidirectional" and ren_reject

    # Diagnostic verdicts from published p-values
    diag_ok = (verdict(0.2078) == "pass" and verdict(0.5698) == "pass"
               and verdict(0.7830) == "pass")

    ok = unit_ok and causal_ok and diag_ok
    report_line(11, ok, f"decision fixtures: unit-root {unit_ok}, "
                        f"causality {causal_ok}, diagnostics {diag_ok}")
    assert unit_ok and causal_ok and diag_ok
