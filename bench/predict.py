"""Write bench/PREDICTIONS.md from the traced records of one seed.

    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/predict.py 1

For each module it lists the end-to-end metric and workload that a change
to that module should move, the workload where it should not move, and
the module's measured share of an op on every workload (its spans' self
time per op over the mean traced op time).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"
WORKLOADS = ("pipeline_k5", "mc_unitroot", "cli_cold_k2")

# (row label, metric prefixes summed for the share, should move, should stay unchanged on)
ROWS = (
    ("cli: run_pipeline, run_unit_roots; `cli.run_pipeline.calls`", ("cli.",),
     "cli_cold_k2 op_p50_ms (a stage graph cuts run_pipeline.calls per op)", "mc_unitroot"),
    ("frame: load_csv", ("frame.",),
     "cli_cold_k2 op_p50_ms", "mc_unitroot"),
    ("regression: ols, tail_probability, long_run_variance/covariance, info_criterion",
     ("regression.",),
     "pipeline_k5 op_p50_ms, ops_per_s; mc_unitroot ops_per_s", "cli_cold_k2"),
    ("unitroot: adf, pp, dfgls, gls_detrend; `unitroot.lstsq.calls`", ("unitroot.",),
     "mc_unitroot ops_per_s (reps/s), op_p50_ms", "pipeline_k5, cli_cold_k2"),
    ("ardl: select_ardl_lags (+ candidates), fit_conditional_ecm, bounds_test, "
     "long_run_coefficients, fit_ecm", ("ardl.",),
     "pipeline_k5 op_p50_ms, ops_per_s", "mc_unitroot, cli_cold_k2"),
    ("cointreg: fmols, dols, ccr", ("cointreg.",),
     "pipeline_k5 op_p50_ms (small share)", "mc_unitroot"),
    ("causality: causality_matrix, select_granger_lag, granger_pair", ("causality.",),
     "pipeline_k5 op_p50_ms", "mc_unitroot"),
    ("diagnostics: diagnostics_report, recursive_residuals, cusum, cusum_sq",
     ("diagnostics.",),
     "none beyond the bounds (recursive_residuals is about 1% of a pipeline_k5 op)",
     "all three"),
    ("synthetic: generate, mc_rejection_rate (+ failures)", ("synthetic.",),
     "mc_unitroot ops_per_s, op_p50_ms", "pipeline_k5, cli_cold_k2"),
    ("report: render (+ bytes_written, files_written)", ("report.",),
     "pipeline_k5 op_p50_ms", "mc_unitroot"),
    ("`setup.import.scipy_stats_ms`", ("setup.import.scipy_stats_ms",),
     "setup_s on every workload; cli_cold_k2 op_p50_ms", "op_p50_ms of pipeline_k5, mc_unitroot"),
)


def share(record: dict, prefixes) -> float:
    traced = record["traced"]
    mean_op_ms = traced["raw"]["timed_s"] * 1e3 / traced["raw"]["n"]
    total = 0.0
    for key, metric in record["metrics"].items():
        if key in prefixes or (key.startswith(prefixes) and key.endswith(".self_ms")):
            total += metric["value"]
    return total / mean_op_ms


def main(seed: str) -> None:
    records = {w: json.loads((OUT_DIR / f"{w}-seed{seed}-trace1.json").read_text())
               for w in WORKLOADS}
    env = records["pipeline_k5"]["environment"]
    lines = [
        "# Predictions: which end-to-end metric each module should move",
        "",
        f"Generated by `bench/predict.py` from the traced runs of seed {seed} "
        f"({env['seconds']:g} s each, half traced): {env['cpu_model']}, nproc {env['nproc']}, "
        f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
        "one BLAS thread.",
        "Share = the module's self time per op over the mean traced op time "
        "(for `setup.import.scipy_stats_ms`: that import time over the mean cli_cold_k2 op; "
        "the other workloads import once, outside their ops).",
        "",
        "| Module metrics | Should move | Share of an op: pipeline_k5 / mc_unitroot / cli_cold_k2 "
        "| Should stay unchanged on |",
        "|---|---|---|---|",
    ]
    for label, prefixes, moves, unchanged in ROWS:
        # in-process workloads import once, before their ops
        shares = " / ".join(
            "outside ops" if prefixes[0].startswith("setup.") and w != "cli_cold_k2"
            else f"{share(records[w], prefixes):.1%}" for w in WORKLOADS)
        lines.append(f"| {label} | {moves} | {shares} | {unchanged} |")
    counts = {w: records[w]["metrics"] for w in WORKLOADS}
    lines += [
        "",
        "Counts per op on this seed (pipeline_k5 / mc_unitroot / cli_cold_k2):",
        "",
    ]
    for key in ("regression.ols.calls", "unitroot.lstsq.calls", "ardl.select_ardl_lags.candidates",
                "cli.run_pipeline.calls", "report.render.files_written"):
        lines.append(f"- `{key}`: " + " / ".join(f"{counts[w][key]['value']:.4g}" for w in WORKLOADS))
    lines += ["", "Tracing overhead (traced minus untraced op_p50_ms): " + " / ".join(
        f"{counts[w]['trace.overhead_ms']['value']:.3g} ms" for w in WORKLOADS) + "."]
    (HERE / "PREDICTIONS.md").write_text("\n".join(lines) + "\n")
    print(f"wrote {HERE / 'PREDICTIONS.md'}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "1")
