"""Pipeline report assembly and rendering (Markdown, CSV, JSON, SVG).

Every table renders deterministically: same report, same bytes.  The
JSON form carries full-precision floats (Python repr) and is the
round-trip format; Markdown and CSV are presentation views with
significance stars (*** 1%, ** 5%, * 10%) and standard errors in
parentheses.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ardl import BoundsResult, EcmResult
from .causality import CausalityReport, classify_direction
from .cointreg import CointEstimate
from .diagnostics import DiagnosticsReport, StabilityPath
from .regression import tail_probability
from .unitroot import IntegrationDecision, UnitRootReport

FORMATS = ("markdown", "csv", "json")


def stars(p: float) -> str:
    if math.isnan(p):
        return ""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


def _fmt(x: float, digits: int = 4) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.{digits}f}"


@dataclass
class PipelineReport:
    unit_root: list[tuple[str, dict[str, tuple[UnitRootReport, UnitRootReport]], str]] = field(default_factory=list)
    bounds: BoundsResult | None = None
    ecm: EcmResult | None = None
    ardl_spec: tuple[int, tuple[int, ...]] | None = None
    robustness: list[CointEstimate] = field(default_factory=list)
    robustness_warning: str | None = None
    causality: list[CausalityReport] = field(default_factory=list)
    diagnostics: DiagnosticsReport | None = None
    stability: list[StabilityPath] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.unit_root:
            out["unit_root"] = [
                {
                    "variable": var,
                    "tests": {
                        test: {
                            "level": _unit_report_dict(pair[0]),
                            "difference": _unit_report_dict(pair[1]),
                        }
                        for test, pair in tests.items()
                    },
                    "decision": decision,
                }
                for var, tests, decision in self.unit_root
            ]
        if self.bounds is not None:
            b = self.bounds
            out["bounds"] = {
                "f_stat": b.f_stat,
                "k": b.k,
                "critical_bounds": {str(lv): list(bd) for lv, bd in b.critical_bounds.items()},
                "decision": {str(lv): d for lv, d in b.decision.items()},
                "reference_p": b.reference_p,
            }
        if self.ecm is not None:
            e = self.ecm
            out["ardl"] = {
                "spec": {"p": self.ardl_spec[0], "q": list(self.ardl_spec[1])} if self.ardl_spec else None,
                "long_run": {k: list(v) for k, v in e.long_run.items()},
                "short_run": {k: list(v) for k, v in e.short_run.items()},
                "ect": list(e.ect),
                "intercept": list(e.intercept),
                "r2": e.r2,
                "convergence_warning": e.convergence_warning,
            }
        if self.robustness:
            out["robustness"] = {
                "warning": self.robustness_warning,
                "estimates": [
                    {
                        "method": est.method,
                        "coef": {k: list(v) for k, v in est.coef.items()},
                        "r2": est.r2,
                        "bandwidth_or_leads": est.bandwidth_or_leads,
                    }
                    for est in self.robustness
                ],
            }
        if self.causality:
            out["causality"] = [
                {
                    "cause": r.cause,
                    "effect": r.effect,
                    "lag": r.lag,
                    "nobs": r.nobs,
                    "f_stat": None if math.isnan(r.f_stat) else r.f_stat,
                    "p": None if math.isnan(r.p) else r.p,
                    "error": r.error,
                }
                for r in self.causality
            ]
        if self.diagnostics is not None:
            d = self.diagnostics
            out["diagnostics"] = {
                "jarque_bera": list(d.jb),
                "breusch_godfrey": list(d.lm),
                "breusch_pagan_godfrey": list(d.bpg),
                "verdicts": dict(d.verdicts),
                "level": d.level,
            }
        if self.stability:
            out["stability"] = [
                {
                    "statistic": p.statistic,
                    "t_index": list(p.t_index),
                    "values": [float(v) for v in p.values],
                    "lower": [float(v) for v in p.lower],
                    "upper": [float(v) for v in p.upper],
                    "stable": p.stable,
                }
                for p in self.stability
            ]
        return out


def _unit_report_dict(r: UnitRootReport) -> dict:
    return {
        "statistic": r.statistic,
        "lag_or_bandwidth": r.lag_or_bandwidth,
        "deterministic": r.deterministic,
        "critical_values": dict(r.critical_values),
        "reject": dict(r.reject),
    }


# ---------------------------------------------------------------- tables

def unit_root_rows(report: PipelineReport) -> tuple[list[str], list[list[str]]]:
    header = ["Variables", "ADF I(0)", "ADF I(1)", "P-P I(0)", "P-P I(1)",
              "DF-GLS I(0)", "DF-GLS I(1)", "Decision"]
    rows = []
    for var, tests, decision in report.unit_root:
        row = [var]
        for test in ("adf", "pp", "dfgls"):
            if test in tests:
                lvl, dif = tests[test]
                row.append(_fmt(lvl.statistic, 3) + lvl.stars())
                row.append(_fmt(dif.statistic, 3) + dif.stars())
            else:
                row.extend(["", ""])
        row.append({"I0": "I(0)", "I1": "I(1)"}.get(decision, decision))
        rows.append(row)
    return header, rows


def bounds_rows(b: BoundsResult) -> tuple[list[str], list[list[str]]]:
    header = ["", "", "", "", ""]
    rows = [
        ["Test Statistics", "Value", "K", "", ""],
        ["F statistics", _fmt(b.f_stat), str(b.k), "", ""],
        ["Significance level", "10%", "5%", "2.50%", "1%"],
    ]
    levels = (0.10, 0.05, 0.025, 0.01)
    rows.append(["I(0)"] + [_fmt(b.critical_bounds[lv][0], 2) for lv in levels])
    rows.append(["I(1)"] + [_fmt(b.critical_bounds[lv][1], 2) for lv in levels])
    rows.append(["Decision"] + [b.decision[lv] for lv in levels])
    return header, rows


def _coef_cell(coef: float, se: float) -> str:
    if se > 0:
        p = 2.0 * tail_probability("normal", abs(coef / se))
    else:
        p = 0.0
    return f"{_fmt(coef, 3)}{stars(p)}({_fmt(se, 4)})"


def ardl_rows(report: PipelineReport) -> tuple[list[str], list[list[str]]]:
    e = report.ecm
    header = ["VARIABLES", "LR", "SR"]
    rows = []
    for name, (c, s) in e.long_run.items():
        rows.append([name, _coef_cell(c, s), ""])
    for name, (c, s) in e.short_run.items():
        rows.append([name, "", _coef_cell(c, s)])
    rows.append(["ECT (Speed Adjustment)", "", _coef_cell(*e.ect)])
    rows.append(["Constant", "", _coef_cell(*e.intercept)])
    rows.append(["R-square", _fmt(e.r2), ""])
    return header, rows


def robustness_rows(report: PipelineReport) -> tuple[list[str], list[list[str]]]:
    order = {est.method: est for est in report.robustness}
    methods = [m for m in ("fmols", "dols", "ccr") if m in order]
    header = ["Variables"] + [m.upper() for m in methods]
    names: list[str] = []
    for est in order.values():
        for name in est.coef:
            if name not in names:
                names.append(name)
    rows = []
    for name in names:
        label = "C" if name == "const" else name
        row = [label]
        for m in methods:
            entry = order[m].coef.get(name)
            row.append(_coef_cell(entry[0], entry[1]) if entry else "")
        rows.append(row)
    rows.append(["R-squared"] + [_fmt(order[m].r2) for m in methods])
    return header, rows


def causality_rows(report: PipelineReport) -> tuple[list[str], list[list[str]]]:
    header = ["Null Hypothesis", "Obs", "F-Statistic", "Prob."]
    rows = []
    for r in report.causality:
        label = f"{r.cause} does not Granger-cause {r.effect}"
        if r.error:
            rows.append([label, "", "", f"error: {r.error}"])
        else:
            rows.append([label, str(r.nobs), _fmt(r.f_stat, 5), _fmt(r.p, 4)])
    return header, rows


def causality_directions(report: PipelineReport, level: float = 0.05) -> list[tuple[str, str, str]]:
    pairs = []
    for fwd, bwd in zip(report.causality[::2], report.causality[1::2]):
        pairs.append((fwd.cause, fwd.effect, classify_direction(fwd, bwd, level)))
    return pairs


def diagnostics_rows(report: PipelineReport) -> tuple[list[str], list[list[str]]]:
    d = report.diagnostics
    header = ["Diagnostic tests", "Coefficient", "p-value", "Verdict"]
    rows = [
        ["Normality test", _fmt(d.jb[0], 5), _fmt(d.jb[1], 4), d.verdicts["normality"]],
        ["Serial Correlation test", _fmt(d.lm[0], 5), _fmt(d.lm[1], 4),
         d.verdicts["serial_correlation"]],
        ["Heterocedasticity test", _fmt(d.bpg[0], 5), _fmt(d.bpg[1], 4),
         d.verdicts["heteroscedasticity"]],
    ]
    return header, rows


# ------------------------------------------------------------- rendering

def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    width = len(header)
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join(["---"] * width) + "|"]
    for row in rows:
        padded = row + [""] * (width - len(row))
        out.append("| " + " | ".join(padded) + " |")
    return "\n".join(out) + "\n"


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def stability_csv(path: StabilityPath) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "value", "lower", "upper"])
    for t, v, lo, hi in zip(path.t_index, path.values, path.lower, path.upper):
        writer.writerow([t, repr(float(v)), repr(float(lo)), repr(float(hi))])
    return buf.getvalue()


def stability_svg(path: StabilityPath, width: int = 640, height: int = 400) -> str:
    """Hand-assembled SVG: statistic path plus the two critical bounds."""
    xs = np.asarray(path.t_index, dtype=float)
    all_y = np.concatenate([path.values, path.lower, path.upper])
    y_min, y_max = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min -= pad
    y_max += pad
    margin = 40.0

    def sx(x: float) -> float:
        if xs[-1] == xs[0]:
            return margin
        return margin + (x - xs[0]) / (xs[-1] - xs[0]) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_min) / (y_max - y_min) * (height - 2 * margin)

    def polyline(values, color: str, dash: str = "") -> str:
        pts = " ".join(f"{sx(x):.2f},{sy(float(v)):.2f}" for x, v in zip(xs, values))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{extra} points="{pts}"/>')

    title = "CUSUM" if path.statistic == "cusum" else "CUSUM of squares"
    verdict = "stable" if path.stable else "unstable"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="20" font-family="sans-serif" font-size="14">'
        f"{title} ({verdict})</text>",
        polyline(path.upper, "#cc0000", dash="6 3"),
        polyline(path.lower, "#cc0000", dash="6 3"),
        polyline(path.values, "#1f4e9c"),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render(report: PipelineReport, fmt: str, output_dir) -> list[Path]:
    """Write one file per table plus one CSV + SVG per stability path."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if fmt == "json":
        p = out_dir / "report.json"
        p.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        written.append(p)
    else:
        ext = "md" if fmt == "markdown" else "csv"
        table_fn = _markdown_table if fmt == "markdown" else _csv_table
        sections: list[tuple[str, tuple[list[str], list[list[str]]]]] = []
        if report.unit_root:
            sections.append(("unit_root", unit_root_rows(report)))
        if report.bounds is not None:
            sections.append(("bounds", bounds_rows(report.bounds)))
        if report.ecm is not None:
            sections.append(("ardl", ardl_rows(report)))
        if report.robustness:
            header, rows = robustness_rows(report)
            if report.robustness_warning:
                rows.insert(0, [f"WARNING: {report.robustness_warning}"])
            sections.append(("robustness", (header, rows)))
        if report.causality:
            sections.append(("causality", causality_rows(report)))
        if report.diagnostics is not None:
            sections.append(("diagnostics", diagnostics_rows(report)))
        for name, (header, rows) in sections:
            p = out_dir / f"{name}.{ext}"
            p.write_text(table_fn(header, rows))
            written.append(p)

    for path in report.stability:
        p = out_dir / f"{path.statistic}.csv"
        p.write_text(stability_csv(path))
        written.append(p)
        p = out_dir / f"{path.statistic}.svg"
        p.write_text(stability_svg(path))
        written.append(p)
    return written
