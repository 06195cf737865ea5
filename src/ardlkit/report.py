"""Pipeline report assembly and rendering (Markdown, CSV, JSON, SVG).

Every table renders deterministically: same report, same bytes.  The
JSON form carries full-precision floats (Python repr) and is the
round-trip format; Markdown and CSV are presentation views with
significance stars (``regression.STARS``) and standard errors in
parentheses.

``report.json`` holds the bytes of ``json.dumps(doc, indent=2)`` for the
document ``PipelineReport.to_dict`` builds.  The writer takes only that
document's types: an exact dict with str keys, an exact list, an exact
str, float, int or bool, and None; any other type or key (a tuple, a
NamedTuple, a dict subclass, ``IntEnum``, ``np.float64``) raises
``TypeError``.  CPython's C encoder serves only ``indent=None``, and
json's Python encoder yields one chunk per item, so ``dumps_indented``
walks the document once, passing each chunk to the ``append`` of one
list, which is joined once.  The walk is a module-level function: a
nested one that calls itself would form a reference cycle, which keeps
its chunks alive until the cyclic collector runs.  Scalars go through
json's own primitives (``encode_basestring_ascii``, ``float.__repr__``
with ``NaN``, ``Infinity`` and ``-Infinity``, ``int.__repr__``), and a
list of finite floats is written by one ``join``.  Every file ardlkit
writes, ``mc.csv`` too, goes through ``overwrite``; ``csv_table``
formats the CSV tables and ``mc.csv``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _string
from operator import countOf
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ardl import BOUNDS_LEVELS, BoundsResult, EcmResult
from .causality import CausalityReport
from .cointreg import CointEstimate
from .diagnostics import DiagnosticsReport, StabilityPath
from .regression import normal_test, stars
from .unitroot import UnitRootReport

FORMATS = ("markdown", "csv", "json")


def _fmt(x: float, digits: int = 4) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.{digits}f}"


class PipelineReport(NamedTuple):
    unit_root: Sequence[tuple[str, dict[str, tuple[UnitRootReport, UnitRootReport]], str]] = ()
    bounds: BoundsResult | None = None
    ecm: EcmResult | None = None
    robustness: Sequence[CointEstimate] = ()
    robustness_warning: str | None = None
    causality: Sequence[CausalityReport] = ()
    diagnostics: DiagnosticsReport | None = None
    stability: Sequence[StabilityPath] = ()

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
                "spec": {"p": e.spec.p, "q": list(e.spec.q)},
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
                    "values": p.values.tolist(),
                    "lower": p.lower.tolist(),
                    "upper": p.upper.tolist(),
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


def bounds_rows(report: PipelineReport) -> tuple[list[str], list[list[str]]]:
    b = report.bounds
    header = ["", "", "", "", ""]
    rows = [
        ["Test Statistics", "Value", "K", "", ""],
        ["F statistics", _fmt(b.f_stat), str(b.k), "", ""],
        ["Significance level", "10%", "5%", "2.50%", "1%"],
    ]
    rows.append(["I(0)"] + [_fmt(b.critical_bounds[lv][0], 2) for lv in BOUNDS_LEVELS])
    rows.append(["I(1)"] + [_fmt(b.critical_bounds[lv][1], 2) for lv in BOUNDS_LEVELS])
    rows.append(["Decision"] + [b.decision[lv] for lv in BOUNDS_LEVELS])
    return header, rows


def _coef_cell(coef: float, se: float) -> str:
    return f"{_fmt(coef, 3)}{stars(normal_test(coef, se)[1])}({_fmt(se, 4)})"


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
    if report.robustness_warning:
        rows.insert(0, [f"WARNING: {report.robustness_warning}"])
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

_REPR = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value) -> str:
    """json's text for an exact str, float, int or bool, or None;
    ``TypeError`` for any other type."""
    cls = type(value)
    if cls is float:
        text = _REPR(value)
        return _NONFINITE[text] if "n" in text else text
    if cls is str:
        return _string(value)
    if cls is int:
        return int.__repr__(value)
    if cls is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"report.json holds no {cls.__name__}")


def _write(obj, write, newline: str) -> None:
    """Pass to ``write`` the text of the exact dict or list ``obj``, whose
    closing bracket opens the line ``newline`` starts."""
    is_dict = type(obj) is dict
    if not obj:
        write("{}" if is_dict else "[]")
        return
    inner = newline + "  "
    sep = "," + inner
    if is_dict:
        head, closing = "{" + inner, newline + "}"
    else:
        head, closing = "[" + inner, newline + "]"
        if type(obj[0]) is float:
            body = _floats(obj, sep)
            if body is not None:
                write(f"{head}{body}{closing}")
                return
    for key, value in obj.items() if is_dict else enumerate(obj):
        if is_dict:
            if type(key) is not str:
                raise TypeError(f"report.json keys are str, not {type(key).__name__}")
            head = f"{head}{_string(key)}: "
        cls = type(value)
        if cls is dict or cls is list:
            write(head)
            _write(value, write, inner)
        else:
            write(head + _scalar(value))
        head = sep
    write(closing)


def _floats(values: list, sep: str) -> str | None:
    """The items of a list of exact finite floats joined by ``sep``, or
    None when an item is no float (``float.__repr__`` raises
    ``TypeError``, for an int too), a float subclass, or not finite (its
    repr holds an "n")."""
    try:
        body = sep.join(map(_REPR, values))
    except TypeError:
        return None
    return None if "n" in body or countOf(map(type, values), float) < len(values) else body


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for a document of
    report.json's types; any other type or key raises ``TypeError``."""
    cls = type(obj)
    if cls is not dict and cls is not list:
        return _scalar(obj)
    out: list[str] = []
    _write(obj, out.append, "\n")
    return "".join(out)


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    width = len(header)
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join(["---"] * width) + "|"]
    for row in rows:
        padded = row + [""] * (width - len(row))
        out.append("| " + " | ".join(padded) + " |")
    return "\n".join(out) + "\n"


def csv_table(header: list[str], rows: list[list]) -> str:
    """The header and rows as CSV lines ended by "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def stability_csv(path: StabilityPath) -> str:
    # a float repr holds no character the csv module would quote
    rows = zip(path.t_index, path.values.tolist(), path.lower.tolist(), path.upper.tolist())
    return "t,value,lower,upper\n" + "".join(
        f"{t},{v!r},{lo!r},{hi!r}\n" for t, v, lo, hi in rows)


def stability_svg(path: StabilityPath, width: int = 640, height: int = 400) -> str:
    """Hand-assembled SVG: statistic path plus the two critical bounds."""
    xs = np.asarray(path.t_index, dtype=float)
    all_y = np.concatenate([path.values, path.lower, path.upper])
    y_min, y_max = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min -= pad
    y_max += pad
    margin = 40.0
    if xs[-1] == xs[0]:
        px = np.full(xs.shape, margin)
    else:
        px = margin + (xs - xs[0]) / (xs[-1] - xs[0]) * (width - 2 * margin)
    px = px.tolist()

    def polyline(values, color: str, dash: str = "") -> str:
        ys = np.asarray(values, dtype=float)
        py = (height - margin) - (ys - y_min) / (y_max - y_min) * (height - 2 * margin)
        pts = " ".join(map("{:.2f},{:.2f}".format, px, py.tolist()))
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


def overwrite(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` does, in place.

    The file is opened without ``O_TRUNC``: truncating a file that holds
    data frees its blocks, which costs more than the write that fills
    them again.  A regular file that was longer than the text is cut at
    the text's end; a device such as ``/dev/null`` is only written.  A
    new file gets ``write_text``'s mode, 0o666 less the umask, and an
    existing one keeps its inode and mode.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        old = os.fstat(fd)
        fh.write(text)
        if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():
            fh.truncate()


def render(report: PipelineReport, fmt: str, output_dir) -> list[Path]:
    """Write the report's tables into ``output_dir`` and return their paths.

    Markdown and CSV give one file per table, JSON one ``report.json``;
    every format adds a CSV and an SVG per stability path.  Once every
    text is built, each file is written by ``overwrite``, in place.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        files = [("report.json", dumps_indented(report.to_dict()) + "\n")]
    else:
        ext, table = ("md", _markdown_table) if fmt == "markdown" else ("csv", csv_table)
        sections = (("unit_root", report.unit_root, unit_root_rows),
                    ("bounds", report.bounds is not None, bounds_rows),
                    ("ardl", report.ecm is not None, ardl_rows),
                    ("robustness", report.robustness, robustness_rows),
                    ("causality", report.causality, causality_rows),
                    ("diagnostics", report.diagnostics is not None, diagnostics_rows))
        files = [(f"{name}.{ext}", table(*rows_of(report))) for name, present, rows_of in sections
                 if present]
    for path in report.stability:
        files += [(f"{path.statistic}.csv", stability_csv(path)),
                  (f"{path.statistic}.svg", stability_svg(path))]
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / name for name, _ in files]
    for p, (_, text) in zip(written, files):
        overwrite(p, text)
    return written
