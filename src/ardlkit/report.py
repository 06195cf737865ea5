"""Pipeline report assembly and rendering (Markdown, CSV, JSON, SVG).

Every table renders deterministically: same report, same bytes.  The
JSON form carries full-precision floats (Python repr) and is the
round-trip format; Markdown and CSV are presentation views with
significance stars (``regression.STARS``) and standard errors in
parentheses.

``report.json`` holds the bytes of ``json.dumps(doc, indent=2)``.
CPython's C encoder serves only ``indent=None``, and json's Python
encoder yields one chunk per item, so ``dumps_indented`` writes the
document in one pass of its own: one recursive walk passes each chunk
to the ``append`` of one list, which is joined once.  The walk is a
module-level function: a nested one that calls itself would form a
reference cycle, which keeps its chunks alive until the cyclic
collector runs.  Every scalar goes through the primitives json's
encoder uses:
``json.encoder.encode_basestring_ascii`` for strings and keys,
``float.__repr__`` with json's ``NaN``, ``Infinity`` and ``-Infinity``,
``int.__repr__``, and the literals ``true``, ``false`` and ``null``.
The walk dispatches on the exact type first and falls back to json's
``isinstance`` checks in json's order, so subclasses (a NamedTuple, a
dict subclass, ``IntEnum``, ``np.float64``) are written as json writes
them and any other type raises json's ``TypeError``.  A list of finite
floats is written by one ``join``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from collections.abc import Sequence
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
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


def bounds_rows(b: BoundsResult) -> tuple[list[str], list[list[str]]]:
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


def _scalar(value) -> str | None:
    """json's text for a scalar; None for a list, tuple or dict, and
    json's ``TypeError`` for any other type.  The checks run in json's
    order, so a bool is a literal and an ``IntEnum`` an integer."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = _REPR(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key as json writes it: str, int, float, bool and None keys
    as a JSON string, any other key a ``TypeError``."""
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return _string(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _write(obj, write, newline: str) -> None:
    """Pass to ``write`` the text of the list, tuple or dict ``obj``,
    whose closing bracket opens the line ``newline`` starts."""
    if not obj:
        write("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        head, closing = "{" + inner, newline + "}"
        items = [(f"{_string(key) if type(key) is str else _key(key)}: ", value)
                 for key, value in obj.items()]
    else:
        head, closing = "[" + inner, newline + "]"
        if type(obj[0]) is float:
            body = _floats(obj, sep)
            if body is not None:
                write(f"{head}{body}{closing}")
                return
        items = zip(repeat(""), obj)
    for label, value in items:
        cls = type(value)
        if cls is float:
            text = _REPR(value)
            if "n" in text:
                text = _NONFINITE[text]
        elif cls is str:
            text = _string(value)
        else:
            text = None if cls is dict or cls is list else _scalar(value)
            if text is None:
                write(head + label)
                _write(value, write, inner)
                head = sep
                continue
        write(f"{head}{label}{text}")
        head = sep
    write(closing)


def _floats(values, sep: str) -> str | None:
    """The items of a list of finite floats joined by ``sep``, or None
    when an item is no float (``float.__repr__`` raises ``TypeError``,
    for a bool too) or not finite (its repr holds an "n").  A float
    subclass such as ``np.float64`` is taken: json writes it with
    ``float.__repr__`` as well."""
    try:
        body = sep.join(map(_REPR, values))
    except TypeError:
        return None
    return None if "n" in body else body


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte; an unsupported type
    raises json's ``TypeError``."""
    text = _scalar(obj)
    if text is not None:
        return text
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


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
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


def _overwrite(path: Path, text: str) -> None:
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
    every format adds a CSV and an SVG per stability path.  An existing
    file is overwritten in place by ``_overwrite``, not replaced.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if fmt == "json":
        p = out_dir / "report.json"
        _overwrite(p, dumps_indented(report.to_dict()) + "\n")
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
            _overwrite(p, table_fn(header, rows))
            written.append(p)

    for path in report.stability:
        p = out_dir / f"{path.statistic}.csv"
        _overwrite(p, stability_csv(path))
        written.append(p)
        p = out_dir / f"{path.statistic}.svg"
        _overwrite(p, stability_svg(path))
        written.append(p)
    return written
