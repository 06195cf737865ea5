"""Spans around ardlkit's public functions, installed from outside the package.

``Tracer.install`` rebinds every ardlkit module global that refers to a
traced function (``ardl.ols``, ``unitroot.ols``, ``cli.render`` ...) to a
wrapper that records a span, and wraps ``numpy.linalg.lstsq`` under the
name ``unitroot.lstsq`` (only ``unitroot`` calls it).  ``uninstall``
puts the original objects back, so untraced runs execute unmodified code.

A span is ``[name, start_ns, end_ns, parent, child_ns, failed, extra]``:
``parent`` is the index of the enclosing span in the same op (``None``
for a span directly under the op) and ``child_ns`` the time covered by
its direct children, so self time is ``end - start - child_ns``.

Run as a script, it executes one ``ardlkit`` CLI invocation under the
tracer and writes that process's spans as JSON:

    python3 bench/tracer.py SPANS.json -- pipeline --config cfg.json --out out
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

TARGETS = {
    "cli": ("run_pipeline", "run_unit_roots"),
    "frame": ("load_csv",),
    "regression": ("ols", "tail_probability", "long_run_variance",
                   "long_run_covariance", "info_criterion"),
    "unitroot": ("adf", "pp", "dfgls", "gls_detrend"),
    "ardl": ("select_ardl_lags", "fit_conditional_ecm", "bounds_test",
             "long_run_coefficients", "fit_ecm"),
    "cointreg": ("fmols", "dols", "ccr"),
    "causality": ("causality_matrix", "select_granger_lag", "granger_pair"),
    "diagnostics": ("diagnostics_report", "recursive_residuals", "cusum", "cusum_sq"),
    "synthetic": ("generate", "mc_rejection_rate"),
    "report": ("render",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
LSTSQ = "unitroot.lstsq"
SEARCH = "ardl.select_ardl_lags"
OLS = "regression.ols"


def _render_extra(paths) -> dict:
    return {"files_written": len(paths),
            "bytes_written": sum(Path(p).stat().st_size for p in paths)}


def _mc_extra(result) -> dict:
    return {"failures": result.failures}


# Counts read from a traced function's return value, after its span closed.
EXTRAS = {"report.render": _render_extra, "synthetic.mc_rejection_rate": _mc_extra}


class Tracer:
    """Records spans for the current op; ``take`` hands them over and resets."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, clock(), 0, parent, 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][4] += span[2] - span[1]
            if extra is not None:
                span[6] = extra(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ardlkit" or n.startswith("ardlkit."))]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"ardlkit.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        self._patch(numpy.linalg, "lstsq", self._wrap(LSTSQ, numpy.linalg.lstsq))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> list[list]:
        """Spans recorded since the last call; only valid between ops."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        out = list(self.spans)
        self.spans.clear()
        return out


class SpanStats:
    """Per-name totals over many ops, plus the derived per-layer counts."""

    def __init__(self):
        self.ops = 0
        self.op_ns = 0
        self.root_ns = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.extra: dict[str, float] = {}

    def add_op(self, spans: list[list], op_ns: int) -> None:
        self.ops += 1
        self.op_ns += op_ns
        for name, start, end, parent, child_ns, failed, extra in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child_ns)
            self.failed[name] = self.failed.get(name, 0) + bool(failed)
            if parent is None:
                self.root_ns += end - start
            elif name == OLS and spans[parent][0] == SEARCH:
                self._bump(f"{SEARCH}.candidates", 1)
                self._bump(f"{SEARCH}.candidates_failed", bool(failed))
            for key, value in (extra or {}).items():
                self._bump(f"{name}.{key}", value)

    def _bump(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def coverage(self) -> float:
        """Share of op wall time covered by the spans directly under the op."""
        return self.root_ns / self.op_ns if self.op_ns else 0.0

    def per_op(self) -> dict[str, float]:
        n = max(self.ops, 1)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0) / n
            out[f"{name}.self_ms"] = self.self_ns.get(name, 0) / n / 1e6
            out[f"{name}.failed"] = self.failed.get(name, 0) / n
        out[f"{LSTSQ}.calls"] = self.calls.get(LSTSQ, 0) / n
        out[f"{LSTSQ}.self_ms"] = self.self_ns.get(LSTSQ, 0) / n / 1e6
        for key in (f"{SEARCH}.candidates", f"{SEARCH}.candidates_failed",
                    "synthetic.mc_rejection_rate.failures",
                    "report.render.bytes_written", "report.render.files_written"):
            out[key] = self.extra.get(key, 0) / n
        return out


def _run_cli(spans_path: str, argv: list[str]) -> int:
    from ardlkit import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.take()))


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <ardlkit arguments>")
    sys.exit(_run_cli(sys.argv[1], sys.argv[3:]))
