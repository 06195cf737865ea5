"""Command-line interface.

Subcommands: unitroot, bounds, ardl, robust, granger, diag, mc, and
pipeline.  Each runs standalone on a CSV in the frame schema
(``year,<name>,...``).  Exit codes: 1 usage, 2 data, 3 numerical,
4 failed modelling precondition (e.g. possible I(2)).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import ardl as ardl_mod
from . import causality as causality_mod
from . import cointreg, diagnostics, synthetic, unitroot
from .errors import (ArdlkitError, DataError, InvalidParams, NotText, PreconditionError,
                     UnknownVariable)
from .frame import ModelSpec, TimeSeriesFrame, load_csv, natural_log
from .regression import CRITERIA, STARS, resolve_bandwidth
from .report import FORMATS, PipelineReport, csv_table, overwrite, render

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4

DETERMINISTICS = ("constant", "constant_trend")
LEVELS = tuple(sorted(ardl_mod.BOUNDS_LEVELS))


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    data_path: str
    dependent: str
    regressors: tuple[str, ...]
    log_transform: bool = False
    max_p: int = 2
    max_q: int = 2
    criterion: str = "aic"
    deterministic: str = "constant"
    level: float = 0.05
    granger_lag: int | str = "auto"
    bandwidth: int | str = "auto"
    dols_leads: int = 1
    dols_lags: int = 1
    bg_order: int = 2
    bounds_table: str = "embedded"
    output_dir: str = "out"
    format: str = "markdown"

    def __post_init__(self):
        for name, kind in (("data_path", str), ("output_dir", str), ("log_transform", bool)):
            if type(getattr(self, name)) is not kind:
                raise UsageError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        try:
            object.__setattr__(self, "regressors", self.model_spec().regressors)
            resolve_bandwidth(self.bandwidth, 0)  # raises ValueError on a bad bandwidth
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        real = isinstance(self.level, (int, float))
        level = next((lv for lv in LEVELS if real and math.isclose(self.level, lv)), None)
        if level is None:
            raise UsageError(f"level must be one of {LEVELS}, got {self.level!r}")
        object.__setattr__(self, "level", level)  # lookups keyed by level match exactly
        lag = self.granger_lag
        if lag != "auto" and (type(lag) is not int or lag < 1):
            raise UsageError(f"granger_lag must be 'auto' or a positive integer, got {lag!r}")
        for name, least in (("dols_leads", 0), ("dols_lags", 0), ("bg_order", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise UsageError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, allowed in (("criterion", CRITERIA), ("deterministic", DETERMINISTICS),
                              ("bounds_table", ardl_mod.BOUNDS_TABLES), ("format", FORMATS)):
            if getattr(self, name) not in allowed:
                raise UsageError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise UsageError("the config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        missing = {"data_path", "dependent", "regressors"} - set(raw)
        if missing:
            raise UsageError(f"missing config keys: {', '.join(sorted(missing))}")
        return cls(**raw)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.dependent, self.regressors, self.max_p, self.max_q)


class StageError(ArdlkitError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, less a leading byte-order
    mark; ``NotText`` if it does not decode.  An ``OSError`` (no such
    file, a directory) propagates."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise NotText(path, exc) from None


def _load_frame(text: str, config: PipelineConfig) -> tuple[TimeSeriesFrame, ModelSpec]:
    frame = load_csv(text)
    spec = config.model_spec()
    if config.log_transform:
        frame = natural_log(frame, (spec.dependent, *spec.regressors))
        spec = replace(spec, dependent=f"L{spec.dependent}",
                       regressors=tuple(f"L{r}" for r in spec.regressors))
    spec.validate_against(frame)
    return frame, spec


def _stage(name):
    def wrap(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArdlkitError as exc:
            raise StageError(name, exc) from exc
    return wrap


def run_unit_roots(frame: TimeSeriesFrame, names, deterministic: str,
                   bandwidth: int | str, level: float):
    """ADF, PP and DF-GLS on the level and the first difference of each
    named variable, with the integration order the ADF pair gives at
    ``level``.  A variable that neither ADF test rejects raises
    ``PossibleI2``.

    Each test runs as one ``unitroot.unit_root_block`` call per series
    length, on the stacked levels and on the stacked differences: six
    calls in all.  The first failure raises in the order of one variable
    at a time: its own tests (ADF, PP, DF-GLS, level before difference),
    then its ``PossibleI2``, then the next variable.
    """
    columns, missing = [], None
    for var in names:
        try:
            columns.append(frame.column(var))
        except UnknownVariable as exc:
            missing = exc
            break
    levels = np.array(columns).reshape(len(columns), frame.n)
    options = {"adf": {}, "pp": {"bandwidth": bandwidth}, "dfgls": {}}
    outcomes = {test: [unitroot.unit_root_block(test, block, deterministic, **options[test])
                       for block in (levels, np.diff(levels, axis=1))]
                for test in unitroot.TESTS}
    rows = []
    for v, var in enumerate(names[:len(columns)]):
        tests = {}
        for test, blocks in outcomes.items():
            pair = [block[v] for block in blocks]
            for outcome in pair:
                if isinstance(outcome, ArdlkitError):
                    raise outcome
            tests[test] = tuple(outcome._replace(variable=var) for outcome in pair)
        decision = unitroot.integration_order(*tests["adf"], level=level)
        rows.append((var, tests, decision.order))
    if missing is not None:
        raise missing
    return rows


SECTIONS = ("unit_root", "bounds", "ecm", "robustness", "causality", "diagnostics",
            "stability")


def run_pipeline(config: PipelineConfig, sections=SECTIONS) -> PipelineReport:
    """Produce the report ``sections``, running only the stages they read.

    Stages in order: unit roots, ARDL (lag search, conditional ECM,
    bounds test, ECM), robustness, causality, diagnostics.  The unit
    roots always run, so a possible-I(2) variable aborts every section.
    "Not cointegrated" only downgrades the robustness section to a
    warning, which is why robustness runs the bounds test.
    """
    wanted = set(sections)
    if not wanted <= set(SECTIONS):
        raise ValueError(f"unknown report sections: {sorted(wanted - set(SECTIONS))}")
    reads_fit = bool(wanted - {"unit_root", "causality"})
    reads_bounds = bool(wanted & {"bounds", "robustness"})
    # read outside the load stage: a file error is a plain ``error:``, as for unitroot
    frame, spec = _stage("load")(_load_frame, _read_text(config.data_path), config)
    # the unit-root and CUSUM tables have no 2.5% column: they use 5% there
    table_level = config.level if config.level in STARS else 0.05

    unit_root = _stage("unit_root")(run_unit_roots, frame, (spec.dependent, *spec.regressors),
                                    config.deterministic, config.bandwidth, table_level)

    ardl = _stage("ardl")
    bounds = ecm = None
    if reads_fit:
        ardl_spec = ardl(ardl_mod.select_ardl_lags, frame, spec, config.criterion)
        fit = ardl(ardl_mod.fit_conditional_ecm, frame, spec, ardl_spec)
    if reads_bounds:
        bounds = ardl(ardl_mod.bounds_test, fit, config.bounds_table)
    if "ecm" in wanted:
        long_run = ardl(ardl_mod.long_run_coefficients, fit)
        ecm = ardl(ardl_mod.fit_ecm, frame, spec, fit, long_run)

    robustness, warning = (), None
    if "robustness" in wanted:
        robustness = _stage("robustness")(_robustness, frame, spec, config)
        if bounds.decision.get(config.level) != "cointegrated":
            warning = (
                f"bounds test did not find cointegration at the {config.level * 100:g}% level; "
                "FMOLS/DOLS/CCR estimates assume a cointegrating relation"
            )

    causality = ()
    if "causality" in wanted:
        causality = _stage("causality")(
            causality_mod.causality_matrix, frame, spec.regressors, spec.dependent,
            config.granger_lag,
        )

    diagnostics_report, stability = None, ()
    if "diagnostics" in wanted:
        diagnostics_report = _stage("diagnostics")(
            diagnostics.diagnostics_report, fit.regression, fit.design, config.bg_order,
            config.level,
        )
    if "stability" in wanted:
        stability = _stage("diagnostics")(_stability, fit, table_level)
    return PipelineReport(
        unit_root=unit_root if "unit_root" in wanted else (),
        bounds=bounds if "bounds" in wanted else None,
        ecm=ecm,
        robustness=robustness,
        robustness_warning=warning,
        causality=causality,
        diagnostics=diagnostics_report,
        stability=stability,
    )


def _robustness(frame: TimeSeriesFrame, spec: ModelSpec, config: PipelineConfig):
    return [
        cointreg.fmols(frame, spec, config.bandwidth),
        cointreg.dols(frame, spec, config.dols_leads, config.dols_lags, config.bandwidth),
        cointreg.ccr(frame, spec, config.bandwidth),
    ]


def _stability(fit, level: float):
    w = diagnostics.recursive_residuals(fit.lhs, fit.design)
    k = fit.design.shape[1]
    return [diagnostics.cusum_path(w, k, level), diagnostics.cusum_sq_path(w, k, level)]


# ----------------------------------------------------------------- argparse

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _auto_or_count(text: str) -> int | str:
    """argparse type: "auto" or a non-negative integer."""
    return text if text == "auto" else _count(text)


def _names(text: str) -> tuple[str, ...]:
    """argparse type: a comma-separated list of at least one name."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one name, got {text!r}")
    return names


def _add_model_flags(p: argparse.ArgumentParser):
    """Flags that set the ``PipelineConfig`` fields they are named after.
    The parser is made with ``argument_default=argparse.SUPPRESS``, so a
    flag left out leaves its field's default to ``PipelineConfig``."""
    p.add_argument("--data", dest="data_path", metavar="DATA", required=True,
                   help="input CSV (year,<name>,...)")
    p.add_argument("--dependent", required=True)
    p.add_argument("--regressors", type=_names, required=True,
                   help="comma-separated regressor names")
    p.add_argument("--log-transform", action="store_true")
    p.add_argument("--max-p", type=int)
    p.add_argument("--max-q", type=int)
    p.add_argument("--criterion", choices=CRITERIA)
    p.add_argument("--deterministic", choices=DETERMINISTICS)
    p.add_argument("--level", type=float)
    p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p.add_argument("--format", choices=FORMATS)


def _add_bounds_table_flag(p: argparse.ArgumentParser):
    p.add_argument("--bounds-table", choices=ardl_mod.BOUNDS_TABLES)


def _config_from_args(args) -> PipelineConfig:
    if args.command == "pipeline":
        try:
            raw = json.loads(_read_text(args.config))
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON config: {exc}") from exc
        config = PipelineConfig.from_dict(raw)
        return replace(config, output_dir=args.out or config.output_dir,
                       format=args.format or config.format)
    return PipelineConfig(**{name: value for name, value in vars(args).items()
                             if name != "command"})


def build_parser() -> _Parser:
    parser = _Parser(prog="ardlkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unitroot", help="ADF / PP / DF-GLS on every variable")
    p.add_argument("--data", required=True)
    p.add_argument("--vars", type=_names, default=None, help="comma-separated subset")
    p.add_argument("--deterministic", choices=DETERMINISTICS, default="constant")
    p.add_argument("--level", type=float, choices=tuple(STARS), default=0.05)
    p.add_argument("--bandwidth", type=_auto_or_count, default="auto")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", choices=FORMATS, default="markdown")

    for name in ("bounds", "ardl", "diag"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        _add_model_flags(p)
        if name != "diag":
            _add_bounds_table_flag(p)

    p = sub.add_parser("robust", help="FMOLS / DOLS / CCR", argument_default=argparse.SUPPRESS)
    _add_model_flags(p)
    _add_bounds_table_flag(p)
    p.add_argument("--bandwidth", type=_auto_or_count)
    p.add_argument("--dols-leads", type=_count)
    p.add_argument("--dols-lags", type=_count)

    p = sub.add_parser("granger", help="pairwise Granger causality",
                       argument_default=argparse.SUPPRESS)
    _add_model_flags(p)
    p.add_argument("--granger-lag", type=_auto_or_count)

    p = sub.add_parser("mc", help="Monte-Carlo rejection rates")
    p.add_argument("--test", choices=("adf", "pp", "dfgls", "granger"), required=True)
    p.add_argument("--dgp", choices=tuple(synthetic.GENERATORS), default="random_walk")
    p.add_argument("--T", type=int, default=100)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--rho", type=float, help="ar1 only")
    p.add_argument("--drift", type=float, help="random_walk only")
    p.add_argument("--out", default="out")

    p = sub.add_parser("pipeline", help="full analysis from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--format", choices=FORMATS, default=None)
    return parser


def _mc_test(args):
    """The (frame, level, seed) -> (statistic, reject) test of ``mc``."""
    if args.test == "granger":
        if not 0 < args.level < 1:
            raise UsageError(f"--level must be in (0, 1), got {args.level}")

        def run_granger(frame, level, seed):
            # independent AR(1) cause series from a disjoint seed range
            x = synthetic.ar1(frame.n, seed + 500_000_000, 0.5)
            rep = causality_mod.granger_pair(x, frame.column("Y"), 1)
            return rep.f_stat, rep.p < level
        return run_granger

    key = unitroot.LEVEL_KEYS.get(args.level)
    if key is None:
        raise UsageError(f"{args.test} has critical values at levels {tuple(STARS)} only, "
                         f"got --level {args.level}")
    shortest = unitroot.minimum_length(args.test)
    if args.T < shortest:  # every replication would fail
        raise UsageError(f"{args.test} needs --T >= {shortest}, got {args.T}")

    def run_unit_root(frame, level, seed):
        rep = getattr(unitroot, args.test)(frame.column("Y"))
        return rep.statistic, rep.reject[key]
    return run_unit_root


def _cmd_mc(args) -> int:
    params = {name: getattr(args, name) for name in ("rho", "drift")
              if getattr(args, name) is not None}
    try:
        dgp = synthetic.Dgp(args.dgp, args.T, args.seed, params)
        synthetic.check_reps(args.reps)
    except InvalidParams as exc:
        raise UsageError(str(exc)) from None
    result = synthetic.mc_rejection_rate(_mc_test(args), dgp, args.reps, args.level)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "mc.csv"
    rows = [[rep, repr(stat), int(reject)] for rep, stat, reject in result.rows]
    overwrite(out_path, csv_table(["replication", "statistic", "reject"], rows))
    print(f"rejection rate at {args.level * 100:g}%: {result.rate:.4f} "
          f"({result.reps} reps, {result.failures} failures)")
    print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "mc":
            return _cmd_mc(args)
        if args.command == "unitroot":
            if args.vars and len(set(args.vars)) < len(args.vars):
                raise UsageError(f"--vars must name each variable once, got {','.join(args.vars)}")
            frame = _stage("load")(load_csv, _read_text(args.data))
            report = PipelineReport(unit_root=_stage("unit_root")(
                run_unit_roots, frame, args.vars or frame.names, args.deterministic,
                args.bandwidth, args.level))
            fmt, out = args.format, args.out
        else:
            config = _config_from_args(args)
            report = run_pipeline(config, {
                "bounds": ("bounds",),
                "ardl": ("bounds", "ecm"),
                "robust": ("bounds", "robustness"),
                "granger": ("causality",),
                "diag": ("diagnostics", "stability"),
                "pipeline": SECTIONS,
            }[args.command])
            fmt, out = config.format, config.output_dir
        for p in render(report, fmt, out):
            print(f"wrote {p}")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        code = _exit_code(exc.cause)
        print(f"error in {exc.stage}: {exc.cause}", file=sys.stderr)
        return code
    except ArdlkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:  # an input that cannot be read, or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    if isinstance(exc, DataError):
        return EXIT_DATA
    return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
