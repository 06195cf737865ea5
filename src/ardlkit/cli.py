"""Command-line interface.

Subcommands: unitroot, bounds, ardl, robust, granger, diag, mc, and
pipeline.  Each runs standalone on a CSV in the frame schema
(``year,<name>,...``).  Exit codes: 1 usage, 2 data, 3 numerical,
4 failed modelling precondition (e.g. possible I(2)).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import ardl as ardl_mod
from . import causality as causality_mod
from . import cointreg, diagnostics, synthetic, unitroot
from .errors import ArdlkitError, DataError, NumericalError, PreconditionError
from .frame import DETERMINISTICS, ModelSpec, TimeSeriesFrame, load_csv, natural_log
from .regression import CRITERIA, KernelSpec
from .report import FORMATS, PipelineReport, render

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4


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
        try:
            self.model_spec()
            KernelSpec(bandwidth=self.bandwidth)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        lag = self.granger_lag
        if lag != "auto" and (type(lag) is not int or lag < 1):
            raise UsageError(f"granger_lag must be 'auto' or a positive integer, got {lag!r}")
        for name in ("dols_leads", "dols_lags"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise UsageError(f"{name} must be a non-negative integer, got {value!r}")
        for name, allowed in (("criterion", CRITERIA), ("bounds_table", ardl_mod.BOUNDS_TABLES),
                              ("format", FORMATS)):
            if getattr(self, name) not in allowed:
                raise UsageError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        missing = {"data_path", "dependent", "regressors"} - set(raw)
        if missing:
            raise UsageError(f"missing config keys: {', '.join(sorted(missing))}")
        raw = dict(raw)
        raw["regressors"] = tuple(raw["regressors"])
        return cls(**raw)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.dependent, self.regressors, self.max_p, self.max_q,
                         self.deterministic, self.level)


class StageError(ArdlkitError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _load_frame(config: PipelineConfig) -> tuple[TimeSeriesFrame, ModelSpec]:
    text = Path(config.data_path).read_text()
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
    ``PossibleI2``."""
    runs = (("adf", lambda s: unitroot.adf(s, deterministic)),
            ("pp", lambda s: unitroot.pp(s, deterministic, bandwidth)),
            ("dfgls", lambda s: unitroot.dfgls(s, deterministic)))
    rows = []
    for var in names:
        series = frame.column(var)
        tests = {name: (replace(run(series), variable=var),
                        replace(run(series[1:] - series[:-1]), variable=var))
                 for name, run in runs}
        decision = unitroot.integration_order(*tests["adf"], level=level)
        rows.append((var, tests, decision.order))
    return rows


SECTIONS = ("unit_root", "bounds", "ecm", "ardl_spec", "robustness", "causality",
            "diagnostics", "stability")


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
    report = PipelineReport()
    frame, spec = _stage("load")(_load_frame, config)
    # the unit-root and CUSUM tables have critical values at 1%, 5% and 10% only
    table_level = config.level if config.level in unitroot.LEVEL_KEYS else 0.05

    rows = _stage("unit_root")(run_unit_roots, frame, (spec.dependent, *spec.regressors),
                               config.deterministic, config.bandwidth, table_level)
    if "unit_root" in wanted:
        report.unit_root = rows

    ardl = _stage("ardl")
    if reads_fit:
        ardl_spec = ardl(ardl_mod.select_ardl_lags, frame, spec, config.criterion)
        fit = ardl(ardl_mod.fit_conditional_ecm, frame, spec, ardl_spec)
    if "ardl_spec" in wanted:
        report.ardl_spec = (ardl_spec.p, ardl_spec.q)
    if reads_bounds:
        bounds = ardl(ardl_mod.bounds_test, fit, config.bounds_table)
        if "bounds" in wanted:
            report.bounds = bounds
    if "ecm" in wanted:
        long_run = ardl(ardl_mod.long_run_coefficients, fit)
        report.ecm = ardl(ardl_mod.fit_ecm, frame, spec, ardl_spec, long_run)

    if "robustness" in wanted:
        report.robustness = _stage("robustness")(_robustness, frame, spec, config)
        if bounds.decision.get(config.level) != "cointegrated":
            report.robustness_warning = (
                f"bounds test did not find cointegration at the {config.level * 100:g}% level; "
                "FMOLS/DOLS/CCR estimates assume a cointegrating relation"
            )

    if "causality" in wanted:
        report.causality = _stage("causality")(
            causality_mod.causality_matrix, frame, spec.regressors, spec.dependent,
            config.granger_lag,
        )

    if "diagnostics" in wanted:
        report.diagnostics = _stage("diagnostics")(
            diagnostics.diagnostics_report, fit.regression, fit.design, config.bg_order,
            config.level,
        )
    if "stability" in wanted:
        report.stability = _stage("diagnostics")(_stability, fit, table_level)
    return report


def _robustness(frame: TimeSeriesFrame, spec: ModelSpec, config: PipelineConfig):
    kernel = KernelSpec(bandwidth=config.bandwidth)
    return [
        cointreg.fmols(frame, spec, kernel),
        cointreg.dols(frame, spec, config.dols_leads, config.dols_lags),
        cointreg.ccr(frame, spec, kernel),
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


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="input CSV (year,<name>,...)")
    p.add_argument("--dependent", required=True)
    p.add_argument("--regressors", required=True,
                   help="comma-separated regressor names")
    p.add_argument("--log-transform", action="store_true")
    p.add_argument("--max-p", type=int, default=2)
    p.add_argument("--max-q", type=int, default=2)
    p.add_argument("--criterion", choices=CRITERIA, default="aic")
    p.add_argument("--deterministic", choices=DETERMINISTICS, default="constant")
    p.add_argument("--level", type=float, default=0.05)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", choices=FORMATS, default="markdown")


def _config_from_args(args) -> PipelineConfig:
    if args.command == "pipeline":
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON config: {exc}") from exc
        config = PipelineConfig.from_dict(raw)
        return replace(config, output_dir=args.out or config.output_dir,
                       format=args.format or config.format)
    return PipelineConfig(
        data_path=args.data,
        dependent=args.dependent,
        regressors=tuple(s.strip() for s in args.regressors.split(",") if s.strip()),
        log_transform=args.log_transform,
        max_p=args.max_p,
        max_q=args.max_q,
        criterion=args.criterion,
        deterministic=args.deterministic,
        level=args.level,
        granger_lag=getattr(args, "granger_lag", "auto"),
        bandwidth=getattr(args, "bandwidth", "auto"),
        dols_leads=getattr(args, "dols_leads", 1),
        dols_lags=getattr(args, "dols_lags", 1),
        bounds_table=getattr(args, "bounds_table", "embedded"),
        output_dir=args.out,
        format=args.format,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="ardlkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unitroot", help="ADF / PP / DF-GLS on every variable")
    p.add_argument("--data", required=True)
    p.add_argument("--vars", default=None, help="comma-separated subset")
    p.add_argument("--deterministic", choices=DETERMINISTICS, default="constant")
    p.add_argument("--level", type=float, choices=tuple(unitroot.LEVEL_KEYS), default=0.05)
    p.add_argument("--bandwidth", type=_auto_or_count, default="auto")
    _add_output_flags(p)

    for name in ("bounds", "ardl", "diag"):
        p = sub.add_parser(name)
        _add_model_flags(p)
        if name == "bounds":
            p.add_argument("--bounds-table", choices=ardl_mod.BOUNDS_TABLES,
                           default="embedded")
        _add_output_flags(p)

    p = sub.add_parser("robust", help="FMOLS / DOLS / CCR")
    _add_model_flags(p)
    p.add_argument("--bandwidth", type=_auto_or_count, default="auto")
    p.add_argument("--dols-leads", type=_count, default=1)
    p.add_argument("--dols-lags", type=_count, default=1)
    _add_output_flags(p)

    p = sub.add_parser("granger", help="pairwise Granger causality")
    _add_model_flags(p)
    p.add_argument("--granger-lag", type=_auto_or_count, default="auto")
    _add_output_flags(p)

    p = sub.add_parser("mc", help="Monte-Carlo rejection rates")
    p.add_argument("--test", choices=("adf", "pp", "dfgls", "granger"), required=True)
    p.add_argument("--dgp", choices=("random_walk", "ar1", "ecm_system"),
                   default="random_walk")
    p.add_argument("--T", type=int, default=100)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--out", default="out")

    p = sub.add_parser("pipeline", help="full analysis from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--format", choices=FORMATS, default=None)
    return parser


def _mc_test(args):
    """The (frame, level, seed) -> (statistic, reject) test of ``mc``."""
    if args.test == "granger":
        def run_granger(frame, level, seed):
            # independent AR(1) cause series from a disjoint seed range
            x = synthetic.ar1(frame.n, seed + 500_000_000, 0.5)
            rep = causality_mod.granger_pair(x, frame.column("Y"), 1)
            return rep.f_stat, rep.p < level
        return run_granger

    key = unitroot.LEVEL_KEYS.get(args.level)
    if key is None:
        raise UsageError(f"{args.test} has critical values at 1%, 5% and 10% only, "
                         f"got --level {args.level}")

    def run_unit_root(frame, level, seed):
        rep = getattr(unitroot, args.test)(frame.column("Y"))
        return rep.statistic, rep.reject[key]
    return run_unit_root


def _cmd_mc(args) -> int:
    params = {}
    if args.dgp == "ar1":
        params = {"rho": args.rho}
    elif args.dgp == "random_walk":
        params = {"drift": args.drift}
    dgp = synthetic.Dgp(args.dgp, args.T, args.seed, params)
    result = synthetic.mc_rejection_rate(_mc_test(args), dgp,
                                         args.reps, args.level, collect=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "mc.csv"
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "statistic", "reject"])
        for rep, stat, reject in result.rows:
            writer.writerow([rep, repr(stat), int(reject)])
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
            frame = _stage("load")(load_csv, Path(args.data).read_text())
            names = ([s.strip() for s in args.vars.split(",")] if args.vars
                     else frame.names)
            report = PipelineReport(unit_root=_stage("unit_root")(
                run_unit_roots, frame, names, args.deterministic, args.bandwidth, args.level))
            fmt, out = args.format, args.out
        else:
            config = _config_from_args(args)
            report = run_pipeline(config, {
                "bounds": ("bounds",),
                "ardl": ("bounds", "ecm", "ardl_spec"),
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
