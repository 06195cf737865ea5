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
from .frame import ModelSpec, TimeSeriesFrame, load_csv, natural_log
from .regression import KernelSpec
from .report import PipelineReport, render

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


def run_unit_roots(frame: TimeSeriesFrame, spec: ModelSpec, config: PipelineConfig):
    rows = []
    for var in (spec.dependent, *spec.regressors):
        series = frame.column(var)
        tests = {}
        for test_name, run in (("adf", unitroot.adf), ("pp", unitroot.pp),
                               ("dfgls", unitroot.dfgls)):
            if test_name == "pp":
                level_rep = run(series, config.deterministic, config.bandwidth)
                diff_rep = run(series[1:] - series[:-1], config.deterministic,
                               config.bandwidth)
            else:
                level_rep = run(series, config.deterministic)
                diff_rep = run(series[1:] - series[:-1], config.deterministic)
            level_rep = replace(level_rep, variable=var)
            diff_rep = replace(diff_rep, variable=var)
            tests[test_name] = (level_rep, diff_rep)
        decision_level = config.level if config.level in (0.01, 0.05, 0.10) else 0.05
        decision = unitroot.integration_order(*tests["adf"], level=decision_level)
        rows.append((var, tests, decision.order))
    return rows


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Stages in order: unit roots, bounds, ARDL/ECM, robustness,
    causality, diagnostics.  A possible-I(2) variable aborts before the
    ARDL stage; "not cointegrated" only downgrades the robustness
    section to a warning."""
    report = PipelineReport()
    frame, spec = _stage("load")(_load_frame, config)

    report.unit_root = _stage("unit_root")(run_unit_roots, frame, spec, config)

    def fit_ardl():
        ardl_spec = ardl_mod.select_ardl_lags(frame, spec, config.criterion)
        fit = ardl_mod.fit_conditional_ecm(frame, spec, ardl_spec)
        bounds = ardl_mod.bounds_test(fit, config.bounds_table)
        long_run = ardl_mod.long_run_coefficients(fit)
        ecm = ardl_mod.fit_ecm(frame, spec, ardl_spec, long_run)
        return ardl_spec, fit, bounds, ecm

    ardl_spec, fit, bounds, ecm = _stage("ardl")(fit_ardl)
    report.bounds = bounds
    report.ecm = ecm
    report.ardl_spec = (ardl_spec.p, ardl_spec.q)

    def run_robustness():
        kernel = KernelSpec(bandwidth=config.bandwidth)
        return [
            cointreg.fmols(frame, spec, kernel),
            cointreg.dols(frame, spec, config.dols_leads, config.dols_lags),
            cointreg.ccr(frame, spec, kernel),
        ]

    report.robustness = _stage("robustness")(run_robustness)
    if bounds.decision.get(config.level) != "cointegrated":
        report.robustness_warning = (
            f"bounds test did not find cointegration at the {config.level:.0%} level; "
            "FMOLS/DOLS/CCR estimates assume a cointegrating relation"
        )

    report.causality = _stage("causality")(
        causality_mod.causality_matrix, frame, spec.regressors, spec.dependent,
        config.granger_lag,
    )

    def run_diagnostics():
        diag = diagnostics.diagnostics_report(fit.regression, fit.design,
                                              config.bg_order, config.level)
        stab_level = config.level if config.level in (0.01, 0.05, 0.10) else 0.05
        w = diagnostics.recursive_residuals(fit.lhs, fit.design)
        k = fit.design.shape[1]
        paths = [
            diagnostics.cusum_path(w, k, stab_level),
            diagnostics.cusum_sq_path(w, k, stab_level),
        ]
        return diag, paths

    report.diagnostics, report.stability = _stage("diagnostics")(run_diagnostics)
    return report


# ----------------------------------------------------------------- argparse

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="input CSV (year,<name>,...)")
    p.add_argument("--dependent", required=True)
    p.add_argument("--regressors", required=True,
                   help="comma-separated regressor names")
    p.add_argument("--log-transform", action="store_true")
    p.add_argument("--max-p", type=int, default=2)
    p.add_argument("--max-q", type=int, default=2)
    p.add_argument("--criterion", choices=("aic", "sic", "hq"), default="aic")
    p.add_argument("--deterministic", choices=("constant", "constant_trend"),
                   default="constant")
    p.add_argument("--level", type=float, default=0.05)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", choices=("markdown", "csv", "json"),
                   default="markdown")


def _config_from_args(args) -> PipelineConfig:
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
        output_dir=args.out,
        format=args.format,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="ardlkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unitroot", help="ADF / PP / DF-GLS on every variable")
    p.add_argument("--data", required=True)
    p.add_argument("--vars", default=None, help="comma-separated subset")
    p.add_argument("--deterministic", choices=("constant", "constant_trend"),
                   default="constant")
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--bandwidth", default="auto")
    _add_output_flags(p)

    for name in ("bounds", "ardl", "diag"):
        p = sub.add_parser(name)
        _add_model_flags(p)
        if name == "bounds":
            p.add_argument("--bounds-table", choices=("embedded", "pesaran"),
                           default="embedded")
        _add_output_flags(p)

    p = sub.add_parser("robust", help="FMOLS / DOLS / CCR")
    _add_model_flags(p)
    p.add_argument("--bandwidth", default="auto")
    p.add_argument("--dols-leads", type=int, default=1)
    p.add_argument("--dols-lags", type=int, default=1)
    _add_output_flags(p)

    p = sub.add_parser("granger", help="pairwise Granger causality")
    _add_model_flags(p)
    p.add_argument("--granger-lag", default="auto")
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
    p.add_argument("--format", choices=("markdown", "csv", "json"), default=None)
    return parser


def _level_key(level: float) -> str:
    return {0.01: "1%", 0.05: "5%", 0.10: "10%"}.get(level, "5%")


def _mc_test(name: str, args):
    key = _level_key(args.level)

    def run_adf(frame, level, seed):
        rep = unitroot.adf(frame.column("Y"))
        return rep.statistic, rep.reject[key]

    def run_pp(frame, level, seed):
        rep = unitroot.pp(frame.column("Y"))
        return rep.statistic, rep.reject[key]

    def run_dfgls(frame, level, seed):
        rep = unitroot.dfgls(frame.column("Y"))
        return rep.statistic, rep.reject[key]

    def run_granger(frame, level, seed):
        # independent AR(1) cause series from a disjoint seed range
        x = synthetic.ar1(frame.n, seed + 500_000_000, 0.5)
        rep = causality_mod.granger_pair(x, frame.column("Y"), 1)
        return rep.f_stat, rep.p < level

    return {"adf": run_adf, "pp": run_pp, "dfgls": run_dfgls,
            "granger": run_granger}[name]


def _cmd_mc(args) -> int:
    params = {}
    if args.dgp == "ar1":
        params = {"rho": args.rho}
    elif args.dgp == "random_walk":
        params = {"drift": args.drift}
    dgp = synthetic.Dgp(args.dgp, args.T, args.seed, params)
    result = synthetic.mc_rejection_rate(_mc_test(args.test, args), dgp,
                                         args.reps, args.level, collect=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "mc.csv"
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "statistic", "reject"])
        for rep, stat, reject in result.rows:
            writer.writerow([rep, repr(stat), int(reject)])
    print(f"rejection rate at {args.level:.0%}: {result.rate:.4f} "
          f"({result.reps} reps, {result.failures} failures)")
    print(f"wrote {out_path}")
    return 0


def _cmd_unitroot(args) -> int:
    frame = load_csv(Path(args.data).read_text())
    names = ([s.strip() for s in args.vars.split(",")] if args.vars
             else list(frame.names))
    report = PipelineReport()
    rows = []
    for var in names:
        series = frame.column(var)
        tests = {}
        diff = series[1:] - series[:-1]
        tests["adf"] = (replace(unitroot.adf(series, args.deterministic), variable=var),
                        replace(unitroot.adf(diff, args.deterministic), variable=var))
        tests["pp"] = (replace(unitroot.pp(series, args.deterministic, args.bandwidth), variable=var),
                       replace(unitroot.pp(diff, args.deterministic, args.bandwidth), variable=var))
        tests["dfgls"] = (replace(unitroot.dfgls(series, args.deterministic), variable=var),
                          replace(unitroot.dfgls(diff, args.deterministic), variable=var))
        decision = unitroot.integration_order(*tests["adf"], level=args.level)
        rows.append((var, tests, decision.order))
    report.unit_root = rows
    for p in render(report, args.format, args.out):
        print(f"wrote {p}")
    return 0


def _partial_pipeline(args, sections) -> int:
    config = _config_from_args(args)
    if getattr(args, "bounds_table", None):
        config = replace(config, bounds_table=args.bounds_table)
    full = run_pipeline(config)
    report = PipelineReport()
    for section in sections:
        setattr(report, section, getattr(full, section))
    if "robustness" in sections:
        report.robustness_warning = full.robustness_warning
    for p in render(report, config.format, config.output_dir):
        print(f"wrote {p}")
    return 0


def _cmd_pipeline(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON config: {exc}") from exc
    config = PipelineConfig.from_dict(raw)
    if args.out:
        config = replace(config, output_dir=args.out)
    if args.format:
        config = replace(config, format=args.format)
    report = run_pipeline(config)
    for p in render(report, config.format, config.output_dir):
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "unitroot":
            return _cmd_unitroot(args)
        if args.command == "mc":
            return _cmd_mc(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        sections = {
            "bounds": ("bounds",),
            "ardl": ("bounds", "ecm", "ardl_spec"),
            "robust": ("bounds", "robustness"),
            "granger": ("causality",),
            "diag": ("diagnostics", "stability"),
        }[args.command]
        return _partial_pipeline(args, sections)
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
