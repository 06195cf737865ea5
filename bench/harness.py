"""Timing loop, metrics, tracing self-test and result records for bench/run.py."""

from __future__ import annotations

import cProfile
import inspect
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy
import scipy

from tracer import LSTSQ, OLS, SpanStats
from workloads import GOLDEN_ATOL, GOLDEN_RTOL, WORKLOADS, child_env

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
WARMUP_OPS = 5            # untimed in-process ops before timing starts
SETUP_RUNS = 5            # fresh interpreters per run; the median is setup_s
IMPORTTIME_RUNS = 3
TAIL_SAMPLES = 10         # op_tail_ms: highest percentile with this many samples beyond it
SPANS_KEPT_OPS = 3        # traced ops whose raw spans are written out
MIN_COVERAGE = 0.9        # pipeline_k5: spans directly under an op cover this share of it
HOLDOUT_CYCLES = {"pipeline_k5": 1, "mc_unitroot": 10, "cli_cold_k2": 2}
SETUP_CODE = "import ardlkit, ardlkit.cli"
ARDLKIT_MODULES = ("ardlkit", "ardlkit.ardl", "ardlkit.causality", "ardlkit.cli",
                   "ardlkit.cointreg", "ardlkit.diagnostics", "ardlkit.errors",
                   "ardlkit.frame", "ardlkit.regression", "ardlkit.report",
                   "ardlkit.synthetic", "ardlkit.unitroot")
THIRD_PARTY_PACKAGES = ("numpy", "scipy", "scipy.stats", "scipy.special", "scipy.linalg")


def environment(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": args.seed,
        "holdout_seed": args.holdout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ set-up

def parse_importtime(text: str) -> dict[str, tuple[int, int]]:
    """module -> (self us, cumulative us) from ``python -X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            out[name.strip()] = (int(self_us), int(cum_us))
    return out


def _self_ms(run: dict[str, tuple[int, int]], package: str) -> float:
    """Self import time of ``package`` and all its submodules."""
    prefix = package + "."
    return sum(s for name, (s, _) in run.items()
               if name == package or name.startswith(prefix)) / 1e3


def import_metrics() -> dict[str, float]:
    """setup.import.*: self ms of each ardlkit module and of each listed
    third-party package with its submodules, plus the total cumulative
    ms of ``import ardlkit, ardlkit.cli``; medians over a few interpreters."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                              env=child_env(ROOT), cwd=ROOT, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        runs.append(parse_importtime(done.stderr))
    metrics = {}
    for mod in ARDLKIT_MODULES:
        metrics[f"setup.import.{mod.replace('.', '_')}_ms"] = statistics.median(
            run.get(mod, (0, 0))[0] / 1e3 for run in runs)
    for package in THIRD_PARTY_PACKAGES:
        metrics[f"setup.import.{package.replace('.', '_')}_ms"] = statistics.median(
            _self_ms(run, package) for run in runs)
    metrics["setup.import.total_ms"] = statistics.median(
        (run.get("ardlkit", (0, 0))[1] + run.get("ardlkit.cli", (0, 0))[1]) / 1e3
        for run in runs)
    return metrics


# ------------------------------------------------------------------ timed ops

# Op times are scaled to a reference machine speed by a calibration timed
# before the first op and after every op, on the same pinned CPU.  Neither
# calibration runs ardlkit code, so no change to ardlkit can move it.
_CAL_RNG = numpy.random.default_rng(12345)
_CAL_X = _CAL_RNG.standard_normal((70, 12))
_CAL_Y = _CAL_RNG.standard_normal(70)


def _kernel_ns() -> int:
    """Fixed numpy/Python work shaped like an in-process op."""
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(40):
        X = numpy.column_stack([_CAL_X[:, j] for j in range(12)])
        u, s, vt = numpy.linalg.svd(X, full_matrices=False)
        beta = vt.T @ ((u.T @ _CAL_Y) / s)
        resid = _CAL_Y - X @ beta
        acc += float(resid @ resid) + sum(float(v) for v in s)
        acc += len(repr({"i": i, "s": s[:2].tolist()}))
    return time.perf_counter_ns() - start


def _spawn_ns() -> int:
    """A fresh interpreter that imports numpy: shaped like a process op."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(ROOT), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter_ns() - start


@dataclass(frozen=True)
class Calibration:
    name: str
    ref_ns: int  # its time at the reference speed
    measure: Callable[[], int]


KERNEL = Calibration("numpy/Python kernel", 3_000_000, _kernel_ns)
SPAWN = Calibration("python -c 'import numpy'", 120_000_000, _spawn_ns)


@dataclass
class Phase:
    cal: Calibration
    latencies_ns: list[int] = field(default_factory=list)
    calibration_ns: list[int] = field(default_factory=list)  # one more than ops
    failures: list[str] = field(default_factory=list)
    stats: SpanStats = field(default_factory=SpanStats)
    kept_spans: list = field(default_factory=list)
    next_op: int = 0

    def normalized_ns(self) -> list[float]:
        """Each op's wall time at reference speed: scaled by the reference
        over the mean of the calibration times just before and after it."""
        cal = self.calibration_ns
        return [op * 2 * self.cal.ref_ns / (cal[k] + cal[k + 1])
                for k, op in enumerate(self.latencies_ns)]


def run_ops(wl, first: int, seconds: float | None = None, count: int | None = None,
            take=None) -> Phase:
    """Run ops from index ``first`` for ``seconds`` (or ``count`` ops), timing
    each op alone and checking its outputs after the clock stops."""
    phase = Phase(KERNEL if wl.in_process else SPAWN)
    phase.calibration_ns.append(phase.cal.measure())
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = first
    while True:
        wl.before(i)
        crash = None
        start = time.perf_counter_ns()
        try:
            outcome = wl.run(i)
        except Exception:  # a crashing op is a failed op; the run goes on
            crash = traceback.format_exc(limit=3)
        elapsed = time.perf_counter_ns() - start
        phase.calibration_ns.append(phase.cal.measure())
        phase.latencies_ns.append(elapsed)
        if take is not None:
            spans = take()
            phase.stats.add_op(spans, elapsed)
            if len(phase.kept_spans) < SPANS_KEPT_OPS:
                phase.kept_spans.append({"op": i, "op_ns": elapsed, "spans": spans})
        if crash is None:
            try:
                crash = wl.check(i, outcome)
            except Exception:  # an unreadable output is a wrong output
                crash = traceback.format_exc(limit=3)
        if crash:
            phase.failures.append(f"op {i}: {crash}")
        i += 1
        if (count is not None and i - first >= count) or \
                (deadline is not None and time.perf_counter() >= deadline):
            phase.next_op = i
            return phase


def latency_metrics(lat_ns) -> dict:
    s = sorted(lat_ns)
    n = len(s)
    if n > TAIL_SAMPLES:
        tail, beyond = s[n - TAIL_SAMPLES - 1], TAIL_SAMPLES
    else:  # too few ops for a tail with ten samples beyond it: report the maximum
        tail, beyond = s[-1], 0
    return {
        "n": n,
        "op_p50_ms": statistics.median(s) / 1e6,
        "op_tail_ms": tail / 1e6,
        "op_tail_percentile": 100.0 * (n - beyond) / n,
        "op_tail_samples_beyond": beyond,
        "timed_s": sum(s) / 1e9,
        "ops_per_s": n / (sum(s) / 1e9),
    }


def phase_record(phase: Phase) -> dict:
    return {"normalized": latency_metrics(phase.normalized_ns()),
            "raw": latency_metrics(phase.latencies_ns),
            "calibration": phase.cal.name,
            "calibration_ref_ms": phase.cal.ref_ns / 1e6,
            "calibration_p50_ms": statistics.median(phase.calibration_ns) / 1e6,
            "latencies_ns": phase.latencies_ns,
            "calibration_ns": phase.calibration_ns}


def _spawn_setup() -> None:
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(ROOT), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def measure_setup() -> Phase:
    """Fresh interpreters that import ardlkit and its CLI, each bracketed by
    the spawn calibration.  One more runs first, uncounted, because it may
    compile bytecode."""
    _spawn_setup()
    phase = Phase(SPAWN, calibration_ns=[SPAWN.measure()])
    for _ in range(SETUP_RUNS):
        start = time.perf_counter_ns()
        _spawn_setup()
        phase.latencies_ns.append(time.perf_counter_ns() - start)
        phase.calibration_ns.append(SPAWN.measure())
    return phase


# ------------------------------------------------------------------ self-test

def _profiled_calls(stats: dict, fn) -> int:
    code = inspect.unwrap(fn).__code__
    return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]


def span_selftest(wl) -> dict:
    """Traced ols/lstsq counts of op 0 against an independent cProfile count."""
    from ardlkit import regression

    profiler = cProfile.Profile()
    wl.before(0)
    profiler.runcall(wl.run, 0)
    stats = pstats.Stats(profiler).stats
    profiled = {OLS: _profiled_calls(stats, regression.ols),
                LSTSQ: _profiled_calls(stats, numpy.linalg.lstsq)}
    with wl.tracing() as take:
        wl.before(0)
        wl.run(0)
        spans = take()
    traced = {name: sum(1 for s in spans if s[0] == name) for name in profiled}
    return {"profiled": profiled, "traced": traced, "ok": profiled == traced}


# ------------------------------------------------------------------ one workload

def run_one(args) -> int:
    name = args.workload
    # One core for this process and every child: the calibration kernel then
    # runs on the core that ran the op it scales.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    work.mkdir()
    try:
        return _run_one(args, name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_one(args, name: str, work: Path) -> int:
    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    env = environment(args)
    setup = measure_setup()
    setup_s = statistics.median(setup.normalized_ns()) / 1e9

    wl = WORKLOADS[name](ROOT, work, args.seed, reference)
    wl.prepare()
    warm = run_ops(wl, 0, count=min(wl.cycle, WARMUP_OPS)) if wl.in_process else Phase(SPAWN)
    first = warm.next_op

    record: dict = {"workload": name, "environment": env,
                    "setup_s": {"normalized_s": setup_s,
                                "raw_s": statistics.median(setup.latencies_ns) / 1e9,
                                "samples_ns": setup.latencies_ns,
                                "calibration_ns": setup.calibration_ns}}
    if args.trace == 0:
        main = run_ops(wl, first, seconds=args.seconds)
        record["latency"] = phase_record(main)
        lat = record["latency"]["normalized"]
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process
                  else wl.max_child_rss_kb)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (lat["op_p50_ms"], "ms"),
            "op_tail_ms": (lat["op_tail_ms"], "ms"),
            "ops_per_s": (lat["ops_per_s"], "1/s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        if getattr(wl, "reps_per_op", None):
            record["reps_per_s"] = lat["ops_per_s"] * wl.reps_per_op
        phases = [warm, main]
        selftest_ok = True
    else:
        half = args.seconds / 2
        plain = run_ops(wl, first, seconds=half)
        with wl.tracing() as take:
            traced = run_ops(wl, plain.next_op, seconds=half, take=take)
        record["untraced"], record["traced"] = phase_record(plain), phase_record(traced)
        per_layer = traced.stats.per_op()
        per_layer.update(import_metrics())
        per_layer["trace.overhead_ms"] = (record["traced"]["normalized"]["op_p50_ms"]
                                          - record["untraced"]["normalized"]["op_p50_ms"])
        per_layer["trace.coverage"] = traced.stats.coverage()
        metrics = {key: (value, _unit(key)) for key, value in per_layer.items()}
        selftest = span_selftest(wl) if wl.in_process else {"ok": True, "skipped": "child processes"}
        if name == "pipeline_k5":
            selftest["coverage_ok"] = per_layer["trace.coverage"] >= MIN_COVERAGE
            selftest["ok"] = selftest["ok"] and selftest["coverage_ok"]
        selftest_ok = selftest["ok"]
        record["selftest"] = selftest
        spans_path = OUT_DIR / f"{name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(traced.kept_spans))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        phases = [warm, plain, traced]

    failures = [f for ph in phases for f in ph.failures]
    attempted = sum(len(ph.latencies_ns) for ph in phases)
    holdout_ok = True
    if args.holdout_seed is not None:
        hwork = work / "holdout"
        hwork.mkdir()
        held = WORKLOADS[name](ROOT, hwork, args.holdout_seed, reference)
        held.prepare()
        hphase = run_ops(held, 0, count=held.cycle * HOLDOUT_CYCLES[name])
        holdout_ok = not hphase.failures
        record["holdout"] = {"seed": args.holdout_seed, "attempted": len(hphase.latencies_ns),
                             "failures": hphase.failures[:20]}

    correct = not failures and selftest_ok and holdout_ok
    record.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  correct=correct, golden_tolerance={"rtol": GOLDEN_RTOL, "atol": GOLDEN_ATOL},
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    result_path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    _print_summary(record, result_path)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key == "trace.coverage":
        return "ratio"
    if key.endswith("bytes_written"):
        return "bytes"
    return "count"


def _print_summary(record: dict, result_path: Path) -> None:
    env = record["environment"]
    print(f"== {record['workload']}  seed {env['seed']}  {env['seconds']:g}s  trace {env['trace']}"
          f"  | python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
          f" {env['blas']} nproc {env['nproc']} blas threads 1")
    if "latency" in record:
        norm, raw = record["latency"]["normalized"], record["latency"]["raw"]
        m = record["metrics"]
        print(f"  setup_s      {m['setup_s']['value']:10.4f} s    "
              f"(median of {len(record['setup_s']['samples_ns'])} fresh interpreters; "
              f"raw wall {record['setup_s']['raw_s']:.4f} s)")
        print(f"  op_p50_ms    {norm['op_p50_ms']:10.3f} ms   (n={norm['n']}; raw wall "
              f"{raw['op_p50_ms']:.3f} ms)")
        print(f"  op_tail_ms   {norm['op_tail_ms']:10.3f} ms   (p{norm['op_tail_percentile']:.1f}, "
              f"{norm['op_tail_samples_beyond']} samples beyond, n={norm['n']}; raw wall "
              f"{raw['op_tail_ms']:.3f} ms)")
        print(f"  ops_per_s    {norm['ops_per_s']:10.3f} 1/s  (n={norm['n']}; raw wall "
              f"{raw['ops_per_s']:.3f} 1/s over {raw['timed_s']:.2f} s)")
        if "reps_per_s" in record:
            print(f"  reps_per_s   {record['reps_per_s']:10.1f} 1/s  (n={norm['n']} ops)")
        print(f"  failed_ratio {record['failed'] / record['attempted']:10.4f}      "
              f"({record['failed']}/{record['attempted']} ops)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:10.1f} MB")
        lat = record["latency"]
        print(f"  (times at reference speed: calibration {lat['calibration']} p50 "
              f"{lat['calibration_p50_ms']:.3f} ms, reference {lat['calibration_ref_ms']:g} ms)")
    else:
        plain, traced = record["untraced"]["normalized"], record["traced"]["normalized"]
        print(f"  untraced op_p50 {plain['op_p50_ms']:.3f} ms (n={plain['n']}), traced op_p50 "
              f"{traced['op_p50_ms']:.3f} ms (n={traced['n']}); "
              f"coverage {record['metrics']['trace.coverage']['value']:.4f}")
        print(f"  span self-test: {record['selftest']}")
    if "holdout" in record:
        h = record["holdout"]
        print(f"  holdout seed {h['seed']}: {h['attempted'] - len(h['failures'])}/{h['attempted']} ops correct")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure.strip()}")
    print(f"  correct: {str(record['correct']).lower()}   record: {result_path.relative_to(ROOT)}")


# ------------------------------------------------------------------ all workloads

def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
               "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.holdout_seed is not None:
            cmd += ["--holdout-seed", str(args.holdout_seed)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0
