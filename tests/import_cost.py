"""Where a fresh ``import ardlkit.cli`` spends its time.

    python3 tests/import_cost.py [--runs 5] [--no-bytecode]

Standard library only, and not collected by pytest.  It starts fresh
interpreters that run ``import ardlkit.cli`` from this checkout's ``src``
and prints, as medians over the runs:

- the wall time of a process, from spawn to exit;
- each ardlkit module's self time under ``python -X importtime``;
- each ardlkit source file's ``compile()`` time, measured in this process;
- the count and time of ``dataclasses._process_class`` calls, the code
  that ``@dataclass`` generates and executes for each class it decorates.

The children keep their bytecode under a temporary PYTHONPYCACHEPREFIX,
so nothing is written into ``src``.  One untimed process fills that cache
first.  By default the runs then read ardlkit's cached bytecode;
``--no-bytecode`` drops ardlkit's share of the cache and sets
PYTHONDONTWRITEBYTECODE, so every run compiles ardlkit from source, as a
checkout without ``__pycache__`` does, while the standard library and
numpy stay cached.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "ardlkit"
IMPORT = "import ardlkit.cli"

# Run in a child: time every _process_class call, then print one
# "<seconds> <module>.<class>" line per call.
HOOK = f"""
import dataclasses, time
calls = []
generate = dataclasses._process_class
def timed(cls, *args, **kwargs):
    start = time.perf_counter()
    try:
        return generate(cls, *args, **kwargs)
    finally:
        calls.append((time.perf_counter() - start, cls.__module__ + "." + cls.__qualname__))
dataclasses._process_class = timed
{IMPORT}
for seconds, name in calls:
    print(seconds, name)
"""


def child_env(cache_dir: str, write_bytecode: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONPYCACHEPREFIX"] = cache_dir
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def wall_ms(env: dict) -> float:
    start = time.perf_counter()
    run(["-c", IMPORT], env)
    return (time.perf_counter() - start) * 1e3


def self_ms(env: dict) -> dict[str, float]:
    """Each ardlkit module's ``-X importtime`` self time in one process."""
    out = {}
    for line in run(["-X", "importtime", "-c", IMPORT], env).stderr.splitlines():
        # import time: <self us> | <cumulative us> | <indented module name>
        head, _, rest = line.partition(":")
        if head != "import time":
            continue
        own, _, name = (field.strip() for field in rest.split("|"))
        if name == "ardlkit" or name.startswith("ardlkit."):
            out[name] = int(own) / 1e3
    return out


def dataclass_calls(env: dict) -> list[tuple[float, str]]:
    """(ms, class) of each ``_process_class`` call of ardlkit's classes."""
    calls = []
    for line in run(["-c", HOOK], env).stdout.splitlines():
        seconds, name = line.split(" ", 1)
        if name.startswith("ardlkit."):
            calls.append((float(seconds) * 1e3, name))
    return calls


def compile_ms(path: Path, runs: int) -> float:
    source = path.read_bytes()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        compile(source, str(path), "exec", dont_inherit=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per measurement")
    parser.add_argument("--no-bytecode", action="store_true",
                        help="compile ardlkit from source in every run")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ardlkit-pycache-") as cache_dir:
        run(["-c", IMPORT], child_env(cache_dir, write_bytecode=True))
        if args.no_bytecode:
            shutil.rmtree(Path(cache_dir, *PACKAGE.parts[1:]), ignore_errors=True)
        env = child_env(cache_dir, write_bytecode=False)
        walls, modules, calls = [], {}, []
        for _ in range(args.runs):
            walls.append(wall_ms(env))
            for name, ms in self_ms(env).items():
                modules.setdefault(name, []).append(ms)
            calls.append(dataclass_calls(env))

    state = "compiled from source" if args.no_bytecode else "cached bytecode"
    print(f"{IMPORT}: {args.runs} fresh processes, ardlkit {state}, medians in ms")
    print(f"\nwall time per process: {statistics.median(walls):.1f} "
          f"(min {min(walls):.1f}, max {max(walls):.1f})")

    print("\n-X importtime self time")
    self_times = {name: statistics.median(ms) for name, ms in modules.items()}
    for name, ms in sorted(self_times.items(), key=lambda item: -item[1]):
        print(f"  {name:24s} {ms:7.2f}")
    print(f"  {'total':24s} {sum(self_times.values()):7.2f}")

    print("\ncompile() per source file")
    compiled = {path.name: compile_ms(path, args.runs) for path in sorted(PACKAGE.glob("*.py"))}
    for name, ms in sorted(compiled.items(), key=lambda item: -item[1]):
        print(f"  {name:24s} {ms:7.2f}")
    print(f"  {'total':24s} {sum(compiled.values()):7.2f}")

    counts = [len(run_calls) for run_calls in calls]
    totals = [sum(ms for ms, _ in run_calls) for run_calls in calls]
    print(f"\ndataclasses._process_class: {statistics.median(counts):g} calls per import, "
          f"{statistics.median(totals):.2f} ms")
    per_class: dict[str, list[float]] = {}
    for run_calls in calls:
        for ms, name in run_calls:
            per_class.setdefault(name, []).append(ms)
    for name, ms in sorted(per_class.items(), key=lambda item: -statistics.median(item[1])):
        print(f"  {name:40s} {statistics.median(ms):7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
