import os
import re
import subprocess
import sys
from pathlib import Path

import ardlkit

TESTS_DIR = Path(__file__).resolve().parent


def test_line_trace_runs_on_one_module():
    # the tool is run by hand, so a break in it would otherwise go unseen
    src = str(Path(ardlkit.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(TESTS_DIR / "line_trace.py"),
                          str(TESTS_DIR / "test_critical.py")],
                         cwd=TESTS_DIR.parent, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = run.stdout.splitlines()[-1]
    assert re.fullmatch(r"pytest exit code 0; \d+ executable lines of ardlkit never ran",
                        last), last
