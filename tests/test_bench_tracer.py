"""The benchmark's tracer wraps ardlkit functions by name; a refactor that
drops or renames one must fail here, not in a traced benchmark run."""

import importlib
import importlib.util

from conftest import TESTS_DIR

TRACER = TESTS_DIR.parent / "bench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TARGETS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"ardlkit.{mod}"), fn, None))]
    assert tracer.TARGETS
    assert missing == []
