"""Regenerate tests/data/fixture.csv and the tests/golden tree.

Run from the repository root:

    python3 tests/regenerate_goldens.py

The fixture is a seeded cointegrated five-regressor system, so every
byte of it is reproducible from the seed alone (its normal variates
come from synthetic's numpy port of cephes' ndtri, bitwise
scipy.special.ndtri, whose tail takes libm's log through Python's math
module).  The golden reports are reproducible
for a given numpy build, BLAS kernel set and C library: the last bits
of p-values come from the libm functions (erfc, exp, log1p) behind
Python's math module, and those of every factorization and matrix
product from the kernels OpenBLAS picks for the CPU at load time (or
the ones OPENBLAS_CORETYPE names).  tests/golden/versions.json records
the numpy, scipy and BLAS builds and the kernel set that wrote them.
"""

import ctypes
import json
import platform
import shutil
from pathlib import Path

import numpy
import scipy

from ardlkit.cli import PipelineConfig, run_pipeline
from ardlkit.report import render
from ardlkit.synthetic import Dgp, generate

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"
VERSIONS = GOLDEN / "versions.json"

FIXTURE_DGP = Dgp(
    "ecm_system", 80, 20260825,
    {"beta": (0.5, -0.3, 0.4, -0.2, 0.3), "alpha": -0.3, "sigma": 0.4,
     "delta": 0.2, "intercept": 1.0},
)


def blas_kernel() -> str | None:
    """The kernel set numpy's OpenBLAS runs, as its
    ``scipy_openblas_get_corename64_`` names it through ctypes, or None
    where numpy bundles no scipy-openblas library."""
    for lib in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def environment_versions() -> dict:
    """Python, numpy, scipy, numpy's BLAS and its kernel set, as recorded
    beside the goldens."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": blas_kernel(),
    }


def csv_text(frame) -> str:
    """``frame`` as CSV text in the frame schema, every float by its repr."""
    lines = ["Year," + ",".join(frame.names)]
    for i, year in enumerate(frame.years):
        cells = ",".join(repr(float(frame.columns[name][i])) for name in frame.names)
        lines.append(f"{year},{cells}")
    return "\n".join(lines) + "\n"


def write_fixture() -> Path:
    DATA.mkdir(parents=True, exist_ok=True)
    path = DATA / "fixture.csv"
    path.write_text(csv_text(generate(FIXTURE_DGP, start_year=1941)))
    return path


def write_config(fixture: Path) -> Path:
    config = {
        "data_path": "tests/data/fixture.csv",
        "dependent": "Y",
        "regressors": ["X1", "X2", "X3", "X4", "X5"],
    }
    path = DATA / "pipeline.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def write_goldens(fixture: Path) -> None:
    config = PipelineConfig(
        data_path=str(fixture), dependent="Y",
        regressors=("X1", "X2", "X3", "X4", "X5"),
    )
    report = run_pipeline(config)
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for fmt in ("markdown", "csv", "json"):
        render(report, fmt, GOLDEN / fmt)
    VERSIONS.write_text(json.dumps(environment_versions(), indent=2) + "\n")


def main() -> None:
    fixture = write_fixture()
    write_config(fixture)
    write_goldens(fixture)
    print(f"wrote {fixture} and {GOLDEN}")


if __name__ == "__main__":
    main()
