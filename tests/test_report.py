import csv
import enum
import gc
import io
import json
import math
import stat
from typing import NamedTuple

import numpy as np
import pytest

from ardlkit import ardl, causality, cli, critical, unitroot
from ardlkit.cli import PipelineConfig, run_pipeline
from ardlkit.diagnostics import StabilityPath
from ardlkit.regression import STARS, normal_test, stars
from ardlkit.report import (FORMATS, PipelineReport, _coef_cell, dumps_indented, overwrite, render,
                            stability_csv, stability_svg, unit_root_rows)
from ardlkit.synthetic import Dgp, generate, random_walk

from conftest import FIXTURE_CSV, GOLDEN_DIR, make_frame
from regenerate_goldens import csv_text


@pytest.fixture(scope="module")
def fixture_report():
    return run_pipeline(PipelineConfig(data_path=str(FIXTURE_CSV), dependent="Y",
                                       regressors=("X1", "X2", "X3", "X4", "X5")))


def test_every_level_table_covers_the_one_level_list():
    levels = tuple(STARS)
    assert levels == (0.01, 0.05, 0.10)
    assert tuple(unitroot.LEVEL_KEYS) == levels
    assert tuple(unitroot.LEVEL_KEYS.values()) == ("1%", "5%", "10%")
    # the bounds tables add 2.5%, and the pipeline's level is one of theirs
    keys = {**dict.fromkeys(unitroot.TESTS, ("1%", "5%", "10%")), "stability": levels,
            **dict.fromkeys(ardl.BOUNDS_TABLES, ardl.BOUNDS_LEVELS)}
    for (family, case), table in critical.TABLES.items():
        rows = table.rows.values() if isinstance(table.rows, dict) else [table.rows]
        assert {len(row) for row in rows} == {len(keys[family])}
        assert tuple(critical.critical_values(family, case, 5)) == keys[family]
    granger = causality.granger_pair(random_walk(60, 1), random_walk(60, 2), 1)
    assert tuple(granger.reject_at) == levels
    assert tuple(causality._errored("X", "Y", "failed").reject_at) == levels
    assert cli.LEVELS == (0.01, 0.025, 0.05, 0.10) == tuple(sorted(ardl.BOUNDS_LEVELS))
    assert set(levels) < set(cli.LEVELS)


@pytest.mark.parametrize("p, mark", [(0.0, "***"), (0.0099, "***"), (0.01, "**"), (0.049, "**"),
                                     (0.05, "*"), (0.0999, "*"), (0.10, ""), (1.0, ""),
                                     (math.nan, "")])
def test_stars(p, mark):
    assert stars(p) == mark


def test_coef_cell_at_zero_standard_error():
    assert normal_test(-0.5, 0.0) == (-math.inf, 0.0)
    assert _coef_cell(-0.5, 0.0) == "-0.500***(0.0000)"
    t, p = normal_test(0.0, 0.0)
    assert math.isnan(t) and math.isnan(p)
    assert _coef_cell(0.0, 0.0) == "0.000(0.0000)"


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_errored_causality_rows_carry_their_error(tmp_path, fmt):
    # a failed pair is a row with its error in the Prob. column and no numbers
    frame = make_frame({"Y": random_walk(40, 1), "X1": random_walk(40, 2)})
    rows = causality.causality_matrix(frame, ("X1", "Y"), "Y", 1)
    [path] = render(PipelineReport(causality=rows), fmt, tmp_path)
    assert path.name == ("causality.md" if fmt == "markdown" else "causality.csv")
    fitted = [[f"{r.cause} does not Granger-cause {r.effect}", str(r.nobs), f"{r.f_stat:.5f}",
               f"{r.p:.4f}"] for r in rows[:2]]
    failed = ["Y does not Granger-cause Y", "", "", "error: variable equals the dependent"]
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(path.read_text())))
    else:
        table = [line[2:-2].split(" | ") for line in path.read_text().splitlines()]
        del table[1]  # the |---| rule
    assert table == [["Null Hypothesis", "Obs", "F-Statistic", "Prob."], *fitted, failed, failed]


def test_unit_root_table_of_a_report_that_lacks_tests():
    # a hand-built report may hold some of the tests; a NaN statistic prints empty
    level = unitroot.adf(random_walk(60, 1))
    diff = level._replace(statistic=math.nan, reject=dict.fromkeys(level.reject, False))
    _, [row] = unit_root_rows(PipelineReport(unit_root=[("Y", {"adf": (level, diff)}, "I1")]))
    assert row == ["Y", f"{level.statistic:.3f}{level.stars()}", "", "", "", "", "", "I(1)"]


def test_render_rejects_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format 'html'"):
        render(PipelineReport(), "html", tmp_path)
    assert not any(tmp_path.iterdir())


ADVERSARIAL = {
    "empty": [[], {}, [[]], [{}], {"a": []}, {"b": {"c": {}}}],
    "nonfinite": [float("nan"), float("inf"), -float("inf")],
    "text": ["é ü ☃ 😀", "\x00\x1f\x7f\n\r\t\"\\", '", ', "[", "{", '": ', "]}", ",\n  ", "null"],
    "scalars": [True, False, None, 0, -3, 10**30, 1.5e-300, 0.1, -0.0],
    "lists of dicts": [{"a": 1}, {"b": [1, {"c": []}]}, {}],
    "dicts of lists": {"x": [1.5, 2], "y": ["a"], "z": [[]]},
    "keys": {"é\n": {"ключ": 1}, "": [None], "1": [[]]},
    '", [{': {'": ': [{"]": "}"}]},
    "mixed": [1, [2, [3, []]], {"k": "v"}, "s"],
}


class Pair(NamedTuple):
    first: object
    second: object


class Tagged(dict):
    __hash__ = object.__hash__  # so that it can also be tried as a key


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


NAN, INF = float("nan"), float("inf")
# a list that starts with a float may still hold what a float's repr does
# not spell as json does
FLOAT_LISTS = [[1.5, NAN, 2.5], [NAN], [INF, -INF], [0.1, -INF, 1e300], [-0.0, 5e-324, NAN],
               [1.5, True, 2.5], [0.5, False], [0.5, 1], [0.5, None], [0.5, "x"], [0.5, [0.5]],
               {"a": [0.5, NAN], "b": [INF]}]


@pytest.mark.parametrize("doc", [
    ADVERSARIAL, [ADVERSARIAL, [ADVERSARIAL]], 1, -2.5, "x", None, True, float("nan"),
    [], {}, [[[]]], {"": {"": ""}}, FLOAT_LISTS,
], ids=["adversarial", "nested-adversarial", "int", "float", "str", "none", "bool", "nan",
        "empty-list", "empty-dict", "nested-empty", "empty-keys", "float-lists"])
def test_dumps_indented_equals_stdlib(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


# json writes each of these; report.json holds none of them
BEYOND_THE_REPORT = {
    "empty-tuple": (),
    "tuple": ["a", ("b", (None, 2.5))],
    "float64": np.float64(2.0),
    "float64-in-float-list": [1.5, np.float64(2.5), 3.5],
    "float64-nan-first": [np.float64(NAN), 1.5],
    "namedtuple": Pair(1, Tagged(x=2.5)),
    "namedtuple-in-float-list": [0.5, Pair(0.5, 0.5)],
    "empty-dict-subclass": Tagged(),
    "dict-subclass": Tagged(x=[]),
    "dict-subclass-in-dict": {"a": [1.5, Tagged()]},
    "intenum": Level.LOW,
    "intenum-in-float-list": [0.5, Level.HIGH],
    "str-subclass": ["x", Name("x")],
    "str-subclass-key": {"a": 1, Name("b"): 2},
    "int-key": {1: "int"},
    "float-key": {2.5: [1]},
    "bool-key": {"a": {True: {}}},
    "none-key": {None: [None]},
    "intenum-key": {Level.LOW: "an IntEnum key"},
    "float64-key": {np.float64(0.5): "a float64 key"},
    "subclasses": {"pair": Pair(1.5, [Pair("x", None), Pair((), {})]),
                   "tagged": Tagged(a=[1.5, Tagged()], b=Tagged(c=Level.LOW)),
                   "levels": [Level.LOW, 1.5, Level.HIGH]},
}


@pytest.mark.parametrize("doc", list(BEYOND_THE_REPORT.values()), ids=list(BEYOND_THE_REPORT))
def test_dumps_indented_rejects_what_the_report_never_holds(doc):
    json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dumps_indented(doc)


@pytest.fixture(scope="module")
def ecm_reports(tmp_path_factory):
    """Pipeline reports on seeded T = 80 ecm_system draws at k = 2 and 5."""
    reports = []
    for beta in ((1.0, -0.5), (0.8, -0.6, 0.5, 0.4, -0.3)):
        path = tmp_path_factory.mktemp("ecm") / f"k{len(beta)}.csv"
        path.write_text(csv_text(generate(Dgp("ecm_system", 80, 20260901,
                                              {"beta": beta, "alpha": -0.4, "sigma": 0.5}))))
        names = tuple(f"X{j}" for j in range(1, len(beta) + 1))
        reports.append(run_pipeline(PipelineConfig(data_path=str(path), dependent="Y",
                                                   regressors=names)))
    return reports


def test_dumps_indented_equals_stdlib_on_reports(fixture_report, ecm_reports):
    for report in (fixture_report, *ecm_reports):
        doc = report.to_dict()
        assert set(doc) == {"unit_root", "bounds", "ardl", "robustness", "causality",
                            "diagnostics", "stability"}
        assert dumps_indented(doc) == json.dumps(doc, indent=2)
    assert [len(r.to_dict()["ardl"]["spec"]["q"]) for r in ecm_reports] == [2, 5]


def test_reports_hold_only_the_writers_types(fixture_report, ecm_reports):
    def types(node):
        yield type(node)
        if type(node) is dict:
            yield from map(type, node)  # the keys
            node = list(node.values())
        if type(node) is list:
            for value in node:
                yield from types(value)

    for report in (fixture_report, *ecm_reports):
        assert set(types(report.to_dict())) == {dict, list, str, float, int, bool, type(None)}


def test_dumps_indented_makes_no_reference_cycles(fixture_report):
    # a writer that leaves cycles holds its chunks until the cyclic
    # collector runs, which shows as peak memory on a batch of reports
    doc = fixture_report.to_dict()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        dumps_indented(doc)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("doc", [
    np.int64(1), {1, 2}, [np.int64(1)], {"a": [{1}]}, {"a": [1, {"b": {2}}]},
    {(1,): [1]}, {(1,): 1}, [1.5, np.int64(1)], [1.5, np.bool_(True)], {Pair(1, 2): 1},
    {Tagged(): 1}, {"a": [0.5, {Pair(1, 2): 1}]},
], ids=["int64", "set", "int64-in-list", "set-deep", "set-beside-scalar",
        "tuple-key", "tuple-key-of-scalars", "int64-in-float-list", "numpy-bool-in-float-list",
        "namedtuple-key", "dict-subclass-key", "namedtuple-key-deep"])
def test_dumps_indented_rejects_what_stdlib_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dumps_indented(doc)


def test_report_keys_are_str(fixture_report):
    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys(v)
        elif isinstance(node, (list, tuple)):
            for v in node:
                yield from keys(v)

    found = list(keys(fixture_report.to_dict()))
    assert found and all(type(k) is str for k in found)


# --------------------------------------------- per-point reference rows

def reference_csv(path: StabilityPath) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "value", "lower", "upper"])
    for t, v, lo, hi in zip(path.t_index, path.values, path.lower, path.upper):
        writer.writerow([t, repr(float(v)), repr(float(lo)), repr(float(hi))])
    return buf.getvalue()


def reference_points(path: StabilityPath, values, width=640, height=400) -> str:
    xs = np.asarray(path.t_index, dtype=float)
    all_y = np.concatenate([path.values, path.lower, path.upper])
    y_min, y_max = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min -= pad
    y_max += pad
    margin = 40.0

    def sx(x):
        if xs[-1] == xs[0]:
            return margin
        return margin + (x - xs[0]) / (xs[-1] - xs[0]) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_min) / (y_max - y_min) * (height - 2 * margin)

    return " ".join(f"{sx(x):.2f},{sy(float(v)):.2f}" for x, v in zip(xs, values))


def synthetic_paths():
    """(path, width, height): a one-point path, a constant path, steps near
    the rounding of the coordinates, and a drawing 0 high, where the two
    points just below the middle of the bounds fall at y = -0.0004 and
    -0.0007 and print as -0.00."""
    yield StabilityPath("cusum", (7,), np.array([0.3]), np.array([-1.0]), np.array([1.0]),
                        True), 640, 400
    flat = np.full(5, 2.0)
    yield StabilityPath("cusum_sq", tuple(range(3, 8)), flat, flat, flat, True), 640, 400
    v = np.array([0.0, 1e-6, -1e-6, 3.0, 3.0000001, 2.9999999])
    yield StabilityPath("cusum", tuple(range(10, 16)), v, v - 1e-12, v + 1e-12, False), 640, 400
    ones = np.ones(4)
    yield StabilityPath("cusum", (1, 2, 3, 4), np.array([-1e-5, -2e-5, 0.0, 1e-5]),
                        -ones, ones, True), 640, 0


def check_rows(path: StabilityPath, width: int = 640, height: int = 400):
    assert stability_csv(path) == reference_csv(path)
    svg = stability_svg(path, width, height)
    for values in (path.upper, path.lower, path.values):
        assert f'points="{reference_points(path, values, width, height)}"' in svg
    return svg


@pytest.mark.parametrize("path,width,height", list(synthetic_paths()),
                         ids=["one-point", "constant", "near-rounding", "minus-zero"])
def test_stability_rows_equal_per_point_reference(path, width, height):
    svg = check_rows(path, width, height)
    assert (",-0.00 " in svg) == (height == 0)


def test_fixture_stability_rows_equal_per_point_reference(fixture_report):
    assert [p.statistic for p in fixture_report.stability] == ["cusum", "cusum_sq"]
    for path in fixture_report.stability:
        check_rows(path)


TEXT = "first line\nsecond line, caf\u00e9\n" * 40


@pytest.mark.parametrize("old", [b"", b"x" * 5000, b"abc"], ids=["empty", "longer", "shorter"])
def test_overwrite_leaves_the_bytes_of_write_text_in_the_same_file(tmp_path, old):
    path, reference = tmp_path / "table.csv", tmp_path / "reference.csv"
    path.write_bytes(old)
    path.chmod(0o640)
    before = path.stat()
    overwrite(path, TEXT)
    reference.write_text(TEXT)
    assert path.read_bytes() == reference.read_bytes()
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)


def test_overwrite_creates_a_file_as_write_text_does(tmp_path):
    path, reference = tmp_path / "table.csv", tmp_path / "reference.csv"
    overwrite(path, TEXT)
    reference.write_text(TEXT)
    assert path.read_bytes() == reference.read_bytes()
    assert path.stat().st_mode == reference.stat().st_mode


@pytest.mark.parametrize("fmt", FORMATS)
def test_rendering_twice_into_one_directory_gives_the_goldens(tmp_path, fixture_report, fmt):
    out = tmp_path / "fresh" / fmt
    golden = GOLDEN_DIR / fmt
    for _ in range(2):
        written = render(fixture_report, fmt, out)
        assert sorted(p.name for p in written) == sorted(p.name for p in golden.iterdir())
        for path in written:
            assert path.read_bytes() == (golden / path.name).read_bytes(), path.name
