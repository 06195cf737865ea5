"""Year-indexed data frames and the elementary series transforms.

``TimeSeriesFrame`` is the universal input: an ordered set of named
real-valued columns over a strictly increasing annual year index.  All
transforms return new frames or arrays; nothing mutates in place.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (BadColumnName, EmptyBody, MissingValue, NonAnnualIndex, NonMonotoneYears,
                     NonNumericCell, NonPositiveValue, RaggedRow, SeriesTooShort, UnknownVariable)


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Annual observations for a set of named variables.

    Invariants (checked on construction): every name is a ``str`` and
    every column a 1-D array of real numbers, all columns share the same
    length ``n >= 1``, the year index is strictly increasing with unit
    step, and no value is missing.  ``columns`` is kept as a read-only
    mapping of read-only copies of the columns, so no column can be
    added, replaced or written after the check, through the frame or
    through the caller's arrays.  ``rows`` builds many frames from one
    checked block; their columns are read-only row views of its one
    read-only copy, so no caller holds a writeable reference to it.
    """

    years: tuple[int, ...]
    columns: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "columns", MappingProxyType(_checked(self.years, self.columns, 1)))

    @classmethod
    def rows(cls, years, block: Mapping[str, np.ndarray]) -> list["TimeSeriesFrame"]:
        """One frame per row of ``block``, a mapping of name to an (R, n) array.

        Frame r equals ``TimeSeriesFrame(years, {name: col[r] for name, col
        in block.items()})``.  The block is checked once, by the frame's own
        checks on 2-D columns that share their R, and copied once; a
        non-finite value raises what the first bad row's frame raises.
        """
        block = _checked(years, block, 2)
        frames = []
        for views in zip(*block.values()):
            frame = object.__new__(cls)
            object.__setattr__(frame, "years", years)
            object.__setattr__(frame, "columns", MappingProxyType(dict(zip(block, views))))
            frames.append(frame)
        return frames

    @property
    def n(self) -> int:
        return len(self.years)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownVariable(name)
        return self.columns[name]

    def with_columns(self, extra: dict[str, np.ndarray]) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.years, {**self.columns, **extra})


def _checked(years, columns: Mapping, ndim: int) -> dict[str, np.ndarray]:
    """Read-only copies of ``columns`` once the frame's checks pass.

    The years form a strictly increasing unit-step index of n >= 1 entries;
    each name is a ``str`` and each column an ``ndim``-D real array with n
    entries on its last axis, the leading axes the same for every column.
    A non-finite value raises ``MissingValue`` at the first row that holds
    one, in its first such column, at its first such index.
    """
    n = len(years)
    if n < 1:
        raise EmptyBody()
    # one tuple comparison in the usual case, consecutive integers; the
    # loop decides any other index and names its first bad pair
    try:
        start = operator.index(years[0])
    except TypeError:
        start = None
    if start is None or tuple(years) != tuple(range(start, start + n)):
        _check_years(years)
    checked = {}
    for name, col in columns.items():
        if type(name) is not str:
            raise ValueError(f"column names must be strings, got {name!r}")
        col = np.array(col)
        if col.ndim != ndim or col.dtype.kind not in "iuf":
            raise ValueError(f"column {name!r} must be a {ndim}-D array of real numbers, "
                             f"got {col.ndim}-D {col.dtype}")
        if col.shape[-1] != n:
            raise RaggedRow(0, n, col.shape[-1])
        col.flags.writeable = False
        checked[name] = col
    shapes = {name: col.shape for name, col in checked.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"columns must share one shape, got {shapes}")
    if not all(np.isfinite(col).all() for col in checked.values()):
        bad = {name: ~np.isfinite(col.reshape(-1, n)) for name, col in checked.items()}
        row = min(int(np.flatnonzero(b.any(axis=1))[0]) for b in bad.values() if b.any())
        name = next(name for name, b in bad.items() if b[row].any())
        raise MissingValue(int(np.flatnonzero(bad[name][row])[0]) + 1, name)
    return checked


def _check_years(years) -> None:
    for i in range(1, len(years)):
        if years[i] <= years[i - 1]:
            raise NonMonotoneYears(f"{years[i - 1]} followed by {years[i]}")
        if years[i] - years[i - 1] != 1:
            raise NonAnnualIndex(f"gap between {years[i - 1]} and {years[i]}")


@dataclass(frozen=True)
class ModelSpec:
    """The single-equation model: one dependent variable, k distinct regressors."""

    dependent: str
    regressors: tuple[str, ...]
    max_p: int = 2
    max_q: int = 2

    def __post_init__(self):
        if not isinstance(self.regressors, (list, tuple)):
            raise ValueError(f"regressors must be a list of names, got {self.regressors!r}")
        object.__setattr__(self, "regressors", tuple(self.regressors))
        for name in (self.dependent, *self.regressors):
            if type(name) is not str:
                raise ValueError(f"variable names must be strings, got {name!r}")
        if len(self.regressors) < 1:
            raise ValueError("at least one regressor is required")
        if self.dependent in self.regressors:
            raise ValueError(f"dependent {self.dependent!r} also listed as a regressor")
        if len(set(self.regressors)) < len(self.regressors):
            raise ValueError(f"regressors must be distinct, got {self.regressors}")
        for name, least in (("max_p", 1), ("max_q", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    def validate_against(self, frame: TimeSeriesFrame) -> None:
        for name in (self.dependent, *self.regressors):
            if name not in frame.columns:
                raise UnknownVariable(name)

    @property
    def k(self) -> int:
        return len(self.regressors)


def load_csv(text: str) -> TimeSeriesFrame:
    """Parse a CSV document ``year,<name>,...`` into a frame.

    The header is required, its names distinct and non-empty, the body
    fully numeric, and years strictly increasing annual integers.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyBody()
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[0].lower() != "year":
        raise NonNumericCell(0, "header", ",".join(header))
    names = header[1:]
    for j, name in enumerate(names):
        if not name or name in names[:j]:
            raise BadColumnName(j + 2, name)
    body = rows[1:]
    if not body:
        raise EmptyBody()

    years: list[int] = []
    data: list[list[float]] = [[] for _ in names]
    for i, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise RaggedRow(i, len(header), len(row))
        cell = row[0].strip()
        try:
            year = int(cell)
        except ValueError:
            raise NonNumericCell(i, "year", cell) from None
        years.append(year)
        for j, name in enumerate(names):
            cell = row[j + 1].strip()
            if cell == "":
                raise MissingValue(i, name)
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(i, name, cell) from None
            if not math.isfinite(value):
                raise MissingValue(i, name)
            data[j].append(value)

    columns = {name: np.asarray(vals, dtype=float) for name, vals in zip(names, data)}
    return TimeSeriesFrame(tuple(years), columns)


def natural_log(frame: TimeSeriesFrame, names) -> TimeSeriesFrame:
    """Append ``L<name>`` columns holding elementwise natural logs."""
    extra: dict[str, np.ndarray] = {}
    for name in names:
        col = frame.column(name)
        bad = np.flatnonzero(col <= 0)
        if bad.size:
            idx = int(bad[0])
            raise NonPositiveValue(name, frame.years[idx], float(col[idx]))
        extra[f"L{name}"] = np.log(col)
    return frame.with_columns(extra)


def difference(series, d: int = 1) -> np.ndarray:
    """Apply the first-difference operator ``d`` times."""
    s = np.asarray(series, dtype=float)
    if d < 1:
        raise ValueError("difference order must be >= 1")
    if s.shape[0] <= d:
        raise SeriesTooShort(f"need more than {d} observations to difference, got {s.shape[0]}")
    return np.diff(s, n=d)


def lag_matrix(series, k: int) -> np.ndarray:
    """(n-k) x k matrix; column j holds the series lagged j+1 periods.

    Row i is aligned to observation k+i of the input, so the row for
    time t contains s[t-1], s[t-2], ..., s[t-k].
    """
    s = np.asarray(series, dtype=float)
    n = s.shape[0]
    if k < 1:
        raise ValueError("max lag must be >= 1")
    if n <= k:
        raise SeriesTooShort(f"need more than {k} observations for {k} lags, got {n}")
    return np.column_stack([s[k - j - 1 : n - j - 1] for j in range(k)])
