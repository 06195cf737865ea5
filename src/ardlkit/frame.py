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

from .errors import (
    BadColumnName,
    EmptyBody,
    MissingValue,
    NonAnnualIndex,
    NonMonotoneYears,
    NonNumericCell,
    NonPositiveValue,
    RaggedRow,
    SeriesTooShort,
    UnknownVariable,
)


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Annual observations for a set of named variables.

    Invariants (checked on construction): every name is a ``str`` and
    every column a 1-D array of real numbers, all columns share the same
    length ``n >= 1``, the year index is strictly increasing with unit
    step, and no value is missing.  ``columns`` is kept as a read-only
    mapping of read-only copies of the columns, so no column can be
    added, replaced or written after the check, through the frame or
    through the caller's arrays.
    """

    years: tuple[int, ...]
    columns: Mapping[str, np.ndarray]

    def __post_init__(self):
        n = len(self.years)
        if n < 1:
            raise EmptyBody()
        # one tuple comparison in the usual case, consecutive integers; the
        # loop decides any other index and names its first bad pair
        try:
            start = operator.index(self.years[0])
        except TypeError:
            start = None
        if start is None or tuple(self.years) != tuple(range(start, start + n)):
            self._check_years()
        columns = {}
        for name, col in self.columns.items():
            if type(name) is not str:
                raise ValueError(f"column names must be strings, got {name!r}")
            col = np.array(col)
            if col.ndim != 1 or col.dtype.kind not in "iuf":
                raise ValueError(f"column {name!r} must be a 1-D array of real numbers, "
                                 f"got {col.ndim}-D {col.dtype}")
            if len(col) != n:
                raise RaggedRow(0, n, len(col))
            if not np.isfinite(col).all():
                bad = int(np.flatnonzero(~np.isfinite(col))[0])
                raise MissingValue(bad + 1, name)
            col.flags.writeable = False
            columns[name] = col
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def _check_years(self) -> None:
        for i in range(1, len(self.years)):
            if self.years[i] <= self.years[i - 1]:
                raise NonMonotoneYears(f"{self.years[i - 1]} followed by {self.years[i]}")
            if self.years[i] - self.years[i - 1] != 1:
                raise NonAnnualIndex(f"gap between {self.years[i - 1]} and {self.years[i]}")

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
        merged = dict(self.columns)
        merged.update(extra)
        return TimeSeriesFrame(self.years, merged)


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
