"""Exception hierarchy.

Three branches matter to callers: ``DataError`` (bad input files or
series), ``NumericalError`` (estimation cannot proceed), and
``PreconditionError`` (a modelling precondition failed, e.g. possible
I(2) series).  The CLI maps the branches to distinct exit codes.
"""

from __future__ import annotations


class ArdlkitError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ArdlkitError):
    """Invalid input data (CSV parsing, series shape, transforms)."""


class NotText(DataError):
    def __init__(self, path: str, exc: UnicodeDecodeError):
        super().__init__(f"{path} is not UTF-8 text: byte {exc.start}: {exc.reason}")


class RaggedRow(DataError):
    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"row {row}: expected {expected} fields, got {got}")
        self.row = row


class NonNumericCell(DataError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: non-numeric value {value!r}")
        self.row = row
        self.column = column


class BadColumnName(DataError):
    def __init__(self, column: int, name: str):
        super().__init__(f"header, column {column}: "
                         + (f"name {name!r} repeats an earlier column" if name else "empty name"))


class MissingValue(DataError):
    def __init__(self, row: int, column: str):
        super().__init__(f"row {row}, column {column!r}: missing value")
        self.row = row
        self.column = column


class NonMonotoneYears(DataError):
    def __init__(self, detail: str):
        super().__init__(f"year index must be strictly increasing: {detail}")


class NonAnnualIndex(DataError):
    def __init__(self, detail: str):
        super().__init__(f"year index must have unit step (annual data): {detail}")


class EmptyBody(DataError):
    def __init__(self):
        super().__init__("CSV has a header but no data rows")


class NonPositiveValue(DataError):
    def __init__(self, name: str, year: int, value: float):
        super().__init__(f"cannot take log of {name} in {year}: value {value} <= 0")
        self.name = name
        self.year = year


class SeriesTooShort(DataError):
    """A series is shorter than a test or a fit needs."""


class UnknownVariable(DataError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} not present in the frame")
        self.name = name


class NumericalError(ArdlkitError):
    """Estimation failed for numerical reasons."""


class RankDeficient(NumericalError):
    def __init__(self, columns):
        cols = ", ".join(str(c) for c in columns)
        super().__init__(f"design matrix is rank deficient; dependent columns: [{cols}]")
        self.columns = tuple(columns)


class TooFewObservations(NumericalError):
    def __init__(self, n: int, k: int):
        super().__init__(f"need more observations ({n}) than parameters ({k})")


class BandwidthTooLarge(NumericalError):
    def __init__(self, bandwidth: int, n: int):
        super().__init__(f"kernel bandwidth {bandwidth} must be < series length {n}")


class InvalidDf(NumericalError):
    """A distribution's degrees of freedom are missing or not positive."""


class DegenerateSeries(NumericalError):
    def __init__(self, detail: str = "series has zero variance after differencing"):
        super().__init__(detail)


class DegenerateResiduals(NumericalError):
    def __init__(self, detail: str = "residuals have zero variance"):
        super().__init__(detail)


class AllZeroResiduals(NumericalError):
    def __init__(self):
        super().__init__("all recursive residuals are zero; CUSUM-SQ undefined")


class NearSingularAdjustment(NumericalError):
    def __init__(self, value: float, tol: float):
        super().__init__(
            f"lagged-dependent level coefficient {value:g} is below tolerance {tol:g}; "
            "long-run coefficients are not identified"
        )


class SingularOmega22(NumericalError):
    def __init__(self):
        super().__init__("regressor block of the long-run covariance is singular")


class NoFeasibleSpec(NumericalError):
    def __init__(self, detail: str):
        super().__init__(f"no feasible lag specification: {detail}")


class InvalidParams(NumericalError):
    """A data-generating process or Monte-Carlo setting outside its domain."""


class PreconditionError(ArdlkitError):
    """A modelling precondition does not hold."""


class PossibleI2(PreconditionError):
    def __init__(self, variable: str):
        super().__init__(
            f"{variable}: neither the level nor the first difference rejects a unit "
            "root; the series may be I(2), which invalidates the ARDL bounds approach"
        )
        self.variable = variable


class NoCriticalValues(PreconditionError):
    """A table of critical values has none where it is read."""
