import numpy as np
import pytest
from hypothesis import given, strategies as st

from ardlkit import errors
from ardlkit.frame import (
    ModelSpec,
    TimeSeriesFrame,
    difference,
    lag_matrix,
    load_csv,
    natural_log,
)

CSV_OK = """Year,CO2,GDP
1990,1.5,100
1991,2.5,110
1992,3.5,121
"""


class TestLoadCsv:
    def test_happy_path(self):
        frame = load_csv(CSV_OK)
        assert frame.years == (1990, 1991, 1992)
        assert frame.names == ("CO2", "GDP")
        np.testing.assert_allclose(frame.column("CO2"), [1.5, 2.5, 3.5])
        np.testing.assert_allclose(frame.column("GDP"), [100, 110, 121])

    def test_blank_lines_skipped(self):
        frame = load_csv("Year,A\n\n1990,1\n\n1991,2\n")
        assert frame.n == 2

    def test_empty_document(self):
        with pytest.raises(errors.EmptyBody):
            load_csv("")

    def test_header_only(self):
        with pytest.raises(errors.EmptyBody):
            load_csv("Year,A\n")

    def test_bad_header(self):
        with pytest.raises(errors.NonNumericCell):
            load_csv("Period,A\n1990,1\n")

    def test_repeated_column_name(self):
        # a dict keyed by name would keep only the last A column
        with pytest.raises(errors.BadColumnName, match="column 3: name 'A' repeats"):
            load_csv("year,A,A\n2000,1,5\n2001,2,6\n")

    def test_empty_column_name(self):
        with pytest.raises(errors.BadColumnName, match="column 3: empty name"):
            load_csv("year,A,\n2000,1,5\n2001,2,6\n")

    def test_ragged_row(self):
        with pytest.raises(errors.RaggedRow):
            load_csv("Year,A,B\n1990,1,2\n1991,3\n")

    def test_non_numeric_cell(self):
        with pytest.raises(errors.NonNumericCell):
            load_csv("Year,A\n1990,x\n")

    def test_non_numeric_year(self):
        with pytest.raises(errors.NonNumericCell):
            load_csv("Year,A\nabc,1\n")

    def test_missing_value(self):
        with pytest.raises(errors.MissingValue):
            load_csv("Year,A,B\n1990,1,\n")

    def test_nan_value(self):
        with pytest.raises(errors.MissingValue):
            load_csv("Year,A\n1990,nan\n")

    def test_non_monotone_years(self):
        with pytest.raises(errors.NonMonotoneYears):
            load_csv("Year,A\n1991,1\n1990,2\n")

    def test_year_gap(self):
        with pytest.raises(errors.NonAnnualIndex):
            load_csv("Year,A\n1990,1\n1992,2\n")


class TestTimeSeriesFrame:
    def test_unknown_variable(self):
        frame = load_csv(CSV_OK)
        with pytest.raises(errors.UnknownVariable):
            frame.column("POP")

    def test_with_columns_returns_new_frame(self):
        frame = load_csv(CSV_OK)
        extra = frame.with_columns({"Z": np.zeros(3)})
        assert "Z" in extra.names
        assert "Z" not in frame.names

    def test_length_mismatch(self):
        with pytest.raises(errors.RaggedRow):
            TimeSeriesFrame((1990, 1991), {"A": np.zeros(3)})

    def test_nonfinite_column(self):
        with pytest.raises(errors.MissingValue):
            TimeSeriesFrame((1990, 1991), {"A": np.array([1.0, np.inf])})

    @pytest.mark.parametrize("columns, message", [
        ({"A": np.zeros((2, 2))}, "column 'A' must be a 1-D array of real numbers, got 2-D"),
        ({"A": np.array(["1", "2"])}, "column 'A' must be a 1-D array of real numbers"),
        ({"A": np.array([1.0, 2.0j])}, "column 'A' must be a 1-D array of real numbers"),
        ({"A": 2.0}, "column 'A' must be a 1-D array of real numbers, got 0-D"),
        ({"A": np.zeros(2), 1: np.zeros(2)}, "column names must be strings, got 1"),
    ], ids=["2-D", "strings", "complex", "scalar", "int-name"])
    def test_malformed_column_is_named(self, columns, message):
        with pytest.raises(ValueError, match=message):
            TimeSeriesFrame((1990, 1991), columns)

    def test_columns_cannot_change_after_the_check(self):
        columns = {"A": np.zeros(2)}
        frame = TimeSeriesFrame((1990, 1991), columns)
        with pytest.raises(TypeError):
            frame.columns["Z"] = np.array([np.nan])
        columns["Z"] = np.array([np.nan])  # the caller's dict is not the frame's
        assert frame.names == ("A",)

    def test_column_values_cannot_change_after_the_check(self):
        a = np.array([1.0, 2.0, 3.0])
        frame = TimeSeriesFrame((1990, 1991, 1992), {"A": a})
        a[1] = np.nan  # the caller's array is not the frame's
        assert frame.column("A").tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            frame.columns["A"][1] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            frame.column("A").fill(0.0)
        merged = frame.with_columns({"B": np.zeros(3)})
        assert not any(merged.column(name).flags.writeable for name in ("A", "B"))

    @pytest.mark.parametrize("years, error, message", [
        ((1990, 1991, 1991, 1992), errors.NonMonotoneYears,
         "year index must be strictly increasing: 1991 followed by 1991"),
        ((1990, 1991, 1993, 1992), errors.NonAnnualIndex,
         "year index must have unit step (annual data): gap between 1991 and 1993"),
        # the int64 difference of this pair wraps around to 1
        ((2**63 - 1, -2**63), errors.NonMonotoneYears,
         f"year index must be strictly increasing: {2**63 - 1} followed by {-2**63}"),
    ])
    def test_first_bad_year_pair_is_named(self, years, error, message):
        columns = {"A": np.zeros(len(years))}
        with pytest.raises(error) as info:
            TimeSeriesFrame(years, columns)
        assert str(info.value) == message

    @pytest.mark.parametrize("years", [
        tuple(np.arange(1990, 1994)),
        tuple(np.arange(1990, 1994, dtype=np.int32)),
        (1990.0, 1991.0, 1992.0, 1993.0),
        (np.float64(1990.0), 1991, np.int16(1992), 1993.0),
        (2**63 - 2, 2**63 - 1, 2**63),  # past int64, exact as Python ints
        (1990,),
    ])
    def test_unit_step_years_of_any_number_type(self, years):
        frame = TimeSeriesFrame(years, {"A": np.zeros(len(years))})
        assert frame.years == years and frame.n == len(years)

    @pytest.mark.parametrize("years, error, message", [
        (tuple(np.arange(1990, 1994))[::-1], errors.NonMonotoneYears,
         "year index must be strictly increasing: 1993 followed by 1992"),
        # numpy int64 years whose difference wraps around to 1
        (tuple(np.array([2**63 - 1, -2**63])), errors.NonMonotoneYears,
         f"year index must be strictly increasing: {2**63 - 1} followed by {-2**63}"),
        ((1990.0, 1991.5), errors.NonAnnualIndex,
         "year index must have unit step (annual data): gap between 1990.0 and 1991.5"),
        ((1990.0, 1990.0), errors.NonMonotoneYears,
         "year index must be strictly increasing: 1990.0 followed by 1990.0"),
        ((1990, 1991.0, 1991.5), errors.NonAnnualIndex,
         "year index must have unit step (annual data): gap between 1991.0 and 1991.5"),
    ])
    def test_bad_years_of_any_number_type(self, years, error, message):
        with pytest.raises(error) as info:
            TimeSeriesFrame(years, {"A": np.zeros(len(years))})
        assert str(info.value) == message


YEARS3 = (1990, 1991, 1992)


def block3(rows=4):
    """A (rows, 3) block per column: Y, X1 and X2 with distinct values."""
    base = np.arange(rows * 3, dtype=float).reshape(rows, 3)
    return {"Y": base, "X1": base + 100.0, "X2": base + 200.0}


class TestFrameRows:
    def test_rows_equal_the_row_frames(self):
        block = block3()
        frames = TimeSeriesFrame.rows(YEARS3, block)
        assert len(frames) == 4
        for r, frame in enumerate(frames):
            single = TimeSeriesFrame(YEARS3, {name: col[r] for name, col in block.items()})
            assert frame.years == single.years and frame.names == single.names
            for name in frame.names:
                assert frame.column(name).tobytes() == single.column(name).tobytes()
                assert frame.column(name).dtype == single.column(name).dtype

    def test_no_columns_give_no_frames(self):
        assert TimeSeriesFrame.rows(YEARS3, {}) == []

    def test_columns_are_read_only_views_of_a_private_copy(self):
        block = block3()
        frames = TimeSeriesFrame.rows(YEARS3, block)
        block["Y"][1, 1] = np.nan  # the caller's block is not the frames'
        assert frames[1].column("Y").tolist() == [3.0, 4.0, 5.0]
        column = frames[1].column("Y")
        with pytest.raises(ValueError, match="read-only"):
            column[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            column.base[0, 0] = np.nan
        with pytest.raises(ValueError):
            column.flags.writeable = True
        assert column.base is frames[0].column("Y").base
        with pytest.raises(TypeError):
            frames[1].columns["Z"] = np.zeros(3)

    @pytest.mark.parametrize("block, error, message", [
        ({"A": np.zeros(3)}, ValueError,
         "column 'A' must be a 2-D array of real numbers, got 1-D float64"),
        ({"A": np.zeros((2, 3)), 1: np.zeros((2, 3))}, ValueError,
         "column names must be strings, got 1"),
        ({"A": np.zeros((2, 4))}, errors.RaggedRow, "row 0: expected 3 fields, got 4"),
        ({"A": np.zeros((2, 3)), "B": np.zeros((3, 3))}, ValueError,
         "columns must share one shape, got {'A': (2, 3), 'B': (3, 3)}"),
    ], ids=["1-D", "int-name", "ragged", "row-counts"])
    def test_malformed_block_is_named(self, block, error, message):
        with pytest.raises(error) as info:
            TimeSeriesFrame.rows(YEARS3, block)
        assert str(info.value) == message

    def test_no_years(self):
        with pytest.raises(errors.EmptyBody):
            TimeSeriesFrame((), {"A": np.zeros(0)})
        with pytest.raises(errors.EmptyBody):
            TimeSeriesFrame.rows((), {"A": np.zeros((2, 0))})

    def test_bad_years_are_checked_once_for_the_block(self):
        with pytest.raises(errors.NonAnnualIndex):
            TimeSeriesFrame.rows((1990, 1992, 1993), block3())

    def test_first_non_finite_row_then_column_then_index(self):
        block = block3(rows=6)
        block["Y"][3, 0] = np.inf  # a later row
        block["X2"][2, 0] = np.nan  # the first bad row, a later column
        block["X1"][2, 2] = -np.inf  # the first bad row and column...
        block["X1"][2, 1] = np.nan  # ...at its first bad index
        with pytest.raises(errors.MissingValue) as info:
            TimeSeriesFrame.rows(YEARS3, block)
        assert str(info.value) == "row 2, column 'X1': missing value"
        with pytest.raises(errors.MissingValue) as single:
            TimeSeriesFrame(YEARS3, {name: col[2] for name, col in block.items()})
        assert str(single.value) == str(info.value)


class TestNaturalLog:
    def test_log_columns_prefixed(self):
        frame = load_csv(CSV_OK)
        out = natural_log(frame, ("GDP",))
        np.testing.assert_allclose(out.column("LGDP"), np.log(frame.column("GDP")))
        assert "GDP" in out.names

    def test_powers_of_e(self):
        e = np.e
        frame = load_csv(f"Year,CO2\n1990,1\n1991,{e!r}\n1992,{e * e!r}\n")
        out = natural_log(frame, ("CO2",))
        np.testing.assert_allclose(out.column("LCO2"), [0.0, 1.0, 2.0], atol=1e-12)

    def test_scalar_value(self):
        frame = load_csv("Year,CO2\n1990,5000\n")
        out = natural_log(frame, ("CO2",))
        # ln(5000) from an arbitrary-precision calculator
        assert out.column("LCO2")[0] == pytest.approx(8.517193191416238, abs=1e-12)

    def test_nonpositive_rejected(self):
        frame = load_csv("Year,A\n1990,1\n1991,0\n")
        with pytest.raises(errors.NonPositiveValue):
            natural_log(frame, ("A",))


class TestDifference:
    def test_first_difference(self):
        np.testing.assert_allclose(difference([1.0, 3.0, 6.0]), [2.0, 3.0])

    def test_second_difference(self):
        np.testing.assert_allclose(difference([1.0, 3.0, 6.0, 10.0], 2), [1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(errors.SeriesTooShort):
            difference([1.0], 1)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            difference([1.0, 2.0], 0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40),
    )
    def test_linearity(self, a, b):
        n = min(len(a), len(b))
        a = np.asarray(a[:n])
        b = np.asarray(b[:n])
        np.testing.assert_allclose(
            difference(a + b), difference(a) + difference(b), atol=1e-6
        )


class TestLagMatrix:
    def test_hand_example(self):
        out = lag_matrix([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(out, [[2.0, 1.0], [3.0, 2.0]])

    def test_row_alignment(self):
        s = np.arange(10.0)
        out = lag_matrix(s, 3)
        # row for time t holds s[t-1], s[t-2], s[t-3]
        np.testing.assert_allclose(out[0], [2.0, 1.0, 0.0])
        np.testing.assert_allclose(out[-1], [8.0, 7.0, 6.0])

    def test_too_short(self):
        with pytest.raises(errors.SeriesTooShort):
            lag_matrix([1.0, 2.0], 2)

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            lag_matrix([1.0, 2.0, 3.0], 0)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec("Y", ("X1", "X2"))
        assert spec.k == 2
        assert spec.max_p == 2 and spec.max_q == 2

    def test_no_regressors(self):
        with pytest.raises(ValueError):
            ModelSpec("Y", ())

    def test_dependent_among_regressors(self):
        with pytest.raises(ValueError):
            ModelSpec("Y", ("Y", "X"))

    def test_bad_deterministic(self):
        # the unit roots take their deterministic terms from PipelineConfig,
        # which checks them; the model has no such field
        with pytest.raises(TypeError):
            ModelSpec("Y", ("X",), deterministic="quadratic")

    def test_bad_level(self):
        # PipelineConfig checks the level; the model has no such field
        with pytest.raises(TypeError):
            ModelSpec("Y", ("X",), level=0.2)

    def test_bad_lag_limits(self):
        with pytest.raises(ValueError):
            ModelSpec("Y", ("X",), max_p=0)
        with pytest.raises(ValueError):
            ModelSpec("Y", ("X",), max_q=-1)

    @pytest.mark.parametrize("field, value", [("max_p", 2.5), ("max_p", True), ("max_q", "1"),
                                              ("max_q", False)])
    def test_lag_limits_are_ints_not_bools(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelSpec("Y", ("X",), **{field: value})

    def test_regressors_as_one_string(self):
        # a str is not split into one-letter names
        with pytest.raises(ValueError, match="list of names"):
            ModelSpec("Y", "X1")

    def test_repeated_regressor(self):
        with pytest.raises(ValueError, match="distinct"):
            ModelSpec("Y", ("X1", "X1"))

    def test_names_are_strings(self):
        with pytest.raises(ValueError, match="strings"):
            ModelSpec("Y", ("X1", 2))
        with pytest.raises(ValueError, match="strings"):
            ModelSpec(None, ("X1",))

    def test_validate_against(self):
        frame = load_csv(CSV_OK)
        ModelSpec("CO2", ("GDP",)).validate_against(frame)
        with pytest.raises(errors.UnknownVariable):
            ModelSpec("CO2", ("POP",)).validate_against(frame)
