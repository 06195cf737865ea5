import hashlib

import pytest

from ardlkit import errors
from ardlkit.ardl import BOUNDS_TABLES
from ardlkit.critical import critical_values
from ardlkit.unitroot import adf

from test_unitroot import RW

SIZES = (*range(10, 1001), 2000, 10**4, 10**6, 10**9, 10**10)
RESIDUALS = (*range(1, 1001), 2000, 10**4, 10**6, 10**9, 10**10)
# sha256 of the lines below, recorded from the per-module tables and
# readers that critical.py replaced
DIGEST = "176813eed38a3de244f2bd950addf9bf7b864fec9849f2400f166e2dc6a29940"


def test_every_critical_value_keeps_its_bits():
    lines = []
    for case in ("none", "constant", "constant_trend"):
        lines += [repr(tuple(critical_values("adf", case, t).items())) for t in SIZES]
    lines += [repr(tuple(critical_values("dfgls", "constant_trend", t).items())) for t in SIZES]
    lines.append(repr(tuple(critical_values("stability", "cusum", 1).items())))
    lines += [repr(tuple(critical_values("stability", "cusum_sq", m).items()))
              for m in RESIDUALS]
    for table in BOUNDS_TABLES:
        lines += [repr(tuple(critical_values(table, "III", k).items())) for k in range(1, 6)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


def test_pp_and_dfgls_read_the_dickey_fuller_surfaces():
    for t in (20, 33, 100, 10**6):
        for case in ("none", "constant", "constant_trend"):
            assert critical_values("pp", case, t) == critical_values("adf", case, t)
        for case in ("none", "constant"):
            assert critical_values("dfgls", case, t) == critical_values("adf", "none", t)


def test_cusum_constants_hold_at_every_m():
    assert {tuple(critical_values("stability", "cusum", m).items()) for m in RESIDUALS} == {
        ((0.01, 1.143), (0.05, 0.948), (0.10, 0.850))}


@pytest.mark.parametrize("table", BOUNDS_TABLES)
@pytest.mark.parametrize("k", [0, 6])
def test_bounds_beyond_their_k_are_a_failed_precondition(table, k):
    with pytest.raises(errors.NoCriticalValues, match=f"at k = {k}: the table covers k = 1..5"):
        critical_values(table, "III", k)


def test_unknown_table():
    with pytest.raises(ValueError, match="no critical-value table"):
        critical_values("adf", "constant_drift", 100)


def test_every_read_is_its_own_dict():
    first = critical_values("adf", "constant", 119)
    first["5%"] = 0.0
    assert critical_values("adf", "constant", 119)["5%"] != 0.0
    a, b = adf(RW, max_lag=0), adf(RW, max_lag=0)
    assert a.critical_values == b.critical_values
    assert a.critical_values is not b.critical_values
