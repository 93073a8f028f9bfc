from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from canonfn.rationals import (
    calkin_wilf,
    calkin_wilf_index,
    format_rational,
    index_of_rational,
    least_enum_in_interval,
    parse_rational,
    rational_of_index,
)


def test_calkin_wilf_prefix():
    want = [F(1), F(1, 2), F(2), F(1, 3), F(3, 2), F(2, 3), F(3), F(1, 4)]
    assert [calkin_wilf(i) for i in range(8)] == want


def test_signed_enumeration_prefix():
    want = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2), F(1, 3)]
    assert [rational_of_index(i) for i in range(8)] == want


def test_index_round_trip():
    for i in range(200):
        assert index_of_rational(rational_of_index(i)) == i


def test_calkin_wilf_index_matches_sequence():
    for i in range(128):
        assert calkin_wilf_index(calkin_wilf(i)) == i


def test_simplest_in():
    # Above 0 the enumeration-least rational is the Stern-Brocot simplest one.
    assert least_enum_in_interval(F(0), F(1, 2)) == F(1, 3)
    assert least_enum_in_interval(F(10), F(20)) == F(11)
    assert least_enum_in_interval(F(5, 8), F(2, 3)) == F(7, 11)
    assert least_enum_in_interval(F(2), None) == F(3)


def test_least_enum_in_interval():
    assert least_enum_in_interval(F(-1), F(1)) == F(0)
    assert least_enum_in_interval(F(-1, 8), F(0)) == F(-1, 9)
    assert least_enum_in_interval(F(0), F(1, 8)) == F(1, 9)
    assert least_enum_in_interval(None, F(-2)) == F(-3)
    assert least_enum_in_interval(F(20), None) == F(21)
    assert least_enum_in_interval(F(-1, 3), F(1, 3), exclude_zero=True) == F(1, 4)
    assert least_enum_in_interval(F(2), F(2)) is None


def test_least_enum_agrees_with_scan():
    intervals = [
        (F(1, 3), F(3, 4)), (F(-5, 2), F(-1, 3)), (F(-2, 7), F(5, 9)),
        (F(3), F(4)), (F(-9, 5), F(-8, 5)),
    ]
    for lo, hi in intervals:
        found = least_enum_in_interval(lo, hi)
        scan = next(r for r in map(rational_of_index, range(100000)) if lo < r < hi)
        assert found == scan


def test_deep_intervals_descend_by_division():
    # A million same-side Stern-Brocot steps: one division each way.
    assert least_enum_in_interval(F(0), F(1, 10**6)) == F(1, 1000001)
    assert least_enum_in_interval(F(1, 1000001), F(1, 1000000)) == F(2, 2000001)
    assert least_enum_in_interval(F(-1, 1000000), F(-1, 1000001)) == F(-2, 2000001)


PREFIX = [rational_of_index(i) for i in range(2048)]

bounds = st.none() | st.builds(F, st.integers(-12, 12), st.integers(1, 9))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(bounds, bounds, st.booleans())
def test_least_enum_is_first_enumerated_hit(lo, hi, exclude_zero):
    got = least_enum_in_interval(lo, hi, exclude_zero=exclude_zero)
    if lo is not None and hi is not None and lo >= hi:
        assert got is None
        return
    inside = lambda r: (lo is None or lo < r) and (hi is None or r < hi)
    hit = next((r for r in PREFIX if inside(r) and not (exclude_zero and r == 0)), None)
    if hit is not None:
        assert got == hit
    else:
        assert got is not None and inside(got) and got != 0
        assert index_of_rational(got) >= len(PREFIX)


def _simplest_by_mediants(lo, hi):
    """The Stern-Brocot descent one mediant per step: the simplest rational
    in (lo, hi) for lo >= 0."""
    ln, ld, hn, hd = 0, 1, 1, 0
    while True:
        mn, md = ln + hn, ld + hd
        if mn * lo.denominator <= lo.numerator * md:
            ln, ld = mn, md
        elif hi is not None and mn * hi.denominator >= hi.numerator * md:
            hn, hd = mn, md
        else:
            return F(mn, md)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.builds(F, st.integers(0, 12), st.integers(1, 9)),
       st.none() | st.builds(F, st.integers(-400, 400), st.integers(1, 400)))
def test_simplest_in_matches_mediant_walk(lo, hi):
    if hi is not None and hi <= lo:
        assert least_enum_in_interval(lo, hi) is None
    else:
        assert least_enum_in_interval(lo, hi) == _simplest_by_mediants(lo, hi)


def test_format_parse_round_trip():
    for q in (F(0), F(3), F(-4), F(1, 2), F(-22, 7)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    with pytest.raises(ValueError):
        parse_rational("three")
