import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from canonfn.rationals import (
    calkin_wilf,
    calkin_wilf_index,
    enumeration_position,
    format_rational,
    index_of_rational,
    least_enum_in_interval,
    least_enum_with_position,
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


def _simplest_by_fractions(lo, hi):
    """The simplest rational strictly between lo >= 0 and hi (None for
    infinity), by its continued fraction: the least integer above lo when
    one lies below hi, else floor(lo) plus the reciprocal of the simplest
    rational between the reciprocals of the remainders."""
    n = math.floor(lo)
    if hi is None or n + 1 < hi:
        return F(n + 1)
    return n + 1 / _simplest_by_fractions(1 / (hi - n), None if lo == n else 1 / (lo - n))


def _tree_depth(q):
    """Stern-Brocot depth of the positive rational q: the sum of its
    continued-fraction terms, less one."""
    n, d, depth = q.numerator, q.denominator, -1
    while d:
        depth += n // d
        n, d = d, n % d
    return depth


def _least_by_fractions(lo, hi, exclude_zero):
    """The enumeration-least rational in (lo, hi), None for an empty
    interval: 0 when it is inside and counts, else the simplest rational
    of each sign, the positive one first at equal Calkin-Wilf index.  A side
    within 62 tree levels precedes a side below them; two sides below are
    compared by calkin_wilf_index, which raises past 2^20 levels."""
    if lo is not None and hi is not None and lo >= hi:
        return None
    if (lo is None or lo < 0) and (hi is None or hi > 0) and not exclude_zero:
        return F(0)
    pos = neg = None
    if hi is None or hi > 0:
        pos = _simplest_by_fractions(F(0) if lo is None or lo < 0 else lo, hi)
    if lo is None or lo < 0:
        neg = _simplest_by_fractions(F(0) if hi is None or hi > 0 else -hi, None if lo is None else -lo)
    if neg is None:
        return pos
    if pos is None:
        return -neg
    shallow = [_tree_depth(q) <= 62 for q in (pos, neg)]
    if any(shallow):
        return pos if shallow[0] and (not shallow[1] or calkin_wilf_index(pos) <= calkin_wilf_index(neg)) else -neg
    return pos if calkin_wilf_index(pos) <= calkin_wilf_index(neg) else -neg


def _outcome(least, lo, hi, exclude_zero):
    try:
        return least(lo, hi, exclude_zero)
    except ValueError as exc:
        return str(exc)


FAR = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**3))
NEAR = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
EPSILON = F(1, 10**9)


@st.composite
def intervals(draw):
    """Open intervals of both signs: drawn ends (None infinite), narrow
    ones 1/10^9 wide at a drawn end or straddling 0 by a drawn share, and
    ones 1/10^9 past a drawn end on both sides."""
    kind = draw(st.sampled_from(["ends", "narrow", "straddle", "around"]))
    end = draw(NEAR | FAR)
    if kind == "ends":
        return draw(st.none() | NEAR | FAR), draw(st.none() | NEAR | FAR)
    if kind == "narrow":
        return end, end + EPSILON
    if kind == "straddle":
        share = draw(st.integers(1, 99))
        return -EPSILON * share / 100, EPSILON * (100 - share) / 100
    return end - EPSILON, end + EPSILON


@settings(max_examples=600, deadline=None, derandomize=True)
@given(intervals(), st.booleans())
@example((F(-1, 10**9), F(1, 10**9)), True)
@example((F(-1, 2), F(1, 10**9)), True)
@example((F(0), F(1, 10**12)), False)
@example((None, None), True)
def test_least_enum_positions(interval, exclude_zero):
    # The descent's position is the enumeration position of its answer, or
    # None exactly when the answer lies more than 62 levels down the tree.
    lo, hi = interval
    want = _outcome(_least_by_fractions, lo, hi, exclude_zero)
    assert _outcome(least_enum_in_interval, lo, hi, exclude_zero) == want
    if isinstance(want, str):    # too deep on both sides to be ordered
        with pytest.raises(ValueError, match="too deep in the enumeration"):
            least_enum_with_position(lo, hi, exclude_zero)
        return
    got, position = least_enum_with_position(lo, hi, exclude_zero)
    assert got == want
    if got is None:
        assert position is None
    elif got == 0:
        assert position == 0
    elif _tree_depth(abs(got)) > 62:
        assert position is None
    else:
        assert position == index_of_rational(got) - exclude_zero
    if got is not None:
        assert enumeration_position(got, exclude_zero) == position


def test_positions_at_the_cap():
    # 1/63 lies 62 levels down, 1/64 one more.
    assert least_enum_with_position(F(0), F(1, 62)) == (F(1, 63), index_of_rational(F(1, 63)))
    assert least_enum_with_position(F(0), F(1, 63)) == (F(1, 64), None)
    assert least_enum_with_position(F(-1, 62), F(0), True) == (
        F(-1, 63), index_of_rational(F(-1, 63)) - 1)
    assert enumeration_position(F(1, 64)) is None
    assert enumeration_position(F(63, 64), True) is None
    assert enumeration_position(F(-62, 63)) == index_of_rational(F(-62, 63))
    assert enumeration_position(F(10**12)) is None


def test_a_side_within_the_cap_precedes_a_deep_one():
    # The positive side, 1/(10^9 + 1), is too deep for calkin_wilf_index;
    # the negative side, -1/3, has a position, so it comes first.
    assert least_enum_with_position(F(-1, 2), F(1, 10**9), True) == (
        F(-1, 3), index_of_rational(F(-1, 3)) - 1)
    with pytest.raises(ValueError, match="rational 1/1000000001 is too deep"):
        least_enum_in_interval(F(-1, 10**9), F(1, 10**9), exclude_zero=True)


def test_format_parse_round_trip():
    for q in (F(0), F(3), F(-4), F(1, 2), F(-22, 7)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    with pytest.raises(ValueError):
        parse_rational("three")
