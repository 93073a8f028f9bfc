"""Differential tests of the scan's label ids: PointLabels, which labels
tuples of points by pair codes on point indices, against the reference
orbit_label on the tuples themselves, over every presentation shape and
through pushes and pops.  The records that LimitStructure.qf_type and
PointLabels decode from pair codes are checked against the reference
qf_type, which reads every atom through eval_relation."""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from canonfn import AutLimit, PowerGroup, StabilizerGroup, builtin_limit
from canonfn.formats import load_forbidden_age
from canonfn.fraisse import GenericLimit, LimitStructure
from canonfn.groups import PointLabels, point

import oracles
from oracles import orbit_label

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

DLO = AutLimit(builtin_limit("dlo"))
RADO = AutLimit(builtin_limit("rado"))

PRESENTATIONS = {
    "aut(dlo)": DLO,
    "aut(rado)": RADO,
    "aut(ordered-rado)": AutLimit(builtin_limit("ordered-rado")),
    "aut(pureset)": AutLimit(builtin_limit("pureset")),
    # Both constants are among the first points, so constants and scanned
    # points meet in the equality bit.
    "stab(aut(dlo); 1/2, 0)": StabilizerGroup(DLO, (F(1, 2), F(0))),
    "stab(aut(rado); 0)": StabilizerGroup(RADO, (F(0),)),
    "power(aut(dlo),2)": PowerGroup(DLO, 2),
    "stab(power(aut(dlo),2); (0,1))": StabilizerGroup(PowerGroup(DLO, 2), ((F(0), F(1)),)),
    # A unary symbol next to a binary one: colored loopless digraphs.
    "forbidden P/1, E/2": AutLimit(GenericLimit(
        load_forbidden_age("size 1; E(0,0)\nsize 1; P(0); E(0,0)\n"), name="pe")),
    # A ternary symbol: the one fallback, orbit_label as the key.
    "forbidden R/3": AutLimit(GenericLimit(
        load_forbidden_age("size 1; R(0,0,0)\n"), name="r3")),
    # All three arities.  A/3 comes first in the signature, so the codes of
    # E and P sit past its unread bit; an A loop allows an E loop.
    "forbidden A/3, E/2, P/1": AutLimit(GenericLimit(
        load_forbidden_age("size 1; E(0,0)\nsize 1; P(0); E(0,0)\nsize 1; A(0,0,0)\n"),
        name="aep")),
}

POINTS = 12


@pytest.mark.parametrize("name", PRESENTATIONS)
@SETTINGS
@given(data=st.data())
def test_ids_are_orbit_labels(name, data):
    g = PRESENTATIONS[name]
    pool = [point(g, i) for i in range(POINTS)]
    labels = PointLabels(g)
    by_id: dict = {}
    by_label: dict = {}
    # An int pushes that point of the pool, None pops the last point.
    ops = data.draw(st.lists(st.one_of(st.integers(0, POINTS - 1), st.none()),
                             min_size=1, max_size=16))
    for op in ops:
        if op is None:
            if labels.points:
                labels.pop()
            continue
        labels.append(pool[op])
        n = len(labels.points)
        tuples = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
                                    min_size=1, max_size=6))
        for idx in map(tuple, tuples):
            i = labels.id_of(idx)
            label = orbit_label(g, tuple(labels.points[j] for j in idx))
            assert labels.labels[i] == label
            # Equal ids exactly when equal labels, over the whole history.
            assert by_id.setdefault(i, label) == label
            assert by_label.setdefault(label, i) == i


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_a_popped_index_is_read_again(name):
    # Label every pair, pop back to the first point, push the others in
    # reverse order so each later index holds another point, and label every
    # pair again: codes of the first point with a popped index are stale.
    g = PRESENTATIONS[name]
    pool = [point(g, i) for i in range(POINTS)]
    labels = PointLabels(g)
    for order in (pool, pool[:1] + pool[:0:-1]):
        while len(labels.points) > 1:
            labels.pop()
        for p in order[len(labels.points):]:
            labels.append(p)
        for i in range(POINTS):
            for j in range(POINTS):
                t = (order[i], order[j])
                assert labels.labels[labels.id_of((i, j))] == orbit_label(g, t)


# ---------------------------------------------------------------------------
# rows against single tuples, and labels built from codes

LIMITS = {name: builtin_limit(name) for name in ("dlo", "rado", "ordered-rado")}


@st.composite
def row_presentations(draw):
    """aut, power or stab (of aut or power, 1-2 constants) over dlo, rado
    or ordered-rado; a constant may be a point of the pool."""
    limit = LIMITS[draw(st.sampled_from(sorted(LIMITS)))]
    aut = AutLimit(limit)
    shape = draw(st.sampled_from(["aut", "power", "stab", "stab-power"]))
    if shape == "aut":
        return aut
    base = aut if shape == "stab" else PowerGroup(aut, 2)
    if shape == "power":
        return base
    element = st.integers(0, 5).map(limit.element)
    constant = element if base is aut else st.tuples(element, element)
    return StabilizerGroup(base, tuple(draw(st.lists(constant, min_size=1, max_size=2))))


@SETTINGS
@given(g=row_presentations(), data=st.data())
def test_row_ids_are_single_tuple_ids(g, data):
    # Two interners meet the same points and tuples: rows keys one side by
    # ids(prefix) first, so its labels are built from row codes; single
    # keys the other by id_of only.  A row id names the label id_of gives
    # on the same side, and every label is orbit_label of its tuple.
    pool = [point(g, i) for i in range(POINTS)]
    rows, single = PointLabels(g), PointLabels(g)
    ops = data.draw(st.lists(st.one_of(st.integers(0, POINTS - 1), st.none()),
                             min_size=1, max_size=10))
    for op in ops:
        for labels in (rows, single):
            if op is None:
                if labels.points:
                    labels.pop()
            else:
                labels.append(pool[op])
        n = len(rows.points)
        if not n:
            continue
        prefix = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=2)))
        ids = rows.ids(prefix)
        assert len(ids) == n
        for e, i in enumerate(ids):
            idx = prefix + (e,)
            label = orbit_label(g, tuple(rows.points[j] for j in idx))
            assert rows.labels[i] == label
            assert rows.id_of(idx) == i
            assert single.labels[single.id_of(idx)] == label
        # A row keys a tuple as id_of does: no label has two keys.
        assert len(rows._ids) == len(rows.labels)


def test_dlo_rank_codes_match_pair_codes():
    # DloLimit reads a row's codes off one rank of the column, with ties
    # between equal values of either type; the generic reader asks
    # pair_codes of every pair.
    dlo = LIMITS["dlo"]
    values = [F(1, 2), 0, F(-3), F(0), F(1, 2), F(7, 3), 2, F(2), F(10**30 + 1, 10**30)]
    rank_row = dlo.code_reader(values)
    pair_row = LimitStructure.code_reader(dlo, values)
    for i in range(len(values)):
        assert rank_row(i) == pair_row(i)


# ---------------------------------------------------------------------------
# qf_type and pair codes against the per-atom definition

QF_LIMITS = {name: PRESENTATIONS[name].limit for name in (
    "aut(dlo)", "aut(rado)", "aut(ordered-rado)", "aut(pureset)",
    "forbidden P/1, E/2", "forbidden R/3", "forbidden A/3, E/2, P/1")}
# Past the first points: the first A atoms of aep, loops on 22 and 29.
QF_INDICES = list(range(POINTS)) + [22, 29]


def codes_by_definition(limit, x, y, diagonal):
    """The codes of (x, y) and (y, x) that record_of_codes reads, taken off
    the reference record of (x, y): bit 0 for equality, bit s + 1 for the
    s-th symbol, a unary one only on the diagonal, none of arity > 2."""
    record = oracles.qf_type(limit, (x, y))
    there = back = int(record.pattern == (0, 0))
    for s, sym in enumerate(limit.age.signature.symbols, 1):
        if sym.arity == 1 and diagonal:
            there |= ((sym.name, (0,)) in record.atoms) << s
        elif sym.arity == 2:
            there |= ((sym.name, (0, 1)) in record.atoms) << s
            back |= ((sym.name, (1, 0)) in record.atoms) << s
    return there, there if diagonal else back


@settings(SETTINGS, max_examples=300)
@given(name=st.sampled_from(sorted(QF_LIMITS)), data=st.data())
def test_qf_type_is_the_per_atom_definition(name, data):
    # Tuples of 1-6 elements drawn from a few, so that elements repeat.
    limit = QF_LIMITS[name]
    few = data.draw(st.lists(st.sampled_from(QF_INDICES), min_size=1, max_size=4, unique=True))
    t = tuple(map(limit.element, data.draw(st.lists(st.sampled_from(few), min_size=1,
                                                    max_size=6))))
    assert limit.qf_type(t) == oracles.qf_type(limit, t)
    for i, x in enumerate(t):
        for j, y in enumerate(t):
            assert limit.pair_codes(x, y, i == j) == codes_by_definition(limit, x, y, i == j)
