import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from canonfn import (
    AutLimit,
    PartialAutomorphism,
    PowerGroup,
    PresentationError,
    StabilizerGroup,
    TypeMismatch,
    automorphism_extending,
    builtin_limit,
    count_orbits_g,
    format_label,
    orbit_label,
    orbit_labels,
    qf_type,
)
from canonfn.formats import load_structures, parse_group_spec
from canonfn.fraisse import (
    ARITY_LIMIT,
    GRAPH_SIG,
    FiniteStructure,
    ForbiddenSubstructuresAge,
    GenericLimit,
    count_types,
    enumerate_types,
)
from canonfn.groups import columns, joined, label_key, point, reindex_label

import oracles


class TestOrbitLabels:
    def test_aut_pair(self, dlo, aut_dlo):
        assert orbit_label(aut_dlo, (F(1), F(2))) == qf_type(dlo, (F(1), F(2)))

    def test_stabilizer_appends_constants(self, dlo, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        assert orbit_label(stab, (F(-3),)) == qf_type(dlo, (F(-3), F(0)))

    def test_power_splits_columns(self, dlo, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        label = orbit_label(power, ((F(1), F(5)), (F(2), F(3))))
        assert label == (qf_type(dlo, (F(1), F(2))), qf_type(dlo, (F(5), F(3))))
        assert format_label(label) == "(1<2 * 2<1)"


class TestSameOrbit:
    def test_same_order_pattern(self, aut_dlo):
        assert orbit_label(aut_dlo, (F(1), F(2))) == orbit_label(aut_dlo, (F(7), F(9)))

    def test_stabilizer_separates_signs(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        assert orbit_label(stab, (F(-1),)) != orbit_label(stab, (F(1),))

    def test_power_componentwise(self, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        assert (orbit_label(power, ((F(0), F(0)), (F(1), F(1))))
                == orbit_label(power, ((F(0), F(5)), (F(1), F(9)))))


class TestCounting:
    def test_stabilizer_point_types(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        assert count_orbits_g(stab, 1) == 3

    def test_power_counts(self, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        assert count_orbits_g(power, 1) == 1
        assert count_orbits_g(power, 2) == 9
        for k in (1, 2, 3):
            assert count_orbits_g(power, k) == count_orbits_g(aut_dlo, k) ** 2

    def test_orbit_labels_sorted(self, aut_dlo):
        labels = orbit_labels(StabilizerGroup(aut_dlo, (F(0),)), 1)
        keys = [label_key(l) for l in labels]
        assert keys == sorted(keys) and len(labels) == 3


class TestCoarsening:
    def test_stabilizer_refines_base_orbits(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        samples = [(F(-2), F(1)), (F(1), F(2)), (F(-3), F(-1)), (F(1, 2), F(3))]
        for s, t in itertools.product(samples, repeat=2):
            if orbit_label(stab, s) == orbit_label(stab, t):
                assert orbit_label(aut_dlo, s) == orbit_label(aut_dlo, t)

    def test_power_decomposition(self, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        pts = [(F(0), F(1)), (F(2), F(0)), (F(1), F(1)), (F(-1), F(3))]
        for s, t in itertools.product(itertools.product(pts, repeat=2), repeat=2):
            expected = all(
                orbit_label(aut_dlo, tuple(p[i] for p in s))
                == orbit_label(aut_dlo, tuple(p[i] for p in t))
                for i in range(2)
            )
            assert (orbit_label(power, s) == orbit_label(power, t)) == expected


class TestReindexLabel:
    def test_stabilizer_keeps_constants(self, dlo, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        label = orbit_label(stab, (F(1), F(-1)))
        swapped = reindex_label(stab, label, (1, 0))
        assert swapped == orbit_label(stab, (F(-1), F(1)))


class TestPartialAutomorphisms:
    def test_certified_and_extends_in_gap(self, dlo, aut_dlo):
        germ = automorphism_extending(aut_dlo, {F(1): F(10), F(2): F(20)})
        image = germ.extend(F(3, 2), [dlo.element(i) for i in range(4096)])
        assert F(10) < image < F(20)
        # 11 is the enumeration-least rational strictly between 10 and 20.
        assert image == F(11) == dlo.element(4093)
        assert germ.verify()

    def test_empty_germ(self, dlo, aut_dlo):
        germ = automorphism_extending(aut_dlo, {})
        assert germ.mapping == {}
        assert germ.extend(F(7), [dlo.element(i) for i in range(8)]) == F(0)

    def test_type_mismatch(self, aut_dlo):
        with pytest.raises(TypeMismatch):
            automorphism_extending(aut_dlo, {F(1): F(5), F(2): F(4)})

    def test_ten_extensions_keep_certificate(self, dlo, aut_dlo):
        germ = automorphism_extending(aut_dlo, {F(0): F(1)})
        probes = [F(1), F(-1), F(1, 2), F(5), F(-3), F(2, 3), F(7, 2), F(-1, 4), F(9), F(1, 8)]
        prefix = [dlo.element(i) for i in range(4096)]
        for x in probes:
            assert germ.extend(x, prefix) is not None
        assert germ.verify()
        dom, rng = tuple(germ.mapping), tuple(germ.mapping.values())
        assert qf_type(dlo, dom) == qf_type(dlo, rng)

    def test_extension_follows_the_limit_not_its_name(self, tmp_path):
        # A structures file may call a generic limit `dlo`; its germs still
        # extend over an enumeration prefix by the type, never by rational
        # order.
        tf = tmp_path / "triangle-free.txt"
        tf.write_text(
            "size 1; edge(0,0)\n"
            "size 2; edge(0,1)\n"
            "size 3; edge(0,1); edge(1,0); edge(0,2); edge(2,0); edge(1,2); edge(2,1)\n"
        )
        limits = load_structures(f"structure dlo = forbidden:{tf}\n"
                                 f"structure tf = forbidden:{tf}\n")
        for limit in limits.values():
            germ = PartialAutomorphism(limit, [(0, 1)])
            assert germ.extend(2, [limit.element(i) for i in range(8)]) == 4
            assert germ.verify()

    def test_rejects_non_aut_presentation(self, aut_dlo):
        with pytest.raises(PresentationError):
            automorphism_extending(PowerGroup(aut_dlo, 2), {})


class TestPresentations:
    def test_allowed_shapes(self, dlo, aut_dlo):
        readings = [
            (aut_dlo, 1, ()),
            (PowerGroup(aut_dlo, 2), 2, ()),
            (StabilizerGroup(aut_dlo, [F(0)]), 1, (F(0),)),
            (StabilizerGroup(PowerGroup(aut_dlo, 2), ((F(0), F(1)),)), 2, ((F(0), F(1)),)),
        ]
        for g, m, constants in readings:
            assert (g.limit, g.m, g.constants) == (dlo, m, constants)

    def test_rejected_shapes(self, aut_dlo):
        rado = AutLimit(builtin_limit("rado"))
        stab = StabilizerGroup(aut_dlo, (F(0),))
        cases = [
            (lambda: PowerGroup(aut_dlo, 0), "power arity must be at least 2"),
            (lambda: PowerGroup(aut_dlo, 1), "power arity must be at least 2"),
            (lambda: PowerGroup(PowerGroup(aut_dlo, 2), 2),
             "power base must be an automorphism group"),
            (lambda: StabilizerGroup(aut_dlo, ()), "stabilizer needs at least one constant"),
            (lambda: StabilizerGroup(stab, (F(1),)), "stabilizer base must be aut or power(aut)"),
            (lambda: StabilizerGroup(aut_dlo, ((F(0), F(1)),)),
             "constant (0, 1) does not fit aut(dlo), which acts on 1-column points"),
            (lambda: StabilizerGroup(aut_dlo, ((F(0),),)),
             "constant (0) does not fit aut(dlo), which acts on 1-column points"),
            (lambda: StabilizerGroup(PowerGroup(aut_dlo, 2), (F(0),)),
             "constant (0) does not fit power(aut(dlo),2), which acts on 2-column points"),
            (lambda: StabilizerGroup(rado, (F(-1),)), "constant -1 is not an element of rado"),
        ]
        for make, message in cases:
            with pytest.raises(PresentationError) as info:
                make()
            assert str(info.value) == message


class TestLabelStrings:
    def test_pureset_format(self, pureset):
        label = orbit_label(AutLimit(pureset), (0, 1, 0))
        assert format_label(label) == "1=3|2"


def diagonal_tuples(m):
    """Reference diagonal enumeration of N^m: by coordinate sum, then
    lexicographic, filtering all of range(total+1)^m per diagonal."""
    total = 0
    while True:
        for combo in itertools.product(range(total + 1), repeat=m):
            if sum(combo) == total:
                yield combo
        total += 1


@pytest.mark.parametrize("m", [2, 3])
def test_power_points_follow_the_diagonal_enumeration(dlo, aut_dlo, m):
    power = PowerGroup(aut_dlo, m)
    expected = itertools.islice(diagonal_tuples(m), 2000)
    assert [point(power, n) for n in range(2000)] == [
        tuple(dlo.element(i) for i in combo) for combo in expected]


class TestStabilizerConstantsAreElements:
    @pytest.mark.parametrize("c", [F(-1), F(1, 2)])
    def test_index_limits_take_nonnegative_integers(self, c):
        rado = load_structures("structure r = builtin:rado\n")["r"]
        with pytest.raises(PresentationError, match="not an element of rado"):
            StabilizerGroup(AutLimit(rado), (c,))
        StabilizerGroup(AutLimit(rado), (F(3),))

    def test_every_rational_is_a_dlo_element(self, aut_dlo):
        StabilizerGroup(aut_dlo, (F(-1, 2),))


# ---------------------------------------------------------------------------
# the flat (limit, m, constants) reading against the recursive one

RADO = builtin_limit("rado")
RADO.ensure_size(12)
LIMITS = [builtin_limit("dlo"), builtin_limit("pureset"), RADO]


@st.composite
def presentations(draw):
    limit = draw(st.sampled_from(LIMITS))
    aut = AutLimit(limit)
    element = st.integers(0, 7).map(limit.element)
    shape = draw(st.sampled_from(["aut", "power", "stab", "stab-power"]))
    if shape == "aut":
        return aut
    if shape == "power":
        return PowerGroup(aut, draw(st.sampled_from([2, 3])))
    if shape == "stab":
        return StabilizerGroup(aut, tuple(draw(st.lists(element, min_size=1, max_size=2))))
    pairs = st.lists(st.tuples(element, element), min_size=1, max_size=2)
    return StabilizerGroup(PowerGroup(aut, 2), tuple(draw(pairs)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(g=presentations(), data=st.data())
def test_flat_reading_matches_recursive_reference(g, data):
    points = [point(g, n) for n in range(8)]
    assert points == [oracles.point(g, n) for n in range(8)]
    k = data.draw(st.integers(1, 3))
    t = tuple(data.draw(st.lists(st.sampled_from(points), min_size=k, max_size=k)))
    label = orbit_label(g, t)
    assert label == oracles.orbit_label(g, t)
    sigma = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)))
    assert reindex_label(g, label, sigma) == oracles.reindex_label(g, label, sigma)
    k = data.draw(st.integers(1, 2))
    assert orbit_labels(g, k) == oracles.orbit_labels(g, k)
    assert count_orbits_g(g, k) == oracles.count_orbits_g(g, k)


@pytest.mark.parametrize("spec,k", [
    ("aut(dlo)", 4), ("aut(rado)", 3), ("aut(ordered-rado)", 3),
    ("stab(aut(dlo); 0)", 3), ("stab(aut(rado); 2,5)", 2),
    ("power(aut(dlo),2)", 3), ("power(aut(rado),3)", 2),
    ("stab(power(aut(dlo),2); (0,1))", 2), ("stab(power(aut(rado),2); (1,3))", 2),
])
def test_count_orbits_matches_recursive_reference(spec, k):
    # The count comes from count_types, anchored at the constants' columns
    # under a stabilizer; the reference lists the labels of either.
    g = parse_group_spec(spec)
    for j in range(1, k + 1):
        assert count_orbits_g(g, j) == oracles.count_orbits_g(g, j)


def test_stabilizer_lists_records_past_arity_limit_positions():
    # Arity 6 under one constant: records of 7 positions, one per partition
    # of 7 points (Bell number 877), listed as they are counted.
    g = parse_group_spec("stab(aut(pureset); 0)")
    assert len(orbit_labels(g, 6)) == count_orbits_g(g, 6) == 877


# The anchored count (ROADMAP item 11 (b)) against the record filter.  The
# reference lists every (k+n)-type, which takes seconds past 6 positions on
# dlo, 5 on rado and 4 on ordered-rado; larger counts meet closed forms.
# The pure set and the triangle-free graphs are step-complete ages whose
# anchored searches rest on step_ok alone (no leaf check), which the
# reference does not trust: it checks every leaf with contains.
ANCHOR_LIMITS = {"dlo": 6, "rado": 5, "ordered-rado": 4, "pureset": 7, "triangle-free": 5}


def _anchor_limit(name):
    if name != "triangle-free":
        return builtin_limit(name)
    loop = FiniteStructure(GRAPH_SIG, 1, frozenset({("edge", (0, 0))}))
    one_way = FiniteStructure(GRAPH_SIG, 2, frozenset({("edge", (0, 1))}))
    k3 = FiniteStructure(GRAPH_SIG, 3, frozenset(
        ("edge", (a, b)) for a in range(3) for b in range(3) if a != b))
    age = ForbiddenSubstructuresAge(GRAPH_SIG, [loop, one_way, k3], name=name)
    assert age.step_complete
    return GenericLimit(age)


def _drawn_stabilizers(rng):
    """Per limit, stabilizers of aut with one constant, two distinct ones and
    one repeated, and of power(aut(dlo),2) with one constant, drawn from the
    limit's first 8 elements; and two distinct ones of the other 2-type
    (the other order, adjacency or both) where one is among them.  Last, a
    stabilizer of power(aut(rado),2) with two constants whose columns have
    different 2-types, so that the two columns list different labels."""
    for name, positions in ANCHOR_LIMITS.items():
        limit = _anchor_limit(name)
        aut = AutLimit(limit)
        elements = [limit.element(i) for i in range(8)]
        a, b = rng.sample(elements, 2)
        other = [(a, c) for c in elements
                 if c != a and limit.qf_type((a, c)) != limit.qf_type((a, b))]
        for constants in [(a,), (a, b), (b, b)] + other[:1]:
            yield StabilizerGroup(aut, constants), positions
    dlo = builtin_limit("dlo")
    for _ in range(3):
        c = tuple(dlo.element(rng.randrange(8)) for _ in range(2))
        yield StabilizerGroup(PowerGroup(AutLimit(dlo), 2), (c,)), 4
    rado = builtin_limit("rado")
    elements = [rado.element(i) for i in range(8)]
    a, c = rng.sample(elements, 2)
    b, d = next((b, d) for b, d in itertools.permutations(elements, 2)
                if rado.qf_type((b, d)) != rado.qf_type((a, c)))
    yield StabilizerGroup(PowerGroup(AutLimit(rado), 2), ((a, b), (c, d))), 4


def test_anchored_count_matches_the_record_filter(monkeypatch):
    # Each size's reference records are listed once for all the stabilizers.
    cache: dict = {}
    reference = oracles.reference_enumerate_types

    def listed_once(limit, k):
        if (limit.name, k) not in cache:
            cache[limit.name, k] = reference(limit, k)
        return cache[limit.name, k]

    monkeypatch.setattr(oracles, "reference_enumerate_types", listed_once)
    # orbit_labels lists and count_orbits_g counts the same walk, the list
    # up to records of ARITY_LIMIT positions.  The reference's count under
    # a stabilizer is its list's length.
    for g, positions in _drawn_stabilizers(random.Random(11)):
        for k in range(1, positions - len(g.constants) + 1):
            expected = oracles.orbit_labels(g, k)
            assert count_orbits_g(g, k) == len(expected), (g, k)
            if k + len(g.constants) <= ARITY_LIMIT:
                assert orbit_labels(g, k) == expected, (g, k)
                if g.m == 1:
                    anchored = (g.limit, k, g.constants)
                    assert count_types(*anchored) == len(enumerate_types(*anchored)), (g, k)


def _stirling2(n, b):
    if n == b:
        return 1
    if not n or not b:
        return 0
    return b * _stirling2(n - 1, b) + _stirling2(n - 1, b - 1)


def _types(k, members):
    """The k-types of an age with members(b) labeled members on b points."""
    return sum(_stirling2(k, b) * members(b) for b in range(1, k + 1))


def _fubini(k):
    return _types(k, math.factorial)


def _rado(k):
    return _types(k, lambda b: 2 ** math.comb(b, 2))


def _ordered_rado(k):
    return _types(k, lambda b: math.factorial(b) * 2 ** math.comb(b, 2))


@pytest.mark.parametrize("name,closed,arity", [
    ("dlo", _fubini, 5), ("rado", _rado, 5), ("ordered-rado", _ordered_rado, 3)])
def test_anchored_count_closed_forms(name, closed, arity):
    # Every element of these limits has one 1-type, so one constant leaves
    # all (k+1)-types.  Two distinct constants leave those whose last two
    # positions differ and have the constants' 2-type: half of them on dlo
    # and rado, whose 2-types of distinct points swap under reversal and
    # under complement.  A repeated constant is one constant.  Two distinct
    # constants stop at arity 4: past it rado's count walks 2^20 members.
    limit = builtin_limit(name)
    aut = AutLimit(limit)
    a, b = limit.element(1), limit.element(2)
    for k in range(1, arity + 1):
        assert count_orbits_g(StabilizerGroup(aut, (a,)), k) == closed(k + 1)
        assert count_orbits_g(StabilizerGroup(aut, (b, b)), k) == closed(k + 1)
        if name != "ordered-rado" and k <= 4:
            halves = (closed(k + 2) - closed(k + 1)) // 2
            assert count_orbits_g(StabilizerGroup(aut, (a, b)), k) == halves


@settings(max_examples=120, deadline=None, derandomize=True)
@given(g=presentations())
def test_repr_is_the_spec_parse_group_spec_reads(g):
    back = parse_group_spec(repr(g))
    assert repr(back) == repr(g)
    assert (back.limit.name, back.m, back.constants) == (g.limit.name, g.m, g.constants)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(), min_size=1, max_size=3))
def test_joined_inverts_columns(cols):
    p = joined(tuple(cols))
    assert isinstance(p, tuple) == (len(cols) > 1)
    assert columns(p) == tuple(cols)
    assert joined(columns(p)) == p
