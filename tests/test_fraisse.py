import copy
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from canonfn import (
    AmalgamationFailure,
    ArityLimitExceeded,
    AutLimit,
    FiniteStructure,
    ForbiddenSubstructuresAge,
    Signature,
    RelationSymbol,
    TypeMismatch,
    build_limit,
    builtin_age,
    builtin_limit,
    count_orbits_g,
    enumerate_types,
    one_point_extensions,
    qf_type,
    verify_amalgamation,
)
from canonfn import fraisse
from canonfn.fraisse import (
    GRAPH_SIG,
    ORDERED_GRAPH_SIG,
    DloGerm,
    GenericLimit,
    LinearOrdersAge,
    PartialAutomorphism,
    PureSetsAge,
    _all_atoms,
    _members,
    _table_dfs,
    count_types,
    empty_structure,
    format_type,
)

from oracles import (
    FlatColumnsGerm,
    PredicateAge,
    check_pair_index,
    count_set_partitions,
    count_weak_orders,
    forbidden_age,
    has_triangle,
    is_partial_isomorphism,
    nth_extension,
    reference_amalgamation,
    reference_enumerate_types,
    reference_growth,
    table_dfs,
)


def graph(size, edges):
    atoms = frozenset(
        ("edge", pair) for a, b in edges for pair in ((a, b), (b, a))
    )
    return FiniteStructure(GRAPH_SIG, size, atoms)


K3 = graph(3, [(0, 1), (0, 2), (1, 2)])


TRIANGLE_FREE = [
    FiniteStructure(GRAPH_SIG, 1, frozenset({("edge", (0, 0))})),   # loop
    FiniteStructure(GRAPH_SIG, 2, frozenset({("edge", (0, 1))})),   # one-way edge
    K3,
]


def triangle_free_age():
    return ForbiddenSubstructuresAge(GRAPH_SIG, TRIANGLE_FREE, name="triangle-free")


# The graphs with no induced path on 4 points.  A 4-point set has 16 atoms,
# more than _FREE_CAP, so step_ok defers it while most are pending.
P4 = graph(4, [(0, 1), (1, 2), (2, 3)])


def cographs_age():
    return ForbiddenSubstructuresAge(GRAPH_SIG, TRIANGLE_FREE[:2] + [P4], name="cographs")


def tiny_age():
    return PredicateAge(Signature(()), lambda s: s.size <= 2, name="tiny")


def cliques_or_independent_age():
    base = builtin_age("graphs")

    def all_or_nothing(s):
        return base.contains(s) and len(s.atoms) in (0, s.size * (s.size - 1))

    return PredicateAge(GRAPH_SIG, all_or_nothing, name="cliques-or-independent")


def one_colored_point_age():
    """At most one point in P or Q: the one-point extension in Q fails to
    amalgamate with both of those in P, so a report pins the order of b2."""
    sig = Signature((RelationSymbol("P", 1), RelationSymbol("Q", 1)))
    return PredicateAge(sig, lambda s: len({t for _, t in s.atoms}) <= 1,
                        name="one-colored-point")


class TestSignatures:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            Signature((RelationSymbol("r", 2), RelationSymbol("r", 1)))

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError):
            Signature((RelationSymbol("r", 0),))

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            FiniteStructure(GRAPH_SIG, 2, frozenset({("edge", (0, 2))}))
        with pytest.raises(ValueError):
            FiniteStructure(GRAPH_SIG, 2, frozenset({("edge", (0,))}))


class TestExtensions:
    def test_two_chain_has_below_between_above(self, linear_orders_age):
        sig = linear_orders_age.signature
        chain = FiniteStructure(sig, 2, frozenset({("<", (0, 1))}))
        exts = one_point_extensions(linear_orders_age, chain)
        assert len(exts) == 3
        below = frozenset({("<", (0, 1)), ("<", (2, 0)), ("<", (2, 1))})
        between = frozenset({("<", (0, 1)), ("<", (0, 2)), ("<", (2, 1))})
        above = frozenset({("<", (0, 1)), ("<", (0, 2)), ("<", (1, 2))})
        assert [e.atoms for e in exts] == [below, between, above]

    def test_single_vertex_graph(self, graphs_age):
        exts = one_point_extensions(graphs_age, graph(1, []))
        assert len(exts) == 2
        assert exts[0].atoms == frozenset()
        assert exts[1].atoms == frozenset({("edge", (0, 1)), ("edge", (1, 0))})

    def test_empty_structure_one_extension(self, linear_orders_age):
        exts = one_point_extensions(linear_orders_age, empty_structure(linear_orders_age.signature))
        assert len(exts) == 1


class TestBuildLimit:
    def test_single_point_has_empty_log(self, linear_orders_age):
        limit = build_limit(linear_orders_age, 1)
        assert limit.size == 1
        assert limit.demand_log == ()

    def test_graphs_four_point_schedule(self, graphs_age):
        limit = build_limit(graphs_age, 4)
        log = [(e.prefix_size, e.extension_index, e.witness, e.created)
               for e in limit.demand_log]
        assert log == [(1, 0, 1, True), (1, 1, 2, True), (2, 0, 3, True)]
        assert limit.fragment().atoms == frozenset({("edge", (0, 2)), ("edge", (2, 0))})

    def test_triangle_free_limit(self):
        age = triangle_free_age()
        limit = build_limit(age, 5)
        frag = limit.fragment()
        assert not has_triangle(frag)
        for size in range(1, 6):
            assert age.contains(limit.fragment(size))

    def test_determinism(self, graphs_age):
        a = build_limit(graphs_age, 10)
        b = build_limit(builtin_age("graphs"), 10)
        assert a.fragment().atoms == b.fragment().atoms
        assert a.demand_log == b.demand_log

    def test_bounded_age_fails(self):
        with pytest.raises(AmalgamationFailure):
            build_limit(tiny_age(), 4)

    def test_log_entries_replay(self, graphs_age):
        limit = build_limit(graphs_age, 12)
        frag = limit.fragment()
        for entry in limit.demand_log:
            prefix = frag.substructure(tuple(range(entry.prefix_size)))
            ext = nth_extension(graphs_age, prefix, entry.extension_index)
            realized = frag.substructure(
                tuple(range(entry.prefix_size)) + (entry.witness,)
            )
            assert realized == ext


class TestElements:
    def test_dlo_enumeration(self, dlo):
        assert dlo.element(0) == F(0)
        assert dlo.element(3) == F(1, 2)

    def test_rado_adjacency_matches_log(self):
        limit = builtin_limit("rado")
        v5 = limit.element(5)
        assert v5 == 5
        frag = limit.fragment()
        for j in range(5):
            assert limit.eval_relation("edge", (5, j)) == frag.holds("edge", (5, j))


class TestEvalRelation:
    def test_dlo_comparisons(self, dlo):
        assert dlo.eval_relation("<", (F(1, 2), F(2))) is True
        assert dlo.eval_relation("<", (F(2), F(2))) is False

    def test_unknown_symbol(self, dlo):
        with pytest.raises(KeyError):
            dlo.eval_relation("edge", (F(0), F(1)))


class TestQfType:
    def test_repeated_entries(self, dlo):
        record = qf_type(dlo, (F(3), F(1), F(3)))
        assert record.pattern == (0, 1, 0)
        assert record.atoms == frozenset({("<", (1, 0)), ("<", (1, 2))})

    def test_equal_pair(self, dlo):
        record = qf_type(dlo, (F(5), F(5)))
        assert record.pattern == (0, 0)
        assert record.atoms == frozenset()

    def test_pure_set(self, pureset):
        record = qf_type(pureset, (0, 1, 0))
        assert record.pattern == (0, 1, 0)
        assert record.atoms == frozenset()

    def test_empty_tuple_rejected(self, dlo):
        with pytest.raises(ValueError):
            qf_type(dlo, ())


def test_pure_set_is_the_generic_limit_of_its_age():
    limit = builtin_limit("pureset")
    assert isinstance(limit, GenericLimit) and limit.name == "pureset"
    assert isinstance(limit.age, PureSetsAge)
    assert [limit.element(n) for n in range(40)] == list(range(40))
    assert limit.fragment().atoms == frozenset()


def test_pure_set_growth_skips_ended_prefixes():
    # Each prefix of a pure set has one extension; once its stream has
    # ended the schedule stops asking it, so growth is linear in the size.
    limit = builtin_limit("pureset")
    step, calls = limit._step, 0

    def counted():
        nonlocal calls
        calls += 1
        step()

    limit._step = counted
    limit.ensure_size(1000)
    assert limit.size == 1000 and len(limit.demand_log) == 999
    assert calls <= 3000


class TestTypeOrbitSoundness:
    def test_dlo_types_match_partial_isomorphisms(self, dlo):
        elements = [dlo.element(i) for i in range(16)]
        sample = list(itertools.islice(itertools.product(range(16), repeat=2), 0, None, 7))
        for (i, j), (a, b) in itertools.product(sample, repeat=2):
            s = (elements[i], elements[j])
            t = (elements[a], elements[b])
            assert (qf_type(dlo, s) == qf_type(dlo, t)) == is_partial_isomorphism(dlo, s, t)

    def test_rado_types_match_partial_isomorphisms(self):
        limit = builtin_limit("rado")
        elements = [limit.element(i) for i in range(10)]
        pairs = [(0, 1), (0, 2), (1, 2), (3, 5), (2, 7), (4, 9), (1, 8)]
        for (i, j), (a, b) in itertools.product(pairs, repeat=2):
            s = (elements[i], elements[j])
            t = (elements[a], elements[b])
            assert (qf_type(limit, s) == qf_type(limit, t)) == is_partial_isomorphism(limit, s, t)


class TestReindexingIdentity:
    # Element indices of the reindexed tuples; some repeat an element.
    TUPLES = ((0, 1), (0, 1, 2), (0, 1, 2, 3), (2, 0, 2), (3, 1, 3, 0), (5, 5), (4, 1, 5, 1))

    @pytest.mark.parametrize("name", ["dlo", "rado", "ordered-rado", "pureset"])
    def test_reindex_matches_direct_type(self, name):
        limit = builtin_limit(name)
        for indices in self.TUPLES:
            t = tuple(limit.element(i) for i in indices)
            record = qf_type(limit, t)
            for j in (1, 2, 3):
                for sigma in itertools.product(range(len(t)), repeat=j):
                    reindexed = tuple(t[i] for i in sigma)
                    assert qf_type(limit, reindexed) == record.reindexed(sigma)


class TestCountOrbits:
    def test_dlo_matches_weak_order_oracle(self, dlo):
        expected = [count_weak_orders(k) for k in (1, 2, 3, 4)]
        assert expected == [1, 3, 13, 75]
        assert [count_orbits_g(AutLimit(dlo), k) for k in (1, 2, 3, 4)] == expected

    def test_pure_set_matches_partition_oracle(self, pureset):
        assert count_orbits_g(AutLimit(pureset), 3) == count_set_partitions(3) == 5

    def test_arity_limit(self, dlo):
        with pytest.raises(ArityLimitExceeded, match="arity 7 exceeds limit 6"):
            count_orbits_g(AutLimit(dlo), 7)

    def test_enumerate_types_sorted_unique(self, dlo):
        records = enumerate_types(dlo, 3)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(records) == 13

    def test_ordered_graph_pair_types(self):
        # One type per pattern (0,0); for distinct points, an order direction
        # and an adjacency bit vary independently.
        limit = builtin_limit("ordered-rado")
        assert count_orbits_g(AutLimit(limit), 2) == 5


class TestOrderedRado:
    def test_fragment_is_an_ordered_graph(self):
        limit = builtin_limit("ordered-rado")
        limit.ensure_size(8)
        age = builtin_age("ordered-graphs")
        for size in range(1, 9):
            assert age.contains(limit.fragment(size))
        assert verify_amalgamation(age, 3).ok


class TestTypeFormat:
    def test_weak_order_form(self, dlo):
        record = qf_type(dlo, (F(3), F(1), F(3)))
        assert format_type(record) == "2<1=3"


class TestVerifyAmalgamation:
    def test_linear_orders_pass(self, linear_orders_age):
        assert verify_amalgamation(linear_orders_age, 3).ok

    def test_graphs_pass(self, graphs_age):
        assert verify_amalgamation(graphs_age, 3).ok

    def test_missing_edgeless_pair_violates_hereditariness(self):
        base = builtin_age("graphs")
        age = PredicateAge(
            GRAPH_SIG,
            lambda s: base.contains(s) and not (s.size == 2 and not s.atoms),
            name="no-edgeless-pair",
        )
        report = verify_amalgamation(age, 3)
        assert not report.ok
        assert report.failure_kind == "hereditariness"

    def test_cliques_or_independent_violates_amalgamation(self):
        report = verify_amalgamation(cliques_or_independent_age(), 3)
        assert not report.ok
        assert report.failure_kind == "amalgamation"

    def test_extension_progress(self, graphs_age):
        limit = build_limit(graphs_age, 32)
        seen = {(e.prefix_size, e.extension_index) for e in limit.demand_log}
        for m in (1, 2, 3):
            for e in range(2 ** m):
                assert (m, e) in seen


# ---------------------------------------------------------------------------
# fast paths against the definitional code

HYPOTHESIS = settings(max_examples=150, deadline=None, derandomize=True)
DLO = builtin_limit("dlo")
RATIONALS = st.integers(0, 24).map(DLO.element)
NUMBERS = st.one_of(st.integers(), st.fractions())


@HYPOTHESIS
@given(a=NUMBERS, b=NUMBERS)
@example(a=F(-3, 2), b=F(-3, 2))
@example(a=2, b=F(2))
@example(a=-1, b=F(-1, 3))
@example(a=F(-1, 3), b=-1)
def test_dlo_order_is_less_than(a, b):
    # DloLimit cross-multiplies numerators and denominators; the answer is
    # still the bool that < gives on ints, Fractions and mixed pairs.
    assert DLO.eval_relation("<", (a, b)) is (a < b)


@st.composite
def order_preserving_pairs(draw):
    """Type-preserving pairs over Q: two equal-size sets of rationals matched
    in order, listed in a drawn order."""
    dom = draw(st.lists(RATIONALS, unique=True, max_size=4))
    rng = draw(st.lists(RATIONALS, unique=True, min_size=len(dom), max_size=len(dom)))
    return draw(st.permutations(list(zip(sorted(dom), sorted(rng)))))


@st.composite
def germ_steps(draw):
    """Type-preserving pairs over Q and a list of steps on a germ seeded
    with them: ("images", x, pool) with x new or a committed source point
    and a pool that may miss the committed images, as stabilizer constants'
    images are missed; ("commit", x, y) with y admissible or not; ("extend",
    x, pool) with x and pool drawn as for images; ("uncommit",), which takes
    back the latest pair the steps added."""
    pairs = draw(order_preserving_pairs())
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["images", "commit", "extend", "uncommit"]))
        if kind in ("images", "extend"):
            if pairs and draw(st.booleans()):
                x = draw(st.sampled_from([a for a, _ in pairs]))
            else:
                x = draw(RATIONALS)
            steps.append((kind, x, draw(st.lists(RATIONALS, unique=True, max_size=12))))
        elif kind == "commit":
            steps.append((kind, draw(RATIONALS), draw(RATIONALS)))
        else:
            steps.append((kind,))
    return pairs, steps


def _germ_run(germ, steps) -> list:
    """The answers of a germ to the steps, in order.  An uncommit must
    bring back the pairs from before the commit it takes back."""
    pairs = lambda: tuple(germ.mapping.items())
    out, added = [], []
    for kind, *args in steps:
        before = pairs()
        if kind == "images":
            out.append(list(germ.images(*args)))
        elif kind == "commit":
            try:
                germ.commit(*args)
                out.append("ok")
            except TypeMismatch:
                out.append("mismatch")
        elif kind == "extend":
            out.append(germ.extend(*args))
        elif added:
            x, earlier = added.pop()
            germ.uncommit(x)
            assert pairs() == earlier
        if len(germ.mapping) > len(before):
            added.append((pairs()[-1][0], before))
        out.append(pairs())
    out.append(germ.verify())
    return out


@HYPOTHESIS
@given(germ_steps())
def test_dlo_germ_matches_the_generic_germ(query):
    pairs, steps = query
    fast = DLO.germ(pairs)
    assert isinstance(fast, DloGerm)
    assert _germ_run(fast, steps) == _germ_run(PartialAutomorphism(DLO, pairs), steps)


def test_dlo_germ_answers_by_order_position():
    germ = DLO.germ([(F(0), F(0)), (F(2), F(4))])
    pool = [DLO.element(i) for i in range(40)]
    assert list(germ.images(F(1), pool)) == [y for y in pool if 0 < y < 4]
    assert list(germ.images(F(2), pool)) == [F(4)]
    with pytest.raises(TypeMismatch):
        germ.commit(F(1), F(5))
    assert germ.extend(F(1), pool) == F(1)
    assert list(germ.images(F(3, 2), pool)) == [y for y in pool if 1 < y < 4]
    germ.uncommit(F(1))
    assert list(germ.images(F(3, 2), pool)) == [y for y in pool if 0 < y < 4]
    assert tuple(germ.mapping.items()) == ((F(0), F(0)), (F(2), F(4)))


def _both_germs(pairs):
    return DLO.germ(pairs), PartialAutomorphism(DLO, pairs)


def test_extend_with_no_admissible_candidate_commits_nothing():
    # Nothing in the pool lies strictly between the images 0 and 1.
    pairs = [(F(0), F(0)), (F(2), F(1))]
    for germ in _both_germs(pairs):
        assert germ.extend(F(1), [F(-1), F(0), F(1), F(2)]) is None
        assert germ.extend(F(1), iter([])) is None
        assert tuple(germ.mapping.items()) == tuple(pairs)
        assert germ.extend(F(2), []) == F(1)


@HYPOTHESIS
@given(pairs=order_preserving_pairs(), x=RATIONALS,
       pool=st.lists(RATIONALS, unique=True, max_size=12))
def test_extend_reads_a_list_and_an_iterator_over_it_alike(pairs, x, pool):
    answers = set()
    for make in (DLO.germ, lambda p: PartialAutomorphism(DLO, p)):
        for candidates in (pool, iter(pool)):
            germ = make(pairs)
            answers.add((germ.extend(x, candidates), tuple(germ.mapping.items())))
    assert len(answers) == 1



@st.composite
def germ_pools(draw):
    """Order-preserving committed pairs, points to place, and candidate
    lists in drawn order, repeats allowed."""
    dom = sorted(draw(st.lists(RATIONALS, unique=True, max_size=6)))
    rng = sorted(draw(st.lists(RATIONALS, unique=True, min_size=len(dom), max_size=len(dom))))
    xs = [x for x in draw(st.lists(RATIONALS, min_size=1, max_size=4)) if x not in dom]
    assume(xs)
    pools = draw(st.lists(st.lists(RATIONALS, max_size=16), min_size=1, max_size=3))
    return list(zip(dom, rng)), xs, pools


@HYPOTHESIS
@given(germ_pools())
def test_dlo_germ_images_match_the_filter(query):
    pairs, xs, pools = query
    germ = DLO.germ(pairs)
    for pool in pools + pools[:1]:    # a new list, then the first one again
        for x in xs:
            lo = max((y for a, y in pairs if a < x), default=None)
            hi = min((y for a, y in pairs if a > x), default=None)
            expected = [y for y in pool if (lo is None or lo < y) and (hi is None or y < hi)]
            assert germ.images(x, pool) == expected
            assert germ.images(x, iter(pool)) == expected
            assert set(germ.constraints(x)) == {a for a, y in pairs if y in (lo, hi)}


@HYPOTHESIS
@given(germ_pools())
def test_dlo_germ_images_ignore_pairs_outside_the_conflict_set(query):
    # Backjumping rests on this: a level's candidates change only when a
    # pair of its conflict set is taken back.
    pairs, xs, pools = query
    for x in xs:
        outside = [a for a, _ in pairs if a not in DLO.germ(pairs).constraints(x)]
        for pool in pools:
            expected = DLO.germ(pairs).images(x, pool)
            for a in outside:
                germ = DLO.germ(pairs)
                germ.uncommit(a)
                assert germ.images(x, pool) == expected


@HYPOTHESIS
@given(name=st.sampled_from(["rado", "ordered-rado"]),
       indices=st.lists(st.integers(0, 15), unique=True, max_size=7), data=st.data())
def test_generic_germ_conflict_set_is_the_whole_mapping(name, indices, data):
    # A generic germ reads x's type over every committed point, not only
    # over the latest pair, which belongs to the level before.  The germ
    # extends each drawn point over the first 16 elements.
    limit = builtin_limit(name)
    pool = [limit.element(i) for i in range(16)]
    germ = limit.germ()
    for i in indices:
        germ.extend(pool[i], pool)
    assert type(germ) is PartialAutomorphism
    x = pool[data.draw(st.integers(0, 15).filter(lambda i: i not in indices))]
    assert germ.constraints(x) == tuple(germ.mapping)


# Values whose floats tie (a third and its neighbors 1e-30 away; the
# underflows beside 0; the overflows, as ints and Fractions), beside ints
# and Fractions of all sizes.
_TIED = [F(1, 3) + F(k, 10 ** 30) for k in range(-4, 5)] + [
    0, F(1, 10 ** 400), F(-1, 10 ** 400), F(2, 10 ** 400),
    10 ** 400, F(10 ** 400) + 1, -10 ** 400, F(-10 ** 400) - 1]
INDEX_VALUES = st.one_of(
    st.sampled_from(_TIED), st.sampled_from(_TIED), RATIONALS, st.integers(-40, 40),
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9)).map(lambda t: F(*t)))


def _between(w, fallback):
    """A partner chooser: w when it lies in (lo, hi), else, with fallback, a
    point of the gap (its midpoint where bounded), else None."""
    def choose(lo, hi):
        if (lo is None or lo < w) and (hi is None or w < hi):
            return w
        if not fallback:
            return None
        if lo is None or hi is None:
            return F(0) if lo is hi else lo + 1 if hi is None else hi - 1
        return (F(lo) + hi) / 2
    return choose


@st.composite
def index_steps(draw):
    """A block size and steps on a germ: ("commit", x, y); ("place", v, w,
    fallback) and ("inverse", v, w, fallback), pairing v with the chooser's
    answer; ("uncommit", k), taking back the k-th committed pair (mod the
    count); ("look", x, pool), reading images and constraints."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["commit", "place", "place", "inverse", "uncommit", "look"]))
        if kind == "uncommit":
            steps.append((kind, draw(st.integers(0, 1000))))
        elif kind == "look":
            steps.append((kind, draw(INDEX_VALUES), draw(st.lists(INDEX_VALUES, max_size=6))))
        elif kind == "commit":
            steps.append((kind, draw(INDEX_VALUES), draw(INDEX_VALUES)))
        else:
            steps.append((kind, draw(INDEX_VALUES), draw(INDEX_VALUES), draw(st.booleans())))
    return draw(st.sampled_from([1, 2, 3, fraisse._BLOCK])), steps


def _check_index(germ, ref):
    """The germ's pairs are the reference's, and its pair index holds the
    reference's columns."""
    assert tuple(germ.mapping.items()) == tuple(ref.mapping.items())
    check_pair_index(germ._index, ref.dom, ref.rng)


def _place(germ, v, choose, inverse=False):
    """The back-and-forth's stage on the germ's pair index, for the
    reference's place: (w, True) after pairing v, a point (with inverse, an
    image), with w = choose(lo, hi), lo and hi the partners of v's nearest
    paired neighbors, by one gap and one insert, mapping written; nothing is
    paired when w is None.  (w, False) when v is paired already with w."""
    index = germ._index
    side = 1 if inverse else 0
    j, i, f, lo, hi = index.gap(side, v, 1 - side)
    if index.holds(side, j, i, f, v):
        return hi, False
    w = choose(lo, hi)
    if w is not None:
        fw = fraisse._shadow(w)
        x, y, fx, fy = (w, v, fw, f) if inverse else (v, w, f, fw)
        index.insert(j, i, x, y, fx, fy)
        germ.mapping[x] = y
    return w, True


def _partner(germ, v, inverse=False):
    """v's partner read off the germ's pair index, as a back-and-forth map
    reads it, or None while v is not paired."""
    side = 1 if inverse else 0
    j, i, f, _, hi = germ._index.gap(side, v, 1 - side)
    return hi if germ._index.holds(side, j, i, f, v) else None


def _index_run(steps):
    germ, ref = DLO.germ(), FlatColumnsGerm()
    for kind, v, *args in steps:
        if kind == "commit":
            try:
                germ.commit(v, args[0])
                done = True
            except TypeMismatch:
                done = False
            assert done is ref.commit(v, args[0])
        elif kind in ("place", "inverse"):
            # A v paired already comes back with its partner, unchanged.
            inverse = kind == "inverse"
            assert (_place(germ, v, _between(*args), inverse)
                    == ref.place(v, _between(*args), inverse))
        elif kind == "uncommit":
            if ref.mapping:
                x = list(ref.mapping)[v % len(ref.mapping)]
                germ.uncommit(x)
                ref.uncommit(x)
        else:
            assert _partner(germ, v) == ref.mapping.get(v)
            assert _partner(germ, v, inverse=True) == dict(zip(ref.rng, ref.dom)).get(v)
            if v not in ref.mapping:
                assert germ.images(v, args[0]) == ref.images(v, args[0])
                assert germ.constraints(v) == ref.constraints(v)
        _check_index(germ, ref)


@HYPOTHESIS
@given(index_steps())
def test_pair_index_matches_flat_columns(query):
    block, steps = query
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fraisse, "_BLOCK", block)
        _index_run(steps)


def test_pair_index_ties_across_blocks():
    # Thirty points a third apart by 1e-30 steps share one float, on both
    # sides: blocks of at most four pairs split the run, every lookup inside
    # it goes on past block ends by exact comparisons, and a candidate list
    # given in descending order is sorted exactly.
    tied = [F(1, 3) + F(k, 10 ** 30) for k in range(-31, 31)]
    points = tied[1::2]
    order = [(7 * k) % 30 for k in range(30)]
    pool = tied[::-2] + [F(0), F(1)]
    steps = [("commit", points[k], points[k]) for k in order]
    steps += [("look", x, pool) for x in tied[::2]]
    steps += [("place", x, F(1000), True) for x in tied[::6]]
    steps += [("inverse", F(2 * k + 1, 4), F(1, 3), True) for k in range(-2, 3)]
    steps += [("uncommit", 7 * k) for k in range(20)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fraisse, "_BLOCK", 2)
        germ = DLO.germ((points[k], points[k]) for k in order)
        shadows = germ._index.shadows[0]
        assert len(shadows) > 3 and all(a[-1] == b[0] for a, b in zip(shadows, shadows[1:]))
        _index_run(steps)


@st.composite
def age_members(draw):
    """A builtin age and one of its members on 1 to 4 points: a drawn linear
    order and a drawn graph, each kept where the signature has it."""
    age = builtin_age(draw(st.sampled_from(
        ["linear-orders", "graphs", "ordered-graphs", "pure-sets"])))
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    atoms = set()
    if "<" in age.signature:
        atoms |= {("<", (order[i], order[j])) for i, j in pairs}
    if "edge" in age.signature:
        atoms |= {("edge", t) for a, b in edges for t in ((a, b), (b, a))}
    return age, FiniteStructure(age.signature, n, frozenset(atoms))


@HYPOTHESIS
@given(age_members())
def test_step_ok_never_rejects_a_member(member):
    # Replays the member's path through the pruned enumeration (_table_dfs):
    # every step on the way to it must pass step_ok.
    age, s = member
    assert age.contains(s)
    present, pending = set(), set(_all_atoms(age.signature, range(s.size), s.size))
    for atom in sorted(pending):
        is_present = atom in s.atoms
        pending.discard(atom)
        if is_present:
            present.add(atom)
        assert age.step_ok(s.size, present, pending, atom, is_present)


@st.composite
def structures_and_points(draw):
    """A graph or ordered graph with arbitrary atoms on 1 to 6 points, and a
    drawn list of distinct points of it."""
    signature = draw(st.sampled_from([GRAPH_SIG, ORDERED_GRAPH_SIG]))
    n = draw(st.integers(1, 6))
    atoms = [(sym.name, t) for sym in signature.symbols
             for t in itertools.product(range(n), repeat=2)]
    keep = draw(st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)))
    s = FiniteStructure(signature, n, frozenset(a for a, k in zip(atoms, keep) if k))
    return s, tuple(draw(st.lists(st.integers(0, n - 1), unique=True)))


@HYPOTHESIS
@given(structures_and_points())
def test_substructure_is_the_position_map_restriction(case):
    s, points = case
    position = {p: i for i, p in enumerate(points)}
    expected = frozenset(
        (name, tuple(position[i] for i in t))
        for name, t in s.atoms
        if all(i in position for i in t)
    )
    assert s.substructure(points) == FiniteStructure(s.signature, len(points), expected)


# ---------------------------------------------------------------------------
# the iterative table search and incremental growth against their definitions

UNARY_SIG = Signature((RelationSymbol("p", 1),))
TERNARY_SIG = Signature((RelationSymbol("r", 3), RelationSymbol("p", 1)))


@pytest.mark.parametrize("signature", [UNARY_SIG, ORDERED_GRAPH_SIG, TERNARY_SIG])
@pytest.mark.parametrize("size", [0, 1, 2, 4])
def test_all_atoms_are_the_touching_atoms(signature, size):
    for r in range(size + 1):
        for points in itertools.combinations(range(size), r):
            expected = sorted((sym.name, t) for sym in signature.symbols
                              for t in itertools.product(range(size), repeat=sym.arity)
                              if set(points).intersection(t))
            assert _all_atoms(signature, points, size) == expected


def test_table_dfs_is_not_bounded_by_the_recursion_limit():
    # One candidate per point: more levels than the recursion limit allows.
    size = 1500
    age = PredicateAge(UNARY_SIG, lambda s: True, name="unary")
    candidates = _all_atoms(UNARY_SIG, range(size), size)
    stream = _table_dfs(age, size, (), candidates)
    assert next(stream).atoms == frozenset()
    assert next(stream).atoms == frozenset({("p", (size - 1,))})


@pytest.mark.parametrize("kind", ["linear-orders", "graphs", "ordered-graphs", "pure-sets",
                                  "triangle-free", "odd-atoms"])
@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_table_dfs_order_matches_recursive_reference(kind, size):
    if kind == "triangle-free":
        age = triangle_free_age()
    elif kind == "odd-atoms":
        age = PredicateAge(GRAPH_SIG, lambda s: len(s.atoms) % 2 == 1)
    else:
        age = builtin_age(kind)
    candidates = _all_atoms(age.signature, range(size), size)
    expected = list(table_dfs(age, size, (), candidates))
    assert list(_table_dfs(age, size, (), candidates)) == expected
    # A fixed part and candidates that all touch the last point, as in growth.
    if size:
        base = next(iter(expected), None)
        if base is not None:
            fixed = base.substructure(tuple(range(size - 1))).atoms
            tail = _all_atoms(age.signature, [size - 1], size)
            assert (list(_table_dfs(age, size, fixed, tail))
                    == list(table_dfs(age, size, fixed, tail)))


# The ternary age forbids r on a repeated point; with no step_ok its tables
# on b points number 2^(b^3 + b), so it stops at arity 2.
TERNARY_AGE = ForbiddenSubstructuresAge(
    TERNARY_SIG, [FiniteStructure(TERNARY_SIG, 1, frozenset({("r", (0, 0, 0))}))], name="r3")
ENUMERATED = {
    "dlo": lambda: builtin_limit("dlo"),
    "pureset": lambda: builtin_limit("pureset"),
    "rado": lambda: builtin_limit("rado"),
    "ordered-rado": lambda: builtin_limit("ordered-rado"),
    "linear-orders": lambda: GenericLimit(builtin_age("linear-orders")),
    "triangle-free": lambda: GenericLimit(triangle_free_age()),
    "ternary": lambda: GenericLimit(TERNARY_AGE),
}


@pytest.mark.parametrize("name,arity", [("dlo", 5), ("pureset", 5), ("rado", 4),
                                        ("ordered-rado", 4), ("linear-orders", 4),
                                        ("triangle-free", 3), ("ternary", 2)])
def test_enumerate_types_matches_per_pattern_loop(name, arity):
    # One enumeration of the members per block count gives the records of
    # the loop that enumerates them afresh for each pattern, in the same
    # order; count_types counts them without building them.
    limit = ENUMERATED[name]()
    for k in range(1, arity + 1):
        expected = reference_enumerate_types(limit, k)
        assert enumerate_types(limit, k) == expected
        assert count_types(limit, k) == len(expected)


GROWTH_AGES = ["graphs", "ordered-graphs", "linear-orders", "pure-sets", "triangle-free"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(GROWTH_AGES), st.integers(1, 24))
@example("graphs", 24)
@example("linear-orders", 24)
def test_growth_matches_definitional_growth(kind, size):
    if kind == "triangle-free":
        age = triangle_free_age()
        reference_age = forbidden_age(GRAPH_SIG, TRIANGLE_FREE)
    else:
        age = reference_age = builtin_age(kind)
    limit = GenericLimit(age)
    limit.ensure_size(size)
    fragment, log = reference_growth(reference_age, size)
    assert limit.fragment() == fragment
    assert limit.demand_log == log
    last = {}
    for entry in limit.demand_log:
        assert entry.extension_index > last.get(entry.prefix_size, -1)
        last[entry.prefix_size] = entry.extension_index


def test_schedule_asks_each_prefix_in_steps_of_one():
    # The invariant the per-prefix extension streams rely on: prefix m is
    # first asked for extension 0, after every smaller prefix, and then for
    # 1, 2, ... in turn, until its stream has ended.
    for kind, size in [("graphs", 40), ("pure-sets", 200)]:
        limit = GenericLimit(builtin_age(kind))
        asked = {}

        def recorded(schedule):
            for m, e in schedule:
                assert e == asked.get(m, -1) + 1
                assert m == 1 or m - 1 in asked
                assert m > len(limit._streams) or limit._streams[m - 1] is not None
                asked[m] = e
                yield m, e

        limit._schedule = recorded(limit._schedule)
        limit.ensure_size(size)
        assert len(asked) > 1


def _graph_structures(min_size, max_size):
    @st.composite
    def draw_structure(draw):
        n = draw(st.integers(min_size, max_size))
        atoms = list(itertools.product(range(n), repeat=2))
        keep = draw(st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)))
        return FiniteStructure(GRAPH_SIG, n, frozenset(
            ("edge", t) for t, k in zip(atoms, keep) if k))
    return draw_structure()


@st.composite
def forbidden_cases(draw):
    """A drawn graph on up to 7 points and 1 or 2 forbidden structures on 2
    to 4 points: drawn outright, or an induced substructure of the graph on
    permuted points, so that both verdicts occur."""
    s = draw(_graph_structures(0, 7))
    forbidden = []
    for _ in range(draw(st.integers(1, 2))):
        if s.size >= 2 and draw(st.booleans()):
            k = draw(st.integers(2, min(4, s.size)))
            points = draw(st.permutations(range(s.size)))[:k]
            forbidden.append(s.substructure(tuple(points)))
        else:
            forbidden.append(draw(_graph_structures(2, 4)))
    return s, forbidden


@settings(max_examples=200, deadline=None, derandomize=True)
@given(forbidden_cases())
def test_forbidden_contains_matches_definition(case):
    s, forbidden = case
    expected = forbidden_age(GRAPH_SIG, forbidden).contains(s)
    assert ForbiddenSubstructuresAge(GRAPH_SIG, forbidden).contains(s) == expected


@st.composite
def forbidden_ages(draw):
    """A forbidden age, its structures drawn as forbidden_cases draws them,
    and bound 3."""
    return ForbiddenSubstructuresAge(GRAPH_SIG, draw(forbidden_cases())[1]), 3


# The first failing (base, b1, b2), and so the whole report, is the pairwise
# loop's: each b1's extensions enumerated once give the same verdicts.
@settings(max_examples=6, deadline=None, derandomize=True)
@given(forbidden_ages())
@example((builtin_age("linear-orders"), 4))
@example((builtin_age("graphs"), 4))
@example((builtin_age("ordered-graphs"), 4))
@example((builtin_age("pure-sets"), 4))
@example((tiny_age(), 3))
@example((cliques_or_independent_age(), 3))
@example((one_colored_point_age(), 3))
def test_amalgamation_report_matches_pairwise_loop(case):
    age, bound = case
    assert verify_amalgamation(age, bound) == reference_amalgamation(age, bound)


# ---------------------------------------------------------------------------
# the leaf skip of step-complete ages


@pytest.mark.parametrize("kind, size, atoms", [
    ("linear-orders", 1, [("<", (0, 0))]),                                # reflexive
    ("linear-orders", 2, []),                                             # incomparable
    ("linear-orders", 2, [("<", (0, 1)), ("<", (1, 0))]),                 # both ways
    ("linear-orders", 3, [("<", (0, 1)), ("<", (1, 2)), ("<", (2, 0))]),  # a cycle
    ("graphs", 1, [("edge", (0, 0))]),
    ("graphs", 2, [("edge", (0, 1))]),
    ("ordered-graphs", 2, [("edge", (0, 1)), ("edge", (1, 0))]),          # not ordered
    ("ordered-graphs", 2, [("<", (0, 1)), ("edge", (0, 1))]),             # a one-way edge
])
def test_builtin_ages_reject_non_members(kind, size, atoms):
    # The search never hands these to contains, since step_ok rejects them
    # first.  pure-sets has no non-members.
    age = builtin_age(kind)
    assert not age.contains(FiniteStructure(age.signature, size, frozenset(atoms)))


def _brute_tables(age, size, fixed, candidates):
    """The members among fixed plus each subset of the candidates, in the
    search's order (lexicographic on presence vectors, absent first), each
    checked by contains, nothing pruned."""
    for keep in itertools.product((False, True), repeat=len(candidates)):
        s = FiniteStructure(age.signature, size,
                            frozenset(fixed).union(itertools.compress(candidates, keep)))
        if age.contains(s):
            yield s


def _declaring_age(kind):
    return {"triangle-free": triangle_free_age, "cographs": cographs_age,
            "ternary": lambda: TERNARY_AGE}.get(kind, lambda: builtin_age(kind))()


@pytest.mark.parametrize("kind, top", [("linear-orders", 3), ("graphs", 3), ("ordered-graphs", 3),
                                       ("pure-sets", 3), ("triangle-free", 3), ("cographs", 4),
                                       ("ternary", 2)])
def test_pruned_search_yields_exactly_the_members(kind, top):
    # An age that declares step_complete skips the leaf check, so on every
    # atom set of up to top points the pruned search must yield it exactly
    # when contains accepts it.
    age = _declaring_age(kind)
    assert age.step_complete
    for size in range(top + 1):
        atoms = _all_atoms(age.signature, range(size), size)
        assert list(_members(age, size)) == list(_brute_tables(age, size, (), atoms))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(forbidden_cases())
def test_forbidden_step_ok_is_complete(case):
    # Drawn forbidden graphs on 2 to 4 points: the members on up to 3
    # points, and the extension streams of a sample of them, are the
    # unpruned search's.
    age = ForbiddenSubstructuresAge(GRAPH_SIG, case[1])
    assert age.step_complete
    for size in range(4):
        members = list(_members(age, size))
        assert members == list(_brute_tables(age, size, (), _all_atoms(GRAPH_SIG, range(size), size)))
        for base in members[::max(1, len(members) // 6)]:
            tail = _all_atoms(GRAPH_SIG, [size], size + 1)
            assert (list(_members(age, size + 1, base))
                    == list(_brute_tables(age, size + 1, base.atoms, tail)))


@pytest.mark.parametrize("kind", ["linear-orders", "graphs", "ordered-graphs", "pure-sets",
                                  "triangle-free", "cographs"])
def test_leaf_check_skip_keeps_members_and_streams(kind):
    # With the leaf check put back, the members on up to 4 points and the
    # extension streams of a sample of them onto up to 5 points are the same.
    age = _declaring_age(kind)
    checked = copy.copy(age)
    checked.step_complete = False
    for size in range(5):
        members = list(_members(age, size))
        assert members == list(_members(checked, size))
        for base in members[::max(1, len(members) // 40)]:
            assert list(_members(age, size + 1, base)) == list(_members(checked, size + 1, base))


def test_unary_forbidden_age_keeps_the_leaf_check():
    # With unary symbols only, no candidate atom of a completion joins the
    # new point to a later one, so step_ok cannot see a forbidden pair
    # there: the age keeps its leaf check, and growth stops at the pair
    # instead of adjoining a non-member.
    sig = Signature((RelationSymbol("P", 1), RelationSymbol("Q", 1)))
    age = ForbiddenSubstructuresAge(
        sig, [FiniteStructure(sig, 2, frozenset({("P", (0,)), ("Q", (1,))}))])
    assert not age.step_complete
    with pytest.raises(AmalgamationFailure, match=r"demand \(prefix=1, extension=2\)"):
        build_limit(age, 6)


def test_linear_order_prunes_a_decided_intransitive_triple():
    # The transitivity prunes fire as soon as i<j, j<w and absent i<w are
    # all decided, on whichever comes last, and not only once a cycle
    # closes: no node the search goes on from holds such a triple, even
    # while w<i is pending.  Outputs alone cannot pin this, since a later
    # prune or a mirror's decision rejects the same tables.
    nodes = []

    class Recording(LinearOrdersAge):
        def step_ok(self, size, present, pending, atom, is_present):
            ok = super().step_ok(size, present, pending, atom, is_present)
            if ok:
                nodes.append((frozenset(present), frozenset(pending)))
            return ok

    assert len(list(_members(Recording(), 5))) == 120
    for present, pending in nodes:
        for (_, (i, j)), (_, (k, w)) in itertools.product(present, present):
            iw = ("<", (i, w))
            assert not (j == k and i != w and iw not in present and iw not in pending)
