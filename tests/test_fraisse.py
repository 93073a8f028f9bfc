import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from canonfn import (
    AmalgamationFailure,
    ArityLimitExceeded,
    CallableAge,
    FiniteStructure,
    ForbiddenSubstructuresAge,
    Signature,
    RelationSymbol,
    build_limit,
    builtin_age,
    builtin_limit,
    count_orbits,
    element,
    enumerate_types,
    eval_relation,
    one_point_extensions,
    qf_type,
    verify_amalgamation,
)
from canonfn.fraisse import (
    GRAPH_SIG,
    LimitStructure,
    _all_atoms,
    empty_structure,
    format_type,
    parse_type,
)

from oracles import (
    count_set_partitions,
    count_weak_orders,
    has_triangle,
    is_partial_isomorphism,
)


def graph(size, edges):
    atoms = frozenset(
        ("edge", pair) for a, b in edges for pair in ((a, b), (b, a))
    )
    return FiniteStructure(GRAPH_SIG, size, atoms)


K3 = graph(3, [(0, 1), (0, 2), (1, 2)])


def triangle_free_age():
    loop = FiniteStructure(GRAPH_SIG, 1, frozenset({("edge", (0, 0))}))
    arc = FiniteStructure(GRAPH_SIG, 2, frozenset({("edge", (0, 1))}))
    return ForbiddenSubstructuresAge(GRAPH_SIG, [loop, arc, K3], name="triangle-free")


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
        sig = Signature(())
        age = CallableAge(sig, lambda s: s.size <= 2, name="tiny")
        with pytest.raises(AmalgamationFailure):
            build_limit(age, 4)

    def test_log_entries_replay(self, graphs_age):
        from canonfn.fraisse import nth_extension

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
        assert element(dlo, 0) == F(0)
        assert element(dlo, 3) == F(1, 2)

    def test_rado_adjacency_matches_log(self):
        limit = builtin_limit("rado")
        v5 = element(limit, 5)
        assert v5 == 5
        frag = limit.fragment()
        for j in range(5):
            assert eval_relation(limit, "edge", (5, j)) == frag.holds("edge", (5, j))


class TestEvalRelation:
    def test_dlo_comparisons(self, dlo):
        assert eval_relation(dlo, "<", (F(1, 2), F(2))) is True
        assert eval_relation(dlo, "<", (F(2), F(2))) is False

    def test_unknown_symbol(self, dlo):
        with pytest.raises(KeyError):
            eval_relation(dlo, "edge", (F(0), F(1)))


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


class TestTypeOrbitSoundness:
    def test_dlo_types_match_partial_isomorphisms(self, dlo):
        elements = [element(dlo, i) for i in range(16)]
        sample = list(itertools.islice(itertools.product(range(16), repeat=2), 0, None, 7))
        for (i, j), (a, b) in itertools.product(sample, repeat=2):
            s = (elements[i], elements[j])
            t = (elements[a], elements[b])
            assert (qf_type(dlo, s) == qf_type(dlo, t)) == is_partial_isomorphism(dlo, s, t)

    def test_rado_types_match_partial_isomorphisms(self):
        limit = builtin_limit("rado")
        elements = [element(limit, i) for i in range(10)]
        pairs = [(0, 1), (0, 2), (1, 2), (3, 5), (2, 7), (4, 9), (1, 8)]
        for (i, j), (a, b) in itertools.product(pairs, repeat=2):
            s = (elements[i], elements[j])
            t = (elements[a], elements[b])
            assert (qf_type(limit, s) == qf_type(limit, t)) == is_partial_isomorphism(limit, s, t)


class TestReindexingIdentity:
    def test_reindex_matches_direct_type(self, dlo):
        values = (F(0), F(1), F(-1), F(1, 2))
        for k in (2, 3, 4):
            t = values[:k]
            record = qf_type(dlo, t)
            for j in (1, 2, 3):
                for sigma in itertools.product(range(k), repeat=j):
                    reindexed = tuple(t[i] for i in sigma)
                    assert qf_type(dlo, reindexed) == record.reindexed(sigma)


class TestCountOrbits:
    def test_dlo_matches_weak_order_oracle(self, dlo):
        expected = [count_weak_orders(k) for k in (1, 2, 3, 4)]
        assert expected == [1, 3, 13, 75]
        assert [count_orbits(dlo, k) for k in (1, 2, 3, 4)] == expected

    def test_pure_set_matches_partition_oracle(self, pureset):
        assert count_orbits(pureset, 3) == count_set_partitions(3) == 5

    def test_arity_limit(self, dlo, monkeypatch):
        monkeypatch.setenv("CANONFN_ARITY_LIMIT", "2")
        with pytest.raises(ArityLimitExceeded):
            count_orbits(dlo, 3)

    def test_enumerate_types_sorted_unique(self, dlo):
        records = enumerate_types(dlo, 3)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(records) == 13

    def test_ordered_graph_pair_types(self):
        # One type per pattern (0,0); for distinct points, an order direction
        # and an adjacency bit vary independently.
        limit = builtin_limit("ordered-rado")
        assert count_orbits(limit, 2) == 5


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
        assert parse_type("2<1=3", dlo.age.signature) == record

    def test_generic_form_round_trip(self):
        limit = builtin_limit("rado")
        record = qf_type(limit, (element(limit, 0), element(limit, 2), element(limit, 0)))
        text = format_type(record)
        assert parse_type(text, limit.age.signature) == record


class TestVerifyAmalgamation:
    def test_linear_orders_pass(self, linear_orders_age):
        assert verify_amalgamation(linear_orders_age, 3).ok

    def test_graphs_pass(self, graphs_age):
        assert verify_amalgamation(graphs_age, 3).ok

    def test_missing_edgeless_pair_violates_hereditariness(self):
        base = builtin_age("graphs")
        age = CallableAge(
            GRAPH_SIG,
            lambda s: base.contains(s) and not (s.size == 2 and not s.atoms),
            name="no-edgeless-pair",
        )
        report = verify_amalgamation(age, 3)
        assert not report.ok
        assert report.failure_kind == "hereditariness"

    def test_cliques_or_independent_violates_amalgamation(self):
        base = builtin_age("graphs")

        def all_or_nothing(s):
            if not base.contains(s):
                return False
            edges = len(s.atoms)
            return edges == 0 or edges == s.size * (s.size - 1)

        age = CallableAge(GRAPH_SIG, all_or_nothing, name="cliques-or-independent")
        report = verify_amalgamation(age, 3)
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


@st.composite
def order_preserving_pairs(draw):
    """Type-preserving pairs over Q: two equal-size sets of rationals matched
    in order, listed in a drawn order."""
    dom = draw(st.lists(RATIONALS, unique=True, max_size=4))
    rng = draw(st.lists(RATIONALS, unique=True, min_size=len(dom), max_size=len(dom)))
    return draw(st.permutations(list(zip(sorted(dom), sorted(rng)))))


@HYPOTHESIS
@given(order_preserving_pairs(), RATIONALS, RATIONALS)
def test_dlo_image_fast_paths_match_generic(pairs, x, y):
    generic = LimitStructure
    assert DLO.admissible_image(pairs, x, y) == generic.admissible_image(DLO, pairs, x, y)
    if x not in {a for a, _ in pairs}:
        cap = 1 << 16
        assert DLO.least_image(pairs, x, cap) == generic.least_image(DLO, pairs, x, cap)


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
    present, absent = set(), set()
    for atom in _all_atoms(age.signature, range(s.size), s.size):
        is_present = atom in s.atoms
        (present if is_present else absent).add(atom)
        assert age.step_ok(s.size, present, absent, atom, is_present)
