import inspect
import itertools
import sys
from fractions import Fraction as F

import pytest

from canonfn import (
    AutLimit,
    BehaviorTable,
    Exhausted,
    TableOracle,
    Violation,
    builtin_limit,
    check_canonical,
    coherence_check,
    enumerate_behaviors,
    format_label,
    orbit_label,
    orbit_labels,
    qf_type,
    realize_behavior,
)
from canonfn.behaviors import depth_first
from canonfn.groups import reindex_label


def table_entry_strings(table, arity=None):
    return [
        f"{format_label(s)}->{format_label(t)}"
        for k, s, t in table.entries()
        if arity is None or k == arity
    ]


def find_table(tables, wanted, arity=2):
    for t in tables:
        if sorted(table_entry_strings(t, arity)) == sorted(wanted):
            return t
    raise AssertionError(f"no table with entries {wanted}")


class TestReindex:
    def test_swap(self, dlo):
        lt = qf_type(dlo, (F(0), F(1)))
        gt = qf_type(dlo, (F(1), F(0)))
        assert reindex_label(AutLimit(dlo), lt, (1, 0)) == gt

    def test_duplicate(self, dlo):
        lt = qf_type(dlo, (F(0), F(1)))
        eq = qf_type(dlo, (F(0), F(0)))
        assert reindex_label(AutLimit(dlo), lt, (0, 0)) == eq

    def test_projection(self, dlo):
        chain = qf_type(dlo, (F(0), F(1), F(2)))
        lt = qf_type(dlo, (F(0), F(1)))
        assert reindex_label(AutLimit(dlo), chain, (0, 2)) == lt

    def test_functorial(self, dlo):
        aut = AutLimit(dlo)
        record = qf_type(dlo, (F(0), F(1), F(0), F(-2)))
        sigmas = [(0, 1), (2, 0, 1), (3, 3), (1,), (0, 1, 2, 3)]
        rhos = [(0,), (1, 0), (0, 0)]
        for sigma in sigmas:
            for rho in rhos:
                if any(i >= len(sigma) for i in rho):
                    continue
                composed = tuple(sigma[i] for i in rho)
                assert (reindex_label(aut, reindex_label(aut, record, sigma), rho)
                        == reindex_label(aut, record, composed))


class TestCoherence:
    def test_reversal_is_coherent(self, dlo, aut_dlo):
        swap = {"1<2": "2<1", "2<1": "1<2", "1=2": "1=2"}
        labels = orbit_labels(aut_dlo, 2)
        entries = [(1, orbit_labels(aut_dlo, 1)[0], orbit_labels(aut_dlo, 1)[0])]
        by_name = {format_label(l): l for l in labels}
        for name, image in swap.items():
            entries.append((2, by_name[name], by_name[image]))
        table = BehaviorTable(aut_dlo, aut_dlo, 2, entries)
        assert coherence_check(table) is None

    def test_collapse_violates_swap(self, dlo, aut_dlo):
        labels = {format_label(l): l for l in orbit_labels(aut_dlo, 2)}
        one = orbit_labels(aut_dlo, 1)[0]
        entries = [
            (1, one, one),
            (2, labels["1<2"], labels["1<2"]),
            (2, labels["2<1"], labels["1<2"]),
            (2, labels["1=2"], labels["1=2"]),
        ]
        table = BehaviorTable(aut_dlo, aut_dlo, 2, entries)
        violation = coherence_check(table)
        assert isinstance(violation, Violation)
        assert violation.sigma == (1, 0)

    def test_arity_one_trivially_ok(self, aut_dlo):
        one = orbit_labels(aut_dlo, 1)[0]
        table = BehaviorTable(aut_dlo, aut_dlo, 1, [(1, one, one)])
        assert coherence_check(table) is None


class TestEnumeration:
    def test_dlo_taxonomy_at_two(self, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        assert len(tables) == 3
        find_table(tables, ["1=2->1=2", "1<2->1<2", "2<1->2<1"])
        find_table(tables, ["1=2->1=2", "1<2->2<1", "2<1->1<2"])
        find_table(tables, ["1=2->1=2", "1<2->1=2", "2<1->1=2"])

    def test_dlo_taxonomy_at_three(self, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 3)
        assert len(tables) == 3

    def test_pureset_taxonomy(self, pureset):
        g = AutLimit(pureset)
        tables = enumerate_behaviors(g, g, 2)
        assert len(tables) == 2

    def test_all_enumerated_tables_cohere_and_are_total(self, aut_dlo):
        for table in enumerate_behaviors(aut_dlo, aut_dlo, 3):
            assert coherence_check(table) is None
            assert all(table.get(k, label) is not None
                       for k in (1, 2, 3) for label in orbit_labels(aut_dlo, k))

    def test_restriction_consistency_two_vs_three(self, aut_dlo):
        twos = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        threes = enumerate_behaviors(aut_dlo, aut_dlo, 3)
        restricted = []
        for table in threes:
            entries = [(k, s, t) for k, s, t in table.entries() if k <= 2]
            restricted.append(BehaviorTable(aut_dlo, aut_dlo, 2, entries).graph_key())
        assert sorted(restricted) == sorted(t.graph_key() for t in twos)

    def test_ordering_by_map_graph(self, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        keys = [t.graph_key() for t in tables]
        assert keys == sorted(keys)

    def test_slot_search_does_not_recurse_per_slot(self, aut_dlo):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            tables = enumerate_behaviors(aut_dlo, aut_dlo, 4)
        finally:
            sys.setrecursionlimit(limit)
        assert len(tables) == 3
        assert {len(t.entries()) for t in tables} == {1 + 3 + 13 + 75}


class TestRealize:
    def test_decreasing_witness(self, dlo, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        dec = find_table(tables, ["1=2->1=2", "1<2->2<1", "2<1->1<2"])
        witness = realize_behavior(dec, 3)
        assert witness == ((F(0), F(0)), (F(1), F(-1)), (F(-1), F(1)))
        for (x1, y1), (x2, y2) in itertools.product(witness, repeat=2):
            assert qf_type(dlo, (y1, y2)) == dec.get(2, qf_type(dlo, (x1, x2)))

    def test_constant_witness(self, dlo, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        const = find_table(tables, ["1=2->1=2", "1<2->1=2", "2<1->1=2"])
        witness = realize_behavior(const, 4)
        images = {y for _, y in witness}
        assert images == {F(0)}

    def test_incoherent_duplication_exhausts(self, dlo, aut_dlo):
        labels = {format_label(l): l for l in orbit_labels(aut_dlo, 2)}
        one = orbit_labels(aut_dlo, 1)[0]
        table = BehaviorTable(aut_dlo, aut_dlo, 2, [
            (1, one, one),
            (2, labels["1<2"], labels["1<2"]),
            (2, labels["2<1"], labels["2<1"]),
            (2, labels["1=2"], labels["1<2"]),
        ])
        assert isinstance(realize_behavior(table, 2), Exhausted)

    def test_search_does_not_recurse_per_element(self, aut_dlo):
        table, = enumerate_behaviors(aut_dlo, aut_dlo, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            witness = realize_behavior(table, 200)
        finally:
            sys.setrecursionlimit(limit)
        assert len(witness) == 200

    def test_witness_behavior_reproduces_table(self, dlo, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        for table in tables:
            witness = realize_behavior(table, 3)
            oracle = TableOracle(dlo, dlo, dict(witness))
            observed = check_canonical(oracle, aut_dlo, aut_dlo, 3, 2,
                                       points=[x for x, _ in witness]).behavior
            for k, src, tgt in observed.entries():
                assert table.get(k, src) == tgt


def definitional_realize(table, n):
    """The realizability search written plainly: candidates from the first
    8n target elements in enumeration order, each kept when every tuple over
    the prefix has the image label the table gives its source label."""
    g, h = table.source, table.target
    domain = [g.limit.element(i) for i in range(n)]
    pool = [h.limit.element(i) for i in range(8 * n)]
    images = []
    explored = 0

    def fits():
        for k in range(1, table.max_arity + 1):
            for idx in itertools.product(range(len(images)), repeat=k):
                s = tuple(domain[i] for i in idx)
                image = tuple(images[i] for i in idx)
                if table.get(k, orbit_label(g, s)) != orbit_label(h, image):
                    return False
        return True

    def rec(i):
        nonlocal explored
        if i == n:
            return True
        for y in pool:
            explored += 1
            images.append(y)
            if fits() and rec(i + 1):
                return True
            images.pop()
        return False

    return tuple(zip(domain, images)) if rec(0) else Exhausted(explored)


REALIZE_CASES = [("dlo", "dlo", 1), ("dlo", "dlo", 2), ("dlo", "pureset", 2), ("rado", "dlo", 2)]


@pytest.mark.parametrize("source,target,arity", REALIZE_CASES)
def test_realize_matches_definitional_search(source, target, arity):
    """Same witness and same explored count on every enumerated table, and on
    each table with any one entry dropped (a partial table)."""
    g, h = AutLimit(builtin_limit(source)), AutLimit(builtin_limit(target))
    for table in enumerate_behaviors(g, h, arity):
        entries = table.entries()
        partial = [BehaviorTable(g, h, arity, entries[:i] + entries[i + 1:])
                   for i in range(len(entries))]
        for t in [table] + partial:
            for n in range(1, 5):
                assert realize_behavior(t, n) == definitional_realize(t, n)


@pytest.mark.parametrize("n", [0, -1])
def test_realize_nonpositive_size_is_error(aut_dlo, n):
    table = enumerate_behaviors(aut_dlo, aut_dlo, 2)[0]
    with pytest.raises(ValueError, match="witness size must be positive"):
        realize_behavior(table, n)


# ---------------------------------------------------------------------------
# the backtracking driver


def _driver_log(failing: int, conflicts):
    """The steps of depth_first over four levels of two choices each, where
    every choice at level 3 fails and, with conflicts, records the levels
    in the bitmask failing."""
    log = []

    def level(i):
        if conflicts is not None:
            conflicts[i] = 0
        for c in range(2):
            if i == 3:
                log.append(f"fail {c}")
                if conflicts is not None:
                    conflicts[3] |= failing
                continue
            log.append(f"do {i}{c}")
            yield
            log.append(f"undo {i}{c}")
            if conflicts is not None and conflicts[i] < 0:
                log.append(f"skip {i}")
                return

    assert not any(True for _ in depth_first(4, level, conflicts))
    return log


def test_backjump_resumes_each_skipped_level_once():
    log = _driver_log(0b1, [0] * 4)
    once = ["do 00", "do 10", "do 20", "fail 0", "fail 1",
            "undo 20", "skip 2", "undo 10", "skip 1", "undo 00"]
    assert log == once + ["do 01", "do 10", "do 20", "fail 0", "fail 1",
                          "undo 20", "skip 2", "undo 10", "skip 1", "undo 01"]


def test_backjump_merges_the_rest_of_the_set():
    # Each visit of level 3 jumps to level 1, skipping level 2; level 1 then
    # holds {0}, so when its choices run out it hands back to level 0.  So
    # level 3 is visited once per choice of levels 0 and 1, not 8 times.
    log = _driver_log(0b11, [0] * 4)
    assert log.count("skip 2") == 4 and "skip 1" not in log
    assert log.count("fail 0") == 4
    assert [s for s in log if s.startswith(("do 0", "undo 0"))] == [
        "do 00", "undo 00", "do 01", "undo 01"]


def test_without_conflicts_the_search_is_chronological():
    log = _driver_log(0b1, None)
    assert log.count("fail 0") == 8 and not any(s.startswith("skip") for s in log)
    assert log.count("do 20") == log.count("undo 20") == 4
