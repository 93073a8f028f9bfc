import itertools
from fractions import Fraction as F

from canonfn import (
    AutLimit,
    BehaviorTable,
    Exhausted,
    TableOracle,
    Violation,
    behavior_of,
    coherence_check,
    enumerate_behaviors,
    format_label,
    orbit_labels,
    qf_type,
    realize_behavior,
)
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
            assert table.is_total()

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

    def test_witness_behavior_reproduces_table(self, dlo, aut_dlo):
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        for table in tables:
            witness = realize_behavior(table, 3)
            oracle = TableOracle(dlo, dlo, dict(witness))
            observed = behavior_of(oracle, aut_dlo, aut_dlo, 3, 2,
                                   points=[x for x, _ in witness])
            for k, src, tgt in observed.entries():
                assert table.get(k, src) == tgt
