import itertools
from fractions import Fraction as F

import pytest

from canonfn import (
    AutLimit,
    CanonicalApproximation,
    CanonicalUpTo,
    ConstantOracle,
    HorizonExhausted,
    IdentityOracle,
    MinOracle,
    NegationOracle,
    PowerGroup,
    PresentationError,
    StabilizerGroup,
    TableOracle,
    canonize,
    canonize_with_constants,
    check_canonical,
    format_label,
    mono_subset,
    pair_coloring,
    qf_type,
)
from canonfn.groups import label_key, orbit_label


def entry_strings(table, arity):
    return sorted(
        f"{format_label(s)}->{format_label(t)}"
        for k, s, t in table.entries() if k == arity
    )


class TestCanonize:
    def test_mixed_map_becomes_increasing(self, dlo, aut_dlo, mixed_map):
        result = canonize(mixed_map, aut_dlo, aut_dlo, 2, 6, 64)
        assert isinstance(result, CanonicalApproximation)
        assert result.tower.pairs == (
            (F(0), F(1)), (F(1), F(2)), (F(-1), F(0)),
            (F(1, 2), F(3, 2)), (F(-1, 2), F(1, 2)), (F(2), F(3)),
        )
        assert all(y >= 0 for _, y in result.tower.pairs)
        assert entry_strings(result.behavior, 2) == ["1<2->1<2", "1=2->1=2", "2<1->2<1"]

    def test_constant_stays_constant_with_identity_tower(self, dlo, aut_dlo):
        result = canonize(ConstantOracle(dlo, F(0)), aut_dlo, aut_dlo, 2, 6, 64)
        assert all(x == y for x, y in result.tower.pairs)
        assert entry_strings(result.behavior, 2) == ["1<2->1=2", "1=2->1=2", "2<1->1=2"]

    def test_negation_identity_tower(self, dlo, aut_dlo, neg):
        result = canonize(neg, aut_dlo, aut_dlo, 3, 6, 64)
        assert all(x == y for x, y in result.tower.pairs)
        assert entry_strings(result.behavior, 2) == ["1<2->2<1", "1=2->1=2", "2<1->1<2"]

    def test_certificate_validates_independently(self, dlo, aut_dlo, mixed_map):
        result = canonize(mixed_map, aut_dlo, aut_dlo, 2, 6, 64)
        verdict = check_canonical(result.sample, aut_dlo, aut_dlo, 6, 2,
                                  points=[x for x, _ in result.tower.pairs])
        assert isinstance(verdict, CanonicalUpTo)
        assert verdict.behavior.graph_key() == result.behavior.graph_key()

    def test_closure_membership(self, dlo, aut_dlo, mixed_map):
        result = canonize(mixed_map, aut_dlo, aut_dlo, 2, 6, 64)
        for x, y in result.tower.pairs:
            assert result.sample(x) == mixed_map(y)
        dom = tuple(x for x, _ in result.tower.pairs)
        rng = tuple(y for _, y in result.tower.pairs)
        assert qf_type(dlo, dom) == qf_type(dlo, rng)

    def test_monotone_restart_prefix_admissible(self, dlo, aut_dlo, mixed_map):
        deeper = canonize(mixed_map, aut_dlo, aut_dlo, 2, 7, 64)
        assert isinstance(deeper, CanonicalApproximation)
        for n in range(1, 7):
            prefix = deeper.tower.pairs[:n]
            dom = tuple(x for x, _ in prefix)
            rng = tuple(y for _, y in prefix)
            assert qf_type(dlo, dom) == qf_type(dlo, rng)
            sample = TableOracle(dlo, dlo, {x: mixed_map(y) for x, y in prefix})
            verdict = check_canonical(sample, aut_dlo, aut_dlo, n, 2, points=list(dom))
            assert isinstance(verdict, CanonicalUpTo)

    def test_tiny_horizon_exhausts(self, dlo, aut_dlo, mixed_map):
        result = canonize(mixed_map, aut_dlo, aut_dlo, 2, 6, 3)
        assert isinstance(result, HorizonExhausted)
        assert not result

    def test_rejects_m_ary_oracle(self, dlo, aut_dlo):
        with pytest.raises(PresentationError):
            canonize(MinOracle(dlo, dlo), aut_dlo, aut_dlo, 2, 4, 16)


@pytest.fixture(scope="module")
def min_result(dlo):
    return canonize_with_constants(MinOracle(dlo, dlo), [], 2, 6, 64)


class TestOneSearchForEverySourceShape:
    def test_power_source(self, dlo, aut_dlo, min_result):
        result = canonize(MinOracle(dlo, dlo), PowerGroup(aut_dlo, 2), aut_dlo, 2, 6, 64)
        assert result.tower == min_result.tower
        assert result.behavior.graph_key() == min_result.behavior.graph_key()

    def test_stabilized_power_source(self, dlo, aut_dlo):
        c = (F(0), F(1))
        f = MinOracle(dlo, dlo)
        g = StabilizerGroup(PowerGroup(aut_dlo, 2), (c,))
        h = StabilizerGroup(aut_dlo, (F(0),))
        result = canonize(f, g, h, 2, 6, 64)
        expected = canonize_with_constants(f, [c], 2, 6, 64)
        assert result.tower.seeds == ((c, c),)
        assert result.tower == expected.tower
        assert result.behavior.graph_key() == expected.behavior.graph_key()


class TestCanonizeWithConstants:
    def test_identity_fixing_zero(self, dlo):
        result = canonize_with_constants(IdentityOracle(dlo, dlo), [F(0)], 2, 6, 64)
        assert isinstance(result, CanonicalApproximation)
        assert result.sample(F(0)) == F(0)
        ones = [(s, t) for k, s, t in result.behavior.entries() if k == 1]
        assert len(ones) == 3
        assert all(label_key(s) == label_key(t) for s, t in ones)

    def test_negation_fixing_zero_decreasing(self, dlo):
        result = canonize_with_constants(NegationOracle(dlo), [F(0)], 2, 6, 64)
        assert result.sample(F(0)) == F(0)
        stab = StabilizerGroup(AutLimit(dlo), (F(0),))
        pos, neg_img = orbit_label(stab, (F(1),)), orbit_label(stab, (F(-1),))
        assert result.behavior.get(1, pos) == neg_img
        assert result.behavior.get(1, neg_img) == pos

    def test_min_finds_projection(self, min_result):
        assert isinstance(min_result, CanonicalApproximation)
        entries = min_result.behavior.entries()
        column = None
        for i in (0, 1):
            if all(label_key(s[i]) == label_key(t) for _, s, t in entries):
                column = i
        assert column is not None

    def test_min_certificate(self, min_result):
        assert isinstance(min_result.certificate, CanonicalUpTo)
        for x, y in min_result.tower.pairs:
            assert min_result.sample(x) == min(y)


class TestMonoSubset:
    def test_monochromatic_coloring(self):
        coloring = {(a, b): 1 for a, b in itertools.combinations(range(1, 6), 2)}
        assert mono_subset(coloring, 3) == (1, 2, 3)

    def test_pentagon_has_no_mono_triple(self):
        cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
        coloring = {}
        for a, b in itertools.combinations(range(1, 6), 2):
            coloring[(a, b)] = 1 if (a, b) in cycle else 2
        assert mono_subset(coloring, 3) is None

    def test_lexicographically_least(self):
        coloring = {(a, b): 1 for a, b in itertools.combinations(range(1, 7), 2)}
        coloring[(1, 2)] = 2
        assert mono_subset(coloring, 3) == (1, 3, 4)

    def test_frozenset_keys_accepted(self):
        coloring = {frozenset({a, b}): "x" for a, b in itertools.combinations(range(1, 5), 2)}
        assert mono_subset(coloring, 4) == (1, 2, 3, 4)

    def test_sampled_two_colorings_of_six(self):
        pairs = list(itertools.combinations(range(1, 7), 2))
        for seed in range(0, 32768, 577):
            coloring = {p: (seed >> i) & 1 for i, p in enumerate(pairs)}
            subset = mono_subset(coloring, 3)
            assert subset is not None
            a, b, c = subset
            assert coloring[(a, b)] == coloring[(b, c)] == coloring[(a, c)]


class TestRamseyConsistency:
    def test_table_coloring_matches_canonize(self, dlo, aut_dlo):
        points = [F(i) for i in (-3, -1, 0, 2, 5)]
        table = {F(-3): F(9), F(-1): F(4), F(0): F(1), F(2): F(0), F(5): F(-2)}
        oracle = TableOracle(dlo, dlo, table)
        coloring = pair_coloring(oracle, points)
        subset = mono_subset(coloring, 3)
        assert subset is not None
        color = coloring[(subset[0], subset[1])]
        assert color == "decreasing"
        sample = TableOracle(dlo, dlo, {p: table[p] for p in subset})
        verdict = check_canonical(sample, aut_dlo, aut_dlo, 3, 2, points=list(subset))
        assert isinstance(verdict, CanonicalUpTo)
        strings = entry_strings(verdict.behavior, 2)
        assert "1<2->2<1" in strings
