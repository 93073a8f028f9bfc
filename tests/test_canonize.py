import inspect
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from canonfn import (
    AutLimit,
    CanonicalApproximation,
    CanonicalUpTo,
    ComposeOracle,
    ConstantOracle,
    HorizonExhausted,
    IdentityOracle,
    MaxOracle,
    MinOracle,
    NegationOracle,
    PowerGroup,
    PresentationError,
    ProjectionOracle,
    StabilizerGroup,
    TableOracle,
    builtin_limit,
    canonize,
    canonize_with_constants,
    check_canonical,
    format_label,
    mono_subset,
    qf_type,
)
from canonfn.canonicity import BehaviorScan, FunctionOracle
from canonfn.canonize import EmbeddingTower
from canonfn.groups import label_key, orbit_label, point
from test_scan import piecewise_map


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

    def test_search_does_not_recurse_per_level(self, dlo, aut_dlo):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            result = canonize(IdentityOracle(dlo, dlo), aut_dlo, aut_dlo, 1, 300, 300)
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(result, CanonicalApproximation)
        assert result.tower.depth == 300


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


# ---------------------------------------------------------------------------
# the search against its reference loop


def reference_search(f, g, h, arity, depth, horizon):
    """The embedding search written plainly on the definition: a column's
    candidates are the pool elements y whose pairs list, with (x, y) added,
    has the same qf_type on both sides, and a node's columns are committed
    before its push.  (tower, sample table) or HorizonExhausted."""
    seeds = g.constants
    limit, m = g.limit, g.m
    pool = [limit.element(i) for i in range(horizon)]
    points = [point(g, i) for i in range(depth)]

    def columns(p):
        return p if m > 1 else (p,)

    # Each column's pairs, in commit order.
    col_pairs = [[] for _ in range(m)]
    for c in seeds:
        for i, v in enumerate(columns(c)):
            if (v, v) not in col_pairs[i]:
                col_pairs[i].append((v, v))

    def admissible(pairs, x, y):
        return (limit.qf_type(tuple(a for a, _ in pairs) + (x,))
                == limit.qf_type(tuple(b for _, b in pairs) + (y,)))

    # The sample's points: the seeds, then each point of the enumeration
    # that is not a seed.
    sample = list(seeds) + [p for p in points if p not in seeds]
    scan = BehaviorScan(g, h, arity, sample)
    for c in seeds:
        assert scan.push(f(c))
    towers = []
    nodes = deepest = 0

    def rec(level):
        nonlocal nodes, deepest
        deepest = max(deepest, level)
        if level == depth:
            return True
        p = points[level]
        if p in seeds:
            return rec(level + 1)
        cols = columns(p)
        known = [dict(pairs) for pairs in col_pairs]
        free = [i for i in range(m) if cols[i] not in known[i]]
        cand_lists = [[y for y in pool if admissible(col_pairs[i], cols[i], y)] for i in free]
        for combo in itertools.product(*cand_lists):
            nodes += 1
            for i, y in zip(free, combo):
                col_pairs[i].append((cols[i], y))
                known[i][cols[i]] = y
            image = tuple(known[i][cols[i]] for i in range(m))
            image_point = image if m > 1 else image[0]
            if scan.push(f(image_point)):
                towers.append((p, image_point))
                if rec(level + 1):
                    return True
                towers.pop()
                scan.pop()
            for i in free:
                col_pairs[i].pop()
                del known[i][cols[i]]
        return False

    if not rec(0):
        return HorizonExhausted(deepest, nodes)
    tower = EmbeddingTower(tuple((c, c) for c in seeds), tuple(towers))
    return tower, dict(zip(scan.points, scan.images))


def search_case(dlo, seed: int):
    """(oracle, source, arity, depth, horizon) drawn from one seed: a
    piecewise-affine map over aut(dlo) or stab(aut(dlo); c), or min, max or
    a projection followed by one over power(aut(dlo), 2)."""
    rng = random.Random(seed)
    aut = AutLimit(dlo)
    f = piecewise_map(rng)
    shape = rng.choice(["aut", "stab", "power"])
    if shape == "aut":
        g = aut
    elif shape == "stab":
        g = StabilizerGroup(aut, (F(rng.randint(-6, 6), 2),))
    else:
        inner = rng.choice([MinOracle(dlo, dlo), MaxOracle(dlo, dlo),
                            ProjectionOracle(dlo, 2, 0), ProjectionOracle(dlo, 2, 1)])
        f, g = ComposeOracle(f, inner), PowerGroup(aut, 2)
    return f, g, rng.randint(1, 2), rng.randint(1, 5), rng.randint(1, 16)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32))
def test_search_matches_reference_loop(dlo, seed):
    f, g, arity, depth, horizon = search_case(dlo, seed)
    _canonize_against_reference(f, g, AutLimit(f.target), arity, depth, horizon)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["rado", "ordered-rado"])
def test_generic_limit_search_matches_reference_loop(name, seed):
    # Tables of values below 12 over a generic limit, whose germs probe
    # images by qf_type (PartialAutomorphism), not by order position.  All
    # four find a tower on rado; on ordered-rado only the first does, and
    # the others exhaust the horizon.
    limit = builtin_limit(name)
    rng = random.Random(seed)
    f = TableOracle(limit, limit, {limit.element(i): limit.element(rng.randrange(12))
                                   for i in range(12)})
    g = AutLimit(limit)
    result = _canonize_against_reference(f, g, g, 2, 4, 12)
    assert isinstance(result, HorizonExhausted) == (name == "ordered-rado" and seed > 0)


def _canonize_against_reference(f, g, h, arity, depth, horizon):
    result = canonize(f, g, h, arity, depth, horizon)
    expected = reference_search(f, g, h, arity, depth, horizon)
    if isinstance(expected, HorizonExhausted):
        # Backjumps skip only subtrees that cannot reach a deeper level, so
        # the search gets as far as the chronological loop, in no more pushes.
        assert isinstance(result, HorizonExhausted)
        assert result.depth_reached == expected.depth_reached
        assert result.nodes <= expected.nodes
    else:
        assert (result.tower, result.sample.mapping) == expected
        # The certificate comes from the search's own scan; a full scan of
        # the sample's points must give the same one.
        points = list(result.sample.mapping)
        fresh = check_canonical(result.sample, g, h, len(points), arity, points=points)
        assert fresh and result.certificate == fresh
    return result


class CountingOracle(FunctionOracle):
    """Another oracle's values, counting the calls."""

    def __init__(self, inner: FunctionOracle):
        super().__init__(inner.source, inner.target)
        self.m = inner.m
        self.inner = inner
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return self.inner(p)


def test_backjumping_cuts_the_mixed_map_search(dlo, aut_dlo, mixed_map):
    # The chronological search tries 26,241 pushes here, with the same tower.
    f = CountingOracle(mixed_map)
    result = canonize(f, aut_dlo, aut_dlo, 2, 7, 64)
    assert result.tower.pairs[-1] == (F(-2), F(0))
    assert f.calls == 1068


def test_exhausted_search_counts_its_backjumps(dlo, aut_dlo, mixed_map):
    # The chronological search tries 106 pushes and skips no level.
    result = canonize(mixed_map, aut_dlo, aut_dlo, 2, 6, 8)
    assert result == HorizonExhausted(depth_reached=5, nodes=64, backjumps=13)


@pytest.mark.parametrize("constants", [(), (F(1, 2),)])
def test_one_oracle_call_per_node(dlo, aut_dlo, mixed_map, constants):
    # perfbench counts canonize's search nodes as the oracle calls the
    # search makes, less one per constant.
    f = CountingOracle(mixed_map)
    g = StabilizerGroup(aut_dlo, constants) if constants else aut_dlo
    result = canonize(f, g, aut_dlo, 2, 6, 8)
    assert isinstance(result, HorizonExhausted)
    assert f.calls == result.nodes + len(constants)


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

    def test_least_monochromatic_combination(self):
        # combinations() lists subsets in lexicographic order.
        rng = random.Random(7)
        for _ in range(40):
            n, size = rng.randint(4, 8), rng.randint(2, 4)
            coloring = {p: rng.randrange(2) for p in itertools.combinations(range(n), 2)}
            expected = next((c for c in itertools.combinations(range(n), size)
                             if len({coloring[p] for p in itertools.combinations(c, 2)}) == 1),
                            None)
            assert mono_subset(coloring, size) == expected

    def test_search_does_not_recurse_per_point(self):
        coloring = {p: 0 for p in itertools.combinations(range(300), 2)}
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            subset = mono_subset(coloring, 300)
        finally:
            sys.setrecursionlimit(limit)
        assert subset == tuple(range(300))


PENTAGON = [1, 2, 2, 1, 1, 2, 2, 1, 2, 1]   # (1,2), (1,3), ... (4,5): the 5-cycle is color 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(st.integers(-9, 9), min_size=2, max_size=7, unique=True),
       colors=st.lists(st.integers(0, 2), min_size=21, max_size=21),
       keys=st.lists(st.integers(0, 2), min_size=21, max_size=21),
       size=st.integers(1, 8))
@example(points=[1, 2, 3, 4, 5], colors=PENTAGON + [0] * 11, keys=[0] * 21, size=3)
@example(points=[4, -2, 7], colors=[0, 1, 0] + [0] * 18, keys=[2] * 21, size=1)
@example(points=[0, 1, 2], colors=[0] * 21, keys=[1] * 21, size=4)
def test_mono_subset_matches_first_combination(points, colors, keys, size):
    # The reference: the first subset in combinations() order whose pairs
    # all share one color.  A pair is keyed as (a, b), (b, a) or a frozenset.
    ordered = sorted(points)
    pairs = list(itertools.combinations(ordered, 2))
    color = dict(zip(pairs, colors))
    coloring = {((a, b), (b, a), frozenset((a, b)))[k]: color[(a, b)]
                for (a, b), k in zip(pairs, keys)}
    expected = next((c for c in itertools.combinations(ordered, size)
                     if len({color[p] for p in itertools.combinations(c, 2)}) <= 1), None)
    assert mono_subset(coloring, size) == expected


class TestRamseyConsistency:
    def test_table_coloring_matches_canonize(self, dlo, aut_dlo):
        points = [F(i) for i in (-3, -1, 0, 2, 5)]
        table = {F(-3): F(9), F(-1): F(4), F(0): F(1), F(2): F(0), F(5): F(-2)}
        oracle = TableOracle(dlo, dlo, table)
        coloring = {
            (a, b): "increasing" if oracle(a) < oracle(b)
            else "decreasing" if oracle(a) > oracle(b) else "constant"
            for a, b in itertools.combinations(points, 2)
        }
        subset = mono_subset(coloring, 3)
        assert subset is not None
        color = coloring[(subset[0], subset[1])]
        assert color == "decreasing"
        sample = TableOracle(dlo, dlo, {p: table[p] for p in subset})
        verdict = check_canonical(sample, aut_dlo, aut_dlo, 3, 2, points=list(subset))
        assert isinstance(verdict, CanonicalUpTo)
        strings = entry_strings(verdict.behavior, 2)
        assert "1<2->2<1" in strings
