"""Differential tests of the interned label spaces: LabelSpace ids and their
memoized reindexing against the label definitions, and the id-based
enumerate_behaviors and coherence_check against definitional versions that
work on labels throughout."""

import itertools

import pytest

from canonfn import BehaviorTable, Violation, coherence_check, enumerate_behaviors
from canonfn import groups
from canonfn.formats import parse_group_spec
from canonfn.fraisse import ORDER_SIG, TupleTypeRecord
from canonfn.groups import LabelSpace, label_key, orbit_labels, reindex_label


def sigmas(j, k):
    return itertools.product(range(k), repeat=j)


def reference_coherence_check(table):
    """First violation, scanning (k, j, sigma, tau) with label arithmetic."""
    src, tgt = table.source, table.target
    for k in range(1, table.max_arity + 1):
        for j in range(1, table.max_arity + 1):
            for sigma in sigmas(j, k):
                for tau, image in sorted(table._maps[k].values(),
                                         key=lambda e: label_key(e[0])):
                    lhs = table.get(j, reindex_label(src, tau, sigma))
                    if lhs is None:
                        continue
                    rhs = reindex_label(tgt, image, sigma)
                    if lhs != rhs:
                        return Violation(k, sigma, tau, rhs, lhs)
    return None


def reference_enumerate(source, target, max_arity):
    """All coherent total tables by a DFS over labels, sorted by graph_key."""
    tgt_labels = {k: orbit_labels(target, k) for k in range(1, max_arity + 1)}
    slots = [(k, tau) for k in range(1, max_arity + 1) for tau in orbit_labels(source, k)]
    slot_index = {(k, label_key(tau)): i for i, (k, tau) in enumerate(slots)}
    links = [[] for _ in slots]
    for i, (k, tau) in enumerate(slots):
        for j in range(1, max_arity + 1):
            for sigma in sigmas(j, k):
                r = slot_index[(j, label_key(reindex_label(source, tau, sigma)))]
                links[i].append((i, r, sigma))
                links[r].append((i, r, sigma))
    assignment = [None] * len(slots)
    results = []

    def consistent(i):
        for s, r, sigma in links[i]:
            if assignment[s] is not None and assignment[r] is not None:
                if assignment[r] != reindex_label(target, assignment[s], sigma):
                    return False
        return True

    def rec(i):
        if i == len(slots):
            entries = [(k, tau, assignment[n]) for n, (k, tau) in enumerate(slots)]
            results.append(BehaviorTable(source, target, max_arity, entries))
            return
        for candidate in tgt_labels[slots[i][0]]:
            assignment[i] = candidate
            if consistent(i):
                rec(i + 1)
        assignment[i] = None

    rec(0)
    results.sort(key=BehaviorTable.graph_key)
    return results


SPACES = [(spec, k) for spec in ("aut(dlo)", "aut(rado)", "aut(ordered-rado)",
                                 "aut(pureset)", "stab(aut(dlo); 0)", "power(aut(dlo),2)")
          for k in (1, 2, 3)] + [("aut(dlo)", 4), ("aut(pureset)", 4)]


@pytest.mark.parametrize("spec,max_arity", SPACES)
def test_ids_follow_label_key_and_reindex_matches_labels(spec, max_arity):
    g = parse_group_spec(spec)
    space = LabelSpace.admissible(g, max_arity)
    arities = range(1, max_arity + 1)
    for k in arities:
        labels = space.labels[k]
        assert labels == orbit_labels(g, k)
        assert [label_key(label) for label in labels] == sorted(map(label_key, labels))
        assert [space.id_of(k, label) for label in labels] == list(range(len(labels)))
    sizes = {k: len(space.labels[k]) for k in arities}
    for k in arities:
        for i, label in enumerate(space.labels[k]):
            for j in arities:
                for sigma in sigmas(j, k):
                    expected = reindex_label(g, label, sigma)
                    r = space.reindex(k, i, sigma)
                    assert r < sizes[j] and space.labels[j][r] == expected
    # Admissible labels are closed under reindexing: nothing was interned.
    assert {k: len(space.labels[k]) for k in arities} == sizes


def test_reindex_runs_reindex_label_once_per_label_and_sigma(monkeypatch):
    g = parse_group_spec("stab(aut(dlo); 0)")
    space = LabelSpace.admissible(g, 2)
    calls = []
    original = groups.reindex_label

    def counting(h, label, sigma):
        if h is g:  # stabilizer labels recurse into their base
            calls.append((label_key(label), sigma))
        return original(h, label, sigma)

    monkeypatch.setattr(groups, "reindex_label", counting)
    for _ in range(2):
        for i in range(len(space.labels[2])):
            for sigma in sigmas(2, 2):
                space.reindex(2, i, sigma)
    assert len(calls) == len(set(calls)) == 4 * len(space.labels[2])


def test_unlisted_label_takes_the_next_id():
    g = parse_group_spec("aut(dlo)")
    space = LabelSpace(g, {1: [], 2: []})
    lt, gt = orbit_labels(g, 2)[1:]
    assert [space.id_of(2, lt), space.id_of(2, gt), space.id_of(2, lt)] == [0, 1, 0]
    assert space.labels[2][space.reindex(2, 0, (1, 0))] == gt
    assert space.reindex(2, 0, (0,)) == 0 and space.labels[1] == orbit_labels(g, 1)


@pytest.mark.parametrize("source,target,max_arity", [
    ("aut(dlo)", "aut(dlo)", 3),
    ("stab(aut(dlo); 0)", "aut(pureset)", 2),
    ("power(aut(dlo),2)", "aut(dlo)", 2),
    ("aut(rado)", "aut(dlo)", 2),
    ("aut(ordered-rado)", "aut(ordered-rado)", 2),
])
def test_enumerate_behaviors_matches_definition(source, target, max_arity):
    g, h = parse_group_spec(source), parse_group_spec(target)
    found = enumerate_behaviors(g, h, max_arity)
    expected = reference_enumerate(g, h, max_arity)
    assert [t.entries() for t in found] == [t.entries() for t in expected]
    assert [t.graph_key() for t in found] == sorted(t.graph_key() for t in found)


def flipped(table, index, image):
    entries = list(table.entries())
    k, src, _ = entries[index]
    entries[index] = (k, src, image)
    return BehaviorTable(table.source, table.target, table.max_arity, entries)


@pytest.mark.parametrize("source,target,max_arity", [
    ("aut(dlo)", "aut(dlo)", 3),
    ("power(aut(dlo),2)", "aut(dlo)", 2),
    ("stab(aut(dlo); 0)", "aut(pureset)", 2),
])
def test_coherence_check_first_violation_matches_definition(source, target, max_arity):
    g, h = parse_group_spec(source), parse_group_spec(target)
    tables = enumerate_behaviors(g, h, max_arity)
    violations = 0
    for table in tables[:2]:
        assert coherence_check(table) is None
        entries = table.entries()
        for index in range(0, len(entries), max(1, len(entries) // 4)):
            k = entries[index][0]
            for image in orbit_labels(h, k)[:2]:
                broken = flipped(table, index, image)
                violation = coherence_check(broken)
                assert violation == reference_coherence_check(broken)
                violations += violation is not None
    assert violations > 0


def test_coherence_check_on_a_label_outside_the_orbits():
    g = parse_group_spec("aut(dlo)")
    one = orbit_labels(g, 1)[0]
    eq, lt, gt = orbit_labels(g, 2)
    incomparable = TupleTypeRecord(ORDER_SIG, 2, (0, 1), frozenset())
    table = BehaviorTable(g, g, 2, [(1, one, one), (2, eq, eq), (2, lt, incomparable),
                                    (2, gt, incomparable)])
    violation = coherence_check(table)
    assert violation == reference_coherence_check(table)
    assert violation is None
    table = BehaviorTable(g, g, 2, [(1, one, one), (2, eq, eq), (2, lt, incomparable),
                                    (2, gt, lt)])
    violation = coherence_check(table)
    assert violation == reference_coherence_check(table) is not None
