"""Differential tests of the label interner behind the behavior tables:
PointLabels ids of orbit labels and their memoized reindexing against the
label definitions, and the id-based enumerate_behaviors and coherence_check,
which link labels through the generating index maps only, against
definitional versions that work on labels through every index map.  The
slot search, which draws a slot's candidates from its links, is also held
to the loop that tries every target id (oracles.reference_slot_search):
the same tables, and the same slot at which a budget runs out."""

import hashlib
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from canonfn import BehaviorTable, Violation, coherence_check, enumerate_behaviors
from canonfn import groups
from canonfn.cli import parse_command, run
from canonfn.errors import BudgetExhausted
from canonfn.formats import parse_group_spec
from canonfn.fraisse import ORDER_SIG, GenericLimit, TupleTypeRecord
from canonfn.groups import AutLimit, PointLabels, label_key, orbit_labels, reindex_label

from oracles import PredicateAge, reference_slot_search


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
    space = PointLabels(g)
    arities = range(1, max_arity + 1)
    ids = {}
    for k in arities:
        labels = orbit_labels(g, k)
        first = len(space.labels)
        ids[k] = [space.id_of_label(label) for label in labels]
        assert ids[k] == list(range(first, first + len(labels)))
        assert space.labels[first:] == labels
        assert [label_key(label) for label in labels] == sorted(map(label_key, labels))
    size = len(space.labels)
    for k in arities:
        for i in ids[k]:
            for j in arities:
                for sigma in sigmas(j, k):
                    expected = reindex_label(g, space.labels[i], sigma)
                    r = space.reindex(i, sigma)
                    assert r in ids[j] and space.labels[r] == expected
    # Admissible labels are closed under reindexing: nothing was interned.
    assert len(space.labels) == size


def test_reindex_runs_reindex_label_once_per_label_and_sigma(monkeypatch):
    g = parse_group_spec("stab(aut(dlo); 0)")
    space = PointLabels(g)
    ids = [space.id_of_label(label) for label in orbit_labels(g, 2)]
    calls = []
    original = groups.reindex_label

    def counting(h, label, sigma):
        if h is g:  # stabilizer labels recurse into their base
            calls.append((label_key(label), sigma))
        return original(h, label, sigma)

    monkeypatch.setattr(groups, "reindex_label", counting)
    for _ in range(2):
        for i in ids:
            for sigma in sigmas(2, 2):
                space.reindex(i, sigma)
    assert len(calls) == len(set(calls)) == 4 * len(ids)


def test_unlisted_label_takes_the_next_id():
    g = parse_group_spec("aut(dlo)")
    space = PointLabels(g)
    lt, gt = orbit_labels(g, 2)[1:]
    assert [space.id_of_label(lt), space.id_of_label(gt), space.id_of_label(lt)] == [0, 1, 0]
    assert space.labels[space.reindex(0, (1, 0))] == gt
    assert space.reindex(0, (0,)) == 2 and space.labels[2:] == orbit_labels(g, 1)


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


@pytest.mark.parametrize("source", ["aut(dlo)", "aut(pureset)", "aut(rado)"])
def test_enumerate_behaviors_on_a_target_not_closed_under_isomorphism(source):
    # The age holds 0<1 but not 1<0, so the target lists the label 1<2 and
    # not its transpose: a backward link's image may be no candidate.
    def only_zero_below_one(s):
        return s.atoms == (frozenset({("<", (0, 1))}) if s.size == 2 else frozenset())

    age = PredicateAge(ORDER_SIG, only_zero_below_one, name="labeled")
    g, h = parse_group_spec(source), AutLimit(GenericLimit(age, name="labeled"))
    found = [t.entries() for t in enumerate_behaviors(g, h, 2)]
    assert found == [t.entries() for t in reference_enumerate(g, h, 2)]
    assert found == [t.entries() for t in reference_slot_search(g, h, 2, 1 << 30)[0]]


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


# Presentation pairs for the drawn differential test, kept to those whose
# all-sigma reference enumeration takes well under a second: at arity 3 the
# one-column aut groups (ordered-rado as a target only), at arity <= 2 also
# a stabilizer of aut(dlo) or power(aut(dlo),2) on one side.
AUTS = ["aut(dlo)", "aut(rado)", "aut(pureset)", "aut(ordered-rado)"]
DRAWN_PAIRS = {
    1: [(a, b) for a in AUTS + ["stab", "power"] for b in AUTS + ["stab", "power"]],
    2: ([(a, b) for a in AUTS for b in AUTS + ["stab", "power"]]
        + [(a, b) for a in ("stab", "power") for b in AUTS[:3]]),
    3: [(a, b) for a in AUTS[:3] for b in AUTS],
}


def _drawn_group(data, name):
    if name == "stab":
        c = data.draw(st.sampled_from(["0", "1/2", "-3"]))
        name = f"stab(aut(dlo); {c})"
    elif name == "power":
        name = "power(aut(dlo),2)"
    return parse_group_spec(name)


def _tables_or_text(search, g, h, max_arity, budget):
    """The entries of each table found, or the text of the budget's end."""
    try:
        return [t.entries() for t in search(g, h, max_arity, budget)]
    except BudgetExhausted as exc:
        return str(exc)


def _without(table, index):
    entries = list(table.entries())
    del entries[index]
    return BehaviorTable(table.source, table.target, table.max_arity, entries)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generator_links_match_every_sigma(data):
    max_arity = data.draw(st.integers(1, 3))
    source, target = data.draw(st.sampled_from(DRAWN_PAIRS[max_arity]))
    g, h = _drawn_group(data, source), _drawn_group(data, target)
    found = enumerate_behaviors(g, h, max_arity)
    assert [t.entries() for t in found] == [t.entries() for t in reference_enumerate(g, h, max_arity)]
    # The loop that tries every target id enters the same slots: a budget
    # runs out at the same node, with the same tables found so far, and the
    # number of slots it enters is the least budget that suffices.
    expected, nodes = reference_slot_search(g, h, max_arity, 1 << 30)
    assert [t.entries() for t in found] == [t.entries() for t in expected]
    budget = data.draw(st.integers(1, nodes))
    assert (_tables_or_text(enumerate_behaviors, g, h, max_arity, budget)
            == _tables_or_text(lambda *a: reference_slot_search(*a)[0], g, h, max_arity, budget))
    if not found:
        return
    table = data.draw(st.sampled_from(found))
    assert coherence_check(table) is None
    entries = table.entries()
    index = data.draw(st.integers(0, len(entries) - 1))
    k = entries[index][0]
    image = data.draw(st.sampled_from(orbit_labels(h, k)))
    gap = data.draw(st.integers(0, len(entries) - 1))
    # A dropped entry leaves a table that is not closed under the generators
    # (unless nothing reindexes to it), so coherence_check runs its full scan;
    # with a flipped entry beside the gap, a violation may pass only through
    # index maps whose generator factorisations cross the gap.
    changed = flipped(table, index, image)
    for broken in (_without(table, index), changed, _without(changed, gap)):
        assert coherence_check(broken) == reference_coherence_check(broken)


def test_coherence_check_scans_past_a_gap():
    # Without its arity-1 entry the table is not closed under the faces, and
    # each generator link it has commutes; yet sigma = (1, 1), a face then a
    # degeneracy, fixes 1=2 and takes its image, an edge, to 1=2.
    g, h = parse_group_spec("aut(dlo)"), parse_group_spec("aut(rado)")
    eq, lt, gt = orbit_labels(g, 2)
    edge = orbit_labels(h, 2)[2]
    table = BehaviorTable(g, h, 2, [(2, eq, edge), (2, lt, edge), (2, gt, edge)])
    violation = coherence_check(table)
    assert violation == reference_coherence_check(table)
    assert violation.sigma == (0, 0) and violation.label == eq


def test_stabilizer_to_ordered_rado_arity_3_is_pinned():
    # 1245 tables in 114,541 report lines, from 172,083 slots entered, as
    # the loop that tried every target id found them; narrowed by the links,
    # the search takes about a sixth of that loop's time.
    argv = ["behaviors", "--source", "stab(aut(dlo); 0)", "--target", "aut(ordered-rado)",
            "--arity", "3", "--budget"]
    code, report = run(parse_command(argv + ["172083"]))
    assert code == 0 and report.startswith("behaviors: 1245\n")
    assert len(report.splitlines()) == 114541
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == "5c5cf6139103d562"
    code, report = run(parse_command(argv + ["172082"]))
    assert (code, report) == (2, "result: budget-exhausted\nreason: slot-search budget of "
                                 "172082 nodes ran out; 1244 tables found so far\n")
