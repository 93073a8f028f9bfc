"""Differential tests of the one tuple-scan engine: its full mode (the
check_canonical scan) against its incremental mode (push/pop), against the
full scan of every tuple and against canonicity decided from comparisons
alone (oracles.canonical), and the lazy image contract of the full mode."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from canonfn import (
    AutLimit,
    ComposeOracle,
    Counterexample,
    IdentityOracle,
    MaxOracle,
    MinOracle,
    NegationOracle,
    PiecewiseAffineOracle,
    PowerGroup,
    ProjectionOracle,
    StabilizerGroup,
    TableOracle,
    builtin_limit,
    check_canonical,
    count_orbits_g,
)
from canonfn import canonicity
from canonfn.canonicity import AffinePiece, BehaviorScan, CanonicalUpTo, Interval
from canonfn.formats import load_forbidden_age
from canonfn.fraisse import DloLimit, GenericLimit, LimitStructure
from canonfn.groups import PointLabels, point

import oracles
from oracles import reference_scan

DLO = builtin_limit("dlo")
AUT = AutLimit(DLO)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

def piecewise_map(rng, integer=None, flag=None, min_breaks=0):
    """Piecewise-affine map of Q with up to two breakpoints at halves, drawn
    from rng, or from integer(lo, hi) and flag() when they are given."""
    integer = integer or rng.randint
    flag = flag or (lambda: rng.random() < 0.5)
    breaks = sorted({F(integer(-3, 3), 2) for _ in range(integer(min_breaks, 2))})
    closed = [flag() for _ in breaks]
    lows = [(None, False)] + [(b, not c) for b, c in zip(breaks, closed)]
    highs = [(b, c) for b, c in zip(breaks, closed)] + [(None, False)]
    pieces = [
        AffinePiece(Interval(lo, lo_closed, hi, hi_closed),
                    F(integer(-2, 2)), F(integer(-6, 6), 2))
        for (lo, lo_closed), (hi, hi_closed) in zip(lows, highs)
    ]
    return PiecewiseAffineOracle(DLO, pieces)


def seeded_case(seed: int):
    """(oracle, source, target, horizon, arity) with an aut, stab or power
    source, drawn from one seed."""
    rng = random.Random(seed)
    f = piecewise_map(rng)
    shape = rng.choice(["aut", "stab", "power"])
    if shape == "aut":
        g = AUT
    elif shape == "stab":
        g = StabilizerGroup(AUT, (F(rng.randint(-6, 6), 2),))
    else:
        inner = rng.choice([MinOracle(DLO, DLO), MaxOracle(DLO, DLO),
                            ProjectionOracle(DLO, 2, 0), ProjectionOracle(DLO, 2, 1)])
        f, g = ComposeOracle(f, inner), PowerGroup(AUT, 2)
    return f, g, AUT, rng.randint(2, 8), rng.randint(1, 3)


@SETTINGS
@given(seed=st.integers(0, 2**32))
def test_full_and_incremental_modes_agree(seed):
    f, g, h, horizon, arity = seeded_case(seed)
    verdict = check_canonical(f, g, h, horizon, arity)
    pts = [point(g, i) for i in range(horizon)]
    scan = BehaviorScan(g, h, arity, pts)
    pushed = 0
    while pushed < horizon and scan.push(f(pts[pushed])):
        pushed += 1
    assert bool(verdict) == (pushed == horizon)
    if verdict:
        assert scan.behavior() == verdict.behavior
    else:
        # A refused push leaves the scan as the consistent prefix left it.
        assert len(scan.images) == pushed
        assert scan.behavior() == check_canonical(f, g, h, pushed, arity).behavior


@st.composite
def truth_cases(draw):
    """(oracle, source, its description for oracles.canonical, points,
    arity): a piecewise-affine map with a breakpoint on aut(dlo) or
    stab(aut(dlo); c), or a min, max or projection map on
    power(aut(dlo),2), maybe followed by a piecewise-affine map; 3 to 8
    points and arity 2 to 4 (every map is canonical at arity 1 into
    aut(dlo))."""
    pieces = piecewise_map(None, lambda lo, hi: draw(st.integers(lo, hi)),
                           lambda: draw(st.booleans()), min_breaks=1)
    shape = draw(st.sampled_from(["aut", "stab", "power"]))
    if shape == "aut":
        f, g, desc = pieces, AUT, ("dlo",)
    elif shape == "stab":
        c = F(draw(st.integers(-6, 6)), 2)
        f, g, desc = pieces, StabilizerGroup(AUT, (c,)), ("stab", (c,))
    else:
        f = draw(st.sampled_from([MinOracle(DLO, DLO), MaxOracle(DLO, DLO),
                                  ProjectionOracle(DLO, 2, 0), ProjectionOracle(DLO, 2, 1)]))
        if draw(st.booleans()):
            f = ComposeOracle(pieces, f)
        g, desc = PowerGroup(AUT, 2), ("power", 2)
    pts = [point(g, i) for i in range(draw(st.integers(3, 8)))]
    return f, g, desc, pts, draw(st.integers(2, 4))


@SETTINGS
@given(truth_cases())
def test_scan_agrees_with_the_truth_oracle(case):
    # oracles.canonical decides from comparisons alone.  The full scan must
    # give its verdict, and pushes must succeed exactly as long as the
    # prefix pushed so far is canonical.
    f, g, desc, pts, arity = case
    images = [f(p) for p in pts]

    def truth(n):
        return oracles.canonical(desc, ("dlo",), pts[:n], images[:n], arity)

    assert bool(check_canonical(f, g, AUT, len(pts), arity, points=pts)) == truth(len(pts))
    scan = BehaviorScan(g, AUT, arity, pts)
    pushed = 0
    while pushed < len(pts) and scan.push(images[pushed]):
        pushed += 1
    assert all(truth(n) for n in range(pushed + 1))
    assert pushed == len(pts) or not truth(pushed + 1)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@SETTINGS
@given(images=st.lists(st.integers(-3, 3), min_size=2, max_size=8),
       arity=st.integers(1, 3))
def test_images_are_computed_only_when_reached(images, arity):
    # Over stab(aut(dlo); 0) a point's arity-1 label is its sign, so the first
    # arity-1 conflict is the first point whose image sign differs from that
    # of the first point with the same sign.  The table stops there: a scan
    # that asked for any later image would raise DomainGap.
    stab = StabilizerGroup(AUT, (F(0),))
    pts = [point(stab, i) for i in range(len(images))]
    first: dict = {}
    conflict = None
    for j, (p, y) in enumerate(zip(pts, images)):
        i = first.setdefault(_sign(p), j)
        if _sign(images[i]) != _sign(y):
            conflict = (i, j)
            break
    assume(conflict is not None)
    i, j = conflict
    table = TableOracle(DLO, DLO, {pts[n]: F(images[n]) for n in range(j + 1)})
    verdict = check_canonical(table, stab, stab, 9, arity)
    assert isinstance(verdict, Counterexample)
    assert (verdict.arity, verdict.witness_s, verdict.witness_t) == (1, (pts[i],), (pts[j],))


def _count_calls(monkeypatch, cls, name) -> list:
    """Patch cls.name to record its calls; the list fills as it is called."""
    calls: list = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append((self,) + args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_scan_types_each_label_once(monkeypatch):
    # neg is canonical on aut(dlo), so the scan meets every dlo type of arity
    # <= 3 on each side; a label is built from the codes of the first tuple
    # with its key, and never typed by qf_type.
    built = _count_calls(monkeypatch, PointLabels, "_label")
    typed = _count_calls(monkeypatch, LimitStructure, "qf_type")
    assert check_canonical(NegationOracle(DLO), AUT, AUT, 24, 3)
    assert len(built) <= 2 * sum(count_orbits_g(AUT, k) for k in (1, 2, 3)) == 2 * 17
    assert not typed


def test_arity_one_scan_reads_linearly_many_relations(monkeypatch):
    # Pair codes are read on first need: an arity-1 scan reads the pairs
    # (i, i) only, never the n^2 matrix.
    n = 2000
    calls = _count_calls(monkeypatch, DloLimit, "eval_relation")
    assert check_canonical(NegationOracle(DLO), AUT, AUT, n, 1)
    assert len(calls) <= 4 * n


# ---------------------------------------------------------------------------
# the scan above arity 2 against the full scan

LIMITS = {"dlo": DLO, "rado": builtin_limit("rado"), "ordered-rado": builtin_limit("ordered-rado")}


@st.composite
def scan_cases(draw):
    """(oracle, source, target, horizon, arity): an aut, stab or power
    source over dlo or over the target's limit, and a dlo, rado or
    ordered-rado target."""
    target = LIMITS[draw(st.sampled_from(sorted(LIMITS)))]
    limit = draw(st.sampled_from([DLO, target]))
    base = AutLimit(limit)
    shape = draw(st.sampled_from(["aut", "stab", "power"]))
    g = {"aut": base,
         "stab": StabilizerGroup(base, (limit.element(draw(st.integers(0, 3))),)),
         "power": PowerGroup(base, 2)}[shape]
    arity = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 5 if arity == 4 else 7))
    pts = [point(g, i) for i in range(horizon)]
    kinds = ["table", "constant"]
    if limit is target:
        kinds.append("id")
        if limit is DLO:
            kinds.append("pieces")
    kind = draw(st.sampled_from(kinds))
    if kind == "table":
        images = draw(st.lists(st.integers(0, 5), min_size=horizon, max_size=horizon))
        f = TableOracle(limit, target, {p: target.element(i) for p, i in zip(pts, images)}, g.m)
    elif kind == "constant":
        f = TableOracle(limit, target, dict.fromkeys(pts, target.element(draw(st.integers(0, 5)))),
                        g.m)
    else:
        f = piecewise_map(random.Random(draw(st.integers(0, 2**32)))) if kind == "pieces" \
            else IdentityOracle(limit, limit)
        if g.m == 2:
            f = ComposeOracle(f, ProjectionOracle(limit, 2, draw(st.integers(0, 1))))
    return f, g, AutLimit(target), horizon, arity


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_cases())
def test_scan_matches_full_scan(case):
    # Equal verdicts: the same counterexample, field by field, or the same
    # behavior table.
    assert check_canonical(*case) == reference_scan(*case)


def test_ternary_target_keeps_the_full_scan():
    # The age forbids R on a tuple with a repeated entry, so all 1-tuples
    # have one label and so do all 2-tuples of distinct elements: the
    # conflict is among the triples.  Elements 0..4 carry only R(3, 1, 0).
    mixed = [t for t in itertools.product((0, 1), repeat=3) if len(set(t)) == 2]
    lines = ["size 1; R(0,0,0)"] + [
        "size 2; " + "; ".join(f"R({a},{b},{c})" for a, b, c in atoms)
        for r in range(1, len(mixed) + 1) for atoms in itertools.combinations(mixed, r)]
    target = GenericLimit(load_forbidden_age("\n".join(lines)), name="r3")
    target.ensure_size(5)
    assert [t for t in itertools.permutations(range(5), 3)
            if target.eval_relation("R", t)] == [(3, 1, 0)]
    # The first four dlo points are 0, 1, -1, 1/2: (0, 1, -1) and
    # (1/2, 1, -1) have one label, their images (3, 1, 0) and (2, 1, 0) two.
    pts = [point(AUT, i) for i in range(4)]
    f = TableOracle(DLO, target, dict(zip(pts, (3, 1, 0, 2))))
    h = AutLimit(target)
    verdict = check_canonical(f, AUT, h, 4, 3)
    assert isinstance(verdict, Counterexample) and verdict.arity == 3
    assert verdict == reference_scan(f, AUT, h, 4, 3)


def test_binary_target_takes_image_ids_only_for_new_source_labels(monkeypatch):
    # Above arity 2 the target labels only the first tuple of each source
    # label: at most count_orbits_g(aut(dlo), 3) of the 24^3 triples.
    scan = BehaviorScan(AUT, AUT, 3, [point(AUT, i) for i in range(24)])
    calls = _count_calls(monkeypatch, type(scan.target), "id_of")
    neg = NegationOracle(DLO)
    assert scan.run(neg) is None
    triples = [idx for labels, idx in calls if labels is scan.target and len(idx) == 3]
    assert len(triples) <= count_orbits_g(AUT, 3) == 13
    assert scan.behavior() == check_canonical(neg, AUT, AUT, 24, 3).behavior


def _pushed(points, images, arity):
    scan = BehaviorScan(AUT, AUT, arity, points)
    for y in images:
        assert scan.push(y)
    return scan


def test_pushing_another_image_after_a_pop_matches_a_straight_scan():
    # A position's source ids are taken on its first push and kept; a pop
    # takes back only the image.  Another image pushed there, and then at
    # the positions above, must leave the scan as one pushed straight through.
    pts = [F(0), F(1), F(2)]
    scan = _pushed(pts, [F(0), F(1), F(2)], 3)
    scan.pop()
    assert scan.push(F(3))                     # the same position, another image
    straight = _pushed(pts, [F(0), F(1), F(3)], 3)
    assert scan.recorded() == straight.recorded()
    assert scan.behavior() == straight.behavior()
    for _ in range(3):
        scan.pop()
    assert scan.push(F(5)) and scan.push(F(6))
    assert not scan.push(F(4))                 # 0 < 2 goes down, 0 < 1 went up
    straight = _pushed(pts, [F(5), F(6)], 3)
    assert not straight.push(F(4))
    assert scan.conflict == straight.conflict == ((0, 2), (0, 1))
    assert scan.push(F(7))
    straight = _pushed(pts, [F(5), F(6), F(7)], 3)
    assert scan.recorded() == straight.recorded()
    assert scan.behavior() == straight.behavior()


def test_failed_push_names_the_conflicting_tuples():
    scan = _pushed([F(0), F(1), F(2)], [F(0), F(1)], 2)
    assert not scan.push(F(-1))                # 0 < 2 goes down, 0 < 1 went up
    assert scan.conflict == ((0, 2), (0, 1))
    assert scan.images == [F(0), F(1)]


# ---------------------------------------------------------------------------
# the stop rule above arity 2

def _stop_case(f, g, horizon, arity):
    h = AUT if f.target is DLO else AutLimit(f.target)
    return f, g, h, horizon, arity


STOP_CASES = {
    # 2 points give 8 triples, fewer than the 13 triple labels: no stop.
    "id-dlo-h2": (_stop_case(IdentityOracle(DLO, DLO), AUT, 2, 3), False),
    "neg-dlo-h3-arity-4": (_stop_case(NegationOracle(DLO), AUT, 3, 4), False),
    "stab-dlo-h2": (_stop_case(IdentityOracle(DLO, DLO), StabilizerGroup(AUT, (F(1, 2),)), 2, 3),
                    False),
    # The first point, 0, lies between -1 and 1, so every triple label is
    # met in a row whose prefix starts at index 0: the pass stops there.
    "id-dlo-h7": (_stop_case(IdentityOracle(DLO, DLO), AUT, 7, 3), True),
    "neg-dlo-h12": (_stop_case(NegationOracle(DLO), AUT, 12, 3), True),
    "pieces-dlo-h24": (_stop_case(piecewise_map(random.Random(5), min_breaks=1), AUT, 24, 3),
                       True),
    # The first 12 elements of rado miss a triple label; the first 16 do not.
    "id-rado-h12": (_stop_case(IdentityOracle(LIMITS["rado"], LIMITS["rado"]),
                               AutLimit(LIMITS["rado"]), 12, 3), False),
    "id-rado-h16": (_stop_case(IdentityOracle(LIMITS["rado"], LIMITS["rado"]),
                               AutLimit(LIMITS["rado"]), 16, 3), True),
    # 4 points of ordered-rado meet few of its 1,853 quadruple labels.
    "id-ordered-rado-h4-arity-4": (_stop_case(
        IdentityOracle(LIMITS["ordered-rado"], LIMITS["ordered-rado"]),
        AutLimit(LIMITS["ordered-rado"]), 4, 4), False),
}


@pytest.mark.parametrize("name", STOP_CASES)
def test_stop_rule_matches_full_scan(monkeypatch, name):
    (f, g, h, horizon, arity), stops_in_row_0 = STOP_CASES[name]
    scan = BehaviorScan(g, h, arity, [point(g, i) for i in range(horizon)])
    calls = _count_calls(monkeypatch, PointLabels, "ids")
    counts = []

    def count(g, k, cap):
        n = count_orbits_g(g, k, cap=cap)
        counts.append((k, cap, n))
        return n

    monkeypatch.setattr(canonicity, "count_orbits_g", count)
    found = scan.run(f)
    verdict = found if found is not None else CanonicalUpTo(horizon, arity, scan.behavior())
    assert verdict == reference_scan(f, g, h, horizon, arity)
    if found is None:
        # Each pass above arity 2 counts its labels only up to twice the
        # larger of the labels it met and the row; a pass that met them all
        # ended on an exact count.
        met = Counter(len(idx) for _, idx in scan._seen.values())
        assert {k for k, _, _ in counts} == set(range(3, arity + 1))
        for k, cap, n in counts:
            assert cap <= 2 * max(met[k], horizon)
        for k in range(3, arity + 1):
            last = [(cap, n) for j, cap, n in counts if j == k][-1]
            assert (last[1] == met[k] <= last[0]) == (met[k] == count_orbits_g(g, k))
        # The prefixes of the source rows the last pass took.
        prefixes = [prefix for labels, prefix in calls
                    if labels is scan.source and len(prefix) == arity - 1]
        if stops_in_row_0:
            assert {p[0] for p in prefixes} == {0}
            assert len(prefixes) < horizon ** (arity - 1)
        else:
            assert len(prefixes) == horizon ** (arity - 1)
