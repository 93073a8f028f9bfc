"""Differential tests of the one tuple-scan engine: its full mode (the
check_canonical scan) against its incremental mode (push/pop), and the lazy
image contract of the full mode."""

import random
from fractions import Fraction as F

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from canonfn import (
    AutLimit,
    ComposeOracle,
    Counterexample,
    MaxOracle,
    MinOracle,
    PiecewiseAffineOracle,
    PowerGroup,
    ProjectionOracle,
    StabilizerGroup,
    TableOracle,
    builtin_limit,
    check_canonical,
)
from canonfn.canonicity import AffinePiece, BehaviorScan, Interval
from canonfn.groups import point

DLO = builtin_limit("dlo")
AUT = AutLimit(DLO)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

def piecewise_map(rng):
    """Piecewise-affine map of Q with up to two breakpoints at halves."""
    breaks = sorted({F(rng.randint(-3, 3), 2) for _ in range(rng.randint(0, 2))})
    closed = [rng.random() < 0.5 for _ in breaks]
    lows = [(None, False)] + [(b, not c) for b, c in zip(breaks, closed)]
    highs = [(b, c) for b, c in zip(breaks, closed)] + [(None, False)]
    pieces = [
        AffinePiece(Interval(lo, lo_closed, hi, hi_closed),
                    F(rng.randint(-2, 2)), F(rng.randint(-6, 6), 2))
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
    scan = BehaviorScan(g, h, arity)
    pushed = 0
    while pushed < horizon and scan.push(point(g, pushed), f(point(g, pushed))):
        pushed += 1
    assert bool(verdict) == (pushed == horizon)
    if verdict:
        assert scan.behavior() == verdict.behavior
    else:
        # A refused push leaves the scan as the consistent prefix left it.
        assert scan.points == [point(g, i) for i in range(pushed)]
        assert scan.behavior() == check_canonical(f, g, h, pushed, arity).behavior


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
