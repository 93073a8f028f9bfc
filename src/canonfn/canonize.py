"""Extraction of canonical functions by incremental embedding search.

canonize is the one search entry point, for every source shape: aut(limit),
power(aut(limit), m), and stabilizers of either (constants fixed).  It
grows one type-preserving partial self-embedding of the limit per column of
the source's points, level by level over the enumerated domain points,
keeping the induced behavior of the composed sample conflict-free up to a
bounded arity: a canonicity.BehaviorScan is made on the sample's points,
seeds first and then one per level, each candidate's image is pushed onto
it, and its columns are committed only when the push succeeds.  Each column's
embedding is the limit's germ (fraisse.PartialAutomorphism), and its
candidates are the pool elements the germ's images returns, listed once per
level visit (on DloLimit, the pool elements strictly between the images of
the nearest committed neighbors, found by bisects).  Its levels, like
mono_subset's, are generators on behaviors.depth_first's explicit stack, so
the recursion limit does not bound the depth.  Backtracking explores images
in enumeration order, so the first tower found is the
enumeration-lexicographically least one; exhausting the horizon is
inconclusive.

The search backjumps (conflict sets, see depth_first).  A level's set holds
the levels its candidate lists depend on (the committed points its germs
read: on DloLimit the two nearest neighbors, otherwise all of them) and
those that committed its point's other columns, and, per failed push, the
levels of the conflicting tuple and of the first tuple on record for its
source label.  A level that runs out jumps to the latest level in its set:
no level skipped holds a choice under which it could succeed, so the first
tower is the one chronological backtracking finds, and an exhausted search
gets as deep.  HorizonExhausted.nodes counts the pushes tried, one oracle
call each, and backjumps the levels skipped.  canonize_with_constants only
builds the stabilized presentations and calls canonize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .behaviors import depth_first
from .canonicity import BehaviorScan, CanonicalUpTo, FunctionOracle, TableOracle, check_fit
from .errors import PresentationError
from .fraisse import _check_arity
from .groups import (
    AutLimit,
    GroupPresentation,
    aut_power,
    columns,
    joined,
    point,
    stabilized,
)


@dataclass(frozen=True)
class EmbeddingTower:
    """Nested partial self-embeddings: seeds fixed up front (constants), then
    one committed domain point per level."""

    seeds: tuple
    pairs: tuple

    @property
    def depth(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CanonicalApproximation:
    behavior: object
    tower: EmbeddingTower
    sample: FunctionOracle
    certificate: CanonicalUpTo


@dataclass(frozen=True)
class HorizonExhausted:
    """The search space within the horizon is exhausted; inconclusive."""

    depth_reached: int
    nodes: int          # pushes tried, one oracle call each
    backjumps: int = 0  # levels skipped by backjumps

    def __bool__(self):
        return False


def _run_search(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
                arity: int, depth: int, horizon: int, seeds: tuple):
    _check_arity(arity)
    if depth < 1:
        raise ValueError("depth must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    limit, m = g.limit, g.m
    pool = [limit.element(i) for i in range(horizon)]
    points = [point(g, i) for i in range(depth)]
    # One type-preserving partial embedding per column; the seeds' columns
    # are fixed pointwise up front.
    germs = [limit.germ((columns(c)[i],) * 2 for c in seeds) for i in range(m)]

    # Constants reappearing in the enumeration are no levels: their images
    # and tuples are committed up front.
    levels = [i for i in range(depth) if points[i] not in seeds]
    # The scan's positions: the seeds', then one per level.  Conflicts are
    # kept as bits of positions; first[j][v] is the bit of the first
    # position whose column j holds v: the seed or level that commits v.
    sequence = list(seeds) + [points[i] for i in levels]
    shift = len(seeds)
    first: list[dict] = [{} for _ in range(m)]
    for pos, q in enumerate(sequence):
        for j, v in enumerate(columns(q)):
            first[j].setdefault(v, 1 << pos)
    conflicts = [0] * len(levels)
    scan = BehaviorScan(g, h, arity, sequence)
    nodes = deepest = backjumps = 0

    # Constants enter the sample first; their columns are pre-committed, so
    # the composed sample agrees with f on them by construction.
    for c in seeds:
        if not scan.push(f(c)):
            raise PresentationError("constant points conflict with each other")

    def level(i):
        nonlocal nodes, deepest, backjumps
        deepest = max(deepest, levels[i])
        p = points[levels[i]]
        cols = columns(p)
        free = [j for j in range(m) if cols[j] not in germs[j].mapping]
        image = [germs[j].mapping.get(cols[j]) for j in range(m)]
        # The candidate lists depend on the points the germs read, and the
        # image on the committed columns.  Each failed push adds the points
        # of its conflicting tuple and of the first one on record.
        bits = 0
        for j in range(m):
            for v in germs[j].constraints(cols[j]) if j in free else (cols[j],):
                bits |= first[j][v]
        conflicts[i] = 0
        for combo in itertools.product(*(germs[j].images(cols[j], pool) for j in free)):
            nodes += 1
            for j, y in zip(free, combo):
                image[j] = y
            if scan.push(f(joined(image))):
                # Most pushes fail, so the columns are committed only after
                # one succeeds.
                for j, y in zip(free, combo):
                    germs[j].commit(cols[j], y)
                yield
                for j in free:
                    germs[j].uncommit(cols[j])
                scan.pop()
                if conflicts[i] < 0:    # skipped by a backjump
                    backjumps += 1
                    return
            else:
                idx, idx0 = scan.conflict
                for pos in idx + idx0:
                    bits |= 1 << pos
        conflicts[i] |= (bits >> shift) & ((1 << i) - 1)

    for _ in depth_first(len(levels), level, conflicts):
        break
    else:
        return HorizonExhausted(deepest, nodes, backjumps)

    pairs = tuple((p, joined(tuple(germ.mapping[v] for germ, v in zip(germs, columns(p)))))
                  for p in scan.points[len(seeds):])
    tower = EmbeddingTower(tuple((c, c) for c in seeds), pairs)
    oracle = TableOracle(limit, f.target, dict(zip(scan.points, scan.images)), m=m)
    # Every tuple over the sample was scanned when its last point was pushed.
    certificate = CanonicalUpTo(len(scan.points), arity, scan.behavior())
    return CanonicalApproximation(certificate.behavior, tower, oracle, certificate)


def canonize(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
             arity: int, depth: int, horizon: int):
    """Search the closure of H f G for a canonical sample of the given depth.

    g presents the source: aut(limit), power(aut(limit), m), or a stabilizer
    of either.  f takes points with as many columns as g's points; each
    column grows its own type-preserving embedding of the limit, and a
    stabilizer's constants enter the sample first, fixed pointwise, so the
    sample agrees with f on them.  Images are drawn from the first horizon
    elements of the limit.  Returns the first tower in depth-first
    enumeration order, or HorizonExhausted (never a nonexistence claim).
    """
    check_fit(f, g, h)
    return _run_search(f, g, h, arity, depth, horizon, g.constants)


def canonize_with_constants(f: FunctionOracle, constants, arity: int,
                            depth: int, horizon: int):
    """Canonize an m-ary oracle over its source limit while agreeing with it
    on the given constant points.

    The source is aut(f.source), or its m-th power, stabilized at the
    constants; the target is aut(f.target) stabilized at the f-images of the
    constants (see groups.stabilized).  canonize does the search.
    """
    g, h = stabilized(aut_power(f.source, f.m), AutLimit(f.target), constants, f)
    return canonize(f, g, h, arity, depth, horizon)


# ---------------------------------------------------------------------------
# the Ramsey engine


def mono_subset(coloring, size: int):
    """Lexicographically least subset of the given size all of whose pairs
    share one color; None when no such subset exists.

    The coloring maps 2-subsets (as pairs or frozensets) to arbitrary color
    values and must be total on the pairs of the point set.
    """
    colors: dict = {}
    for key, c in coloring.items():
        a, b = sorted(key)
        if a == b:
            raise ValueError("colorings are over 2-subsets")
        colors[(a, b)] = c
    points = sorted({v for pair in colors for v in pair})
    if size < 1:
        raise ValueError("subset size must be positive")

    def col(u, v):
        return colors[(u, v) if u < v else (v, u)]

    chosen: list = []

    def position(j):
        # A point after the one chosen before; the first two fix the color.
        color = col(chosen[0], chosen[1]) if j > 1 else None
        for v in points[points.index(chosen[-1]) + 1 if chosen else 0:]:
            if j < 2 or all(col(u, v) == color for u in chosen):
                chosen.append(v)
                yield
                chosen.pop()

    for _ in depth_first(size, position):
        return tuple(chosen)
    return None
