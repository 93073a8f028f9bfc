"""Extraction of canonical functions by incremental embedding search.

canonize is the one search entry point, for every source shape: aut(limit),
power(aut(limit), m), and stabilizers of either (constants fixed).  It
grows one type-preserving partial self-embedding of the limit per column of
the source's points, level by level over the enumerated domain points,
keeping the induced behavior of the composed sample conflict-free up to a
bounded arity: each candidate point is pushed onto a canonicity.BehaviorScan,
and its columns are committed only when the push succeeds.  Each column's
embedding is the limit's germ (fraisse.PartialAutomorphism), and its
candidates are the pool elements the germ's images returns, listed once per
level visit (on DloLimit, the pool elements strictly between the images of
the nearest committed neighbors, found by one bisect).  The search is a
loop over a stack of level frames, so the recursion limit does not bound
its depth.  Backtracking explores images in enumeration order, so the
first tower found is the enumeration-lexicographically least one;
exhausting the horizon is inconclusive.  canonize_with_constants only
builds the stabilized presentations and calls canonize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    nodes: int

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

    scan = BehaviorScan(g, h, arity)
    nodes = 0
    deepest = 0

    # Constants enter the sample first; their columns are pre-committed, so
    # the composed sample agrees with f on them by construction.
    for c in seeds:
        if not scan.push(c, f(c)):
            raise PresentationError("constant points conflict with each other")

    # One frame per entered level, constants aside: (level, columns, free
    # columns, image columns, candidate combos).  The scan holds one point
    # per committed frame after the constants, so a frame whose level is
    # committed and is entered again undoes its commit first.
    frames: list = []
    level = 0
    while True:
        # A constant point reappearing in the enumeration (the enumerated
        # points are distinct, so nothing else recurs): its image and its
        # tuples are committed already.
        while level < depth and points[level] in seeds:
            level += 1
        deepest = max(deepest, level)
        if level == depth:
            break
        cols = columns(points[level])
        free = [i for i in range(m) if cols[i] not in germs[i].mapping]
        image = [germs[i].mapping.get(cols[i]) for i in range(m)]
        cand_lists = [germs[i].images(cols[i], pool) for i in free]
        frames.append((level, cols, free, image, itertools.product(*cand_lists)))
        while frames:
            level, cols, free, image, combos = frames[-1]
            if len(scan.points) == len(seeds) + len(frames):
                scan.pop()
                for i in free:
                    germs[i].uncommit(cols[i])
            for combo in combos:
                nodes += 1
                for i, y in zip(free, combo):
                    image[i] = y
                if scan.push(points[level], f(joined(image))):
                    break
            else:
                frames.pop()
                continue
            # Most pushes fail, so the columns are committed only after one
            # succeeds; this level's candidate lists are already built.
            for i, y in zip(free, combo):
                germs[i].commit(cols[i], y)
            break
        else:
            return HorizonExhausted(deepest, nodes)
        level += 1

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
    if size == 1:
        return (points[0],) if points else None

    def col(u, v):
        return colors[(u, v) if u < v else (v, u)]

    # One cursor per chosen position, over the points after the one chosen
    # before it; the first two points chosen fix the color of every pair.
    chosen: list = []
    cursors = [iter(range(len(points)))]
    while cursors:
        color = col(chosen[0], chosen[1]) if len(chosen) > 1 else None
        for i in cursors[-1]:
            v = points[i]
            if len(chosen) < 2 or all(col(u, v) == color for u in chosen):
                break
        else:
            cursors.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(v)
        if len(chosen) == size:
            return tuple(chosen)
        cursors.append(iter(range(i + 1, len(points))))
    return None
