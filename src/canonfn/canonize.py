"""Extraction of canonical functions by incremental embedding search.

canonize is the one search entry point, for every source shape: aut(limit),
power(aut(limit), m), and stabilizers of either (constants fixed).  It
grows one type-preserving partial self-embedding of the limit per column of
the source's points, level by level over the enumerated domain points,
keeping the induced behavior of the composed sample conflict-free up to a
bounded arity: each committed point is pushed onto a canonicity.BehaviorScan,
and the candidate images of a column are those
LimitStructure.admissible_image accepts.  Backtracking explores images in
enumeration order, so the first tower found is the
enumeration-lexicographically least one; exhausting the horizon is
inconclusive.  canonize_with_constants only builds the stabilized
presentations and calls canonize.  A pair-coloring Ramsey search over finite
tables backs the arity-2 picture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .canonicity import (
    BehaviorScan,
    CanonicalUpTo,
    FunctionOracle,
    TableOracle,
    check_canonical,
)
from .errors import PresentationError
from .fraisse import _check_arity
from .groups import (
    AutLimit,
    GroupPresentation,
    PowerGroup,
    StabilizerGroup,
    domain_limit,
    point,
    point_arity,
    stabilized,
    validate_presentation,
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
    limit = domain_limit(g)
    m = point_arity(g)
    pool = [limit.element(i) for i in range(horizon)]
    points = [point(g, i) for i in range(depth)]

    def columns(p) -> tuple:
        return p if m > 1 else (p,)

    # One type-preserving partial embedding per column; the seeds' columns
    # are fixed pointwise up front.
    col_map: list[dict] = [{} for _ in range(m)]
    for c in seeds:
        for i, v in enumerate(columns(c)):
            col_map[i][v] = v
    col_committed = [list(cm.items()) for cm in col_map]

    scan = BehaviorScan(g, h, arity)
    nodes = 0
    deepest = 0

    # Constants enter the sample first; their columns are pre-committed, so
    # the composed sample agrees with f on them by construction.
    for c in seeds:
        if not scan.push(c, f(c)):
            raise PresentationError("constant points conflict with each other")

    towers: list = []

    def rec(level: int) -> bool:
        nonlocal nodes, deepest
        deepest = max(deepest, level)
        if level == depth:
            return True
        p = points[level]
        if p in scan.points:
            # A constant point reappearing in the enumeration: its image and
            # its tuples are committed already.
            return rec(level + 1)
        cols = columns(p)
        free = [i for i in range(m) if cols[i] not in col_map[i]]
        cand_lists = [
            [y for y in pool if limit.admissible_image(col_committed[i], cols[i], y)]
            for i in free
        ]
        for combo in itertools.product(*cand_lists):
            nodes += 1
            for i, y in zip(free, combo):
                col_map[i][cols[i]] = y
                col_committed[i].append((cols[i], y))
            image = tuple(col_map[i][cols[i]] for i in range(m))
            image_point = image if m > 1 else image[0]
            if scan.push(p, f(image_point)):
                towers.append((p, image_point))
                if rec(level + 1):
                    return True
                towers.pop()
                scan.pop()
            for i, y in zip(free, combo):
                del col_map[i][cols[i]]
                col_committed[i].pop()
        return False

    if not rec(0):
        return HorizonExhausted(deepest, nodes)
    tower = EmbeddingTower(tuple((c, c) for c in seeds), tuple(towers))
    oracle = TableOracle(limit, f.target, dict(zip(scan.points, scan.images)), m=m)
    certificate = check_canonical(oracle, g, h, len(scan.points), arity,
                                  points=scan.points)
    if not isinstance(certificate, CanonicalUpTo):
        raise AssertionError("search invariant broken: sample not canonical")
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
    validate_presentation(g)
    validate_presentation(h)
    if f.m != point_arity(g):
        raise PresentationError(f"oracle takes {f.m}-column points; "
                                f"{g!r} acts on {point_arity(g)}-column points")
    seeds = tuple(g.constants) if isinstance(g, StabilizerGroup) else ()
    return _run_search(f, g, h, arity, depth, horizon, seeds)


def canonize_with_constants(f: FunctionOracle, constants, arity: int,
                            depth: int, horizon: int):
    """Canonize an m-ary oracle over its source limit while agreeing with it
    on the given constant points.

    The source is aut(f.source), or its m-th power, stabilized at the
    constants; the target is aut(f.target) stabilized at the f-images of the
    constants (see groups.stabilized).  canonize does the search.
    """
    aut = AutLimit(f.source)
    g: GroupPresentation = aut if f.m == 1 else PowerGroup(aut, f.m)
    g, h = stabilized(g, AutLimit(f.target), constants, f)
    return canonize(f, g, h, arity, depth, horizon)


# ---------------------------------------------------------------------------
# the Ramsey engine


def mono_subset(coloring, size: int, points=None):
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
    if points is None:
        points = sorted({v for pair in colors for v in pair})
    else:
        points = sorted(points)
    if size < 1:
        raise ValueError("subset size must be positive")
    if size == 1:
        return (points[0],) if points else None

    def col(u, v):
        return colors[(u, v) if u < v else (v, u)]

    def rec(chosen: list, start: int, color):
        if len(chosen) == size:
            return tuple(chosen)
        for i in range(start, len(points)):
            v = points[i]
            if chosen:
                c = color if color is not None else col(chosen[0], v)
                if any(col(u, v) != c for u in chosen):
                    continue
                found = rec(chosen + [v], i + 1, c)
            else:
                found = rec([v], i + 1, None)
            if found:
                return found
        return None

    return rec([], 0, None)


def pair_coloring(f, points) -> dict:
    """Color the pairs of a finite rational set by the local behavior of f:
    increasing, decreasing, or constant."""
    points = sorted(Fraction(p) for p in points)
    out = {}
    for a, b in itertools.combinations(points, 2):
        fa, fb = f(a), f(b)
        if fa < fb:
            out[(a, b)] = "increasing"
        elif fa > fb:
            out[(a, b)] = "decreasing"
        else:
            out[(a, b)] = "constant"
    return out
