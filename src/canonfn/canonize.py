"""Extraction of canonical functions by incremental embedding search.

The search grows a nested family of type-preserving partial self-embeddings
of the source, level by level over the enumerated domain points, keeping the
induced behavior of the composed sample conflict-free up to a bounded arity:
each committed point is pushed onto a canonicity.BehaviorScan, and the
candidate images of a column are those LimitStructure.admissible_image
accepts.  Backtracking explores images in enumeration order, so the first
tower found is the enumeration-lexicographically least one; exhausting the
horizon is inconclusive.  A pair-coloring Ramsey search over finite tables
backs the arity-2 picture.
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
from .fraisse import LimitStructure, _check_arity
from .groups import (
    AutLimit,
    GroupPresentation,
    PowerGroup,
    StabilizerGroup,
    point,
)


@dataclass(frozen=True)
class EmbeddingTower:
    """Nested partial self-embeddings: seeds fixed up front (constants), then
    one committed domain point per level."""

    seeds: tuple
    pairs: tuple

    def as_map(self) -> dict:
        return dict(self.seeds + self.pairs)

    def level(self, n: int) -> tuple:
        return self.seeds + self.pairs[:n]

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


def _run_search(f: FunctionOracle, g_src: GroupPresentation, h_tgt: GroupPresentation,
                source_limit: LimitStructure, m: int, fixed_cols, seed_points,
                arity: int, depth: int, horizon: int):
    _check_arity(arity)
    if depth < 1:
        raise ValueError("depth must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    pool = [source_limit.element(i) for i in range(horizon)]
    if m == 1:
        points = [source_limit.element(i) for i in range(depth)]
    else:
        pg = PowerGroup(AutLimit(source_limit), m)
        points = [point(pg, i) for i in range(depth)]
    col_map = [dict(fc) for fc in fixed_cols]
    col_committed = [list(fc.items()) for fc in fixed_cols]

    scan = BehaviorScan(g_src, h_tgt, arity)
    nodes = 0
    deepest = 0

    # Constants enter the sample first; their columns are pre-committed, so
    # the composed sample agrees with f on them by construction.
    for c in seed_points:
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
        cols = (p,) if m == 1 else p
        free = [i for i in range(m) if cols[i] not in col_map[i]]
        cand_lists = [
            [y for y in pool if source_limit.admissible_image(col_committed[i], cols[i], y)]
            for i in free
        ]
        for combo in itertools.product(*cand_lists):
            nodes += 1
            for i, y in zip(free, combo):
                col_map[i][cols[i]] = y
                col_committed[i].append((cols[i], y))
            if m == 1:
                image_point = col_map[0][p]
            else:
                image_point = tuple(col_map[i][cols[i]] for i in range(m))
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
    tower = EmbeddingTower(tuple((c, c) for c in seed_points), tuple(towers))
    oracle = TableOracle(source_limit, f.target, dict(zip(scan.points, scan.images)), m=m)
    certificate = check_canonical(oracle, g_src, h_tgt, len(scan.points), arity,
                                  points=scan.points)
    if not isinstance(certificate, CanonicalUpTo):
        raise AssertionError("search invariant broken: sample not canonical")
    return CanonicalApproximation(certificate.behavior, tower, oracle, certificate)


def canonize(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
             arity: int, depth: int, horizon: int):
    """Search the closure of H f G for a canonical sample of the given depth.

    g must present the source limit (aut or a stabilizer of aut); images are
    drawn from the first horizon source elements.  Returns the first tower in
    depth-first enumeration order, or HorizonExhausted (never a nonexistence
    claim).
    """
    if f.m != 1:
        raise PresentationError("canonize takes unary oracles; see canonize_with_constants")
    if isinstance(g, AutLimit):
        source_limit, seeds = g.limit, ()
    elif isinstance(g, StabilizerGroup) and isinstance(g.base, AutLimit):
        source_limit, seeds = g.base.limit, tuple(g.constants)
    else:
        raise PresentationError("canonize needs aut or stab(aut) on the source side")
    fixed = [{c: c for c in seeds}]
    return _run_search(f, g, h, source_limit, 1, fixed, seeds, arity, depth, horizon)


def _normalize_constants(constants, m: int) -> tuple:
    out = []
    for c in constants:
        if m == 1:
            out.append(Fraction(c) if not isinstance(c, tuple) else Fraction(c[0]))
        else:
            c = tuple(Fraction(v) for v in c)
            if len(c) != m:
                raise ValueError(f"constant {c} does not match arity {m}")
            out.append(c)
    return tuple(out)


def canonize_with_constants(f: FunctionOracle, constants, arity: int,
                            depth: int, horizon: int):
    """Canonize an m-ary oracle over the rational order while agreeing with it
    on the given constant tuples.

    The source is the m-th power of aut(dlo) stabilized at the constants (each
    column embedding fixes the relevant coordinates pointwise), the target is
    aut(dlo) stabilized at the f-images of the constants; the returned sample
    contains the constants, so agreement holds by construction.
    """
    m = f.m
    source_limit = f.source
    consts = _normalize_constants(constants, m)
    aut = AutLimit(source_limit)
    if m == 1:
        base: GroupPresentation = aut
    else:
        base = PowerGroup(aut, m)
    if consts:
        g: GroupPresentation = StabilizerGroup(base, consts)
        h: GroupPresentation = StabilizerGroup(AutLimit(f.target),
                                               tuple(f(c) for c in consts))
    else:
        g, h = base, AutLimit(f.target)
    if m == 1:
        fixed = [{c: c for c in consts}]
    else:
        fixed = [{c[i]: c[i] for c in consts} for i in range(m)]
    return _run_search(f, g, h, source_limit, m, fixed, consts, arity, depth, horizon)


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
