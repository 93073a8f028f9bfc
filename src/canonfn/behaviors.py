"""Behavior tables: the per-arity orbit-to-orbit maps a canonical function induces.

A table is coherent when it commutes with every index map (permutations,
projections, duplications) between tuple positions; coherence is necessary
for the maps to come from a single function, and enumeration searches the
coherent tables directly.

enumerate_behaviors and coherence_check work on groups.LabelSpace ids: slots,
candidates and coherence links are ints, and reindexing is a memoized lookup.
Ids turn back into labels (TupleTypeRecords or tuples of them) only where a
BehaviorTable or a Violation is built, so the public API sees labels only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArityLimitExceeded, PresentationError
from .fraisse import arity_limit
from .groups import (
    AutLimit,
    GroupPresentation,
    LabelSpace,
    label_key,
    orbit_labels,
)


class BehaviorTable:
    """Maps from source orbit labels to target orbit labels, per arity."""

    def __init__(self, source: GroupPresentation, target: GroupPresentation,
                 max_arity: int, entries):
        self.source = source
        self.target = target
        self.max_arity = max_arity
        self._maps: dict[int, dict] = {k: {} for k in range(1, max_arity + 1)}
        for k, src, tgt in entries:
            if not 1 <= k <= max_arity:
                raise ValueError(f"entry arity {k} outside 1..{max_arity}")
            key = label_key(src)
            if key in self._maps[k] and self._maps[k][key][1] != tgt:
                raise ValueError("conflicting entries for one source label")
            self._maps[k][key] = (src, tgt)

    def get(self, k: int, label):
        found = self._maps[k].get(label_key(label))
        return None if found is None else found[1]

    def entries(self) -> tuple:
        out = []
        for k in sorted(self._maps):
            for key in sorted(self._maps[k]):
                src, tgt = self._maps[k][key]
                out.append((k, src, tgt))
        return tuple(out)

    def graph_key(self):
        return tuple((k, label_key(s), label_key(t)) for k, s, t in self.entries())

    def __eq__(self, other):
        return isinstance(other, BehaviorTable) and self.graph_key() == other.graph_key()

    def __hash__(self):
        return hash(self.graph_key())

    def __repr__(self):
        n = sum(len(m) for m in self._maps.values())
        return f"<behavior table, {n} entries up to arity {self.max_arity}>"

    def is_total(self) -> bool:
        for k in range(1, self.max_arity + 1):
            admissible = orbit_labels(self.source, k)
            if len(self._maps[k]) != len(admissible):
                return False
        return True


@dataclass(frozen=True)
class Violation:
    arity: int
    sigma: tuple[int, ...]
    label: object
    expected: object
    found: object

    def __str__(self):
        one_based = tuple(i + 1 for i in self.sigma)
        return f"coherence violation at arity {self.arity}, sigma {one_based}"


def _sigmas(j: int, k: int):
    yield from itertools.product(range(k), repeat=j)


def coherence_check(table: BehaviorTable) -> Violation | None:
    """First violation of B_j(reindex(tau, sigma)) = reindex(B_k(tau), sigma),
    scanning (k, j, sigma, tau) lexicographically; None when coherent."""
    arities = range(1, table.max_arity + 1)
    # The spaces list only the labels met here: listing all orbit labels
    # would cost more than the memoized reindexing saves on one table.
    src = LabelSpace(table.source, {k: [] for k in arities})
    tgt = LabelSpace(table.target, {k: [] for k in arities})
    # Per arity: (source id, image id, source label) in label_key order.
    entries = {k: [(src.id_of(k, tau), tgt.id_of(k, image), tau)
                   for _, (tau, image) in sorted(table._maps[k].items())]
               for k in arities}
    image_of = {k: {i: t for i, t, _ in entries[k]} for k in arities}
    for k in arities:
        for j in arities:
            for sigma in _sigmas(j, k):
                for i, t, tau in entries[k]:
                    lhs = image_of[j].get(src.reindex(k, i, sigma))
                    if lhs is None:
                        continue
                    rhs = tgt.reindex(k, t, sigma)
                    if lhs != rhs:
                        return Violation(k, sigma, tau, tgt.labels[j][rhs], tgt.labels[j][lhs])
    return None


def enumerate_behaviors(source: GroupPresentation, target: GroupPresentation,
                        max_arity: int) -> list[BehaviorTable]:
    """All coherent total tables up to the given arity, ordered by map graph."""
    if max_arity > arity_limit():
        raise ArityLimitExceeded(f"arity {max_arity} exceeds limit {arity_limit()}")
    src = LabelSpace.admissible(source, max_arity)
    tgt = LabelSpace.admissible(target, max_arity)
    arities = range(1, max_arity + 1)
    slots = [(k, i) for k in arities for i in range(len(src.labels[k]))]
    first = {k: sum(len(src.labels[j]) for j in arities if j < k) for k in arities}

    # Coherence links: slot s forces slot r = reindex(s, sigma) through the
    # target reindexing row of sigma, image[r] == row[image[s]].  Slots are
    # filled in order, so each link is checked at the later of its two slots:
    # forward[s] holds (r, row) with r <= s, backward[r] holds (s, row), s < r.
    rows = {(k, sigma): [tgt.reindex(k, t, sigma) for t in range(len(tgt.labels[k]))]
            for k in arities for j in arities for sigma in _sigmas(j, k)}
    forward: list[list] = [[] for _ in slots]
    backward: list[list] = [[] for _ in slots]
    for s, (k, i) in enumerate(slots):
        for j in arities:
            for sigma in _sigmas(j, k):
                r = first[j] + src.reindex(k, i, sigma)
                if r <= s:
                    forward[s].append((r, rows[(k, sigma)]))
                else:
                    backward[r].append((s, rows[(k, sigma)]))

    image: list[int] = [0] * len(slots)
    found: list[tuple] = []

    def rec(s):
        if s == len(slots):
            found.append(tuple(image))
            return
        for a in range(len(tgt.labels[slots[s][0]])):
            image[s] = a
            if (all(image[r] == row[a] for r, row in forward[s])
                    and all(a == row[image[r]] for r, row in backward[s])):
                rec(s + 1)

    rec(0)
    # Candidates are tried in id order, so the tables come out sorted by
    # their target-id tuples: graph_key order, since every table has the
    # same slots and ids follow label_key.
    return [BehaviorTable(source, target, max_arity,
                          [(k, src.labels[k][i], tgt.labels[k][a])
                           for (k, i), a in zip(slots, ids)])
            for ids in found]


@dataclass(frozen=True)
class Exhausted:
    """Inconclusive outcome of a realizability search."""

    explored: int

    def __bool__(self):
        return False


def realize_behavior(table: BehaviorTable, n: int, target_ratio: int = 8):
    """Search for a finite witness of the table on the first n source elements.

    Returns the enumeration-lexicographically least mapping into the first
    n*target_ratio target elements whose induced labels match the table on
    all tuples of arity <= max_arity, or Exhausted.
    """
    if not isinstance(table.source, AutLimit) or not isinstance(table.target, AutLimit):
        raise PresentationError("realizability search needs aut(limit) presentations")
    from .canonicity import BehaviorScan

    domain = [table.source.limit.element(i) for i in range(n)]
    pool = [table.target.limit.element(i) for i in range(n * target_ratio)]
    scan = BehaviorScan(table.source, table.target, table.max_arity, expected=table)
    explored = 0

    def rec(i) -> bool:
        nonlocal explored
        if i == n:
            return True
        for y in pool:
            explored += 1
            if scan.push(domain[i], y):
                if rec(i + 1):
                    return True
                scan.pop()
        return False

    if rec(0):
        return tuple(zip(domain, scan.images))
    return Exhausted(explored)
