"""Behavior tables: the per-arity orbit-to-orbit maps a canonical function induces.

A table is coherent when it commutes with every index map (permutations,
projections, duplications) between tuple positions; coherence is necessary
for the maps to come from a single function, and enumeration searches the
coherent tables directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArityLimitExceeded, PresentationError
from .fraisse import arity_limit
from .groups import (
    AutLimit,
    GroupPresentation,
    label_key,
    orbit_labels,
    reindex_label,
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
    src, tgt = table.source, table.target
    for k in range(1, table.max_arity + 1):
        for j in range(1, table.max_arity + 1):
            for sigma in _sigmas(j, k):
                for key in sorted(table._maps[k]):
                    tau, image = table._maps[k][key]
                    tau_re = reindex_label(src, tau, sigma)
                    lhs = table.get(j, tau_re)
                    if lhs is None:
                        continue
                    rhs = reindex_label(tgt, image, sigma)
                    if lhs != rhs:
                        return Violation(k, sigma, tau, rhs, lhs)
    return None


def enumerate_behaviors(source: GroupPresentation, target: GroupPresentation,
                        max_arity: int) -> list[BehaviorTable]:
    """All coherent total tables up to the given arity, ordered by map graph."""
    if max_arity > arity_limit():
        raise ArityLimitExceeded(f"arity {max_arity} exceeds limit {arity_limit()}")
    src_labels = {k: orbit_labels(source, k) for k in range(1, max_arity + 1)}
    tgt_labels = {k: orbit_labels(target, k) for k in range(1, max_arity + 1)}
    slots = [(k, tau) for k in range(1, max_arity + 1) for tau in src_labels[k]]
    slot_index = {(k, label_key(tau)): i for i, (k, tau) in enumerate(slots)}

    # Coherence links: assigning slot i forces slot j through sigma.
    outgoing: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in slots]
    incoming: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in slots]
    for i, (k, tau) in enumerate(slots):
        for j_ar in range(1, max_arity + 1):
            for sigma in _sigmas(j_ar, k):
                tau_re = reindex_label(source, tau, sigma)
                j = slot_index[(j_ar, label_key(tau_re))]
                outgoing[i].append((j, sigma))
                incoming[j].append((i, sigma))

    assignment: list = [None] * len(slots)
    results: list[BehaviorTable] = []

    def consistent(i) -> bool:
        image = assignment[i]
        for j, sigma in outgoing[i]:
            if assignment[j] is not None and assignment[j] != reindex_label(target, image, sigma):
                return False
        for j, sigma in incoming[i]:
            if assignment[j] is not None and image != reindex_label(target, assignment[j], sigma):
                return False
        return True

    def rec(i):
        if i == len(slots):
            entries = [(k, tau, assignment[idx]) for idx, (k, tau) in enumerate(slots)]
            results.append(BehaviorTable(source, target, max_arity, entries))
            return
        k, tau = slots[i]
        for candidate in tgt_labels[k]:
            assignment[i] = candidate
            if consistent(i):
                rec(i + 1)
            assignment[i] = None

    rec(0)
    results.sort(key=BehaviorTable.graph_key)
    return results


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
