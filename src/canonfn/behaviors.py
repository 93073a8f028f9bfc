"""Behavior tables: the per-arity orbit-to-orbit maps a canonical function induces.

A table is coherent when it commutes with every index map sigma: [j] -> [k]
(permutations, projections, duplications) between tuple positions:
B_j(reindex(tau, sigma)) = reindex(B_k(tau), sigma).  Coherence is necessary
for the maps to come from a single function, and enumeration searches the
coherent tables directly.

Every index map factors into generators: faces [k-1] -> [k] (drop a
position), degeneracies [k+1] -> [k] (repeat a position) and adjacent
transpositions [k] -> [k].  Reindexing by a map [j] -> [k] whose image has
m elements permutes and drops positions down to arity m, then repeats and
permutes them up to arity j, so the factorisation passes only through
arities between m and max(j, k) (the simplex category with the symmetric
groups, Mac Lane, Categories for the Working Mathematician, VII.5).  Reindexing is functorial, so a table whose
labels are closed under the generators up to its max arity, and which
commutes with each generator, commutes with every sigma.  A total table is
closed, so enumerate_behaviors links its slots through the generators only;
coherence_check accepts a closed table that commutes with the generators,
and scans every sigma only to find the first violation of any other table.

enumerate_behaviors and coherence_check work on groups.PointLabels ids, one
interner per side: slots, candidates and coherence links are ints, and
reindexing is a memoized lookup.  Ids turn back into labels
(TupleTypeRecords or tuples of them) only where a BehaviorTable or a
Violation is built, so the public API sees labels only.  depth_first is the
one backtracking driver: the slot search, realize_behavior and canonize's
searches are per-level generators on its explicit stack, so none of them
grows the Python stack with depth.  canonize's levels record conflict sets,
on which the driver backjumps; the others backtrack chronologically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExhausted, PresentationError
from .fraisse import _check_arity
from .groups import (
    AutLimit,
    GroupPresentation,
    PointLabels,
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


def _generators(k: int, n: int):
    """The generating index maps into [k] whose domain arity is in 1..n:
    faces [k-1] -> [k], degeneracies [k+1] -> [k], adjacent transpositions."""
    if k > 1:
        for i in range(k):
            yield tuple(range(i)) + tuple(range(i + 1, k))
    if k < n:
        for i in range(k):
            yield tuple(range(i + 1)) + tuple(range(i, k))
    for i in range(k - 1):
        yield tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, k))


def coherence_check(table: BehaviorTable) -> Violation | None:
    """First violation of B_j(reindex(tau, sigma)) = reindex(B_k(tau), sigma),
    scanning (k, j, sigma, tau) lexicographically; None when coherent."""
    n = table.max_arity
    arities = range(1, n + 1)
    # The interners list only the labels met here: listing all orbit labels
    # would cost more than the memoized reindexing saves on one table.
    src, tgt = PointLabels(table.source), PointLabels(table.target)
    # Per arity: (source id, image id, source label) in label_key order.
    entries: dict[int, list] = {k: [] for k in arities}
    image_of: dict[int, int] = {}
    for k, tau, image in table.entries():
        i, t = src.id_of_label(tau), tgt.id_of_label(image)
        entries[k].append((i, t, tau))
        image_of[i] = t
    # Closed under the generators and commuting with them: coherent.  A label
    # missing from the table or a disagreement sends the table to the full
    # scan, which finds the first violation, if any.
    if all(image_of.get(src.reindex(i, sigma)) == tgt.reindex(t, sigma)
           for k in arities for i, t, _ in entries[k] for sigma in _generators(k, n)):
        return None
    for k in arities:
        for j in arities:
            for sigma in _sigmas(j, k):
                for i, t, tau in entries[k]:
                    lhs = image_of.get(src.reindex(i, sigma))
                    if lhs is None:
                        continue
                    rhs = tgt.reindex(t, sigma)
                    if lhs != rhs:
                        return Violation(k, sigma, tau, tgt.labels[rhs], tgt.labels[lhs])
    return None


def depth_first(levels: int, choices, conflicts: list | None = None):
    """Backtrack over levels 0 .. levels-1 on one explicit stack: choices(i)
    is called as level i is entered, each step of the iterator it returns
    applies the level's next choice (undoing the one before), and a level
    is popped when its choices run out.  Yields once per full assignment,
    with every level's choice still applied.

    Without conflicts a level that runs out hands back to level i-1.  With
    a list of one int per level the search backjumps (conflict-directed
    backjumping, Prosser, Computational Intelligence 9(3), 1993): level i
    keeps in conflicts[i] the bitmask of the earlier levels whose choices
    its failures depend on.  When it runs out, the driver jumps to the
    highest level h in that set and merges the rest of the set into
    conflicts[h]; no level between holds a choice under which level i could
    succeed.  Each skipped level is resumed once with conflicts[j] set to
    -1, on which it undoes its choice and ends without trying the next.  An
    empty set ends the search.
    """
    if not levels:
        yield
        return
    stack = [choices(0)]
    while stack:
        for _ in stack[-1]:
            break
        else:
            stack.pop()
            if conflicts is not None and stack:
                mask = conflicts[len(stack)]
                h = mask.bit_length() - 1
                if h >= 0:
                    conflicts[h] |= mask ^ (1 << h)
                while len(stack) > h + 1:
                    conflicts[len(stack) - 1] = -1
                    next(stack.pop(), None)
            continue
        if len(stack) < levels:
            stack.append(choices(len(stack)))
        else:
            yield


NODE_BUDGET = 1_000_000


def enumerate_behaviors(source: GroupPresentation, target: GroupPresentation,
                        max_arity: int, budget: int = NODE_BUDGET) -> list[BehaviorTable]:
    """All coherent total tables up to the given arity, ordered by map graph.

    The slot search enters at most budget slots (one node per slot entered,
    whatever the number of candidates tried there); BudgetExhausted when it
    needs more.
    """
    _check_arity(max_arity)
    if budget < 1:
        raise ValueError("budget must be positive")
    src, tgt = PointLabels(source), PointLabels(target)
    # Interned arity by arity, the source ids are the slots, in label_key
    # order per arity; a slot's candidates are the target ids of its arity.
    slots: list[tuple] = []   # per source id: (arity, candidate target ids)
    for k in range(1, max_arity + 1):
        first = len(tgt.labels)
        for label in orbit_labels(target, k):
            tgt.id_of_label(label)
        for label in orbit_labels(source, k):
            src.id_of_label(label)
            slots.append((k, range(first, len(tgt.labels))))

    # Coherence links, through the generating index maps only (a total table
    # is closed under them): slot s forces slot r = reindex(s, sigma) through
    # the target reindexing row of sigma, image[r] == row[image[s]].  Slots
    # are filled in order, so each link is checked at the later of its two
    # slots: forward[s] holds (r, row) with r <= s, backward[r] holds (s, row),
    # s < r.
    rows = {(k, sigma): {t: tgt.reindex(t, sigma) for t in cands}
            for k, cands in dict(slots).items() for sigma in _generators(k, max_arity)}
    # The links also decide most slots: a backward link (s', row) leaves
    # only row[image[s']], else the first forward link (r, row) with r < s
    # only the preimage of image[r] under row, read from the row's inverse
    # (built once, in id order): narrowing[s] = (r, inverse).  An image
    # outside the slot's ids (a label the target does not list) is no
    # candidate, and the link tests still run on each candidate left.
    inverses = {key: {} for key in rows}
    for key, row in rows.items():
        for t, u in row.items():
            inverses[key].setdefault(u, []).append(t)
    forward: list[list] = [[] for _ in slots]
    backward: list[list] = [[] for _ in slots]
    narrowing: list[tuple | None] = [None] * len(slots)
    for s, (k, _) in enumerate(slots):
        for sigma in _generators(k, max_arity):
            r = src.reindex(s, sigma)
            if r <= s:
                forward[s].append((r, rows[(k, sigma)]))
                if r < s and narrowing[s] is None:
                    narrowing[s] = (r, inverses[(k, sigma)])
            else:
                backward[r].append((s, rows[(k, sigma)]))

    image: list[int] = [0] * len(slots)
    found: list[tuple] = []
    nodes = 0

    def slot(s):
        nonlocal nodes
        if nodes == budget:
            raise BudgetExhausted(f"slot-search budget of {budget} nodes ran out; "
                                  f"{len(found)} tables found so far")
        nodes += 1
        links, back = forward[s], backward[s]
        cands = slots[s][1]
        if back:
            r, row = back[0]
            a = row[image[r]]
            cands = (a,) if a in cands else ()
        elif narrowing[s] is not None:
            r, inverse = narrowing[s]
            cands = inverse.get(image[r], ())
        for a in cands:
            image[s] = a
            if (all(image[r] == row[a] for r, row in links)
                    and all(a == row[image[r]] for r, row in back)):
                yield

    for _ in depth_first(len(slots), slot):
        found.append(tuple(image))
    # Candidates are tried in id order, so the tables come out sorted by
    # their target-id tuples: graph_key order, since every table has the
    # same slots and ids follow label_key.
    return [BehaviorTable(source, target, max_arity,
                          [(k, label, tgt.labels[a])
                           for (k, _), label, a in zip(slots, src.labels, ids)])
            for ids in found]


_TARGET_RATIO = 8


@dataclass(frozen=True)
class Exhausted:
    """Inconclusive outcome of a realizability search."""

    explored: int

    def __bool__(self):
        return False


def realize_behavior(table: BehaviorTable, n: int):
    """Search for a finite witness of the table on the first n source elements.

    Returns the enumeration-lexicographically least mapping into the first
    n*_TARGET_RATIO target elements whose induced labels match the table on
    all tuples of arity <= max_arity, or Exhausted.  A candidate is kept when
    its push succeeds and the table agrees on each label the push recorded first.
    """
    if not isinstance(table.source, AutLimit) or not isinstance(table.target, AutLimit):
        raise PresentationError("realizability search needs aut(limit) presentations")
    if n < 1:
        raise ValueError("witness size must be positive")
    from .canonicity import BehaviorScan    # canonicity imports this module

    domain = [table.source.limit.element(i) for i in range(n)]
    pool = [table.target.limit.element(i) for i in range(n * _TARGET_RATIO)]
    scan = BehaviorScan(table.source, table.target, table.max_arity, domain)
    explored = 0

    def element(i):
        nonlocal explored
        for y in pool:
            explored += 1
            if scan.push(y):
                if all(table.get(k, src) == tgt for k, src, tgt in scan.recorded()):
                    yield
                scan.pop()

    for _ in depth_first(n, element):
        return tuple(zip(domain, scan.images))
    return Exhausted(explored)
