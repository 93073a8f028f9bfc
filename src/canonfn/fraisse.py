"""Finite presentations of countable homogeneous structures.

An age (a class of finite relational structures) is given by a membership
oracle.  Its generic limit is materialized lazily: a deterministic schedule
of one-point-extension demands is processed in diagonal order, each demand
either witnessed by an existing element or satisfied by adjoining a fresh
one with the lexicographically least admissible relation table.  Tuples are
classified by quantifier-free type records, the computable stand-in for
orbits of the automorphism group, read off pair codes (record_of_codes) and
through eval_relation only for symbols of arity > 2.  Restricting a
structure, reindexing a record and spreading a diagram over a pattern all
pull atoms back along an index map through the one `_pullback`.  A limit's
germ() is its finite type-preserving partial map (PartialAutomorphism),
which canonize, the harness's clip and the back-and-forth grow; on (Q;<)
it is a DloGerm, whose images are found by order position.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import AmalgamationFailure, ArityLimitExceeded, TypeMismatch
from .rationals import index_of_rational, rational_of_index

ARITY_LIMIT = 6    # the tuple-arity guardrail of every check and search

# Labeled enumeration in verify_amalgamation (pruned by the age's step_ok,
# filtered by contains unless the age is step_complete, whose step_ok alone
# rejects every non-member) is exact up to this size; beyond it members are
# grown from smaller members, which presumes hereditariness below the bound.
_FULL_ENUM_MAX = 4


def _check_arity(k: int) -> None:
    if k > ARITY_LIMIT:
        raise ArityLimitExceeded(f"arity {k} exceeds limit {ARITY_LIMIT}")
    if k < 1:
        raise ValueError("arity must be positive")


# ---------------------------------------------------------------------------
# signatures and finite structures


@dataclass(frozen=True)
class RelationSymbol:
    name: str
    arity: int


@dataclass(frozen=True)
class Signature:
    symbols: tuple[RelationSymbol, ...]

    def __post_init__(self):
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation symbol names")
        for s in self.symbols:
            if s.arity < 1:
                raise ValueError(f"symbol {s.name} has arity {s.arity}")
        object.__setattr__(self, "_arities", {s.name: s.arity for s in self.symbols})

    def __contains__(self, name: str) -> bool:
        return name in self._arities


ORDER_SIG = Signature((RelationSymbol("<", 2),))
GRAPH_SIG = Signature((RelationSymbol("edge", 2),))
ORDERED_GRAPH_SIG = Signature((RelationSymbol("<", 2), RelationSymbol("edge", 2)))
EMPTY_SIG = Signature(())

Atom = tuple[str, tuple[int, ...]]


def _pullback(atoms: Iterable[Atom], sigma: tuple[int, ...]) -> frozenset[Atom]:
    """The atoms (name, t) with (name, sigma∘t) among the given atoms: the
    one way atoms move along an index map (restricting, reindexing, spreading
    blocks over positions).  Each atom expands into the product of its
    indices' preimages; one with an index outside sigma's image is skipped."""
    preimages: dict[int, list[int]] = {}
    for i, s in enumerate(sigma):
        preimages.setdefault(s, []).append(i)
    out = []
    for name, t in atoms:
        choices = [preimages.get(s) for s in t]
        if None in choices:
            continue
        for u in itertools.product(*choices):
            out.append((name, u))
    return frozenset(out)


@dataclass(frozen=True)
class FiniteStructure:
    """A finite relational structure on points 0..size-1, stored as an atom set."""

    signature: Signature
    size: int
    atoms: frozenset[Atom]

    def __post_init__(self):
        arities = self.signature._arities
        for name, t in self.atoms:
            if name not in arities:
                raise ValueError(f"unknown symbol {name}")
            if len(t) != arities[name]:
                raise ValueError(f"bad arity for {name}: {t}")
            if min(t) < 0 or max(t) >= self.size:
                raise ValueError(f"index out of range in {name}{t}")

    @classmethod
    def _trusted(cls, signature: Signature, size: int, atoms: frozenset[Atom]) -> "FiniteStructure":
        """The structure on atoms already known to fit signature and size,
        made without the per-atom validation."""
        s = object.__new__(cls)
        for field, value in (("signature", signature), ("size", size), ("atoms", atoms)):
            object.__setattr__(s, field, value)
        return s

    def holds(self, name: str, t: tuple[int, ...]) -> bool:
        return (name, t) in self.atoms

    def table(self, name: str) -> frozenset[tuple[int, ...]]:
        return frozenset(t for n, t in self.atoms if n == name)

    def substructure(self, points: tuple[int, ...]) -> "FiniteStructure":
        """Induced structure on the given distinct points; point i of the
        result is points[i]."""
        return FiniteStructure(self.signature, len(points), _pullback(self.atoms, points))


def empty_structure(signature: Signature) -> FiniteStructure:
    return FiniteStructure(signature, 0, frozenset())


def is_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    """Labeled brute force; only sensible for small structures."""
    if a.signature != b.signature or a.size != b.size or len(a.atoms) != len(b.atoms):
        return False
    for perm in itertools.permutations(range(a.size)):
        if all((name, tuple(perm[i] for i in t)) in b.atoms for name, t in a.atoms):
            return True
    return False


# ---------------------------------------------------------------------------
# ages


class AgeOracle:
    """Membership oracle for a class of finite structures.

    The table search (_table_dfs) decides candidate atoms one at a time and
    calls step_ok(size, present, pending, atom, is_present) on each
    decision: present holds the atoms present so far, pending the
    candidates not decided yet, and every other atom over 0..size-1 is
    absent.  step_ok may prune a partial table, but never one that extends
    to a member.  An age declares step_complete when step_ok also rejects
    every non-member, at the latest when the last atom of an offending
    point set is decided; its search then yields a leaf without calling
    contains().  That needs every point set with no candidate atom over it
    to induce a member, which the search's callers guarantee (a base and
    its extensions, a fragment and a dictated extension).  Otherwise
    contains() at the leaves stays authoritative.
    """

    signature: Signature = EMPTY_SIG
    name: str = "age"
    step_complete: bool = False

    def contains(self, s: FiniteStructure) -> bool:
        raise NotImplementedError

    def step_ok(self, size, present, pending, atom, is_present) -> bool:
        return True

    def __repr__(self):
        return f"<age {self.name}>"


def _linear_order_ok(table, size):
    for i in range(size):
        if (i, i) in table:
            return False
        for j in range(size):
            if i != j and ((i, j) in table) == ((j, i) in table):
                return False
    for i, j in table:
        for k in range(size):
            if (j, k) in table and (i, k) not in table:
                return False
    return True


def _graph_ok(table, size):
    for i, j in table:
        if i == j or (j, i) not in table:
            return False
    return True


class LinearOrdersAge(AgeOracle):
    signature = ORDER_SIG
    name = "linear-orders"
    step_complete = True

    def contains(self, s: FiniteStructure) -> bool:
        return _linear_order_ok(s.table("<"), s.size)

    def step_ok(self, size, present, pending, atom, is_present) -> bool:
        name, (i, j) = atom
        if is_present:
            if i == j or (name, (j, i)) in present:
                return False
            for w in range(size):
                # w<i<j needs w<j.  (i<j<w with i<w absent is caught when
                # w<i is decided, here or as a totality failure; sorted
                # candidates decide w<i first.)
                if (name, (w, i)) in present and w != j:
                    wj = (name, (w, j))
                    if wj not in present and wj not in pending:
                        return False
        else:
            ji = (name, (j, i))
            if i != j and ji not in present and ji not in pending:
                return False
            for w in range(size):
                if (name, (i, w)) in present and (name, (w, j)) in present:
                    return False
        return True


class GraphsAge(AgeOracle):
    signature = GRAPH_SIG
    name = "graphs"
    step_complete = True

    def contains(self, s: FiniteStructure) -> bool:
        return _graph_ok(s.table("edge"), s.size)

    def step_ok(self, size, present, pending, atom, is_present) -> bool:
        name, (i, j) = atom
        ji = (name, (j, i))
        if is_present:
            return i != j and (ji in present or ji in pending)
        return ji not in present


class OrderedGraphsAge(AgeOracle):
    signature = ORDERED_GRAPH_SIG
    name = "ordered-graphs"
    step_complete = True

    def contains(self, s: FiniteStructure) -> bool:
        return _linear_order_ok(s.table("<"), s.size) and _graph_ok(s.table("edge"), s.size)

    def step_ok(self, size, present, pending, atom, is_present) -> bool:
        if atom[0] == "<":
            return LinearOrdersAge.step_ok(self, size, present, pending, atom, is_present)
        return GraphsAge.step_ok(self, size, present, pending, atom, is_present)


class PureSetsAge(AgeOracle):
    signature = EMPTY_SIG
    name = "pure-sets"
    step_complete = True

    def contains(self, s: FiniteStructure) -> bool:
        return True


# ForbiddenSubstructuresAge.step_ok tests a point set once at most this many
# of its atoms are pending: deciding it then reads at most 2**_FREE_CAP tables.
_FREE_CAP = 8


class ForbiddenSubstructuresAge(AgeOracle):
    """Structures avoiding every listed induced substructure.

    step_ok tests the point sets through each decided atom's points, as
    large as a forbidden structure, against a memo of the small structures'
    membership.  It is complete when no forbidden structure is empty and
    some symbol has arity 2 or more: then every point set through a limit's
    new point and a later one carries a candidate atom of the completion
    search.
    """

    def __init__(self, signature: Signature, forbidden: Iterable[FiniteStructure], name="forbidden"):
        self.signature = signature
        self.forbidden = tuple(forbidden)
        self.name = name
        for f in self.forbidden:
            if f.signature != signature:
                raise ValueError("forbidden structure signature mismatch")
        # Per size of a forbidden structure, every atom over that many
        # points: a point set's induced atoms are read off by lookups at
        # these positions, and bit n of a table's mask is atom n's presence.
        self._over = {
            k: tuple((sym.name, t) for sym in signature.symbols
                     for t in itertools.product(range(k), repeat=sym.arity))
            for k in sorted({f.size for f in self.forbidden})
        }
        self._split: dict[tuple[int, int], tuple[list, list]] = {}
        self._verdicts: dict[tuple[int, int, int], bool] = {}   # (k, fixed, free) -> completable
        self.step_complete = (all(f.size for f in self.forbidden)
                              and any(sym.arity >= 2 for sym in signature.symbols))

    def contains(self, s: FiniteStructure) -> bool:
        atoms = s.atoms
        for f in self.forbidden:
            want, positions = len(f.atoms), self._over[f.size]
            for points in itertools.combinations(range(s.size), f.size):
                induced = [(name, t) for name, t in positions
                           if (name, tuple(points[i] for i in t)) in atoms]
                if len(induced) == want and is_isomorphic(
                        FiniteStructure(self.signature, f.size, frozenset(induced)), f):
                    return False
        return True

    def step_ok(self, size, present, pending, atom, is_present) -> bool:
        """False when a point set through the atom's points induces a
        non-member however its pending atoms are decided.  A member induces
        members, so no member is lost; a point set holding a forbidden copy
        is tested with none of its atoms pending at the latest when the
        last of them is decided."""
        through = tuple(dict.fromkeys(atom[1]))
        c = len(through)
        rest = [p for p in range(size) if p not in through]
        for k in self._over:
            if k < c:
                continue
            inner, outer = self._parts(k, c)
            # The atoms over the atom's own points are read once.
            base_fixed = base_free = 0
            for bit, name, read in inner:
                a = (name, read(through))
                if a in present:
                    base_fixed |= bit
                elif a in pending:
                    base_free |= bit
            for more in itertools.combinations(rest, k - c):
                points = through + more
                fixed, free = base_fixed, base_free
                for bit, name, read in outer:
                    a = (name, read(points))
                    if a in present:
                        fixed |= bit
                    elif a in pending:
                        free |= bit
                if not self._completable(k, fixed, free):
                    return False
        return True

    def _parts(self, k: int, c: int) -> tuple[list, list]:
        """The atoms over k points as (bit, name, reader), a reader taking
        a tuple of points to the atom's tuple over them, split into those
        over the first c points alone and the rest."""
        parts = self._split.get((k, c))
        if parts is None:
            rows = [(max(t) < c, (1 << n, name, operator.itemgetter(*t) if len(t) > 1
                                  else lambda points, i=t[0]: (points[i],)))
                    for n, (name, t) in enumerate(self._over[k])]
            parts = self._split[k, c] = ([r for inner, r in rows if inner],
                                         [r for inner, r in rows if not inner])
        return parts

    def _completable(self, k: int, fixed: int, free: int) -> bool:
        """Whether the fixed atoms over k points and some of the free ones
        (masks over _over[k]) make a member; True untested past _FREE_CAP
        free atoms.  Memoized; a free atom is tried absent first."""
        key = (k, fixed, free)
        verdict = self._verdicts.get(key)
        if verdict is None:
            if not free:
                atoms = frozenset(a for n, a in enumerate(self._over[k]) if fixed >> n & 1)
                verdict = self.contains(FiniteStructure(self.signature, k, atoms))
            elif bin(free).count("1") > _FREE_CAP:
                verdict = True
            else:
                low = free & -free
                verdict = (self._completable(k, fixed, free ^ low)
                           or self._completable(k, fixed | low, free ^ low))
            self._verdicts[key] = verdict
        return verdict


_BUILTIN_AGES = {
    "linear-orders": LinearOrdersAge,
    "graphs": GraphsAge,
    "ordered-graphs": OrderedGraphsAge,
    "pure-sets": PureSetsAge,
}


def builtin_age(kind: str) -> AgeOracle:
    try:
        return _BUILTIN_AGES[kind]()
    except KeyError:
        raise ValueError(f"unknown builtin age {kind!r}") from None


# ---------------------------------------------------------------------------
# lexicographic table enumeration

def _all_atoms(signature: Signature, points: Iterable[int], size: int) -> list[Atom]:
    """All atoms over 0..size-1 touching at least one of the given points,
    sorted; each is built once, from the first position holding one."""
    wanted = set(points)
    touch = [i for i in range(size) if i in wanted]
    rest = [i for i in range(size) if i not in wanted]
    out = [(sym.name, t)
           for sym in signature.symbols
           for k in range(sym.arity)
           for t in itertools.product(*[rest] * k, touch, *[range(size)] * (sym.arity - k - 1))]
    out.sort()
    return out


def _table_dfs(age, size, present, candidates):
    """Yield structures present + subset-of-candidates in lexicographic order.

    present and the candidates are atoms over 0..size-1; every other atom
    is absent.  The order is lexicographic on presence vectors over the
    sorted candidate list, absent before present, so the all-absent table
    comes first.  step_ok sees the undecided candidates as pending, so
    absence is never listed: an atom is absent when it is neither present
    nor pending.  A leaf is checked by contains() unless the age is
    step_complete; each caller's atoms outside the candidates are a
    member's on every point set they alone span.  The search walks an
    explicit branch stack, so its depth is not bounded by the recursion
    limit.
    """
    present = set(present)
    pending = set(candidates)
    step_ok, leaf_check = age.step_ok, not age.step_complete
    branch: list[bool] = []   # branch[i]: whether candidates[i] is present
    while True:
        i = len(branch)
        if i == len(candidates):
            st = FiniteStructure._trusted(age.signature, size, frozenset(present))
            if not leaf_check or age.contains(st):
                yield st
        else:
            atom = candidates[i]
            pending.discard(atom)
            branch.append(False)
            if step_ok(size, present, pending, atom, False):
                continue
        # Advance: undo the trailing present choices, then turn the deepest
        # absent choice present; an empty stack means the search is done.
        while branch:
            atom = candidates[len(branch) - 1]
            if branch.pop():
                present.discard(atom)
                pending.add(atom)
                continue
            present.add(atom)
            branch.append(True)
            if step_ok(size, present, pending, atom, True):
                break
        else:
            return


def _members(age: AgeOracle, b: int, base: FiniteStructure | None = None) -> Iterator[FiniteStructure]:
    """The age's members on points 0..b-1 that extend base on its points
    (the first base.size), in lexicographic table order."""
    present, d = (base.atoms, base.size) if base else ((), 0)
    return _table_dfs(age, b, present, _all_atoms(age.signature, range(d, b), b))


def one_point_extensions(age: AgeOracle, base: FiniteStructure) -> list[FiniteStructure]:
    """All age members on one extra point (new point last), lexicographic order."""
    if not age.contains(base):
        raise ValueError("base structure is not in the age")
    return list(_members(age, base.size + 1, base))


# ---------------------------------------------------------------------------
# type records


def pattern_of(values: tuple) -> tuple[int, ...]:
    """First-occurrence equality pattern of a concrete tuple."""
    ids: dict = {}
    out = []
    for v in values:
        if v not in ids:
            ids[v] = len(ids)
        out.append(ids[v])
    return tuple(out)


@dataclass(frozen=True)
class TupleTypeRecord:
    """Quantifier-free type of a tuple: equality pattern plus relation tables.

    Tables are sets of position tuples (0-based); by construction they are
    constant on the blocks of the equality pattern.
    """

    signature: Signature
    arity: int
    pattern: tuple[int, ...]
    atoms: frozenset[Atom]

    def sort_key(self):
        return (self.arity, self.pattern, tuple(sorted(self.atoms)))

    def blocks(self) -> int:
        return max(self.pattern) + 1 if self.pattern else 0

    def diagram(self) -> FiniteStructure:
        """The induced structure on the pattern's blocks."""
        block_atoms = frozenset(
            (name, tuple(self.pattern[i] for i in t)) for name, t in self.atoms
        )
        return FiniteStructure(self.signature, self.blocks(), block_atoms)

    def reindexed(self, sigma: tuple[int, ...]) -> "TupleTypeRecord":
        """Type of (t_{sigma(1)},...,t_{sigma(j)}) computed symbolically."""
        if any(i < 0 or i >= self.arity for i in sigma):
            raise ValueError("reindexing map out of range")
        pattern = pattern_of(tuple(self.pattern[i] for i in sigma))
        return TupleTypeRecord(self.signature, len(sigma), pattern,
                               _pullback(self.atoms, sigma))

    def __str__(self):
        return format_type(self)


def _patterns_by_blocks(k: int) -> dict[int, list[tuple[int, ...]]]:
    """The partitions of k positions as first-occurrence block-id tuples,
    grouped by their block count, each group in lexicographic order."""
    patterns = [()]
    for _ in range(k):
        patterns = [p + (b,) for p in patterns for b in range(max(p, default=-1) + 2)]
    out: dict[int, list[tuple[int, ...]]] = {}
    for pattern in patterns:
        out.setdefault(max(pattern) + 1, []).append(pattern)
    return out


def _admissible(limit: "LimitStructure", k: int, anchor: tuple):
    """The one walk over the admissible types of arity k, or with an anchor
    (a tuple of elements, n of them) over the (k+n)-types whose last n
    positions have the anchor's type: per block count b, the index maps
    from the type's positions to a member's points, and an iterator over
    the members on b points, each map and member giving one type.

    Such a type is a pattern whose tail is the anchor's pattern, on the
    anchor's d blocks and some more, and a member on those blocks that
    extends the anchor's diagram.  Collapsing the tail to one position per
    block, the patterns are those on k + d positions whose last d differ;
    the members on b points that extend the diagram on the first d are
    enumerated once per b: relabeling puts any d blocks first, so their
    number depends on b alone.  A map sends the tail to the member's first
    d points and the other blocks, in order, to the points after them.
    Without an anchor, d is 0 and each map is its pattern."""
    age = limit.age
    base, tail = None, ()
    if anchor:
        record = limit.qf_type(anchor)
        base, tail = record.diagram(), record.pattern
    d = base.size if base else 0
    for b, maps in _patterns_by_blocks(k + d).items():
        if d:
            maps = [pattern_of(p[k:] + p[:k])[d:] + tail for p in maps if len(set(p[k:])) == d]
        if maps:
            yield maps, _members(age, b, base)


def enumerate_types(limit: "LimitStructure", k: int, anchor: tuple = ()) -> list[TupleTypeRecord]:
    """The types of _admissible's walk as records of k + n positions (k at
    most ARITY_LIMIT, as count_types checks), sorted canonically: each
    member pulled back along each map."""
    _check_arity(k)
    arity = k + len(anchor)
    signature = limit.age.signature
    out = []
    for maps, members in _admissible(limit, k, anchor):
        spread = [(sigma, pattern_of(sigma) if anchor else sigma) for sigma in maps]
        out += [TupleTypeRecord(signature, arity, pattern, _pullback(member.atoms, sigma))
                for member in members for sigma, pattern in spread]
    out.sort(key=TupleTypeRecord.sort_key)
    return out


def count_types(limit: "LimitStructure", k: int, anchor: tuple = (),
                cap: float = math.inf) -> int:
    """len(enumerate_types(limit, k, anchor)), counted on the same walk
    without building a record.  Counting stops at the first partial count
    past cap, which it returns."""
    _check_arity(k)
    total = 0
    for maps, members in _admissible(limit, k, anchor):
        for _ in members:
            total += len(maps)
            if total > cap:
                return total
    return total


def format_type(record: TupleTypeRecord) -> str:
    """Canonical pattern string: weak-order form (`2<1=3`) on the order
    signature, generic block form (`1=3|2;edge(1,2),edge(2,1)`) otherwise."""
    by_block = [[] for _ in range(record.blocks())]
    for pos, b in enumerate(record.pattern):
        by_block[b].append(str(pos + 1))
    if record.signature == ORDER_SIG:
        table = record.diagram().table("<")
        if _linear_order_ok(table, len(by_block)):
            rank = lambda b: sum((c, b) in table for c in range(len(by_block)))
            order = sorted(range(len(by_block)), key=rank)
            return "<".join("=".join(by_block[b]) for b in order)
    blocks = "|".join("=".join(blk) for blk in by_block)
    if not record.atoms:
        return blocks
    atoms = ",".join(
        f"{name}({','.join(str(i + 1) for i in t)})" for name, t in sorted(record.atoms)
    )
    return f"{blocks};{atoms}"


# ---------------------------------------------------------------------------
# limit structures


def record_of_codes(signature: Signature, codes: list, shift: int = 0) -> TupleTypeRecord:
    """The record of a k-tuple from its k x k pair codes shifted right by
    shift: bit 0 of codes[p][q] says p and q are equal (always when p = q),
    bit s + 1 that symbol s holds, a unary one on the diagonal, none of arity > 2."""
    k = len(codes)
    first_equal = [[c >> shift & 1 for c in row].index(1) for row in codes]
    atoms = []
    for s, sym in enumerate(signature.symbols, shift + 1):
        if sym.arity == 1:
            atoms += [(sym.name, (p,)) for p in range(k) if codes[p][p] >> s & 1]
        elif sym.arity == 2:
            atoms += [(sym.name, (p, q)) for p in range(k) for q in range(k)
                      if codes[p][q] >> s & 1]
    return TupleTypeRecord(signature, k, pattern_of(first_equal), frozenset(atoms))


class LimitStructure:
    """Common interface of the materialized countable structures."""

    age: AgeOracle
    name: str

    def element(self, n: int):
        raise NotImplementedError

    def eval_relation(self, name: str, elements: tuple) -> bool:
        raise NotImplementedError

    def element_index(self, element) -> int:
        """Elements are their enumeration indices unless a subclass says otherwise."""
        return int(element)

    def is_element(self, x) -> bool:
        """Whether x is an element: an index, unless a subclass says otherwise."""
        return isinstance(x, (int, Fraction)) and x >= 0 and x == int(x)

    def qf_type(self, elements: tuple) -> TupleTypeRecord:
        if not elements:
            raise ValueError("qf_type needs a nonempty tuple")
        k = len(elements)
        codes = [[0] * k for _ in range(k)]
        for i, j in itertools.combinations_with_replacement(range(k), 2):
            codes[i][j], codes[j][i] = self.pair_codes(elements[i], elements[j], i == j)
        record = record_of_codes(self.age.signature, codes)
        wide = frozenset((sym.name, t) for sym in self.age.signature.symbols if sym.arity > 2
                         for t in itertools.product(range(k), repeat=sym.arity)
                         if self.eval_relation(sym.name, tuple(elements[i] for i in t)))
        return replace(record, atoms=record.atoms | wide) if wide else record

    def code_reader(self, values: list):
        """row(i) for the column values, which must not change while row is
        used: the pair_codes of (values[i], v) and of (v, values[i]), as
        two lists over the values v."""
        def row(i: int) -> tuple[list, list]:
            x = values[i]
            codes = [self.pair_codes(x, y, i == j) for j, y in enumerate(values)]
            return [c for c, _ in codes], [c for _, c in codes]
        return row

    def germ(self, pairs: Iterable[tuple] = ()) -> "PartialAutomorphism":
        """A type-preserving partial map of this limit, seeded with pairs."""
        return PartialAutomorphism(self, pairs)

    def __repr__(self):
        return f"<limit {self.name}>"


class DloLimit(LimitStructure):
    """The rational order (Q;<) with exact arithmetic; nothing is materialized.
    Its pair codes come from one comparison per pair, and a column's rows
    of codes from one rank of the column."""

    name = "dlo"

    def __init__(self):
        self.age = LinearOrdersAge()

    def element(self, n: int) -> Fraction:
        return rational_of_index(n)

    def element_index(self, element) -> int:
        return index_of_rational(element)

    def is_element(self, x) -> bool:
        return isinstance(x, (int, Fraction))

    def eval_relation(self, name: str, elements: tuple) -> bool:
        if name != "<":
            raise KeyError(name)
        a, b = elements
        # Cross-multiplied on the ints: exact for ints and Fractions (whose
        # denominators are positive), without Fraction.__lt__'s type checks.
        return a.numerator * b.denominator < b.numerator * a.denominator

    def pair_codes(self, x, y, diagonal: bool) -> tuple[int, int]:
        """The codes of (x, y) and (y, x), from one cross-multiplied comparison."""
        d = x.numerator * y.denominator - y.numerator * x.denominator
        if not d:
            return 1, 1
        return (2, 0) if d < 0 else (0, 2)

    def code_reader(self, values: list):
        """The same codes read off one rank of the column: the values are
        sorted by float shadow, compared exactly only where shadows tie, and
        a row reads each value's code off a list indexed by rank."""
        shadows = list(map(_shadow, values))
        order = sorted(range(len(values)), key=lambda i: (shadows[i], values[i]))
        ranks = [0] * len(values)
        rank, last = -1, None
        for i in order:
            if last is None or shadows[i] != shadows[last] or values[i] != values[last]:
                rank += 1
            ranks[i], last = rank, i

        def row(i: int) -> tuple[list, list]:
            r, above = ranks[i], rank - ranks[i]
            there = [0] * r + [1] + [2] * above    # the code of (values[i], v) by v's rank
            back = [2] * r + [1] + [0] * above
            return list(map(there.__getitem__, ranks)), list(map(back.__getitem__, ranks))
        return row

    def germ(self, pairs: Iterable[tuple] = ()) -> "DloGerm":
        return DloGerm(self, pairs)


@dataclass(frozen=True)
class DemandLogEntry:
    """One satisfied one-point-extension demand."""

    prefix_size: int
    extension_index: int
    witness: int
    created: bool


class GenericLimit(LimitStructure):
    """Demand-driven limit of an arbitrary age.

    Elements are enumeration indices.  The fragment materialized so far is
    one FiniteStructure; it grows monotonically and deterministically.  Each
    prefix keeps one live extension stream, and each point an index of the
    atoms joining it to earlier points, which the witness test reads.  Not
    thread-safe: reads can grow the fragment.
    """

    def __init__(self, age: AgeOracle, name: str | None = None):
        self.age = age
        self.name = name or f"limit({age.name})"
        self._whole = empty_structure(age.signature)
        self._log: list[DemandLogEntry] = []
        self._schedule = self._diagonal_pairs()
        # _streams[m - 1]: the extension stream of the prefix on m points (None once ended).
        self._streams: list[Iterator[FiniteStructure] | None] = []
        # _joins[z]: the atoms joining point z to the points before it, z
        # written as -1, sorted by their largest other index (-1 when none);
        # _join_keys[z] holds those indices.  Atoms added later join z to
        # larger points only, so no witness test for a prefix below z reads them.
        self._joins: list[tuple[Atom, ...]] = []
        self._join_keys: list[tuple[int, ...]] = []

    def _diagonal_pairs(self):
        """Demands (m, e) by m + e, then by m, but none of a prefix whose stream ended."""
        live: list[int] = []
        for d in itertools.count(1):
            live.append(d)
            for m in live:
                yield m, d - m
            live = [m for m in live if self._streams[m - 1] is not None]

    @property
    def size(self) -> int:
        return self._whole.size

    @property
    def demand_log(self) -> tuple[DemandLogEntry, ...]:
        return tuple(self._log)

    def fragment(self, n: int | None = None) -> FiniteStructure:
        if n is None:
            n = self.size
        self.ensure_size(n)
        return self._whole.substructure(tuple(range(n)))

    def element(self, n: int) -> int:
        self.ensure_size(n + 1)
        return n

    def eval_relation(self, name: str, elements: tuple) -> bool:
        if name not in self.age.signature:
            raise KeyError(name)
        self.ensure_size(max(elements) + 1)
        return (name, tuple(int(e) for e in elements)) in self._whole.atoms

    def pair_codes(self, x, y, diagonal: bool) -> tuple[int, int]:
        """The codes of (x, y) and (y, x) that record_of_codes decodes, off
        the fragment's atoms: unary ones on the diagonal (one index) only."""
        if max(x, y) >= self._whole.size:
            self.ensure_size(max(x, y) + 1)
        atoms = self._whole.atoms
        there = back = int(x == y)
        for s, sym in enumerate(self.age.signature.symbols, 1):
            if sym.arity == 1 and diagonal:
                there |= ((sym.name, (x,)) in atoms) << s
            elif sym.arity == 2:
                there |= ((sym.name, (x, y)) in atoms) << s
                back |= ((sym.name, (y, x)) in atoms) << s
        return there, there if diagonal else back

    def ensure_size(self, n: int) -> None:
        while self.size < n:
            self._step()

    def _seed(self) -> None:
        first = next(_members(self.age, 1), None)
        if first is None:
            raise AmalgamationFailure("age admits no one-point structure")
        self._whole = first
        self._index_point(0, first.atoms)

    def _step(self) -> None:
        if self.size == 0:
            self._seed()
            return
        m, e = next(self._schedule)
        if m > self.size:
            raise AssertionError("schedule outpaced the fragment")
        # The schedule asks prefix m for e = 0, 1, 2, ... in turn and a
        # prefix's atoms never change, so one stream answers all its demands.
        if m > len(self._streams):
            base = self._whole.substructure(tuple(range(m)))
            self._streams.append(_members(self.age, base.size + 1, base))
        ext = next(self._streams[m - 1], None)
        if ext is None:
            if e == 0 and m == self.size:
                raise AmalgamationFailure(
                    f"no one-point extension of the full fragment at size {m}"
                )
            self._streams[m - 1] = None
            return
        joins = frozenset((name, tuple(-1 if i == m else i for i in t))
                          for name, t in ext.atoms if m in t)
        witness = self._find_witness(m, joins)
        if witness is not None:
            self._log.append(DemandLogEntry(m, e, witness, False))
            return
        self._adjoin(m, e, joins)

    def _find_witness(self, m: int, joins: frozenset[Atom]) -> int | None:
        """The least z >= m that joins the prefix on m points exactly as the
        demanded extension joins its new point (written -1) to it."""
        for z in range(m, self.size):
            end = bisect.bisect_left(self._join_keys[z], m)
            if end == len(joins) and joins.issuperset(self._joins[z][:end]):
                return z
        return None

    def _index_point(self, z: int, atoms: Iterable[Atom]) -> None:
        """Index the atoms that join the newest point z to the points before it."""
        rows = sorted((max((i for i in t if i != z), default=-1),
                       (name, tuple(-1 if i == z else i for i in t)))
                      for name, t in atoms)
        self._join_keys.append(tuple(k for k, _ in rows))
        self._joins.append(tuple(a for _, a in rows))

    def _adjoin(self, m: int, e: int, joins: frozenset[Atom]) -> None:
        z = self.size
        new_size = z + 1
        # Atoms dictated by the chosen extension (its new point becomes z).
        dictated = [(name, tuple(z if i == -1 else i for i in t)) for name, t in joins]
        # Remaining freedom: atoms joining z to elements outside the prefix.
        candidates = [
            (name, t)
            for name, t in _all_atoms(self.age.signature, [z], new_size)
            if any(m <= i < z for i in t)
        ]
        seeded = itertools.chain(self._whole.atoms, dictated)
        completion = next(_table_dfs(self.age, new_size, seeded, candidates), None)
        if completion is None:
            raise AmalgamationFailure(
                f"demand (prefix={m}, extension={e}) admits no completion at size {z}"
            )
        self._whole = completion
        self._index_point(z, dictated + [a for a in candidates if a in completion.atoms])
        self._log.append(DemandLogEntry(m, e, z, True))


_BUILTIN_LIMIT_AGES = {"pureset": PureSetsAge, "rado": GraphsAge, "ordered-rado": OrderedGraphsAge}


def builtin_limit(kind: str) -> LimitStructure:
    """The rational order for dlo; any other built-in name gives the generic
    limit of its age, named kind.  ValueError for an unknown name."""
    if kind == "dlo":
        return DloLimit()
    if kind not in _BUILTIN_LIMIT_AGES:
        raise ValueError(f"unknown builtin limit {kind!r}")
    return GenericLimit(_BUILTIN_LIMIT_AGES[kind](), name=kind)


# ---------------------------------------------------------------------------
# partial automorphisms

class PartialAutomorphism:
    """A finite type-preserving partial map of a limit, grown on demand.

    mapping holds the pairs in commit order; commit, extend and uncommit
    change it.  images(x, candidates) yields the candidates y, in their
    order, with which the pairs stay type-preserving when (x, y) is added:
    the qf_type test, with x's type computed once.  extend(x, candidates)
    commits the first admissible candidate, so the germ is deterministic
    given its seed pairs and the candidates, which are finite (an
    enumeration prefix, say).  verify() recomputes the types from scratch.
    LimitStructure.germ makes a limit's germs.
    """

    def __init__(self, limit: LimitStructure, pairs: Iterable[tuple] = ()):
        self.limit = limit
        self.mapping: dict = {}    # x -> image, in commit order
        for x, y in pairs:
            self.commit(x, y)

    @property
    def pairs(self) -> tuple:
        return tuple(self.mapping.items())

    def images(self, x, candidates) -> Iterable:
        qf_type = self.limit.qf_type
        dom_type = qf_type(tuple(self.mapping) + (x,))
        rng = tuple(self.mapping.values())
        return (y for y in candidates if qf_type(rng + (y,)) == dom_type)

    def constraints(self, x) -> tuple:
        """The committed points whose pairs images(x, ...) reads, for an
        uncommitted x: all of them."""
        return tuple(self.mapping)

    def commit(self, x, y) -> None:
        """Add the pair (x, y); TypeMismatch when it breaks the type."""
        if x in self.mapping:
            if self.mapping[x] != y:
                raise TypeMismatch(f"conflicting images for {x}")
            return
        if y not in self.images(x, (y,)):
            raise TypeMismatch(f"pair {x} -> {y} breaks the type of the germ")
        self.mapping[x] = y

    def uncommit(self, x) -> None:
        """Take back the pair of x."""
        del self.mapping[x]

    def extend(self, x, candidates):
        """The image of x: its committed one, else the first admissible
        candidate, committed; None, committing nothing, when none is."""
        if x not in self.mapping:
            for y in self.images(x, candidates):
                self.commit(x, y)
                break
        return self.mapping.get(x)

    def verify(self) -> bool:
        if not self.mapping:
            return True
        qf_type = self.limit.qf_type
        return qf_type(tuple(self.mapping)) == qf_type(tuple(self.mapping.values()))


# Pairs per block of a DloGerm's index; a block splits past twice this many.
_BLOCK = 256


def _shadow(v) -> float:
    """v, an int or a Fraction, as the nearest float (+-inf past the float
    range).  Int division rounds correctly, so x < y implies
    _shadow(x) <= _shadow(y): shadows order values, except along a run of
    equal shadows."""
    try:
        return v.numerator / v.denominator
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _bisect_exact(shadows: list, values: list, f: float, v, right: bool = False) -> int:
    """bisect_left (with right, bisect_right) of v in the sorted values,
    whose shadows are given, f being v's: a C bisect over the shadows, then
    exact comparisons only along the run of shadows equal to f, made on the
    cross-multiplied ints as in DloLimit.eval_relation."""
    i = bisect.bisect_left(shadows, f)
    n = len(shadows)
    if i < n and shadows[i] == f:
        a, b = v.numerator, v.denominator
        while i < n and shadows[i] == f:
            u = values[i]
            c = u.numerator * b - a * u.denominator    # the sign of u - v
            if c > 0 or not (c or right):
                break
            i += 1
    return i


class _PairIndex:
    """The pairs of a finite order isomorphism between subsets of Q (a
    DloGerm, or symbolic.BackAndForthMap's stages), sorted on both sides at
    once (the map is order-preserving, so the two sides stay aligned),
    found from either.

    The pairs sit in consecutive blocks of at most 2 * _BLOCK; a block
    splits in two when it grows past that and is dropped when emptied.
    Per side (0 the points, 1 their images), each block keeps its values
    and their float shadows, and lasts keeps each block's last shadow, +inf
    for the last block.  A C bisect over lasts picks the block and one over
    its shadows the place in it; values are compared only along a run of
    shadows equal to the sought one, which may go on into the next block.
    A germ of one block is two flat sorted columns with their shadows, and
    an insert or delete moves at most 2 * _BLOCK entries per list.
    """

    __slots__ = ("values", "shadows", "lasts")

    def __init__(self):
        self.values = ([[]], [[]])
        self.shadows = ([[]], [[]])
        self.lasts = ([math.inf], [math.inf])

    def gap(self, side: int, v, read: int) -> tuple:
        """(j, i, f, lo, hi): v goes on side at offset i of block j (i is
        the block's length only in the last block), f is v's shadow, and lo
        and hi are the values of side read just before and at that place,
        None past an end."""
        f = _shadow(v)
        lasts, shadows, values = self.lasts[side], self.shadows[side], self.values[side]
        j = bisect.bisect_left(lasts, f)
        i = _bisect_exact(shadows[j], values[j], f, v)
        while i == len(values[j]) and j + 1 < len(lasts):    # equal shadows cross a block end
            j += 1
            i = _bisect_exact(shadows[j], values[j], f, v)
        blocks = self.values[read]
        block = blocks[j]
        return (j, i, f, block[i - 1] if i else blocks[j - 1][-1] if j else None,
                block[i] if i < len(block) else None)

    def holds(self, side: int, j: int, i: int, f: float, v) -> bool:
        """Whether v, whose shadow is f, sits on side at offset i of block
        j: gap's place for v is v's own slot when v is paired."""
        shadows = self.shadows[side][j]
        if i == len(shadows) or shadows[i] != f:
            return False
        u = self.values[side][j][i]
        return u.numerator == v.numerator and u.denominator == v.denominator

    def insert(self, j: int, i: int, x, y, fx: float, fy: float) -> None:
        """Put the pair (x, y), whose shadows are fx and fy, at (j, i)."""
        (xs, ys), (fxs, fys) = self.values, self.shadows
        xs[j].insert(i, x)
        ys[j].insert(i, y)
        fxs[j].insert(i, fx)
        fys[j].insert(i, fy)
        if len(xs[j]) > 2 * _BLOCK:
            for side in (0, 1):
                for blocks in (self.values[side], self.shadows[side]):
                    block = blocks[j]
                    blocks[j:j + 1] = block[:_BLOCK], block[_BLOCK:]
                self.lasts[side].insert(j, self.shadows[side][j][-1])

    def delete(self, j: int, i: int) -> None:
        """Take out the pair at (j, i)."""
        for side in (0, 1):
            values, shadows, lasts = self.values[side], self.shadows[side], self.lasts[side]
            del values[j][i], shadows[j][i]
            last = len(lasts) - 1
            if not values[j] and last:
                del values[j], shadows[j], lasts[j if j < last else j - 1]
            elif i == len(values[j]) and j < last:
                lasts[j] = shadows[j][-1]


class DloGerm(PartialAutomorphism):
    """A partial order isomorphism between subsets of Q: a germ of (Q;<).

    A type over Q is an order pattern, so the pairs also sit sorted on both
    sides at once, in a _PairIndex, and the admissible images of an
    uncommitted x are the rationals strictly between the images of its
    nearest committed neighbors: one lookup finds them.  images takes those
    among its candidates, which it lists (so they are finite), by two more
    bisects, over a value-sorted view of the candidate list (with the
    values' shadows) made on the first call with that list and kept while
    the same list object comes back (so the list must not change in
    between).  Every answer is exact: floats only route the bisects.  The
    back-and-forth between Q and Q minus 0 keeps a _PairIndex of its own
    (symbolic.BackAndForthMap), not a germ.
    """

    def __init__(self, limit: LimitStructure, pairs: Iterable[tuple] = ()):
        self._index = _PairIndex()
        # (candidate list, sorted values, their shadows, their positions)
        self._view: tuple = (None, [], [], [])
        super().__init__(limit, pairs)

    def images(self, x, candidates) -> Iterable:
        if x in self.mapping:
            return super().images(x, candidates)
        *_, lo, hi = self._index.gap(0, x, 1)
        listed, values, shadows, positions = self._view
        if listed is not candidates:
            listed = candidates if isinstance(candidates, (list, tuple)) else list(candidates)
            shadows = list(map(_shadow, listed))
            # By shadow; values are compared only where shadows tie.
            positions = sorted(range(len(listed)), key=lambda k: (shadows[k], listed[k]))
            values = [listed[k] for k in positions]
            shadows = [shadows[k] for k in positions]
            self._view = (listed, values, shadows, positions)
        a = 0 if lo is None else _bisect_exact(shadows, values, _shadow(lo), lo, right=True)
        b = len(values) if hi is None else _bisect_exact(shadows, values, _shadow(hi), hi)
        return [listed[k] for k in sorted(positions[a:b])]

    def constraints(self, x) -> tuple:
        """x's nearest committed neighbors: images(x, ...) reads only their pairs."""
        *_, lo, hi = self._index.gap(0, x, 0)
        return tuple(v for v in (lo, hi) if v is not None)

    def commit(self, x, y) -> None:
        if x in self.mapping:
            return super().commit(x, y)
        j, i, f, lo, hi = self._index.gap(0, x, 1)
        if not ((lo is None or lo < y) and (hi is None or y < hi)):
            raise TypeMismatch(f"pair {x} -> {y} breaks the type of the germ")
        self._index.insert(j, i, x, y, f, _shadow(y))
        self.mapping[x] = y

    def uncommit(self, x) -> None:
        del self.mapping[x]
        j, i, *_ = self._index.gap(0, x, 0)
        self._index.delete(j, i)


# ---------------------------------------------------------------------------
# operations over ages and limits


def build_limit(age: AgeOracle, n: int) -> GenericLimit:
    """Materialize n elements of the generic limit of the age."""
    if n < 1:
        raise ValueError("need at least one element")
    limit = GenericLimit(age)
    limit.ensure_size(n)
    return limit


def qf_type(limit: LimitStructure, elements: tuple) -> TupleTypeRecord:
    return limit.qf_type(tuple(elements))


# ---------------------------------------------------------------------------
# amalgamation checking


@dataclass(frozen=True)
class AmalgamationReport:
    ok: bool
    bound: int
    failure_kind: str | None = None
    detail: str = ""
    witnesses: tuple[FiniteStructure, ...] = ()


def _members_by_size(age: AgeOracle, bound: int) -> tuple[dict[int, list[FiniteStructure]], str]:
    members: dict[int, list[FiniteStructure]] = {0: []}
    empty = empty_structure(age.signature)
    if age.contains(empty):
        members[0].append(empty)
    note = ""
    for s in range(1, bound + 1):
        if s <= _FULL_ENUM_MAX:
            members[s] = list(_members(age, s))
        else:
            # No two grown extensions are equal: each restricts to its base,
            # and the bases are distinct.
            members[s] = [ext for base in members[s - 1] for ext in _members(age, base.size + 1, base)]
            note = f"; sizes above {_FULL_ENUM_MAX} grown from smaller members"
    return members, note


def verify_amalgamation(age: AgeOracle, bound: int = 3) -> AmalgamationReport:
    """Exhaustively check hereditariness and one-point amalgamation up to bound.

    Extensions b1 != b2 of a member amalgamate when some extension of b1
    restricts to b2 on the base and its own new point; b1's extensions are
    enumerated once, into the set of those restrictions.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    members, note = _members_by_size(age, bound)
    for s in range(2, bound + 1):
        for st in members[s]:
            # A grown member without its last point is its base, a member.
            for drop in range(s - 1 if s > _FULL_ENUM_MAX else s):
                points = tuple(i for i in range(s) if i != drop)
                sub = st.substructure(points)
                if not age.contains(sub):
                    return AmalgamationReport(
                        False,
                        bound,
                        "hereditariness",
                        f"member of size {s} has a non-member induced substructure "
                        f"(dropped point {drop})",
                        (st, sub),
                    )
    for s in range(0, bound - 1):
        glue = tuple(range(s)) + (s + 1,)
        for base in members[s]:
            exts = one_point_extensions(age, base)
            for b1 in exts:
                glued = {c.substructure(glue) for c in _members(age, b1.size + 1, b1)}
                for b2 in exts:
                    if b2 != b1 and b2 not in glued:
                        return AmalgamationReport(
                            False, bound, "amalgamation",
                            f"extensions of a size-{s} member cannot be amalgamated",
                            (base, b1, b2))
    return AmalgamationReport(True, bound, detail=note)
