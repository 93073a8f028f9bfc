"""Finite presentations of countable homogeneous structures.

An age (a class of finite relational structures) is given by a membership
oracle.  Its generic limit is materialized lazily: a deterministic schedule
of one-point-extension demands is processed in diagonal order, each demand
either witnessed by an existing element or satisfied by adjoining a fresh
one with the lexicographically least admissible relation table.  Tuples are
classified by quantifier-free type records, the computable stand-in for
orbits of the automorphism group.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import AmalgamationFailure, ArityLimitExceeded
from .rationals import index_of_rational, least_enum_in_interval, rational_of_index

DEFAULT_ARITY_LIMIT = 6

# Full labeled enumeration in verify_amalgamation is exact up to this size;
# beyond it members are grown from smaller members, which presumes
# hereditariness below the bound.
_FULL_ENUM_MAX = 4


def arity_limit() -> int:
    """Global tuple-arity guardrail, overridable via CANONFN_ARITY_LIMIT."""
    return int(os.environ.get("CANONFN_ARITY_LIMIT", DEFAULT_ARITY_LIMIT))


def _check_arity(k: int) -> None:
    limit = arity_limit()
    if k > limit:
        raise ArityLimitExceeded(f"arity {k} exceeds limit {limit}")
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

    def arity_of(self, name: str) -> int:
        for s in self.symbols:
            if s.name == name:
                return s.arity
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.symbols)

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.symbols)


ORDER_SIG = Signature((RelationSymbol("<", 2),))
GRAPH_SIG = Signature((RelationSymbol("edge", 2),))
ORDERED_GRAPH_SIG = Signature((RelationSymbol("<", 2), RelationSymbol("edge", 2)))
EMPTY_SIG = Signature(())

Atom = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class FiniteStructure:
    """A finite relational structure on points 0..size-1, stored as an atom set."""

    signature: Signature
    size: int
    atoms: frozenset[Atom]

    def __post_init__(self):
        for name, t in self.atoms:
            if name not in self.signature:
                raise ValueError(f"unknown symbol {name}")
            if len(t) != self.signature.arity_of(name):
                raise ValueError(f"bad arity for {name}: {t}")
            if any(i < 0 or i >= self.size for i in t):
                raise ValueError(f"index out of range in {name}{t}")

    def holds(self, name: str, t: tuple[int, ...]) -> bool:
        return (name, t) in self.atoms

    def table(self, name: str) -> frozenset[tuple[int, ...]]:
        return frozenset(t for n, t in self.atoms if n == name)

    def substructure(self, points: tuple[int, ...]) -> "FiniteStructure":
        """Induced structure on the given points, reindexed in the given order."""
        position = {p: i for i, p in enumerate(points)}
        kept = frozenset(
            (name, tuple(position[i] for i in t))
            for name, t in self.atoms
            if all(i in position for i in t)
        )
        return FiniteStructure(self.signature, len(points), kept)

    def sort_key(self):
        return (self.size, tuple(sorted(self.atoms)))


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

    Subclasses may override step_ok to prune partial relation tables during
    lexicographic enumeration; contains() at the leaves stays authoritative.
    """

    signature: Signature = EMPTY_SIG
    name: str = "age"

    def contains(self, s: FiniteStructure) -> bool:
        raise NotImplementedError

    def step_ok(self, size, present, absent, atom, is_present) -> bool:
        return True

    def __repr__(self):
        return f"<age {self.name}>"


def _linear_order_ok(table, size, name="<"):
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

    def contains(self, s: FiniteStructure) -> bool:
        return _linear_order_ok(s.table("<"), s.size)

    def step_ok(self, size, present, absent, atom, is_present) -> bool:
        name, (i, j) = atom
        if is_present:
            if i == j or (name, (j, i)) in present:
                return False
            for w in range(size):
                if (name, (j, w)) in present and (name, (i, w)) in absent and i != w:
                    return False
                if (name, (w, i)) in present and (name, (w, j)) in absent and w != j:
                    return False
        else:
            if i != j and (name, (j, i)) in absent:
                return False
            for w in range(size):
                if (name, (i, w)) in present and (name, (w, j)) in present:
                    return False
        return True


class GraphsAge(AgeOracle):
    signature = GRAPH_SIG
    name = "graphs"

    def contains(self, s: FiniteStructure) -> bool:
        return _graph_ok(s.table("edge"), s.size)

    def step_ok(self, size, present, absent, atom, is_present) -> bool:
        name, (i, j) = atom
        if is_present:
            return i != j and (name, (j, i)) not in absent
        return (name, (j, i)) not in present


class OrderedGraphsAge(AgeOracle):
    signature = ORDERED_GRAPH_SIG
    name = "ordered-graphs"

    def contains(self, s: FiniteStructure) -> bool:
        return _linear_order_ok(s.table("<"), s.size) and _graph_ok(s.table("edge"), s.size)

    def step_ok(self, size, present, absent, atom, is_present) -> bool:
        if atom[0] == "<":
            return LinearOrdersAge.step_ok(self, size, present, absent, atom, is_present)
        return GraphsAge.step_ok(self, size, present, absent, atom, is_present)


class PureSetsAge(AgeOracle):
    signature = EMPTY_SIG
    name = "pure-sets"

    def contains(self, s: FiniteStructure) -> bool:
        return True


class ForbiddenSubstructuresAge(AgeOracle):
    """Structures avoiding every listed induced substructure."""

    def __init__(self, signature: Signature, forbidden: Iterable[FiniteStructure], name="forbidden"):
        self.signature = signature
        self.forbidden = tuple(forbidden)
        self.name = name
        for f in self.forbidden:
            if f.signature != signature:
                raise ValueError("forbidden structure signature mismatch")

    def contains(self, s: FiniteStructure) -> bool:
        for f in self.forbidden:
            if f.size > s.size:
                continue
            for points in itertools.combinations(range(s.size), f.size):
                if is_isomorphic(s.substructure(points), f):
                    return False
        return True


class CallableAge(AgeOracle):
    """User-supplied membership test; trusted, no pruning."""

    def __init__(self, signature: Signature, test: Callable[[FiniteStructure], bool], name="custom"):
        self.signature = signature
        self._test = test
        self.name = name

    def contains(self, s: FiniteStructure) -> bool:
        return bool(self._test(s))


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
    """All atoms over 0..size-1 touching at least one of the given points."""
    touch = set(points)
    out = []
    for sym in signature.symbols:
        for t in itertools.product(range(size), repeat=sym.arity):
            if touch.intersection(t):
                out.append((sym.name, t))
    out.sort()
    return out


def _table_dfs(age, size, base_atoms, candidates, base_absent=()):
    """Yield structures base_atoms + subset-of-candidates in lexicographic order.

    The order is lexicographic on presence vectors over the sorted candidate
    list, absent before present, so the all-absent table comes first.
    """
    present = set(base_atoms)
    absent = set(base_absent)

    def rec(i):
        if i == len(candidates):
            st = FiniteStructure(age.signature, size, frozenset(present))
            if age.contains(st):
                yield st
            return
        atom = candidates[i]
        absent.add(atom)
        if age.step_ok(size, present, absent, atom, False):
            yield from rec(i + 1)
        absent.discard(atom)
        present.add(atom)
        if age.step_ok(size, present, absent, atom, True):
            yield from rec(i + 1)
        present.discard(atom)

    yield from rec(0)


def _extension_stream(age: AgeOracle, base: FiniteStructure) -> Iterator[FiniteStructure]:
    size = base.size + 1
    candidates = _all_atoms(age.signature, [base.size], size)
    old_atoms = set()
    for sym in age.signature.symbols:
        for t in itertools.product(range(base.size), repeat=sym.arity):
            old_atoms.add((sym.name, t))
    base_absent = old_atoms - set(base.atoms)
    yield from _table_dfs(age, size, base.atoms, candidates, base_absent)


def one_point_extensions(age: AgeOracle, base: FiniteStructure) -> list[FiniteStructure]:
    """All age members on one extra point (new point last), lexicographic order."""
    if not age.contains(base):
        raise ValueError("base structure is not in the age")
    return list(_extension_stream(age, base))


def nth_extension(age: AgeOracle, base: FiniteStructure, n: int) -> FiniteStructure | None:
    return next(itertools.islice(_extension_stream(age, base), n, None), None)


# ---------------------------------------------------------------------------
# type records


def canonical_partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of k positions as first-occurrence block-id tuples, lex order."""

    def rec(prefix, nblocks):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(nblocks + 1):
            prefix.append(b)
            yield from rec(prefix, max(nblocks, b + 1))
            prefix.pop()

    yield from rec([], 0)


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
        atoms = set()
        for sym in self.signature.symbols:
            for t in itertools.product(range(len(sigma)), repeat=sym.arity):
                if (sym.name, tuple(sigma[i] for i in t)) in self.atoms:
                    atoms.add((sym.name, t))
        return TupleTypeRecord(self.signature, len(sigma), pattern, frozenset(atoms))

    def __str__(self):
        return format_type(self)


def _record_from_diagram(signature, k, pattern, diagram: FiniteStructure) -> TupleTypeRecord:
    by_block: list[list[int]] = [[] for _ in range(diagram.size)]
    for pos, b in enumerate(pattern):
        by_block[b].append(pos)
    atoms = set()
    for name, bt in diagram.atoms:
        for pt in itertools.product(*(by_block[b] for b in bt)):
            atoms.add((name, pt))
    return TupleTypeRecord(signature, k, pattern, frozenset(atoms))


def enumerate_types(limit: "LimitStructure", k: int) -> list[TupleTypeRecord]:
    """All admissible type records of arity k, sorted canonically."""
    _check_arity(k)
    age = limit.age
    out = []
    for pattern in canonical_partitions(k):
        b = max(pattern) + 1
        candidates = _all_atoms(age.signature, range(b), b)
        for diagram in _table_dfs(age, b, frozenset(), candidates):
            out.append(_record_from_diagram(age.signature, k, pattern, diagram))
    out.sort(key=TupleTypeRecord.sort_key)
    return out


def format_type(record: TupleTypeRecord) -> str:
    """Canonical pattern string: weak-order form (`2<1=3`) on the order
    signature, generic block form (`1=3|2;edge(1,2),edge(2,1)`) otherwise."""
    if record.signature == ORDER_SIG:
        diagram = record.diagram()
        table = diagram.table("<")
        if _linear_order_ok(table, diagram.size):
            by_block = [[] for _ in range(diagram.size)]
            for pos, b in enumerate(record.pattern):
                by_block[b].append(pos + 1)
            rank = lambda b: sum((c, b) in table for c in range(diagram.size))
            order = sorted(range(diagram.size), key=rank)
            return "<".join("=".join(str(p) for p in by_block[b]) for b in order)
    by_block = [[] for _ in range(record.blocks())]
    for pos, b in enumerate(record.pattern):
        by_block[b].append(pos + 1)
    blocks = "|".join("=".join(str(p) for p in blk) for blk in by_block)
    if not record.atoms:
        return blocks
    atoms = ",".join(
        f"{name}({','.join(str(i + 1) for i in t)})" for name, t in sorted(record.atoms)
    )
    return f"{blocks};{atoms}"


def parse_type(text: str, signature: Signature) -> TupleTypeRecord:
    """Inverse of format_type for the given signature."""
    text = text.strip()
    if signature == ORDER_SIG and "|" not in text and ";" not in text:
        groups = [part.split("=") for part in text.split("<")]
        positions = {}
        for rank, group in enumerate(groups):
            for p in group:
                positions[int(p)] = rank
        k = len(positions)
        if sorted(positions) != list(range(1, k + 1)):
            raise ValueError(f"bad position set in type {text!r}")
        ranks = [positions[i + 1] for i in range(k)]
        pattern = pattern_of(tuple(ranks))
        atoms = frozenset(
            ("<", (i, j)) for i in range(k) for j in range(k) if ranks[i] < ranks[j]
        )
        return TupleTypeRecord(signature, k, pattern, atoms)
    blocks_part, _, atoms_part = text.partition(";")
    positions = {}
    for b, group in enumerate(blocks_part.split("|")):
        for p in group.split("="):
            positions[int(p)] = b
    k = len(positions)
    if sorted(positions) != list(range(1, k + 1)):
        raise ValueError(f"bad position set in type {text!r}")
    pattern_raw = tuple(positions[i + 1] for i in range(k))
    pattern = pattern_of(pattern_raw)
    atoms = set()
    if atoms_part:
        for chunk in atoms_part.split("),"):
            chunk = chunk.strip()
            if not chunk.endswith(")"):
                chunk += ")"
            name, _, args = chunk.partition("(")
            args = args.rstrip(")")
            t = tuple(int(a) - 1 for a in args.split(","))
            if name not in signature:
                raise ValueError(f"unknown symbol {name!r} in type {text!r}")
            atoms.add((name, t))
    return TupleTypeRecord(signature, k, pattern, frozenset(atoms))


# ---------------------------------------------------------------------------
# limit structures

Element = object  # Fraction for the dense linear order, int index otherwise


class LimitStructure:
    """Common interface of the materialized countable structures."""

    age: AgeOracle
    name: str

    def element(self, n: int):
        raise NotImplementedError

    def eval_relation(self, name: str, elements: tuple) -> bool:
        raise NotImplementedError

    def element_index(self, element) -> int:
        raise NotImplementedError

    def qf_type(self, elements: tuple) -> TupleTypeRecord:
        if not elements:
            raise ValueError("qf_type needs a nonempty tuple")
        k = len(elements)
        pattern = pattern_of(tuple(elements))
        atoms = set()
        for sym in self.age.signature.symbols:
            for t in itertools.product(range(k), repeat=sym.arity):
                if self.eval_relation(sym.name, tuple(elements[i] for i in t)):
                    atoms.add((sym.name, t))
        return TupleTypeRecord(self.age.signature, k, pattern, frozenset(atoms))

    def admissible_image(self, committed, x, y) -> bool:
        """Whether type-preserving pairs stay so with (x, y) added."""
        dom = tuple(a for a, _ in committed) + (x,)
        rng = tuple(b for _, b in committed) + (y,)
        return self.qf_type(dom) == self.qf_type(rng)

    def least_image(self, pairs, x, probe_cap: int):
        """Enumeration-least admissible image of x under type-preserving
        pairs; None when none is among the first probe_cap elements."""
        dom_type = self.qf_type(tuple(a for a, _ in pairs) + (x,))
        rng = tuple(b for _, b in pairs)
        for i in range(probe_cap):
            y = self.element(i)
            if self.qf_type(rng + (y,)) == dom_type:
                return y
        return None

    def __repr__(self):
        return f"<limit {self.name}>"


class DloLimit(LimitStructure):
    """The rational order (Q;<) with exact arithmetic; nothing is materialized."""

    name = "dlo"

    def __init__(self):
        self.age = LinearOrdersAge()

    def element(self, n: int) -> Fraction:
        return rational_of_index(n)

    def element_index(self, element) -> int:
        return index_of_rational(element)

    def eval_relation(self, name: str, elements: tuple) -> bool:
        if name != "<":
            raise KeyError(name)
        a, b = elements
        return a < b

    # A type over Q is an order pattern, so images are found by comparing
    # positions: the least image is the enumeration-least rational between
    # the images of the nearest committed neighbors (no probe cap needed).

    def admissible_image(self, committed, x, y) -> bool:
        for a, b in committed:
            if (x < a) != (y < b) or (a < x) != (b < y):
                return False
        return True

    def least_image(self, pairs, x, probe_cap: int):
        lo = hi = None
        for a, b in pairs:
            if a < x and (lo is None or b > lo):
                lo = b
            if a > x and (hi is None or b < hi):
                hi = b
        return least_enum_in_interval(lo, hi)


class PureSetLimit(LimitStructure):
    """A countable set with no structure; elements are their indices."""

    name = "pureset"

    def __init__(self):
        self.age = PureSetsAge()

    def element(self, n: int) -> int:
        return n

    def element_index(self, element) -> int:
        return int(element)

    def eval_relation(self, name: str, elements: tuple) -> bool:
        raise KeyError(name)


@dataclass(frozen=True)
class DemandLogEntry:
    """One satisfied one-point-extension demand."""

    prefix_size: int
    extension_index: int
    witness: int
    created: bool


class GenericLimit(LimitStructure):
    """Demand-driven limit of an arbitrary age.

    Elements are enumeration indices.  The fragment grows monotonically and
    deterministically.  Not thread-safe: reads can grow the fragment.
    """

    def __init__(self, age: AgeOracle, name: str | None = None):
        self.age = age
        self.name = name or f"limit({age.name})"
        self._atoms: set[Atom] = set()
        self._size = 0
        self._log: list[DemandLogEntry] = []
        self._schedule = self._diagonal_pairs()

    @staticmethod
    def _diagonal_pairs():
        d = 1
        while True:
            for m in range(1, d + 1):
                yield m, d - m
            d += 1

    @property
    def size(self) -> int:
        return self._size

    @property
    def demand_log(self) -> tuple[DemandLogEntry, ...]:
        return tuple(self._log)

    def fragment(self, n: int | None = None) -> FiniteStructure:
        if n is None:
            n = self._size
        self.ensure_size(n)
        atoms = frozenset(
            (name, t) for name, t in self._atoms if all(i < n for i in t)
        )
        return FiniteStructure(self.age.signature, n, atoms)

    def element(self, n: int) -> int:
        self.ensure_size(n + 1)
        return n

    def element_index(self, element) -> int:
        return int(element)

    def eval_relation(self, name: str, elements: tuple) -> bool:
        if name not in self.age.signature:
            raise KeyError(name)
        self.ensure_size(max(elements) + 1)
        return (name, tuple(int(e) for e in elements)) in self._atoms

    def ensure_size(self, n: int) -> None:
        while self._size < n:
            self._step()

    def _seed(self) -> None:
        first = nth_extension(self.age, empty_structure(self.age.signature), 0)
        if first is None:
            raise AmalgamationFailure("age admits no one-point structure")
        self._atoms.update(first.atoms)
        self._size = 1

    def _prefix(self, m: int) -> FiniteStructure:
        atoms = frozenset((n, t) for n, t in self._atoms if all(i < m for i in t))
        return FiniteStructure(self.age.signature, m, atoms)

    def _step(self) -> None:
        if self._size == 0:
            self._seed()
            return
        m, e = next(self._schedule)
        if m > self._size:
            raise AssertionError("schedule outpaced the fragment")
        prefix = self._prefix(m)
        ext = nth_extension(self.age, prefix, e)
        if ext is None:
            if e == 0 and m == self._size:
                raise AmalgamationFailure(
                    f"no one-point extension of the full fragment at size {m}"
                )
            return
        witness = self._find_witness(m, ext)
        if witness is not None:
            self._log.append(DemandLogEntry(m, e, witness, False))
            return
        self._adjoin(m, e, ext)

    def _find_witness(self, m: int, ext: FiniteStructure) -> int | None:
        points = tuple(range(m))
        for z in range(m, self._size):
            full = FiniteStructure(
                self.age.signature,
                m + 1,
                frozenset(
                    (name, tuple(m if i == z else i for i in t))
                    for name, t in self._atoms
                    if all(i in points or i == z for i in t)
                ),
            )
            if full == ext:
                return z
        return None

    def _adjoin(self, m: int, e: int, ext: FiniteStructure) -> None:
        z = self._size
        new_size = z + 1
        sig = self.age.signature
        # Atoms dictated by the chosen extension (its new point becomes z).
        seeded = set(self._atoms)
        for name, t in ext.atoms:
            if ext.size - 1 in t:
                seeded.add((name, tuple(z if i == ext.size - 1 else i for i in t)))
        # Remaining freedom: atoms joining z to elements outside the prefix.
        candidates = [
            (name, t)
            for name, t in _all_atoms(sig, [z], new_size)
            if any(m <= i < z for i in t)
        ]
        candidate_set = set(candidates)
        decided = set()
        for sym in sig.symbols:
            for t in itertools.product(range(new_size), repeat=sym.arity):
                atom = (sym.name, t)
                if atom not in candidate_set:
                    decided.add(atom)
        base_absent = decided - seeded
        completion = next(
            _table_dfs(self.age, new_size, frozenset(seeded), candidates, base_absent),
            None,
        )
        if completion is None:
            raise AmalgamationFailure(
                f"demand (prefix={m}, extension={e}) admits no completion at size {z}"
            )
        self._atoms = set(completion.atoms)
        self._size = new_size
        self._log.append(DemandLogEntry(m, e, z, True))


_BUILTIN_LIMITS = {"dlo", "rado", "ordered-rado", "pureset"}


def builtin_limit(kind: str) -> LimitStructure:
    if kind == "dlo":
        return DloLimit()
    if kind == "pureset":
        return PureSetLimit()
    if kind == "rado":
        return GenericLimit(GraphsAge(), name="rado")
    if kind == "ordered-rado":
        return GenericLimit(OrderedGraphsAge(), name="ordered-rado")
    raise ValueError(f"unknown builtin limit {kind!r}")


# ---------------------------------------------------------------------------
# operations over ages and limits


def build_limit(age: AgeOracle, n: int) -> GenericLimit:
    """Materialize n elements of the generic limit of the age."""
    if n < 1:
        raise ValueError("need at least one element")
    limit = GenericLimit(age)
    limit.ensure_size(n)
    return limit


def element(limit: LimitStructure, n: int):
    return limit.element(n)


def eval_relation(limit: LimitStructure, name: str, elements: tuple) -> bool:
    if name not in limit.age.signature:
        raise KeyError(name)
    if len(elements) != limit.age.signature.arity_of(name):
        raise ValueError("tuple arity does not match the symbol")
    return limit.eval_relation(name, tuple(elements))


def qf_type(limit: LimitStructure, elements: tuple) -> TupleTypeRecord:
    return limit.qf_type(tuple(elements))


def count_orbits(limit: LimitStructure, k: int) -> int:
    """Number of admissible type records of arity k."""
    return len(enumerate_types(limit, k))


# ---------------------------------------------------------------------------
# amalgamation checking


@dataclass(frozen=True)
class AmalgamationReport:
    ok: bool
    bound: int
    failure_kind: str | None = None
    detail: str = ""
    witnesses: tuple[FiniteStructure, ...] = ()

    def __str__(self):
        if self.ok:
            return f"ok (checked up to size {self.bound}){self.detail}"
        return f"{self.failure_kind} violation: {self.detail}"


def _all_structures(age: AgeOracle, size: int) -> Iterator[FiniteStructure]:
    sig = age.signature
    candidates = _all_atoms(sig, range(size), size)

    # No membership filtering here: enumerate every labeled structure.
    class _Everything(AgeOracle):
        signature = sig

        def contains(self, s):
            return True

    yield from _table_dfs(_Everything(), size, frozenset(), candidates)


def _members_by_size(age: AgeOracle, bound: int) -> tuple[dict[int, list[FiniteStructure]], str]:
    members: dict[int, list[FiniteStructure]] = {0: []}
    empty = empty_structure(age.signature)
    if age.contains(empty):
        members[0].append(empty)
    note = ""
    for s in range(1, bound + 1):
        if s <= _FULL_ENUM_MAX:
            members[s] = [st for st in _all_structures(age, s) if age.contains(st)]
        else:
            grown = []
            seen = set()
            for base in members[s - 1]:
                for ext in _extension_stream(age, base):
                    key = ext.sort_key()
                    if key not in seen:
                        seen.add(key)
                        grown.append(ext)
            members[s] = grown
            note = f"; sizes above {_FULL_ENUM_MAX} grown from smaller members"
    return members, note


def verify_amalgamation(age: AgeOracle, bound: int = 3) -> AmalgamationReport:
    """Exhaustively check hereditariness and one-point amalgamation up to bound."""
    if bound < 1:
        raise ValueError("bound must be positive")
    members, note = _members_by_size(age, bound)
    for s in range(2, bound + 1):
        for st in members[s]:
            for drop in range(s):
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
        for base in members[s]:
            exts = one_point_extensions(age, base)
            for b1 in exts:
                for b2 in exts:
                    if b1 == b2:
                        continue
                    found = False
                    for c in _extension_stream(age, b1):
                        glued = c.substructure(tuple(range(s)) + (s + 1,))
                        if glued == b2:
                            found = True
                            break
                    if not found:
                        return AmalgamationReport(
                            False,
                            bound,
                            "amalgamation",
                            f"extensions of a size-{s} member cannot be amalgamated",
                            (base, b1, b2),
                        )
    return AmalgamationReport(True, bound, detail=note)
