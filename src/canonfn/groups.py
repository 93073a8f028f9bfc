"""Permutation-group presentations and their orbit invariants.

A presentation is one (limit, m, constants): the automorphism group of a
limit structure (aut), its m-th power acting componentwise on m-column
points (power, m >= 2), or the pointwise stabilizer of finitely many
constant points of either (stab).  These four shapes are the only ones, and
a presentation is checked when it is made: PowerGroup and StabilizerGroup
raise PresentationError on any other shape.  Every reading below takes the
triple from g.limit, g.m and g.constants.  Orbit equivalence is decided
through labels (type records and tuples thereof), never through explicit
group elements; for the built-in homogeneous limits this is sound and
complete.

A PointLabels is the one label interner: each distinct label of one
presentation takes the next int id, and reindex maps ids through
reindex_label once per (label, sigma).  The tuple scan interns the labels
of tuples of concrete points: it reads each pair of point indices once
through eval_relation, keys a tuple by the int codes of its pairs, and
calls orbit_label once per new key.  The behavior-table layer
(enumerate_behaviors, coherence_check) interns labels directly and turns
ids back into labels only where it builds a BehaviorTable or a Violation.
LabelTexts formats each distinct label once per command.

The point shape lives here: a point is a bare element on one column and
an m-tuple on m >= 2; columns and joined convert it to and from its columns,
and format_point writes it.  A presentation's repr is its spec string.

automorphism_extending certifies a finite partial map of a limit as the
limit's germ (fraisse.PartialAutomorphism, re-exported here), which
extends on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import PresentationError
from .fraisse import (
    LimitStructure,
    PartialAutomorphism,
    TupleTypeRecord,
    count_types,
    enumerate_types,
    format_type,
)
from .rationals import format_rational


def columns(p) -> tuple:
    """A point's columns: a tuple stays a tuple, a bare value becomes a 1-tuple."""
    return p if isinstance(p, tuple) else (p,)


def joined(cols: tuple):
    """The point with these columns, a bare value for one: columns inverted."""
    return cols[0] if len(cols) == 1 else tuple(cols)


def format_point(p, sep: str = ",") -> str:
    """A point as specs and function tables write it, `(a,b)` for a tuple;
    the CLI's reports pass sep=", " and write `(a, b)`."""
    if isinstance(p, tuple):
        return "(" + sep.join(format_point(v, sep) for v in p) + ")"
    if isinstance(p, Fraction):
        return format_rational(p)
    return str(p)


@dataclass(frozen=True, eq=False)
class AutLimit:
    limit: LimitStructure
    m = 1
    constants = ()

    def __repr__(self):
        return f"aut({self.limit.name})"


@dataclass(frozen=True, eq=False)
class PowerGroup:
    base: "GroupPresentation"
    m: int
    constants = ()

    def __post_init__(self):
        if self.m < 2:
            raise PresentationError("power arity must be at least 2")
        if not isinstance(self.base, AutLimit):
            raise PresentationError("power base must be an automorphism group")

    @property
    def limit(self) -> LimitStructure:
        return self.base.limit

    def __repr__(self):
        return f"power({self.base!r},{self.m})"


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    base: "GroupPresentation"
    constants: tuple

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(self.constants))
        if not self.constants:
            raise PresentationError("stabilizer needs at least one constant")
        if not isinstance(self.base, (AutLimit, PowerGroup)):
            raise PresentationError("stabilizer base must be aut or power(aut)")
        for c in self.constants:
            cols = columns(c)
            # A constant is a bare value on 1-column points, else an m-tuple.
            if len(cols) != self.m or joined(cols) != c:
                raise PresentationError(f"constant ({', '.join(map(str, cols))}) does not "
                                        f"fit {self.base!r}, which acts on {self.m}-column points")
            for v in cols:
                if not self.limit.is_element(v):
                    raise PresentationError(f"constant {v} is not an element of {self.limit.name}")

    @property
    def limit(self) -> LimitStructure:
        return self.base.limit

    @property
    def m(self) -> int:
        return self.base.m

    def __repr__(self):
        return f"stab({self.base!r}; {','.join(map(format_point, self.constants))})"


GroupPresentation = AutLimit | PowerGroup | StabilizerGroup


def aut_power(limit: LimitStructure, m: int) -> GroupPresentation:
    """aut(limit), or its m-th power: the default source of m-column oracles."""
    return AutLimit(limit) if m == 1 else PowerGroup(AutLimit(limit), m)


def stabilized(g: GroupPresentation, h: GroupPresentation, constants, image):
    """stab(g; constants) and stab(h; their images under image), or (g, h)
    when there are no constants.

    Each constant is read as exact rationals, a one-column constant as a
    bare value; StabilizerGroup checks that it fits g's points.
    """
    consts = [joined(tuple(Fraction(v) for v in columns(c))) for c in constants]
    if not consts:
        return g, h
    return (StabilizerGroup(g, tuple(consts)),
            StabilizerGroup(h, tuple(image(c) for c in consts)))


def _diagonal_unrank(m: int, n: int) -> tuple[int, ...]:
    """The n-th m-tuple of naturals in diagonal order: by coordinate sum,
    then lexicographic.  Diagonal t holds C(t+m-1, m-1) tuples, so the
    tuples of sum below t number C(t+m-1, m)."""
    t = 0
    while comb(t + m, m) <= n:
        t += 1
    n -= comb(t + m - 1, m)
    out = []
    for rest in range(m - 1, 0, -1):
        # C(t-a+rest-1, rest-1) tuples of the diagonal start with a here.
        a = 0
        while n >= comb(t - a + rest - 1, rest - 1):
            n -= comb(t - a + rest - 1, rest - 1)
            a += 1
        out.append(a)
        t -= a
    out.append(t)
    return tuple(out)


def point(g: GroupPresentation, n: int):
    """n-th point of the domain the presentation acts on: the limit's n-th
    element, or the n-th m-tuple of its elements in diagonal order."""
    if g.m == 1:
        return g.limit.element(n)
    return tuple(g.limit.element(i) for i in _diagonal_unrank(g.m, n))


def orbit_label(g: GroupPresentation, t: tuple):
    """The orbit invariant of a tuple of points: the type record of the tuple
    extended by the constants, one per column of the points."""
    if not t:
        raise ValueError("orbit_label needs a nonempty tuple")
    if g.constants:
        t = tuple(t) + g.constants
    if g.m == 1:
        return g.limit.qf_type(t)
    return tuple(g.limit.qf_type(tuple(p[i] for p in t)) for i in range(g.m))


def label_key(label):
    """Total order on labels, for deterministic enumeration and reporting."""
    if isinstance(label, TupleTypeRecord):
        return (0, label.sort_key())
    return (1, tuple(label_key(part) for part in label))


def reindex_label(g: GroupPresentation, label, sigma: tuple[int, ...]):
    """Label of the reindexed tuple, with stabilizer constants held fixed."""
    if g.constants:
        n = len(g.constants)
        k = (label if g.m == 1 else label[0]).arity - n
        sigma = tuple(sigma) + tuple(range(k, k + n))
    if g.m == 1:
        return label.reindexed(sigma)
    return tuple(part.reindexed(sigma) for part in label)


def _column_labels(g: GroupPresentation, k: int) -> list[list]:
    """Per column of the points, the limit's (k+n)-types, sorted, whose last
    n positions have the type of that column of the n constants."""
    n = len(g.constants)
    types = enumerate_types(g.limit, k + n)
    if not n:
        return [types] * g.m
    tail = tuple(range(k, k + n))
    anchors = [g.limit.qf_type(tuple(columns(c)[i] for c in g.constants))
               for i in range(g.m)]
    return [[lbl for lbl in types if lbl.reindexed(tail) == a] for a in anchors]


def orbit_labels(g: GroupPresentation, k: int) -> list:
    """All admissible labels of arity k, sorted by label_key: the product of
    the columns' sorted labels keeps that order."""
    columns = _column_labels(g, k)
    return columns[0] if g.m == 1 else list(itertools.product(*columns))


def count_orbits_g(g: GroupPresentation, k: int) -> int:
    """Number of admissible labels of arity k: the limit's k-types counted
    per column without building their records, or, under a stabilizer, the
    product of the columns' filtered records."""
    if g.constants:
        return prod(len(column) for column in _column_labels(g, k))
    return count_types(g.limit, k) ** g.m


def format_label(label) -> str:
    if isinstance(label, TupleTypeRecord):
        return format_type(label)
    return "(" + " * ".join(format_label(part) for part in label) + ")"


class PointLabels:
    """The orbit labels of one presentation, interned as int ids.

    Labels and ids correspond one to one: labels[id] is an id's label,
    id_of_label a label's id, and reindex maps ids as reindex_label maps
    labels.  The behavior-table layer interns labels arity by arity in
    label_key order, so its ids follow that order.

    The tuple scan interns the labels of tuples of scanned points: points
    lists them by index; a stabilizer's constants sit before them, and each
    of the g.m columns keeps its own values.
    On a signature of unary and binary symbols a tuple's label is fixed by
    its pair codes: per column, for each ordered pair of positions of the
    tuple extended by the constants, one equality bit and one bit per
    symbol, read through the limit's eval_relation once per pair of point
    indices, on first need.  A point appended at index k drops the codes
    from k on.  The codes are the tuple's key; each new key
    takes the next id, and labels[id] is orbit_label of the first tuple met
    with that key.  A symbol of arity > 2 makes orbit_label itself the key.
    binary is True on a signature of unary and binary symbols only.
    """

    def __init__(self, g: GroupPresentation):
        self.g = g
        self.points: list = []
        self.labels: list = []
        self._limit = g.limit
        self._shift = len(g.constants)
        self._anchor = tuple(range(self._shift))
        symbols = self._limit.age.signature.symbols
        self.binary = all(1 <= s.arity <= 2 for s in symbols)
        self._unary = [s.name for s in symbols if s.arity == 1]
        self._pair = [s.name for s in symbols if s.arity == 2]
        self._columns: list[list] = [[] for _ in range(g.m)]
        self._codes: list[list[dict]] = [[] for _ in range(g.m)]  # [column][i][j]
        self._ids: dict = {}
        self._label_ids: dict = {}
        self._reindexed: dict = {}
        for k, c in enumerate(g.constants):
            self._put(k, c)

    def _put(self, k: int, p) -> None:
        """Store point p at index k, dropping the rows from index k on.  A
        code (i, j) left in a lower row is rewritten before it is read: a
        key reads (j, i) too, which is missing, and _fill writes both."""
        cols = p if len(self._columns) > 1 else (p,)
        for values, codes, v in zip(self._columns, self._codes, cols):
            del values[k:], codes[k:]
            values.append(v)
            codes.append({})

    def append(self, p) -> None:
        self._put(self._shift + len(self.points), p)
        self.points.append(p)

    def pop(self) -> None:
        """Drop the last point; its codes go when the next point is appended."""
        self.points.pop()

    def _fill(self, values: list, codes: list, i: int, j: int) -> None:
        """Read the codes of the pairs (i, j) and (j, i) of one column."""
        x, y = values[i], values[j]
        there = back = int(x == y)
        bit = 2
        for name in self._unary:
            if i == j and self._limit.eval_relation(name, (x,)):
                there |= bit
            bit <<= 1
        for name in self._pair:
            if self._limit.eval_relation(name, (x, y)):
                there |= bit
            if i != j and self._limit.eval_relation(name, (y, x)):
                back |= bit
            bit <<= 1
        codes[j][i] = back
        codes[i][j] = there    # on the diagonal, this write wins

    def _key(self, idx: tuple) -> tuple:
        ext = tuple(i + self._shift for i in idx) + self._anchor if self._shift else idx
        try:
            return tuple([codes[i][j] for codes in self._codes for i in ext for j in ext])
        except KeyError:
            for values, codes in zip(self._columns, self._codes):
                for i in ext:
                    row = codes[i]
                    for j in ext:
                        if j not in row:
                            self._fill(values, codes, i, j)
            return tuple([codes[i][j] for codes in self._codes for i in ext for j in ext])

    def id_of(self, idx: tuple) -> int:
        """Id of the label of the tuple of points at the indices idx."""
        if not self.binary:
            return self.id_of_label(orbit_label(self.g, tuple(self.points[i] for i in idx)))
        key = self._key(idx)
        found = self._ids.get(key)
        if found is None:
            label = orbit_label(self.g, tuple(self.points[i] for i in idx))
            found = self._ids[key] = self.id_of_label(label)
        return found

    def id_of_label(self, label) -> int:
        """Id of a label; a label not met yet takes the next id."""
        i = self._label_ids.get(label)
        if i is None:
            i = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return i

    def reindex(self, i: int, sigma: tuple[int, ...]) -> int:
        """Id of reindex_label(g, labels[i], sigma), memoized: reindex_label
        runs at most once for each (label, sigma)."""
        j = self._reindexed.get((i, sigma))
        if j is None:
            label = reindex_label(self.g, self.labels[i], sigma)
            j = self._reindexed[i, sigma] = self.id_of_label(label)
        return j


class LabelTexts(dict):
    """format_label memoized for one command: texts[label] formats each
    distinct label once."""

    def __missing__(self, label) -> str:
        text = self[label] = format_label(label)
        return text


def automorphism_extending(g: GroupPresentation, mapping) -> PartialAutomorphism:
    """Certify a finite partial map as an automorphism germ of an aut(limit):
    the limit's germ seeded with the map's pairs (see fraisse.PartialAutomorphism)."""
    if not isinstance(g, AutLimit):
        raise PresentationError("partial automorphisms are only presented for aut(limit)")
    if hasattr(mapping, "items"):
        pairs = tuple(mapping.items())
    else:
        pairs = tuple(mapping)
    return g.limit.germ(pairs)
