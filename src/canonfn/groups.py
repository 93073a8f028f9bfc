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
reindex_label once per (label, sigma).  The tuple scan keys a tuple of
concrete points (or a whole row of tuples) by the codes of its pairs and
reads a new key's label off them (fraisse.record_of_codes); only a symbol
of arity > 2 is read through eval_relation.  The behavior-table layer
(enumerate_behaviors, coherence_check) interns labels directly and turns
ids back into labels only where it builds a BehaviorTable or a Violation.
LabelTexts formats each distinct label once per command.

The point shape lives here: a point is a bare element on one column and
an m-tuple on m >= 2; columns and joined convert it to and from its columns,
and format_point writes it.  A presentation's repr is its spec string.

automorphism_extending certifies a finite partial map of a limit as the
limit's germ (fraisse.PartialAutomorphism, re-exported here), which
extends over finite lists of candidates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, prod

from .errors import PresentationError
from .fraisse import (
    LimitStructure,
    PartialAutomorphism,
    TupleTypeRecord,
    count_types,
    enumerate_types,
    format_type,
    record_of_codes,
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


def _column_anchors(g: GroupPresentation) -> list[tuple]:
    """Per column of the points, that column of the constants."""
    return [tuple(columns(c)[i] for c in g.constants) for i in range(g.m)]


def orbit_labels(g: GroupPresentation, k: int) -> list:
    """All admissible labels of arity k, sorted by label_key: per column,
    fraisse.enumerate_types anchored at that column of the constants (the
    walk that count_orbits_g counts), listed once per distinct anchor; the
    product of the columns' sorted lists keeps that order."""
    anchors = _column_anchors(g)
    listed = {anchor: enumerate_types(g.limit, k, anchor) for anchor in set(anchors)}
    return listed[anchors[0]] if g.m == 1 else list(itertools.product(*map(listed.get, anchors)))


def count_orbits_g(g: GroupPresentation, k: int, cap: float = inf) -> int:
    """len(orbit_labels(g, k)), without building a record: per distinct
    column anchor, fraisse.count_types on the walk that enumerate_types
    lists, raised to the number of columns with that anchor.  With a cap,
    a number past cap may stand for any larger one: a column stops counting
    past it."""
    anchors = Counter(_column_anchors(g))
    return prod(count_types(g.limit, k, anchor, cap) ** times for anchor, times in anchors.items())


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
    On a signature of unary and binary symbols (binary is True) a tuple's
    label is read off the codes of the pairs of its points and constants,
    the limit's pair_codes side by side for the g.m columns, by
    record_of_codes once per column.  A point's unit packs its codes with
    itself and with the constants, taken when it is appended; the other
    codes are read on first need, one pair of point indices at a time.  A
    point appended at index k drops the codes from k on.
    A tuple's key is, per position, its point's unit and then its codes
    with each earlier position, both ways; so a tuple's key starts with its
    prefix's.  id_of keys one tuple; ids keys a whole row, the tuples
    prefix + (e,) for every point e, by extending the prefix's key with
    columns of codes that the limit's code_reader reads once per point of
    the prefix.  Each new key takes the next id and decodes its label.  A
    symbol of arity > 2 makes orbit_label itself the key.
    """

    def __init__(self, g: GroupPresentation):
        self.g = g
        self.points: list = []
        self.labels: list = []
        self._limit = g.limit
        self._shift = len(g.constants)
        self._anchor = tuple(range(self._shift))
        signature = self._limit.age.signature
        self.binary = signature.max_arity <= 2
        self._width = len(signature.symbols) + 1  # bits of one column's code
        self._columns: list[list] = [[] for _ in range(g.m)]
        self._codes: list[dict] = []             # [i][j]: the code of the pair (i, j)
        self._units: list = [None] * self._shift  # per point index, shifted past the constants
        self._rows: dict = {}                    # point index -> its codes with every point
        self._readers: list | None = None
        self._ids: dict = {}
        self._label_ids: dict = {}
        self._reindexed: dict = {}
        for k, c in enumerate(g.constants):
            self._put(k, c)

    def _put(self, k: int, p) -> None:
        """Store point p at index k, dropping the codes from index k on.  A
        code (i, j) left in a lower row is rewritten before it is read: a
        key reads (j, i) too, which is missing, and _fill writes both."""
        cols = p if len(self._columns) > 1 else (p,)
        for values, v in zip(self._columns, cols):
            del values[k:]
            values.append(v)
        del self._codes[k:]
        self._codes.append({})
        self._rows.clear()
        self._readers = None

    def append(self, p) -> None:
        a = self._shift + len(self.points)
        self._put(a, p)
        self.points.append(p)
        if self.binary:
            for t in (a,) + self._anchor:
                self._fill(a, t)
            row, unit = self._codes[a], 0
            for code in reversed([row[a]] + [c for t in self._anchor
                                             for c in (row[t], self._codes[t][a])]):
                unit = unit << self._width * len(self._columns) | code
            self._units.append(unit)

    def pop(self) -> None:
        """Drop the last point; its codes go when the next point is appended."""
        self.points.pop()
        del self._units[self._shift + len(self.points):]

    def _fill(self, i: int, j: int) -> None:
        """Read the codes of the pairs (i, j) and (j, i), on all columns."""
        there = back = shift = 0
        for values in self._columns:
            x, y = self._limit.pair_codes(values[i], values[j], i == j)
            there |= x << shift
            back |= y << shift
            shift += self._width
        self._codes[j][i] = back
        self._codes[i][j] = there    # on the diagonal, this write wins

    def _fill_missing(self, ext) -> None:
        codes = self._codes
        for i in ext:
            for j in ext:
                if j not in codes[i]:
                    self._fill(i, j)

    def _key(self, idx: tuple) -> tuple:
        ext = [i + self._shift for i in idx] if self._shift else idx
        units, codes = self._units, self._codes
        try:
            key = []
            for p, a in enumerate(ext):
                key.append(units[a])
                row = codes[a]
                for b in ext[:p]:
                    key += codes[b][a], row[b]
        except KeyError:
            self._fill_missing(ext)
            return self._key(idx)
        return tuple(key)

    def _row(self, a: int) -> tuple[list, list]:
        """The codes of (a, e) and of (e, a) for every point index e, from
        the limit's code_reader over each column."""
        row = self._rows.get(a)
        if row is None:
            if self._readers is None:
                self._readers = [self._limit.code_reader(values) for values in self._columns]
            s = self._shift
            there, back = self._readers[0](a + s)
            there, back = there[s:], back[s:]
            for c, read in enumerate(self._readers[1:], start=1):
                shift = c * self._width
                x, y = read(a + s)
                there = [u | v << shift for u, v in zip(there, x[s:])]
                back = [u | v << shift for u, v in zip(back, y[s:])]
            row = self._rows[a] = (there, back)
        return row

    def _id(self, key: tuple, idx: tuple) -> int:
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = self.id_of_label(self._label(idx))
        return found

    def _label(self, idx: tuple):
        """orbit_label of the tuple at idx, built from its codes."""
        ext = [i + self._shift for i in idx] + list(self._anchor)
        self._fill_missing(ext)
        codes = [[self._codes[a][b] for b in ext] for a in ext]
        parts = [record_of_codes(self._limit.age.signature, codes, c * self._width)
                 for c in range(len(self._columns))]
        return parts[0] if len(parts) == 1 else tuple(parts)

    def id_of(self, idx: tuple) -> int:
        """Id of the label of the tuple of points at the indices idx."""
        if not self.binary:
            return self.id_of_label(orbit_label(self.g, tuple(self.points[i] for i in idx)))
        return self._id(self._key(idx), idx)

    def ids(self, prefix: tuple) -> list[int]:
        """Ids of the tuples prefix + (e,), for every point index e in order."""
        if not self.binary:
            return [self.id_of(prefix + (e,)) for e in range(len(self.points))]
        columns = [self._units[self._shift:]]
        for a in prefix:
            columns += self._row(a)
        keys = list(map(self._key(prefix).__add__, zip(*columns)))
        ids = list(map(self._ids.get, keys))
        if None in ids:
            for e, found in enumerate(ids):
                if found is None:
                    ids[e] = self._id(keys[e], prefix + (e,))
        return ids

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
