"""Compositional permutation-group presentations and their orbit invariants.

Three shapes are supported: the automorphism group of a limit structure,
finite powers acting componentwise on column tuples, and pointwise
stabilizers.  Orbit equivalence is decided through labels (type records and
tuples thereof), never through explicit group elements; for the built-in
homogeneous limits this is sound and complete.

A LabelSpace interns the labels of one presentation as int ids per arity,
with memoized reindexing; LabelSpace.admissible lists all orbit labels, so
ids follow label_key.  The behavior-table layer (enumerate_behaviors,
coherence_check) works on these ids for one call and turns them back into
labels only where it builds a BehaviorTable or a Violation.  LabelTexts
formats each distinct label once per command.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import PresentationError, TypeMismatch
from .fraisse import (
    LimitStructure,
    TupleTypeRecord,
    enumerate_types,
    format_type,
    parse_type,
)


@dataclass(frozen=True, eq=False)
class AutLimit:
    limit: LimitStructure

    def __repr__(self):
        return f"aut({self.limit.name})"


@dataclass(frozen=True, eq=False)
class PowerGroup:
    base: "GroupPresentation"
    m: int

    def __repr__(self):
        return f"power({self.base!r},{self.m})"


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    base: "GroupPresentation"
    constants: tuple

    def __repr__(self):
        return f"stab({self.base!r};{self.constants!r})"


GroupPresentation = AutLimit | PowerGroup | StabilizerGroup


def validate_presentation(g: GroupPresentation) -> None:
    """Allow exactly the shapes needed downstream: aut, power(aut),
    stab(aut), stab(power(aut))."""
    if isinstance(g, AutLimit):
        return
    if isinstance(g, PowerGroup):
        if g.m < 1:
            raise PresentationError("power arity must be positive")
        if not isinstance(g.base, AutLimit):
            raise PresentationError("power base must be an automorphism group")
        return
    if isinstance(g, StabilizerGroup):
        if not g.constants:
            raise PresentationError("stabilizer needs at least one constant")
        if isinstance(g.base, AutLimit):
            return
        if isinstance(g.base, PowerGroup) and isinstance(g.base.base, AutLimit):
            return
        raise PresentationError("stabilizer base must be aut or power(aut)")
    raise PresentationError(f"unsupported presentation {g!r}")


def domain_limit(g: GroupPresentation) -> LimitStructure:
    if isinstance(g, AutLimit):
        return g.limit
    if isinstance(g, PowerGroup):
        return domain_limit(g.base)
    return domain_limit(g.base)


def point_arity(g: GroupPresentation) -> int:
    """Number of columns of an acted-on point (1 unless a power is involved)."""
    if isinstance(g, AutLimit):
        return 1
    if isinstance(g, PowerGroup):
        return g.m * point_arity(g.base)
    return point_arity(g.base)


def stabilized(g: GroupPresentation, h: GroupPresentation, constants, image):
    """stab(g; constants) and stab(h; their images under image), or (g, h)
    when there are no constants.

    Each constant becomes a point of g: exact rationals, one per column of
    g's points (a bare value for one column); a constant with another
    number of columns is a ValueError.
    """
    m = point_arity(g)
    consts = []
    for c in constants:
        cols = tuple(Fraction(v) for v in (c if isinstance(c, tuple) else (c,)))
        if len(cols) != m:
            raise ValueError(f"constant ({', '.join(map(str, cols))}) does not fit "
                             f"{g!r}, which acts on {m}-column points")
        consts.append(cols if m > 1 else cols[0])
    if not consts:
        return g, h
    return (StabilizerGroup(g, tuple(consts)),
            StabilizerGroup(h, tuple(image(c) for c in consts)))


def _index_tuples(m: int):
    """Diagonal enumeration of N^m: by coordinate sum, then lexicographic."""
    total = 0
    while True:
        for combo in itertools.product(range(total + 1), repeat=m):
            if sum(combo) == total:
                yield combo
        total += 1


def point(g: GroupPresentation, n: int):
    """n-th point of the domain the presentation acts on."""
    if isinstance(g, AutLimit):
        return g.limit.element(n)
    if isinstance(g, StabilizerGroup):
        return point(g.base, n)
    combo = next(itertools.islice(_index_tuples(g.m), n, None))
    return tuple(point(g.base, i) for i in combo)


def _column(tuples: tuple, i: int) -> tuple:
    return tuple(p[i] for p in tuples)


def orbit_label(g: GroupPresentation, t: tuple):
    """The orbit invariant of a tuple of points.

    aut: the type record; power: one base label per column; stabilizer: the
    base label of the tuple extended by the constants.
    """
    if not t:
        raise ValueError("orbit_label needs a nonempty tuple")
    if isinstance(g, AutLimit):
        return g.limit.qf_type(t)
    if isinstance(g, PowerGroup):
        return tuple(orbit_label(g.base, _column(t, i)) for i in range(g.m))
    return orbit_label(g.base, tuple(t) + tuple(g.constants))


def same_orbit(g: GroupPresentation, s: tuple, t: tuple) -> bool:
    if len(s) != len(t):
        raise ValueError("tuples must have equal length")
    return orbit_label(g, s) == orbit_label(g, t)


def label_key(label):
    """Total order on labels, for deterministic enumeration and reporting."""
    if isinstance(label, TupleTypeRecord):
        return (0, label.sort_key())
    return (1, tuple(label_key(part) for part in label))


def label_arity(label) -> int:
    if isinstance(label, TupleTypeRecord):
        return label.arity
    return label_arity(label[0])


def reindex_label(g: GroupPresentation, label, sigma: tuple[int, ...]):
    """Label of the reindexed tuple, with stabilizer constants held fixed."""
    if isinstance(g, AutLimit):
        return label.reindexed(sigma)
    if isinstance(g, PowerGroup):
        return tuple(reindex_label(g.base, part, sigma) for part in label)
    n = len(g.constants)
    k = label_arity(label) - n
    extended = tuple(sigma) + tuple(range(k, k + n))
    return reindex_label(g.base, label, extended)


def orbit_labels(g: GroupPresentation, k: int) -> list:
    """All admissible labels of arity k, sorted by label_key."""
    if isinstance(g, AutLimit):
        return enumerate_types(g.limit, k)
    if isinstance(g, PowerGroup):
        base = orbit_labels(g.base, k)
        return [combo for combo in itertools.product(base, repeat=g.m)]
    n = len(g.constants)
    anchor = orbit_label(g.base, tuple(g.constants))
    tail = tuple(range(k, k + n))
    out = [
        lbl
        for lbl in orbit_labels(g.base, k + n)
        if reindex_label(g.base, lbl, tail) == anchor
    ]
    out.sort(key=label_key)
    return out


def count_orbits_g(g: GroupPresentation, k: int) -> int:
    """Number of admissible labels of arity k."""
    if isinstance(g, PowerGroup):
        return count_orbits_g(g.base, k) ** g.m
    return len(orbit_labels(g, k))


def format_label(label) -> str:
    if isinstance(label, TupleTypeRecord):
        return format_type(label)
    return "(" + " * ".join(format_label(part) for part in label) + ")"


class LabelSpace:
    """Labels of one presentation, interned per arity as int ids.

    labels[k] lists the arity-k labels by id.  In LabelSpace.admissible(g, n)
    labels[k] is orbit_labels(g, k), so ids follow label_key order.  reindex
    is memoized, so reindex_label runs at most once for each (label, sigma).
    A space lives for one call (enumerate_behaviors, coherence_check); its
    callers turn ids back into labels through labels[k][i].
    """

    def __init__(self, g: GroupPresentation, labels: dict[int, list]):
        self.g = g
        self.labels = {k: list(ls) for k, ls in labels.items()}
        self._ids = {k: {label: i for i, label in enumerate(ls)}
                     for k, ls in self.labels.items()}
        self._reindexed: dict = {}

    @classmethod
    def admissible(cls, g: GroupPresentation, max_arity: int) -> "LabelSpace":
        return cls(g, {k: orbit_labels(g, k) for k in range(1, max_arity + 1)})

    def id_of(self, k: int, label) -> int:
        """Id of an arity-k label; a label not yet listed takes the next id."""
        ids = self._ids[k]
        i = ids.get(label)
        if i is None:
            i = ids[label] = len(self.labels[k])
            self.labels[k].append(label)
        return i

    def reindex(self, k: int, i: int, sigma: tuple[int, ...]) -> int:
        """Id of reindex_label(g, labels[k][i], sigma), of arity len(sigma)."""
        key = (k, i, sigma)
        j = self._reindexed.get(key)
        if j is None:
            label = reindex_label(self.g, self.labels[k][i], sigma)
            j = self._reindexed[key] = self.id_of(len(sigma), label)
        return j


class LabelTexts(dict):
    """format_label memoized for one command: texts[label] formats each
    distinct label once."""

    def __missing__(self, label) -> str:
        text = self[label] = format_label(label)
        return text


def _split_top(text: str, sep: str, maxsplit: int = -1) -> list[str]:
    """Split at separators outside parentheses and brackets, stripping the
    parts; at most maxsplit splits when it is not negative."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0 and len(parts) != maxsplit:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_label(g: GroupPresentation, text: str):
    """Inverse of format_label against a fixed presentation shape."""
    text = text.strip()
    if isinstance(g, AutLimit):
        return parse_type(text, g.limit.age.signature)
    if isinstance(g, PowerGroup):
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"expected a parenthesized power label: {text!r}")
        parts = _split_top(text[1:-1], "*")
        if len(parts) != g.m:
            raise ValueError(f"expected {g.m} columns in {text!r}")
        return tuple(parse_label(g.base, part) for part in parts)
    return parse_label(g.base, text)


# ---------------------------------------------------------------------------
# partial automorphisms


class PartialAutomorphism:
    """A finite type-preserving partial map of a limit, extendable on demand.

    Extension commits the enumeration-least admissible image, which the
    limit's least_image finds (DloLimit by order position, other limits by
    probing the enumeration), so the germ is deterministic given its seed
    pairs.  Each committed pair is tested with the limit's admissible_image;
    verify() recomputes the types from scratch.
    """

    def __init__(self, limit: LimitStructure, pairs: Iterable[tuple] = (), probe_cap: int = 1 << 21):
        self.limit = limit
        self._pairs: list[tuple] = []
        self._map: dict = {}
        self._probe_cap = probe_cap
        for x, y in pairs:
            self._commit(x, y)

    def _commit(self, x, y):
        if x in self._map:
            if self._map[x] != y:
                raise TypeMismatch(f"conflicting images for {x}")
            return
        if not self.limit.admissible_image(self._pairs, x, y):
            raise TypeMismatch(f"pair {x} -> {y} breaks the type of the germ")
        self._pairs.append((x, y))
        self._map[x] = y

    @property
    def pairs(self) -> tuple:
        return tuple(self._pairs)

    def extend(self, x):
        """Image of x, committing the enumeration-least admissible value."""
        if x in self._map:
            return self._map[x]
        y = self.limit.least_image(self._pairs, x, self._probe_cap)
        if y is None:
            raise PresentationError(f"no admissible image for {x} within the probe cap")
        self._commit(x, y)
        return y

    def __call__(self, x):
        return self.extend(x)

    def verify(self) -> bool:
        dom = tuple(p[0] for p in self._pairs)
        rng = tuple(p[1] for p in self._pairs)
        if not dom:
            return True
        return self.limit.qf_type(dom) == self.limit.qf_type(rng)


def automorphism_extending(g: GroupPresentation, mapping) -> PartialAutomorphism:
    """Certify a finite partial map as an automorphism germ of an aut(limit)."""
    if not isinstance(g, AutLimit):
        raise PresentationError("partial automorphisms are only presented for aut(limit)")
    if hasattr(mapping, "items"):
        pairs = tuple(mapping.items())
    else:
        pairs = tuple(mapping)
    return PartialAutomorphism(g.limit, pairs)
