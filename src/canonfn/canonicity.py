"""Canonicity checking at finite horizons.

A function is canonical when same-orbit tuples have same-orbit images.  At a
finite horizon this is checked over all tuples of bounded arity drawn from an
initial segment of the domain: a refutation (two same-label tuples with
different image labels) is conclusive, a pass is a certificate up to the
horizon only.  BehaviorScan is the one tuple scan behind every such check.
It is made on a fixed sequence of points: check_canonical runs it in full,
and the embedding search in canonize and the realizability search in
behaviors push and pop one image per level of their behaviors.depth_first
search.  It labels tuples by int ids on point indices (groups.PointLabels),
so a label record is built once per distinct label, not once per tuple.  A
push labels the source tuples of its position once, on the position's first
push, and only image tuples after that.  check_canonical labels a whole row
of tuples at a time.  On a target whose symbols are unary or binary, it
compares image labels only up to arity 2: a conflict among larger tuples
implies one among their 1- and 2-subtuples, which comes first in scan
order; above arity 2 it only records the behavior table, and stops once
every source label of the arity is met.  A target with a symbol of arity
> 2 keeps the comparison at every arity.
The module also computes induced behavior tables, the local equality relation
modulo a group, coherent tower witnesses for lifted equalities, and a harness
comparing the three equivalent formulations of canonicity at finite scale.
It runs on its own scan: the seeds, each seed's local check and its tower
read ids off the scan's two interners, so the oracle is read once per point,
only on the pool and the seeds' points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .behaviors import BehaviorTable
from .errors import DomainGap, PresentationError
from .fraisse import DloLimit, LimitStructure, _check_arity
from .groups import (
    AutLimit,
    GroupPresentation,
    PointLabels,
    aut_power,
    automorphism_extending,
    columns,
    count_orbits_g,
    format_point,
    label_key,
    orbit_label,
    point,
    reindex_label,
)
from .rationals import format_rational

_SEED_CAP = 64    # same-label tuple pairs the harness samples by default

# ---------------------------------------------------------------------------
# function oracles


class FunctionOracle:
    """A (possibly partial) map between limit domains, applied componentwise
    to tuples.  m is the number of argument columns; points of m-ary oracles
    are m-tuples of source elements."""

    m = 1

    def __init__(self, source: LimitStructure, target: LimitStructure):
        self.source = source
        self.target = target

    def __call__(self, p):
        raise NotImplementedError

    def spec_str(self) -> str:
        return self.__class__.__name__

    def __repr__(self):
        return f"<oracle {self.spec_str()}>"


class IdentityOracle(FunctionOracle):
    def __call__(self, p):
        return p

    def spec_str(self):
        return "id"


class NegationOracle(FunctionOracle):
    def __init__(self, limit: LimitStructure):
        if not isinstance(limit, DloLimit):
            raise ValueError("negation is a dlo oracle")
        super().__init__(limit, limit)

    def __call__(self, p):
        return -p

    def spec_str(self):
        return "neg"


class ConstantOracle(FunctionOracle):
    def __init__(self, limit: LimitStructure, value):
        super().__init__(limit, limit)
        self.value = value

    def __call__(self, p):
        return self.value

    def spec_str(self):
        return f"const:{format_rational(self.value)}"


@dataclass(frozen=True)
class Interval:
    """A rational interval with optional infinite endpoints."""

    lo: Fraction | None
    lo_closed: bool
    hi: Fraction | None
    hi_closed: bool

    def __contains__(self, x) -> bool:
        if self.lo is not None:
            if x < self.lo or (x == self.lo and not self.lo_closed):
                return False
        if self.hi is not None:
            if x > self.hi or (x == self.hi and not self.hi_closed):
                return False
        return True

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo is None else format_rational(self.lo)
        hi = "inf" if self.hi is None else format_rational(self.hi)
        return f"{left}{lo},{hi}{right}"


@dataclass(frozen=True)
class AffinePiece:
    domain: Interval
    coefficient: Fraction
    offset: Fraction

    def __call__(self, x):
        return self.coefficient * x + self.offset


class PiecewiseAffineOracle(FunctionOracle):
    """Total map on Q given by affine pieces with disjoint interval domains."""

    def __init__(self, limit: LimitStructure, pieces):
        super().__init__(limit, limit)
        self.pieces = tuple(pieces)
        self._validate()

    def _validate(self):
        pieces = sorted(
            self.pieces,
            key=lambda p: (1, p.domain.lo) if p.domain.lo is not None else (0, 0),
        )
        if not pieces:
            raise ValueError("need at least one piece")
        first, last = pieces[0], pieces[-1]
        if first.domain.lo is not None or last.domain.hi is not None:
            raise ValueError("pieces must cover all of Q")
        for a, b in zip(pieces, pieces[1:]):
            if a.domain.hi is None or b.domain.lo is None or a.domain.hi != b.domain.lo:
                raise ValueError("piece domains must tile Q without gaps")
            if a.domain.hi_closed == b.domain.lo_closed:
                raise ValueError("piece domains overlap or leave a gap at a breakpoint")

    def __call__(self, x):
        for piece in self.pieces:
            if x in piece.domain:
                return piece(x)
        raise AssertionError("pieces were validated to cover Q")

    def spec_str(self):
        parts = []
        for p in self.pieces:
            coef, off = p.coefficient, p.offset
            if coef == 0:
                expr = format_rational(off)
            else:
                expr = "x" if coef == 1 else f"x*{format_rational(coef)}"
                if off > 0:
                    expr += f"+{format_rational(off)}"
                elif off < 0:
                    expr += f"-{format_rational(-off)}"
            parts.append(f"{p.domain}:{expr}")
        return "pieces:[" + "; ".join(parts) + "]"


def _check_point(p, m: int, limit: LimitStructure, what: str) -> None:
    """ValueError unless p is a point of m elements of the limit (a bare
    element when m is 1); what names p in the message."""
    cols = columns(p)
    if len(cols) != m or not all(map(limit.is_element, cols)):
        kind = "an element" if m == 1 else f"a point of {m} elements"
        raise ValueError(f"{what} {format_point(p)} is not {kind} of {limit.name}")


class TableOracle(FunctionOracle):
    """Finite function table; probes outside the table raise DomainGap.  A
    key must be a point of m source elements and a value a target element."""

    def __init__(self, source: LimitStructure, target: LimitStructure, mapping, m: int = 1):
        super().__init__(source, target)
        self.m = m
        self.mapping = dict(mapping)
        for p, v in self.mapping.items():
            _check_point(p, m, source, "table key")
            if not target.is_element(v):
                raise ValueError(f"table value {format_point(v)} at {format_point(p)} "
                                 f"is not an element of {target.name}")

    def __call__(self, p):
        try:
            return self.mapping[p]
        except KeyError:
            raise DomainGap(f"oracle undefined at {p}") from None

    def spec_str(self):
        return f"table[{len(self.mapping)}]"


class BackAndForthOracle(FunctionOracle):
    """Wraps a symbolic back-and-forth map between dense subsets of Q."""

    def __init__(self, mapping, limit: LimitStructure | None = None):
        limit = limit or DloLimit()
        super().__init__(limit, limit)
        self.mapping = mapping

    def __call__(self, p):
        return self.mapping.eval(p)

    def spec_str(self):
        return self.mapping.name


class ComposeOracle(FunctionOracle):
    def __init__(self, outer: FunctionOracle, inner: FunctionOracle):
        if outer.m != 1:
            raise ValueError(f"compose needs a 1-column outer oracle; "
                             f"{outer.spec_str()} takes {outer.m}-column points")
        super().__init__(inner.source, outer.target)
        self.m = inner.m
        self.outer = outer
        self.inner = inner

    def __call__(self, p):
        return self.outer(self.inner(p))

    def spec_str(self):
        return f"compose({self.outer.spec_str()},{self.inner.spec_str()})"


class MinOracle(FunctionOracle):
    m = 2

    def __call__(self, p):
        return min(p)

    def spec_str(self):
        return "min"


class MaxOracle(FunctionOracle):
    m = 2

    def __call__(self, p):
        return max(p)

    def spec_str(self):
        return "max"


class ProjectionOracle(FunctionOracle):
    def __init__(self, limit: LimitStructure, m: int, coordinate: int):
        if m < 2:
            raise ValueError(f"projection needs at least 2 columns, not {m}")
        if not 0 <= coordinate < m:
            raise ValueError(f"projection coordinate {coordinate + 1} outside 1..{m}")
        super().__init__(limit, limit)
        self.m = m
        self.coordinate = coordinate

    def __call__(self, p):
        return p[self.coordinate]

    def spec_str(self):
        return f"proj:{self.coordinate + 1}/{self.m}"


def apply_tuple(f: FunctionOracle, t: tuple) -> tuple:
    return tuple(f(p) for p in t)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class CanonicalUpTo:
    """A non-conclusive certificate: no refutation below the stated horizon."""

    horizon: int
    arity: int
    behavior: BehaviorTable

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Counterexample:
    """A conclusive refutation; recomputes by direct evaluation."""

    arity: int
    witness_s: tuple
    witness_t: tuple
    source_label: object
    image_label_s: object
    image_label_t: object

    def __bool__(self):
        return False


CanonicityVerdict = CanonicalUpTo | Counterexample


class BehaviorScan:
    """The tuple scan behind every canonicity check: it discovers the
    behavior table of a fixed sequence of points, given when the scan is
    made and labeled on the source side then, and of their images.

    Each visited tuple of arity k <= arity over the points has the label of
    its image tuple under h compared with the image label first visited for
    the same source label under g.  Labels are the int ids of one
    groups.PointLabels per side, taken on point indices; an id fixes its
    label's arity, so the first image is kept by source id alone.  Ids turn
    back into labels only for a Counterexample, a BehaviorTable or recorded.

    Full mode (run) compares the tuples in (arity, lexicographic index)
    order, so the first conflict is the first counterexample, and calls the
    oracle on a point only when the scan first reaches it.  Above arity 1
    it ids a row of tuples at a time; on a binary target it compares only
    up to arity 2 and stops a larger arity's pass at the count of its
    source labels (see run).  Incremental mode (push/pop)
    gives the next position its image and visits only the tuples that
    contain that position; a push that conflicts undoes its own entries,
    leaves the scan as it was and names the two conflicting tuples in
    conflict.  The source ids of a position's touching tuples are taken on
    its first push and kept, so a search that tries many images there
    labels its source tuples once.
    """

    def __init__(self, g: GroupPresentation, h: GroupPresentation, arity: int, points):
        self.arity = arity
        self.source = PointLabels(g)
        self.target = PointLabels(h)
        for p in points:
            self.source.append(p)
        self._seen: dict = {}        # source id -> (image id, first index tuple)
        self._pushed: list = []      # source ids each push recorded, for pop
        self._sources: list = []     # per position: its touching tuples' (index tuple, source id)
        self.conflict: tuple = ()    # of the last failed push: (index tuple, first on record)

    @property
    def points(self) -> list:
        return self.source.points

    @property
    def images(self) -> list:
        return self.target.points

    def _known(self, idx: tuple, src: int, img: int, added: list) -> tuple:
        """(image id, first index tuple) on record for the source id; an id
        met first here records (img, idx) and joins added."""
        known = self._seen.get(src)
        if known is None:
            known = self._seen[src] = (img, idx)
            added.append(src)
        return known

    def _points_at(self, idx: tuple) -> tuple:
        return tuple(self.points[i] for i in idx)

    def run(self, f: FunctionOracle) -> Counterexample | None:
        """Full mode: the first tuple whose image label conflicts, or None.

        The arity-1 pass takes the points one at a time, each image when
        the pass reaches its point.  A pass of arity k >= 2 goes row by
        row: a row is the tuples prefix + (e,) over every point e, for the
        prefixes in lexicographic order, and both sides id a whole row at
        once (PointLabels.ids).  On a binary target (PointLabels.binary) a
        pass above arity 2 compares nothing: it records, for each source
        id met first, the image id of that tuple, for the behavior table,
        and it stops once it has met all count_orbits_g(g, k) source
        labels.  No conflict is lost: one at arity k > 2 gives one at arity
        <= 2 among the same points, which the scan met first.
        """
        source, target = self.source, self.target
        n = len(self.points)
        first = source.ids(())
        for i, p in enumerate(self.points):
            try:
                image = f(p)
            except DomainGap:
                raise DomainGap(f"oracle undefined at {p}") from None
            target.append(image)
            found = self._meet((), first[i:i + 1], [target.id_of((i,))], i)
            if found is not None:
                return found
        for k in range(2, self.arity + 1):
            rows = itertools.product(range(n), repeat=k - 1)
            if k > 2 and target.binary:
                self._meet_sources(k, rows)
                continue
            for prefix in rows:
                found = self._meet(prefix, source.ids(prefix), target.ids(prefix))
                if found is not None:
                    return found
        return None

    def _meet(self, prefix: tuple, src_ids: list, img_ids: list, start: int = 0):
        """Compare the tuples prefix + (start + e,), whose source and image
        ids are src_ids[e] and img_ids[e], in that order: the first
        conflict as a Counterexample, or None after recording the first
        image of each source id met first.  Only the first tuple with a
        given pair of ids can be the first conflict or a first meeting, so
        each distinct pair is looked at once, in the order it first comes."""
        pairs = list(zip(src_ids, img_ids))
        for src, img in dict.fromkeys(pairs):
            known = self._seen.get(src)
            if known is None:
                self._seen[src] = (img, prefix + (start + pairs.index((src, img)),))
            elif known[0] != img:
                img0, idx0 = known
                idx = prefix + (start + pairs.index((src, img)),)
                labels = self.target.labels
                return Counterexample(len(idx), self._points_at(idx0), self._points_at(idx),
                                      self.source.labels[src], labels[img0], labels[img])
        return None

    def _meet_sources(self, k: int, rows) -> None:
        """The arity-k pass on a binary target: the image id of the first
        tuple of each source id, row by row, until every source label of
        arity k is met.  Their number is counted only up to a cap, twice
        the larger of the labels met and the row's length: at the end of the
        first row, and again once the labels met reach the last cap, until
        a count falls within its cap and so is exact.  A count then costs
        at most a share of the pass's own work, and the pass still stops at
        the end of the row that meets the last label: the count is exact by
        then."""
        need, cap, met = None, 0, 0
        for prefix in rows:
            ids = self.source.ids(prefix)
            for src in dict.fromkeys(ids):
                if src not in self._seen:
                    idx = prefix + (ids.index(src),)
                    self._seen[src] = (self.target.id_of(idx), idx)
                    met += 1
            if need is None and met >= cap:
                cap = 2 * max(met, len(ids))
                found = count_orbits_g(self.source.g, k, cap=cap)
                need = found if found <= cap else None
            if met == need:
                return

    def _touching(self, new: int):
        """Index tuples over 0..new that contain new, in lexicographic order."""
        n = new + 1
        for k in range(1, self.arity + 1):
            for prefix in itertools.product(range(n), repeat=k - 1):
                if new in prefix:
                    for last in range(n):
                        yield prefix + (last,)
                else:
                    yield prefix + (new,)

    def push(self, image) -> bool:
        """Incremental mode: give the next position its image; False, with
        nothing added, when a tuple containing it conflicts.  A failed push
        leaves in conflict the index tuple that conflicted and the first one
        on record for its source label."""
        new = len(self.images)
        if new == len(self._sources):
            source_id = self.source.id_of
            self._sources.append([(idx, source_id(idx)) for idx in self._touching(new)])
        self.target.append(image)
        added: list = []
        self._pushed.append(added)
        image_id = self.target.id_of
        for idx, src in self._sources[new]:
            img = image_id(idx)
            img0, idx0 = self._known(idx, src, img, added)
            if img0 != img:
                self.conflict = (idx, idx0)
                self.pop()
                return False
        return True

    def pop(self) -> None:
        """Take back the last pushed image."""
        for src in self._pushed.pop():
            del self._seen[src]
        self.target.pop()

    def _entry(self, src: int) -> tuple:
        img, t = self._seen[src]
        return len(t), self.source.labels[src], self.target.labels[img]

    def recorded(self) -> list:
        """(k, source label, image label) of each source label that the
        last push met first, in the order it met them."""
        return [self._entry(src) for src in self._pushed[-1]]

    def behavior(self) -> BehaviorTable:
        return BehaviorTable(self.source.g, self.target.g, self.arity,
                             [self._entry(src) for src in self._seen])


def check_fit(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation) -> None:
    """PresentationError unless f takes g's points and gives single points of
    h's structure.  Structures compare by type and name, so two instances of
    one limit fit."""
    for verb, limit, m, pres in (("takes", f.source, f.m, g), ("gives", f.target, 1, h)):
        if pres.m != m:
            raise PresentationError(f"oracle {verb} {m}-column points; "
                                    f"{pres!r} acts on {pres.m}-column points")
        if type(limit) is not type(pres.limit) or limit.name != pres.limit.name:
            raise PresentationError(f"oracle {verb} points of {limit.name}; "
                                    f"{pres!r} acts on {pres.limit.name}")


def check_canonical(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
                    horizon: int, arity: int, points=None) -> CanonicityVerdict:
    """Scan all tuples of arity <= arity over the first horizon domain points
    (or an explicit point list, each a point of g's elements); return the
    lexicographically first pair of same-source-label tuples with different
    image labels, else a certificate carrying the observed behavior table."""
    return _scanned(f, g, h, horizon, arity, points)[0]


def _scanned(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
             horizon: int, arity: int, points=None) -> tuple:
    """(check_canonical's verdict, the BehaviorScan that reached it)."""
    check_fit(f, g, h)
    _check_arity(arity)
    if points is None:
        if horizon < 1:
            raise ValueError("horizon must be positive")
        points = [point(g, i) for i in range(horizon)]
    else:
        for p in points:
            _check_point(p, g.m, g.limit, "point")
    scan = BehaviorScan(g, h, arity, points)
    found = scan.run(f)
    if found is None:
        found = CanonicalUpTo(len(scan.points), arity, scan.behavior())
    return found, scan


# ---------------------------------------------------------------------------
# local equality and towers


def local_equal(f: FunctionOracle, g_fn: FunctionOracle, fragment,
                h: GroupPresentation) -> bool:
    """True when the image tuples of the fragment have equal labels, i.e. the
    restrictions agree after composing with group elements.  The fragment's
    points may come in any order: permuting them permutes both images alike."""
    t = tuple(fragment)
    if not t:
        return True
    return orbit_label(h, apply_tuple(f, t)) == orbit_label(h, apply_tuple(g_fn, t))


@dataclass(frozen=True)
class LocalFailure:
    """Local equality failed for pair index i on the given fragment."""

    index: int
    fragment: tuple

    def __bool__(self):
        return False


@dataclass(frozen=True)
class TowerWitness:
    """Depth-d coherent family of joint labels for aligned image tuples.

    Level l carries one label for the concatenation, over all pairs, of the
    f-image and g-image tuples of the first l domain points.  Existence at
    every level is exactly local equality of each pair; the joint label makes
    the shared left-composition explicit and restricts level to level.
    """

    pair_count: int
    depth: int
    levels: tuple

    def check(self, pairs, h: GroupPresentation) -> bool:
        """Independent re-check: level restriction coherence plus block
        label equality at every level."""
        for level in range(1, self.depth + 1):
            label = self.levels[level - 1]
            if level > 1:
                prev = self.levels[level - 2]
                sigma = []
                for i in range(self.pair_count):
                    base = 2 * i * level
                    sigma.extend(range(base, base + level - 1))
                    sigma.extend(range(base + level, base + 2 * level - 1))
                if reindex_label(h, label, tuple(sigma)) != prev:
                    return False
            for i in range(self.pair_count):
                base = 2 * i * level
                f_block = tuple(range(base, base + level))
                g_block = tuple(range(base + level, base + 2 * level))
                if reindex_label(h, label, f_block) != reindex_label(h, label, g_block):
                    return False
        return True


def tower_witness(pairs, h: GroupPresentation, depth: int):
    """Levelwise construction of the coherent witness for lifted equality.

    For each level the admissible joint labels are the finitely many labels
    consistent with the blocks; the one realized by the aligned images either
    exists (when local equality holds for every pair) or the construction
    stops with the first failing pair and fragment.
    """
    pairs = list(pairs)
    sources = [aut_power(f_i.source, f_i.m) for f_i, _ in pairs]
    images = PointLabels(h)

    def place(i, p):
        for fn in pairs[i]:
            images.append(fn(p))
        return len(images.points) - 2, len(images.points) - 1

    chain = [[point(src, j) for src in sources] for j in range(depth)]
    return _tower(images, len(pairs), chain, place)


def _equal_labels(images: PointLabels, s: tuple, t: tuple) -> bool:
    """Whether the tuples at the indices s and t of images have one label."""
    return images.id_of(s) == images.id_of(t)


def _tower(images: PointLabels, pair_count: int, chain, place):
    """tower_witness over a chain of points: chain[j] holds each pair's j-th
    point, and place(i, p) the indices in images of pair i's f- and g-image
    of p.  Level l reads chain[:l] only: each pair's two image tuples must
    have one id, and the level is the label of their joint tuple."""
    spots = [((), ())] * pair_count
    levels = []
    for row in chain:
        joint: tuple = ()
        for i, (fs, gs) in enumerate(spots):
            a, b = place(i, row[i])
            fs, gs = spots[i] = fs + (a,), gs + (b,)
            if not _equal_labels(images, fs, gs):
                return LocalFailure(i, tuple(r[i] for r in chain[:len(fs)]))
            joint += fs + gs
        levels.append(images.labels[images.id_of(joint)])
    return TowerWitness(pair_count, len(chain), tuple(levels))


# ---------------------------------------------------------------------------
# the three-way harness


@dataclass(frozen=True)
class SeedResult:
    seed: tuple
    local_pass: bool
    local_failure: tuple | None
    tower_pass: bool
    tower_failure: tuple | None


@dataclass(frozen=True)
class HarnessReport:
    verdict: CanonicityVerdict
    seed_results: tuple[SeedResult, ...]
    agreement: bool
    discrepancy: str | None


def _same_label_seeds(labels: PointLabels, arity: int, cap: int):
    """Ordered pairs of distinct same-label tuples over the points of labels,
    in lexicographic index order, capped deterministically."""
    seeds = []
    for k in range(1, arity + 1):
        by_label: dict = {}
        for idx in itertools.product(range(len(labels.points)), repeat=k):
            t = tuple(labels.points[i] for i in idx)
            by_label.setdefault(labels.id_of(idx), []).append(t)
        for src in sorted(by_label, key=lambda i: label_key(labels.labels[i])):
            for (i, s), (j, t) in itertools.product(enumerate(by_label[src]), repeat=2):
                if i != j:
                    seeds.append((s, t))
                    if len(seeds) >= cap:
                        return seeds
    return seeds


def proposition_harness(f: FunctionOracle, g: GroupPresentation,
                        h: GroupPresentation, horizon: int, arity: int,
                        seeds=None) -> HarnessReport:
    """Compare the three finite-scale formulations of canonicity.

    (1) the tuple-pair scan of check_canonical; (2) for automorphism germs
    built from same-label tuple pairs, local equality of f after the germ and
    f itself on the initial segments inside the horizon and on the seed's own
    point set; (3) a coherent tower witness for the same pair of functions.
    Each seed builds one tower over the clip, extended over its points when
    their set fails.  Both checks compare ids in the scan's target labels,
    so f is read once per point, only on the pool and the seeds' points.
    The report records agreement or the first discrepancy between the checks.
    """
    if not isinstance(g, AutLimit):
        raise PresentationError("the harness samples germs of aut(limit) sources")
    verdict, scan = _scanned(f, g, h, horizon, arity)
    # The seeds compare whole fragments, whose h-labels only tuples of least points fix.
    least = max([2] + [s.arity for s in h.limit.age.signature.symbols])
    if arity < least:
        raise ValueError(f"the harness needs arity at least {least} on target {h!r}")
    if seeds is None:
        seeds = _same_label_seeds(scan.source, arity, _SEED_CAP)
        if isinstance(verdict, Counterexample):
            seeds = list(seeds) + [(verdict.witness_s, verdict.witness_t)]
    limit = g.limit
    pool = tuple(scan.points)
    # An image is its index in the scan's target labels: the scan's images
    # of the pool, then the image of any other point, appended on first need.
    images = scan.target
    index = dict(zip(pool, range(len(images.points))))

    def at(x) -> int:
        if x not in index:
            images.append(f(x))
            index[x] = len(images.points) - 1
        return index[x]

    results = []
    for s, t in seeds:
        germ = automorphism_extending(g, tuple(zip(s, t)))
        # The clip: the initial segments whose germ images stay inside the
        # horizon (a new point takes its first admissible image in the pool).
        clip_depth = 0
        for x in pool:
            y = germ.extend(x, pool)
            if y is None or limit.element_index(y) >= horizon:
                break
            clip_depth += 1
        # The germ is read only where the clip and the seed committed it.
        place = lambda i, x: (at(germ.mapping[x]), at(x))
        # The seed's own point set, whose images are the other seed tuple.
        seed_set = tuple(dict.fromkeys(s))
        seed_pass = _equal_labels(images, tuple(at(germ.mapping[x]) for x in seed_set),
                                  tuple(map(at, seed_set)))
        # Tower level l exists exactly when chain[:l] is locally equal.  A
        # failing seed set fails every level that covers it, so its other
        # points, in enumeration order, end the chain.
        chain = pool[:clip_depth]
        if not seed_pass:
            chain += tuple(sorted(set(seed_set).difference(chain), key=limit.element_index))
        outcome = _tower(images, 1, [(x,) for x in chain], place)
        tower_pass = isinstance(outcome, TowerWitness)
        tower_failure = None if tower_pass else outcome.fragment
        if not tower_pass and len(tower_failure) <= clip_depth:
            local_failure = tower_failure
        else:
            local_failure = None if seed_pass else seed_set
        results.append(SeedResult((s, t), local_failure is None, local_failure,
                                  tower_pass, tower_failure))

    any_local_fail = any(not r.local_pass for r in results)
    any_tower_fail = any(not r.tower_pass for r in results)
    discrepancy = None
    if bool(verdict) and (any_local_fail or any_tower_fail):
        discrepancy = "certificate passed but a germ check failed"
    if not bool(verdict) and not any_local_fail:
        discrepancy = "refuted but every sampled germ passed the local check"
    # Reached only through a replaced check: a seed's tower covers its clip,
    # and its seed set when that fails, so it fails exactly when local does.
    if any_local_fail != any_tower_fail:
        discrepancy = "local and tower checks disagree"
    return HarnessReport(verdict, tuple(results), discrepancy is None, discrepancy)
