"""Canonicity checking at finite horizons.

A function is canonical when same-orbit tuples have same-orbit images.  At a
finite horizon this is checked over all tuples of bounded arity drawn from an
initial segment of the domain: a refutation (two same-label tuples with
different image labels) is conclusive, a pass is a certificate up to the
horizon only.  BehaviorScan is the one tuple scan behind every such check:
check_canonical runs it in full, and the embedding search in canonize, the
realizability search in behaviors and the harness seeds run it point by point.
The module also computes induced behavior tables, the local equality relation
modulo a group, coherent tower witnesses for lifted equalities, and a harness
comparing the three equivalent formulations of canonicity at finite scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .behaviors import BehaviorTable
from .errors import DomainGap, NotCanonical, PresentationError
from .fraisse import DloLimit, LimitStructure, _check_arity
from .groups import (
    AutLimit,
    GroupPresentation,
    PartialAutomorphism,
    automorphism_extending,
    domain_limit,
    label_key,
    orbit_label,
    point,
    reindex_label,
)

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

    def defined_at(self, p) -> bool:
        return True

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
        from .rationals import format_rational

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
        from .rationals import format_rational

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
        from .rationals import format_rational

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


class TableOracle(FunctionOracle):
    """Finite function table; probes outside the table raise DomainGap."""

    def __init__(self, source: LimitStructure, target: LimitStructure, mapping, m: int = 1):
        super().__init__(source, target)
        self.m = m
        self.mapping = dict(mapping)

    def __call__(self, p):
        try:
            return self.mapping[p]
        except KeyError:
            raise DomainGap(f"oracle undefined at {p}") from None

    def defined_at(self, p) -> bool:
        return p in self.mapping

    def spec_str(self):
        return f"table[{len(self.mapping)}]"


class AutomorphismOracle(FunctionOracle):
    """A partial automorphism germ used as a total map (extending on demand)."""

    def __init__(self, germ: PartialAutomorphism):
        super().__init__(germ.limit, germ.limit)
        self.germ = germ

    def __call__(self, p):
        return self.germ.extend(p)

    def spec_str(self):
        return f"germ[{len(self.germ.pairs)}]"


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
        super().__init__(inner.source, outer.target)
        self.m = inner.m
        self.outer = outer
        self.inner = inner

    def __call__(self, p):
        return self.outer(self.inner(p))

    def defined_at(self, p) -> bool:
        return self.inner.defined_at(p) and self.outer.defined_at(self.inner(p))

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
        if not 0 <= coordinate < m:
            raise ValueError(f"projection coordinate {coordinate + 1} outside 1..{m}")
        super().__init__(limit, limit)
        self.m = m
        self.coordinate = coordinate

    def __call__(self, p):
        return p[self.coordinate]

    def spec_str(self):
        return f"proj:{self.coordinate + 1}"


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
    """The tuple scan behind every canonicity check.

    Each visited tuple t of arity k <= arity over the scanned points has its
    source label under g compared with the label of its image tuple under h:
    against the expected table's entry when one is given, else against the
    first image label visited for the same (k, source label).

    Full mode (run) visits every tuple in (arity, lexicographic index) order,
    so the first conflict is the first counterexample, and calls the oracle
    on a point only when the scan first reaches it.  Incremental mode
    (push/pop) visits only the tuples that contain the newest point; a push
    that conflicts undoes its own entries and leaves the scan as it was.
    """

    def __init__(self, g: GroupPresentation, h: GroupPresentation | None, arity: int,
                 expected: BehaviorTable | None = None):
        self.g = g
        self.h = h
        self.arity = arity
        self.expected = expected
        self.points: list = []
        self.images: list = []
        self._seen: dict = {}        # (k, source label) -> (image label, first tuple)
        self._pushed: list = []      # keys each push added, for pop

    def labeled(self, points):
        """(index tuple, tuple, source label) for every tuple over the points,
        in (arity, lexicographic index) order."""
        self.points = list(points)
        for k in range(1, self.arity + 1):
            for idx in itertools.product(range(len(self.points)), repeat=k):
                t = tuple(self.points[i] for i in idx)
                yield idx, t, orbit_label(self.g, t)

    def _known(self, t, src, img, added: list) -> tuple:
        """(image label, witness) on record for t's source label; an expected
        table has no witness.  A label met first here records (img, t)."""
        k = len(t)
        if self.expected is not None:
            return self.expected.get(k, src), None
        key = (k, src)
        known = self._seen.get(key)
        if known is None:
            known = self._seen[key] = (img, t)
            added.append(key)
        return known

    def run(self, points, f: FunctionOracle) -> Counterexample | None:
        """Full mode: the first tuple whose image label conflicts, or None."""
        images: dict[int, object] = {}

        def image(i: int):
            if i not in images:
                p = self.points[i]
                if not f.defined_at(p):
                    raise DomainGap(f"oracle undefined at {p}")
                images[i] = f(p)
            return images[i]

        added: list = []
        for idx, t, src in self.labeled(points):
            img = orbit_label(self.h, tuple(image(i) for i in idx))
            img0, t0 = self._known(t, src, img, added)
            if img0 != img:
                return Counterexample(len(t), t0, t, src, img0, img)
        return None

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

    def push(self, p, image) -> bool:
        """Incremental mode: add a point and its image; False, with nothing
        added, when a tuple containing it conflicts."""
        self.points.append(p)
        self.images.append(image)
        added: list = []
        self._pushed.append(added)
        for idx in self._touching(len(self.points) - 1):
            t = tuple(self.points[i] for i in idx)
            src = orbit_label(self.g, t)
            img = orbit_label(self.h, tuple(self.images[i] for i in idx))
            if self._known(t, src, img, added)[0] != img:
                self.pop()
                return False
        return True

    def pop(self) -> None:
        """Undo the last push."""
        for key in self._pushed.pop():
            del self._seen[key]
        self.points.pop()
        self.images.pop()

    def behavior(self) -> BehaviorTable:
        entries = [(k, src, img) for (k, src), (img, _) in self._seen.items()]
        return BehaviorTable(self.g, self.h, self.arity, entries)


def check_canonical(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
                    horizon: int, arity: int, points=None) -> CanonicityVerdict:
    """Scan all tuples of arity <= arity over the first horizon domain points
    (or an explicit point list); return the lexicographically first pair of
    same-source-label tuples with different image labels, else a certificate
    carrying the observed behavior table."""
    if points is None:
        _check_arity(arity)
        if horizon < 1:
            raise ValueError("horizon must be positive")
        points = [point(g, i) for i in range(horizon)]
    scan = BehaviorScan(g, h, arity)
    found = scan.run(points, f)
    if found is not None:
        return found
    return CanonicalUpTo(len(scan.points), arity, scan.behavior())


def behavior_of(f: FunctionOracle, g: GroupPresentation, h: GroupPresentation,
                horizon: int, arity: int, points=None) -> BehaviorTable:
    """Induced behavior table on labels realized within the horizon."""
    verdict = check_canonical(f, g, h, horizon, arity, points=points)
    if isinstance(verdict, Counterexample):
        raise NotCanonical(verdict)
    return verdict.behavior


# ---------------------------------------------------------------------------
# local equality and towers


def _sorted_fragment(limit: LimitStructure, fragment) -> tuple:
    return tuple(sorted(fragment, key=limit.element_index))


def local_equal(f: FunctionOracle, g_fn: FunctionOracle, fragment,
                h: GroupPresentation) -> bool:
    """True when the image tuples of the fragment have equal labels, i.e. the
    restrictions agree after composing with group elements."""
    t = _sorted_fragment(f.source, fragment)
    if not t:
        return True
    for p in t:
        if not f.defined_at(p) or not g_fn.defined_at(p):
            raise DomainGap(f"oracle undefined on fragment point {p}")
    return orbit_label(h, apply_tuple(f, t)) == orbit_label(h, apply_tuple(g_fn, t))


@dataclass(frozen=True)
class TypeTower:
    """Labels of image tuples over nested fragments; a point of the compact
    quotient of functions modulo local equality, at finite depth."""

    sizes: tuple[int, ...]
    labels: tuple

    def check_coherence(self, h: GroupPresentation) -> bool:
        for (n1, l1), (n2, l2) in zip(zip(self.sizes, self.labels),
                                      zip(self.sizes[1:], self.labels[1:])):
            if reindex_label(h, l2, tuple(range(n1))) != l1:
                return False
        return True


def type_tower(f: FunctionOracle, h: GroupPresentation, sizes) -> TypeTower:
    sizes = tuple(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
        raise ValueError("sizes must be strictly increasing and nonempty")
    labels = []
    for n in sizes:
        pts = [point_of_oracle(f, i) for i in range(n)]
        labels.append(orbit_label(h, apply_tuple(f, tuple(pts))))
    return TypeTower(sizes, tuple(labels))


def point_of_oracle(f: FunctionOracle, i: int):
    """i-th domain point of an oracle (column tuples for m-ary oracles)."""
    if f.m == 1:
        return f.source.element(i)
    from .groups import PowerGroup

    return point(PowerGroup(AutLimit(f.source), f.m), i)


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
    levels = []
    for level in range(1, depth + 1):
        joint: list = []
        for i, (f_i, g_i) in enumerate(pairs):
            fragment = tuple(point_of_oracle(f_i, j) for j in range(level))
            if not local_equal(f_i, g_i, fragment, h):
                return LocalFailure(i, fragment)
            joint.extend(apply_tuple(f_i, fragment))
            joint.extend(apply_tuple(g_i, fragment))
        levels.append(orbit_label(h, tuple(joint)))
    return TowerWitness(len(pairs), depth, tuple(levels))


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

    def all_pass(self) -> bool:
        return bool(self.verdict) and all(
            r.local_pass and r.tower_pass for r in self.seed_results
        )


def _same_label_seeds(g: GroupPresentation, horizon: int, arity: int, cap: int):
    """Ordered pairs of distinct same-label tuples over the first horizon
    elements, in lexicographic index order, capped deterministically."""
    limit = domain_limit(g)
    by_label: dict = {}
    scan = BehaviorScan(g, None, arity)
    for idx, t, src in scan.labeled(limit.element(i) for i in range(horizon)):
        by_label.setdefault((len(t), src), []).append((idx, t))
    seeds = []
    for _, bucket in sorted(by_label.items(), key=lambda kv: (kv[0][0], label_key(kv[0][1]))):
        for (idx_s, s), (idx_t, t) in itertools.product(bucket, repeat=2):
            if idx_s != idx_t:
                seeds.append((s, t))
                if len(seeds) >= cap:
                    return seeds
    return seeds


def proposition_harness(f: FunctionOracle, g: GroupPresentation,
                        h: GroupPresentation, horizon: int, arity: int,
                        seeds=None, seed_cap: int = 64) -> HarnessReport:
    """Compare the three finite-scale formulations of canonicity.

    (1) the tuple-pair scan of check_canonical; (2) for automorphism germs
    built from same-label tuple pairs, local equality of f after the germ and
    f itself on fragments inside the horizon; (3) a coherent tower witness for
    the same pair of functions.  The report records agreement or the first
    discrepancy between the implemented checks.
    """
    if not isinstance(g, AutLimit):
        raise PresentationError("the harness samples germs of aut(limit) sources")
    verdict = check_canonical(f, g, h, horizon, arity)
    if seeds is None:
        seeds = _same_label_seeds(g, horizon, arity, seed_cap)
        if isinstance(verdict, Counterexample):
            seeds = list(seeds) + [(verdict.witness_s, verdict.witness_t)]
    limit = g.limit
    results = []
    for s, t in seeds:
        germ = automorphism_extending(g, tuple(zip(s, t)))
        f_alpha = ComposeOracle(f, AutomorphismOracle(germ))
        # Fragments: initial segments whose germ images stay inside the
        # horizon, then the seed's own domain set (whose images are the other
        # seed tuple, hence always inside the horizon).
        fragments = []
        for n in range(1, horizon + 1):
            prefix = tuple(limit.element(i) for i in range(n))
            if any(limit.element_index(germ.extend(x)) >= horizon for x in prefix):
                break
            fragments.append(prefix)
        clip_depth = len(fragments)
        seed_set = tuple(dict.fromkeys(s))
        fragments.append(seed_set)
        local_pass, local_failure = True, None
        for fragment in fragments:
            if not local_equal(f_alpha, f, fragment, h):
                local_pass, local_failure = False, fragment
                break
        # Tower depth: to the first failing prefix when the local check
        # failed there; to a prefix covering the seed set when only the seed
        # fragment failed; otherwise the clipped depth.
        if local_pass:
            depth = clip_depth
        elif local_failure != seed_set or local_failure in fragments[:-1]:
            depth = len(local_failure)
        else:
            depth = max(limit.element_index(x) for x in seed_set) + 1
        outcome = tower_witness([(f_alpha, f)], h, depth)
        tower_pass = isinstance(outcome, TowerWitness)
        tower_failure = None if tower_pass else outcome.fragment
        results.append(SeedResult((s, t), local_pass, local_failure, tower_pass, tower_failure))

    any_local_fail = any(not r.local_pass for r in results)
    any_tower_fail = any(not r.tower_pass for r in results)
    agreement = True
    discrepancy = None
    if bool(verdict) and (any_local_fail or any_tower_fail):
        agreement = False
        discrepancy = "certificate passed but a germ check failed"
    if not bool(verdict) and not any_local_fail:
        agreement = False
        discrepancy = "refuted but every sampled germ passed the local check"
    if any_local_fail != any_tower_fail:
        agreement = False
        discrepancy = "local and tower checks disagree"
    return HarnessReport(verdict, tuple(results), agreement, discrepancy)
