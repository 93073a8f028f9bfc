"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package paths under test: weak orders are
counted as raw binary relations, partitions by canonicalizing assignment
vectors, and isomorphisms by exhaustive backtracking over index maps.
PredicateAge only fills in the age interface for a membership test a
test writes itself.  Generic-limit growth is replayed from its definition:
the e-th extension of each prefix re-enumerated by a recursive table search,
and witnesses found by comparing induced substructures; there, and in the
forbidden-substructure age, `substructure` and `is_isomorphic` are taken as
the definitions of restriction and isomorphism.  The dense sets Q and
Q minus 0 are checked by sampling their enumerations, and a back-and-forth
partner is found by probing the enumeration for the first member inside the
interval, its position being the probe's index, and a germ of (Q;<) keeps
its pairs in two flat sorted columns, found by plain bisect over the exact
values, against which a pair index's blocks are checked.
verify_amalgamation is replayed by its pairwise loop: for each
ordered pair of distinct extensions b1, b2 of a member, b1's extensions are
searched afresh until one restricts to b2, and grown members are deduped.
Type records are enumerated by the per-pattern loop: for each partition of
the positions, every member on its blocks (by the recursive table search)
is pulled back to the positions by reading each atom over the positions
through the pattern.
A tuple's type record is read atom by atom through eval_relation, with no
pair codes.  Orbit labels are read as the presentation's recursive structure:
a power splits a tuple into its columns and asks its base, a stabilizer
extends a tuple by its constants and asks its base, and the n-th point of a
power is found by listing the diagonals of N^m.
The behavior-table slot search is replayed, on the package's PointLabels
ids, by its loop before the links narrowed the candidates: every target id of a slot's arity is tried against
every generator link, one node per slot entered.
The canonicity scan is replayed in full: every tuple up to the arity has
its image label, from the recursive orbit labels, compared with the first
one met for its source label.  Canonicity on aut(Q;<), its stabilizers and
powers is also decided from the definition alone (`canonical`): comparisons
give the 1-types of points and the 2-types of pairs, which fix every orbit
on a binary signature, with no qf_type, PointLabels or BehaviorScan.
The three-way harness is replayed with its first fragment clip: its seeds
are the pairs of the definitional buckets of the recursive orbit labels,
every prefix is re-extended, a new point taking its least admissible image
in the pool; local equality reads each fragment sorted by element index
through the recursive orbit labels, and the tower's first failing level is
the first failing prefix of its chain; its verdict is the full scan's.  No
interner ids are read there.  GermOracle reads a germ as a map, extending it
over an explicit enumeration prefix.
"""

import bisect
import itertools
import math
from fractions import Fraction

from canonfn import fraisse
from canonfn.fraisse import (
    _FULL_ENUM_MAX,
    AgeOracle,
    AmalgamationReport,
    DemandLogEntry,
    FiniteStructure,
    TupleTypeRecord,
    is_isomorphic,
)
from canonfn.behaviors import BehaviorTable, _generators
from canonfn.canonicity import (
    _SEED_CAP,
    CanonicalUpTo,
    ComposeOracle,
    Counterexample,
    FunctionOracle,
    HarnessReport,
    SeedResult,
    TableOracle,
    apply_tuple,
)
from canonfn.errors import BudgetExhausted, DomainGap
from canonfn.groups import AutLimit, PointLabels, PowerGroup, automorphism_extending
from canonfn.symbolic import ComputableDenseSet


def count_weak_orders(k: int) -> int:
    """Total preorders on k labeled points, counted over all binary relations."""
    points = range(k)
    pairs = [(i, j) for i in points for j in points]
    count = 0
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((i, i) not in rel for i in points):
            continue
        if any((i, j) not in rel and (j, i) not in rel for i in points for j in points):
            continue
        if any(
            (i, j) in rel and (j, l) in rel and (i, l) not in rel
            for i in points for j in points for l in points
        ):
            continue
        count += 1
    return count


def count_set_partitions(k: int) -> int:
    """Partitions of a k-set, counted by canonicalizing block assignments."""
    seen = set()
    for assignment in itertools.product(range(k), repeat=k):
        ids = {}
        canon = []
        for a in assignment:
            if a not in ids:
                ids[a] = len(ids)
            canon.append(ids[a])
        seen.add(tuple(canon))
    return len(seen)


def is_partial_isomorphism(limit, s, t) -> bool:
    """Check directly that mapping s to t pointwise preserves equality and
    every relation of the limit, both ways."""
    for a, b in zip(s, t):
        for a2, b2 in zip(s, t):
            if (a == a2) != (b == b2):
                return False
    for sym in limit.age.signature.symbols:
        for idx in itertools.product(range(len(s)), repeat=sym.arity):
            left = limit.eval_relation(sym.name, tuple(s[i] for i in idx))
            right = limit.eval_relation(sym.name, tuple(t[i] for i in idx))
            if left != right:
                return False
    return True


def find_order_isomorphism(struct_a, struct_b):
    """Backtracking search for an order isomorphism between two finite linear
    orders given as FiniteStructure values; returns the map or None."""
    if struct_a.size != struct_b.size:
        return None
    n = struct_a.size
    mapping = [None] * n
    used = [False] * n

    def compatible(i, j):
        for i2 in range(n):
            if mapping[i2] is None or i2 == i:
                continue
            if struct_a.holds("<", (i, i2)) != struct_b.holds("<", (j, mapping[i2])):
                return False
            if struct_a.holds("<", (i2, i)) != struct_b.holds("<", (mapping[i2], j)):
                return False
        return True

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and compatible(i, j):
                mapping[i] = j
                used[j] = True
                if rec(i + 1):
                    return True
                mapping[i] = None
                used[j] = False
        return False

    return tuple(mapping) if rec(0) else None


def has_triangle(struct) -> bool:
    """Brute force over all 3-subsets of a graph structure."""
    for a, b, c in itertools.combinations(range(struct.size), 3):
        if (
            struct.holds("edge", (a, b)) and struct.holds("edge", (b, c))
            and struct.holds("edge", (a, c))
        ):
            return True
    return False


def mono_triple_exists(colors: dict) -> bool:
    """Direct scan over all triples of the six-point pair coloring."""
    points = sorted({v for pair in colors for v in pair})
    for a, b, c in itertools.combinations(points, 3):
        if colors[(a, b)] == colors[(b, c)] == colors[(a, c)]:
            return True
    return False


class PredicateAge(AgeOracle):
    """The age of the structures a predicate accepts: trusted, no pruning."""

    def __init__(self, signature, test, name="predicate"):
        self.signature = signature
        self.name = name
        self._test = test

    def contains(self, s) -> bool:
        return bool(self._test(s))


def forbidden_age(signature, forbidden, name="forbidden-reference"):
    """The structures with no induced substructure isomorphic to a listed
    one, tested on every combination's induced substructure."""

    def test(s):
        return not any(is_isomorphic(s.substructure(points), f)
                       for f in forbidden
                       for points in itertools.combinations(range(s.size), f.size))

    return PredicateAge(signature, test, name=name)


def table_dfs(age, size, present, candidates):
    """Recursive lexicographic table search: present plus each subset of
    the candidates, absent before present, every other atom absent.  step_ok
    sees the undecided candidates as pending; every leaf is checked by
    contains, whether or not the age declares step_complete."""
    present = set(present)
    pending = set(candidates)

    def rec(i):
        if i == len(candidates):
            st = FiniteStructure(age.signature, size, frozenset(present))
            if age.contains(st):
                yield st
            return
        atom = candidates[i]
        pending.discard(atom)
        if age.step_ok(size, present, pending, atom, False):
            yield from rec(i + 1)
        present.add(atom)
        if age.step_ok(size, present, pending, atom, True):
            yield from rec(i + 1)
        present.discard(atom)
        pending.add(atom)

    yield from rec(0)


def _atoms_touching(signature, point, size):
    return sorted((sym.name, t) for sym in signature.symbols
                  for t in itertools.product(range(size), repeat=sym.arity) if point in t)


def nth_extension(age, base, n):
    """The n-th one-point extension of base (new point last) in the
    lexicographic order, or None when there are at most n."""
    size = base.size + 1
    stream = table_dfs(age, size, base.atoms, _atoms_touching(age.signature, base.size, size))
    return next(itertools.islice(stream, n, None), None)


def reference_growth(age, size):
    """The generic-limit fragment on size points and its demand log, grown by
    the definition: demands (m, e) in diagonal order, the e-th extension of
    the prefix on m points, the least z >= m whose induced substructure with
    the prefix is that extension, else a new point completed by the least
    admissible table of its atoms to the points outside the prefix."""
    whole = nth_extension(age, FiniteStructure(age.signature, 0, frozenset()), 0)
    log = []
    d = 1
    while whole.size < size:
        for m in range(1, d + 1):
            if whole.size >= size:
                break
            e = d - m
            points = tuple(range(m))
            ext = nth_extension(age, whole.substructure(points), e)
            if ext is None:
                continue
            witness = next((z for z in range(m, whole.size)
                            if whole.substructure(points + (z,)) == ext), None)
            if witness is not None:
                log.append(DemandLogEntry(m, e, witness, False))
                continue
            z = whole.size
            seeded = set(whole.atoms)
            seeded.update((name, tuple(z if i == m else i for i in t))
                          for name, t in ext.atoms if m in t)
            candidates = [(name, t) for name, t in _atoms_touching(age.signature, z, z + 1)
                          if any(m <= i < z for i in t)]
            whole = next(table_dfs(age, z + 1, seeded, candidates))
            log.append(DemandLogEntry(m, e, z, True))
        d += 1
    return whole, tuple(log)


def _extensions(age, base):
    size = base.size + 1
    return table_dfs(age, size, base.atoms, _atoms_touching(age.signature, base.size, size))


def reference_amalgamation(age, bound):
    """The AmalgamationReport of verify_amalgamation, by its pairwise loop:
    members on up to _FULL_ENUM_MAX points enumerated whole, larger ones
    grown from the members one point smaller with duplicates dropped; then
    hereditariness, then for each base and each ordered pair b1 != b2 of its
    extensions a fresh search of b1's extensions for one that restricts to
    b2 on the base and its own new point."""
    empty = FiniteStructure(age.signature, 0, frozenset())
    members = {0: [empty] if age.contains(empty) else []}
    note = ""
    for s in range(1, bound + 1):
        if s <= _FULL_ENUM_MAX:
            atoms = sorted((sym.name, t) for sym in age.signature.symbols
                           for t in itertools.product(range(s), repeat=sym.arity))
            members[s] = list(table_dfs(age, s, (), atoms))
        else:
            grown = (ext for base in members[s - 1] for ext in _extensions(age, base))
            members[s] = list(dict.fromkeys(grown))
            note = f"; sizes above {_FULL_ENUM_MAX} grown from smaller members"
    for s in range(2, bound + 1):
        for st in members[s]:
            for drop in range(s):
                sub = st.substructure(tuple(i for i in range(s) if i != drop))
                if not age.contains(sub):
                    return AmalgamationReport(
                        False, bound, "hereditariness",
                        f"member of size {s} has a non-member induced substructure "
                        f"(dropped point {drop})", (st, sub))
    for s in range(bound - 1):
        for base in members[s]:
            exts = list(_extensions(age, base))
            for b1, b2 in itertools.product(exts, repeat=2):
                if b1 != b2 and not any(c.substructure(tuple(range(s)) + (s + 1,)) == b2
                                        for c in _extensions(age, b1)):
                    return AmalgamationReport(
                        False, bound, "amalgamation",
                        f"extensions of a size-{s} member cannot be amalgamated",
                        (base, b1, b2))
    return AmalgamationReport(True, bound, detail=note)


def check_dense(s):
    """Sample density and unboundedness of a dense set: its first 8 members
    are members, one of its first 4,096 lies between any two of them, and
    others lie above and below all of them.  Raises AssertionError."""
    probes = 4096
    members = [s.enumerate_member(i) for i in range(8)]
    for x in members:
        if not s.contains(x):
            raise AssertionError(f"{s.name}: enumerated non-member {x}")
    for a, b in itertools.combinations(sorted(set(members)), 2):
        if not any(a < s.enumerate_member(i) < b for i in range(probes)):
            raise AssertionError(f"{s.name}: no member found in ({a},{b})")
    top, bottom = max(members), min(members)
    if not any(s.enumerate_member(i) > top for i in range(probes)):
        raise AssertionError(f"{s.name}: no member above {top}")
    if not any(s.enumerate_member(i) < bottom for i in range(probes)):
        raise AssertionError(f"{s.name}: no member below {bottom}")


_PROBED: dict = {}    # exclude_zero -> (numerator, denominator) of the first members


class ProbingDenseSet(ComputableDenseSet):
    """The same dense set, whose least member inside an open interval is the
    first one among its first 2^22 members that lies there, given with its
    probe index as its position.  The members probed so far are kept as
    integer pairs, and compared with the bounds by cross-multiplication."""

    def least_in(self, lo, hi):
        a, b = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
        c, d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
        members = _PROBED.setdefault(self.exclude_zero, [])
        for i in range(1 << 22):
            if i == len(members):
                y = self.enumerate_member(i)
                members.append((y.numerator, y.denominator))
            n, m = members[i]
            if n * b > a * m and n * d < c * m:
                return Fraction(n, m), i
        return None, None


def probing(s):
    """s with its partners found by probing the enumeration."""
    return ProbingDenseSet(s.name, s.exclude_zero)


class FlatColumnsGerm:
    """A partial order isomorphism of Q in two flat sorted columns: the
    committed points and, aligned, their images, each found by bisect over
    the values themselves.  mapping holds the pairs in commit order."""

    def __init__(self):
        self.dom, self.rng, self.mapping = [], [], {}

    @staticmethod
    def _gap(keys, values, v):
        i = bisect.bisect_left(keys, v)
        return i, values[i - 1] if i else None, values[i] if i < len(values) else None

    def images(self, x, candidates):
        _, lo, hi = self._gap(self.dom, self.rng, x)
        return [y for y in candidates if (lo is None or lo < y) and (hi is None or y < hi)]

    def constraints(self, x):
        i = bisect.bisect_left(self.dom, x)
        return tuple(self.dom[max(i - 1, 0):i + 1])

    def commit(self, x, y) -> bool:
        """Add (x, y) and say True, or say False when it breaks the order."""
        if x in self.mapping:
            return self.mapping[x] == y
        i, lo, hi = self._gap(self.dom, self.rng, x)
        if not ((lo is None or lo < y) and (hi is None or y < hi)):
            return False
        self.dom.insert(i, x)
        self.rng.insert(i, y)
        self.mapping[x] = y
        return True

    def uncommit(self, x):
        i = bisect.bisect_left(self.dom, x)
        del self.dom[i], self.rng[i], self.mapping[x]

    def place(self, v, choose, inverse=False):
        """(w, True) after pairing v with w = choose(lo, hi), nothing paired
        when w is None; (w, False) when v is paired already with w."""
        keys, values = (self.rng, self.dom) if inverse else (self.dom, self.rng)
        i, lo, hi = self._gap(keys, values, v)
        if i < len(keys) and keys[i] == v:
            return hi, False
        w = choose(lo, hi)
        if w is not None:
            keys.insert(i, v)
            values.insert(i, w)
            x, y = (w, v) if inverse else (v, w)
            self.mapping[x] = y
        return w, True


def _float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def check_pair_index(index, dom, rng):
    """A fraisse._PairIndex holds the sorted points dom and their images
    rng, aligned, in blocks of at most 2 * fraisse._BLOCK, with the blocks'
    float shadows and each block's last shadow in order."""
    for side, column in ((0, list(dom)), (1, list(rng))):
        values, shadows, lasts = index.values[side], index.shadows[side], index.lasts[side]
        assert [v for block in values for v in block] == column
        assert shadows == [[_float(v) for v in block] for block in values]
        assert len(values) == len(lasts) and lasts[-1] == math.inf
        assert lasts[:-1] == [block[-1] for block in shadows[:-1]]
        assert all(values) or len(values) == 1
        assert all(len(block) <= 2 * fraisse._BLOCK for block in values)


# ---------------------------------------------------------------------------
# orbit labels, recursing on the presentation


def _diagonal(m, n):
    """The n-th m-tuple of naturals, by coordinate sum, then lexicographic."""
    total = 0
    while True:
        for combo in itertools.product(range(total + 1), repeat=m):
            if sum(combo) == total:
                if n == 0:
                    return combo
                n -= 1
        total += 1


def point(g, n):
    if isinstance(g, AutLimit):
        return g.limit.element(n)
    if isinstance(g, PowerGroup):
        return tuple(point(g.base, i) for i in _diagonal(g.m, n))
    return point(g.base, n)


def qf_type(limit, elements):
    """The record of a tuple by its definition: the first-occurrence
    pattern of its elements, and every atom over its positions on which
    eval_relation holds, one call per atom."""
    ids = {}
    pattern = tuple(ids.setdefault(e, len(ids)) for e in elements)
    atoms = frozenset((sym.name, t) for sym in limit.age.signature.symbols
                      for t in itertools.product(range(len(elements)), repeat=sym.arity)
                      if limit.eval_relation(sym.name, tuple(elements[i] for i in t)))
    return TupleTypeRecord(limit.age.signature, len(elements), pattern, atoms)


def orbit_label(g, t):
    if isinstance(g, AutLimit):
        return qf_type(g.limit, tuple(t))
    if isinstance(g, PowerGroup):
        return tuple(orbit_label(g.base, tuple(p[i] for p in t)) for i in range(g.m))
    return orbit_label(g.base, tuple(t) + tuple(g.constants))


def _sort_key(label):
    if isinstance(label, TupleTypeRecord):
        return label.sort_key()
    return tuple(part.sort_key() for part in label)


def _label_arity(label):
    return label.arity if isinstance(label, TupleTypeRecord) else _label_arity(label[0])


def reindex_label(g, label, sigma):
    if isinstance(g, AutLimit):
        return label.reindexed(sigma)
    if isinstance(g, PowerGroup):
        return tuple(reindex_label(g.base, part, sigma) for part in label)
    n = len(g.constants)
    k = _label_arity(label) - n
    return reindex_label(g.base, label, tuple(sigma) + tuple(range(k, k + n)))


def reference_enumerate_types(limit, k):
    """enumerate_types by the per-pattern loop: for each partition of the k
    positions (canonicalized assignment vectors), every member on its b
    blocks, each atom over the positions kept when its image under the
    pattern is an atom of the member; sorted by sort_key."""
    age = limit.age
    patterns = set()
    for assignment in itertools.product(range(k), repeat=k):
        ids = {}
        patterns.add(tuple(ids.setdefault(a, len(ids)) for a in assignment))
    out = []
    for pattern in sorted(patterns):
        b = max(pattern) + 1
        atoms = sorted((sym.name, t) for sym in age.signature.symbols
                       for t in itertools.product(range(b), repeat=sym.arity))
        for member in table_dfs(age, b, (), atoms):
            pulled = frozenset((sym.name, u) for sym in age.signature.symbols
                               for u in itertools.product(range(k), repeat=sym.arity)
                               if member.holds(sym.name, tuple(pattern[i] for i in u)))
            out.append(TupleTypeRecord(age.signature, k, pattern, pulled))
    out.sort(key=TupleTypeRecord.sort_key)
    return out


def orbit_labels(g, k):
    if isinstance(g, AutLimit):
        return reference_enumerate_types(g.limit, k)
    if isinstance(g, PowerGroup):
        return list(itertools.product(orbit_labels(g.base, k), repeat=g.m))
    n = len(g.constants)
    anchor = orbit_label(g.base, tuple(g.constants))
    tail = tuple(range(k, k + n))
    return sorted((lbl for lbl in orbit_labels(g.base, k + n)
                   if reindex_label(g.base, lbl, tail) == anchor), key=_sort_key)


def count_orbits_g(g, k):
    if isinstance(g, PowerGroup):
        return count_orbits_g(g.base, k) ** g.m
    return len(orbit_labels(g, k))


def reference_slot_search(source, target, max_arity, budget):
    """enumerate_behaviors by its loop before the links narrowed the
    candidates: each slot (a source id) tries every target id of its arity,
    in id order, against every generator link to an earlier or the same
    slot.  Returns the tables and the number of slots entered; raises
    enumerate_behaviors' BudgetExhausted, with the same text, when the
    search would enter more than budget slots."""
    src, tgt = PointLabels(source), PointLabels(target)
    slots = []    # per source id: (arity, candidate target ids)
    for k in range(1, max_arity + 1):
        first = len(tgt.labels)
        for label in orbit_labels(target, k):
            tgt.id_of_label(label)
        for label in orbit_labels(source, k):
            src.id_of_label(label)
            slots.append((k, range(first, len(tgt.labels))))
    # links[max(s, r)] holds (s, r, sigma): image[r] is image[s] reindexed by sigma.
    links = [[] for _ in slots]
    for s, (k, _) in enumerate(slots):
        for sigma in _generators(k, max_arity):
            r = src.reindex(s, sigma)
            links[max(s, r)].append((s, r, sigma))
    image = [None] * len(slots)
    found = []
    nodes = 0

    def rec(n):
        nonlocal nodes
        if n == len(slots):
            found.append(tuple(image))
            return
        if nodes == budget:
            raise BudgetExhausted(f"slot-search budget of {budget} nodes ran out; "
                                  f"{len(found)} tables found so far")
        nodes += 1
        for a in slots[n][1]:
            image[n] = a
            if all(image[r] == tgt.reindex(image[s], sigma) for s, r, sigma in links[n]):
                rec(n + 1)

    rec(0)
    tables = [BehaviorTable(source, target, max_arity,
                            [(k, label, tgt.labels[a])
                             for (k, _), label, a in zip(slots, src.labels, ids)])
              for ids in found]
    return tables, nodes


def reference_scan(f, g, h, horizon, arity):
    """check_canonical by the full scan: every tuple of arity <= arity over
    the first horizon points, in (arity, lexicographic index) order, is
    compared, whatever the target's signature."""
    points = [point(g, i) for i in range(horizon)]
    images = [f(p) for p in points]
    first = {}    # source label -> (image label, first tuple)
    for k in range(1, arity + 1):
        for idx in itertools.product(range(horizon), repeat=k):
            t = tuple(points[i] for i in idx)
            src = orbit_label(g, t)
            img = orbit_label(h, tuple(images[i] for i in idx))
            img0, t0 = first.setdefault(src, (img, t))
            if img0 != img:
                return Counterexample(k, t0, t, src, img0, img)
    entries = [(len(t), src, img) for src, (img, t) in first.items()]
    return CanonicalUpTo(horizon, arity, BehaviorTable(g, h, arity, entries))


# Canonicity from 1- and 2-types.  A group is described by a tuple:
#   ("dlo",)                 aut(Q;<)
#   ("stab", constants)      stabilizer in aut(Q;<) of the constants
#   ("power", m)             aut(Q;<)^m on m-column points


def cmp(a, b) -> int:
    return (a > b) - (a < b)


def one_type(group, x):
    if group[0] == "stab":
        return tuple(cmp(x, c) for c in group[1])
    return ()


def pair_type(group, x, y):
    kind = group[0]
    if kind == "dlo":
        return cmp(x, y)
    if kind == "stab":
        return one_type(group, x), one_type(group, y), cmp(x, y)
    return tuple(cmp(a, b) for a, b in zip(x, y))


def canonical(source, target, points, values, arity: int) -> bool:
    """Order-pattern canonicity on the points, up to the arity.

    On aut(Q;<) at arity >= 2 this is the familiar rule: the values are
    constant, strictly increasing or strictly decreasing along the points.
    """
    seen: dict = {}
    for x, fx in zip(points, values):
        if seen.setdefault(("1", one_type(source, x)), one_type(target, fx)) != \
                one_type(target, fx):
            return False
    if arity < 2:
        return True
    for (x, fx), (y, fy) in itertools.permutations(zip(points, values), 2):
        key = ("2", pair_type(source, x, y))
        image = pair_type(target, fx, fy)
        if seen.setdefault(key, image) != image:
            return False
    return True


def sorted_local_equal(f, g_fn, fragment, h):
    """local_equal on the fragment sorted by element index (1-column sources)."""
    t = tuple(sorted(fragment, key=f.source.element_index))
    if not t:
        return True
    return orbit_label(h, apply_tuple(f, t)) == orbit_label(h, apply_tuple(g_fn, t))


class GermOracle(FunctionOracle):
    """A partial automorphism germ as a map, extended on demand over an
    explicit enumeration prefix; a point with no admissible image there
    raises DomainGap."""

    def __init__(self, germ, prefix):
        super().__init__(germ.limit, germ.limit)
        self.germ = germ
        self.prefix = list(prefix)

    def __call__(self, p):
        image = self.germ.extend(p, self.prefix)
        if image is None:
            raise DomainGap(f"no image of {p} in the prefix")
        return image


def definitional_seeds(g, horizon, arity, cap):
    """The first cap ordered pairs of distinct same-label tuples over the
    first horizon elements: buckets by the recursive orbit_label, in (arity,
    sort key) order, each bucket's pairs in index order."""
    buckets = {}
    for k in range(1, arity + 1):
        for idx in itertools.product(range(horizon), repeat=k):
            t = tuple(g.limit.element(i) for i in idx)
            buckets.setdefault(orbit_label(g, t), []).append(t)
    pairs = [(s, t)
             for label in sorted(buckets, key=lambda l: (_label_arity(l), _sort_key(l)))
             for s, t in itertools.product(buckets[label], repeat=2) if s != t]
    return pairs[:cap]


def reference_harness(f, g, h, horizon, arity, seeds=None):
    """proposition_harness with the clip that re-extends every prefix, inside
    the pool, and the tower read level by level off its chain; the verdict
    is reference_scan's, so f must be defined on the pool."""
    verdict = reference_scan(f, g, h, horizon, arity)
    # A target's labels are fixed by its sub-tuples of max(2, r) points, r
    # the largest arity of its symbols; a scan of shorter tuples leaves the
    # labels of whole fragments open.
    least = max(2, max((sym.arity for sym in h.limit.age.signature.symbols), default=0))
    if arity < least:
        raise ValueError(f"the harness needs arity at least {least} on target {h!r}")
    if seeds is None:
        seeds = definitional_seeds(g, horizon, arity, _SEED_CAP)
        if isinstance(verdict, Counterexample):
            seeds = list(seeds) + [(verdict.witness_s, verdict.witness_t)]
    limit = g.limit
    pool = tuple(limit.element(i) for i in range(horizon))
    results = []
    for s, t in seeds:
        germ = automorphism_extending(g, tuple(zip(s, t)))
        fragments = []
        for n in range(1, horizon + 1):
            prefix = pool[:n]
            for x in prefix:
                if x not in germ.mapping:
                    y = next(iter(germ.images(x, pool)), None)
                    if y is not None:
                        germ.commit(x, y)
            if any(germ.mapping.get(x) not in pool for x in prefix):
                break
            fragments.append(prefix)
        clip_depth = len(fragments)
        f_alpha = ComposeOracle(f, TableOracle(limit, limit, germ.mapping))
        seed_set = tuple(dict.fromkeys(s))
        fragments.append(seed_set)
        local_pass, local_failure = True, None
        for fragment in fragments:
            if not sorted_local_equal(f_alpha, f, fragment, h):
                local_pass, local_failure = False, fragment
                break
        chain = pool[:clip_depth]
        if not sorted_local_equal(f_alpha, f, seed_set, h):
            chain += tuple(sorted(set(seed_set) - set(chain), key=limit.element_index))
        # Tower level n exists exactly when chain[:n] is locally equal.
        tower_failure = next((chain[:n] for n in range(1, len(chain) + 1)
                              if not sorted_local_equal(f_alpha, f, chain[:n], h)), None)
        results.append(SeedResult((s, t), local_pass, local_failure,
                                  tower_failure is None, tower_failure))
    any_local_fail = any(not r.local_pass for r in results)
    any_tower_fail = any(not r.tower_pass for r in results)
    agreement, discrepancy = True, None
    if bool(verdict) and (any_local_fail or any_tower_fail):
        agreement, discrepancy = False, "certificate passed but a germ check failed"
    if not bool(verdict) and not any_local_fail:
        agreement, discrepancy = False, "refuted but every sampled germ passed the local check"
    if any_local_fail != any_tower_fail:
        agreement, discrepancy = False, "local and tower checks disagree"
    return HarnessReport(verdict, tuple(results), agreement, discrepancy)
