"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package paths under test: weak orders are
counted as raw binary relations, partitions by canonicalizing assignment
vectors, and isomorphisms by exhaustive backtracking over index maps.
PredicateAge only fills in the age interface for a membership test a
test writes itself.
"""

import itertools

from canonfn.fraisse import AgeOracle


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
