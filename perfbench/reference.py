"""Reference answers that do not come from canonfn.

Everything here is written from the definitions: the enumeration of Q, orbit
counts in closed form, order-pattern canonicity, age membership of finite
structures.  The benchmark checks canonfn's answers against these.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# the enumeration 0, 1, -1, 1/2, -1/2, 2, -2, ... of Q


def dlo_points(n: int) -> list[Fraction]:
    """First n rationals: zero, then Calkin-Wilf order with alternating signs."""
    out = [Fraction(0)]
    q = Fraction(1)
    while len(out) < n:
        out.extend((q, -q))
        q = 1 / (2 * math.floor(q) + 1 - q)
    return out[:n]


def power_points(n: int, m: int) -> list[tuple]:
    """First n points of Q^m: index tuples by coordinate sum, then
    lexicographically, each coordinate read through dlo_points."""
    combos = []
    total = 0
    while len(combos) < n:
        combos.extend(c for c in itertools.product(range(total + 1), repeat=m)
                      if sum(c) == total)
        total += 1
    combos = combos[:n]
    values = dlo_points(max(max(c) for c in combos) + 1)
    return [tuple(values[i] for i in c) for c in combos]


# ---------------------------------------------------------------------------
# oracles, evaluated from their generator description


def evaluate(desc, p):
    """Value of the oracle described by desc at the point p."""
    kind = desc[0]
    if kind == "pieces":
        for lo, lo_closed, hi, hi_closed, a, b in desc[1]:
            above = lo is None or p > lo or (lo_closed and p == lo)
            below = hi is None or p < hi or (hi_closed and p == hi)
            if above and below:
                return a * p + b
        raise ValueError(f"pieces do not cover {p}")
    if kind == "const":
        return desc[1]
    if kind == "id":
        return p
    if kind == "min":
        return min(p)
    if kind == "max":
        return max(p)
    if kind == "proj":
        return p[desc[1]]
    if kind == "table":
        return desc[1][p]
    if kind == "after":  # ("after", outer pieces, inner desc)
        return evaluate(desc[1], evaluate(desc[2], p))
    raise ValueError(f"unknown oracle description {kind!r}")


# ---------------------------------------------------------------------------
# labels from pairwise relations
#
# Every signature here is binary, so the orbit of a tuple is fixed by the
# 1-types of its entries and the 2-types of its pairs.  A group description
# is a tuple:
#   ("dlo",)                      aut(Q;<)
#   ("stab", constants)           stabilizer in aut(Q;<) of the constants
#   ("power", m)                  aut(Q;<)^m on m-column points
#   ("graph", edges, less)        aut of a materialized limit; less is None
#                                 for unordered graphs


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
    if kind == "power":
        return tuple(cmp(a, b) for a, b in zip(x, y))
    _, edges, less = group
    order = None if less is None else ((x, y) in less, (y, x) in less)
    return x == y, (x, y) in edges, order


def tuple_type(group, t):
    """The orbit of t, as its 1-types and the 2-types of all ordered pairs."""
    ones = tuple(one_type(group, x) for x in t)
    pairs = tuple(pair_type(group, t[i], t[j])
                  for i in range(len(t)) for j in range(len(t)) if i != j)
    return ones, pairs


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


def refutes(source, target, s, t, f) -> bool:
    """True when s and t share an orbit but their images under f do not."""
    if len(s) != len(t) or s == t:
        return False
    if tuple_type(source, s) != tuple_type(source, t):
        return False
    return tuple_type(target, tuple(f(x) for x in s)) != \
        tuple_type(target, tuple(f(x) for x in t))


# ---------------------------------------------------------------------------
# orbit counts in closed form


def stirling2(k: int, b: int) -> int:
    return sum((-1) ** i * math.comb(b, i) * (b - i) ** k for i in range(b + 1)) \
        // math.factorial(b)


def orbit_count(structure: str, k: int) -> int:
    """Orbits of aut(structure) on k-tuples."""
    blocks = range(1, k + 1)
    if structure == "dlo":  # Fubini numbers
        return sum(stirling2(k, b) * math.factorial(b) for b in blocks)
    if structure == "pureset":  # Bell numbers
        return sum(stirling2(k, b) for b in blocks)
    if structure == "rado":
        return sum(stirling2(k, b) * 2 ** math.comb(b, 2) for b in blocks)
    if structure == "ordered-rado":
        return sum(stirling2(k, b) * math.factorial(b) * 2 ** math.comb(b, 2)
                   for b in blocks)
    raise ValueError(f"no closed form for {structure!r}")


def presentation_orbits(spec, k: int) -> int:
    """Orbits on k-tuples of a presentation description:
    ("aut", name) | ("stab", 1) over dlo | ("power", m) over dlo."""
    if spec[0] == "aut":
        return orbit_count(spec[1], k)
    if spec[0] == "stab":  # one constant: weak orders of k + 1 positions
        return orbit_count("dlo", k + 1)
    if spec[0] == "power":
        return orbit_count("dlo", k) ** spec[1]
    raise ValueError(f"unknown presentation {spec!r}")


# ---------------------------------------------------------------------------
# finite structures: size plus a set of (relation, (i, j)) atoms


def is_graph(size, atoms, name="edge") -> bool:
    edges = {t for r, t in atoms if r == name}
    return all(i != j and (j, i) in edges and max(i, j) < size for i, j in edges)


def is_linear_order(size, atoms, name="<") -> bool:
    less = {t for r, t in atoms if r == name}
    for i, j in itertools.product(range(size), repeat=2):
        if i == j and (i, j) in less:
            return False
        if i != j and ((i, j) in less) == ((j, i) in less):
            return False
    return all((i, k) in less for (i, j) in less for (jj, k) in less if j == jj)


def is_triangle_free_graph(size, atoms) -> bool:
    edges = {t for r, t in atoms if r == "edge"}
    return is_graph(size, atoms) and not any(
        (a, b) in edges and (b, c) in edges and (a, c) in edges
        for a, b, c in itertools.combinations(range(size), 3))


AGE_MEMBER = {
    "graphs": is_graph,
    "linear-orders": is_linear_order,
    "ordered-graphs": lambda n, a: is_graph(n, a) and is_linear_order(n, a),
    "forbidden": is_triangle_free_graph,
}
