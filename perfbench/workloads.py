"""Seeded query lists for the four workloads.

Each workload is a fixed list of strata: how many queries of which kind, at
which arity, horizon, depth or size.  The seed draws the concrete inputs
inside each stratum (rationals, slopes, breakpoints, constants, tables,
sizes within a small band).  The strata and their order hold the amount of
work steady from seed to seed, so runs with different seeds can be compared;
the seed changes what is computed, not how much.

A query is a CLI argv, answered through cli.run(cli.parse_command(argv)), or
an API call where the CLI has no spelling for it (oracles on aut(rado) and
aut(ordered-rado), coherence_check, realize_behavior).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("scan", "tables", "search", "limits")

# Shared limits for the API checks in `scan`, grown once during set-up.
SHARED_LIMIT_SIZE = {"rado": 40, "ordered-rado": 24}

FORBIDDEN_FILE = "perfbench/forbidden.txt"  # triangle-free graphs, relative to the checkout


@dataclass(frozen=True)
class Query:
    verb: str                 # CLI verb, or "api-check", "api-coherence", "api-realize"
    argv: tuple = ()          # CLI arguments; empty for API queries
    params: dict = field(default_factory=dict)  # reference data and API inputs


# ---------------------------------------------------------------------------
# rationals and oracle spec strings


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# Seeded rationals are integers and halves: the size of the numbers changes
# the cost of Fraction arithmetic and hashing, which the seed should not.


def _rat(rng) -> Fraction:
    return Fraction(rng.randint(-12, 12), 2)


def _pos(rng) -> Fraction:
    return Fraction(rng.randint(1, 5))


def _affine(a: Fraction, b: Fraction) -> str:
    if a == 0:
        return fmt(b)
    expr = f"x*{fmt(a)}"
    if b > 0:
        expr += f"+{fmt(b)}"
    elif b < 0:
        expr += f"-{fmt(-b)}"
    return expr


def pieces_spec(pieces) -> str:
    parts = []
    for lo, lo_closed, hi, hi_closed, a, b in pieces:
        left = ("[" if lo_closed else "(") + ("-inf" if lo is None else fmt(lo))
        right = ("inf" if hi is None else fmt(hi)) + ("]" if hi_closed else ")")
        parts.append(f"{left},{right}:{_affine(a, b)}")
    return "pieces:[" + "; ".join(parts) + "]"


def _two_pieces(p, a1, b1, a2, b2):
    return ("pieces", ((None, False, p, False, a1, b1), (p, True, None, False, a2, b2)))


def monotone(rng, sign: int):
    """Strictly increasing (sign 1) or decreasing (sign -1) two-piece map."""
    p, b1 = _rat(rng), _rat(rng)
    a1, a2 = sign * _pos(rng), sign * _pos(rng)
    jump = sign * Fraction(rng.randint(0, 6), 2)
    return _two_pieces(p, a1, b1, a2, a1 * p + b1 - a2 * p + jump)


def v_shape(rng):
    """Continuous map that turns at a breakpoint near 0: refuted at arity 2."""
    p = Fraction(rng.randint(-1, 1), rng.randint(2, 4))
    a1, b1 = _pos(rng), _rat(rng)
    sign = rng.choice((1, -1))
    a1, a2 = -sign * a1, sign * _pos(rng)
    return _two_pieces(p, a1, b1, a2, a1 * p + b1 - a2 * p)


def step_then_rise(c: Fraction, rng):
    """Constant below c, increasing above it: canonical over stab(aut(dlo); c)
    but refuted over aut(dlo)."""
    v, a = _rat(rng), _pos(rng)
    gap = Fraction(rng.randint(1, 8), 2)
    return _two_pieces(c, Fraction(0), v, a, v - a * c + gap)


def scaled(pieces_desc, rng):
    """Post-compose with a seeded increasing affine map.  The values keep
    their order pattern, so searches explore the same tree."""
    s, t = _pos(rng), _rat(rng)
    return ("pieces", tuple((lo, lc, hi, hc, s * a, s * b + t)
                            for lo, lc, hi, hc, a, b in pieces_desc[1]))


def spec_of(desc) -> str:
    kind = desc[0]
    if kind == "pieces":
        return pieces_spec(desc[1])
    if kind == "const":
        return f"const:{fmt(desc[1])}"
    if kind in ("id", "min", "max"):
        return kind
    if kind == "proj":
        return f"proj:{desc[1] + 1}/2"
    if kind == "after":
        return f"compose({spec_of(desc[1])},{spec_of(desc[2])})"
    raise ValueError(kind)


MIXED = ("pieces", ((None, False, Fraction(0), False, Fraction(-1), Fraction(0)),
                    (Fraction(0), True, None, False, Fraction(1), Fraction(0))))
TILTED = ("pieces", ((None, False, Fraction(0), False, Fraction(2), Fraction(0)),
                     (Fraction(0), True, None, False, Fraction(-1), Fraction(0))))
NEG = ("pieces", ((None, False, None, False, Fraction(-1), Fraction(0)),))


def _unary_oracle(rng, kind: str):
    if kind == "inc":
        return monotone(rng, 1)
    if kind == "dec":
        return monotone(rng, -1)
    if kind == "const":
        return ("const", _rat(rng))
    return v_shape(rng)


def _const(rng) -> Fraction:
    return _rat(rng)


# ---------------------------------------------------------------------------
# The lists
#
# Each list is ordered by stratum, cheapest first, and sized so that the
# median and the 90th percentile of per-query latency fall inside a block of
# like queries (block 1 and block 2 below) rather than in a gap between
# strata; otherwise a percentile would jump from one stratum to the next with
# noise.  With N queries the 90th percentile is rank 0.9 N: block 2 holds 14
# queries and exactly 5 heavier ones follow it.


def _check(desc, source, target, horizon, arity, group, verb="check", spec=None):
    argv = (verb, "--f", spec or spec_of(desc), "--source", source, "--target", target,
            "--horizon", str(horizon), "--arity", str(arity))
    return Query(verb, argv, {"oracle": desc, "group": group, "target_group": ("dlo",),
                              "horizon": horizon, "arity": arity})


def _dlo_check(rng, kinds, count, horizon, arity, verb="check"):
    return [_check(_unary_oracle(rng, kinds[i % len(kinds)]), "aut(dlo)", "aut(dlo)",
                   horizon, arity, ("dlo",), verb) for i in range(count)]


def _stab_check(rng, kind, horizon, arity):
    c = _const(rng)
    desc = step_then_rise(c, rng) if kind == "step" else _unary_oracle(rng, kind)
    return _check(desc, f"stab(aut(dlo); {fmt(c)})", "aut(dlo)", horizon, arity,
                  ("stab", (c,)))


def _power_check(rng, inner, horizon, arity, lifted):
    desc = ("after", monotone(rng, rng.choice((1, -1))), inner) if lifted else inner
    return _check(desc, "power(aut(dlo),2)", "aut(dlo)", horizon, arity, ("power", 2))


def _api_check(rng, name, oracle, horizon, arity):
    size = SHARED_LIMIT_SIZE[name]
    if oracle == "const":
        desc = ("const", rng.randrange(size))
    elif oracle == "table":
        desc = ("table", {i: rng.randrange(size) for i in range(horizon)})
    else:
        desc = ("id",)
    return Query("api-check", (), {"limit": name, "oracle": desc, "horizon": horizon,
                                   "arity": arity})


CANONICAL = ("inc", "dec", "const")


def scan(rng) -> list[Query]:
    out = _dlo_check(rng, CANONICAL, 8, 48, 1)
    out += _dlo_check(rng, ("v",), 7, 24, 2) + _dlo_check(rng, ("v",), 7, 16, 3)
    # Oracles on the shared, already-grown generic limits go through the API:
    # the CLI builds oracle specs on dlo.
    out += [_api_check(rng, name, "table", 16, 2) for name in SHARED_LIMIT_SIZE for _ in (0, 1)]
    out += [_power_check(rng, (rng.choice(("min", "max")),), 16, 2, i % 2) for i in range(4)]
    out += [_stab_check(rng, kind, 12, 2) for kind in ("v", "v", "inc", "dec", "step", "step")]
    out += [_power_check(rng, ("proj", i % 2), 12, 2, i // 2) for i in range(4)]
    out += _dlo_check(rng, CANONICAL, 28, 20, 2)                       # block 1
    out += _dlo_check(rng, ("inc", "dec"), 14, 24, 2)
    out += [_stab_check(rng, kind, 6, 3) for kind in ("inc", "dec", "step", "step")]
    out += [_power_check(rng, ("proj", i), 6, 3, i) for i in (0, 1)]
    out += [_check(desc, "aut(dlo)", "aut(dlo)", 4, 2, ("dlo",), "harness")
            for desc in (NEG, monotone(rng, 1), v_shape(rng))]
    out += _dlo_check(rng, CANONICAL, 14, 8, 3)                        # block 2
    out += [_api_check(rng, "rado", kind, 10, 3) for kind in ("id", "const")]
    out += [_api_check(rng, "ordered-rado", kind, 8, 3) for kind in ("id", "const")]
    # The Baseline row: check neg at arity 3, horizon 24.
    out.append(_check(NEG, "aut(dlo)", "aut(dlo)", 24, 3, ("dlo",), spec="neg"))
    return out


def _orbits(structure, k):
    return Query("orbits", ("orbits", structure, "--arity", str(k)),
                 {"structure": structure, "arity": k})


def _behaviors(source, target, arity, shape):
    return Query("behaviors", ("behaviors", "--source", source, "--target", target,
                               "--arity", str(arity)),
                 {"shape": shape, "arity": arity,
                  "dlo_pair": source == target == "aut(dlo)"})


def _aut(src, tgt, k):
    return _behaviors(f"aut({src})", f"aut({tgt})", k, ("aut", src))


def _stab(rng, target, k):
    return _behaviors(f"stab(aut(dlo); {fmt(_const(rng))})", target, k, ("stab", 1))


def tables(rng) -> list[Query]:
    out = [_orbits(s, k) for s, ks in (("dlo", (1, 2, 3, 4)), ("pureset", (1, 2, 3, 4, 5, 6)),
                                        ("rado", (1, 2, 3, 4)), ("ordered-rado", (1, 2, 3)))
           for k in ks * 2]
    out += [Query("api-realize", (), {"table": i, "n": rng.randint(5, 8)}) for i in range(3)]
    out += [Query("api-coherence", (), {"arity": 2}) for _ in range(3)]
    out += [_aut("dlo", "rado", 2), _aut("pureset", "ordered-rado", 2),
            _aut("ordered-rado", "pureset", 2), _aut("pureset", "dlo", 3)]
    out += [_stab(rng, "aut(pureset)", 2) for _ in range(28)]              # block 1
    out += [_aut("rado", "pureset", 3) for _ in range(3)]
    out += [_orbits("dlo", 5) for _ in range(4)]
    out += [_aut("rado", "dlo", 3) for _ in range(4)]
    out += [_aut("ordered-rado", "ordered-rado", 2) for _ in range(4)]
    out += [_aut("dlo", "dlo", 3) for _ in range(14)]                      # block 2
    out += [Query("api-coherence", (), {"arity": 3}),
            _behaviors("power(aut(dlo),2)", "aut(dlo)", 2, ("power", 2)),
            _aut("rado", "rado", 3), _stab(rng, "aut(dlo)", 2), _aut("ordered-rado", "dlo", 3)]
    return out


def _canonize(desc, arity, depth, horizon, source=None, group=("dlo",)):
    argv = ["canonize", "--f", spec_of(desc)]
    if source is not None:
        argv += ["--source", source, "--target", "aut(dlo)"]
    argv += ["--arity", str(arity), "--depth", str(depth), "--horizon", str(horizon)]
    return Query("canonize", tuple(argv), {"oracle": desc, "group": group, "arity": arity,
                                           "depth": depth, "source": source})


LIFT = ("pieces", ((None, False, None, False, Fraction(1), Fraction(0)),))


def search(rng) -> list[Query]:
    out = []
    for i in range(66):  # found without backtracking
        depth, horizon = 5 + i % 3, (32, 48, 64)[i % 3]
        out.append(_canonize(_unary_oracle(rng, CANONICAL[i % 3]), 2, depth, horizon))
    for i in range(12):
        c = _const(rng)
        out.append(_canonize(_unary_oracle(rng, ("inc", "dec")[i % 2]), 2, 6, 32,
                             f"stab(aut(dlo); {fmt(c)})", ("stab", (c,))))
    out += [_canonize(("proj", i % 2), 2, 5 + i % 2, 32, group=("power", 2)) for i in range(6)]
    out += [_canonize(monotone(rng, 1), 3, 5, 32) for _ in range(4)]
    # Thrashing mixed maps, rescaled so the search tree stays the same.
    out += [_canonize(scaled(TILTED, rng), 2, 6, 32) for _ in range(4)]
    out += [_canonize(scaled(MIXED, rng), 2, 6, 40) for _ in range(14)]   # block 2
    out += [_canonize(scaled(MIXED, rng), 2, 6, 64), _canonize(scaled(MIXED, rng), 2, 7, 32)]
    # Binary oracles through canonize_with_constants.
    for inner, horizon in ((("min",), 16), (("max",), 16), (("min",), 24)):
        out.append(_canonize(("after", scaled(LIFT, rng), inner), 2, 5, horizon,
                             group=("power", 2)))
    return out


def _band(rng, base: int, width: int = 1) -> int:
    return base + rng.randint(-width, width)


def _limit(age, size):
    argv = ["limit", "--age", age, "--size", str(size)]
    if age == "forbidden":
        argv += ["--forbidden", FORBIDDEN_FILE]
    return Query("limit", tuple(argv), {"age": age, "size": size})


def _verify(age, bound):
    argv = ["verify-age", "--age", age, "--bound", str(bound)]
    if age == "forbidden":
        argv += ["--forbidden", FORBIDDEN_FILE]
    return Query("verify-age", tuple(argv), {"age": age, "bound": bound})


def _pham(rng, j, width, budget=None):
    # The certificate's cost steps with epsilon; narrow bands keep it level.
    eps = Fraction(1, rng.randint(2 ** j, 2 ** j + width))
    argv = ("pham", "--epsilon", fmt(eps)) + (("--budget", str(budget)) if budget else ())
    return Query("pham", argv, {"epsilon": eps})


def limits(rng) -> list[Query]:
    out = [_verify(age, 3) for age in ("pure-sets", "graphs", "linear-orders", "forbidden")]
    out.append(_verify("pure-sets", 4))
    pairs = (("q", "q-minus-0"), ("q-minus-0", "q"), ("q", "q"), ("q-minus-0", "q-minus-0"))
    for i in range(56):
        source, target = pairs[i % 4]
        points = _band(rng, 32 + 32 * (i % 4), 8)
        out.append(Query("iso", ("iso", "--source", source, "--target", target,
                                 "--points", str(points)),
                         {"source": source, "target": target, "points": points}))
    out += [_pham(rng, j, 2 ** (j - 2)) for j in range(3, 7)]
    out += [_limit("graphs", _band(rng, base)) for base in (12, 16, 20, 20)]
    out += [_limit("ordered-graphs", _band(rng, base)) for base in (10, 12, 14, 16)]
    out += [_limit("linear-orders", _band(rng, base)) for base in (8, 10, 12, 12)]
    out += [_limit("forbidden", _band(rng, base)) for base in (8, 9, 10, 11)]
    out += [_limit("graphs", 28) for _ in range(14)]                      # block 2
    out += [_limit("forbidden", 13), _limit("linear-orders", 20), _pham(rng, 9, 8),
            _pham(rng, 10, 16), _pham(rng, 12, 64, budget=16384)]
    return out


_BUILDERS = {"scan": scan, "tables": tables, "search": search, "limits": limits}


def generate(workload: str, seed: int) -> list[Query]:
    """The query list of a workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def traffic_shares(workload: str, queries) -> dict:
    """Input-property shares that later claims can cite; the search share
    that needs node counts comes from the traced run."""
    n = len(queries)
    shares: dict = {"queries": n}
    if workload == "scan":
        arities = [q.params["arity"] for q in queries]
        for k in sorted(set(arities)):
            shares[f"arity_{k}"] = arities.count(k) / n
        generic = sum(q.verb == "api-check" for q in queries)
        shares["generic_limit_reads"] = generic / n
        shares["generic_limit_growth"] = 0.0
    elif workload == "limits":
        growth = sum(q.verb == "limit" for q in queries)
        shares["generic_limit_reads"] = 0.0
        shares["generic_limit_growth"] = growth / n
    return shares
