"""Answer checks: each query's answer against a reference that does not come
from the code under test.

check(query, outcome, ctx) returns None for a correct answer, else the reason
it is wrong.  An outcome is (exit code, report text) for a CLI query and the
returned object for an API query.  Two checks call canonfn on purpose, as
the definition of the property: a canonize sample must pass a fresh
check_canonical, and a pham certificate must verify() from scratch.
"""

from __future__ import annotations

from fractions import Fraction

import reference as ref
from canonfn import canonicity, formats, fraisse, groups


class Context:
    """What the checks share: the graphs of the shared limits, read once, and
    the reference verdicts, for the traffic shares."""

    def __init__(self, shared_limits):
        self.graphs = {}
        for name, limit in shared_limits.items():
            frag = limit.fragment()
            edges = {t for r, t in frag.atoms if r == "edge"}
            less = {t for r, t in frag.atoms if r == "<"} if name == "ordered-rado" else None
            self.graphs[name] = ("graph", edges, less)
        self.verdicts: dict = {}   # query index -> reference canonical?


# ---------------------------------------------------------------------------
# report parsing


def fields(report: str) -> dict:
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def parse_point(text: str):
    """'(1/2, (0, -1))' -> (Fraction(1, 2), (0, -1)) with Fractions."""
    text = text.strip()
    if not text.startswith("("):
        return Fraction(text)
    parts, depth, cur = [], 0, ""
    for ch in text[1:-1]:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    parts.append(cur)
    return tuple(parse_point(p) for p in parts if p.strip())


def _section(report: str, header: str) -> list[str]:
    """Lines after `header:` up to the next header line (one ending in ':')."""
    lines = report.splitlines()
    if f"{header}:" not in lines:
        return []
    out = []
    for line in lines[lines.index(f"{header}:") + 1:]:
        if line.endswith(":"):
            break
        out.append(line)
    return out


def _pairs(lines) -> list[tuple]:
    return [tuple(parse_point(side) for side in line.split(" -> ")) for line in lines]


# ---------------------------------------------------------------------------
# verdicts


def _points(group, n):
    return ref.power_points(n, group[1]) if group[0] == "power" else ref.dlo_points(n)


def _verdict(idx, ctx, source, target, points, f, arity, canonical, s=None, t=None):
    expected = ref.canonical(source, target, points, [f(p) for p in points], arity)
    ctx.verdicts[idx] = expected
    if canonical and not expected:
        return "canonical-up-to, but the order-pattern reference refutes it"
    if not canonical and expected:
        return "counterexample, but the order-pattern reference finds the map canonical"
    if not canonical and not ref.refutes(source, target, s, t, f):
        return "counterexample does not recompute by direct evaluation"
    return None


def _check_fields(idx, q, got, ctx):
    p = q.params
    f = lambda x: ref.evaluate(p["oracle"], x)  # noqa: E731
    points = _points(p["group"], p["horizon"])
    canonical = got.get("verdict") == "canonical-up-to"
    s = t = None
    if not canonical:
        if got.get("verdict") != "counterexample":
            return f"no verdict in {got!r}"
        s, t = parse_point(got["witness_s"]), parse_point(got["witness_t"])
    return _verdict(idx, ctx, p["group"], p["target_group"], points, f, p["arity"],
                    canonical, s, t)


def check_cli_check(idx, q, outcome, ctx):
    return _check_fields(idx, q, fields(outcome[1]), ctx)


def check_harness(idx, q, outcome, ctx):
    got = fields(outcome[1])
    if got.get("agreement") != "yes":
        return f"harness formulations disagree: {got.get('discrepancy')}"
    if got.get("proxy-canonicity") == "pass":
        got["verdict"] = "canonical-up-to"
    return _check_fields(idx, q, got, ctx)


def check_api_check(idx, q, verdict, ctx):
    p = q.params
    group = ctx.graphs[p["limit"]]
    f = lambda x: ref.evaluate(p["oracle"], x)  # noqa: E731
    canonical = bool(verdict)
    s = None if canonical else verdict.witness_s
    t = None if canonical else verdict.witness_t
    return _verdict(idx, ctx, group, group, list(range(p["horizon"])), f, p["arity"],
                    canonical, s, t)


# ---------------------------------------------------------------------------
# tables


def check_orbits(idx, q, outcome, ctx):
    expected = ref.orbit_count(q.params["structure"], q.params["arity"])
    got = fields(outcome[1]).get("orbits")
    return None if got == str(expected) else f"orbits {got}, closed form gives {expected}"


def check_behaviors(idx, q, outcome, ctx):
    p = q.params
    lines = outcome[1].splitlines()
    count = int(fields(outcome[1])["behaviors"])
    starts = [i for i, line in enumerate(lines) if line.startswith("table ")]
    if len(starts) != count:
        return f"reports {count} tables but lists {len(starts)}"
    if p["dlo_pair"] and count != (3 if p["arity"] >= 2 else 1):
        return f"aut(dlo) -> aut(dlo) has {count} tables at arity {p['arity']}"
    entries = sum(ref.presentation_orbits(p["shape"], k) for k in range(1, p["arity"] + 1))
    for a, b in zip(starts, starts[1:] + [len(lines)]):
        if b - a - 1 != entries:
            return f"a table has {b - a - 1} entries, the source has {entries} orbits"
    return None


def check_coherence(idx, q, outcome, ctx):
    # Every enumerated table is coherent by construction of the enumeration;
    # the hand-broken table maps 1<2 to the image of 2<1, which no
    # reindexing-invariant table does once the two images differ.
    count, results, broken = outcome
    if count != 3:
        return f"aut(dlo) -> aut(dlo) has {count} tables"
    if any(r is not None for r in results):
        return "an enumerated table fails coherence_check"
    if broken is None:
        return "coherence_check accepts a table with a flipped entry"
    return None


def check_realize(idx, q, outcome, ctx):
    kind, mapping = outcome
    n = q.params["n"]
    if not isinstance(mapping, tuple) or len(mapping) != n:
        return f"no witness on {n} points: {mapping!r}"
    xs = [x for x, _ in mapping]
    if xs != ref.dlo_points(n):
        return "witness domain is not the first n rationals"
    want = {"1=2": {0}, "1<2": {-1}, "2<1": {1}}[kind]
    for (x, fx) in mapping:
        for (y, fy) in mapping:
            if x < y and ref.cmp(fx, fy) not in want:
                return f"witness breaks the {kind} table at {x}, {y}"
    return None


# ---------------------------------------------------------------------------
# search


def check_canonize(idx, q, outcome, ctx):
    p = q.params
    report = outcome[1]
    if fields(report).get("result") != "canonical-approximation":
        return f"no canonical approximation: {report.splitlines()[0]}"
    fixed, tower = _pairs(_section(report, "fixed")), _pairs(_section(report, "tower"))
    group = p["group"]
    seeds = [x for x, _ in fixed]
    expected_domain = [x for x in _points(group, p["depth"]) if x not in seeds]
    if [x for x, _ in tower] != expected_domain:
        return "tower domain is not the first depth points"
    pairs = fixed + tower
    columns = group[1] if group[0] == "power" else 1
    for (x1, y1) in pairs:
        for (x2, y2) in pairs:
            for c in range(columns):
                a1, a2, b1, b2 = ((x1, x2, y1, y2) if columns == 1
                                  else (x1[c], x2[c], y1[c], y2[c]))
                if ref.cmp(a1, a2) != ref.cmp(b1, b2):
                    return "tower is not an order embedding"
    sample = {x: ref.evaluate(p["oracle"], y) for x, y in pairs}
    points = list(sample)
    if not ref.canonical(group, ("dlo",), points, [sample[x] for x in points], p["arity"]):
        return "sample is not canonical by the order-pattern reference"
    dlo = fraisse.builtin_limit("dlo")
    if group[0] == "power":
        g = groups.PowerGroup(groups.AutLimit(dlo), group[1])
    else:
        g = formats.parse_group_spec(p["source"] or "aut(dlo)")
    oracle = canonicity.TableOracle(dlo, dlo, sample, m=columns)
    fresh = canonicity.check_canonical(oracle, g, groups.AutLimit(dlo), len(points),
                                       p["arity"], points=points)
    return None if bool(fresh) else "sample fails a fresh check_canonical"


# ---------------------------------------------------------------------------
# limits


def check_limit(idx, q, outcome, ctx):
    p = q.params
    lines = outcome[1].splitlines()
    chunks = lines[0].removeprefix("fragment: ").split("; ")
    size = int(chunks[0].split()[1])
    atoms = set()
    for chunk in chunks[1:]:
        name, _, args = chunk.partition("(")
        atoms.add((name, tuple(int(a) for a in args.rstrip(")").split(","))))
    if size != p["size"]:
        return f"fragment has size {size}, asked {p['size']}"
    if not ref.AGE_MEMBER[p["age"]](size, atoms):
        return f"fragment is not in the age {p['age']}"
    created = []
    for line in lines[2:]:
        how, witness = line.split(" -> ")[1].split()
        if int(witness) >= size:
            return f"demand witness {witness} outside the fragment"
        if how == "new":
            created.append(int(witness))
    if created != sorted(set(created)):
        return "new witnesses are not adjoined in order"
    return None


def check_verify_age(idx, q, outcome, ctx):
    # Every age here is a Fraisse class: hereditary with amalgamation.
    got = fields(outcome[1])
    if got.get("result") != "ok" or got.get("bound") != str(q.params["bound"]):
        return f"verify-age says {got.get('result')} at bound {got.get('bound')}"
    return None


def check_pham(idx, q, outcome, ctx):
    report = outcome[1]
    v = {k: Fraction(val) for k, val in fields(report).items()
         if k not in ("certificate", "verified")}
    if fields(report).get("verified") != "true":
        return "certificate does not say verified"
    if v.get("epsilon") != q.params["epsilon"]:
        return "certificate is for another epsilon"
    claims = [
        v["f_a"] < 0 < v["falpha_a"], v["y_lo"] < 0 < v["y_hi"],
        0 < v["pin_lo"] < v["sample_r"] < v["pin_hi"],
        v["pin_hi"] - v["pin_lo"] < v["epsilon"] < min(-v["f_a"], v["falpha_a"]),
    ]
    if not all(claims):
        return "certificate inequalities fail"
    cert = formats.load_certificate(report.split("\nverified:")[0])
    return None if cert.verify() else "certificate fails verify() from scratch"


def check_iso(idx, q, outcome, ctx):
    p = q.params
    lines = outcome[1].splitlines()
    pairs = _pairs(lines[1:])
    if len(pairs) != p["points"]:
        return f"{len(pairs)} pairs, asked {p['points']}"
    ok_src = (lambda x: x != 0) if p["source"] == "q-minus-0" else (lambda x: True)
    ok_tgt = (lambda y: y != 0) if p["target"] == "q-minus-0" else (lambda y: True)
    if not all(ok_src(x) and ok_tgt(y) for x, y in pairs):
        return "a pair leaves its dense set"
    ys = [y for _, y in sorted(pairs)]
    if len({x for x, _ in pairs}) != len(pairs) or ys != sorted(set(ys)):
        return "the map is not an order isomorphism on its pairs"
    return None


CHECKS = {
    "check": check_cli_check, "harness": check_harness, "api-check": check_api_check,
    "orbits": check_orbits, "behaviors": check_behaviors,
    "api-coherence": check_coherence, "api-realize": check_realize,
    "canonize": check_canonize, "limit": check_limit, "verify-age": check_verify_age,
    "pham": check_pham, "iso": check_iso,
}


def check(idx, q, outcome, ctx) -> str | None:
    if not q.verb.startswith("api-"):
        code, report = outcome
        if code != 0:  # every query has a definite answer
            return f"exit {code}: {report.strip().splitlines()[:1]}"
    try:
        return CHECKS[q.verb](idx, q, outcome, ctx)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"
