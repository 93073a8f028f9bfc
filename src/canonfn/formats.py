"""Line-oriented text formats and the group/oracle spec-string grammars.

Function tables and certificates round-trip bit-exactly; loading validates
invariants and reports failures with line numbers.  Behavior files are only
written.  Lines starting with # are comments.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from fractions import Fraction

from .behaviors import BehaviorTable
from .canonicity import (
    AffinePiece,
    BackAndForthOracle,
    ComposeOracle,
    ConstantOracle,
    FunctionOracle,
    IdentityOracle,
    Interval,
    MaxOracle,
    MinOracle,
    NegationOracle,
    PiecewiseAffineOracle,
    ProjectionOracle,
    TableOracle,
)
from .errors import FormatError
from .fraisse import (
    DloLimit,
    FiniteStructure,
    ForbiddenSubstructuresAge,
    GenericLimit,
    LimitStructure,
    RelationSymbol,
    Signature,
    builtin_limit,
)
from .groups import (
    AutLimit,
    GroupPresentation,
    PowerGroup,
    LabelTexts,
    StabilizerGroup,
    columns,
    format_point,
    joined,
)
from .rationals import format_rational, parse_rational
from .symbolic import ObstructionCertificate, canonical_iso, punctured_rationals, rationals_set


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


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


def limit_by_name(name: str, structures: dict[str, LimitStructure]) -> LimitStructure:
    """A --structures entry, else the builtin limit of that name; ValueError
    if there is neither."""
    if name in structures:
        return structures[name]
    return builtin_limit(name)


# ---------------------------------------------------------------------------
# finite structures

_ATOM_RE = re.compile(r"([A-Za-z_<][\w<]*)\(([-\d,\s]+)\)")


def format_structure(s: FiniteStructure) -> str:
    parts = [f"size {s.size}"]
    for name, t in sorted(s.atoms):
        parts.append(f"{name}({','.join(str(i) for i in t)})")
    return "; ".join(parts)


def parse_structure(line: str, lineno: int = 0) -> FiniteStructure:
    chunks = [c.strip() for c in line.split(";") if c.strip()]
    if not chunks or not chunks[0].startswith("size"):
        raise FormatError(lineno, "structure block must start with `size k`")
    try:
        size = int(chunks[0].split()[1])
    except (IndexError, ValueError):
        raise FormatError(lineno, f"bad size directive {chunks[0]!r}") from None
    atoms = set()
    arities: dict[str, int] = {}
    for chunk in chunks[1:]:
        match = _ATOM_RE.fullmatch(chunk)
        if not match:
            raise FormatError(lineno, f"bad relation atom {chunk!r}")
        name, args = match.group(1), match.group(2)
        t = tuple(int(a) for a in args.split(","))
        if name in arities and arities[name] != len(t):
            raise FormatError(lineno, f"symbol {name} used with two arities")
        arities[name] = len(t)
        if any(i < 0 or i >= size for i in t):
            raise FormatError(lineno, f"index out of range in {chunk!r}")
        if (name, t) in atoms:
            raise FormatError(lineno, f"duplicate atom {chunk!r}")
        atoms.add((name, t))
    signature = Signature(tuple(RelationSymbol(n, a) for n, a in sorted(arities.items())))
    return FiniteStructure(signature, size, frozenset(atoms))


def load_forbidden_age(text: str, name: str = "forbidden") -> ForbiddenSubstructuresAge:
    """One forbidden structure block per line."""
    structures = []
    for lineno, line in _content_lines(text):
        structures.append(parse_structure(line, lineno))
    if not structures:
        raise FormatError(0, "no forbidden structures given")
    merged: dict[str, int] = {}
    for s in structures:
        for sym in s.signature.symbols:
            merged[sym.name] = sym.arity
    signature = Signature(tuple(RelationSymbol(n, a) for n, a in sorted(merged.items())))
    structures = [
        FiniteStructure(signature, s.size, s.atoms) for s in structures
    ]
    return ForbiddenSubstructuresAge(signature, structures, name=name)


def load_structures(text: str) -> dict[str, LimitStructure]:
    """Structure spec files: `structure <name> = builtin:<kind>` or
    `structure <name> = forbidden:<file>` directives, one per line."""
    out: dict[str, LimitStructure] = {}
    for lineno, line in _content_lines(text):
        match = re.fullmatch(r"structure\s+([\w-]+)\s*=\s*(builtin|forbidden):(\S+)", line)
        if not match:
            raise FormatError(lineno, f"bad structure directive {line!r}")
        name, kind, arg = match.groups()
        if name in out:
            raise FormatError(lineno, f"duplicate structure name {name!r}")
        if kind == "builtin":
            try:
                out[name] = builtin_limit(arg)
            except ValueError as exc:
                raise FormatError(lineno, str(exc)) from None
        else:
            age = load_forbidden_age(pathlib.Path(arg).read_text(), name=f"forbidden:{arg}")
            out[name] = GenericLimit(age, name=name)
    return out


# ---------------------------------------------------------------------------
# group spec strings


def parse_group_spec(text: str,
                     structures: dict[str, LimitStructure] | None = None) -> GroupPresentation:
    """Grammar: aut(<structure>) | power(<group>,m) | stab(<group>; pt,pt,...).
    The presentation checks its shape as it is made, innermost first; its
    repr is the spec in this grammar."""
    structures = structures or {}
    text = text.strip()
    if text.startswith("aut(") and text.endswith(")"):
        name = text[4:-1].strip()
        try:
            limit = limit_by_name(name, structures)
        except ValueError:
            raise FormatError(0, f"unknown structure {name!r}") from None
        return AutLimit(limit)
    if text.startswith("power(") and text.endswith(")"):
        inner = text[6:-1]
        parts = _split_top(inner, ",")
        if len(parts) < 2:
            raise FormatError(0, f"power needs a base and an arity: {text!r}")
        base = parse_group_spec(",".join(parts[:-1]), structures)
        try:
            m = int(parts[-1])
        except ValueError:
            raise FormatError(0, f"bad power arity {parts[-1]!r}") from None
        return PowerGroup(base, m)
    if text.startswith("stab(") and text.endswith(")"):
        inner = text[5:-1]
        parts = _split_top(inner, ";", maxsplit=1)
        if len(parts) < 2:
            raise FormatError(0, f"stab needs `; constants`: {text!r}")
        head, tail = parts
        base = parse_group_spec(head, structures)
        constants = tuple(_parse_point(p) for p in _split_top(tail, ",") if p)
        return StabilizerGroup(base, constants)
    raise FormatError(0, f"bad group spec {text!r}")


def _parse_point(text: str, lineno: int = 0):
    text = text.strip()
    try:
        if text.startswith("(") and text.endswith(")"):
            return joined(tuple(parse_rational(v) for v in text[1:-1].split(",")))
        return parse_rational(text)
    except ValueError:
        raise FormatError(lineno, f"bad point literal {text!r}") from None


def load_points(text: str) -> list:
    """One point literal per line, as canonize's --constants files hold them."""
    return [_parse_point(line, lineno) for lineno, line in _content_lines(text)]


# ---------------------------------------------------------------------------
# oracle spec strings

_INTERVAL_RE = re.compile(r"([\[(])\s*([^,\s]+)\s*,\s*([^)\]\s]+)\s*([\])])")


def _parse_bound(text: str):
    if text in ("-inf", "inf"):
        return None
    return parse_rational(text)


def _parse_affine(expr: str) -> tuple[Fraction, Fraction]:
    """Coefficient and offset of an affine expression in x."""
    expr = expr.replace(" ", "")
    if not expr:
        raise FormatError(0, "empty affine expression")
    if "x" not in expr:
        return Fraction(0), parse_rational(expr)
    m = re.fullmatch(
        r"(?:(?P<pre>-?[\d/]+)\*)?(?P<neg>-)?x(?:\*(?P<post>-?[\d/]+))?(?P<off>[+-][\d/]+)?",
        expr,
    )
    if not m:
        raise FormatError(0, f"bad affine expression {expr!r}")
    coef = Fraction(1)
    if m.group("pre"):
        coef *= parse_rational(m.group("pre"))
    if m.group("neg"):
        coef = -coef
    if m.group("post"):
        coef *= parse_rational(m.group("post"))
    offset = parse_rational(m.group("off")) if m.group("off") else Fraction(0)
    return coef, offset


def parse_pieces(body: str, limit: LimitStructure) -> PiecewiseAffineOracle:
    if not (body.startswith("[") and body.endswith("]")):
        raise FormatError(0, f"pieces need brackets: {body!r}")
    pieces = []
    for chunk in _split_top(body[1:-1], ";"):
        if not chunk:
            continue
        m = _INTERVAL_RE.match(chunk)
        if not m or not chunk[m.end():].lstrip().startswith(":"):
            raise FormatError(0, f"bad piece {chunk!r}")
        lo = _parse_bound(m.group(2))
        hi = _parse_bound(m.group(3))
        interval = Interval(lo, m.group(1) == "[", hi, m.group(4) == "]")
        coef, offset = _parse_affine(chunk[m.end():].lstrip()[1:])
        pieces.append(AffinePiece(interval, coef, offset))
    try:
        return PiecewiseAffineOracle(limit, pieces)
    except ValueError as exc:
        raise FormatError(0, str(exc)) from None


def parse_oracle_spec(text: str, limit: LimitStructure | None = None) -> FunctionOracle:
    """Grammar: id | neg | const:p/q | pieces:[...] | pham | min | max |
    proj:i/m | table:<file> | compose(a,b)."""
    text = text.strip()
    limit = limit or builtin_limit("dlo")
    rational = text == "pham" or text.startswith(("const:", "pieces:"))
    if rational and not isinstance(limit, DloLimit):
        raise ValueError(f"oracle {text} maps rationals; {limit.name} is not the rational order")
    if text == "id":
        return IdentityOracle(limit, limit)
    if text == "neg":
        return NegationOracle(limit)
    if text == "pham":
        return BackAndForthOracle(canonical_iso(rationals_set(), punctured_rationals()), limit)
    if text == "min":
        return MinOracle(limit, limit)
    if text == "max":
        return MaxOracle(limit, limit)
    if text.startswith("const:"):
        return ConstantOracle(limit, parse_rational(text[6:]))
    if text.startswith("proj:"):
        spec = text[5:]
        if "/" in spec:
            i, _, m = spec.partition("/")
        else:
            i, m = spec, "2"
        return ProjectionOracle(limit, int(m), int(i) - 1)
    if text.startswith("pieces:"):
        return parse_pieces(text[7:], limit)
    if text.startswith("table:"):
        return load_function_table(pathlib.Path(text[6:]).read_text(), limit)
    if text.startswith("compose(") and text.endswith(")"):
        parts = _split_top(text[8:-1], ",")
        if len(parts) != 2:
            raise FormatError(0, f"compose needs two oracles: {text!r}")
        outer = parse_oracle_spec(parts[0], limit)
        inner = parse_oracle_spec(parts[1], limit)
        return ComposeOracle(outer, inner)
    raise FormatError(0, f"unknown oracle spec {text!r}")


# ---------------------------------------------------------------------------
# function tables


def dump_function_table(oracle: TableOracle) -> str:
    lines = []
    for p, v in sorted(oracle.mapping.items()):    # points are distinct
        lines.append(f"{format_point(p)} -> {format_rational(v)}")
    return "\n".join(lines) + "\n"


def load_function_table(text: str, limit: LimitStructure | None = None) -> TableOracle:
    limit = limit or builtin_limit("dlo")
    mapping: dict = {}
    m = None
    for lineno, line in _content_lines(text):
        left, sep, right = line.partition("->")
        if not sep:
            raise FormatError(lineno, f"missing -> in {line!r}")
        p = _parse_point(left, lineno)
        width = len(columns(p))
        if m is None:
            m = width
        elif m != width:
            raise FormatError(lineno, "mixed point arities in one table")
        try:
            v = parse_rational(right)
        except ValueError:
            raise FormatError(lineno, f"bad rational {right!r}") from None
        if p in mapping:
            raise FormatError(lineno, f"duplicate map entry for {format_point(p)}")
        mapping[p] = v
    if not mapping:
        raise FormatError(0, "empty function table")
    return TableOracle(limit, limit, mapping, m=m or 1)


# ---------------------------------------------------------------------------
# behavior tables


def behavior_lines(table: BehaviorTable, texts: LabelTexts) -> list[str]:
    """One `k: source -> target` line per entry, labels formatted through the
    command's texts."""
    return [f"{k}: {texts[src]} -> {texts[tgt]}" for k, src, tgt in table.entries()]


def dump_behavior(table: BehaviorTable, texts: LabelTexts) -> str:
    lines = [
        f"source: {table.source!r}",
        f"target: {table.target!r}",
        f"arity: {table.max_arity}",
    ]
    lines.extend(behavior_lines(table, texts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificates


def dump_certificate(cert: ObstructionCertificate) -> str:
    lines = ["certificate: pham-obstruction"]
    lines.extend(f"{fd.name}: {format_rational(getattr(cert, fd.name))}"
                 for fd in dataclasses.fields(cert))
    return "\n".join(lines) + "\n"


def load_certificate(text: str) -> ObstructionCertificate:
    fields: dict[str, Fraction] = {}
    for lineno, line in _content_lines(text):
        key, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(lineno, f"missing colon in {line!r}")
        key, rest = key.strip(), rest.strip()
        if key == "certificate":
            if rest != "pham-obstruction":
                raise FormatError(lineno, f"unknown certificate kind {rest!r}")
            continue
        if key in fields:
            raise FormatError(lineno, f"duplicate field {key!r}")
        try:
            fields[key] = parse_rational(rest)
        except ValueError:
            raise FormatError(lineno, f"bad rational {rest!r}") from None
    try:
        return ObstructionCertificate(**fields)
    except TypeError as exc:
        raise FormatError(0, f"wrong certificate fields: {exc}") from None
