"""Line-oriented text formats and the group/oracle spec-string grammars.

Every artifact round-trips bit-exactly; loading validates invariants and
reports failures with line numbers.  Lines starting with # are comments.
"""

from __future__ import annotations

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
    _split_top,
    parse_label,
    validate_presentation,
)
from .rationals import format_rational, parse_rational
from .symbolic import ObstructionCertificate, canonical_iso, punctured_rationals, rationals_set


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


# ---------------------------------------------------------------------------
# finite structures

_ATOM_RE = re.compile(r"([A-Za-z_<][\w<]*)\(([-\d,\s]+)\)")


def format_structure(s: FiniteStructure) -> str:
    parts = [f"size {s.size}"]
    for name, t in sorted(s.atoms):
        parts.append(f"{name}({','.join(str(i) for i in t)})")
    return "; ".join(parts)


def parse_structure(line: str, lineno: int = 0,
                    signature: Signature | None = None) -> FiniteStructure:
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
    if signature is None:
        signature = Signature(tuple(RelationSymbol(n, a) for n, a in sorted(arities.items())))
    else:
        for name, a in arities.items():
            if name not in signature or signature.arity_of(name) != a:
                raise FormatError(lineno, f"symbol {name}/{a} not in the signature")
    return FiniteStructure(signature, size, frozenset(atoms))


def load_forbidden_age(text: str, signature: Signature | None = None,
                       name: str = "forbidden") -> ForbiddenSubstructuresAge:
    """One forbidden structure block per line."""
    structures = []
    for lineno, line in _content_lines(text):
        structures.append(parse_structure(line, lineno, signature))
    if not structures:
        raise FormatError(0, "no forbidden structures given")
    if signature is None:
        merged: dict[str, int] = {}
        for s in structures:
            for sym in s.signature.symbols:
                merged[sym.name] = sym.arity
        signature = Signature(tuple(RelationSymbol(n, a) for n, a in sorted(merged.items())))
        structures = [
            FiniteStructure(signature, s.size, s.atoms) for s in structures
        ]
    return ForbiddenSubstructuresAge(signature, structures, name=name)


def load_structures(text: str, read_file=None) -> dict[str, LimitStructure]:
    """Structure spec files: `structure <name> = builtin:<kind>` or
    `structure <name> = forbidden:<file>` directives, one per line."""
    import pathlib

    read_file = read_file or (lambda p: pathlib.Path(p).read_text())
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
            age = load_forbidden_age(read_file(arg), name=f"forbidden:{arg}")
            from .fraisse import GenericLimit

            out[name] = GenericLimit(age, name=name)
    return out


# ---------------------------------------------------------------------------
# group spec strings


def format_group_spec(g: GroupPresentation) -> str:
    if isinstance(g, AutLimit):
        return f"aut({g.limit.name})"
    if isinstance(g, PowerGroup):
        return f"power({format_group_spec(g.base)},{g.m})"
    consts = ",".join(_format_point(c) for c in g.constants)
    return f"stab({format_group_spec(g.base)}; {consts})"


def _format_point(p) -> str:
    if isinstance(p, tuple):
        return "(" + ",".join(format_rational(v) for v in p) + ")"
    if isinstance(p, Fraction):
        return format_rational(p)
    return str(p)


def parse_group_spec(text: str, structures: dict[str, LimitStructure] | None = None,
                     lineno: int = 0) -> GroupPresentation:
    """Grammar: aut(<structure>) | power(<group>,m) | stab(<group>; pt,pt,...)."""
    g = _parse_group_spec(text, structures or {}, lineno)
    validate_presentation(g)
    return g


def _parse_group_spec(text: str, structures: dict[str, LimitStructure],
                      lineno: int) -> GroupPresentation:
    text = text.strip()

    def limit_by_name(name: str) -> LimitStructure:
        if name in structures:
            return structures[name]
        try:
            return builtin_limit(name)
        except ValueError:
            raise FormatError(lineno, f"unknown structure {name!r}") from None

    if text.startswith("aut(") and text.endswith(")"):
        return AutLimit(limit_by_name(text[4:-1].strip()))
    if text.startswith("power(") and text.endswith(")"):
        inner = text[6:-1]
        parts = _split_top(inner, ",")
        if len(parts) < 2:
            raise FormatError(lineno, f"power needs a base and an arity: {text!r}")
        base = _parse_group_spec(",".join(parts[:-1]), structures, lineno)
        try:
            m = int(parts[-1])
        except ValueError:
            raise FormatError(lineno, f"bad power arity {parts[-1]!r}") from None
        return PowerGroup(base, m)
    if text.startswith("stab(") and text.endswith(")"):
        inner = text[5:-1]
        parts = _split_top(inner, ";", maxsplit=1)
        if len(parts) < 2:
            raise FormatError(lineno, f"stab needs `; constants`: {text!r}")
        head, tail = parts
        base = _parse_group_spec(head, structures, lineno)
        constants = tuple(_parse_point(p, lineno) for p in _split_top(tail, ",") if p)
        return StabilizerGroup(base, constants)
    raise FormatError(lineno, f"bad group spec {text!r}")


def _parse_point(text: str, lineno: int = 0):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        vals = tuple(parse_rational(v) for v in text[1:-1].split(","))
        return vals if len(vals) > 1 else vals[0]
    try:
        return parse_rational(text)
    except ValueError:
        raise FormatError(lineno, f"bad point literal {text!r}") from None


# ---------------------------------------------------------------------------
# oracle spec strings

_INTERVAL_RE = re.compile(r"([\[(])\s*([^,\s]+)\s*,\s*([^)\]\s]+)\s*([\])])")


def _parse_bound(text: str):
    if text in ("-inf", "inf"):
        return None
    return parse_rational(text)


def _parse_affine(expr: str, lineno: int) -> tuple[Fraction, Fraction]:
    """Coefficient and offset of an affine expression in x."""
    expr = expr.replace(" ", "")
    if not expr:
        raise FormatError(lineno, "empty affine expression")
    if "x" not in expr:
        return Fraction(0), parse_rational(expr)
    m = re.fullmatch(
        r"(?:(?P<pre>-?[\d/]+)\*)?(?P<neg>-)?x(?:\*(?P<post>-?[\d/]+))?(?P<off>[+-][\d/]+)?",
        expr,
    )
    if not m:
        raise FormatError(lineno, f"bad affine expression {expr!r}")
    coef = Fraction(1)
    if m.group("pre"):
        coef *= parse_rational(m.group("pre"))
    if m.group("neg"):
        coef = -coef
    if m.group("post"):
        coef *= parse_rational(m.group("post"))
    offset = parse_rational(m.group("off")) if m.group("off") else Fraction(0)
    return coef, offset


def parse_pieces(body: str, limit: LimitStructure, lineno: int = 0) -> PiecewiseAffineOracle:
    if not (body.startswith("[") and body.endswith("]")):
        raise FormatError(lineno, f"pieces need brackets: {body!r}")
    pieces = []
    for chunk in _split_top(body[1:-1], ";"):
        if not chunk:
            continue
        m = _INTERVAL_RE.match(chunk)
        if not m or not chunk[m.end():].lstrip().startswith(":"):
            raise FormatError(lineno, f"bad piece {chunk!r}")
        lo = _parse_bound(m.group(2))
        hi = _parse_bound(m.group(3))
        interval = Interval(lo, m.group(1) == "[", hi, m.group(4) == "]")
        coef, offset = _parse_affine(chunk[m.end():].lstrip()[1:], lineno)
        pieces.append(AffinePiece(interval, coef, offset))
    try:
        return PiecewiseAffineOracle(limit, pieces)
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None


def parse_oracle_spec(text: str, limit: LimitStructure | None = None,
                      read_file=None, lineno: int = 0) -> FunctionOracle:
    """Grammar: id | neg | const:p/q | pieces:[...] | pham | min | max |
    proj:i/m | table:<file> | compose(a,b)."""
    import pathlib

    read_file = read_file or (lambda p: pathlib.Path(p).read_text())
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
        return parse_pieces(text[7:], limit, lineno)
    if text.startswith("table:"):
        return load_function_table(read_file(text[6:]), limit)
    if text.startswith("compose(") and text.endswith(")"):
        parts = _split_top(text[8:-1], ",")
        if len(parts) != 2:
            raise FormatError(lineno, f"compose needs two oracles: {text!r}")
        outer = parse_oracle_spec(parts[0], limit, read_file, lineno)
        inner = parse_oracle_spec(parts[1], limit, read_file, lineno)
        return ComposeOracle(outer, inner)
    raise FormatError(lineno, f"unknown oracle spec {text!r}")


# ---------------------------------------------------------------------------
# function tables


def dump_function_table(oracle: TableOracle) -> str:
    lines = []
    for p, v in sorted(oracle.mapping.items(), key=lambda kv: _point_key(kv[0])):
        lines.append(f"{_format_point(p)} -> {format_rational(v)}")
    return "\n".join(lines) + "\n"


def _point_key(p):
    if isinstance(p, tuple):
        return tuple(_point_key(v) for v in p)
    return (p,)


def load_function_table(text: str, limit: LimitStructure | None = None) -> TableOracle:
    limit = limit or builtin_limit("dlo")
    mapping: dict = {}
    m = None
    for lineno, line in _content_lines(text):
        left, sep, right = line.partition("->")
        if not sep:
            raise FormatError(lineno, f"missing -> in {line!r}")
        p = _parse_point(left, lineno)
        width = len(p) if isinstance(p, tuple) else 1
        if m is None:
            m = width
        elif m != width:
            raise FormatError(lineno, "mixed point arities in one table")
        try:
            v = parse_rational(right)
        except ValueError:
            raise FormatError(lineno, f"bad rational {right!r}") from None
        if p in mapping:
            raise FormatError(lineno, f"duplicate map entry for {_format_point(p)}")
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


def dump_behavior(table: BehaviorTable, texts: LabelTexts | None = None) -> str:
    lines = [
        f"source: {format_group_spec(table.source)}",
        f"target: {format_group_spec(table.target)}",
        f"arity: {table.max_arity}",
    ]
    lines.extend(behavior_lines(table, LabelTexts() if texts is None else texts))
    return "\n".join(lines) + "\n"


def load_behavior(text: str, structures: dict[str, LimitStructure] | None = None) -> BehaviorTable:
    source = target = None
    max_arity = None
    entries = []
    seen = set()
    for lineno, line in _content_lines(text):
        key, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(lineno, f"missing colon in {line!r}")
        key, rest = key.strip(), rest.strip()
        if key == "source":
            source = parse_group_spec(rest, structures, lineno)
        elif key == "target":
            target = parse_group_spec(rest, structures, lineno)
        elif key == "arity":
            max_arity = int(rest)
        else:
            try:
                k = int(key)
            except ValueError:
                raise FormatError(lineno, f"bad entry arity {key!r}") from None
            if source is None or target is None or max_arity is None:
                raise FormatError(lineno, "entries before the source/target/arity header")
            left, sep2, right = rest.partition("->")
            if not sep2:
                raise FormatError(lineno, f"missing -> in {line!r}")
            try:
                src = parse_label(source, left.strip())
                tgt = parse_label(target, right.strip())
            except ValueError as exc:
                raise FormatError(lineno, str(exc)) from None
            if (k, left.strip()) in seen:
                raise FormatError(lineno, f"duplicate map entry {left.strip()!r}")
            seen.add((k, left.strip()))
            entries.append((k, src, tgt))
    if source is None or target is None or max_arity is None:
        raise FormatError(0, "behavior table needs source, target and arity headers")
    try:
        return BehaviorTable(source, target, max_arity, entries)
    except ValueError as exc:
        raise FormatError(0, str(exc)) from None


# ---------------------------------------------------------------------------
# certificates


def dump_certificate(cert: ObstructionCertificate) -> str:
    return "certificate: pham-obstruction\n" + "\n".join(cert.as_lines()) + "\n"


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
