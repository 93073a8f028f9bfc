"""Command-line front end and reproducible experiment drivers.

Reports are deterministic machine-readable text blocks; exit code 0 means a
definite result (count, table, verdict, certificate), 2 an inconclusive
search, 1 an error.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import behaviors as behaviors_mod
from . import formats
from . import fraisse
from . import symbolic
from .canonicity import (
    CanonicalUpTo,
    Counterexample,
    proposition_harness,
)
from .canonize import HorizonExhausted, canonize, canonize_with_constants
from .errors import (
    BudgetExhausted,
    CanonFnError,
    UsageError,
)
from .groups import LabelTexts, domain_limit, format_label, point_arity
from .rationals import format_rational, parse_rational

VERBS = (
    "orbits", "behaviors", "check", "canonize", "pham",
    "limit", "verify-age", "harness", "iso",
)

_COMMON_OPTIONS = {"record": str, "structures": str}

_SCHEMAS: dict[str, dict] = {
    "orbits": {"structure": str, "arity": int},
    "behaviors": {"source": str, "target": str, "arity": int, "out": str},
    "check": {"f": str, "source": str, "target": str, "horizon": int, "arity": int},
    "canonize": {"f": str, "source": str, "target": str, "arity": int,
                 "depth": int, "horizon": int, "constants": str},
    "pham": {"epsilon": parse_rational, "budget": int},
    "limit": {"age": str, "size": int, "forbidden": str},
    "verify-age": {"age": str, "bound": int, "forbidden": str},
    "harness": {"f": str, "source": str, "target": str, "horizon": int, "arity": int},
    "iso": {"source": str, "target": str, "points": int},
}

_REQUIRED: dict[str, tuple] = {
    "orbits": ("structure", "arity"),
    "behaviors": ("source", "target", "arity"),
    "check": ("f", "source", "target", "horizon", "arity"),
    "canonize": ("f", "arity", "depth", "horizon"),
    "pham": (),
    "limit": ("age", "size"),
    "verify-age": ("age",),
    "harness": ("f", "source", "target", "horizon", "arity"),
    "iso": ("source", "target", "points"),
}

_DEFAULTS: dict[str, dict] = {
    "pham": {"epsilon": Fraction(1, 8), "budget": 4096},
    "verify-age": {"bound": 3},
}


@dataclass
class CommandSpec:
    verb: str
    options: dict = field(default_factory=dict)
    argv: tuple = ()

    def command_line(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class RunRecord:
    command: str
    determinism: str
    version: str
    wall_time_ms: int
    digest: str

    def as_text(self) -> str:
        return (
            f"command: {self.command}\n"
            f"determinism: {self.determinism}\n"
            f"version: {self.version}\n"
            f"wall_time_ms: {self.wall_time_ms}\n"
            f"digest: {self.digest}\n"
        )


def parse_command(argv) -> CommandSpec:
    argv = list(argv)
    if not argv:
        raise UsageError("missing verb", token=None, position=0, expected=VERBS)
    verb = argv[0]
    if verb not in VERBS:
        raise UsageError(f"unknown verb {verb!r}", token=verb, position=0, expected=VERBS)
    schema = dict(_SCHEMAS[verb])
    schema.update(_COMMON_OPTIONS)
    options = dict(_DEFAULTS.get(verb, {}))
    i = 1
    saw_positional = False
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            # One positional argument is allowed where it is unambiguous:
            # `orbits dlo --arity 2` names the structure.
            if verb == "orbits" and not saw_positional:
                options["structure"] = token
                saw_positional = True
                i += 1
                continue
            raise UsageError(
                f"unexpected token {token!r}", token=token, position=i,
                expected=tuple(f"--{k}" for k in schema),
            )
        key = token[2:]
        if key not in schema:
            raise UsageError(
                f"unknown option {token!r}", token=token, position=i,
                expected=tuple(f"--{k}" for k in schema),
            )
        if i + 1 >= len(argv):
            raise UsageError(f"option {token!r} needs a value", token=token,
                             position=i, expected=("<value>",))
        raw = argv[i + 1]
        try:
            options[key] = schema[key](raw)
        except ValueError:
            raise UsageError(
                f"bad value {raw!r} for {token}", token=raw, position=i + 1,
                expected=(getattr(schema[key], "__name__", "value"),),
            ) from None
        i += 2
    missing = [k for k in _REQUIRED[verb] if k not in options]
    if missing:
        raise UsageError(
            f"missing required options for {verb}: {', '.join('--' + k for k in missing)}",
            token=None, position=len(argv),
            expected=tuple(f"--{k}" for k in missing),
        )
    return CommandSpec(verb, options, tuple(argv))


# ---------------------------------------------------------------------------
# helpers


def _format_point(p) -> str:
    if isinstance(p, tuple):
        return "(" + ", ".join(_format_point(v) for v in p) + ")"
    if isinstance(p, Fraction):
        return format_rational(p)
    return str(p)


def _format_tuple(t) -> str:
    return "(" + ", ".join(_format_point(p) for p in t) + ")"


def _load_structures(options) -> dict:
    if "structures" in options:
        import pathlib

        return formats.load_structures(pathlib.Path(options["structures"]).read_text())
    return {}


def _limit_by_name(name: str, structures: dict):
    if name in structures:
        return structures[name]
    return fraisse.builtin_limit(name)


def _age_from_options(options):
    if options.get("age") == "forbidden" or "forbidden" in options:
        import pathlib

        text = pathlib.Path(options["forbidden"]).read_text()
        return formats.load_forbidden_age(text)
    return fraisse.builtin_age(options["age"])


def _oracle_on(options, source):
    """The --f oracle, built on the source's domain; its points must have as
    many columns as the source's points."""
    f = formats.parse_oracle_spec(options["f"], domain_limit(source))
    columns = point_arity(source)
    if f.m != columns:
        raise ValueError(f"oracle {options['f']} takes {f.m}-column points; "
                         f"{options['source']} acts on {columns}-column points")
    return f


def _behavior_lines(table) -> list[str]:
    return ["behavior:"] + formats.behavior_lines(table, LabelTexts())


def _verdict_lines(verdict) -> list[str]:
    if isinstance(verdict, CanonicalUpTo):
        lines = [
            "verdict: canonical-up-to",
            f"horizon: {verdict.horizon}",
            f"arity: {verdict.arity}",
        ]
        lines.extend(_behavior_lines(verdict.behavior))
        return lines
    return [
        "verdict: counterexample",
        f"arity: {verdict.arity}",
        f"witness_s: {_format_tuple(verdict.witness_s)}",
        f"witness_t: {_format_tuple(verdict.witness_t)}",
        f"source_label: {format_label(verdict.source_label)}",
        f"image_label_s: {format_label(verdict.image_label_s)}",
        f"image_label_t: {format_label(verdict.image_label_t)}",
    ]


# ---------------------------------------------------------------------------
# verb handlers


def _run_orbits(options):
    structures = _load_structures(options)
    limit = _limit_by_name(options["structure"], structures)
    n = fraisse.count_orbits(limit, options["arity"])
    return 0, [f"orbits: {n}"]


def _run_behaviors(options):
    structures = _load_structures(options)
    source = formats.parse_group_spec(options["source"], structures)
    target = formats.parse_group_spec(options["target"], structures)
    tables = behaviors_mod.enumerate_behaviors(source, target, options["arity"])
    texts = LabelTexts()
    lines = [f"behaviors: {len(tables)}"]
    for i, table in enumerate(tables):
        lines.append(f"table {i}:")
        lines.extend(formats.behavior_lines(table, texts))
    if "out" in options:
        import pathlib

        text = "\n---\n".join(formats.dump_behavior(t, texts) for t in tables)
        pathlib.Path(options["out"]).write_text(text)
        lines.append(f"saved: {options['out']}")
    return 0, lines


def _run_check(options):
    from .canonicity import check_canonical

    structures = _load_structures(options)
    source = formats.parse_group_spec(options["source"], structures)
    target = formats.parse_group_spec(options["target"], structures)
    f = _oracle_on(options, source)
    verdict = check_canonical(f, source, target, options["horizon"], options["arity"])
    return 0, _verdict_lines(verdict)


def _run_canonize(options):
    structures = _load_structures(options)
    source = formats.parse_group_spec(options.get("source", "aut(dlo)"), structures)
    if "source" in options:
        f = _oracle_on(options, source)
    else:  # an m-ary oracle then acts on power(aut(dlo), m)
        f = formats.parse_oracle_spec(options["f"])
    if "constants" in options or f.m > 1:
        consts = []
        if "constants" in options:
            import pathlib

            for lineno, line in formats._content_lines(
                pathlib.Path(options["constants"]).read_text()
            ):
                consts.append(formats._parse_point(line, lineno))
            consts = [
                c if isinstance(c, tuple) or f.m == 1 else (c,)
                for c in consts
            ]
        result = canonize_with_constants(
            f, consts, options["arity"], options["depth"], options["horizon"]
        )
    else:
        target = formats.parse_group_spec(options.get("target", "aut(dlo)"), structures)
        result = canonize(
            f, source, target, options["arity"], options["depth"], options["horizon"]
        )
    if isinstance(result, HorizonExhausted):
        return 2, ["result: horizon-exhausted", f"nodes: {result.nodes}"]
    lines = ["result: canonical-approximation"]
    lines.extend(_behavior_lines(result.behavior))
    if result.tower.seeds:
        lines.append("fixed:")
        for x, y in result.tower.seeds:
            lines.append(f"{_format_point(x)} -> {_format_point(y)}")
    lines.append("tower:")
    for x, y in result.tower.pairs:
        lines.append(f"{_format_point(x)} -> {_format_point(y)}")
    return 0, lines


def _run_pham(options):
    try:
        cert = symbolic.pham_refute(options["epsilon"], options["budget"])
    except BudgetExhausted as exc:
        return 2, ["result: budget-exhausted", f"reason: {exc}"]
    lines = ["certificate: pham-obstruction"]
    lines.extend(cert.as_lines())
    lines.append(f"verified: {'true' if cert.verify() else 'false'}")
    return 0, lines


def _run_limit(options):
    age = _age_from_options(options)
    limit = fraisse.build_limit(age, options["size"])
    lines = [f"fragment: {formats.format_structure(limit.fragment())}", "demands:"]
    for entry in limit.demand_log:
        how = "new" if entry.created else "existing"
        lines.append(
            f"demand prefix={entry.prefix_size} extension={entry.extension_index}"
            f" -> {how} {entry.witness}"
        )
    return 0, lines


def _run_verify_age(options):
    age = _age_from_options(options)
    report = fraisse.verify_amalgamation(age, options["bound"])
    if report.ok:
        return 0, [f"result: ok", f"bound: {report.bound}"]
    lines = [
        f"result: {report.failure_kind}-violation",
        f"bound: {report.bound}",
        f"detail: {report.detail}",
    ]
    for w in report.witnesses:
        lines.append(f"witness: {formats.format_structure(w)}")
    return 0, lines


def _run_harness(options):
    structures = _load_structures(options)
    source = formats.parse_group_spec(options["source"], structures)
    target = formats.parse_group_spec(options["target"], structures)
    f = _oracle_on(options, source)
    report = proposition_harness(f, source, target, options["horizon"], options["arity"])
    canonical = bool(report.verdict)
    local_ok = all(r.local_pass for r in report.seed_results)
    tower_ok = all(r.tower_pass for r in report.seed_results)
    lines = [
        f"proxy-canonicity: {'pass' if canonical else 'fail'}",
        f"proxy-local: {'pass' if local_ok else 'fail'}",
        f"proxy-tower: {'pass' if tower_ok else 'fail'}",
        f"seeds: {len(report.seed_results)}",
        f"agreement: {'yes' if report.agreement else 'no'}",
    ]
    if report.discrepancy:
        lines.append(f"discrepancy: {report.discrepancy}")
    if isinstance(report.verdict, Counterexample):
        lines.extend(_verdict_lines(report.verdict))
    return 0, lines


def _run_iso(options):
    source = symbolic.dense_set_by_name(options["source"])
    target = symbolic.dense_set_by_name(options["target"])
    if options["points"] < 1:
        raise ValueError("points must be positive")
    mapping = symbolic.canonical_iso(source, target)
    while len(mapping.committed) < options["points"]:
        mapping.run_stages(1)
    lines = [f"iso: {mapping.name}"]
    for x, y in mapping.committed[: options["points"]]:
        lines.append(f"{format_rational(x)} -> {format_rational(y)}")
    return 0, lines


_HANDLERS = {
    "orbits": _run_orbits,
    "behaviors": _run_behaviors,
    "check": _run_check,
    "canonize": _run_canonize,
    "pham": _run_pham,
    "limit": _run_limit,
    "verify-age": _run_verify_age,
    "harness": _run_harness,
    "iso": _run_iso,
}


def run(spec: CommandSpec) -> tuple[int, str]:
    """Dispatch a parsed command; returns (exit code, report text)."""
    started = time.monotonic()
    try:
        code, lines = _HANDLERS[spec.verb](spec.options)
    except CanonFnError as exc:
        code, lines = 1, [f"error: {type(exc).__name__}: {exc}"]
    except ValueError as exc:
        code, lines = 1, [f"error: ValueError: {exc}"]
    except FileNotFoundError as exc:
        code, lines = 1, [f"error: missing file: {exc.filename}"]
    report = "\n".join(lines) + "\n"
    if "record" in spec.options:
        import pathlib

        digest = hashlib.sha256(report.encode()).hexdigest()
        record = RunRecord(
            command=spec.command_line(),
            determinism="seedless; the report depends only on the command",
            version=f"canonfn 0.1.0, python {sys.version_info.major}.{sys.version_info.minor}",
            wall_time_ms=int((time.monotonic() - started) * 1000),
            digest=f"sha256:{digest}",
        )
        pathlib.Path(spec.options["record"]).write_text(record.as_text())
    return code, report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_command(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        if exc.expected:
            sys.stderr.write(f"expected: {', '.join(exc.expected)}\n")
        return 1
    code, report = run(spec)
    sys.stdout.write(report)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
