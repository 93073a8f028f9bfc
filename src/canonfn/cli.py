"""Command-line front end and reproducible experiment drivers.

Reports are deterministic machine-readable text blocks; exit code 0 means a
definite result (count, table, verdict, certificate), 2 an inconclusive
search, 1 an error.

The grammar is one table, `_VERBS`: verb -> (handler, {option: (parser,
default)}), with verbs and options in the order usage errors list them.
`parse_command` turns each `--option value` into `parser(value)`, fills in
the defaults, and refuses a command that lacks an option whose default is
`_NEEDED`; an option whose default is None stays out of the options when
it is not given.  `--record` (`_COMMON_OPTIONS`) follows every verb's own
options.  A handler takes the options and returns the exit code and the
report lines.
"""

from __future__ import annotations

import hashlib
import pathlib
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
    check_canonical,
    proposition_harness,
)
from .canonize import HorizonExhausted, canonize
from .errors import (
    BudgetExhausted,
    CanonFnError,
    UsageError,
)
from .groups import (
    AutLimit,
    LabelTexts,
    aut_power,
    count_orbits_g,
    format_label,
    stabilized,
)
from .rationals import parse_rational


@dataclass
class CommandSpec:
    verb: str
    options: dict = field(default_factory=dict)
    argv: tuple = ()


def parse_command(argv) -> CommandSpec:
    argv = list(argv)
    if not argv:
        raise UsageError("missing verb", token=None, position=0, expected=tuple(_VERBS))
    verb = argv[0]
    if verb not in _VERBS:
        raise UsageError(f"unknown verb {verb!r}", token=verb, position=0,
                         expected=tuple(_VERBS))
    schema = {**_VERBS[verb][1], **_COMMON_OPTIONS}
    options = {k: d for k, (_, d) in schema.items() if d is not None and d is not _NEEDED}
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
        parser = schema[key][0]
        try:
            options[key] = parser(raw)
        except ValueError:
            raise UsageError(
                f"bad value {raw!r} for {token}", token=raw, position=i + 1,
                expected=(parser.__name__,),
            ) from None
        i += 2
    missing = [k for k, (_, d) in schema.items() if d is _NEEDED and k not in options]
    if missing:
        raise UsageError(
            f"missing required options for {verb}: {', '.join('--' + k for k in missing)}",
            token=None, position=len(argv),
            expected=tuple(f"--{k}" for k in missing),
        )
    return CommandSpec(verb, options, tuple(argv))


# ---------------------------------------------------------------------------
# helpers


class _WriteFailed(Exception):
    """An output file (--out, --record) could not be written."""


def _write_file(path: str, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text)
    except OSError as exc:
        raise _WriteFailed(f"cannot write {path}: {exc.strerror}") from None


def _load_structures(options) -> dict:
    if "structures" in options:
        return formats.load_structures(pathlib.Path(options["structures"]).read_text())
    return {}


def _age_from_options(options):
    if options["age"] != "forbidden":
        if "forbidden" in options:
            raise ValueError("--forbidden needs --age forbidden")
        return fraisse.builtin_age(options["age"])
    if "forbidden" not in options:
        raise ValueError("--age forbidden needs --forbidden <file>")
    return formats.load_forbidden_age(pathlib.Path(options["forbidden"]).read_text())


def _presentations(options):
    """The --f oracle and the source and target presentations of check,
    harness and canonize; the oracle is built on the source's domain.

    Only canonize leaves --source and --target out: the source is then
    aut(dlo), or power(aut(dlo), m) for an m-ary oracle, and the target
    aut(dlo).  The oracle must take the source's points and give single
    points of the target's structure; otherwise ValueError.
    """
    structures = _load_structures(options)
    source = None
    if "source" in options:
        source = formats.parse_group_spec(options["source"], structures)
    target = formats.parse_group_spec(options.get("target", "aut(dlo)"), structures)
    spec = options["f"]
    f = formats.parse_oracle_spec(spec, source.limit if source else None)
    if source is None:
        source = aut_power(f.source, f.m)
    for g, verb, columns in ((source, "takes", f.m), (target, "gives", 1)):
        if g.m != columns:
            raise ValueError(f"oracle {spec} {verb} {columns}-column points; "
                             f"{g!r} acts on {g.m}-column points")
    values = target.limit
    if type(values) is not type(f.target) or values.name != f.target.name:
        raise ValueError(f"oracle {spec} gives values in {f.target.name}; "
                         f"{target!r} acts on {values.name}")
    return f, source, target


def _behavior_lines(table) -> list[str]:
    return ["behavior:"] + formats.behavior_lines(table, LabelTexts())


def _pair_lines(pairs) -> list[str]:
    return [f"{formats.format_point(x, ', ')} -> {formats.format_point(y, ', ')}"
            for x, y in pairs]


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
        f"witness_s: {formats.format_point(verdict.witness_s, ', ')}",
        f"witness_t: {formats.format_point(verdict.witness_t, ', ')}",
        f"source_label: {format_label(verdict.source_label)}",
        f"image_label_s: {format_label(verdict.image_label_s)}",
        f"image_label_t: {format_label(verdict.image_label_t)}",
    ]


# ---------------------------------------------------------------------------
# verb handlers


def _run_orbits(options):
    limit = formats.limit_by_name(options["structure"], _load_structures(options))
    n = count_orbits_g(AutLimit(limit), options["arity"])
    return 0, [f"orbits: {n}"]


def _run_behaviors(options):
    structures = _load_structures(options)
    source = formats.parse_group_spec(options["source"], structures)
    target = formats.parse_group_spec(options["target"], structures)
    try:
        tables = behaviors_mod.enumerate_behaviors(source, target, options["arity"],
                                                   options["budget"])
    except BudgetExhausted as exc:
        return 2, ["result: budget-exhausted", f"reason: {exc}"]
    texts = LabelTexts()
    lines = [f"behaviors: {len(tables)}"]
    for i, table in enumerate(tables):
        lines.append(f"table {i}:")
        lines.extend(formats.behavior_lines(table, texts))
    if "out" in options:
        text = "\n---\n".join(formats.dump_behavior(t, texts) for t in tables)
        _write_file(options["out"], text)
        lines.append(f"saved: {options['out']}")
    return 0, lines


def _run_check(options):
    f, source, target = _presentations(options)
    verdict = check_canonical(f, source, target, options["horizon"], options["arity"])
    return 0, _verdict_lines(verdict)


def _run_canonize(options):
    f, source, target = _presentations(options)
    if "constants" in options:
        consts = formats.load_points(pathlib.Path(options["constants"]).read_text())
        source, target = stabilized(source, target, consts, f)
    result = canonize(
        f, source, target, options["arity"], options["depth"], options["horizon"]
    )
    if isinstance(result, HorizonExhausted):
        return 2, ["result: horizon-exhausted", f"nodes: {result.nodes}"]
    lines = ["result: canonical-approximation"]
    lines.extend(_behavior_lines(result.behavior))
    if result.tower.seeds:
        lines.append("fixed:")
        lines.extend(_pair_lines(result.tower.seeds))
    lines.append("tower:")
    lines.extend(_pair_lines(result.tower.pairs))
    return 0, lines


def _run_pham(options):
    try:
        cert = symbolic.pham_refute(options["epsilon"], options["budget"])
    except BudgetExhausted as exc:
        return 2, ["result: budget-exhausted", f"reason: {exc}"]
    lines = formats.dump_certificate(cert).splitlines()
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
    f, source, target = _presentations(options)
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
    mapping.run_stages(options["points"])    # one committed pair per stage
    return 0, [f"iso: {mapping.name}"] + _pair_lines(mapping.committed)


_NEEDED = object()    # the default of a required option

_SCAN_OPTIONS = {"f": (str, _NEEDED), "source": (str, _NEEDED), "target": (str, _NEEDED),
                 "horizon": (int, _NEEDED), "arity": (int, _NEEDED),
                 "structures": (str, None)}

_VERBS = {
    "orbits": (_run_orbits, {"structure": (str, _NEEDED), "arity": (int, _NEEDED),
                             "structures": (str, None)}),
    "behaviors": (_run_behaviors, {"source": (str, _NEEDED), "target": (str, _NEEDED),
                                   "arity": (int, _NEEDED),
                                   "budget": (int, behaviors_mod.NODE_BUDGET),
                                   "out": (str, None), "structures": (str, None)}),
    "check": (_run_check, _SCAN_OPTIONS),
    "canonize": (_run_canonize, {"f": (str, _NEEDED), "source": (str, None),
                                 "target": (str, None), "arity": (int, _NEEDED),
                                 "depth": (int, _NEEDED), "horizon": (int, _NEEDED),
                                 "constants": (str, None), "structures": (str, None)}),
    "pham": (_run_pham, {"epsilon": (parse_rational, Fraction(1, 8)), "budget": (int, 4096)}),
    "limit": (_run_limit, {"age": (str, _NEEDED), "size": (int, _NEEDED),
                           "forbidden": (str, None)}),
    "verify-age": (_run_verify_age, {"age": (str, _NEEDED), "bound": (int, 3),
                                     "forbidden": (str, None)}),
    "harness": (_run_harness, _SCAN_OPTIONS),
    "iso": (_run_iso, {"source": (str, _NEEDED), "target": (str, _NEEDED),
                       "points": (int, _NEEDED)}),
}

_COMMON_OPTIONS = {"record": (str, None)}


def run(spec: CommandSpec) -> tuple[int, str]:
    """Dispatch a parsed command; returns (exit code, report text).

    Every failure is one `error:` line with exit code 1: package errors,
    bad values, unreadable inputs and unwritable outputs alike.
    """
    started = time.monotonic()
    try:
        code, lines = _VERBS[spec.verb][0](spec.options)
    except CanonFnError as exc:
        code, lines = 1, [f"error: {type(exc).__name__}: {exc}"]
    except ValueError as exc:
        code, lines = 1, [f"error: ValueError: {exc}"]
    except _WriteFailed as exc:
        code, lines = 1, [f"error: {exc}"]
    except FileNotFoundError as exc:
        code, lines = 1, [f"error: missing file: {exc.filename}"]
    except OSError as exc:
        code, lines = 1, [f"error: cannot read {exc.filename}: {exc.strerror}"]
    report = "\n".join(lines) + "\n"
    if "record" in spec.options:
        digest = hashlib.sha256(report.encode()).hexdigest()
        record = (
            f"command: {' '.join(spec.argv)}\n"
            "determinism: seedless; the report depends only on the command\n"
            f"version: canonfn 0.1.0, python {sys.version_info.major}.{sys.version_info.minor}\n"
            f"wall_time_ms: {int((time.monotonic() - started) * 1000)}\n"
            f"digest: sha256:{digest}\n"
        )
        try:
            _write_file(spec.options["record"], record)
        except _WriteFailed as exc:
            return 1, f"error: {exc}\n"
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
