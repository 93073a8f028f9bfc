"""The CLI grammar: what parse_command accepts, fills in and reports.

The expected tuples of usage errors are part of the contract (they are
printed after `expected:`), so they are pinned exactly, in table order.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from canonfn import UsageError, cli
from canonfn.cli import parse_command, run

VERBS = ("orbits", "behaviors", "check", "canonize", "pham",
         "limit", "verify-age", "harness", "iso")

# verb -> (every option, in table order; the options a bare verb lacks)
GRAMMAR = {
    "orbits": (("structure", "arity", "structures"), ("structure", "arity")),
    "behaviors": (("source", "target", "arity", "budget", "out", "structures"),
                  ("source", "target", "arity")),
    "check": (("f", "source", "target", "horizon", "arity", "structures"),
              ("f", "source", "target", "horizon", "arity")),
    "canonize": (("f", "source", "target", "arity", "depth", "horizon", "constants",
                  "structures"),
                 ("f", "arity", "depth", "horizon")),
    "pham": (("epsilon", "budget"), ()),
    "limit": (("age", "size", "forbidden"), ("age", "size")),
    "verify-age": (("age", "bound", "forbidden"), ("age",)),
    "harness": (("f", "source", "target", "horizon", "arity", "structures"),
                ("f", "source", "target", "horizon", "arity")),
    "iso": (("source", "target", "points"), ("source", "target", "points")),
}


def _flags(names):
    return tuple(f"--{n}" for n in names)


def _usage_error(argv) -> UsageError:
    with pytest.raises(UsageError) as err:
        parse_command(argv)
    return err.value


@pytest.mark.parametrize("argv", [[], ["frobnicate"]], ids=["missing", "unknown"])
def test_verb_list(argv):
    assert _usage_error(argv).expected == VERBS


@pytest.mark.parametrize("verb", VERBS)
def test_unknown_option_lists_every_option(verb):
    err = _usage_error([verb, "--zzz", "1"])
    assert str(err) == "unknown option '--zzz'"
    assert err.expected == _flags(GRAMMAR[verb][0] + ("record",))


@pytest.mark.parametrize("verb", [v for v in VERBS if "structures" not in GRAMMAR[v][0]])
def test_structures_only_where_it_is_read(verb):
    # Verbs that read no structure or group spec refuse --structures
    # instead of ignoring it.
    err = _usage_error([verb, "--structures", "/nonexistent/x"])
    assert str(err) == "unknown option '--structures'"
    assert err.expected == _flags(GRAMMAR[verb][0] + ("record",))


@pytest.mark.parametrize("verb", [v for v in VERBS if GRAMMAR[v][1]])
def test_bare_verb_lists_missing_options(verb):
    err = _usage_error([verb])
    missing = _flags(GRAMMAR[verb][1])
    assert str(err) == f"missing required options for {verb}: {', '.join(missing)}"
    assert err.expected == missing


def test_defaults():
    assert parse_command(["pham"]).options == {"epsilon": Fraction(1, 8), "budget": 4096}
    assert parse_command(["verify-age", "--age", "graphs"]).options == {
        "age": "graphs", "bound": 3}
    assert parse_command(["pham", "--budget", "7"]).options["budget"] == 7


@pytest.mark.parametrize("argv,parser", [
    (["orbits", "dlo", "--arity", "x"], "int"),
    (["pham", "--epsilon", "1/0"], "parse_rational"),
    (["pham", "--budget", "1/2"], "int"),
])
def test_bad_value_names_the_parser(argv, parser):
    err = _usage_error(argv)
    assert str(err) == f"bad value {argv[-1]!r} for {argv[-2]}"
    assert err.expected == (parser,)


def test_record_lines(tmp_path):
    path = tmp_path / "r.txt"
    argv = ["orbits", "dlo", "--arity", "2", "--record", str(path)]
    assert run(parse_command(argv)) == (0, "orbits: 3\n")
    lines = path.read_text().splitlines()
    assert lines[3].startswith("wall_time_ms: ")
    assert lines[:3] + lines[4:] == [
        f"command: {' '.join(argv)}",
        "determinism: seedless; the report depends only on the command",
        f"version: canonfn 0.1.0, python {sys.version_info.major}.{sys.version_info.minor}",
        "digest: sha256:fc753274bf6c2713072a32b195efd51a6b03a3a539faeed85051fdab3df54708",
    ]


# ---------------------------------------------------------------------------
# grammar fuzzer: every command ends in a report (exit 0 or 2) or in exactly
# one `error:` line (exit 1), never in an exception out of run().  Each
# option draws from a pool of (well-formed, ill-formed) values.

INTS = (["1", "2", "3"], ["-1", "0"])
GROUPS = (
    ["aut(dlo)", "aut(rado)", "aut(pureset)", "aut(d)", "aut(ordered-rado)",
     "power(aut(dlo),2)", "stab(aut(dlo); 0)", "stab(power(aut(dlo),2); (0,1))",
     "stab(aut(rado); 1)"],
    ["power(aut(dlo),1)", "stab(power(aut(dlo),1); 0)", "stab(aut(dlo); (1,x))",
     "stab(aut(dlo); (1,))", "stab(aut(dlo); x)", "stab(aut(dlo); (0,1))",
     "power(aut(dlo),x)", "aut(nowhere)", "wiggle", "power(power(aut(dlo),2),2)",
     "stab(stab(aut(dlo); 0); 1)", "stab(aut(dlo); )", "stab(power(aut(dlo),1); x)"],
)
# behaviors enumerates every table.  With a two-column group or a stabilizer
# of rado on either side the table count explodes from arity 2 or 3 on, so
# behaviors always gets a small --budget and ends in exit 2 on most such
# draws.  stab(power(aut(dlo),2); (0,1)) stays out: its arity-3 labels alone
# take about a second per draw, before the budget counts.
BEHAVIOR_GROUPS = ([g for g in GROUPS[0] if not g.startswith("stab(power")], GROUPS[1])
BUDGETS = (["1", "16", "256", "4096"], INTS[1])
ALWAYS_GIVEN = {("behaviors", "budget")}
ORACLES = (
    ["id", "neg", "min", "max", "proj:1/2", "proj:2/2", "const:1/2", "pham",
     "compose(neg,min)", "pieces:[(-inf,0):x*-1; [0,inf):x]", "table:{table}"],
    ["proj:1/1", "proj:3/2", "const:1/0", "compose(min,min)", "table:{missing}",
     "table:{dir}", "wiggle"],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    contents = {
        "table": "0 -> 1\n1 -> 0\n-1 -> 2\n",
        "one": "0\n", "pair": "(0,1)\n", "bad_point": "(1,x)\n",
        "forbidden": "size 2; edge(0,1)\n",
        "structures": "structure d = builtin:dlo\n", "bad_structures": "structure\n",
    }
    paths = {"dir": str(d), "missing": str(d / "absent.txt"),
             "unwritable": str(d / "no" / "out.txt"), "out": str(d / "out.txt")}
    for name, text in contents.items():
        (d / name).write_text(text)
        paths[name] = str(d / name)
    return paths


def _pools(files, verb) -> dict:
    inputs = [files["missing"], files["dir"]]
    dense = (["q", "q-minus-0"], ["z"])
    pools = {
        "structure": (["dlo", "pureset", "rado", "ordered-rado", "d"], ["nowhere"]),
        "source": GROUPS, "target": GROUPS,
        "f": tuple([o.format(**files) for o in side] for side in ORACLES),
        "constants": ([files["one"], files["pair"]], [files["bad_point"], *inputs]),
        "epsilon": (["1/8", "1/2"], ["0", "-1", "1/0", "x"]),
        "age": (["graphs", "linear-orders", "ordered-graphs", "pure-sets", "forbidden"],
                ["nowhere"]),
        "forbidden": ([files["forbidden"]], [files["table"], *inputs]),
        "out": ([files["out"]], [files["dir"], files["unwritable"]]),
        "structures": ([files["structures"]], [files["bad_structures"], *inputs]),
    }
    pools["record"] = pools["out"]
    if verb == "iso":
        pools["source"] = pools["target"] = dense
    if verb == "behaviors":
        pools["source"] = pools["target"] = BEHAVIOR_GROUPS
        pools["arity"] = (INTS[0], INTS[1])
        pools["budget"] = BUDGETS
    return pools


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_ends_in_one_of_three_ways(files, data):
    verb = data.draw(st.sampled_from(list(cli._VERBS)))
    pools = _pools(files, verb)
    pairs = []
    for key, (parser, default) in {**cli._VERBS[verb][1], **cli._COMMON_OPTIONS}.items():
        # Required options are dropped one time in eight, optional ones
        # given one time in three; one value in four is ill-formed.
        if (verb, key) in ALWAYS_GIVEN:
            keep = True
        elif default is cli._NEEDED:
            keep = data.draw(st.integers(0, 7)) > 0
        else:
            keep = data.draw(st.integers(0, 2)) == 0
        if keep:
            good, bad = pools.get(key, INTS) if parser is int else pools[key]
            pool = bad if data.draw(st.integers(0, 3)) == 0 else good
            pairs.append((f"--{key}", data.draw(st.sampled_from(pool))))
    argv = [verb] + [t for pair in data.draw(st.permutations(pairs)) for t in pair]
    try:
        spec = parse_command(argv)
    except UsageError:
        return
    code, report = run(spec)
    lines = report.splitlines()
    assert report.endswith("\n")
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), report
    else:
        assert code in (0, 2), report
        assert not any(line.startswith("error") for line in lines), report


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_well_formed_behaviors_commands_report(files, data):
    # Only well-formed values, so every draw reaches the table search: it
    # ends in a report (exit 0) or in an exhausted budget (exit 2).
    groups = [data.draw(st.sampled_from(BEHAVIOR_GROUPS[0])) for _ in range(2)]
    argv = ["behaviors", "--source", groups[0], "--target", groups[1],
            "--arity", str(data.draw(st.integers(1, 3))),
            "--budget", data.draw(st.sampled_from(BUDGETS[0]))]
    if "aut(d)" in groups:
        argv += ["--structures", files["structures"]]
    code, report = run(parse_command(argv))
    assert code in (0, 2), report
    assert not any(line.startswith("error") for line in report.splitlines()), report
