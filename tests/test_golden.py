"""Golden corpus: the exact report and exit code of fixed CLI commands.

Each case in golden/cases.json names an argv; golden/<name>.txt holds the
expected exit code on its first line (`exit: N`) and the report after it.
`{golden}` in an argv stands for the golden directory.  The whole corpus is
also replayed in a fresh interpreter and, in process, in reverse order, so
a report can depend neither on what ran before it nor on what did not.
Regenerate the files only on purpose, after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from canonfn.cli import parse_command, run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _outcome(case) -> str:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in case["argv"]]
    code, report = run(parse_command(argv))
    return f"exit: {code}\n{report}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case):
    expected = (GOLDEN / f"{case['name']}.txt").read_text()
    assert _outcome(case) == expected


def _expected() -> dict:
    return {c["name"]: (GOLDEN / f"{c['name']}.txt").read_text() for c in CASES}


def test_fresh_process_matches_golden():
    env = {**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src")}
    dump = ("import json, test_golden as t; "
            "print(json.dumps({c['name']: t._outcome(c) for c in t.CASES}))")
    done = subprocess.run([sys.executable, "-c", dump], cwd=GOLDEN.parent, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == _expected()


def test_reverse_order_matches_golden():
    got = {c["name"]: _outcome(c) for c in reversed(CASES)}
    assert got == _expected()


def test_golden_files_match_cases():
    names = {f"{c['name']}.txt" for c in CASES}
    assert len(names) == len(CASES)
    assert {p.name for p in GOLDEN.glob("*.txt")} == names


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    for case in CASES:
        (GOLDEN / f"{case['name']}.txt").write_text(_outcome(case))
