"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion carries its own wall-clock bound.
"""

import itertools
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from canonfn import (
    AutLimit,
    BackAndForthOracle,
    CanonicalApproximation,
    CanonicalUpTo,
    ComposeOracle,
    ConstantOracle,
    Counterexample,
    IdentityOracle,
    LocalFailure,
    MinOracle,
    NegationOracle,
    StabilizerGroup,
    TowerWitness,
    automorphism_moving,
    build_limit,
    builtin_age,
    builtin_limit,
    canonical_iso,
    canonize,
    canonize_with_constants,
    check_canonical,
    count_orbits_g,
    enumerate_behaviors,
    local_equal,
    mono_subset,
    pham_refute,
    proposition_harness,
    punctured_rationals,
    qf_type,
    rationals_set,
    tower_witness,
)
from canonfn.cli import parse_command, run
from canonfn.formats import parse_oracle_spec
from canonfn.groups import label_key

from conftest import make_mixed, ordered_rado_table
from oracles import (
    count_weak_orders,
    find_order_isomorphism,
    mono_triple_exists,
    nth_extension,
)


def report_line(name, bound, started):
    elapsed = time.monotonic() - started
    status = "PASS" if elapsed < bound else "FAIL (overtime)"
    print(f"{status} {name}: {elapsed:.1f}s / {bound}s")
    assert elapsed < bound, f"{name} exceeded its {bound}s budget"


def cli(argv):
    return run(parse_command(argv))


def test_criterion_01_orbit_counts():
    started = time.monotonic()
    expected = [count_weak_orders(k) for k in (1, 2, 3, 4)]
    assert expected == [1, 3, 13, 75]
    for k, want in zip((1, 2, 3, 4), expected):
        code, report = cli(["orbits", "dlo", "--arity", str(k)])
        assert code == 0
        assert report == f"orbits: {want}\n"
    report_line("criterion 1 (orbit counts 1,3,13,75)", 5, started)


def test_criterion_01_rado_orbit_count_at_arity_6():
    # Counted without building the 53,071 type records (ROADMAP item 5).
    started = time.monotonic()
    code, report = cli(["orbits", "rado", "--arity", "6"])
    assert code == 0
    assert report == "orbits: 53071\n"
    report_line("criterion 1 (rado orbits at arity 6)", 1.5, started)


def test_criterion_01_stabilizer_orbit_count():
    # The anchored count (ROADMAP item 11 (b)): members on up to 6 points
    # extending the constant's diagram, not a filter over 53,071 records,
    # which took 3.7 s.
    started = time.monotonic()
    stab = StabilizerGroup(AutLimit(builtin_limit("rado")), (0,))
    assert count_orbits_g(stab, 5) == 53071
    report_line("criterion 1 (stab(aut(rado); 0) orbits at arity 5)", 1.5, started)


def test_criterion_02_behavior_taxonomy():
    started = time.monotonic()
    for arity in (2, 3):
        code, report = cli([
            "behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)",
            "--arity", str(arity),
        ])
        assert code == 0
        assert report.startswith("behaviors: 3\n")
    report_line("criterion 2 (three behaviors at arity 2 and 3)", 10, started)


def test_criterion_03_checker_soundness():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    aut = AutLimit(dlo)
    for oracle in (IdentityOracle(dlo, dlo), NegationOracle(dlo),
                   ConstantOracle(dlo, F(0)), ConstantOracle(dlo, F(-7, 3))):
        verdict = check_canonical(oracle, aut, aut, 16, 3)
        assert isinstance(verdict, CanonicalUpTo)
    refutable = [
        make_mixed(dlo),
        parse_oracle_spec("pieces:[(-inf,0):x; [0,inf):x*-1]"),
        parse_oracle_spec("pieces:[(-inf,0):-1; [0,inf):x]"),
    ]
    for oracle in refutable:
        verdict = check_canonical(oracle, aut, aut, 16, 3)
        assert isinstance(verdict, Counterexample)
        s, t = verdict.witness_s, verdict.witness_t
        assert qf_type(dlo, s) == qf_type(dlo, t) == verdict.source_label
        assert qf_type(dlo, tuple(oracle(p) for p in s)) == verdict.image_label_s
        assert qf_type(dlo, tuple(oracle(p) for p in t)) == verdict.image_label_t
        assert verdict.image_label_s != verdict.image_label_t
    report_line("criterion 3 (checker soundness, counterexamples recompute)", 10, started)


def test_criterion_03_check_stops_at_the_orbit_count_in_a_fresh_process():
    # Above arity 2 on a binary target the scan stops once it has met every
    # source label (ROADMAP item 8 (c)): here after 454,471 of the 60^5
    # tuples, for 541 labels.  Before, this did not end within 150 s.  The
    # bound covers the interpreter's start-up.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "canonfn", "check", "--f", "id",
                           "--source", "aut(dlo)", "--target", "aut(dlo)",
                           "--horizon", "60", "--arity", "5"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:3] == ["verdict: canonical-up-to", "horizon: 60", "arity: 5"]
    assert sum(line.startswith("5: ") for line in lines) == 541
    report_line("criterion 3 (check --f id, arity 5, h60, fresh process)", 3, started)


def test_criterion_04_canonisation_suite():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    aut = AutLimit(dlo)
    suite = [
        "id",
        "neg",
        "const:0",
        "pieces:[(-inf,0):x*-1; [0,inf):x]",
        "pieces:[(-inf,0):x; [0,inf):x*-1]",
        "pieces:[(-inf,0):x; [0,inf):x+1]",
        "pieces:[(-inf,-1):x*-1; [-1,1):0; [1,inf):x]",
        "pieces:[(-inf,-1):x+2; [-1,0):x*-1; [0,inf):x]",
        "pieces:[(-inf,0):-1; [0,inf):1]",
        "pieces:[(-inf,1):x*1/2; [1,inf):x*2]",
    ]
    taxonomy = {t.graph_key() for t in enumerate_behaviors(aut, aut, 2)}
    for spec in suite:
        oracle = parse_oracle_spec(spec)
        result = canonize(oracle, aut, aut, 2, 6, 64)
        assert isinstance(result, CanonicalApproximation), spec
        points = [x for x, _ in result.tower.pairs]
        verdict = check_canonical(result.sample, aut, aut, 6, 2, points=points)
        assert isinstance(verdict, CanonicalUpTo), spec
        assert result.behavior.graph_key() in taxonomy, spec
    report_line("criterion 4 (ten piecewise oracles canonize)", 60, started)


MIXED = "pieces:[(-inf,0):x*-1; [0,inf):x]"


@pytest.mark.parametrize("argv, depth, bound", [
    (["--f", MIXED, "--arity", "2", "--depth", "7", "--horizon", "128"], 7, 2),
    (["--f", MIXED, "--arity", "2", "--depth", "10", "--horizon", "256"], 10, 10),
    (["--f", "min", "--arity", "3", "--depth", "6", "--horizon", "64"], 6, 1),
], ids=["mixed-d7-h128", "mixed-d10-h256", "min-arity-3-d6-h64"])
def test_criterion_04_thrashing_searches(argv, depth, bound):
    # Thrashing searches: chronological backtracking took about 18 s, six
    # minutes and 1 s on them (ROADMAP, Baselines).  The golden corpus holds
    # the first one's report.
    started = time.monotonic()
    code, report = cli(["canonize"] + argv)
    assert code == 0
    assert len(report.split("tower:\n")[1].splitlines()) == depth
    report_line(f"criterion 4 (canonize {' '.join(argv[1:])})", bound, started)


def test_criterion_05_corollary_constants():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    result = canonize_with_constants(IdentityOracle(dlo, dlo), [F(0)], 2, 6, 64)
    assert isinstance(result, CanonicalApproximation)
    assert result.sample(F(0)) == F(0)
    stab = StabilizerGroup(AutLimit(dlo), (F(0),))
    one_types = [(s, t) for k, s, t in result.behavior.entries() if k == 1]
    assert len(one_types) == count_orbits_g(stab, 1) == 3
    min_result = canonize_with_constants(MinOracle(dlo, dlo), [], 2, 6, 64)
    assert isinstance(min_result, CanonicalApproximation)
    assert isinstance(min_result.certificate, CanonicalUpTo)
    assert min_result.certificate.arity == 2
    entries = min_result.behavior.entries()
    assert any(
        all(label_key(s[i]) == label_key(t) for _, s, t in entries)
        for i in (0, 1)
    )
    report_line("criterion 5 (corollary with constants, min projection)", 60, started)


def test_criterion_06_ramsey_engine():
    started = time.monotonic()
    pairs = list(itertools.combinations(range(1, 7), 2))
    for mask in range(1 << 15):
        coloring = {p: (mask >> i) & 1 for i, p in enumerate(pairs)}
        subset = mono_subset(coloring, 3)
        assert subset is not None, f"coloring {mask} has no monochromatic triple"
        a, b, c = subset
        assert coloring[(a, b)] == coloring[(b, c)] == coloring[(a, c)]
        if mask % 4096 == 0:
            assert mono_triple_exists(coloring)
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    pentagon = {
        (a, b): 1 if (a, b) in cycle else 2
        for a, b in itertools.combinations(range(1, 6), 2)
    }
    assert mono_subset(pentagon, 3) is None
    report_line("criterion 6 (Ramsey: K6 exhaustive, pentagon negative)", 30, started)


def test_criterion_07_pham_example():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    aut = AutLimit(dlo)
    f = BackAndForthOracle(canonical_iso(rationals_set(), punctured_rationals()), dlo)
    verdict = check_canonical(f, aut, aut, 16, 3)
    assert isinstance(verdict, CanonicalUpTo)
    increasing = [e for e in verdict.behavior.entries() if e[0] == 2]
    assert all(label_key(s) == label_key(t) for _, s, t in increasing)
    alpha = BackAndForthOracle(automorphism_moving(F(-1), F(0)), dlo)
    f_alpha = ComposeOracle(f, alpha)
    elements = [dlo.element(i) for i in range(12)]
    for size in range(1, 13):
        for fragment in itertools.combinations(elements, size):
            assert local_equal(f, f_alpha, fragment, aut)
    code, report = cli(["pham", "--epsilon", "1/8"])
    assert code == 0 and "verified: true" in report
    cert = pham_refute(F(1, 8))
    assert cert.violations() == []
    assert cert.epsilon < min(-cert.f_a, cert.falpha_a)
    report_line("criterion 7 (puncture isomorphism: canonical, local, certificate)", 30, started)


def test_criterion_07_back_and_forth_stages():
    # A stage pairs one point by lookups in the map's blocked pair index,
    # so 100,000 stages stay near-linear; two flat sorted columns of
    # Fractions took 4.9-5.5 s on a shared 2-vCPU machine.
    started = time.monotonic()
    f = canonical_iso(rationals_set(), punctured_rationals())
    f.run_stages(100_000)
    assert len(f.committed) == 100_000
    assert f.eval(F(-1)) == -1 and f.eval(F(0)) == 1
    report_line("criterion 7 (100,000 back-and-forth stages)", 4, started)


def test_criterion_08_lift_lemma():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    aut = AutLimit(dlo)
    f = BackAndForthOracle(canonical_iso(rationals_set(), punctured_rationals()), dlo)
    alpha = BackAndForthOracle(automorphism_moving(F(-1), F(0)), dlo)
    pair = (ComposeOracle(f, alpha), f)
    witness = tower_witness([pair], aut, 8)
    assert isinstance(witness, TowerWitness) and witness.depth == 8
    assert witness.check([pair], aut)
    failure = tower_witness([(IdentityOracle(dlo, dlo), NegationOracle(dlo))], aut, 2)
    assert isinstance(failure, LocalFailure)
    assert failure.index == 0 and len(failure.fragment) == 2
    report_line("criterion 8 (lift lemma towers)", 10, started)


def test_criterion_09_fraisse_cross_check():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    generic = build_limit(builtin_age("linear-orders"), 16)
    fragment = generic.fragment()
    rationals = [dlo.element(i) for i in range(16)]
    atoms = frozenset(
        ("<", (i, j))
        for i in range(16) for j in range(16)
        if rationals[i] < rationals[j]
    )
    from canonfn.fraisse import FiniteStructure, ORDER_SIG

    dlo_fragment = FiniteStructure(ORDER_SIG, 16, atoms)
    iso = find_order_isomorphism(fragment, dlo_fragment)
    assert iso is not None
    for i in range(16):
        for j in range(16):
            assert fragment.holds("<", (i, j)) == dlo_fragment.holds("<", (iso[i], iso[j]))
    graphs_age = builtin_age("graphs")
    limit = build_limit(graphs_age, 12)
    frag = limit.fragment()
    assert limit.demand_log
    for entry in limit.demand_log:
        prefix = frag.substructure(tuple(range(entry.prefix_size)))
        ext = nth_extension(graphs_age, prefix, entry.extension_index)
        realized = frag.substructure(tuple(range(entry.prefix_size)) + (entry.witness,))
        assert realized == ext
    report_line("criterion 9 (generic engine cross-checks)", 10, started)


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, bound", [
    (["--age", "graphs", "--size", "300"], 1.5),
    (["--age", "ordered-graphs", "--size", "120"], 1.5),
    (["--age", "forbidden", "--size", "40", "--forbidden", str(GOLDEN / "triangle-free.forbidden")],
     0.5),
], ids=["graphs-300", "ordered-graphs-120", "triangle-free-40"])
def test_criterion_09_limit_growth_in_a_fresh_process(argv, bound):
    # Growth takes local steps: no leaf check where step_ok is complete, no
    # absent set over all atoms.  Before, these took about 5.0, 5.9 and 3.8 s
    # (ROADMAP, Baselines).  The bound covers the interpreter's start-up.
    env = {**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src")}
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "canonfn", "limit"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"fragment: size {argv[3]};")
    report_line(f"criterion 9 (limit {' '.join(argv[:4])}, fresh process)", bound, started)


def test_criterion_10_proposition_harness():
    started = time.monotonic()
    dlo = builtin_limit("dlo")
    aut = AutLimit(dlo)
    seeds = [
        ((F(0),), (F(1),)),
        ((F(0), F(1)), (F(0), F(2))),
        ((F(1), F(0)), (F(2), F(0))),
        ((F(0), F(-1)), (F(1), F(0))),
    ]
    oracles = [
        NegationOracle(dlo),
        IdentityOracle(dlo, dlo),
        ConstantOracle(dlo, F(0)),
        make_mixed(dlo),
        parse_oracle_spec("pieces:[(-inf,0):x; [0,inf):x*-1]"),
    ]
    checked = 0
    for oracle in oracles:
        report = proposition_harness(oracle, aut, aut, 8, 2, seeds=seeds)
        refuted = isinstance(report.verdict, Counterexample)
        for result in report.seed_results:
            assert result.local_pass == result.tower_pass
            if not result.local_pass and result.tower_failure is not None:
                assert result.local_failure == result.tower_failure
            checked += 1
        local_fail = any(not r.local_pass for r in report.seed_results)
        assert refuted == local_fail
        assert report.agreement
    assert checked == 20
    report_line("criterion 10 (harness agreement on 20 samples)", 30, started)
    # Drawn tables on a generic limit: the harness reads them only on its
    # pool, so it neither leaves the table nor grows the limit.
    started = time.monotonic()
    for seed in range(8):
        f = ordered_rado_table(seed, 5)
        g = AutLimit(f.source)
        assert proposition_harness(f, g, g, 5, 2).agreement
        assert f.source.size == 5
    report_line("criterion 10 (harness on 8 ordered-rado tables, h5)", 2, started)
