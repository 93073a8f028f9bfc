import os
import pathlib
import subprocess
import sys
import time

import pytest

from canonfn import UsageError, builtin_age, cli
from canonfn.cli import main, parse_command, run
from canonfn.fraisse import GRAPH_SIG

import oracles


def run_argv(argv):
    return run(parse_command(argv))


class TestParseCommand:
    def test_orbits(self):
        spec = parse_command(["orbits", "--structure", "dlo", "--arity", "3"])
        assert spec.verb == "orbits"
        assert spec.options == {"structure": "dlo", "arity": 3}

    def test_positional_structure(self):
        spec = parse_command(["orbits", "dlo", "--arity", "2"])
        assert spec.options["structure"] == "dlo"

    def test_check_spec(self):
        spec = parse_command([
            "check", "--f", "neg", "--source", "aut(dlo)", "--target", "aut(dlo)",
            "--horizon", "8", "--arity", "2",
        ])
        assert spec.verb == "check" and spec.options["horizon"] == 8

    def test_unknown_verb(self):
        with pytest.raises(UsageError) as err:
            parse_command(["frobnicate"])
        assert err.value.token == "frobnicate"
        assert "orbits" in err.value.expected

    def test_unknown_option(self):
        with pytest.raises(UsageError) as err:
            parse_command(["orbits", "--weird", "1"])
        assert err.value.token == "--weird"

    def test_missing_value(self):
        with pytest.raises(UsageError):
            parse_command(["orbits", "--arity"])

    def test_bad_int(self):
        with pytest.raises(UsageError) as err:
            parse_command(["orbits", "dlo", "--arity", "three"])
        assert err.value.position == 3

    def test_missing_required(self):
        with pytest.raises(UsageError) as err:
            parse_command(["orbits", "dlo"])
        assert "--arity" in err.value.expected


class TestRun:
    def test_orbits_report(self):
        code, report = run_argv(["orbits", "dlo", "--arity", "2"])
        assert code == 0 and report == "orbits: 3\n"

    def test_behaviors_count(self):
        code, report = run_argv([
            "behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)", "--arity", "2"])
        assert code == 0
        assert report.startswith("behaviors: 3\n")

    def test_check_counterexample_is_definite(self):
        code, report = run_argv([
            "check", "--f", "pieces:[(-inf,0):x*-1; [0,inf):x]",
            "--source", "aut(dlo)", "--target", "aut(dlo)",
            "--horizon", "8", "--arity", "2",
        ])
        assert code == 0
        assert "verdict: counterexample" in report
        assert "witness_s: (0, -1)" in report

    def test_canonize_exhausted_exit_two(self):
        code, report = run_argv([
            "canonize", "--f", "pieces:[(-inf,0):x*-1; [0,inf):x]",
            "--source", "aut(dlo)", "--target", "aut(dlo)",
            "--arity", "2", "--depth", "6", "--horizon", "3",
        ])
        assert code == 2
        assert "result: horizon-exhausted" in report

    def test_unparseable_oracle_is_error(self):
        code, report = run_argv([
            "check", "--f", "wiggle", "--source", "aut(dlo)", "--target", "aut(dlo)",
            "--horizon", "4", "--arity", "2",
        ])
        assert code == 1 and report.startswith("error:")

    def test_pham_report(self):
        code, report = run_argv(["pham", "--epsilon", "1/8", "--budget", "512"])
        assert code == 0
        assert "certificate: pham-obstruction" in report
        assert "verified: true" in report

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_pham_nonpositive_budget_is_error(self, budget):
        code, report = run_argv(["pham", "--epsilon", "1/8", "--budget", budget])
        assert (code, report) == (1, "error: ValueError: budget must be positive\n")

    def test_pham_budget_exhausted_exit_two(self):
        code, report = run_argv(["pham", "--epsilon", "1/8", "--budget", "4"])
        assert code == 2
        assert "budget-exhausted" in report

    def test_behaviors_budget_exhausted_exit_two(self):
        # This source's table count explodes: without a budget the slot
        # search runs for minutes.
        argv = ["behaviors", "--source", "stab(power(aut(dlo),2); (0,1))",
                "--target", "aut(dlo)", "--arity", "2", "--budget", "1000"]
        started = time.monotonic()
        code, report = run_argv(argv)
        assert time.monotonic() - started < 3
        assert code == 2
        assert report.splitlines() == [
            "result: budget-exhausted",
            "reason: slot-search budget of 1000 nodes ran out; 21 tables found so far"]

    def test_behaviors_budget_zero_is_error(self):
        code, report = run_argv(["behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)",
                                 "--arity", "2", "--budget", "0"])
        assert (code, report) == (1, "error: ValueError: budget must be positive\n")

    def test_behaviors_budget_counts_slots_entered(self):
        # aut(dlo) at arity 2 has 1 + 3 slots and 3 tables: the slot search
        # enters 6 slots, so a budget of 6 suffices and 5 does not.
        argv = ["behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)", "--arity", "2"]
        assert run_argv(argv + ["--budget", "6"]) == run_argv(argv)
        code, report = run_argv(argv + ["--budget", "5"])
        assert code == 2 and report.endswith("; 2 tables found so far\n")

    def test_limit_and_verify_age(self):
        code, report = run_argv(["limit", "--age", "graphs", "--size", "4"])
        assert code == 0 and "demand prefix=1 extension=0 -> new 1" in report
        code, report = run_argv(["verify-age", "--age", "linear-orders", "--bound", "3"])
        assert code == 0 and "result: ok" in report

    def test_verify_age_reports_an_amalgamation_violation(self, tmp_path):
        # The cographs (no loop, no one-way edge, no induced path on 4
        # points) are hereditary, but two extensions of the 3-point
        # independent set do not amalgamate.
        forb = tmp_path / "cographs.forb"
        forb.write_text(
            "size 1; edge(0,0)\n"
            "size 2; edge(0,1)\n"
            "size 4; edge(0,1); edge(1,0); edge(1,2); edge(2,1); edge(2,3); edge(3,2)\n"
        )
        assert run_argv(["verify-age", "--age", "forbidden", "--forbidden", str(forb),
                         "--bound", "5"]) == (0, (
            "result: amalgamation-violation\n"
            "bound: 5\n"
            "detail: extensions of a size-3 member cannot be amalgamated\n"
            "witness: size 3\n"
            "witness: size 4; edge(1,3); edge(2,3); edge(3,1); edge(3,2)\n"
            "witness: size 4; edge(0,3); edge(2,3); edge(3,0); edge(3,2)\n"))

    def test_verify_age_reports_a_hereditariness_violation(self, monkeypatch):
        # A forbidden age is hereditary by construction, so a predicate age
        # (graphs without an edgeless pair) stands in for the parsed one.
        graphs = builtin_age("graphs")
        age = oracles.PredicateAge(
            GRAPH_SIG, lambda s: graphs.contains(s) and not (s.size == 2 and not s.atoms))
        monkeypatch.setattr(cli, "_age_from_options", lambda options: age)
        assert run_argv(["verify-age", "--age", "graphs", "--bound", "3"]) == (0, (
            "result: hereditariness-violation\n"
            "bound: 3\n"
            "detail: member of size 3 has a non-member induced substructure (dropped point 0)\n"
            "witness: size 3\n"
            "witness: size 2\n"))

    def test_iso_report(self):
        code, report = run_argv(["iso", "--source", "q", "--target", "q-minus-0", "--points", "3"])
        assert code == 0
        assert report.splitlines()[1:] == ["0 -> 1", "-1 -> -1", "1 -> 2"]

    def test_harness_report(self):
        code, report = run_argv([
            "harness", "--f", "neg", "--source", "aut(dlo)", "--target", "aut(dlo)",
            "--horizon", "5", "--arity", "2",
        ])
        assert code == 0 and "agreement: yes" in report

    def test_harness_reads_a_table_only_on_pool_and_seed_points(self, tmp_path):
        # No germ image of 1 lies in the pool {0, 1, -1, 1/2}, so a tower
        # grown past the clip would read the table at 2.
        table = tmp_path / "t.txt"
        table.write_text("0 -> -4\n1 -> -4\n-1 -> 0\n1/2 -> -3\n")
        assert run_argv(["harness", "--f", f"table:{table}", "--source", "aut(dlo)",
                         "--target", "aut(dlo)", "--horizon", "4", "--arity", "2"]) == (0, (
            "proxy-canonicity: fail\nproxy-local: fail\nproxy-tower: fail\nseeds: 65\n"
            "agreement: yes\nverdict: counterexample\narity: 2\nwitness_s: (0, 1)\n"
            "witness_t: (0, 1/2)\nsource_label: 1<2\nimage_label_s: 1=2\n"
            "image_label_t: 1<2\n"))

    def test_check_on_power_source(self):
        for f in ("min", "max"):
            code, report = run_argv([
                "check", "--f", f, "--source", "power(aut(dlo),2)",
                "--target", "aut(dlo)", "--horizon", "6", "--arity", "2",
            ])
            assert code == 0
            assert "verdict: counterexample" in report

    def test_orbits_with_structures_file(self, tmp_path):
        forb = tmp_path / "tf.forb"
        forb.write_text(
            "size 1; edge(0,0)\n"
            "size 2; edge(0,1)\n"
            "size 3; edge(0,1); edge(1,0); edge(0,2); edge(2,0); edge(1,2); edge(2,1)\n"
        )
        spec = tmp_path / "structures.txt"
        spec.write_text(f"structure tf = forbidden:{forb}\n")
        code, report = run_argv([
            "orbits", "tf", "--arity", "2", "--structures", str(spec)])
        assert code == 0 and report == "orbits: 3\n"
        code, report = run_argv([
            "orbits", "tf", "--arity", "3", "--structures", str(spec)])
        assert code == 0 and report == "orbits: 14\n"

    def test_limit_with_forbidden_age(self, tmp_path):
        forb = tmp_path / "tf.forb"
        forb.write_text(
            "size 1; edge(0,0)\n"
            "size 2; edge(0,1)\n"
            "size 3; edge(0,1); edge(1,0); edge(0,2); edge(2,0); edge(1,2); edge(2,1)\n"
        )
        code, report = run_argv([
            "limit", "--age", "forbidden", "--forbidden", str(forb), "--size", "5"])
        assert code == 0
        assert report.startswith("fragment: size 5;")


class TestScanSizeGuard:
    CHECK = ["check", "--f", "neg", "--source", "aut(dlo)", "--target", "aut(dlo)"]
    HARNESS = ["harness", "--f", "neg", "--source", "aut(dlo)", "--target", "aut(dlo)"]

    def test_check_arity_zero_is_error(self):
        code, report = run_argv(self.CHECK + ["--horizon", "8", "--arity", "0"])
        assert (code, report) == (1, "error: ValueError: arity must be positive\n")

    def test_check_negative_horizon_is_error(self):
        code, report = run_argv(self.CHECK + ["--horizon", "-3", "--arity", "2"])
        assert (code, report) == (1, "error: ValueError: horizon must be positive\n")

    def test_harness_arity_zero_is_error(self):
        code, report = run_argv(self.HARNESS + ["--horizon", "6", "--arity", "0"])
        assert (code, report) == (1, "error: ValueError: arity must be positive\n")

    def test_harness_below_the_target_arity_is_error(self):
        # At arity 1 the scan passed this map while its germ checks failed.
        assert run_argv(["harness", "--f", "pieces:[(-inf,0):x*-1; [0,inf):x]",
                         "--source", "aut(dlo)", "--target", "aut(dlo)",
                         "--horizon", "6", "--arity", "1"]) == (
            1, "error: ValueError: the harness needs arity at least 2 on target aut(dlo)\n")

    def test_check_arity_above_limit_is_error(self):
        code, report = run_argv(self.CHECK + ["--horizon", "40", "--arity", "7"])
        assert (code, report) == (1, "error: ArityLimitExceeded: arity 7 exceeds limit 6\n")


class TestCanonizeSizeGuard:
    CANONIZE = ["canonize", "--f", "neg", "--source", "aut(dlo)", "--target", "aut(dlo)"]

    def test_negative_depth_is_error(self):
        code, report = run_argv(self.CANONIZE + ["--arity", "2", "--depth", "-2",
                                                 "--horizon", "0"])
        assert (code, report) == (1, "error: ValueError: depth must be positive\n")

    def test_arity_zero_is_error(self):
        code, report = run_argv(self.CANONIZE + ["--arity", "0", "--depth", "3",
                                                 "--horizon", "8"])
        assert (code, report) == (1, "error: ValueError: arity must be positive\n")

    def test_zero_horizon_with_constants_is_error(self):
        code, report = run_argv(["canonize", "--f", "min", "--arity", "2", "--depth", "3",
                                 "--horizon", "0"])
        assert (code, report) == (1, "error: ValueError: horizon must be positive\n")


@pytest.mark.parametrize("spelling,canonical,source", [
    # The pieces out of order: the first piece's lower bound rejects x < 0.
    ("pieces:[[0,inf):x; (-inf,0):x*-1]", "pieces:[(-inf,0):x*-1; [0,inf):x]", "aut(dlo)"),
    ("pieces:[(-inf,0):-x; [0,inf):x]", "pieces:[(-inf,0):x*-1; [0,inf):x]", "aut(dlo)"),
    ("pieces:[(-inf,0):x*-1;; [0,inf):x]", "pieces:[(-inf,0):x*-1; [0,inf):x]", "aut(dlo)"),
    ("proj:2", "proj:2/2", "power(aut(dlo),2)"),
])
def test_oracle_spellings_check_as_their_canonical_form(spelling, canonical, source):
    argv = ["check", "--source", source, "--target", "aut(dlo)", "--horizon", "6",
            "--arity", "2", "--f"]
    assert run_argv(argv + [spelling]) == run_argv(argv + [canonical])


class TestOracleFitsSource:
    def check(self, spec, source="aut(dlo)", target="aut(dlo)"):
        return run_argv(["check", "--f", spec, "--source", source, "--target", target,
                         "--horizon", "6", "--arity", "2"])

    def test_zero_denominator_is_error(self):
        assert self.check("const:1/0") == (
            1, "error: ValueError: zero denominator in '1/0'\n")

    def test_projection_coordinate_out_of_range_is_error(self):
        assert self.check("proj:3/2", source="power(aut(dlo),2)") == (
            1, "error: ValueError: projection coordinate 3 outside 1..2\n")

    def test_binary_oracle_on_unary_source_is_error(self):
        assert self.check("min") == (
            1, "error: ValueError: oracle min takes 2-column points; "
               "aut(dlo) acts on 1-column points\n")

    def test_rational_oracle_on_rado_is_error(self):
        assert self.check("neg", "aut(rado)", "aut(rado)") == (
            1, "error: ValueError: negation is a dlo oracle\n")
        assert self.check("const:1/2", "aut(rado)", "aut(rado)") == (
            1, "error: ValueError: oracle const:1/2 maps rationals; "
               "rado is not the rational order\n")

    def test_target_with_other_point_arity_is_error(self):
        assert self.check("neg", target="power(aut(dlo),2)") == (
            1, "error: ValueError: oracle neg gives 1-column points; "
               "power(aut(dlo),2) acts on 2-column points\n")

    def test_target_on_other_structure_is_error(self):
        error = (1, "error: ValueError: oracle id gives values in dlo; aut(rado) acts on rado\n")
        assert self.check("id", target="aut(rado)") == error
        assert run_argv(["harness", "--f", "id", "--source", "aut(dlo)", "--target", "aut(rado)",
                         "--horizon", "5", "--arity", "2"]) == error


class TestCanonizeSources:
    SIZES = ["--arity", "2", "--depth", "3", "--horizon", "8"]
    STAB = "stab(power(aut(dlo),2); (0,1))"

    def canonize(self, spec, *options):
        return run_argv(["canonize", "--f", spec, *options, *self.SIZES])

    def test_stabilized_power_source_is_honored(self):
        code, report = self.canonize("min", "--source", self.STAB)
        assert code == 0
        assert report == (
            "result: canonical-approximation\n"
            "behavior:\n"
            "1: (1=2 * 1=2) -> 1\n"
            "1: (1=2 * 1<2) -> 1\n"
            "1: (2<1 * 1<2) -> 1\n"
            "2: (1=2=3 * 1=2=3) -> 1=2\n"
            "2: (1=2=3 * 1=2<3) -> 1=2\n"
            "2: (1=2=3 * 2<1=3) -> 1=2\n"
            "2: (1=2=3 * 1<2=3) -> 1=2\n"
            "2: (3<1=2 * 1=2<3) -> 1=2\n"
            "2: (1=3<2 * 1=2<3) -> 1=2\n"
            "2: (1=3<2 * 2<1=3) -> 1=2\n"
            "2: (2=3<1 * 1=2<3) -> 1=2\n"
            "2: (2=3<1 * 1<2=3) -> 1=2\n"
            "fixed:\n"
            "(0, 1) -> (0, 1)\n"
            "tower:\n"
            "(0, 0) -> (0, 0)\n"
            "(1, 0) -> (1, 0)\n"
        )

    def test_constants_stabilize_source_and_target(self, tmp_path):
        consts = tmp_path / "consts.txt"
        consts.write_text("(0,1)\n")
        code, report = self.canonize("min", "--constants", str(consts))
        assert code == 0
        lines = report.splitlines()
        assert lines[2] == "1: (1=2 * 1=2) -> 1=2"
        assert lines[-5:] == ["fixed:", "(0, 1) -> (0, 1)", "tower:",
                              "(0, 0) -> (0, 0)", "(1, 0) -> (1, 0)"]

    def test_constants_with_stabilizer_source_is_error(self, tmp_path):
        consts = tmp_path / "consts.txt"
        consts.write_text("(0,1)\n")
        assert self.canonize("min", "--source", self.STAB, "--constants", str(consts)) == (
            1, "error: PresentationError: stabilizer base must be aut or power(aut)\n")

    def test_constant_with_wrong_column_count_is_error(self, tmp_path):
        zero, pair = tmp_path / "zero.txt", tmp_path / "pair.txt"
        zero.write_text("0\n")
        pair.write_text("(0,1)\n")
        assert self.canonize("min", "--constants", str(zero)) == (
            1, "error: PresentationError: constant (0) does not fit power(aut(dlo),2), "
               "which acts on 2-column points\n")
        assert self.canonize("neg", "--constants", str(pair)) == (
            1, "error: PresentationError: constant (0, 1) does not fit aut(dlo), "
               "which acts on 1-column points\n")

    def test_stabilizer_source_is_refused_before_constant_width(self, tmp_path):
        # StabilizerGroup checks its base before the constants' width.
        zero, pair = tmp_path / "zero.txt", tmp_path / "pair.txt"
        zero.write_text("0\n")
        pair.write_text("(0,1)\n")
        error = (1, "error: PresentationError: stabilizer base must be aut or power(aut)\n")
        assert self.canonize("neg", "--source", "stab(aut(dlo); 0)",
                             "--constants", str(pair)) == error
        assert self.canonize("min", "--source", self.STAB, "--constants", str(zero)) == error


class TestStabilizerConstantsFitBase:
    PAIR = "stab(aut(dlo); (0,1))"
    BARE = "stab(power(aut(dlo),2); 0)"
    PAIR_ERROR = ("error: PresentationError: constant (0, 1) does not fit aut(dlo), "
                  "which acts on 1-column points\n")
    BARE_ERROR = ("error: PresentationError: constant (0) does not fit "
                  "power(aut(dlo),2), which acts on 2-column points\n")

    def test_check_with_pair_constant_on_aut(self):
        assert run_argv(["check", "--f", "neg", "--source", self.PAIR, "--target", "aut(dlo)",
                         "--horizon", "4", "--arity", "2"]) == (1, self.PAIR_ERROR)

    def test_check_with_bare_constant_on_power(self):
        assert run_argv(["check", "--f", "min", "--source", self.BARE, "--target", "aut(dlo)",
                         "--horizon", "4", "--arity", "2"]) == (1, self.BARE_ERROR)

    def test_canonize_with_pair_constant_on_aut(self):
        assert run_argv(["canonize", "--f", "neg", "--source", self.PAIR, "--target", "aut(dlo)",
                         "--arity", "2", "--depth", "3", "--horizon", "8"]) == (1, self.PAIR_ERROR)

    def test_behaviors_with_pair_constant_on_aut(self):
        assert run_argv(["behaviors", "--source", self.PAIR, "--target", "aut(dlo)",
                         "--arity", "1"]) == (1, self.PAIR_ERROR)

    def test_fitting_constants_are_accepted(self):
        code, _ = run_argv(["behaviors", "--source", "stab(power(aut(dlo),2); (0,1))",
                            "--target", "aut(dlo)", "--arity", "1"])
        assert code == 0


POWER_1_ERROR = (1, "error: PresentationError: power arity must be at least 2\n")


@pytest.mark.parametrize("argv", [
    ["check", "--f", "id", "--source", "stab(power(aut(dlo),1); 0)", "--target", "aut(dlo)",
     "--horizon", "4", "--arity", "2"],
    ["check", "--f", "id", "--source", "aut(dlo)", "--target", "power(aut(dlo),1)",
     "--horizon", "4", "--arity", "2"],
    ["canonize", "--f", "proj:1/1", "--source", "power(aut(dlo),1)", "--arity", "1",
     "--depth", "2", "--horizon", "4"],
], ids=["stab-source", "target", "canonize-source"])
def test_power_of_one_column_is_error(argv):
    assert run_argv(argv) == POWER_1_ERROR


class TestOraclesThatCannotFit:
    SCAN = ["--source", "aut(dlo)", "--target", "aut(dlo)", "--horizon", "4", "--arity", "1"]
    PROJ_ERROR = (1, "error: ValueError: projection needs at least 2 columns, not 1\n")

    @pytest.mark.parametrize("verb", ["check", "harness"])
    def test_one_column_projection(self, verb):
        assert run_argv([verb, "--f", "proj:1/1", *self.SCAN]) == self.PROJ_ERROR

    def test_one_column_projection_in_canonize(self):
        assert run_argv(["canonize", "--f", "proj:1/1", "--arity", "1", "--depth", "2",
                         "--horizon", "4"]) == self.PROJ_ERROR

    def test_compose_with_binary_outer_oracle(self):
        assert run_argv(["check", "--f", "compose(min,min)", "--source", "power(aut(dlo),2)",
                         "--target", "aut(dlo)", "--horizon", "4", "--arity", "1"]) == (
            1, "error: ValueError: compose needs a 1-column outer oracle; "
               "min takes 2-column points\n")

    def test_compose_with_projection_outer_oracle_names_its_columns(self):
        assert run_argv(["check", "--f", "compose(proj:1/2,id)", "--source", "power(aut(dlo),2)",
                         "--target", "aut(dlo)", "--horizon", "4", "--arity", "1"]) == (
            1, "error: ValueError: compose needs a 1-column outer oracle; "
               "proj:1/2 takes 2-column points\n")


@pytest.mark.parametrize("literal", ["(1,x)", "(1,)", "x"])
def test_bad_point_literal_is_format_error(literal):
    assert run_argv(["behaviors", "--source", f"stab(aut(dlo); {literal})",
                     "--target", "aut(dlo)", "--arity", "1"]) == (
        1, f"error: FormatError: line 0: bad point literal {literal!r}\n")


@pytest.mark.parametrize("argv", [
    ["limit", "--age", "forbidden", "--size", "3"],
    ["verify-age", "--age", "forbidden"],
], ids=["limit", "verify-age"])
def test_forbidden_age_without_file_is_error(argv):
    assert run_argv(argv) == (
        1, "error: ValueError: --age forbidden needs --forbidden <file>\n")


@pytest.mark.parametrize("argv", [
    ["limit", "--age", "graphs", "--size", "3"],
    ["verify-age", "--age", "linear-orders", "--bound", "3"],
], ids=["limit", "verify-age"])
def test_forbidden_file_with_another_age_is_error(argv):
    forbidden = pathlib.Path(__file__).parent / "golden" / "triangle-free.forbidden"
    assert run_argv(argv + ["--forbidden", str(forbidden)]) == (
        1, "error: ValueError: --forbidden needs --age forbidden\n")


@pytest.mark.parametrize("spec", ["stab(power(aut(dlo),1); x)", "power(power(aut(dlo),1),2)"])
def test_innermost_presentation_fault_is_reported(spec):
    # A presentation is checked as it is made, innermost first, so the
    # one-column power is named before the point literal or the power base.
    assert run_argv(["behaviors", "--source", spec, "--target", "aut(dlo)", "--arity", "1"]) == (
        1, "error: PresentationError: power arity must be at least 2\n")


@pytest.mark.parametrize("f", ["table:{path}", "compose(table:{path},id)",
                               "compose(table:{neg},neg)"])
def test_partial_table_names_the_missing_point(tmp_path, f):
    (tmp_path / "t.txt").write_text("0 -> 0\n1 -> 1\n")
    (tmp_path / "neg.txt").write_text("0 -> 0\n-1 -> 1\n")
    f = f.format(path=tmp_path / "t.txt", neg=tmp_path / "neg.txt")
    assert run_argv(["check", "--f", f, "--source", "aut(dlo)", "--target", "aut(dlo)",
                     "--horizon", "4", "--arity", "2"]) == (
        1, "error: DomainGap: oracle undefined at -1\n")


def test_bad_constant_reports_its_line(tmp_path):
    consts = tmp_path / "consts.txt"
    consts.write_text("# pairs\n(0,1)\n(1,x)\n")
    assert run_argv(["canonize", "--f", "min", "--arity", "2", "--depth", "2", "--horizon", "4",
                     "--constants", str(consts)]) == (
        1, "error: FormatError: line 3: bad point literal '(1,x)'\n")


@pytest.mark.parametrize("constant", ["-1", "1/2"])
def test_stabilizer_constant_must_be_an_element(constant):
    assert run_argv(["behaviors", "--source", f"stab(aut(rado);{constant})",
                     "--target", "aut(rado)", "--arity", "1"]) == (
        1, f"error: PresentationError: constant {constant} is not an element of rado\n")


@pytest.mark.parametrize("verb", ["check", "canonize"])
@pytest.mark.parametrize("value", ["1/2", "-1"])
def test_table_value_must_be_an_element(tmp_path, verb, value):
    # On rado an element is a vertex index: 1/2 would be read as 0, and -1
    # as a vertex without atoms.
    table = tmp_path / "t.txt"
    table.write_text(f"0 -> {value}\n1 -> 1\n2 -> 2\n")
    depth = ["--depth", "2"] if verb == "canonize" else []
    assert run_argv([verb, "--f", f"table:{table}", "--source", "aut(rado)",
                     "--target", "aut(rado)", "--horizon", "3", "--arity", "2", *depth]) == (
        1, f"error: ValueError: table value {value} at 0 is not an element of rado\n")


@pytest.mark.parametrize("arity", ["0", "-2"])
def test_behaviors_nonpositive_arity_is_error(arity):
    assert run_argv(["behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)",
                     "--arity", arity]) == (1, "error: ValueError: arity must be positive\n")


def test_behaviors_arity_above_limit_keeps_its_message():
    assert run_argv(["behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)",
                     "--arity", "7"]) == (1, "error: ArityLimitExceeded: arity 7 exceeds limit 6\n")


def test_behaviors_stabilizer_arity_is_the_given_arity():
    # The constant adds a position to each source record; the guardrail reads
    # --arity alone, as check does on the same source.
    argv = ["behaviors", "--source", "stab(aut(pureset); 0)", "--target", "aut(pureset)",
            "--budget", "1", "--arity"]
    assert run_argv(argv + ["6"]) == (2, (
        "result: budget-exhausted\n"
        "reason: slot-search budget of 1 nodes ran out; 0 tables found so far\n"))
    assert run_argv(argv + ["7"]) == (1, "error: ArityLimitExceeded: arity 7 exceeds limit 6\n")


class TestFileErrors:
    """Unreadable inputs and unwritable outputs end in one `error:` line."""

    NEG = ["--source", "aut(dlo)", "--target", "aut(dlo)", "--horizon", "4", "--arity", "1"]

    @pytest.mark.parametrize("argv", [
        ["orbits", "dlo", "--arity", "2", "--structures", "{path}"],
        ["limit", "--age", "forbidden", "--size", "3", "--forbidden", "{path}"],
        ["verify-age", "--age", "forbidden", "--forbidden", "{path}"],
        ["check", "--f", "table:{path}", *NEG],
        ["canonize", "--f", "neg", "--arity", "2", "--depth", "2", "--horizon", "4",
         "--constants", "{path}"],
    ], ids=["structures", "forbidden", "verify-forbidden", "table", "constants"])
    def test_input_is_a_directory(self, tmp_path, argv):
        path = str(tmp_path)
        argv = [a.replace("{path}", path) for a in argv]
        assert run_argv(argv) == (1, f"error: cannot read {path}: Is a directory\n")

    def test_input_without_permission(self, tmp_path, monkeypatch):
        path = tmp_path / "structures.txt"
        path.write_text("structure d = builtin:dlo\n")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(path), "read_text", refuse)
        assert run_argv(["orbits", "d", "--arity", "2", "--structures", str(path)]) == (
            1, f"error: cannot read {path}: Permission denied\n")

    def test_missing_input_keeps_its_message(self, tmp_path):
        path = str(tmp_path / "absent.txt")
        assert run_argv(["orbits", "dlo", "--arity", "2", "--structures", path]) == (
            1, f"error: missing file: {path}\n")

    def test_out_is_a_directory(self, tmp_path):
        assert run_argv(["behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)",
                         "--arity", "1", "--out", str(tmp_path)]) == (
            1, f"error: cannot write {tmp_path}: Is a directory\n")

    def test_out_in_missing_directory(self, tmp_path):
        path = tmp_path / "no" / "tables.txt"
        assert run_argv(["behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)",
                         "--arity", "1", "--out", str(path)]) == (
            1, f"error: cannot write {path}: No such file or directory\n")

    def test_record_in_missing_directory(self, tmp_path):
        path = tmp_path / "no" / "r.txt"
        assert run_argv(["orbits", "dlo", "--arity", "2", "--record", str(path)]) == (
            1, f"error: cannot write {path}: No such file or directory\n")

    def test_record_without_permission(self, tmp_path, monkeypatch):
        path = tmp_path / "r.txt"

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(path), "write_text", refuse)
        assert run_argv(["orbits", "dlo", "--arity", "2", "--record", str(path)]) == (
            1, f"error: cannot write {path}: Permission denied\n")

    def test_record_of_an_error_report_is_written(self, tmp_path):
        path = tmp_path / "r.txt"
        code, _ = run_argv(["orbits", "dlo", "--arity", "0", "--record", str(path)])
        assert code == 1 and "digest: sha256:" in path.read_text()


def test_iso_nonpositive_points_is_error():
    code, report = run_argv(["iso", "--source", "q", "--target", "q", "--points", "-1"])
    assert (code, report) == (1, "error: ValueError: points must be positive\n")


class TestDeterminismAndRecords:
    def test_reports_byte_identical(self):
        argv = ["canonize", "--f", "pieces:[(-inf,0):x*-1; [0,inf):x]",
                "--source", "aut(dlo)", "--target", "aut(dlo)",
                "--arity", "2", "--depth", "5", "--horizon", "32"]
        first = run_argv(argv)
        second = run_argv(argv)
        assert first == second

    def test_record_digests_identical(self, tmp_path):
        rec1, rec2 = tmp_path / "a.rec", tmp_path / "b.rec"
        base = ["orbits", "dlo", "--arity", "2"]
        run_argv(base + ["--record", str(rec1)])
        run_argv(base + ["--record", str(rec2)])
        digest1 = [l for l in rec1.read_text().splitlines() if l.startswith("digest:")]
        digest2 = [l for l in rec2.read_text().splitlines() if l.startswith("digest:")]
        assert digest1 == digest2

    def test_main_prints_and_returns(self, capsys):
        code = main(["orbits", "dlo", "--arity", "1"])
        assert code == 0
        assert capsys.readouterr().out == "orbits: 1\n"

    def test_main_usage_error(self, capsys):
        code = main(["orbits", "--bogus", "x"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = ["orbits", "dlo", "--arity", "2"]
    done = subprocess.run([sys.executable, "-m", "canonfn", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_argv(argv)[1]
