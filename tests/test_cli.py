import pytest

from canonfn import UsageError
from canonfn.cli import main, parse_command, run


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

    def test_pham_budget_exhausted_exit_two(self):
        code, report = run_argv(["pham", "--epsilon", "1/8", "--budget", "4"])
        assert code == 2
        assert "budget-exhausted" in report

    def test_limit_and_verify_age(self):
        code, report = run_argv(["limit", "--age", "graphs", "--size", "4"])
        assert code == 0 and "demand prefix=1 extension=0 -> new 1" in report
        code, report = run_argv(["verify-age", "--age", "linear-orders", "--bound", "3"])
        assert code == 0 and "result: ok" in report

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

    def test_check_on_power_source(self):
        code, report = run_argv([
            "check", "--f", "min", "--source", "power(aut(dlo),2)",
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
