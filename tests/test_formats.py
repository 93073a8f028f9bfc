import itertools
from fractions import Fraction as F

import pytest

from canonfn import (
    FiniteStructure,
    FormatError,
    PowerGroup,
    StabilizerGroup,
    TableOracle,
    enumerate_behaviors,
    pham_refute,
)
from canonfn.formats import (
    dump_behavior,
    dump_certificate,
    dump_function_table,
    format_structure,
    load_certificate,
    load_forbidden_age,
    load_function_table,
    load_structures,
    parse_group_spec,
    parse_oracle_spec,
    parse_structure,
)
from canonfn.cli import parse_command, run
from canonfn.fraisse import GRAPH_SIG
from canonfn.groups import LabelTexts


class TestStructureFormat:
    def test_round_trip(self):
        s = FiniteStructure(GRAPH_SIG, 4, frozenset({("edge", (0, 2)), ("edge", (2, 0))}))
        assert parse_structure(format_structure(s)) == s

    def test_signature_inference(self):
        s = parse_structure("size 3; edge(0,1); edge(1,0)")
        assert s.size == 3 and s.holds("edge", (0, 1))

    def test_bad_size(self):
        with pytest.raises(FormatError):
            parse_structure("edge(0,1)", lineno=4)

    def test_out_of_range_index(self):
        with pytest.raises(FormatError):
            parse_structure("size 2; edge(0,2)")

    def test_duplicate_atom(self):
        with pytest.raises(FormatError):
            parse_structure("size 2; edge(0,1); edge(0,1)")


class TestForbiddenFiles:
    TRIANGLE_FREE = (
        "# triangle-free graphs\n"
        "size 1; edge(0,0)\n"
        "size 2; edge(0,1)\n"
        "size 3; edge(0,1); edge(1,0); edge(0,2); edge(2,0); edge(1,2); edge(2,1)\n"
    )

    def test_load_and_use(self):
        age = load_forbidden_age(self.TRIANGLE_FREE)
        triangle = parse_structure(
            "size 3; edge(0,1); edge(1,0); edge(0,2); edge(2,0); edge(1,2); edge(2,1)")
        path = parse_structure("size 3; edge(0,1); edge(1,0); edge(1,2); edge(2,1)")
        assert not age.contains(triangle)
        assert age.contains(path)

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            load_forbidden_age("# nothing here\n")

    def test_structure_directives(self, tmp_path):
        forb = tmp_path / "tf.forb"
        forb.write_text(self.TRIANGLE_FREE)
        text = (
            "structure mydlo = builtin:dlo\n"
            f"structure tf = forbidden:{forb}\n"
        )
        out = load_structures(text)
        assert out["mydlo"].name == "dlo"
        assert out["tf"].age.name.startswith("forbidden")

    def test_duplicate_name_rejected(self):
        with pytest.raises(FormatError):
            load_structures("structure a = builtin:dlo\nstructure a = builtin:pureset\n")


class TestGroupSpecs:
    @pytest.mark.parametrize("spec", [
        "aut(dlo)",
        "power(aut(dlo),2)",
        "stab(aut(dlo); 0)",
        "stab(power(aut(dlo),2); (0,1),(3,5))",
        "stab(power(aut(dlo),2); (0,1),(3,-1/2))",
    ])
    def test_round_trip(self, spec):
        assert repr(parse_group_spec(spec)) == spec

    def test_shapes(self):
        g = parse_group_spec("stab(power(aut(dlo),2); (0,1))")
        assert isinstance(g, StabilizerGroup)
        assert isinstance(g.base, PowerGroup)
        assert g.constants == ((F(0), F(1)),)

    def test_bad_spec(self):
        with pytest.raises(FormatError):
            parse_group_spec("sym(dlo)")
        with pytest.raises(FormatError):
            parse_group_spec("power(aut(dlo))")


class TestOracleSpecs:
    def test_builtin_names(self, dlo):
        assert parse_oracle_spec("id")(F(3)) == F(3)
        assert parse_oracle_spec("neg")(F(3)) == F(-3)
        assert parse_oracle_spec("const:1/2")(F(9)) == F(1, 2)
        assert parse_oracle_spec("min")((F(1), F(2))) == F(1)
        assert parse_oracle_spec("proj:2/2")((F(1), F(2))) == F(2)

    def test_pieces(self):
        f = parse_oracle_spec("pieces:[(-inf,0):x*-1; [0,inf):x]")
        assert f(F(-2)) == F(2) and f(F(2)) == F(2)
        g = parse_oracle_spec("pieces:[(-inf,1):x*1/2+3; [1,inf):2*x]")
        assert g(F(0)) == F(3) and g(F(2)) == F(4)

    def test_compose(self):
        f = parse_oracle_spec("compose(neg,neg)")
        assert f(F(5)) == F(5)

    def test_unclosed_pieces_rejected(self):
        with pytest.raises(FormatError):
            parse_oracle_spec("pieces:[(-inf,0):x*-1")

    def test_pham_oracle(self):
        f = parse_oracle_spec("pham")
        assert f(F(0)) == F(1)

    def test_table_spec(self, tmp_path):
        table = tmp_path / "f.table"
        table.write_text("0 -> 1\n1 -> 2\n")
        f = parse_oracle_spec(f"table:{table}")
        assert f(F(0)) == F(1)

    def test_spec_strings_round_trip(self):
        probes = [F(-3), F(-1, 2), F(0), F(2, 3), F(5)]
        for spec in ("id", "neg", "const:-2/3", "proj:2/3",
                     "pieces:[(-inf,0):x*-1; [0,inf):x]",
                     "pieces:[(-inf,-1):x+2; [-1,0):x*-1; [0,inf):x]"):
            f = parse_oracle_spec(spec)
            g = parse_oracle_spec(f.spec_str())
            points = probes if f.m == 1 else list(itertools.product(probes, repeat=f.m))
            assert g.m == f.m and all(f(x) == g(x) for x in points), spec


class TestFunctionTables:
    def test_round_trip(self, dlo):
        oracle = TableOracle(dlo, dlo, {F(0): F(1), F(1, 2): F(-3)})
        text = dump_function_table(oracle)
        again = load_function_table(text)
        assert again.mapping == oracle.mapping
        assert dump_function_table(again) == text

    def test_m_ary_round_trip(self, dlo):
        oracle = TableOracle(dlo, dlo, {(F(0), F(1)): F(1)}, m=2)
        again = load_function_table(dump_function_table(oracle))
        assert again.m == 2 and again.mapping == oracle.mapping

    def test_duplicate_entry_rejected(self):
        with pytest.raises(FormatError) as err:
            load_function_table("0 -> 1\n0 -> 2\n")
        assert err.value.line == 2

    def test_bad_rational(self):
        with pytest.raises(FormatError):
            load_function_table("0 -> x\n")


class TestBehaviorFiles:
    def test_behaviors_out_holds_the_report_tables(self, tmp_path, aut_dlo):
        path = tmp_path / "dlo.beh"
        code, report = run(parse_command([
            "behaviors", "--source", "aut(dlo)", "--target", "aut(dlo)", "--arity", "2",
            "--out", str(path)]))
        assert code == 0 and report.endswith(f"\nsaved: {path}\n")
        blocks = path.read_text().split("\n---\n")
        tables = enumerate_behaviors(aut_dlo, aut_dlo, 2)
        assert blocks == [dump_behavior(t, LabelTexts()) for t in tables]
        listed = report.split("\nsaved:")[0].split("\ntable ")[1:]
        assert len(listed) == len(blocks) == 3
        for i, (entries, block) in enumerate(zip(listed, blocks)):
            head = block.splitlines()[:3]
            assert head == ["source: aut(dlo)", "target: aut(dlo)", "arity: 2"]
            assert entries.splitlines() == [f"{i}:"] + block.splitlines()[3:]


class TestCertificateFiles:
    def test_round_trip(self):
        cert = pham_refute(F(1, 8), 512)
        text = dump_certificate(cert)
        again = load_certificate(text)
        assert again == cert
        assert dump_certificate(again) == text

    def test_pham_report_block_reads_back(self):
        code, report = run(parse_command(["pham", "--epsilon", "1/8", "--budget", "512"]))
        block, sep, rest = report.partition("verified:")
        assert code == 0 and sep and rest == " true\n"
        cert = load_certificate(block)
        assert cert.verify()
        assert dump_certificate(cert) == block

    def test_wrong_fields(self):
        with pytest.raises(FormatError):
            load_certificate("certificate: pham-obstruction\nepsilon: 1/8\n")
