import itertools
from fractions import Fraction as F

import pytest

from canonfn import (
    AutLimit,
    PartialAutomorphism,
    PowerGroup,
    PresentationError,
    StabilizerGroup,
    TypeMismatch,
    automorphism_extending,
    count_orbits,
    count_orbits_g,
    format_label,
    orbit_label,
    orbit_labels,
    parse_label,
    qf_type,
    same_orbit,
)
from canonfn.formats import load_structures
from canonfn.groups import label_key, reindex_label, validate_presentation


class TestOrbitLabels:
    def test_aut_pair(self, dlo, aut_dlo):
        assert orbit_label(aut_dlo, (F(1), F(2))) == qf_type(dlo, (F(1), F(2)))

    def test_stabilizer_appends_constants(self, dlo, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        assert orbit_label(stab, (F(-3),)) == qf_type(dlo, (F(-3), F(0)))

    def test_power_splits_columns(self, dlo, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        label = orbit_label(power, ((F(1), F(5)), (F(2), F(3))))
        assert label == (qf_type(dlo, (F(1), F(2))), qf_type(dlo, (F(5), F(3))))
        assert format_label(label) == "(1<2 * 2<1)"


class TestSameOrbit:
    def test_same_order_pattern(self, aut_dlo):
        assert same_orbit(aut_dlo, (F(1), F(2)), (F(7), F(9)))

    def test_stabilizer_separates_signs(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        assert not same_orbit(stab, (F(-1),), (F(1),))

    def test_power_componentwise(self, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        assert same_orbit(power, ((F(0), F(0)), (F(1), F(1))),
                          ((F(0), F(5)), (F(1), F(9))))

    def test_length_mismatch(self, aut_dlo):
        with pytest.raises(ValueError):
            same_orbit(aut_dlo, (F(0),), (F(0), F(1)))


class TestCounting:
    def test_stabilizer_point_types(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        assert count_orbits_g(stab, 1) == 3

    def test_power_counts(self, dlo, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        assert count_orbits_g(power, 1) == 1
        assert count_orbits_g(power, 2) == 9
        for k in (1, 2, 3):
            assert count_orbits_g(power, k) == count_orbits(dlo, k) ** 2

    def test_orbit_labels_sorted(self, aut_dlo):
        labels = orbit_labels(StabilizerGroup(aut_dlo, (F(0),)), 1)
        keys = [label_key(l) for l in labels]
        assert keys == sorted(keys) and len(labels) == 3


class TestCoarsening:
    def test_stabilizer_refines_base_orbits(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        samples = [(F(-2), F(1)), (F(1), F(2)), (F(-3), F(-1)), (F(1, 2), F(3))]
        for s, t in itertools.product(samples, repeat=2):
            if same_orbit(stab, s, t):
                assert same_orbit(aut_dlo, s, t)

    def test_power_decomposition(self, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        pts = [(F(0), F(1)), (F(2), F(0)), (F(1), F(1)), (F(-1), F(3))]
        for s, t in itertools.product(itertools.product(pts, repeat=2), repeat=2):
            expected = all(
                same_orbit(aut_dlo, tuple(p[i] for p in s), tuple(p[i] for p in t))
                for i in range(2)
            )
            assert same_orbit(power, s, t) == expected


class TestReindexLabel:
    def test_stabilizer_keeps_constants(self, dlo, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        label = orbit_label(stab, (F(1), F(-1)))
        swapped = reindex_label(stab, label, (1, 0))
        assert swapped == orbit_label(stab, (F(-1), F(1)))


class TestPartialAutomorphisms:
    def test_certified_and_extends_in_gap(self, aut_dlo):
        germ = automorphism_extending(aut_dlo, {F(1): F(10), F(2): F(20)})
        image = germ.extend(F(3, 2))
        assert F(10) < image < F(20)
        # 11 is the enumeration-least rational strictly between 10 and 20.
        assert image == F(11)
        assert germ.verify()

    def test_empty_germ(self, aut_dlo):
        germ = automorphism_extending(aut_dlo, {})
        assert germ.pairs == ()
        assert germ.extend(F(7)) == F(0)

    def test_type_mismatch(self, aut_dlo):
        with pytest.raises(TypeMismatch):
            automorphism_extending(aut_dlo, {F(1): F(5), F(2): F(4)})

    def test_ten_extensions_keep_certificate(self, dlo, aut_dlo):
        germ = automorphism_extending(aut_dlo, {F(0): F(1)})
        probes = [F(1), F(-1), F(1, 2), F(5), F(-3), F(2, 3), F(7, 2), F(-1, 4), F(9), F(1, 8)]
        for x in probes:
            germ.extend(x)
        assert germ.verify()
        dom = tuple(p[0] for p in germ.pairs)
        rng = tuple(p[1] for p in germ.pairs)
        assert qf_type(dlo, dom) == qf_type(dlo, rng)

    def test_extension_follows_the_limit_not_its_name(self):
        # A structures file may call a generic limit `dlo`; its germs still
        # extend by probing the enumeration for the type, never by rational
        # order.
        triangle_free = (
            "size 1; edge(0,0)\n"
            "size 2; edge(0,1)\n"
            "size 3; edge(0,1); edge(1,0); edge(0,2); edge(2,0); edge(1,2); edge(2,1)\n"
        )
        limits = load_structures("structure dlo = forbidden:tf\nstructure tf = forbidden:tf\n",
                                 read_file=lambda _: triangle_free)
        for limit in limits.values():
            germ = PartialAutomorphism(limit, [(0, 1)])
            assert germ.extend(2) == 4
            assert germ.verify()

    def test_rejects_non_aut_presentation(self, aut_dlo):
        with pytest.raises(PresentationError):
            automorphism_extending(PowerGroup(aut_dlo, 2), {})


class TestPresentations:
    def test_allowed_shapes(self, aut_dlo):
        validate_presentation(aut_dlo)
        validate_presentation(PowerGroup(aut_dlo, 2))
        validate_presentation(StabilizerGroup(aut_dlo, (F(0),)))
        validate_presentation(StabilizerGroup(PowerGroup(aut_dlo, 2), ((F(0), F(1)),)))

    def test_rejected_shapes(self, aut_dlo):
        with pytest.raises(PresentationError):
            validate_presentation(PowerGroup(PowerGroup(aut_dlo, 2), 2))
        with pytest.raises(PresentationError):
            validate_presentation(PowerGroup(aut_dlo, 0))


class TestLabelStrings:
    def test_power_round_trip(self, aut_dlo):
        power = PowerGroup(aut_dlo, 2)
        label = orbit_label(power, ((F(1), F(5)), (F(2), F(3)), (F(1), F(4))))
        assert parse_label(power, format_label(label)) == label

    def test_stabilizer_round_trip(self, aut_dlo):
        stab = StabilizerGroup(aut_dlo, (F(0),))
        label = orbit_label(stab, (F(-1), F(2)))
        assert parse_label(stab, format_label(label)) == label

    def test_pureset_round_trip(self, pureset):
        g = AutLimit(pureset)
        label = orbit_label(g, (0, 1, 0))
        assert format_label(label) == "1=3|2"
        assert parse_label(g, "1=3|2") == label
