import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from canonfn import (
    ArityLimitExceeded,
    AutLimit,
    BackAndForthOracle,
    CanonicalUpTo,
    ComposeOracle,
    ConstantOracle,
    Counterexample,
    DomainGap,
    FunctionOracle,
    IdentityOracle,
    LocalFailure,
    MaxOracle,
    MinOracle,
    NegationOracle,
    PiecewiseAffineOracle,
    PowerGroup,
    PresentationError,
    StabilizerGroup,
    TableOracle,
    TowerWitness,
    automorphism_extending,
    automorphism_moving,
    builtin_limit,
    canonical_iso,
    canonize,
    check_canonical,
    local_equal,
    orbit_label,
    proposition_harness,
    punctured_rationals,
    qf_type,
    rationals_set,
    tower_witness,
)
from canonfn import canonicity
from canonfn.canonicity import AffinePiece, Interval, SeedResult, _same_label_seeds, apply_tuple
from canonfn.cli import parse_command, run
from canonfn.errors import CanonFnError
from canonfn.formats import load_forbidden_age
from canonfn.fraisse import GenericLimit
from canonfn.groups import PointLabels, reindex_label

import oracles
from conftest import ordered_rado_table


def behavior_strings(table, arity):
    from canonfn import format_label

    return sorted(
        f"{format_label(s)}->{format_label(t)}"
        for k, s, t in table.entries() if k == arity
    )


class TestPiecewiseValidation:
    def test_gap_rejected(self, dlo):
        with pytest.raises(ValueError):
            PiecewiseAffineOracle(dlo, [
                AffinePiece(Interval(None, False, F(0), False), F(1), F(0)),
                AffinePiece(Interval(F(1), True, None, False), F(1), F(0)),
            ])

    def test_overlap_rejected(self, dlo):
        with pytest.raises(ValueError):
            PiecewiseAffineOracle(dlo, [
                AffinePiece(Interval(None, False, F(0), True), F(1), F(0)),
                AffinePiece(Interval(F(0), True, None, False), F(1), F(0)),
            ])

    def test_unbounded_cover_required(self, dlo):
        with pytest.raises(ValueError):
            PiecewiseAffineOracle(dlo, [
                AffinePiece(Interval(F(0), True, None, False), F(1), F(0)),
            ])


class TestCheckCanonical:
    def test_identity_certified(self, dlo, aut_dlo):
        verdict = check_canonical(IdentityOracle(dlo, dlo), aut_dlo, aut_dlo, 8, 2)
        assert isinstance(verdict, CanonicalUpTo)
        assert behavior_strings(verdict.behavior, 2) == [
            "1<2->1<2", "1=2->1=2", "2<1->2<1"]

    def test_negation_certified(self, dlo, aut_dlo, neg):
        verdict = check_canonical(neg, aut_dlo, aut_dlo, 8, 3)
        assert isinstance(verdict, CanonicalUpTo)
        assert behavior_strings(verdict.behavior, 2) == [
            "1<2->2<1", "1=2->1=2", "2<1->1<2"]

    def test_mixed_map_refuted(self, dlo, aut_dlo, mixed_map):
        verdict = check_canonical(mixed_map, aut_dlo, aut_dlo, 8, 2)
        assert isinstance(verdict, Counterexample)
        assert verdict.witness_s == (F(0), F(-1))
        assert verdict.witness_t == (F(1), F(0))

    def test_counterexample_recomputes(self, dlo, aut_dlo, mixed_map):
        verdict = check_canonical(mixed_map, aut_dlo, aut_dlo, 8, 2)
        s, t = verdict.witness_s, verdict.witness_t
        assert qf_type(dlo, s) == qf_type(dlo, t) == verdict.source_label
        img_s = tuple(mixed_map(p) for p in s)
        img_t = tuple(mixed_map(p) for p in t)
        assert qf_type(dlo, img_s) == verdict.image_label_s
        assert qf_type(dlo, img_t) == verdict.image_label_t
        assert verdict.image_label_s != verdict.image_label_t

    def test_refutation_monotone_in_horizon(self, aut_dlo, mixed_map):
        for horizon in (8, 10, 12):
            verdict = check_canonical(mixed_map, aut_dlo, aut_dlo, horizon, 2)
            assert isinstance(verdict, Counterexample)

    def test_domain_gap(self, dlo, aut_dlo):
        partial = TableOracle(dlo, dlo, {F(0): F(0)})
        with pytest.raises(DomainGap):
            check_canonical(partial, aut_dlo, aut_dlo, 4, 2)

    def test_determinism(self, aut_dlo, mixed_map):
        a = check_canonical(mixed_map, aut_dlo, aut_dlo, 8, 2)
        b = check_canonical(mixed_map, aut_dlo, aut_dlo, 8, 2)
        assert (a.witness_s, a.witness_t) == (b.witness_s, b.witness_t)

    def test_arity_is_checked_with_explicit_points(self, aut_dlo, neg):
        with pytest.raises(ValueError, match="arity must be positive"):
            check_canonical(neg, aut_dlo, aut_dlo, 3, 0, points=[F(0), F(1)])
        with pytest.raises(ArityLimitExceeded, match="arity 7 exceeds limit 6"):
            check_canonical(neg, aut_dlo, aut_dlo, 3, 7, points=[F(0), F(1)])


class TestOracleFitsPresentations:
    RADO = AutLimit(builtin_limit("rado"))

    def test_source_on_other_structure(self, neg):
        with pytest.raises(PresentationError, match="oracle takes points of dlo; "
                           r"aut\(rado\) acts on rado"):
            check_canonical(neg, self.RADO, self.RADO, 5, 2)

    def test_target_on_other_structure(self, dlo, aut_dlo):
        with pytest.raises(PresentationError, match="oracle gives points of dlo; "
                           r"aut\(rado\) acts on rado"):
            proposition_harness(IdentityOracle(dlo, dlo), aut_dlo, self.RADO, 5, 2)

    def test_oracle_columns_differ_from_source(self, dlo, aut_dlo):
        with pytest.raises(PresentationError, match="oracle takes 2-column points; "
                           r"aut\(dlo\) acts on 1-column points"):
            check_canonical(MinOracle(dlo, dlo), aut_dlo, aut_dlo, 5, 2)

    def test_target_with_two_columns(self, aut_dlo, neg):
        with pytest.raises(PresentationError, match="oracle gives 1-column points; "
                           r"power\(aut\(dlo\),2\) acts on 2-column points"):
            check_canonical(neg, aut_dlo, PowerGroup(aut_dlo, 2), 5, 2)

    def test_stab_source_is_named_by_its_spec(self, dlo, aut_dlo):
        with pytest.raises(PresentationError, match=r"oracle takes 2-column points; "
                           r"stab\(aut\(dlo\); 1/2\) acts on 1-column points$"):
            check_canonical(MinOracle(dlo, dlo), StabilizerGroup(aut_dlo, (F(1, 2),)),
                            aut_dlo, 5, 2)

    def test_canonize_checks_the_fit(self, neg):
        with pytest.raises(PresentationError, match="oracle takes points of dlo"):
            canonize(neg, self.RADO, self.RADO, 2, 3, 8)

    @pytest.mark.parametrize("mapping, m, message", [
        ({0: F(1, 2)}, 1, "table value 1/2 at 0 is not an element of rado"),
        ({0: -1}, 1, "table value -1 at 0 is not an element of rado"),
        ({F(1, 2): 0}, 1, "table key 1/2 is not an element of rado"),
        ({(0, -1): 0}, 2, r"table key \(0,-1\) is not a point of 2 elements of rado"),
        ({0: 0}, 2, "table key 0 is not a point of 2 elements of rado"),
    ])
    def test_table_entries_are_elements(self, mapping, m, message):
        rado = self.RADO.limit
        with pytest.raises(ValueError, match=f"^{message}$"):
            TableOracle(rado, rado, mapping, m)

    @pytest.mark.parametrize("points, m, message", [
        ([0, F(1, 2), -1], 1, "point 1/2 is not an element of rado"),
        ([0, -1], 1, "point -1 is not an element of rado"),
        ([(0, 1), (1, F(1, 3))], 2, r"point \(1,1/3\) is not a point of 2 elements of rado"),
        ([(0, 1), 2], 2, "point 2 is not a point of 2 elements of rado"),
    ])
    def test_explicit_points_are_elements(self, points, m, message):
        # As TableOracle refuses its keys: a non-element must not be read
        # through int() as a vertex.
        rado = self.RADO.limit
        g = self.RADO if m == 1 else PowerGroup(self.RADO, m)
        f = IdentityOracle(rado, rado) if m == 1 else TableOracle(rado, rado, {}, m)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_canonical(f, g, self.RADO, 3, 2, points=points)

    def test_separate_instances_of_one_limit_fit(self, aut_dlo):
        other = NegationOracle(builtin_limit("dlo"))
        assert check_canonical(other, aut_dlo, AutLimit(builtin_limit("dlo")), 6, 2)


class TestBehaviorOf:
    def test_negation_decreasing(self, dlo, aut_dlo, neg):
        table = check_canonical(neg, aut_dlo, aut_dlo, 8, 2).behavior
        assert behavior_strings(table, 2) == ["1<2->2<1", "1=2->1=2", "2<1->1<2"]

    def test_constant_table(self, dlo, aut_dlo):
        table = check_canonical(ConstantOracle(dlo, F(0)), aut_dlo, aut_dlo, 8, 2).behavior
        assert behavior_strings(table, 2) == ["1<2->1=2", "1=2->1=2", "2<1->1=2"]

    def test_mixed_has_no_table(self, aut_dlo, mixed_map):
        assert isinstance(check_canonical(mixed_map, aut_dlo, aut_dlo, 8, 2), Counterexample)


class TestLocalEqual:
    def test_reflexive(self, dlo, aut_dlo, neg):
        assert local_equal(neg, neg, [F(0), F(2), F(-5)], aut_dlo)

    def test_identity_vs_negation_fails(self, dlo, aut_dlo, neg):
        assert not local_equal(IdentityOracle(dlo, dlo), neg, [F(0), F(1)], aut_dlo)

    def test_equivalence_relation(self, dlo, aut_dlo):
        shift = PiecewiseAffineOracle(dlo, [
            AffinePiece(Interval(None, False, None, False), F(1), F(3)),
        ])
        scale = PiecewiseAffineOracle(dlo, [
            AffinePiece(Interval(None, False, None, False), F(2), F(0)),
        ])
        oracles = [IdentityOracle(dlo, dlo), shift, scale,
                   NegationOracle(dlo), ConstantOracle(dlo, F(1))]
        fragment = [F(-1), F(0), F(2)]
        for f, g, h in itertools.product(oracles, repeat=3):
            assert local_equal(f, f, fragment, aut_dlo)
            assert local_equal(f, g, fragment, aut_dlo) == local_equal(g, f, fragment, aut_dlo)
            if local_equal(f, g, fragment, aut_dlo) and local_equal(g, h, fragment, aut_dlo):
                assert local_equal(f, h, fragment, aut_dlo)


class TestTowerWitness:
    def test_same_function_identity_alignment(self, dlo, aut_dlo, neg):
        witness = tower_witness([(neg, neg)], aut_dlo, 4)
        assert isinstance(witness, TowerWitness)
        assert witness.depth == 4
        assert witness.check([(neg, neg)], aut_dlo)

    def test_identity_vs_negation_fails_at_two(self, dlo, aut_dlo, neg):
        outcome = tower_witness([(IdentityOracle(dlo, dlo), neg)], aut_dlo, 2)
        assert isinstance(outcome, LocalFailure)
        assert outcome.index == 0
        assert outcome.fragment == (F(0), F(1))

    def test_pham_pair_depth_eight(self, dlo, aut_dlo):
        f = BackAndForthOracle(canonical_iso(rationals_set(), punctured_rationals()), dlo)
        alpha = BackAndForthOracle(automorphism_moving(F(-1), F(0)), dlo)
        pair = (ComposeOracle(f, alpha), f)
        witness = tower_witness([pair], aut_dlo, 8)
        assert isinstance(witness, TowerWitness)
        assert witness.check([pair], aut_dlo)

    def test_two_column_pairs(self, dlo, aut_dlo):
        pair = (MinOracle(dlo, dlo),) * 2
        witness = tower_witness([pair], aut_dlo, 3)
        assert isinstance(witness, TowerWitness)
        assert witness.check([pair], aut_dlo)
        outcome = tower_witness([(MinOracle(dlo, dlo), MaxOracle(dlo, dlo))], aut_dlo, 3)
        assert outcome == LocalFailure(0, ((F(0), F(0)), (F(0), F(1))))

    def test_check_rejects_a_broken_witness(self, dlo, aut_dlo):
        # id and x+1 are locally equal with f(x) < g(x) everywhere, so a
        # level with its f and g blocks swapped no longer restricts to the
        # level below.
        shift = PiecewiseAffineOracle(dlo, [
            AffinePiece(Interval(None, False, None, False), F(1), F(1)),
        ])
        pair = [(IdentityOracle(dlo, dlo), shift)]
        witness = tower_witness(pair, aut_dlo, 2)
        assert witness.check(pair, aut_dlo)
        swapped = reindex_label(aut_dlo, witness.levels[1], (2, 3, 0, 1))
        assert not TowerWitness(1, 2, (witness.levels[0], swapped)).check(pair, aut_dlo)
        # Level 2 restricts to level 1, but its f block rises where its g
        # block falls.
        levels = (orbit_label(aut_dlo, (F(0), F(5))),
                  orbit_label(aut_dlo, (F(0), F(1), F(5), F(4))))
        assert not TowerWitness(1, 2, levels).check(pair, aut_dlo)

    def test_multi_pair_witness(self, dlo, aut_dlo, neg):
        shift = PiecewiseAffineOracle(dlo, [
            AffinePiece(Interval(None, False, None, False), F(1), F(1)),
        ])
        pairs = [(IdentityOracle(dlo, dlo), shift), (neg, neg)]
        witness = tower_witness(pairs, aut_dlo, 5)
        assert isinstance(witness, TowerWitness)
        assert witness.pair_count == 2
        assert witness.check(pairs, aut_dlo)

    def test_multi_pair_levels_are_the_definitional_joint_labels(self, dlo, aut_dlo, neg):
        # Pairs over different sources, neg on aut(dlo) and min and max on
        # power(aut(dlo),2), each beside itself after x + 1, so a pair's f-
        # and g-images differ and their order in the joint tuple shows.
        shift = PiecewiseAffineOracle(dlo, [
            AffinePiece(Interval(None, False, None, False), F(1), F(1)),
        ])
        low, high = MinOracle(dlo, dlo), MaxOracle(dlo, dlo)
        pairs = [(neg, ComposeOracle(shift, neg)), (low, ComposeOracle(shift, low)),
                 (ComposeOracle(shift, high), high)]
        sources = [aut_dlo, PowerGroup(aut_dlo, 2), PowerGroup(aut_dlo, 2)]
        witness = tower_witness(pairs, aut_dlo, 5)
        assert isinstance(witness, TowerWitness)
        assert witness.check(pairs, aut_dlo)
        for level, label in enumerate(witness.levels, start=1):
            joint = ()
            for (f, g_fn), source in zip(pairs, sources):
                fragment = tuple(oracles.point(source, j) for j in range(level))
                joint += apply_tuple(f, fragment) + apply_tuple(g_fn, fragment)
            assert label == oracles.orbit_label(aut_dlo, joint)

    def test_a_failing_level_reads_no_later_point(self, dlo, aut_dlo, neg):
        read = []

        class Counting(FunctionOracle):
            def __init__(self, f):
                super().__init__(f.source, f.target)
                self.m, self.f = f.m, f

            def __call__(self, p):
                read.append(p)
                return self.f(p)

        pairs = [(Counting(neg), Counting(neg)),
                 (Counting(MinOracle(dlo, dlo)), Counting(MaxOracle(dlo, dlo)))]
        outcome = tower_witness(pairs, aut_dlo, 6)
        assert outcome == LocalFailure(1, ((F(0), F(0)), (F(0), F(1))))
        # Level 2 fails, so only the first two points of each chain are read.
        assert set(read) == {F(0), F(1), (F(0), F(0)), (F(0), F(1))}


class TestHarness:
    def test_negation_all_pass(self, dlo, aut_dlo, neg):
        report = proposition_harness(neg, aut_dlo, aut_dlo, 8, 2)
        assert report.agreement and report.verdict
        assert all(r.local_pass and r.tower_pass for r in report.seed_results)

    def test_identity_small(self, dlo, aut_dlo):
        report = proposition_harness(IdentityOracle(dlo, dlo), aut_dlo, aut_dlo, 4, 2)
        assert report.agreement and report.verdict
        assert all(r.local_pass and r.tower_pass for r in report.seed_results)

    def test_mixed_all_fail_with_matching_witnesses(self, aut_dlo, mixed_map):
        report = proposition_harness(mixed_map, aut_dlo, aut_dlo, 8, 2)
        assert report.agreement
        assert isinstance(report.verdict, Counterexample)
        assert any(not r.local_pass for r in report.seed_results)
        for r in report.seed_results:
            assert r.local_pass == r.tower_pass
            if not r.local_pass and r.tower_failure is not None:
                assert r.local_failure == r.tower_failure

    # Each disagreement of the three checks, made by replacing _equal_labels,
    # through which the seed check and every tower level compare ids, or
    # _tower, which the harness reads from the module.
    def test_certificate_with_failing_germs_through_the_cli(self, monkeypatch):
        monkeypatch.setattr(canonicity, "_equal_labels", lambda *args: False)
        assert run(parse_command(["harness", "--f", "id", "--source", "aut(dlo)", "--target",
                                  "aut(dlo)", "--horizon", "4", "--arity", "2"])) == (0, (
            "proxy-canonicity: pass\nproxy-local: fail\nproxy-tower: fail\nseeds: 64\n"
            "agreement: no\ndiscrepancy: certificate passed but a germ check failed\n"))

    def test_refutation_with_passing_germs(self, aut_dlo, mixed_map, monkeypatch):
        monkeypatch.setattr(canonicity, "_equal_labels", lambda *args: True)
        report = proposition_harness(mixed_map, aut_dlo, aut_dlo, 6, 2)
        assert isinstance(report.verdict, Counterexample)
        assert all(r.local_pass and r.tower_pass for r in report.seed_results)
        assert not report.agreement
        assert report.discrepancy == "refuted but every sampled germ passed the local check"

    def test_local_and_tower_disagree(self, aut_dlo, mixed_map, monkeypatch):
        monkeypatch.setattr(canonicity, "_tower",
                            lambda images, pair_count, chain, place:
                            TowerWitness(pair_count, 0, ()))
        report = proposition_harness(mixed_map, aut_dlo, aut_dlo, 6, 2)
        assert isinstance(report.verdict, Counterexample)
        assert any(not r.local_pass for r in report.seed_results)
        assert all(r.tower_pass for r in report.seed_results)
        assert not report.agreement
        assert report.discrepancy == "local and tower checks disagree"

    def test_arity_below_the_target_symbols_is_error(self, aut_dlo, mixed_map):
        # The harness compares whole fragments, whose labels the scan fixes
        # only from tuples of max(2, r) points, r the target's largest arity.
        with pytest.raises(ValueError, match=r"^the harness needs arity at least 2 "
                                             r"on target aut\(dlo\)$"):
            proposition_harness(mixed_map, aut_dlo, aut_dlo, 6, 1)
        r3 = GenericLimit(load_forbidden_age("size 1; R(0,0,0)\n"), name="r3")
        g = AutLimit(r3)
        with pytest.raises(ValueError, match=r"at least 3 on target aut\(r3\)$"):
            proposition_harness(IdentityOracle(r3, r3), g, g, 4, 2)
        assert proposition_harness(IdentityOracle(r3, r3), g, g, 4, 3).agreement

    def test_proxy_biconditional(self, dlo, aut_dlo, neg, mixed_map):
        for oracle in (neg, mixed_map, IdentityOracle(dlo, dlo), ConstantOracle(dlo, F(2))):
            report = proposition_harness(oracle, aut_dlo, aut_dlo, 6, 2)
            refuted = isinstance(report.verdict, Counterexample)
            local_fail = any(not r.local_pass for r in report.seed_results)
            assert refuted == local_fail


@pytest.mark.parametrize("name", ["dlo", "rado", "ordered-rado"])
def test_same_label_seeds_match_definitional_buckets(name):
    g = AutLimit(builtin_limit(name))
    for arity, horizon in itertools.product(range(1, 4), range(1, 6)):
        labels = PointLabels(g)
        for i in range(horizon):
            labels.append(g.limit.element(i))
        for cap in (1, 7, 64):
            assert (_same_label_seeds(labels, arity, cap)
                    == oracles.definitional_seeds(g, horizon, arity, cap))


class TestComposedOracles:
    def test_pham_after_automorphism_locally_equal(self, dlo, aut_dlo):
        f = BackAndForthOracle(canonical_iso(rationals_set(), punctured_rationals()), dlo)
        germ = automorphism_extending(aut_dlo, {F(0): F(1)})
        pool = [dlo.element(i) for i in range(64)]
        f_alpha = ComposeOracle(f, oracles.GermOracle(germ, pool))
        fragment = [dlo.element(i) for i in range(5)]
        assert local_equal(f_alpha, f, fragment, aut_dlo)


# ---------------------------------------------------------------------------
# local equality and the harness against their first formulations

HARNESS_LIMITS = {name: builtin_limit(name) for name in ("dlo", "rado", "pureset")}
BREAKPOINTS = [F(-1), F(0), F(1, 2), F(1), F(3)]
COEFFICIENTS = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]


@st.composite
def pieces_oracles(draw):
    """A piecewise affine map of Q over drawn breakpoints, each breakpoint
    closing the piece on one side of it."""
    cuts = sorted(draw(st.sets(st.sampled_from(BREAKPOINTS), max_size=2)))
    closed_left = [draw(st.booleans()) for _ in cuts]
    bounds = [(None, False)] + list(zip(cuts, closed_left))
    pieces = []
    for i, (lo, lo_closed) in enumerate(bounds):
        hi, hi_closed = (None, False) if i == len(cuts) else (cuts[i], not closed_left[i])
        pieces.append(AffinePiece(Interval(lo, lo_closed, hi, hi_closed),
                                  draw(st.sampled_from(COEFFICIENTS)),
                                  draw(st.sampled_from([F(-1), F(0), F(1, 2)]))))
    return PiecewiseAffineOracle(HARNESS_LIMITS["dlo"], pieces)


def _index_oracles(limit):
    """id, const and table oracles over a limit whose elements are indices."""
    return st.one_of(
        st.just(IdentityOracle(limit, limit)),
        st.integers(0, 5).map(lambda i: ConstantOracle(limit, limit.element(i))),
        st.lists(st.integers(0, 7), min_size=24, max_size=24).map(
            lambda images: TableOracle(limit, limit, dict(enumerate(images)))))


@st.composite
def harness_cases(draw):
    name = draw(st.sampled_from(sorted(HARNESS_LIMITS)))
    limit = HARNESS_LIMITS[name]
    f = draw(pieces_oracles() if name == "dlo" else _index_oracles(limit))
    horizon = draw(st.integers(1, 5))
    arity = draw(st.integers(1, 2))
    seeds = None
    if draw(st.booleans()):
        # One explicit seed pair, its tuples drawn past the horizon.
        k = draw(st.integers(1, 2))
        index_tuples = st.lists(st.integers(0, horizon + 4), min_size=k, max_size=k)
        s, t = (tuple(map(limit.element, draw(index_tuples))) for _ in range(2))
        assume(limit.qf_type(s) == limit.qf_type(t))
        seeds = [(s, t)]
    return f, AutLimit(limit), horizon, arity, seeds


def _outcome(harness, f, g, horizon, arity, seeds):
    try:
        return harness(f, g, g, horizon, arity, seeds=seeds)
    except (CanonFnError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(harness_cases())
def test_harness_matches_reference_clip(case):
    assert _outcome(proposition_harness, *case) == _outcome(oracles.reference_harness, *case)


def test_harness_calls_the_oracle_once_per_point():
    # The scan, each seed and its tower read f only on the pool and the
    # seeds' points, each point once: neg on 64 seeds over the dlo pool, and
    # a table on an ordered-rado limit, which raises DomainGap off its keys.
    calls: dict = {}

    class Counting(FunctionOracle):
        def __init__(self, f):
            super().__init__(f.source, f.target)
            self.f = f

        def __call__(self, p):
            calls[p] = calls.get(p, 0) + 1
            return self.f(p)

    dlo = HARNESS_LIMITS["dlo"]
    report = proposition_harness(Counting(NegationOracle(dlo)), AutLimit(dlo), AutLimit(dlo), 8, 2)
    assert report.agreement and len(report.seed_results) == 64
    assert set(calls) <= {dlo.element(i) for i in range(8)}
    assert set(calls.values()) == {1}

    calls.clear()
    table = ordered_rado_table(0, 5)
    limit = table.source
    f = TableOracle(limit, limit, {**table.mapping, 6: 0, 7: 3})
    g = AutLimit(limit)
    seeds = oracles.definitional_seeds(g, 5, 2, 64) + [((6,), (7,)), ((7,), (6,))]
    report = proposition_harness(Counting(f), g, g, 5, 2, seeds=seeds)
    assert report.agreement and len(report.seed_results) == 66
    assert set(calls) == {0, 1, 2, 3, 4, 6, 7}
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("horizon", [3, 4, 5])
def test_harness_on_ordered_rado_tables_stays_in_the_pool(horizon):
    # A tower grown past the clip read these tables off their keys, or grew
    # the limit by hundreds of points.
    for seed in range(8):
        f = ordered_rado_table(seed, horizon)
        g = AutLimit(f.source)
        report = proposition_harness(f, g, g, horizon, 2)
        assert report.agreement
        assert f.source.size == horizon


@pytest.mark.parametrize("seed,horizon,arity,local_failure,tower_failure,levels", [
    # A prefix inside the clip fails, on both proxies.
    (((F(0),), (F(-1),)), 3, 2, (F(0), F(1)), (F(0), F(1)), 2),
    # Only the seed's own point set fails; its tower, over the seed's points
    # past a clip of 0, fails on that set.
    (((F(1), F(2)), (F(-2), F(-1))), 4, 2, (F(1), F(2)), (F(1), F(2)), 2),
    # The germ is the identity on the pool: every check passes.
    (((F(0),), (F(0),)), 4, 2, None, None, 4),
])
def test_harness_paths_by_example(aut_dlo, mixed_map, monkeypatch, seed, horizon, arity,
                                  local_failure, tower_failure, levels):
    # Each seed compares ids once for its point set and once per tower level reached.
    calls = []
    equal_labels = canonicity._equal_labels
    monkeypatch.setattr(canonicity, "_equal_labels",
                        lambda *args: calls.append(1) or equal_labels(*args))
    report = proposition_harness(mixed_map, aut_dlo, aut_dlo, horizon, arity, seeds=[seed])
    assert len(calls) == levels + 1
    assert report.seed_results == (SeedResult(seed, local_failure is None, local_failure,
                                              tower_failure is None, tower_failure),)
    monkeypatch.undo()
    expected = oracles.reference_harness(mixed_map, aut_dlo, aut_dlo, horizon, arity, seeds=[seed])
    assert report.seed_results == expected.seed_results


# Canonical tables among the 27 at arities 1, 2 and 3, per source (the
# target is aut(dlo) for the stabilizer, else aut of the source's limit).
CANONICAL_ON_THREE_POINTS = {
    "aut(dlo)": (27, 5, 5), "aut(rado)": (27, 11, 11), "aut(ordered-rado)": (27, 5, 5),
    "aut(pureset)": (27, 9, 9), "stab(aut(dlo); 1/2)": (27, 13, 13),
}


@pytest.mark.parametrize("source", CANONICAL_ON_THREE_POINTS)
def test_every_table_on_three_points(source):
    # Every map from the first 3 points into themselves, at arities 1-3: the
    # scan's verdict is the brute-force truth, each counterexample
    # recomputes under the reference, and on an aut source the harness
    # agrees with the verdict at arities 2 and 3 and refuses arity 1, whose
    # tuples do not fix the labels of the fragments it compares.  The
    # canonical counts are facts about the structures.
    if source.startswith("stab"):
        limit = builtin_limit("dlo")
        g, h = StabilizerGroup(AutLimit(limit), (F(1, 2),)), AutLimit(limit)
    else:
        limit = builtin_limit(source[4:-1])
        g = h = AutLimit(limit)
    pts = [limit.element(i) for i in range(3)]
    # The truth by brute force: every tuple's labels through the reference qf_type.
    tuples = [t for k in (1, 2, 3) for t in itertools.product(pts, repeat=k)]
    source_label = {t: oracles.orbit_label(g, t) for t in tuples}
    canonical = [0, 0, 0]
    for images in itertools.product(pts, repeat=3):
        f = TableOracle(limit, limit, dict(zip(pts, images)))
        image_label = {t: oracles.orbit_label(h, tuple(map(f, t))) for t in tuples}
        for arity in (1, 2, 3):
            first: dict = {}
            truth = all(first.setdefault(source_label[t], image_label[t]) == image_label[t]
                        for t in tuples if len(t) <= arity)
            verdict = check_canonical(f, g, h, 3, arity)
            assert bool(verdict) == truth
            canonical[arity - 1] += bool(verdict)
            if isinstance(verdict, Counterexample):
                s, t = verdict.witness_s, verdict.witness_t
                assert oracles.orbit_label(g, s) == oracles.orbit_label(g, t) == verdict.source_label
                assert oracles.orbit_label(h, tuple(map(f, s))) == verdict.image_label_s
                assert oracles.orbit_label(h, tuple(map(f, t))) == verdict.image_label_t
                assert verdict.image_label_s != verdict.image_label_t
            if g is not h:
                continue
            if arity == 1:
                with pytest.raises(ValueError, match="needs arity at least 2"):
                    proposition_harness(f, g, h, 3, arity)
            else:
                report = proposition_harness(f, g, h, 3, arity)
                assert report.agreement and bool(report.verdict) == bool(verdict)
    assert tuple(canonical) == CANONICAL_ON_THREE_POINTS[source]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(HARNESS_LIMITS)), data=st.data())
def test_local_equal_ignores_fragment_order(name, data):
    limit = HARNESS_LIMITS[name]
    if name == "dlo":
        f, g_fn = data.draw(pieces_oracles()), data.draw(pieces_oracles())
    else:
        f, g_fn = data.draw(_index_oracles(limit)), data.draw(_index_oracles(limit))
    indices = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    fragment = [limit.element(i) for i in indices]
    shuffled = data.draw(st.permutations(fragment))
    h = AutLimit(limit)
    assert local_equal(f, g_fn, shuffled, h) == oracles.sorted_local_equal(f, g_fn, fragment, h)
