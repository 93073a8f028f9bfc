import hashlib
from fractions import Fraction as F

import pytest

from canonfn import (
    BackAndForthMap,
    BudgetExhausted,
    CutBracket,
    Inconclusive,
    automorphism_moving,
    canonical_iso,
    forced_cut,
    pham_refute,
    punctured_rationals,
    rationals_set,
)

from oracles import ProbingDenseSet, check_dense, check_pair_index, probing


class TestDenseSets:
    def test_builtins_pass_probes(self):
        check_dense(rationals_set())
        check_dense(punctured_rationals())

    def test_punctured_avoids_zero(self):
        s = punctured_rationals()
        members = [s.enumerate_member(i) for i in range(64)]
        assert F(0) not in members
        assert all(s.contains(m) for m in members)


class TestCanonicalIso:
    def test_q_to_q_is_identity_like(self):
        iso = canonical_iso(rationals_set(), rationals_set())
        for i in range(10):
            x = rationals_set().enumerate_member(i)
            assert iso.eval(x) == x

    def test_puncture_iso_first_values(self):
        iso = canonical_iso(rationals_set(), punctured_rationals())
        assert iso.eval(F(0)) == F(1)
        assert iso.eval(F(-1)) == F(-1)
        assert iso.eval(F(1)) == F(2)

    def test_commitments_avoid_zero_and_preserve_order(self):
        iso = canonical_iso(rationals_set(), punctured_rationals())
        iso.run_stages(10)
        pairs = iso.committed
        assert all(y != 0 for _, y in pairs)
        for x1, y1 in pairs:
            for x2, y2 in pairs:
                assert (x1 < x2) == (y1 < y2)

    def test_reverse_direction_composes_monotonically(self):
        fwd = canonical_iso(rationals_set(), punctured_rationals())
        back = canonical_iso(punctured_rationals(), rationals_set())
        probes = [punctured_rationals().enumerate_member(i) for i in range(10)]
        values = [back.eval(fwd.eval(back.eval(p))) for p in probes]
        for p1, v1 in zip(probes, values):
            for p2, v2 in zip(probes, values):
                assert (p1 < p2) == (v1 < v2)

    def test_determinism_over_32_points(self):
        a = canonical_iso(rationals_set(), punctured_rationals())
        b = canonical_iso(rationals_set(), punctured_rationals())
        for i in range(32):
            x = rationals_set().enumerate_member(i)
            assert a.eval(x) == b.eval(x)

    def test_stage_soundness(self):
        iso = BackAndForthMap(rationals_set(), punctured_rationals())
        for stage in range(24):
            iso.run_stages(1)
            pairs = iso.committed
            assert len({x for x, _ in pairs}) == len(pairs)
            assert len({y for _, y in pairs}) == len(pairs)
            for x1, y1 in pairs:
                for x2, y2 in pairs:
                    assert (x1 < x2) == (y1 < y2)

    def test_inverse_consistency(self):
        iso = canonical_iso(rationals_set(), punctured_rationals())
        for i in range(8):
            x = rationals_set().enumerate_member(i)
            assert iso.inverse(iso.eval(x)) == x


class TestAutomorphismMoving:
    def test_fixed_seed(self):
        alpha = automorphism_moving(F(0), F(0))
        assert alpha.eval(F(0)) == F(0)

    def test_moves_and_preserves_order(self):
        alpha = automorphism_moving(F(-1), F(5))
        assert alpha.eval(F(-1)) == F(5)
        probes = [rationals_set().enumerate_member(i) for i in range(10)]
        values = [alpha.eval(p) for p in probes]
        for p1, v1 in zip(probes, values):
            for p2, v2 in zip(probes, values):
                assert (p1 < p2) == (v1 < v2)

    def test_downward_seed(self):
        alpha = automorphism_moving(F(2), F(-2))
        assert alpha.eval(F(2)) == F(-2)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            BackAndForthMap(rationals_set(), punctured_rationals(), seeds=((F(0), F(0)),))

    @pytest.mark.parametrize("seeds", [
        ((F(0), F(1)), (F(1), F(0))),
        ((F(0), F(1)), (F(0), F(2))),
        ((F(0), F(1)), (F(2), F(1))),
        ((F(0), F(0)), (F(-1), F(1))),
    ])
    def test_order_breaking_seeds_rejected(self, seeds):
        with pytest.raises(ValueError, match="order preservation"):
            BackAndForthMap(rationals_set(), rationals_set(), seeds=seeds)


class TestPartnerSearchDifferential:
    # Enough pairs for the map's pair index to split its blocks three times.
    STAGES = 1100

    @pytest.mark.parametrize("source", [rationals_set, punctured_rationals])
    @pytest.mark.parametrize("target", [rationals_set, punctured_rationals])
    def test_pairings_match_probe(self, source, target, monkeypatch):
        # Every slow stage takes its partner and the partner's position from
        # the probe, so the descent's positions are checked too: both maps
        # skip the same members, held at the same positions.
        probes = []
        probe = ProbingDenseSet.least_in

        def counted(s, lo, hi):
            probes.append((lo, hi))
            return probe(s, lo, hi)

        monkeypatch.setattr(ProbingDenseSet, "least_in", counted)
        fast = BackAndForthMap(source(), target())
        slow = BackAndForthMap(probing(source()), probing(target()))
        fast.run_stages(self.STAGES)
        slow.run_stages(self.STAGES)
        assert len(probes) == self.STAGES
        assert fast.committed == slow.committed
        assert (fast._next, fast._held) == (slow._next, slow._held)
        assert len(fast._index.lasts[0]) > 3
        dom, rng = zip(*sorted(fast.committed))
        check_pair_index(fast._index, dom, rng)

    @pytest.mark.parametrize("a, b", [(0, 0), (-1, 1), (1, -1), (F(1, 2), 3), (-2, F(-1, 3))])
    def test_seeded_automorphisms_match_probe(self, a, b):
        fast = automorphism_moving(a, b)
        q = probing(rationals_set())
        slow = BackAndForthMap(q, q, seeds=((F(a), F(b)),))
        fast.run_stages(self.STAGES)
        slow.run_stages(self.STAGES)
        assert fast.committed == slow.committed
        assert (fast._next, fast._held) == (slow._next, slow._held)

    # Seeds too deep in the tree for an enumeration position, whose
    # neighborhoods no probe reaches: the digests of their first 3,000
    # stages were taken from the maps that found paired members by bisect.
    @pytest.mark.parametrize("a, b, digest", [
        (0, F(1, 10**12), "cfd400743f691c1814ec5d544969287c92f4d83a17a725b67f61ecf78bf345dd"),
        (F(1, 10**9), F(-7, 3), "8f65881a1621afe5d134e707265ec7be35da070374018618df0becbaecd1f7c7"),
    ])
    def test_deep_seeds_match_pinned_stages(self, a, b, digest):
        alpha = automorphism_moving(a, b)
        alpha.run_stages(3000)
        pairs = alpha.committed
        assert len(pairs) == 3001 and pairs[0] == (a, b)
        text = " ".join(f"{x}:{y}" for x, y in pairs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestForcedCut:
    def test_identity_forced_at_zero(self):
        bracket = forced_cut(lambda x: x, lambda x: x, 0, F(1, 4), 1024)
        assert isinstance(bracket, CutBracket)
        assert F(-1, 4) < bracket.lo < 0 < bracket.hi < F(1, 4)
        assert bracket.hi - bracket.lo < F(1, 4)

    def test_shift_forced_at_one(self):
        bracket = forced_cut(lambda x: x, lambda x: x + 1, 0, F(1, 4), 1024)
        assert F(3, 4) < bracket.lo < 1 < bracket.hi < F(5, 4)

    def test_budget_exhaustion_is_inconclusive(self):
        outcome = forced_cut(lambda x: x, lambda x: x, 0, F(1, 1000000), 64)
        assert isinstance(outcome, Inconclusive)
        assert not outcome

    def test_pham_pair_brackets_tightly(self):
        f = canonical_iso(rationals_set(), punctured_rationals())
        alpha = automorphism_moving(F(-1), F(0))
        bracket = forced_cut(f.eval, lambda x: f.eval(alpha.eval(x)), 0, F(1, 8), 256)
        assert isinstance(bracket, CutBracket)
        assert bracket.hi - bracket.lo < F(1, 8)
        assert bracket.lo > 0


class TestPhamRefute:
    def test_certificate_verifies(self):
        cert = pham_refute(F(1, 8), 512)
        assert cert.a == F(-1) and cert.f_a == F(-1)
        assert cert.b == F(0) and cert.falpha_a == F(1)
        assert cert.violations() == []
        assert cert.verify()

    def test_insufficient_precision_rejected(self):
        cert = pham_refute(F(1, 8), 512)
        loose = type(cert)(**{**cert.__dict__, "epsilon": F(2)})
        problems = loose.violations()
        assert "epsilon below the witness gap" in problems

    def test_tighter_epsilon(self):
        cert = pham_refute(F(1, 64), 4096)
        assert cert.verify()
        assert cert.pin_hi - cert.pin_lo < F(1, 64)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            pham_refute(F(1, 8), 4)

    @pytest.mark.parametrize("epsilon", [1, 5])
    def test_epsilon_at_witness_gap_rejected(self, epsilon):
        # The witnesses are a = -1 and b = 0, with f(a) = -1 and f(b) = 1.
        with pytest.raises(ValueError, match="not below the witness gap 1$"):
            pham_refute(F(epsilon), 512)
        assert pham_refute(F(99, 100), 512).verify()

    def test_tampered_certificate_caught(self):
        cert = pham_refute(F(1, 8), 512)
        bad = type(cert)(**{**cert.__dict__, "sample_r": cert.sample_r + F(1, 1000)})
        assert not bad.verify()
