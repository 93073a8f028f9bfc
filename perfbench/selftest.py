"""Self-tests of the benchmark: generator determinism, the answer checks,
and the tracer's self-time arithmetic.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import pathlib
import sys
import unittest
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from canonfn import cli, fraisse  # noqa: E402


def answer(q):
    return cli.run(cli.parse_command(list(q.argv)))


def first(workload, verb, pred=lambda q: True, seed=1):
    return next(q for q in workloads.generate(workload, seed) if q.verb == verb and pred(q))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(w, 7), workloads.generate(w, 7))
            self.assertNotEqual(workloads.generate(w, 7), workloads.generate(w, 8))

    def test_every_run_has_a_hundred_queries(self):
        for w in workloads.WORKLOADS:
            self.assertGreaterEqual(len(workloads.generate(w, 1)), 100)

    def test_seed_keeps_the_strata(self):
        # Only the inputs change with the seed: same verbs, arities, depths.
        def shape(q):
            return q.verb, q.params.get("arity"), q.params.get("depth"), q.params.get("horizon")
        for w in workloads.WORKLOADS:
            self.assertEqual([shape(q) for q in workloads.generate(w, 1)],
                             [shape(q) for q in workloads.generate(w, 2)])


class ReferenceTest(unittest.TestCase):
    def test_enumeration_of_q(self):
        self.assertEqual(ref.dlo_points(7), [Fraction(x) for x in
                                             ("0", "1", "-1", "1/2", "-1/2", "2", "-2")])
        self.assertEqual([fraisse.builtin_limit("dlo").element(i) for i in range(200)],
                         ref.dlo_points(200))

    def test_order_pattern_rule(self):
        pts = ref.dlo_points(6)
        for values, expected in ((pts, True), ([-x for x in pts], True), ([1] * 6, True),
                                 ([abs(x) for x in pts], False)):
            self.assertEqual(ref.canonical(("dlo",), ("dlo",), pts, values, 2), expected)
        self.assertTrue(ref.canonical(("dlo",), ("dlo",), pts, [abs(x) for x in pts], 1))

    def test_closed_forms(self):
        self.assertEqual([ref.orbit_count("dlo", k) for k in (1, 2, 3, 4)], [1, 3, 13, 75])
        self.assertEqual([ref.orbit_count("pureset", k) for k in (1, 2, 3, 4)], [1, 2, 5, 15])
        self.assertEqual(ref.orbit_count("rado", 3), 15)
        self.assertEqual(ref.orbit_count("ordered-rado", 3), 61)


class CheckTest(unittest.TestCase):
    """Each check accepts canonfn's real answer and rejects a hand-made wrong one."""

    def setUp(self):
        self.ctx = checks.Context({})

    def verdict(self, q, outcome):
        return checks.check(0, q, outcome, self.ctx)

    def test_check_flipped_verdict(self):
        canon = first("scan", "check", lambda q: q.params["oracle"][0] == "pieces"
                      and q.params["arity"] == 2 and q.params["horizon"] == 20)
        code, report = answer(canon)
        self.assertIsNone(self.verdict(canon, (code, report)))
        self.assertIn("verdict: canonical-up-to", report)
        flipped = ("verdict: counterexample\narity: 2\nwitness_s: (0, 1)\n"
                   "witness_t: (0, -1)\n")
        self.assertIsNotNone(self.verdict(canon, (0, flipped)))

    def test_check_refuted_map_called_canonical(self):
        bent = first("scan", "check", lambda q: q.params["group"] == ("dlo",)
                     and q.params["arity"] == 2 and q.params["horizon"] == 24
                     and q.params["oracle"][1][0][4] * q.params["oracle"][1][1][4] < 0)
        code, report = answer(bent)
        self.assertIsNone(self.verdict(bent, (code, report)))
        self.assertIsNotNone(self.verdict(bent, (0, "verdict: canonical-up-to\n")))
        wrong = report.replace(checks.fields(report)["witness_t"],
                               checks.fields(report)["witness_s"])
        self.assertIsNotNone(self.verdict(bent, (0, wrong)))

    def test_exit_codes(self):
        q = first("tables", "orbits")
        self.assertIsNotNone(self.verdict(q, (1, "error: boom\n")))
        self.assertIsNotNone(self.verdict(q, (2, "orbits: 1\n")))

    def test_orbits_off_by_one(self):
        q = first("tables", "orbits", lambda q: q.params["arity"] == 3)
        code, report = answer(q)
        self.assertIsNone(self.verdict(q, (code, report)))
        n = int(checks.fields(report)["orbits"])
        self.assertIsNotNone(self.verdict(q, (0, f"orbits: {n + 1}\n")))

    def test_behaviors_table_count(self):
        q = first("tables", "behaviors", lambda q: q.params["dlo_pair"])
        code, report = answer(q)
        self.assertIsNone(self.verdict(q, (code, report)))
        two = report.split("table 2:")[0].replace("behaviors: 3", "behaviors: 2")
        self.assertIsNotNone(self.verdict(q, (0, two)))

    def test_canonize_sample(self):
        q = first("search", "canonize", lambda q: q.params["group"] == ("dlo",))
        code, report = answer(q)
        self.assertIsNone(self.verdict(q, (code, report)))
        lines = report.splitlines()
        i = lines.index("tower:") + 1
        x, _ = lines[i].split(" -> ")
        lines[i] = f"{x} -> 1000"
        self.assertIsNotNone(self.verdict(q, (0, "\n".join(lines) + "\n")))

    def test_limit_fragment(self):
        q = first("limits", "limit", lambda q: q.params["age"] == "graphs")
        code, report = answer(q)
        self.assertIsNone(self.verdict(q, (code, report)))
        lines = report.splitlines()
        lines[0] = f"fragment: size {q.params['size']}; edge(0,1)"  # a one-way edge
        self.assertIsNotNone(self.verdict(q, (0, "\n".join(lines) + "\n")))

    def test_pham_certificate(self):
        q = first("limits", "pham")
        code, report = answer(q)
        self.assertIsNone(self.verdict(q, (code, report)))
        pin = checks.fields(report)["pin_lo"]
        self.assertIsNotNone(self.verdict(q, (0, report.replace(f"pin_lo: {pin}",
                                                                "pin_lo: -1"))))

    def test_iso_order(self):
        q = first("limits", "iso")
        code, report = answer(q)
        self.assertIsNone(self.verdict(q, (code, report)))
        lines = report.splitlines()
        a, b = lines[1].split(" -> ")[1], lines[2].split(" -> ")[1]
        lines[1] = lines[1].rsplit(" -> ", 1)[0] + f" -> {b}"
        lines[2] = lines[2].rsplit(" -> ", 1)[0] + f" -> {a}"
        self.assertIsNotNone(self.verdict(q, (0, "\n".join(lines) + "\n")))

    def test_verify_age(self):
        q = first("limits", "verify-age")
        self.assertIsNone(self.verdict(q, answer(q)))
        self.assertIsNotNone(self.verdict(q, (0, f"result: amalgamation-violation\n"
                                                 f"bound: {q.params['bound']}\n")))

    def test_api_answers(self):
        coherence = first("tables", "api-coherence")
        self.assertIsNotNone(self.verdict(coherence, (3, [None] * 3, None)))
        realize = first("tables", "api-realize")
        n = realize.params["n"]
        pts = ref.dlo_points(n)
        self.assertIsNone(self.verdict(realize, ("1<2", tuple(zip(pts, pts)))))
        self.assertIsNotNone(self.verdict(realize, ("2<1", tuple(zip(pts, pts)))))


class TracerTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        ticks = iter([0, 1, 2, 4, 5, 6, 7, 8, 9, 10])
        t = tracing.Tracer(clock=lambda: next(ticks))
        t.enter("A")        # 0
        t.enter("B")        # 1
        t.enter("C")        # 2
        t.exit(hot=True)    # 4: C lasts 2
        t.exit()            # 5: B lasts 4, self 2
        t.enter("A")        # 6: recursion
        t.enter("B")        # 7
        t.exit()            # 8: B lasts 1
        t.exit()            # 9: inner A lasts 3, self 2
        t.exit()            # 10: outer A lasts 10, self 10 - 4 - 3 = 3
        stats = t.layer_stats()
        self.assertEqual(stats["A"], {"calls": 2, "total_s": 10, "self_s": 5})
        self.assertEqual(stats["B"], {"calls": 2, "total_s": 5, "self_s": 3})
        self.assertEqual(stats["C"], {"calls": 1, "total_s": 2, "self_s": 2})
        self.assertEqual(sum(s["self_s"] for s in stats.values()), 10)
        parents = {span[1]: span[4] for span in t.spans if span[1] == "B"}
        self.assertEqual(len(t.spans), 4)
        self.assertIsNotNone(parents["B"])
        self.assertEqual(t.hot, {(None, "C", "B"): [1, 2, 2]})

    def test_traced_nodes_match_the_search_count(self):
        # An exhausted search prints its own node count; the traced count,
        # taken from outside, must agree.  Wrapping leaves answers unchanged.
        argv = ["canonize", "--f", "pieces:[(-inf,0):x*-1; [0,inf):x]", "--arity", "2",
                "--depth", "6", "--horizon", "8"]
        plain = cli.run(cli.parse_command(argv))
        inst = tracing.Installation(tracing.Tracer())
        inst.begin_query(0)
        traced = cli.run(cli.parse_command(argv))
        inst.end_query()
        self.assertEqual(traced, plain)
        self.assertEqual(traced[0], 2)
        self.assertIn(f"nodes: {inst.search_nodes(0)}\n", traced[1])


class SpeedTest(unittest.TestCase):
    def test_latency_scaled_by_the_calibrations_around_it(self):
        ref_s = speed.REFERENCE_S
        # The loop ran at the reference speed, then twice as slow, then 3 times.
        cals = [ref_s, 2 * ref_s, 3 * ref_s]
        got = speed.scaled_latencies([0.3, 1.0], cals)
        self.assertAlmostEqual(got[0], 0.3 / 1.5)
        self.assertAlmostEqual(got[1], 1.0 / 2.5)
        self.assertAlmostEqual(speed.scaled_setup(0.8, cals), 0.4)
        with self.assertRaises(ValueError):
            speed.scaled_latencies([0.3, 1.0], cals[:2])

    def test_calibration_leaves_the_collector_as_it_was(self):
        import gc
        self.assertTrue(gc.isenabled())
        self.assertGreater(speed.calibrate(), 0)
        self.assertTrue(gc.isenabled())


if __name__ == "__main__":
    unittest.main()
