"""Self-tests of the benchmark code.

    python3 perfbench/selftest.py

Runs from the root of a checkout.  The traced-run tests start worker
processes on short prefixes of the query lists and take about a minute.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from pathcoalg import comodules, hopf  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_queries(self):
        for workload in queries.WORKLOADS:
            self.assertEqual(queries.generate(workload, 7), queries.generate(workload, 7))

    def test_seed_changes_inputs_not_size(self):
        for workload in queries.WORKLOADS:
            a, b = queries.generate(workload, 7), queries.generate(workload, 8)
            self.assertNotEqual(a, b)
            self.assertEqual(len(a), len(b))

    def test_enough_queries_for_p90(self):
        for workload in queries.WORKLOADS:
            count = len(queries.generate(workload, 1))
            self.assertGreaterEqual(stats.beyond(count, 90), run.P90_TAIL_MIN)

    def test_parameter_sets_obey_the_laws(self):
        for _, raw, _, _ in queries.hopf_axioms(3):
            hopf.validate_params(*raw)  # raises on a law violation


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))
        self.assertEqual(stats.percentile(values, 50), 5)
        self.assertEqual(stats.percentile(values, 90), 9)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertEqual(stats.percentile([4.0], 90), 4.0)
        self.assertEqual(stats.percentile(list(range(1, 124)), 90), 111)

    def test_beyond(self):
        self.assertEqual(stats.beyond(123, 90), 12)
        self.assertEqual(stats.beyond(100, 90), 10)

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / q2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)


class OracleTest(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(oracle.window_size(0, 0, 2), 25)
        self.assertEqual(oracle.window_size(3, 1, 2), 15)
        self.assertEqual(oracle.window_size(-2, 2, 3), 14)
        self.assertEqual(oracle.expected_family(4, 2, "1", "0", "1", "1"), "7'")
        self.assertEqual(oracle.expected_family(2, -2, "1", "0", "1", "1"), "7")
        self.assertEqual(oracle.expected_aut_group(0, 0, "1", "1", "1", "0"),
                         ("5A", "D_4", True))
        self.assertTrue(oracle.in_membership_span("-1", "3/2", "3/2"))
        self.assertFalse(oracle.in_membership_span("z4", "1", "0"))

    def test_graph_shapes(self):
        d7 = [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)]
        self.assertTrue(oracle.is_extended_d(range(1, 9), d7, 7))
        a8 = [(i, i + 1) for i in range(1, 8)]
        self.assertFalse(oracle.is_extended_d(range(1, 9), a8, 7))
        self.assertTrue(oracle.is_dynkin_graph(range(1, 9), a8))
        self.assertFalse(oracle.is_dynkin_graph(range(1, 9), d7))
        hexagon = [(i, i % 6 + 1) for i in range(1, 7)]
        self.assertFalse(oracle.is_dynkin_graph(range(1, 7), hexagon))

    def test_flags_a_dynkin_cover(self):
        target = [("e", "p", "q"), ("f", "q", "q")]
        cover = [("e#0", "v0", "v1"), ("f#1", "v2", "v1")]
        problem = oracle.check_cover(
            ["v0", "v1", "v2"], cover, {"v0": "p", "v1": "q", "v2": "q"},
            {"e#0": "e", "f#1": "f"}, target, 6)
        self.assertEqual(problem, "cover graph is Dynkin")


class WrongAnswerTest(unittest.TestCase):
    """A wrong answer from the library is a wrong answer, not a defect."""

    def _patched(self, module, name, replacement):
        original = getattr(module, name)
        setattr(module, name, replacement)
        self.addCleanup(setattr, module, name, original)

    def test_wrong_basis_count_is_flagged(self):
        query = ("hopf", (3, 1, "1", "0", "0", "0"), 1, 5)
        tally = workloads.Tally()
        workloads.run_hopf(query, None, tally)
        self.assertEqual((tally.attempted, tally.failed), (5, 0))
        self._patched(hopf, "verify_hopf_axioms",
                      lambda params, radius, seed: {"ok": True, "basis_checked": 0})
        tally = workloads.Tally()
        workloads.run_hopf(query, None, tally)
        self.assertEqual((tally.attempted, tally.failed), (5, 1))
        self.assertIn("basis_checked", tally.wrong[0])

    def test_known_defects_are_failures_not_wrong(self):
        tally = workloads.Tally()
        workloads.run_hopf(("hopf", (0, 0, "1", "2", "3", "0"), 1, 5), None, tally)
        self.assertEqual(tally.wrong, [])
        self.assertEqual(tally.defects[oracle.DEFECT_SQRT], 3)

    def test_isomorphism_false_negative_on_distinct_pair_is_wrong(self):
        fx = workloads.Fixtures("comodule-hom")
        query = ("iso_swap", ("pool", 0, 0), ("pool", 0, 1))
        tally = workloads.Tally()
        workloads.run_comodule(query, fx, tally)
        self.assertEqual(tally.failed, 0)
        self._patched(comodules, "are_isomorphic", lambda m1, m2: False)
        tally = workloads.Tally()
        workloads.run_comodule(query, fx, tally)
        self.assertEqual(len(tally.wrong), 1)
        tally = workloads.Tally()
        workloads.run_comodule(("iso_swap", ("pool", 0, 2), ("pool", 0, 2)), fx, tally)
        self.assertEqual(tally.defects[oracle.DEFECT_ISO_SELF_SUM], 1)


def traced_pass(workload, limit):
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    return run.spawn(workload, 11, deadline, "--trace", "--limit", str(limit))


def counts(result):
    return {name: value for name, value in result["layers"].items()
            if result["layer_units"][name] == "count"}


class TracedRunTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        first = traced_pass("coalgebra-window", 40)
        second = traced_pass("coalgebra-window", 40)
        self.assertGreater(first["layers"]["scalar.ops"], 0)
        self.assertEqual(counts(first), counts(second))

    def test_layer_isolation(self):
        hopf_run = traced_pass("hopf-axioms", 8)
        self.assertGreater(hopf_run["layers"]["hopf.multiply_calls"], 0)
        self.assertEqual(hopf_run["layers"]["linalg.basis_adds"], 0)
        comodule_run = traced_pass("comodule-hom", 60)
        self.assertGreater(comodule_run["layers"]["linalg.basis_adds"], 0)
        self.assertEqual(comodule_run["layers"]["scalar.cyclotomic_share"], 0)


if __name__ == "__main__":
    unittest.main()
