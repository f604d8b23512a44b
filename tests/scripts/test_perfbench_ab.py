#!/usr/bin/env python3
"""Verdict and table logic of scripts/perfbench_ab.py on canned pair
data; runs no perfbench.

    python3 tests/scripts/test_perfbench_ab.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "scripts"))
import perfbench_ab  # noqa: E402


def pairs(parent, change):
    return list(zip(parent, change))


# Ten parent runs with median 100 and a q1-q3 spread of 1.5.
STEADY = [98, 99, 99, 100, 100, 100, 100, 101, 101, 102]


class Verdict(unittest.TestCase):
    def test_gain_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_spread(self):
        change = [v * 1.10 for v in STEADY]
        self.assertEqual(perfbench_ab.verdict(pairs(STEADY, change), "higher", 0.25),
                         "gain")

    def test_exactly_nine_of_ten_pairs_is_a_gain(self):
        change = [v + 10 for v in STEADY]
        change[0] = STEADY[0] - 1
        self.assertEqual(perfbench_ab.verdict(pairs(STEADY, change), "higher", 0.25),
                         "gain")

    def test_eight_of_ten_pairs_is_not_a_gain(self):
        change = [v + 10 for v in STEADY]
        change[0] = STEADY[0] - 1
        change[1] = STEADY[1]  # a tie counts for neither side
        self.assertEqual(perfbench_ab.verdict(pairs(STEADY, change), "higher", 0.25),
                         "same")

    def test_gap_inside_the_parents_spread_is_not_a_gain(self):
        change = [v + 1 for v in STEADY]  # wins every pair; gap 1 < 1.5
        self.assertEqual(perfbench_ab.verdict(pairs(STEADY, change), "higher", 0.25),
                         "same")

    def test_lower_is_better_metrics_gain_by_falling(self):
        change = [v * 0.8 for v in STEADY]
        self.assertEqual(perfbench_ab.verdict(pairs(STEADY, change), "lower", 0.25),
                         "gain")
        self.assertEqual(perfbench_ab.verdict(pairs(STEADY, change), "higher", 0.25),
                         "same")

    def test_worse_is_a_median_beyond_the_bound(self):
        self.assertEqual(
            perfbench_ab.verdict(pairs(STEADY, [v * 0.74 for v in STEADY]),
                                 "higher", 0.25), "worse")
        self.assertEqual(
            perfbench_ab.verdict(pairs(STEADY, [v * 0.76 for v in STEADY]),
                                 "higher", 0.25), "same")
        self.assertEqual(
            perfbench_ab.verdict(pairs(STEADY, [v * 1.21 for v in STEADY]),
                                 "lower", 0.2), "worse")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        change = list(reversed(parent))
        self.assertEqual(perfbench_ab.verdict(pairs(parent, change), "higher", 0.25),
                         "unresolved")
        self.assertEqual(perfbench_ab.verdict(pairs(parent, change), "higher", 0.5),
                         "same")

    def test_a_change_beating_every_parent_run_is_not_unresolved(self):
        parent = [0, 0, 0, 50, 100, 100, 100, 100, 100, 101]
        change = [102] * 10  # gap 2 < spread 87.5: no gain either
        self.assertEqual(perfbench_ab.verdict(pairs(parent, change), "higher", 0.25),
                         "same")

    def test_a_gain_outranks_a_wide_spread(self):
        parent = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        change = [v * 2 for v in parent]
        self.assertEqual(perfbench_ab.verdict(pairs(parent, change), "higher", 0.25),
                         "gain")

    def test_metrics_without_a_bound_read_only_gain_or_same(self):
        self.assertEqual(
            perfbench_ab.verdict(pairs(STEADY, [v * 0.5 for v in STEADY]),
                                 "higher", None), "same")
        self.assertEqual(
            perfbench_ab.verdict(pairs(STEADY, [v * 1.5 for v in STEADY]),
                                 "higher", None), "gain")

    def test_a_zero_parent_median_makes_any_worsening_worse(self):
        self.assertEqual(perfbench_ab.verdict(pairs([0] * 4, [0] * 4), "lower", 0.05),
                         "same")
        self.assertEqual(perfbench_ab.verdict(pairs([0] * 4, [0.01] * 4), "lower", 0.05),
                         "worse")


SPEC = {
    "workloads": [{"name": "alpha"}, {"name": "beta"}, {"name": "gamma"}],
    "end_to_end": [
        {"name": "sim_cycles_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [],
}


class Tables(unittest.TestCase):
    """main() on fake trees, with each run answered from canned data."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        self.change = os.path.join(self.tmp.name, "change")
        for tree in (self.parent, self.change):
            os.makedirs(tree)
            with open(os.path.join(tree, "BENCHMARK.json"), "w") as f:
                json.dump(SPEC, f)
        self.calls = []

    def tearDown(self):
        self.tmp.cleanup()

    def fake_run(self, tree, workload, seed, seconds, trace):
        self.calls.append((tree, workload, seed))
        speed = 110.0 if tree == self.change else 100.0
        return {"sim_cycles_per_s": speed + seed % 2, "peak_rss_mb": 10.0}

    def main(self, workload):
        argv = ["perfbench_ab.py", "--parent", self.parent, "--change",
                self.change, "--workload", workload, "--pairs", "4"]
        out = io.StringIO()
        with mock.patch.object(sys, "argv", argv), \
                mock.patch.object(perfbench_ab, "run", self.fake_run), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = perfbench_ab.main()
        return status, out.getvalue()

    def test_single_workload_prints_one_table(self):
        status, out = self.main("beta")
        self.assertEqual(status, 0)
        self.assertEqual(out.count("alternating pairs"), 1)
        self.assertIn("beta: 4 alternating pairs, seeds 1..4, 20 s runs", out)
        self.assertEqual(len(self.calls), 8)
        rows = {line.split()[0]: line.split() for line in out.splitlines()
                if line.startswith("  ") and "metric" not in line}
        self.assertEqual(rows["sim_cycles_per_s"][-2:], ["4/4", "gain"])
        self.assertEqual(rows["peak_rss_mb"][-2:], ["0/4", "same"])

    def test_comma_list_and_all_print_one_table_per_workload(self):
        _, out = self.main("gamma,alpha")
        self.assertLess(out.index("gamma:"), out.index("alpha:"))
        self.assertNotIn("beta:", out)
        self.calls.clear()
        _, out = self.main("all")
        for name in ("alpha", "beta", "gamma"):
            self.assertEqual(out.count(f"{name}: 4 alternating pairs"), 1)
        self.assertEqual(len(self.calls), 24)

    def test_pairs_alternate_which_side_runs_first(self):
        self.main("alpha")
        firsts = [self.calls[i][0] for i in range(0, 8, 2)]
        self.assertEqual(firsts, [self.parent, self.change] * 2)

    def test_one_tree_for_both_sides_exits_2_before_any_run(self):
        self.change = self.parent
        status, _ = self.main("all")
        self.assertEqual(status, 2)
        self.assertEqual(self.calls, [])


if __name__ == "__main__":
    unittest.main()
