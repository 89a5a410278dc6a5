"""Tests of compare.py's verdicts (python3 -m unittest in perfbench/)."""

import unittest

from compare import failures, spread, verdict


class Verdict(unittest.TestCase):
    def test_steady_and_equal_is_same(self):
        before = [100, 101, 99, 100, 102, 98]
        after = [101, 100, 99, 101, 100, 102]
        self.assertEqual(verdict(before, after, "lower", 0.1), "same")

    def test_noisy_with_equal_medians_is_unresolved(self):
        # Medians are both 100, but each side's quartiles lie far apart.
        noisy = [40, 60, 100, 100, 140, 160]
        self.assertGreater(spread(noisy), 0.1)
        self.assertEqual(verdict(noisy, noisy, "lower", 0.1), "unresolved")

    def test_noisy_but_every_after_run_better(self):
        before = [200, 300, 400, 500, 600]
        after = [10, 20, 30, 40, 50]
        self.assertEqual(verdict(before, after, "lower", 0.1), "better")
        self.assertEqual(verdict(after, before, "higher", 0.1), "better")

    def test_steady_change_beyond_bound(self):
        before = [100, 100, 101, 99, 100]
        after = [130, 131, 129, 130, 130]
        self.assertEqual(verdict(before, after, "lower", 0.1), "WORSE")
        self.assertEqual(verdict(before, after, "higher", 0.1), "better")

    def test_too_few_runs_is_unresolved(self):
        # One record per side has zero spread but proves nothing.
        self.assertEqual(verdict([100], [100], "lower", 0.1), "unresolved")
        self.assertEqual(verdict([100] * 4, [100] * 6, "lower", 0.1),
                         "unresolved")


class Failures(unittest.TestCase):
    def test_sums_untraced_runs_of_the_workload(self):
        runs = [
            {"workload": "grid", "trace": 0, "attempted": 10, "failed": 1},
            {"workload": "grid", "trace": 0, "attempted": 10, "failed": 2},
            {"workload": "grid", "trace": 1, "attempted": 10, "failed": 5},
            {"workload": "other", "trace": 0, "attempted": 7, "failed": 7},
        ]
        self.assertEqual(failures(runs, "grid"), (20, 3))
        self.assertEqual(failures(runs, "none"), (0, 0))


if __name__ == "__main__":
    unittest.main()
