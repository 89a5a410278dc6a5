"""Tests of the ten-beyond percentile rule (python3 -m unittest in perfbench/)."""

import unittest

from percentiles import (percentile, reportable_permille, samples_beyond,
                         summarize)


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_beyond(self):
        # 1,000 samples: exactly 10 beyond p99, which is the 990th sample.
        self.assertEqual(samples_beyond(1000, 990), 10)
        self.assertEqual(reportable_permille(1000, 990), 990)
        self.assertEqual(percentile(list(range(1, 1001)), 990), 990)
        # 999 samples: only 9 beyond p99, so the tail falls back to p90.
        self.assertEqual(samples_beyond(999, 990), 9)
        self.assertEqual(reportable_permille(999, 990), 900)
        self.assertEqual(summarize(range(1, 1000), 990), (900, 900))

    def test_never_above_the_asked_percentile(self):
        self.assertEqual(reportable_permille(10_000, 999), 999)
        self.assertEqual(reportable_permille(9_999, 999), 990)
        self.assertEqual(reportable_permille(10_000, 990), 990)
        self.assertEqual(percentile(list(range(1, 10_001)), 999), 9990)

    def test_too_few_samples(self):
        # No tail qualifies: the maximum, marked as permille 1000.
        self.assertEqual(summarize([5, 1, 3], 990), (5, 1000))
        self.assertEqual(summarize([5, 1, 3], 500), (3, 500))
        self.assertEqual(summarize([], 990), (0.0, 1000))

    def test_median_and_max(self):
        self.assertEqual(summarize(range(1, 2001), 500), (1000, 500))
        self.assertEqual(summarize(range(1, 2001), 990), (1980, 990))
        self.assertEqual(summarize([2, 9, 4], 1000), (9, 1000))


if __name__ == "__main__":
    unittest.main()
