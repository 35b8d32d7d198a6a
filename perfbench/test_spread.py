"""Unit tests for spread.py's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

from spread import quartile_spread, summarize


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.3, 9.8, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_identical_values_do_not_spread(self):
        self.assertEqual(quartile_spread([1.0] * 10), 0.0)

    def test_zero_median_reads_zero(self):
        self.assertEqual(quartile_spread([0.0, 0.0, 0.0, 1.0]), 0.0)

    def test_outlier_beyond_the_quartiles_does_not_widen_it(self):
        steady = [100.0 + i for i in range(10)]
        with_outlier = steady[:-1] + [1000.0]
        self.assertAlmostEqual(quartile_spread(steady),
                               quartile_spread(with_outlier), delta=0.01)


class SummarizeTest(unittest.TestCase):
    def test_verdicts_against_the_bound(self):
        values = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1]
        self.assertEqual(summarize(values, 0.1)["verdict"], "ok")
        wide = [50.0, 150.0, 100.0, 75.0, 125.0, 60.0, 140.0, 100.0]
        self.assertEqual(summarize(wide, 0.1)["verdict"], "TOO WIDE")
        middling = [94.0, 106.0, 100.0, 97.0, 103.0, 95.0, 105.0, 100.0]
        self.assertEqual(summarize(middling, 0.25)["verdict"], "unsteady")

    def test_unjudged_spread_reads_median_only(self):
        wide = [50.0, 150.0, 100.0, 75.0, 125.0, 60.0, 140.0, 100.0]
        s = summarize(wide, 0.1, judge_spread=False)
        self.assertEqual(s["verdict"], "median only")
        self.assertGreater(s["spread"], 0.1)

    def test_reports_median_and_extremes(self):
        s = summarize([3.0, 1.0, 2.0, 4.0], 0.25)
        self.assertEqual(s["median"], 2.5)
        self.assertEqual((s["min"], s["max"]), (1.0, 4.0))


if __name__ == "__main__":
    unittest.main()
