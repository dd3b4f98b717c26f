#!/usr/bin/env python3
"""Unit tests of the perf gate's decision logic, on synthetic medians.

    python3 tools/test_perf_gate.py
"""

import unittest

from perf_gate import failed_share_grew, verdict

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0]


def scaled(factor):
    return [v * factor for v in PARENT]


class Verdict(unittest.TestCase):
    def test_a_metric_30_percent_worse_fails(self):
        self.assertEqual(verdict(PARENT, scaled(1.3), "lower", 0.25)[0], "worse")
        self.assertEqual(verdict(PARENT, scaled(0.7), "higher", 0.25)[0], "worse")

    def test_a_change_within_the_bound_passes(self):
        for factor in (0.8, 0.95, 1.0, 1.1, 1.2):
            self.assertEqual(verdict(PARENT, scaled(factor), "lower", 0.25)[0], "ok", factor)
            self.assertEqual(verdict(PARENT, scaled(2 - factor), "higher", 0.25)[0], "ok",
                             factor)

    def test_the_direction_of_better_is_honoured(self):
        # Latency down and throughput up are gains, never failures.
        self.assertEqual(verdict(PARENT, scaled(0.5), "lower", 0.25)[0], "ok")
        self.assertEqual(verdict(PARENT, scaled(2.0), "higher", 0.25)[0], "ok")
        # The same numbers fail with the direction flipped.
        self.assertEqual(verdict(PARENT, scaled(0.5), "higher", 0.25)[0], "worse")
        self.assertEqual(verdict(PARENT, scaled(2.0), "lower", 0.25)[0], "worse")

    def test_ratio_and_parent_iqr_are_reported(self):
        _, ratio, iqr = verdict(PARENT, scaled(1.1), "lower", 0.25)
        self.assertAlmostEqual(ratio, 1.1)
        self.assertAlmostEqual(iqr, 1.0)  # quartiles 100 and 101

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
        self.assertEqual(verdict(noisy, [105.0] * 5, "lower", 0.25)[0], "unresolved")
        # Unless every change run beats every parent run.
        self.assertEqual(verdict(noisy, [50.0] * 5, "lower", 0.25)[0], "ok")


class FailedShare(unittest.TestCase):
    def runs(self, failed, attempted):
        return [{"failed": failed, "attempted": attempted}] * 5

    def test_a_larger_failed_share_fails(self):
        self.assertTrue(failed_share_grew(self.runs(0, 100), self.runs(1, 100)))
        self.assertTrue(failed_share_grew(self.runs(1, 100), self.runs(2, 100)))

    def test_an_equal_or_smaller_failed_share_passes(self):
        self.assertFalse(failed_share_grew(self.runs(0, 100), self.runs(0, 50)))
        self.assertFalse(failed_share_grew(self.runs(2, 100), self.runs(1, 100)))


if __name__ == "__main__":
    unittest.main()
