"""Self-tests of run.py's steadiness statistics.

    python3 -m unittest discover -s servebench/tests -p 'test_*.py'
"""
import importlib.util
import os
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "servebench_run", os.path.join(os.path.dirname(__file__), "..", "run.py"))
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


class Quartiles(unittest.TestCase):
    def test_exclusive_method(self):
        self.assertEqual(run.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(run.quartiles([16, 1, 8, 2, 4]), (1.5, 4.0, 12.0))

    def test_extrapolates_past_two_samples(self):
        self.assertEqual(run.quartiles([5, 3]), (2.5, 4.0, 5.5))

    def test_needs_two_samples(self):
        with self.assertRaises(Exception):
            run.quartiles([1.0])


class Spread(unittest.TestCase):
    def test_share_of_median(self):
        self.assertAlmostEqual(run.spread([16, 1, 8, 2, 4]), 10.5 / 4.0)
        self.assertEqual(run.spread([7.0] * 10), 0.0)

    def test_zero_median_is_unbounded(self):
        self.assertEqual(run.spread([-1.0, 0.0, 0.0, 1.0]), float("inf"))


if __name__ == "__main__":
    unittest.main()
