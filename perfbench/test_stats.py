"""Tests of the benchmark's own arithmetic. Run from the root of a checkout:

    python3 -m unittest perfbench/test_stats.py
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402
import stats  # noqa: E402


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end, "attrs": {}}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        # A grandchild reduces its parent's self time, not the root's.
        got = stats.self_times([span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30)])
        self.assertEqual(got, {1: 70, 2: 20, 3: 10})

    def test_overlapping_children_count_once(self):
        got = stats.self_times([span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)])
        self.assertEqual(got[1], 40)

    def test_children_outside_the_interval_are_clipped(self):
        # A plan node's children run after it ends; they take none of its time.
        got = stats.self_times([span(1, 0, 0, 10), span(2, 1, 20, 30),
                                span(3, 0, 100, 200), span(4, 3, 190, 250)])
        self.assertEqual((got[1], got[3]), (10, 90))


class TailPercentile(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))

    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, p in ((20, 50), (39, 50), (40, 75), (100, 90), (199, 90), (200, 95),
                     (1000, 99), (10000, 99.9)):
            xs = list(range(1, n + 1))
            got_p, value = stats.tail_percentile(xs)
            self.assertEqual(got_p, p, f"n={n}")
            self.assertGreaterEqual(sum(1 for x in xs if x > value), 10, f"n={n}")

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
        self.assertEqual(stats.tail_percentile(xs), stats.tail_percentile(sorted(xs)))


class AssignFanout(unittest.TestCase):
    """`exec.assign_fanout` as the benchmark computes it, on Spark."""

    def test_tumbling_is_one_and_hopping_min_is_more(self):
        build.build()
        work = os.path.abspath(os.path.join(build.OUT, f"fanout-check-{os.getpid()}"))
        os.makedirs(work, exist_ok=True)
        try:
            out = subprocess.run(
                build.java("1g", work) + ["repro.perfbench.FanoutCheck", work],
                check=True, capture_output=True, text=True, timeout=300).stdout
        finally:
            shutil.rmtree(work, ignore_errors=True)
        fanout = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(fanout["tumbling"], 1.0)
        # W(40,10) and W(80,20) put an event in 4 instances, W(120,40) in 3,
        # fewer near the stream origin.
        self.assertGreater(fanout["hopping-min"], 3.5)
        self.assertLess(fanout["hopping-min"], 11 / 3)


if __name__ == "__main__":
    unittest.main()
