"""Self-tests for perfbench/stats.py; run.py runs them before every run.

    python3 perfbench/test_stats.py
"""

import unittest

import stats


def spans(*rows):
    return [stats.Span(op=0, id=i, parent=p, name="s", start=a, end=b,
                       flushes=0, merge_us=0)
            for i, p, a, b in rows]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 99.9), 100)
        self.assertEqual(stats.percentile([7], 50), 7)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(1009, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(10000, 99.9), 10)


class TailTest(unittest.TestCase):
    def test_highest_ladder_step_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(1000)), 99.9)[0], 99.0)
        self.assertEqual(stats.tail(list(range(10000)), 99.9)[0], 99.9)
        # 1009 samples: p99 leaves 10 beyond, p99.9 only 1.
        self.assertEqual(stats.tail(list(range(1009)), 99.9)[0], 99.0)
        # 990 samples: p99 leaves 9 beyond, so p90 it is.
        p, value, beyond = stats.tail(list(range(990)), 99.9)
        self.assertEqual((p, beyond), (90.0, 99))
        self.assertEqual(value, 890)

    def test_cap_keeps_tail_below_rare_mode(self):
        # 0.1% of ops are 1000x slower; a p99.9 tail would sit on them.
        values = sorted([1.0] * 99900 + [1000.0] * 100)
        p, value, beyond = stats.tail(values, 99.0)
        self.assertEqual((p, value), (99.0, 1.0))
        self.assertGreaterEqual(beyond, 10)

    def test_few_samples_fall_back_below_the_ladder(self):
        p, value, beyond = stats.tail(list(range(30)), 99.9)
        self.assertEqual(beyond, 10)
        self.assertEqual(value, 19)
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)), 99.9)


class QuietestSegmentTest(unittest.TestCase):
    def test_full_segments_only(self):
        self.assertEqual(stats.segments(list(range(7)), 3), [[0, 1, 2], [3, 4, 5]])
        self.assertEqual(stats.segments(list(range(2)), 3), [[0, 1]])

    def test_lowest_segment_median(self):
        # A noisy segment where every op took twice as long, then a quiet one.
        quiet = [1.0 + i / 1000.0 for i in range(1000)]
        noisy = [2 * v for v in quiet]
        self.assertEqual(stats.quietest_p50(noisy + quiet + noisy[:10], 1000),
                         (stats.percentile(quiet, 50.0), 2))
        # Fewer samples than a segment: the whole run is the one segment.
        self.assertEqual(stats.quietest_p50(noisy[:9], 1000),
                         (stats.percentile(sorted(noisy[:9]), 50.0), 1))


class GeomeanTest(unittest.TestCase):
    def test_geomean_over_op_types(self):
        self.assertAlmostEqual(stats.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(stats.geomean([4.0, 4.0, 4.0]), 4.0)
        # Scaling one op type by k scales the geomean by k^(1/n).
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]) * 2 ** 0.5,
                               stats.geomean([4.0, 8.0]))

    def test_geomean_rejects_nonpositive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class SelfTimeTest(unittest.TestCase):
    def test_leaf_and_nested_children(self):
        got = stats.self_times(spans(
            (0, -1, 0, 100),   # root
            (1, 0, 10, 40),    # child
            (2, 1, 15, 25),    # grandchild: counts against 1, not 0
            (3, 0, 50, 60)))   # second child
        self.assertEqual(got, {0: 60, 1: 20, 2: 10, 3: 10})

    def test_overlapping_children_counted_once(self):
        got = stats.self_times(spans(
            (0, -1, 0, 100),
            (1, 0, 10, 50),
            (2, 0, 30, 70),    # overlaps child 1 on [30, 50)
            (3, 0, 70, 80)))   # touches child 2
        self.assertEqual(got[0], 100 - 70)

    def test_children_clipped_to_parent(self):
        got = stats.self_times(spans(
            (0, -1, 10, 20),
            (1, 0, 5, 15)))    # starts before its parent
        self.assertEqual(got[0], 5)

    def test_covered_union(self):
        self.assertEqual(stats.covered((0, 10), []), 0)
        self.assertEqual(stats.covered((0, 10), [(2, 4), (3, 6), (8, 12)]), 6)


if __name__ == "__main__":
    unittest.main()
