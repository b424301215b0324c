"""Checks of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


class TailPercentile(unittest.TestCase):
    def test_p90_when_enough_samples_lie_beyond(self):
        samples = list(range(100))
        self.assertEqual(benchlib.tail_percentile(samples), (90.0, 89))
        samples = list(range(200))
        self.assertEqual(benchlib.tail_percentile(samples), (90.0, 179))

    def test_lower_percentile_keeps_ten_beyond(self):
        pct, value = benchlib.tail_percentile(list(range(50)))
        self.assertEqual((pct, value), (80.0, 39))

    def test_median_when_no_tail_percentile_exists(self):
        # Even count: the same median as benchlib.median, never below it.
        self.assertEqual(benchlib.tail_percentile(list(range(14))),
                         (50.0, 6.5))
        self.assertEqual(benchlib.tail_percentile([5.0]), (50.0, 5.0))

    def test_highest_percentile_with_ten_beyond_for_every_size(self):
        for n in range(21, 400):
            samples = [float(i) for i in range(n)]
            pct, value = benchlib.tail_percentile(samples)
            beyond = sum(1 for x in samples if x > value)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertLessEqual(pct, 90.0)
            # One rank higher would either pass p90 or leave < 10 beyond.
            self.assertTrue(pct + 100.0 / n > 90.0 + 1e-9 or beyond == 10, n)

    def test_order_of_samples_does_not_matter(self):
        samples = [3.0, 1.0, 2.0] * 40
        self.assertEqual(benchlib.tail_percentile(samples),
                         benchlib.tail_percentile(sorted(samples)))


def span(name, start, end, parent=-1, replay=False, host=None):
    return (name, start, end, parent, 0, replay,
            parent if host is None else host)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100),
                 span("a", 10, 50, parent=0),
                 span("b", 30, 70, parent=0)]
        self.assertEqual(benchlib.self_times(spans), [40, 40, 40])

    def test_nested_and_disjoint_children(self):
        spans = [span("root", 0, 100),
                 span("a", 0, 20, parent=0),
                 span("a.inner", 5, 15, parent=1),
                 span("b", 90, 100, parent=0)]
        self.assertEqual(benchlib.self_times(spans), [70, 10, 10, 10])

    def test_child_reaching_past_its_parent_is_clipped(self):
        spans = [span("root", 0, 100), span("a", 80, 130, parent=0)]
        self.assertEqual(benchlib.self_times(spans)[0], 80)

    def test_replay_is_taken_from_its_parent_and_from_its_host(self):
        # "fill" ran 0..50; its inner call was replayed at 60..80 while
        # "root" was the open span.
        spans = [span("root", 0, 100),
                 span("fill", 0, 50, parent=0),
                 span("inner", 60, 80, parent=1, replay=True, host=0)]
        self.assertEqual(benchlib.self_times(spans), [30, 30, 20])

    def test_layer_totals_floor_self_time_at_zero(self):
        spans = [span("fill", 0, 10),
                 span("inner", 20, 35, parent=0, replay=True, host=-1)]
        table = benchlib.layer_totals(spans)
        self.assertEqual(table["fill"], (1, 10, 0))
        self.assertEqual(table["inner"], (1, 15, 15))


class FailedRatio(unittest.TestCase):
    def test_busy_error_and_digest_mismatch_count_as_failed(self):
        digest = benchlib.canonical_digest({"x": 1})
        outcomes = [
            benchlib.served_outcome({"status": "ok", "result": {"x": 1}},
                                    digest),
            benchlib.served_outcome({"status": "busy",
                                     "retry_after_ms": 50}, digest),
            benchlib.served_outcome({"status": "error", "error": "no"},
                                    digest),
            benchlib.served_outcome({"status": "ok", "result": {"x": 2}},
                                    digest),
            benchlib.EXIT,
        ]
        self.assertEqual(outcomes, [benchlib.OK, benchlib.BUSY,
                                    benchlib.ERROR, benchlib.DIGEST,
                                    benchlib.EXIT])
        self.assertEqual(benchlib.count_failures(outcomes), (5, 4, 0.8))

    def test_no_failures(self):
        self.assertEqual(benchlib.count_failures([benchlib.OK] * 3),
                         (3, 0, 0.0))


class Digest(unittest.TestCase):
    def test_canonical_digest_ignores_layout_not_values(self):
        compact = '{"b":[1,2.5],"a":{"c":null}}'
        indented = '{\n  "a": {\n    "c": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        self.assertEqual(benchlib.canonical_digest(compact),
                         benchlib.canonical_digest(indented))
        self.assertNotEqual(benchlib.canonical_digest(compact),
                            benchlib.canonical_digest('{"b":[1,2.5000001],"a":{"c":null}}'))


if __name__ == "__main__":
    unittest.main()
