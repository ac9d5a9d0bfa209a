"""Self-test of the benchmark's own arithmetic on synthetic spans and timings.

    python3 perfbench/test_benchmath.py
    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import types
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


class TailTest(unittest.TestCase):
    def test_rank_leaves_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 101)]
        value, percentile, n = stats.tail(reversed(values))
        self.assertEqual((value, percentile, n), (90.0, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), stats.TAIL_BEYOND)

    def test_smallest_sample_count(self):
        self.assertEqual(stats.tail(range(11)), (0, 100.0 / 11, 11))
        with self.assertRaises(ValueError):
            stats.tail(range(10))

    def test_percentile_moves_with_n(self):
        _, percentile, n = stats.tail([1.0] * 36)
        self.assertEqual(n, 36)
        self.assertAlmostEqual(percentile, 100.0 * 26 / 36)


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, median, q3 = stats.quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / median)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.relative_spread([2.0]), 0.0)


def span(sid, name, start, end, parent=-1, thread=0, **counters):
    return Span(sid, name, start, end, parent, thread, counters)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_clipped_intervals(self):
        self.assertEqual(tracing.covered_length([(1, 5), (3, 7), (8, 12)], 0, 10), 8)
        self.assertEqual(tracing.covered_length([], 0, 10), 0)
        self.assertEqual(tracing.covered_length([(-5, 20)], 0, 10), 10)

    def test_overlapping_children_on_two_threads_count_once(self):
        spans = [
            span(0, "outer", 0.0, 10.0),
            span(1, "child", 1.0, 5.0, parent=0, thread=1),
            span(2, "child", 3.0, 7.0, parent=0, thread=2),
            span(3, "leaf", 1.0, 2.0, parent=1, thread=1),
        ]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[0], 4.0)
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertAlmostEqual(selfs[2], 4.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_layer_metrics_sum_self_time_calls_and_counters(self):
        spans = [
            span(0, "a", 0.0, 4.0),
            span(1, "b", 1.0, 2.0, parent=0, sites=5),
            span(2, "b", 2.5, 3.0, parent=0, sites=7),
        ]
        layers = tracing.layer_metrics(spans, workers=2)
        self.assertAlmostEqual(layers["a.s"], 2.5)
        self.assertAlmostEqual(layers["b.s"], 1.5)
        self.assertEqual(layers["b.calls"], 2)
        self.assertEqual(layers["sites"], 12)
        self.assertEqual(layers["pipeline.montecarlo_minima.busy_ratio"], 0.0)
        self.assertAlmostEqual(tracing.top_level_time(spans), 4.0)


class BusyRatioTest(unittest.TestCase):
    def test_box_time_over_pool_capacity(self):
        mc, box = "pipeline.montecarlo_minima", "verification.box_min_eig"
        spans = [
            span(0, mc, 0.0, 10.0),
            span(1, box, 0.0, 9.0, parent=0, thread=1),
            span(2, box, 0.0, 8.0, parent=0, thread=2),
            span(3, box, 20.0, 30.0),  # not under Monte-Carlo
        ]
        self.assertAlmostEqual(tracing.busy_ratio(spans, workers=2), 17.0 / 20.0)
        self.assertAlmostEqual(tracing.busy_ratio(spans, workers=1), 17.0 / 10.0)
        self.assertEqual(tracing.busy_ratio(spans[3:], workers=2), 0.0)


class PatchAndTracerTest(unittest.TestCase):
    def setUp(self):
        def work(x):
            return x + 1

        self.home = types.ModuleType("bandedge.fakehome")
        self.home.work = work
        self.copy = types.ModuleType("bandedge.fakecopy")
        self.copy.alias = work  # as after "from .fakehome import work as alias"
        self.original = work
        sys.modules[self.home.__name__] = self.home
        sys.modules[self.copy.__name__] = self.copy

    def tearDown(self):
        del sys.modules[self.home.__name__]
        del sys.modules[self.copy.__name__]

    def test_every_binding_is_replaced_and_restored(self):
        calls = []

        def counting(function):
            def wrapper(*args):
                calls.append(args)
                return function(*args)

            return wrapper

        with tracing.patched("fakehome", "work", counting):
            self.assertEqual(self.home.work(1), 2)
            self.assertEqual(self.copy.alias(2), 3)
        self.assertEqual(calls, [(1,), (2,)])
        self.assertIs(self.home.work, self.original)
        self.assertIs(self.copy.alias, self.original)

    def test_worker_thread_spans_attach_to_the_submitting_span(self):
        tracer = tracing.Tracer()
        inner = tracer.wrapper_for("inner", None)(lambda x: threading.get_ident())

        def outer_body():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(inner, range(4)))

        outer = tracer.wrapper_for("outer", None)(outer_body)
        outer()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (top,) = by_name["outer"]
        self.assertEqual(top.parent, -1)
        self.assertEqual(len(by_name["inner"]), 4)
        for s in by_name["inner"]:
            self.assertEqual(s.parent, top.sid)
            self.assertNotEqual(s.thread, top.thread)
            self.assertTrue(top.start <= s.start <= s.end <= top.end)


class HostSpeedTest(unittest.TestCase):
    def test_timing_scaled_by_the_kernel_samples_either_side(self):
        ref = hostspeed.REFERENCE_S
        # op 0 ran at reference speed, op 1 on a host 1.5x slower throughout,
        # op 2 across a switch between the two
        kernel = [ref, ref, 1.5 * ref, ref]
        seconds = [0.2, 0.3, 0.5]
        expected = [0.2, 0.3 / 1.25, 0.5 / 1.25]
        for got, want in zip(hostspeed.normalise(seconds, kernel), expected):
            self.assertAlmostEqual(got, want)

    def test_a_uniform_slowdown_cancels(self):
        ref = hostspeed.REFERENCE_S
        seconds = [0.01, 0.4, 2.0]
        fast = hostspeed.normalise(seconds, [ref] * 4)
        slow = hostspeed.normalise([1.7 * t for t in seconds], [1.7 * ref] * 4)
        for a, b in zip(fast, slow):
            self.assertAlmostEqual(a, b)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]

    def test_every_change_run_better(self):
        change = [v - 2.0 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), stats.BETTER)
        self.assertEqual(stats.verdict(change, self.parent, "higher", 0.1), stats.BETTER)

    def test_nine_of_ten_pairs_and_median_past_parent_spread(self):
        change = [v - 0.5 for v in self.parent]
        change[0] = 12.0  # one lost pair
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), stats.BETTER)
        change[1] = 12.0  # two lost pairs: not a gain, but within the bound
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), stats.SAME)

    def test_worse_beyond_bound(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), stats.WORSE)
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.5), stats.SAME)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(stats.verdict(self.parent, noisy, "lower", 0.1), stats.UNRESOLVED)

    def test_direction_must_be_named(self):
        with self.assertRaises(ValueError):
            stats.verdict(self.parent, self.parent, "smaller", 0.1)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES)
        )
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
