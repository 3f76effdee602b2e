"""Self-tests of the benchmark's own logic (streams, tail rule, names).

    python3 perfbench/selftest.py

They need no program source and start no system under test.
"""

from __future__ import annotations

import json
import random
import unittest
from pathlib import Path

import run
import streams

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def fake_edges(name: str):
    """A stand-in edge list: anchors only need to be edges of *some* graph."""
    rng = random.Random(name)
    return [(i, i + 1 + rng.randrange(40)) for i in range(3000)]


class StreamTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_stream(self):
        for seed in (0, 7, 123):
            self.assertEqual(
                json.dumps(streams.serve_mix(seed, 20)), json.dumps(streams.serve_mix(seed, 20))
            )
            self.assertEqual(
                json.dumps(streams.solve_large(seed, 20, fake_edges)),
                json.dumps(streams.solve_large(seed, 20, fake_edges)),
            )

    def test_different_seeds_give_identical_class_counts(self):
        for make in (
            lambda seed: streams.serve_mix(seed, 20),
            lambda seed: streams.solve_large(seed, 20, fake_edges),
        ):
            first = make(1)
            self.assertNotEqual(json.dumps(first), json.dumps(make(2)))
            for seed in range(2, 12):
                self.assertEqual(streams.class_counts(make(seed)), streams.class_counts(first))

    def test_solve_large_has_no_duplicate_specs(self):
        for seed in range(30):
            for seconds in (10, 20, 60):
                stream = streams.solve_large(seed, seconds, fake_edges)
                keys = [streams.request_key(r) for r in stream]
                self.assertEqual(len(keys), len(set(keys)), (seed, seconds))

    def test_serve_mix_repeats_only_where_labelled(self):
        for seed in range(20):
            stream = streams.serve_mix(seed, 20)
            position_of = {}
            for position, request in enumerate(stream):
                key = streams.request_key(request)
                if request["class"] == "repeat":
                    self.assertGreaterEqual(position - position_of[key], streams.REPEAT_DISTANCE)
                else:
                    self.assertNotIn(key, position_of)
                    position_of[key] = position
            repeats = streams.class_counts(stream)["repeat"]
            self.assertAlmostEqual(repeats / len(stream), 0.35, places=2)

    def test_inline_solves_are_equal_work_on_distinct_graphs(self):
        # The median of the TCP workloads falls among the inline solves; it
        # is steady only while they all do the same work.
        graphs = [streams.inline_graph(index) for index in range(streams.INLINE_GRAPHS)]
        self.assertEqual(len({json.dumps(graph) for graph in graphs}), streams.INLINE_GRAPHS)
        shapes = set()
        for graph in graphs:
            degrees = [0] * streams.INLINE_VERTICES
            for u, v in graph:
                degrees[u] += 1
                degrees[v] += 1
            shapes.add((len(graph), tuple(sorted(degrees))))
        self.assertEqual(len(shapes), 1)
        inline = [r for r in streams.serve_mix(5, 20) if "edges" in r and r["class"] != "repeat"]
        self.assertEqual(len(inline), 30)
        self.assertEqual(
            {(r["algorithm"], r["budget"]) for r in inline}, {("gas", 2), ("base+", 3)}
        )

    def test_warmup_requests_are_not_stream_requests(self):
        stream = streams.serve_mix(3, 20)
        keys = {streams.request_key(r) for r in stream}
        warmup = streams.warmup_requests(stream)
        self.assertEqual(len(warmup), len(streams.SERVE_OTHER_DATASETS) + 1 + streams.INLINE_GRAPHS)
        self.assertFalse(keys & {streams.request_key(r) for r in warmup})


class TailTests(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        for count in range(run.TAIL_BEYOND + 1, 300):
            samples = [float(i) for i in range(count)]
            random.Random(count).shuffle(samples)
            value, percentile = run.tail(samples)
            beyond = sum(1 for s in samples if s > value)
            self.assertEqual(beyond, run.TAIL_BEYOND)
            self.assertAlmostEqual(percentile, 100.0 * (count - run.TAIL_BEYOND) / count)

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * run.TAIL_BEYOND)


class NameTests(unittest.TestCase):
    def test_computed_end_to_end_metrics_are_the_declared_ones(self):
        served = run.Pass(
            requests=[{}] * 20, outcomes=[{}] * 20, latencies=[0.1 * i for i in range(20)],
            wall_s=2.0, cpu_s=1.5, peak_rss_mib=100.0, setup_s=[1.0, 1.2, 1.1],
        )
        self.assertEqual(list(run.end_to_end(served, 20)), list(run.declared("end_to_end")))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.CALLERS))

    def test_readme_documents_every_declared_metric(self):
        readme = (Path(__file__).with_name("README.md")).read_text()
        for kind in ("end_to_end", "per_layer"):
            for name, unit in run.declared(kind).items():
                self.assertIn(f"| `{name}` | {unit} |", readme)


if __name__ == "__main__":
    unittest.main()
