"""Self-tests of the benchmark harness (not of the program under test).

    python3 perfbench/check_harness.py

Checks that the input generators are deterministic for a seed, that the
span wrappers leave no patched attribute behind, that self time is
computed from direct children, that the compile workloads probe the
machine's speed once before each timed unit, and that the metric and workload names the
harness emits are exactly those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 7):
            self.assertEqual(inputs.compile_inputs("compile-convnet", seed),
                             inputs.compile_inputs("compile-convnet", seed))
            self.assertEqual(inputs.tune_inputs(seed), inputs.tune_inputs(seed))
            self.assertEqual(inputs.serve_inputs(seed), inputs.serve_inputs(seed))

    def test_seed_moves_inputs(self):
        self.assertNotEqual(inputs.compile_inputs("compile-transformer", 0),
                            inputs.compile_inputs("compile-transformer", 1))
        self.assertNotEqual(inputs.tune_inputs(0), inputs.tune_inputs(1))
        self.assertNotEqual(inputs.serve_inputs(0), inputs.serve_inputs(1))

    def test_tune_pairs_span_families_and_tuner_seeds(self):
        from repro.workloads import suite_specs

        suite = {s.name for s in suite_specs()}
        self.assertTrue(all(op in suite for op, _ in inputs.TUNE_PAIRS))
        self.assertEqual(len({t for _, t in inputs.TUNE_PAIRS}), len(inputs.TUNE_PAIRS))
        self.assertEqual(sorted(inputs.tune_inputs(3)), sorted(inputs.TUNE_PAIRS))

    def test_serve_stream_shape(self):
        from repro.tuning import SpaceOptions, enumerate_space

        shapes = inputs.tileable_zoo_shapes()
        stream = inputs.serve_inputs(5)
        per_cold = inputs.WARM_PER_COLD + 1
        self.assertEqual(len(stream), per_cold * len(shapes))
        # Each block opens with the first request of a new shape, and its
        # warm reads only ask for shapes already requested.
        seen = set()
        for i in range(0, len(stream), per_cold):
            self.assertNotIn(stream[i].dims, seen)
            seen.add(stream[i].dims)
            self.assertTrue(all(s.dims in seen for s in stream[i:i + per_cold]))
        self.assertEqual(seen, {s.dims for s in shapes})
        opts = SpaceOptions(max_size=inputs.SERVE_SPACE)
        for s in shapes:
            self.assertTrue(enumerate_space(s.spec(), options=opts))


class TestWrappers(unittest.TestCase):
    def _bindings(self):
        return {(mod.__name__, name): value for mod in layers._repro_modules()
                for name, value in vars(mod).items() if callable(value)}

    def test_installed_then_fully_restored(self):
        from repro.tuning import SpaceOptions, enumerate_space
        from repro.workloads import get_operator

        with layers.installed(layers.Recorder("probe")):
            pass  # imports every layer module before the baseline snapshot
        before = self._bindings()
        rec = layers.Recorder("t")
        with layers.installed(rec):
            self.assertTrue(layers.leftover_wrappers())
            from repro import tuning
            tuning.enumerate_space(get_operator("MM_RN50_FC"),
                                   options=SpaceOptions(max_size=10))
        self.assertEqual(layers.leftover_wrappers(), [])
        self.assertEqual(self._bindings(), before)
        self.assertEqual([s.name for s in rec.spans], ["tuning.space"])
        enumerate_space(get_operator("MM_RN50_FC"), options=SpaceOptions(max_size=10))
        self.assertEqual(len(rec.spans), 1)

    def test_every_entry_point_resolves(self):
        import importlib

        for layer, entry_points in layers.LAYERS.items():
            for module, path in entry_points:
                owner = importlib.import_module(module)
                for part in path.split("."):
                    owner = getattr(owner, part)
                self.assertTrue(callable(owner), f"{layer}: {module}.{path}")


class TestStats(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        rec = layers.Recorder("t")
        with rec.span("outer"):
            with rec.span("inner"):
                with rec.span("outer"):  # re-entry folds into the open span
                    time.sleep(0.01)
            time.sleep(0.01)
        stats = layers.layer_stats(rec)
        self.assertEqual(stats["outer"].calls, 1)
        self.assertAlmostEqual(stats["outer"].self_s,
                               stats["outer"].busy_s - stats["inner"].busy_s)
        self.assertGreater(stats["outer"].self_s, 0.009)

    def test_tail_rule(self):
        self.assertEqual(run.tail([float(i) for i in range(5)]), (4.0, 100.0))
        value, pct = run.tail([float(i) for i in range(100)])
        self.assertEqual((value, pct), (89.0, 90.0))


class TestSpeedProbes(unittest.TestCase):
    def test_one_probe_before_each_timed_unit(self):
        class Inner:
            def gemm_latency(self, spec):
                return 1.0

        class Spec:
            def __init__(self, name):
                self.name = name

        calls, units = [], []
        timed = workloads.TimedBackend(Inner(), units, frozenset({"fallback"}),
                                       lambda: calls.append(time.sleep(0.01)))
        for name in ("a", "fallback", "b"):
            timed.gemm_latency(Spec(name))
        self.assertEqual([u.key for u in units], ["a", "b"])
        self.assertEqual(len(calls), 2)
        self.assertGreater(timed.paused_s, 0.019)
        self.assertGreater(speed.probe(), 0.0)


class TestDeclaredNames(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_metric_names_and_units(self):
        for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = [(m["name"], m["unit"]) for m in self.bench[key]]
            self.assertEqual(declared, list(emitted), key)

    def test_workload_names(self):
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(run.RUNNERS))

    def test_layer_metric_rows_documented(self):
        readme = (HERE / "README.md").read_text()
        for name, _ in run.PER_LAYER:
            self.assertIn(f"`{name}`", readme)


if __name__ == "__main__":
    unittest.main()
