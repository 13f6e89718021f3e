"""Per-stage profiling primitives and their integration with the measurer."""

import time

from repro.core import profiling
from repro.core.profiling import STAGE_ORDER, StageTimes, collect, stage


class TestStageTimes:
    def test_add_and_total(self):
        t = StageTimes()
        t.add("lower", 0.25)
        t.add("lower", 0.25)
        t.add("simulate", 0.5)
        assert t["lower"] == 0.5
        assert t.total == 1.0

    def test_merge_folds_worker_breakdowns(self):
        t = StageTimes()
        t.add("schedule", 1.0)
        t.merge({"schedule": 0.5, "simulate": 2.0})
        assert t["schedule"] == 1.5 and t["simulate"] == 2.0

    def test_ordered_follows_canonical_order(self):
        t = StageTimes()
        t.add("simulate", 1.0)
        t.add("schedule", 1.0)
        t.add("zzz-custom", 1.0)
        names = [n for n, _ in t.ordered()]
        assert names == ["schedule", "simulate", "zzz-custom"]
        assert set(STAGE_ORDER).issuperset(names[:-1])

    def test_summary(self):
        t = StageTimes()
        assert t.summary() == "no stages recorded"
        t.add("lower", 3.0)
        t.add("simulate", 1.0)
        s = t.summary()
        assert "lower" in s and "75.0%" in s and "total" in s


class TestCollect:
    def test_stage_is_noop_without_collector(self):
        with stage("lower"):
            pass
        assert not profiling._active()

    def test_collect_routes_stage_durations(self):
        t = StageTimes()
        with collect(t):
            with stage("lower"):
                time.sleep(0.01)
        assert t["lower"] >= 0.005
        assert list(t) == ["lower"]

    def test_nested_collectors_both_see_stages(self):
        outer, inner = StageTimes(), StageTimes()
        with collect(outer):
            with stage("schedule"):
                pass
            with collect(inner):
                with stage("simulate"):
                    pass
        assert set(outer) == {"schedule", "simulate"}
        assert set(inner) == {"simulate"}

    def test_collector_removed_on_exception(self):
        t = StageTimes()
        try:
            with collect(t):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not profiling._active()


class TestMeasurerIntegration:
    def test_sweep_records_stage_breakdown(self):
        from repro.core.compiler import AlcopCompiler
        from repro.gpusim import A100
        from repro.schedule import TileConfig
        from repro.tensor import GemmSpec
        from repro.tuning import Measurer, SpaceOptions, enumerate_space

        spec = GemmSpec("prof_mm", 1, 128, 128, 128)
        space = enumerate_space(spec, A100, options=SpaceOptions(max_size=6))
        measurer = Measurer(A100)
        measurer.sweep(spec, space)
        # the verification build of the winner, as `repro tune` runs it
        winner = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16,
                            smem_stages=2, reg_stages=2)
        with profiling.collect(measurer.stage_times):
            AlcopCompiler(A100, measurer=measurer).build(spec, winner)
        recorded = dict(measurer.stage_times)
        for name in ("schedule", "lower", "transform", "syncheck", "spec-extract",
                     "simulate"):
            assert recorded.get(name, 0.0) > 0.0, name
        telemetry = measurer.telemetry
        assert dict(telemetry.stage_time_s) == recorded
        prof = telemetry.profile_summary()
        assert "simulate" in prof and "total" in prof

    def test_static_path_records_extract_and_simulate_only(self):
        from repro.gpusim import A100
        from repro.tensor import GemmSpec
        from repro.tuning import Measurer, SpaceOptions, enumerate_space

        spec = GemmSpec("prof_static", 1, 128, 128, 128)
        space = enumerate_space(spec, A100, options=SpaceOptions(max_size=4))
        measurer = Measurer(A100)
        measurer.sweep(spec, space)
        assert set(measurer.stage_times) == {"spec-extract", "simulate"}
        assert measurer.stage_times.get("simulate", 0.0) > 0.0
