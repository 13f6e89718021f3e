"""Detailed tests for analytical ranking and tuner edge cases."""

import math

import pytest

from repro.perfmodel import bottleneck_latency, predict_latency
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import (
    AnalyticalOnlyTuner,
    GridSearchTuner,
    Measurer,
    SpaceOptions,
    enumerate_space,
)
from repro.tuning.tuners import analytical_rank

SPEC = GemmSpec("rank", 1, 512, 512, 1024)
SPACE = enumerate_space(SPEC, options=SpaceOptions(max_size=150))


class TestAnalyticalRank:
    def test_ranked_by_prediction(self):
        order = analytical_rank(SPEC, SPACE)
        preds = []
        for i in order:
            try:
                from repro.perfmodel import timing_spec_from_config

                preds.append(predict_latency(timing_spec_from_config(SPEC, SPACE[i])))
            except Exception:
                preds.append(math.inf)
        finite = [p for p in preds if math.isfinite(p)]
        assert finite == sorted(finite)

    def test_rejected_configs_rank_last(self):
        # Build a space with a guaranteed-unlaunchable config appended.
        bad = TileConfig(256, 256, 64, warp_m=64, warp_n=64, chunk_k=16, smem_stages=4)
        space = SPACE + [bad]
        order = analytical_rank(SPEC, space)
        assert order[-1] == len(space) - 1

    def test_custom_model_changes_order(self):
        a = analytical_rank(SPEC, SPACE, model=predict_latency)
        b = analytical_rank(SPEC, SPACE, model=bottleneck_latency)
        assert a != b

    def test_rank_deterministic(self):
        assert analytical_rank(SPEC, SPACE) == analytical_rank(SPEC, SPACE)


class TestTunerEdgeCases:
    def test_budget_larger_than_space(self):
        meas = Measurer()
        small = SPACE[:12]
        h = GridSearchTuner(SPEC, small, measurer=meas).tune(50)
        assert len(h) == 12  # exhausted, not stuck

    def test_single_config_space(self):
        meas = Measurer()
        launchable = [c for c in SPACE if meas.measure(SPEC, c) != math.inf][:1]
        h = AnalyticalOnlyTuner(SPEC, launchable, measurer=meas).tune(5)
        assert len(h) == 1
        assert h.best_config_at(1) is not None

    def test_k_zero_rejected(self):
        from repro.tuning import TuneHistory

        with pytest.raises(ValueError):
            TuneHistory().best_latency_at(0)
