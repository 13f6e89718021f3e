"""Graceful degradation: the variant ladder in the compiler, the model
runtime's roofline fallback, and the suite runner's ``degraded_best``."""

import pytest

from repro import faults
from repro.core.compiler import VARIANTS, AlcopCompiler
from repro.core.errors import CompileError, DegradationEvent, ReproError
from repro.gpusim.config import A100
from repro.models.graph import GemmOp, ModelGraph
from repro.models.runtime import estimate_model_latency, roofline_fallback_latency
from repro.tensor.operation import GemmSpec
from repro.tuning.measure import Measurer
from repro.tuning.space import SpaceOptions, enumerate_space
from repro.workloads.suite import DEGRADATION_LADDER, degraded_best

SPEC = GemmSpec("deg", 1, 256, 256, 512)


def _fail_variants(*variants, seed=1):
    """A plan that crashes the compiler-driver build of the given rungs."""
    return faults.FaultPlan(
        [faults.FaultRule("build", "crash", match=f"variant={v};") for v in variants],
        seed=seed,
    )


class TestCompilerLadder:
    def test_top_rung_failure_steps_down_once(self):
        c = AlcopCompiler(search="exhaustive")
        with faults.injected(_fail_variants("alcop")):
            latency = c.gemm_latency(SPEC)
        assert latency > 0
        assert len(c.degradations) == 1
        ev = c.degradations[0]
        assert (ev.from_variant, ev.to_variant) == ("alcop", "alcop-no-ml")
        assert ev.stage == "fault"
        assert ev.op == SPEC.name

    def test_resolved_rung_is_reused_without_new_events(self):
        c = AlcopCompiler(search="exhaustive")
        plan = _fail_variants("alcop")
        with faults.injected(plan):
            first = c.gemm_latency(SPEC)
            again = c.gemm_latency(SPEC)
        assert first == again
        assert len(c.degradations) == 1

    def test_every_rung_failing_raises_after_full_ladder(self):
        c = AlcopCompiler(search="exhaustive")
        with faults.injected(_fail_variants(*VARIANTS)):
            with pytest.raises(ReproError):
                c.compile_with_fallback(SPEC)
        assert [ev.from_variant for ev in c.degradations] == list(VARIANTS)
        assert c.degradations[-1].to_variant == "roofline"

    def test_total_failure_is_cached(self):
        c = AlcopCompiler(search="exhaustive")
        with faults.injected(_fail_variants(*VARIANTS)):
            with pytest.raises(ReproError):
                c.compile_with_fallback(SPEC)
            n = len(c.degradations)
            with pytest.raises(ReproError):
                c.compile_with_fallback(SPEC)
        assert len(c.degradations) == n  # no duplicate ladder walk

    def test_degrade_false_raises_immediately(self):
        c = AlcopCompiler(search="exhaustive", degrade=False)
        with faults.injected(_fail_variants("alcop")):
            with pytest.raises(Exception):
                c.gemm_latency(SPEC)
        assert not c.degradations


class TestSearchErrors:
    def test_empty_space_names_spec_and_variant(self, monkeypatch):
        import repro.core.compiler as compiler_mod

        monkeypatch.setattr(compiler_mod, "enumerate_space", lambda *a, **k: [])
        c = AlcopCompiler(search="exhaustive")
        with pytest.raises(CompileError, match="deg") as ei:
            c.compile(SPEC)
        assert "alcop" in str(ei.value)
        assert ei.value.stage == "compile"


class TestModelRuntime:
    def test_model_estimate_survives_total_op_failure(self):
        graph = ModelGraph(name="toy", gemm_ops=[GemmOp(spec=SPEC, count=2)])
        c = AlcopCompiler(search="exhaustive")
        with faults.injected(_fail_variants(*VARIANTS)):
            result = estimate_model_latency(graph, c, backend_name="alcop")
        assert result.gemm_us == 0.0
        assert result.fallback_us == pytest.approx(
            2 * roofline_fallback_latency(SPEC, A100) * c.fallback_factor
        )
        assert result.total_us > 0
        assert result.n_degraded_ops == 1
        assert result.degradations[-1].to_variant == "roofline"

    def test_partial_ladder_step_is_surfaced(self):
        graph = ModelGraph(name="toy", gemm_ops=[GemmOp(spec=SPEC, count=1)])
        c = AlcopCompiler(search="exhaustive")
        with faults.injected(_fail_variants("alcop")):
            result = estimate_model_latency(graph, c, backend_name="alcop")
        assert result.fallback_us == 0.0
        assert result.gemm_us > 0.0
        assert [ev.to_variant for ev in result.degradations] == ["alcop-no-ml"]

    def test_clean_run_records_nothing(self):
        graph = ModelGraph(name="toy", gemm_ops=[GemmOp(spec=SPEC, count=1)])
        result = estimate_model_latency(
            graph, AlcopCompiler(search="exhaustive"), backend_name="alcop"
        )
        assert result.degradations == []
        assert result.n_degraded_ops == 0


class TestDegradedBest:
    def test_clean_space_uses_requested_variant(self):
        m = Measurer(A100)
        space = enumerate_space(SPEC, A100, SpaceOptions(max_size=30))
        cfg, latency, used = degraded_best(m, SPEC, space, variant="alcop")
        assert used == "alcop" and cfg is not None and latency > 0

    def test_faulted_rung_steps_down(self):
        events = []
        plan = faults.FaultPlan([faults.FaultRule("compile", "crash")], seed=1)
        m = Measurer(A100, retries=0, backoff_s=0.001)
        space = enumerate_space(SPEC, A100, SpaceOptions(max_size=10))
        with faults.injected(plan):
            cfg, latency, used = degraded_best(m, SPEC, space, events=events)
        assert used == "roofline" and cfg is None
        assert latency == pytest.approx(roofline_fallback_latency(SPEC, A100))
        assert [ev.from_variant for ev in events] == list(DEGRADATION_LADDER)

    def test_event_dataclass_renders(self):
        ev = DegradationEvent(
            op="x", from_variant="alcop", to_variant="tvm", stage="compile", reason="r"
        )
        assert "alcop" in str(ev) and "tvm" in str(ev)
