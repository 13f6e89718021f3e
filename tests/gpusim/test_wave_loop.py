"""Differential tests: the specialised wave loop against the generator
engine it replaced (``reference_engine.py``), plus the per-measurer wave
memo and the truncation bugfix in ``simulate_kernel``.

Equality is exact: latencies, DRAM fractions and traces compare with
``==``, and error cases must raise the same exception type and message.
"""

import dataclasses
import itertools

import pytest

from repro.gpusim import A100, H100, V100, engine, simulate_kernel
from repro.perfmodel import timing_spec_from_config
from repro.schedule import TileConfig
from repro.tensor import GemmSpec

from . import reference_engine as ref


def base_ts(m=256, n=256, k=512, bm=64, bn=64, bk=32, ss=2, rs=2):
    spec = GemmSpec("wave", 1, m, n, k)
    cfg = TileConfig(bm, bn, bk, warp_m=32, warp_n=32, chunk_k=16,
                     smem_stages=ss, reg_stages=rs)
    return timing_spec_from_config(spec, cfg)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError, ZeroDivisionError) as e:
        return type(e).__name__, str(e)


def assert_same(ts, gpu, n_tb, active, outer=None):
    for traced in (False, True):
        want = outcome(ref.simulate_wave, ts, gpu, n_tb, active, traced, outer_extent=outer)
        got = outcome(engine.simulate_wave, ts, gpu, n_tb, active, traced, outer_extent=outer)
        assert got == want, (ts, gpu.name, n_tb, active, outer, traced)


class TestDifferential:
    @pytest.mark.parametrize("gpu", [A100, V100, H100], ids=lambda g: g.name)
    def test_program_shapes(self, gpu):
        """Every branch of the threadblock program: prologue depth,
        hoisted vs recursive (``smem_stages=1``) inner refill, store-through
        (synchronous copies, as on V100), empty inner loops, one or many
        threadblocks, full and tail waves."""
        ts0 = base_ts()
        for ss, rs, is_async, e_i, n_tb, outer in itertools.product(
            (1, 2, 3, 4), (1, 2), (True, False), (0, 1, 3), (1, 2, 5), (0, 1, 2, 7)
        ):
            ts = dataclasses.replace(ts0, smem_stages=ss, reg_stages=rs,
                                     async_smem_copy=is_async, inner_extent=e_i)
            assert_same(ts, gpu, n_tb, gpu.num_sms, outer)
            assert_same(ts, gpu, n_tb, 7, outer)

    def test_ties_at_equal_event_times(self):
        """With binary-exact service times and no latencies or
        issue/barrier delays, threadblocks keep meeting at equal times; the
        older heap entry must win every tie, exactly as in the generator
        engine."""
        gpu = dataclasses.replace(
            A100, num_sms=1, l2_bw=1024.0, dram_bw=512.0, l2_latency=0.0, dram_latency=0.0,
            dram_write_latency=0.0, smem_bw_per_sm=256.0, smem_latency=0.0,
            tc_flops_per_sm=2.0 ** 20, issue_overhead=0.0, sync_overhead=0.0, mma_issue_cost=0.0,
        )
        ts0 = dataclasses.replace(base_ts(), a_chunk_bytes=1024, b_chunk_bytes=1024,
                                  frag_bytes_tb=256, smem_chunk_bytes=2048,
                                  flops_chunk_tb=2 ** 18, epilogue_bytes=512, swizzle=True)
        total_ties = 0
        for ss, rs, is_async, e_i, n_tb in itertools.product(
            (1, 2, 3), (1, 2), (True, False), (0, 1, 2), (1, 2, 4)
        ):
            ts = dataclasses.replace(ts0, smem_stages=ss, reg_stages=rs,
                                     async_smem_copy=is_async, inner_extent=e_i)
            sim = ref.Simulator()
            ref.simulate_wave(ts, gpu, n_tb, 1, outer_extent=6, sim=sim)
            total_ties += sim.ties
            assert_same(ts, gpu, n_tb, 1, 6)
        assert total_ties > 100, "scenario no longer produces equal-time events"

    def test_strided_suite_sample(self):
        from repro.gpusim import CompileError

        from .wave_digest import wave_cases, wave_shapes

        checked = 0
        for _, ts, gpu in wave_cases(stride=1499):
            try:
                shapes = list(wave_shapes(ts, gpu))
            except CompileError:
                continue
            for n_tb, active, outer in shapes:
                assert_same(ts, gpu, n_tb, active, outer)
                checked += 1
        assert checked > 100


class TestErrorParity:
    """Inputs the timing spec's ``validate`` would reject still fail (or
    not) exactly as the generator engine did."""

    @pytest.mark.parametrize("change", [
        dict(a_chunk_bytes=-64),          # empty chunks are skipped, no error
        dict(epilogue_bytes=-64),         # negative write-back service
        dict(frag_bytes_tb=-10 ** 6),     # negative inner-step service
        dict(frag_bytes_tb=-10 ** 6, inner_extent=0),  # ... never requested
        dict(flops_chunk_tb=-10 ** 9, reg_stages=1),
    ], ids=str)
    def test_spec_changes(self, change):
        assert_same(dataclasses.replace(base_ts(), **change), A100, 3, A100.num_sms, 4)

    @pytest.mark.parametrize("change", [
        dict(issue_overhead=-1.0),        # issue delay into the past
        dict(sync_overhead=-1.0),         # barrier delay into the past
        dict(smem_latency=-100.0),        # fragment-load delay into the past
        dict(l2_bw=-1.0),                 # negative copy service
        dict(dram_write_latency=-50.0),   # waiting for the past is fine
    ], ids=str)
    @pytest.mark.parametrize("ss", [1, 3])
    def test_gpu_changes(self, change, ss):
        ts = dataclasses.replace(base_ts(), smem_stages=ss)
        assert_same(ts, dataclasses.replace(A100, **change), 2, A100.num_sms, 3)

    def test_no_threadblocks(self):
        assert_same(base_ts(), A100, 0, A100.num_sms)

    @pytest.mark.parametrize("budget_delta", [-1, 0])
    def test_event_budget_matches(self, monkeypatch, budget_delta):
        ts, n_tb = base_ts(), 3
        sim = ref.Simulator()
        ref.simulate_wave(ts, A100, n_tb, A100.num_sms, outer_extent=5, sim=sim)
        budget = sim.events + budget_delta
        monkeypatch.setattr(engine, "_MAX_EVENTS", budget)
        want = outcome(ref.simulate_wave, ts, A100, n_tb, A100.num_sms, outer_extent=5,
                       max_events=budget)
        got = outcome(engine.simulate_wave, ts, A100, n_tb, A100.num_sms, outer_extent=5)
        assert got == want
        assert (budget_delta < 0) == isinstance(got[0], str)


class TestWaveMemo:
    def test_hit_returns_the_simulated_result(self):
        memo = engine.WaveMemo()
        ts = base_ts()
        first = engine.simulate_wave(ts, A100, 4, A100.num_sms, _memo=memo)
        second = engine.simulate_wave(ts, A100, 4, A100.num_sms, _memo=memo)
        assert first == second == engine.simulate_wave(ts, A100, 4, A100.num_sms)
        assert (memo.hits, memo.misses) == (1, 1)

    def test_traced_waves_bypass_the_memo(self):
        memo = engine.WaveMemo()
        ts = base_ts()
        engine.simulate_wave(ts, A100, 4, A100.num_sms, _memo=memo)
        _, _, trace = engine.simulate_wave(ts, A100, 4, A100.num_sms, True, _memo=memo)
        assert trace
        assert (memo.hits, memo.misses, len(memo)) == (0, 1, 1)

    def test_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(engine, "WAVE_MEMO_SIZE", 2)
        memo = engine.WaveMemo()
        ts = base_ts()
        for n_tb in (1, 2, 3, 1):
            engine.simulate_wave(ts, A100, n_tb, A100.num_sms, _memo=memo)
        assert len(memo) == 2
        assert (memo.hits, memo.misses) == (0, 4)  # n_tb=1 was evicted
        engine.simulate_wave(ts, A100, 1, A100.num_sms, _memo=memo)
        assert memo.hits == 1

    def test_key_distinguishes_every_wave_input(self):
        memo = engine.WaveMemo()
        ts = base_ts()
        variants = [
            (ts, A100, 4, A100.num_sms, None),
            (ts, A100, 4, A100.num_sms, 3),
            (ts, A100, 4, 50, None),
            (ts, H100, 4, A100.num_sms, None),
            (dataclasses.replace(ts, reg_stages=1), A100, 4, A100.num_sms, None),
            (dataclasses.replace(ts, epilogue_bytes=ts.epilogue_bytes * 2), A100, 4,
             A100.num_sms, None),
        ]
        for ts_v, gpu, n_tb, active, outer in variants:
            got = engine.simulate_wave(ts_v, gpu, n_tb, active, outer_extent=outer, _memo=memo)
            assert got == engine.simulate_wave(ts_v, gpu, n_tb, active, outer_extent=outer)
        assert memo.hits == 0

    def test_concurrent_lookups_lose_no_update(self):
        """A serve daemon shares one measurer (and memo) across request
        threads: with more threads than cores and a short switch interval,
        every lookup is counted once and every answer is the simulated one."""
        import sys
        import threading

        memo = engine.WaveMemo()
        ts = base_ts()
        shapes = [(n_tb, active) for n_tb in (1, 2, 3) for active in (50, A100.num_sms)]
        want = {s: engine.simulate_wave(ts, A100, *s) for s in shapes}
        wrong = []

        def work():
            for _ in range(5):
                for s in shapes:
                    if engine.simulate_wave(ts, A100, *s, _memo=memo) != want[s]:
                        wrong.append(s)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert memo.hits + memo.misses == 8 * 5 * len(shapes)
        assert len(memo) == len(shapes)

    def test_metrics_counters(self):
        from repro.obs.metrics import REGISTRY

        def value(name):
            return REGISTRY.get(name).value

        hits0 = value("repro_wave_memo_hits_total")
        misses0 = value("repro_wave_memo_misses_total")
        memo = engine.WaveMemo()
        for _ in range(3):
            engine.simulate_wave(base_ts(), A100, 2, A100.num_sms, _memo=memo)
        assert value("repro_wave_memo_hits_total") - hits0 == 2
        assert value("repro_wave_memo_misses_total") - misses0 == 1

    def test_measurer_owns_its_memo(self):
        from repro.tuning import Measurer, SpaceOptions, enumerate_space

        spec = GemmSpec("memo", 1, 256, 256, 512)
        space = enumerate_space(spec, A100, options=SpaceOptions(max_size=40))
        a, b = Measurer(A100), Measurer(A100)
        assert a.wave_memo is not b.wave_memo
        a.sweep(spec, space)
        assert b.wave_memo.hits + b.wave_memo.misses == 0
        t = a.telemetry
        assert t.wave_memo_misses > 0
        assert t.wave_memo_hits == a.wave_memo.hits
        assert t.wave_memo_hit_ratio == t.wave_memo_hits / (t.wave_memo_hits + t.wave_memo_misses)
        assert "wave memo" in t.profile_summary()
        # A fresh measurer simulates again and gets the same latencies.
        assert b.sweep(spec, space) == a.sweep(spec, space)
        assert b.wave_memo.misses == a.wave_memo.misses

    def test_faults_stay_outside_the_memo(self):
        from repro import faults

        memo = engine.WaveMemo()
        ts = base_ts()
        clean = simulate_kernel(ts, A100, _memo=memo).latency_us
        plan = faults.FaultPlan.parse("simulate:corrupt-latency:1.0")
        with faults.injected(plan):
            corrupted = simulate_kernel(ts, A100, _memo=memo).latency_us
        assert corrupted != clean
        assert simulate_kernel(ts, A100, _memo=memo).latency_us == clean


class TestTruncation:
    """``max_outer_iters`` at or below ``smem_stages + 1`` used to divide by
    zero (equal truncated runs) or extrapolate from runs shorter than the
    pipeline prologue; it now simulates the whole loop."""

    @pytest.mark.parametrize("ss", [1, 2, 4])
    def test_short_caps_simulate_untruncated(self, ss):
        ts = base_ts(k=4096, ss=ss)
        full = simulate_kernel(ts, A100, max_outer_iters=None)
        for cap in range(1, ss + 2):
            res = simulate_kernel(ts, A100, max_outer_iters=cap)
            assert res.latency_us == full.latency_us, cap

    def test_default_cap_still_extrapolates(self):
        ts = base_ts(k=8192, ss=3)
        assert ts.outer_extent > 64
        full = simulate_kernel(ts, A100, max_outer_iters=None).latency_us
        capped = simulate_kernel(ts, A100).latency_us
        assert capped != full
        assert capped == pytest.approx(full, rel=0.02)
