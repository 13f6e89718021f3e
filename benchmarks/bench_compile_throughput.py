"""Compile-path throughput tracking (no paper figure — perf trajectory).

Three numbers, recorded as JSON so their trajectory is tracked from PR to
PR by the CI artifact:

* **batch-model speedup** — ``analytical_rank`` via the vectorized batch
  model (:mod:`repro.perfmodel.batch`) against the pre-batching scalar
  loop, on a multi-thousand-config full space;
* **cold configs/sec** — measurement trials (static timing spec,
  simulation) on an empty cache, with the per-stage breakdown alongside;
* **warm configs/sec** — the same sweep answered from the measurement
  cache;
* **verified builds/sec** — ``AlcopCompiler.build`` over the same configs:
  schedule, lower, pipelining transform with the sync check, and the
  static≡IR spec check every returned kernel passes, with its per-stage
  breakdown (docs/performance.md);
* **tracing overhead** — the verified builds with an active tracer and a
  root span (so every compile stage is also recorded as a span), asserted
  to cost < 2% of their throughput (docs/observability.md);
* **simulator cost** — microseconds per untraced ``simulate_wave`` call
  (no memo) over the full-wave shapes of the sweep space, and the wave-memo
  hit ratio of one cold measurer sweeping ResNet-18's operators, whose
  waves repeat across layers (docs/performance.md);
* **pool speedup** — a cold static-spec sweep of the 1024³ space (the full
  5376 configs; capped for ``--smoke``) on a fresh ``jobs=2`` measurer's
  persistent workers against a fresh serial measurer. The two latency
  lists are asserted exactly equal (docs/performance.md).
* **tuner** — a 64-trial model-assisted tune of ``MM_BERT_FC1`` over its
  full A100 space: trials/s, and the milliseconds of its ``tuner.fit``
  (boosted-tree refits) and ``tuner.sa`` (annealing proposals) stages. The
  tuning history's digest is compared with the one the node-object trees
  produced (docs/performance.md, "Tuner cost model").

Runs two ways: as a pytest benchmark inside the suite, and as a plain
script (``python benchmarks/bench_compile_throughput.py --smoke --out
FILE``) for the CI bench-smoke job, which uploads the JSON artifact.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

#: The rank micro-benchmark space must stay >= 2000 configs — that scale is
#: where the batch/scalar contrast is meaningful (and what the recorded
#: speedup is defined over).
RANK_MNK = (1024, 1024, 1024)
RANK_MIN_CONFIGS = 2000
#: Loose floor on the batch speedup: typically ~20x; the assert tolerates a
#: loaded CI runner, the JSON records the exact measurement.
RANK_SPEEDUP_FLOOR = 5.0
#: Ceiling on the observability layer's cost on the cold compile path, in
#: percent of cold-sweep throughput. Interleaved min-of-N runs keep the
#: measurement stable on loaded CI runners.
TRACING_OVERHEAD_CEILING_PCT = 2.0
#: Pool width of the pool-vs-serial row, and the ``--smoke`` space cap
#: for it (the full run sweeps the whole 1024³ space).
POOL_JOBS = 2
POOL_SMOKE_CONFIGS = 1024
#: The tuner row's problem and its tuning history's digest (trial config
#: keys and latency bits, in order), as the node-object boosted trees and
#: the dataclass-replace annealing neighbours produced it.
TUNER_OP = "MM_BERT_FC1"
TUNER_TRIALS = 64
TUNER_HISTORY_DIGEST = "a89b3161ce489ba4"


def _wave_inputs(spec, space, gpu):
    """``(ts, n_tb, active, outer_extent)`` of each launchable config's
    full wave, truncated as ``simulate_kernel`` does by default."""
    from repro.gpusim import CompileError, tb_per_sm
    from repro.perfmodel import timing_spec_from_config

    out = []
    for cfg in space:
        ts = timing_spec_from_config(spec, cfg)
        try:
            occ = tb_per_sm(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb)
        except CompileError:
            continue
        out.append((ts, occ, gpu.num_sms, min(ts.outer_extent, 64)))
    return out


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _tuner_row() -> dict:
    import hashlib

    from repro.gpusim import A100
    from repro.tuning import Measurer, enumerate_space
    from repro.tuning.tuners import ModelAssistedXGBTuner
    from repro.workloads import get_operator

    spec = get_operator(TUNER_OP)
    space = enumerate_space(spec, A100)
    measurer = Measurer(A100)
    t0 = time.perf_counter()
    tuner = ModelAssistedXGBTuner(spec, space, measurer=measurer, gpu=A100, seed=0)
    history = tuner.tune(TUNER_TRIALS)
    tune_s = time.perf_counter() - t0
    trials = [(r.config.key(), r.latency_us.hex()) for r in history.records]
    digest = hashlib.sha256(repr(trials).encode()).hexdigest()[:16]
    return {
        "op": TUNER_OP,
        "trials": TUNER_TRIALS,
        "trials_per_s": TUNER_TRIALS / tune_s,
        "fit_ms": 1e3 * measurer.stage_times.get("tuner.fit", 0.0),
        "sa_propose_ms": 1e3 * measurer.stage_times.get("tuner.sa", 0.0),
        "history_digest": digest,
        "history_identical": digest == TUNER_HISTORY_DIGEST,
    }


def run_experiment(quick: bool, jobs: int = 1) -> dict:
    from repro.gpusim import A100
    from repro.tensor import GemmSpec
    from repro.tuning import Measurer, SpaceOptions, enumerate_space
    from repro.tuning.tuners import _analytical_rank_scalar, analytical_rank

    # --- batch-vs-scalar analytical ranking ---------------------------------
    rank_spec = GemmSpec("throughput_rank", 1, *RANK_MNK)
    rank_space = enumerate_space(rank_spec, A100)
    assert len(rank_space) >= RANK_MIN_CONFIGS
    rounds = 2 if quick else 3
    scalar_s = _best_of(lambda: _analytical_rank_scalar(rank_spec, rank_space), rounds)
    batch_s = _best_of(lambda: analytical_rank(rank_spec, rank_space), rounds)

    # --- cold/warm measurement sweep ----------------------------------------
    sweep_spec = GemmSpec("throughput_sweep", 1, 256, 256, 256)
    sweep_space = enumerate_space(
        sweep_spec, A100, options=SpaceOptions(max_size=48 if quick else 160)
    )
    measurer = Measurer(A100, jobs=jobs)
    t0 = time.perf_counter()
    measurer.sweep(sweep_spec, sweep_space)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    measurer.sweep(sweep_spec, sweep_space)
    warm_s = time.perf_counter() - t0

    # --- simulator cost per wave (no memo) ----------------------------------
    from repro.gpusim.engine import simulate_wave

    waves = _wave_inputs(sweep_spec, sweep_space, A100)

    def run_waves():
        for ts, n_tb, active, outer in waves:
            simulate_wave(ts, A100, n_tb, active, outer_extent=outer)

    wave_s = _best_of(run_waves, 3)

    from repro.models.zoo import build_resnet18

    memo_measurer = Measurer(A100)
    for op in build_resnet18().gemm_ops:
        try:
            op_space = enumerate_space(
                op.spec, A100, options=SpaceOptions(max_size=16 if quick else 64)
            )
        except ValueError:  # untileable op: nothing to sweep
            continue
        memo_measurer.sweep(op.spec, op_space)

    # --- verified builds: the IR path every returned kernel takes ----------
    from repro.core import profiling
    from repro.core.compiler import AlcopCompiler

    compiler = AlcopCompiler(A100, measurer=measurer)
    build_stages = profiling.StageTimes()
    with profiling.collect(build_stages):
        t0 = time.perf_counter()
        for cfg in sweep_space:
            compiler.build(sweep_spec, cfg)
        build_s = time.perf_counter() - t0

    # --- persistent worker pool vs serial, identity-checked ----------------
    pool_space = enumerate_space(
        rank_spec, A100, options=SpaceOptions(max_size=POOL_SMOKE_CONFIGS if quick else None)
    )
    pool_serial_s = pool_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        serial_lat = Measurer(A100).sweep(rank_spec, pool_space)
        pool_serial_s = min(pool_serial_s, time.perf_counter() - t0)
        with Measurer(A100, jobs=POOL_JOBS) as pool_measurer:
            t0 = time.perf_counter()
            pool_lat = pool_measurer.sweep(rank_spec, pool_space)
            pool_s = min(pool_s, time.perf_counter() - t0)
        assert pool_lat == serial_lat, "pooled sweep changed measured latencies"
    pool_identity_checked = True

    # --- tracing-on vs tracing-off overhead guard ---------------------------
    # Measured on verified builds, the path that records every compile
    # stage (schedule, lower, transform, syncheck, spec-extract) as a span.
    # A loaded CI runner's noise is second-scale (load spikes, frequency
    # drift), so the two modes are interleaved at *chunk* granularity
    # (~25 ms of work) with alternating order inside each round — any drift
    # hits both modes equally instead of being misread as tracing cost.
    # Per-round totals are compared and the best (min) round wins: noise
    # only ever inflates the ratio, a real regression shows in every round.
    # Rounds stop early once one lands comfortably under the ceiling, and
    # keep going (up to six) when the runner is noisy.
    guard_space = enumerate_space(
        sweep_spec, A100, options=SpaceOptions(max_size=160)
    )
    chunks = [guard_space[i::4] for i in range(4)]

    def build_chunk(chunk) -> float:
        t0 = time.perf_counter()
        for cfg in chunk:
            compiler.build(sweep_spec, cfg)
        return time.perf_counter() - t0

    def cold_chunk_s(chunk, traced: bool) -> float:
        from repro.obs import trace as obs_trace

        if traced:
            tracer = obs_trace.Tracer(capacity=1 << 18)
            with obs_trace.activate(tracer, all_threads=True):
                with obs_trace.span("bench-cold-sweep"):
                    return build_chunk(chunk)
        return build_chunk(chunk)

    cold_chunk_s(chunks[0], traced=False)  # warm both code paths
    cold_chunk_s(chunks[0], traced=True)
    untraced_s = traced_s = float("inf")
    overhead_pct = float("inf")
    for _ in range(6):
        round_off = round_on = 0.0
        for j, chunk in enumerate(chunks):
            order = (False, True) if j % 2 == 0 else (True, False)
            for traced in order:
                dt = cold_chunk_s(chunk, traced=traced)
                if traced:
                    round_on += dt
                else:
                    round_off += dt
        pct = 100.0 * (round_on - round_off) / round_off
        if pct < overhead_pct:
            overhead_pct = pct
            untraced_s, traced_s = round_off, round_on
        if overhead_pct < TRACING_OVERHEAD_CEILING_PCT / 2:
            break

    return {
        "quick": quick,
        "rank_space_size": len(rank_space),
        "scalar_rank_s": scalar_s,
        "batch_rank_s": batch_s,
        "batch_speedup": scalar_s / batch_s,
        "sweep_space_size": len(sweep_space),
        "cold_sweep_s": cold_s,
        "cold_configs_per_s": len(sweep_space) / cold_s,
        "warm_sweep_s": warm_s,
        "warm_configs_per_s": len(sweep_space) / warm_s,
        "build_configs_per_s": len(sweep_space) / build_s,
        "build_stage_time_s": dict(build_stages.ordered()),
        "untraced_cold_configs_per_s": len(guard_space) / untraced_s,
        "traced_cold_configs_per_s": len(guard_space) / traced_s,
        "tracing_overhead_pct": overhead_pct,
        "stage_time_s": dict(measurer.stage_times.ordered()),
        "simulate_waves": len(waves),
        "simulate_us_per_wave": 1e6 * wave_s / len(waves),
        "wave_memo_hit_ratio": memo_measurer.telemetry.wave_memo_hit_ratio,
        "pool_jobs": POOL_JOBS,
        "pool_space_size": len(pool_space),
        "pool_serial_configs_per_s": len(pool_space) / pool_serial_s,
        "pool_configs_per_s": len(pool_space) / pool_s,
        "pool_speedup_vs_serial": pool_serial_s / pool_s,
        "pool_identity_checked": pool_identity_checked,
        "tuner": _tuner_row(),
    }


def format_table(r: dict) -> str:
    lines = ["Compile throughput — batch model, measurement sweep, verified builds"]
    lines.append(
        f"analytical rank ({r['rank_space_size']} configs): "
        f"scalar {r['scalar_rank_s'] * 1e3:7.1f} ms, "
        f"batch {r['batch_rank_s'] * 1e3:6.1f} ms, "
        f"speedup {r['batch_speedup']:.1f}x"
    )
    lines.append(
        f"measurement sweep ({r['sweep_space_size']} configs): "
        f"cold {r['cold_configs_per_s']:7.1f} configs/s, "
        f"warm {r['warm_configs_per_s']:9.1f} configs/s"
    )
    lines.append(
        f"verified builds ({r['sweep_space_size']} configs): "
        f"{r['build_configs_per_s']:7.1f} builds/s"
    )
    lines.append(
        f"tracing overhead (verified builds): off {r['untraced_cold_configs_per_s']:7.1f} "
        f"builds/s, on {r['traced_cold_configs_per_s']:7.1f} builds/s "
        f"({r['tracing_overhead_pct']:+.2f}%)"
    )
    lines.append(
        f"simulator: {r['simulate_us_per_wave']:.0f} us/wave over "
        f"{r['simulate_waves']} full waves; ResNet-18 wave memo hit ratio "
        f"{r['wave_memo_hit_ratio']:.3f}"
    )
    lines.append(
        f"pool sweep (1024^3, {r['pool_space_size']} configs, static spec): "
        f"serial {r['pool_serial_configs_per_s']:7.1f} configs/s, "
        f"jobs={r['pool_jobs']} {r['pool_configs_per_s']:7.1f} configs/s "
        f"({r['pool_speedup_vs_serial']:.2f}x, identity "
        f"{'checked' if r['pool_identity_checked'] else 'SKIPPED'})"
    )
    t = r["tuner"]
    lines.append(
        f"tuner ({t['op']}, {t['trials']} trials, model-assisted-xgb): "
        f"{t['trials_per_s']:6.1f} trials/s, GBT fit {t['fit_ms']:7.1f} ms, "
        f"SA propose {t['sa_propose_ms']:7.1f} ms, history "
        f"{'identical' if t['history_identical'] else 'CHANGED'} ({t['history_digest']})"
    )
    for title, key in (("cold sweep", "stage_time_s"), ("verified builds", "build_stage_time_s")):
        lines.append(f"per-stage breakdown ({title}):")
        total = sum(r[key].values()) or 1.0
        for name, s in r[key].items():
            lines.append(f"  {name:12s} {s:8.4f}s  {100.0 * s / total:5.1f}%")
    return "\n".join(lines)


def check_invariants(r: dict) -> None:
    assert r["batch_speedup"] >= RANK_SPEEDUP_FLOOR, (
        f"batch analytical model only {r['batch_speedup']:.1f}x faster than "
        f"the scalar loop (floor {RANK_SPEEDUP_FLOOR}x)"
    )
    assert r["warm_configs_per_s"] > r["cold_configs_per_s"], (
        "warm (cached) sweep should beat the cold compile path"
    )
    assert r["stage_time_s"], "cold sweep recorded no stage breakdown"
    assert {"schedule", "lower", "transform", "spec-extract"} <= set(r["build_stage_time_s"]), (
        "verified builds recorded no compile-stage breakdown"
    )
    assert r["pool_identity_checked"] is True, (
        "pool speedup recorded without the bitwise identity check"
    )
    assert r["simulate_waves"] > 0 and r["simulate_us_per_wave"] > 0.0, (
        "simulator cost recorded without simulating any wave"
    )
    assert 0.0 <= r["wave_memo_hit_ratio"] <= 1.0, r["wave_memo_hit_ratio"]
    t = r["tuner"]
    assert t["trials_per_s"] > 0 and t["fit_ms"] > 0 and t["sa_propose_ms"] > 0, (
        "tuner row recorded without timing its fit and SA stages"
    )
    assert t["history_identical"] is True, (
        f"tuning history digest {t['history_digest']} differs from "
        f"{TUNER_HISTORY_DIGEST}: the cost model or the annealer changed a decision"
    )
    assert r["tracing_overhead_pct"] < TRACING_OVERHEAD_CEILING_PCT, (
        f"tracing-on cold sweep costs {r['tracing_overhead_pct']:.2f}% "
        f"(ceiling {TRACING_OVERHEAD_CEILING_PCT}%): the observability "
        "layer has grown a hot-path cost"
    )


# ------------------------------------------------------------------ pytest
def test_compile_throughput(benchmark):
    from conftest import JOBS, QUICK, RESULTS_DIR, write_result

    result = run_experiment(QUICK, jobs=JOBS)
    check_invariants(result)
    write_result("compile_throughput", format_table(result))
    out = RESULTS_DIR / "compile_throughput.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {out}]")

    from repro.tensor import GemmSpec
    from repro.tuning import enumerate_space
    from repro.tuning.tuners import analytical_rank

    spec = GemmSpec("throughput_rank", 1, *RANK_MNK)
    space = enumerate_space(spec)
    benchmark.pedantic(lambda: analytical_rank(spec, space), rounds=3, iterations=1)


# ------------------------------------------------------------------ script
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sweep sizes")
    parser.add_argument("--jobs", type=int, default=1, help="measurement pool width")
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)

    result = run_experiment(args.smoke, jobs=args.jobs)
    check_invariants(result)
    print(format_table(result))
    if args.out:
        path = pathlib.Path(args.out)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"[json written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
