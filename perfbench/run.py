"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs untraced and traced passes of
the same inputs and reports the per-layer metrics (and writes the spans as
Chrome-trace JSON under ``.perfbench/traces/``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, reported with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("configs_per_s", "1/s"),
    ("units_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SERVE_STAGES = ("schedule", "lower", "transform", "syncheck", "spec-extract", "simulate")

#: (name, unit) of every per-layer metric, reported by the traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("gpusim.simulate.calls", "count"),
    ("gpusim.simulate.busy_s", "s"),
    ("gpusim.waves", "count"),
    ("gpusim.us_per_wave", "us"),
    ("gpusim.wave_repeat_ratio", "ratio"),
    ("gpusim.extract.busy_s", "s"),
    ("perfmodel.static_spec.busy_s", "s"),
    ("perfmodel.batch.busy_s", "s"),
    ("tuning.space.busy_s", "s"),
    ("tuning.gbt.fit.calls", "count"),
    ("tuning.gbt.fit.busy_s", "s"),
    ("tuning.gbt.predict.busy_s", "s"),
    ("tuning.sa.propose.busy_s", "s"),
    ("tuning.features.busy_s", "s"),
    ("tuning.measure.self_s", "s"),
    ("tuning.measure.hit_ratio", "ratio"),
    ("schedule.busy_s", "s"),
    ("codegen.lower.busy_s", "s"),
    ("transform.self_s", "s"),
    ("ir.syncheck.busy_s", "s"),
    ("codegen.cuda.busy_s", "s"),
    ("core.compiler.build.calls", "count"),
    ("serve.cold.count", "count"),
    ("serve.warm.count", "count"),
    ("serve.inflight.count", "count"),
    ("serve.cold_latency_p50_ms", "ms"),
    ("serve.warm_latency_p50_ms", "ms"),
    ("serve.registry_hit_ratio", "ratio"),
    ("serve.sweeps_run", "count"),
    ("serve.dedup_hits", "count"),
    *((f"serve.stage_s.{stage}", "s") for stage in SERVE_STAGES),
    ("serve.measurer.compile_time_s", "s"),
    ("serve.executor_efficiency", "ratio"),
    ("models.roofline_fallbacks", "count"),
    ("output.kernel_latency_us_geomean", "us"),
    ("obs.tracing_overhead_pct", "%"),
)

#: Set-ups timed per run (for serve-mixed, counting each pass's daemon);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops the traced tune-guided run tunes (untraced, then traced).
TRACED_TUNES = 2


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, or the maximum when fewer than 20 samples would put
    that percentile below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def more_passes(passes, seconds: float, step: int = 1) -> bool:
    """Whether ``step`` more passes, each as long as the mean one so far,
    still fit in ``seconds`` of wall clock. Units keep their identity
    across passes, so the pass count changes no unit count and no
    percentile."""
    wall = sum(p.wall_s for p in passes)
    return wall + step * wall / len(passes) <= seconds


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_setups(run: "Run", workload: str, seed: int, repeats: int) -> None:
    """Time ``repeats`` launches of a fresh interpreter up to the end of the
    workload's set-up (imports and object construction)."""
    from workloads import src_env

    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, env=src_env(), stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            run.setups.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")


def probe_setup(workload: str, seed: int) -> None:
    import workloads

    if workload == "tune-guided":
        workloads.tune_setup(seed)
    else:
        workloads.compile_setup(workload, seed)
    print("ready", flush=True)


# ------------------------------------------------------------------ report
class Run:
    """What one invocation measured: units, set-ups, metrics, verdict."""

    def __init__(self) -> None:
        from gates import Verdict

        self.verdict = Verdict()
        self.units = []
        self.setups: List[float] = []
        self.metrics: Dict[str, float] = {}
        self.extra: List[str] = []

    def add_units(self, units, prefix: str) -> None:
        for u in units:
            self.units.append(u)
            if u.error:
                self.verdict.fail(f"{prefix}{u.key}", u.error)

    def end_to_end(self, passes, rss_mb: float) -> None:
        """The end-to-end metrics; pass and unit times are divided by their
        ``slowdown``."""
        wall = sum(p.wall_s / p.slowdown for p in passes)
        # Passes repeat the same units (same key): each unit's latency is
        # its median over the passes, and the percentiles run over units.
        per_unit: Dict[str, List[float]] = {}
        for p in passes:
            for u in p.units:
                if not u.error:
                    per_unit.setdefault(u.key, []).append(u.seconds / u.slowdown)
        lat = [statistics.median(v) for v in per_unit.values()]
        value, pct = tail(lat)
        self.metrics.update({
            "setup_s": statistics.median(self.setups),
            "configs_per_s": sum(p.configs for p in passes) / wall,
            "units_per_s": sum(map(len, per_unit.values())) / wall,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": value * 1e3,
            "peak_rss_mb": rss_mb,
        })
        self.extra.append(
            f"latency_tail_ms is p{pct:.1f} of {len(lat)} units, each the median of "
            f"{max(map(len, per_unit.values()))} sample(s); "
            f"{sum(p.wall_s for p in passes):.2f} s measured, slowdowns "
            f"{' '.join(f'{p.slowdown:.3f}' for p in passes)}; "
            f"setup_s is the median of {len(self.setups)} set-ups")


def layer_metrics(rec, refs, traced, telemetries=(), serve=None,
                  kernel_latencies=()) -> Dict[str, float]:
    """Every per-layer metric from the ``traced`` passes; 0 where a layer
    does not run on the workload. The
    tracing overhead compares the traced passes with the untraced ``refs``,
    which repeat the same inputs one or more times."""
    from layers import layer_stats

    stats = layer_stats(rec)

    def get(layer: str, field: str) -> float:
        st = stats.get(layer)
        return getattr(st, field) if st else 0

    waves = get("gpusim.wave", "calls")
    measured = sum(t.n_measured for t in telemetries)
    out = {
        "gpusim.simulate.calls": get("gpusim.simulate", "calls"),
        "gpusim.simulate.busy_s": get("gpusim.simulate", "busy_s"),
        "gpusim.waves": waves,
        "gpusim.us_per_wave": get("gpusim.wave", "busy_s") * 1e6 / waves if waves else 0.0,
        "gpusim.wave_repeat_ratio": 1 - len(set(rec.wave_keys)) / waves if waves else 0.0,
        "gpusim.extract.busy_s": get("gpusim.extract", "busy_s"),
        "perfmodel.static_spec.busy_s": get("perfmodel.static_spec", "busy_s"),
        "perfmodel.batch.busy_s": get("perfmodel.batch", "busy_s"),
        "tuning.space.busy_s": get("tuning.space", "busy_s"),
        "tuning.gbt.fit.calls": get("tuning.gbt.fit", "calls"),
        "tuning.gbt.fit.busy_s": get("tuning.gbt.fit", "busy_s"),
        "tuning.gbt.predict.busy_s": get("tuning.gbt.predict", "busy_s"),
        "tuning.sa.propose.busy_s": get("tuning.sa.propose", "busy_s"),
        "tuning.features.busy_s": get("tuning.features", "busy_s"),
        "tuning.measure.self_s": get("tuning.measure", "self_s"),
        "tuning.measure.hit_ratio":
            sum(t.memory_hits for t in telemetries) / measured if measured else 0.0,
        "schedule.busy_s": get("schedule", "busy_s"),
        "codegen.lower.busy_s": get("codegen.lower", "busy_s"),
        "transform.self_s": get("transform", "self_s"),
        "ir.syncheck.busy_s": get("ir.syncheck", "busy_s"),
        "codegen.cuda.busy_s": get("codegen.cuda", "busy_s"),
        "core.compiler.build.calls": get("core.compiler.build", "calls"),
        "models.roofline_fallbacks": get("models.roofline", "calls"),
        "output.kernel_latency_us_geomean": geomean(kernel_latencies),
    }
    out.update(serve or {})
    for name, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    traced_s = sum(p.wall_s for p in traced)
    ref_s = sum(p.wall_s for p in refs) * len(traced) / len(refs)
    out["obs.tracing_overhead_pct"] = (traced_s / ref_s - 1) * 100
    return out


def serve_layer_metrics(result) -> Dict[str, float]:
    """The serve layer's split: client-side per-request outcomes plus the
    daemon's ``status`` and ``metrics`` ops."""
    from workloads import SERVE_JOBS

    by_kind: Dict[str, List[float]] = {"fresh": [], "registry": [], "inflight": []}
    for u in result.units:
        if not u.error:
            by_kind.setdefault(u.kind, []).append(u.seconds)
    status, prom = result.daemon["status"], result.daemon["metrics"]
    registry = status["registry"]
    lookups = registry["hits"] + registry["misses"]
    compile_s = status["measurer"]["compile_time_s"]
    cold_wall = sum(by_kind["fresh"])
    stage_s = {stage: 0.0 for stage in SERVE_STAGES}
    for resp in result.outputs["responses"]:
        for stage, sec in (resp or {}).get("stages", {}).items():
            if stage in stage_s:
                stage_s[stage] += sec

    def p50_ms(xs):
        return statistics.median(xs) * 1e3 if xs else 0.0

    return {
        "serve.cold.count": len(by_kind["fresh"]),
        "serve.warm.count": len(by_kind["registry"]),
        "serve.inflight.count": len(by_kind["inflight"]),
        "serve.cold_latency_p50_ms": p50_ms(by_kind["fresh"]),
        "serve.warm_latency_p50_ms": p50_ms(by_kind["registry"]),
        "serve.registry_hit_ratio": registry["hits"] / lookups if lookups else 0.0,
        "serve.sweeps_run": prom.get("repro_sweeps_run_total", 0.0),
        "serve.dedup_hits": prom.get("repro_dedup_hits_total", 0.0),
        **{f"serve.stage_s.{stage}": sec for stage, sec in stage_s.items()},
        "serve.measurer.compile_time_s": compile_s,
        "serve.executor_efficiency":
            compile_s / (SERVE_JOBS * cold_wall) if cold_wall else 0.0,
    }


# --------------------------------------------------------------- workloads
# Each runner measures the end-to-end metrics (``--trace 0``) or runs
# untraced and traced passes of the same inputs for the per-layer metrics
# (``--trace 1``). Gates run between passes, outside every timed window.
def run_compile(run: Run, args, workdir: pathlib.Path) -> None:
    import numpy as np

    import gates
    import speed
    import workloads

    w = args.workload
    fallbacks = workloads.untileable_ops(w)
    configs = workloads.compile_candidates(w)
    rng = np.random.default_rng([args.seed, 4])

    def one_pass(recorder=None):
        prefix = f"p{len(passes)}:"
        if recorder:
            with installed(recorder):
                p = workloads.compile_pass(w, args.seed, fallbacks, configs)
        else:
            probes = speed.Probes()
            probes()
            p = workloads.compile_pass(w, args.seed, fallbacks, configs, probes)
            probes()
            # probes[0] precedes the pass, probes[j + 1] unit j (units run
            # back to back within a model), probes[-1] follows the pass.
            p.slowdown = statistics.mean(probes)
            for j, u in enumerate(p.units):
                u.slowdown = (probes[j + 1] + probes[j + 2]) / 2
        run.add_units(p.units, prefix)
        entries, kernels = gates.gate_compile(w, p, fallbacks, run.verdict, prefix)
        passes.append(p)
        return entries, kernels

    passes: list = []
    if args.trace:
        # Untraced, traced, untraced: the overhead compares the traced pass
        # with the mean of its neighbours, so process warm-up cancels out.
        one_pass()
        rec = new_recorder()
        entries, kernels = one_pass(rec)
        one_pass()
        gates.execute_sample(kernels, run.verdict, rng)
        traced = passes[1]
        run.metrics = layer_metrics(
            rec, passes[::2], [traced], [traced.outputs["measurer"].telemetry],
            kernel_latencies=[e["alcop"][1] for _, e in entries if "alcop" in e])
        write_trace(rec, args)
        return
    probe_setups(run, w, args.seed, SETUP_REPEATS)
    _, sample = one_pass()
    while more_passes(passes, args.seconds):
        one_pass()
        passes[-1].outputs.clear()  # keep only the first pass's kernels resident
    rss = self_peak_rss_mb()
    gates.execute_sample(sample, run.verdict, rng)
    run.end_to_end(passes, rss)


def run_tune(run: Run, args, workdir: pathlib.Path) -> None:
    import numpy as np

    import gates
    import speed
    import workloads
    from inputs import tune_inputs

    pairs = tune_inputs(args.seed)
    rng = np.random.default_rng([args.seed, 4])
    passes: list = []

    def one_pass(pair, recorder=None):
        prefix = f"p{len(passes)}:"
        if recorder:
            with installed(recorder):
                p = workloads.tune_pass(*pair)
        else:
            # The tuner's GBT fits are many small-array numpy calls.
            probes = speed.Probes("numpy")
            probes()
            p = workloads.tune_pass(*pair, probes)
            probes()
            p.slowdown = p.units[0].slowdown = statistics.mean(probes)
        run.add_units(p.units, prefix)
        passes.append(p)
        return gates.gate_tune(p, run.verdict, prefix)

    # Each op tune is a pass of its own.
    if args.trace:
        # Untraced, traced, untraced, as in run_compile.
        rec = new_recorder()
        for recorder in (None, rec, None):
            kernels = [k for pair in pairs[:TRACED_TUNES] for k in one_pass(pair, recorder)]
        gates.execute_sample(kernels, run.verdict, rng)
        n = TRACED_TUNES
        traced = passes[n:2 * n]
        run.metrics = layer_metrics(
            rec, passes[:n] + passes[2 * n:], traced,
            [p.outputs["measurers"][0].telemetry for p in traced],
            kernel_latencies=[k.latency_us for _, k in kernels])
        write_trace(rec, args)
        return
    probe_setups(run, args.workload, args.seed, SETUP_REPEATS)
    sample = [k for pair in pairs for k in one_pass(pair)]
    while more_passes(passes, args.seconds, step=len(pairs)):
        for pair in pairs:
            one_pass(pair)
    rss = self_peak_rss_mb()
    gates.execute_sample(sample, run.verdict, rng)
    run.end_to_end(passes, rss)
    run.extra.append(f"trials_per_s = {run.metrics['configs_per_s']:.4f} 1/s "
                     f"({len(run.units)} op tune(s) x {workloads.TUNE_TRIALS} trials)")


def run_serve(run: Run, args, workdir: pathlib.Path) -> None:
    import numpy as np

    import gates
    import speed
    import workloads
    from inputs import serve_inputs

    stream = serve_inputs(args.seed)
    configs = workloads.serve_candidates(stream)
    rng = np.random.default_rng([args.seed, 4])

    def one_pass(recorder=None):
        prefix = f"p{len(passes)}:"
        with workloads.Daemon(workdir, prefix.rstrip(":")) as daemon:
            run.setups.append(daemon.start())
            if recorder:
                with installed(recorder):
                    p = workloads.serve_pass(daemon, stream, configs)
            else:
                probes = speed.Probes()
                p = workloads.serve_pass(daemon, stream, configs, probes)
                probes()
                # probes[k] precedes the k-th shape's first (cold) request.
                p.slowdown = statistics.mean(probes)
                seen = {}
                for shape, u in zip(stream, p.units):
                    if shape.dims in seen:
                        u.slowdown = p.slowdown
                    else:
                        k = seen[shape.dims] = len(seen)
                        u.slowdown = (probes[k] + probes[k + 1]) / 2
        run.add_units(p.units, prefix)
        passes.append(p)
        return gates.gate_serve(p, run.verdict, prefix)

    passes: list = []
    if args.trace:
        one_pass()
        rec = new_recorder()
        kernels = one_pass(rec)
        gates.execute_sample(kernels, run.verdict, rng)
        run.metrics = layer_metrics(
            rec, passes[:1], passes[1:], serve=serve_layer_metrics(passes[1]),
            kernel_latencies=[k.latency_us for _, k in kernels])
        write_trace(rec, args)
        return
    for i in range(SETUP_REPEATS - 1):
        with workloads.Daemon(workdir, f"setup{i}") as daemon:
            run.setups.append(daemon.start())
    sample = one_pass()
    while more_passes(passes, args.seconds):
        one_pass()
    gates.execute_sample(sample, run.verdict, rng)
    run.end_to_end(passes, max(p.daemon["peak_rss_mb"] for p in passes))
    kinds = serve_layer_metrics(passes[0])
    run.extra.append(
        f"requests_per_s = {run.metrics['units_per_s']:.4f} 1/s; "
        f"cold_latency_p50_ms = {kinds['serve.cold_latency_p50_ms']:.4f} ms "
        f"({kinds['serve.cold.count']} fresh); "
        f"warm_latency_p50_ms = {kinds['serve.warm_latency_p50_ms']:.4f} ms "
        f"({kinds['serve.warm.count']} registry, {kinds['serve.inflight.count']} inflight)")


RUNNERS = {
    "compile-transformer": run_compile,
    "compile-convnet": run_compile,
    "tune-guided": run_tune,
    "serve-mixed": run_serve,
}


def new_recorder():
    from layers import Recorder

    return Recorder(uuid.uuid4().hex[:16])


def installed(rec):
    from layers import installed as _installed

    return _installed(rec)


def write_trace(rec, args) -> None:
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    rec.write_chrome_trace(out / f"{args.workload}-seed{args.seed}.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run()
    try:
        RUNNERS[args.workload](run, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    failed = run.verdict.failures
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in names:
        print(f"  {name:34s} {run.metrics[name]:14.6f} {unit}")
    for line in dict.fromkeys(run.extra + run.verdict.notes):
        print(f"  {line}")
    for unit, why in sorted(failed.items()):
        print(f"  FAILED {unit}: {why}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(run.units),
        "failed": len(failed),
        "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
