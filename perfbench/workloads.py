"""The four workloads: one measured pass of each, run against the public
API (``compile-*``, ``tune-guided``) or a ``repro serve`` daemon
subprocess (``serve-mixed``).

A pass returns its wall time, its units of work with their latencies,
the candidate count it priced (computed from the inputs, outside the
timed region) and the outputs the correctness gates check.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys
import time
from typing import Dict, List, Optional

from inputs import (
    COMPILE_CAPS,
    SERVE_SPACE,
    TUNE_TRIALS,
    Shape,
    compile_inputs,
    tune_inputs,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclasses.dataclass
class Unit:
    """One unit of work: an ALCOP op compile, an op tune or a request."""

    key: str
    seconds: float
    error: str = ""
    #: serve: the response's ``served_from`` (fresh / registry / inflight)
    kind: str = ""
    #: the machine's slowdown around the unit (:mod:`speed`); the
    #: end-to-end metrics divide ``seconds`` by it
    slowdown: float = 1.0


@dataclasses.dataclass
class PassResult:
    wall_s: float
    units: List[Unit]
    #: candidate configurations the pass priced
    configs: int
    #: workload-specific outputs for the correctness gates
    outputs: Dict[str, object]
    #: serve: the daemon's status/metrics snapshot taken after the pass
    daemon: Optional[Dict[str, object]] = None
    #: the machine's mean slowdown during the pass (:mod:`speed`); the
    #: end-to-end metrics divide the pass's times by it
    slowdown: float = 1.0


def src_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------- compile-*
def _nothing() -> None:
    pass


class TimedBackend:
    """Forwards to a compiler backend and times each ``gemm_latency`` call
    (one op compile) into ``units``. ``before_unit`` runs before each, and
    the time it takes adds up in ``paused_s``."""

    def __init__(self, inner, units: List[Unit], expected_fallbacks: frozenset,
                 before_unit=_nothing) -> None:
        self._inner = inner
        self._units = units
        self._fallbacks = expected_fallbacks
        self._before_unit = before_unit
        self.paused_s = 0.0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def gemm_latency(self, spec):
        if spec.name in self._fallbacks:
            return self._inner.gemm_latency(spec)
        t0 = time.perf_counter()
        self._before_unit()
        self.paused_s += time.perf_counter() - t0
        error = ""
        t0 = time.perf_counter()
        try:
            return self._inner.gemm_latency(spec)
        except Exception as e:
            error = repr(e)
            raise
        finally:
            self._units.append(Unit(spec.name, time.perf_counter() - t0, error))


def untileable_ops(workload: str) -> frozenset:
    """Ops with an empty design space: priced by the roofline fallback by
    design, not counted as compiles."""
    from repro.models import MODEL_ZOO
    from repro.tuning import SpaceOptions, enumerate_space

    opts = SpaceOptions(max_size=COMPILE_CAPS[workload])
    out = set()
    for model, _ in compile_inputs(workload, 0):
        for op in MODEL_ZOO[model]().gemm_ops:
            try:
                enumerate_space(op.spec, options=opts)
            except ValueError:
                out.add(op.spec.name)
    return frozenset(out)


def compile_candidates(workload: str) -> int:
    """ALCOP candidates a pass prices: the sum of the searched space sizes."""
    from repro.models import MODEL_ZOO
    from repro.tuning import SpaceOptions, enumerate_space, restrict_space

    opts = SpaceOptions(max_size=COMPILE_CAPS[workload])
    skip = untileable_ops(workload)
    return sum(
        len(restrict_space(enumerate_space(op.spec, options=opts), "alcop"))
        for model, _ in compile_inputs(workload, 0)
        for op in MODEL_ZOO[model]().gemm_ops
        if op.spec.name not in skip
    )


def compile_setup(workload: str, seed: int):
    """Everything a Table III pass builds before its first op compile."""
    from repro.baselines import XlaLikeCompiler, tvm_compiler
    from repro.core import AlcopCompiler
    from repro.models import MODEL_ZOO
    from repro.tuning import Measurer, SpaceOptions

    opts = SpaceOptions(max_size=COMPILE_CAPS[workload])
    measurer = Measurer(via_ir=False)
    compilers = {
        "ALCOP": AlcopCompiler(measurer=measurer, space_options=opts),
        "TVM": tvm_compiler(measurer=measurer, space_options=opts),
        "XLA": XlaLikeCompiler(),
    }
    graphs = []
    for model, order in compile_inputs(workload, seed):
        graph = MODEL_ZOO[model]()
        by_name = {op.spec.name: op for op in graph.gemm_ops}
        graph.gemm_ops[:] = [by_name[name] for name in order]
        graphs.append(graph)
    return measurer, compilers, graphs


def compile_pass(workload: str, seed: int, fallbacks: frozenset, configs: int,
                 before_unit=_nothing) -> PassResult:
    """One cold Table III pass: ALCOP, TVM and XLA-like over every model of
    the workload, sharing one static-path measurer. ``before_unit`` runs
    before each ALCOP op compile, and its time is left out of the pass's."""
    from repro.models import estimate_model_latency
    from repro.tuning import clear_space_caches

    clear_space_caches()
    measurer, compilers, graphs = compile_setup(workload, seed)
    units: List[Unit] = []
    timed = TimedBackend(compilers["ALCOP"], units, fallbacks, before_unit)
    models = {}
    t0 = time.perf_counter()
    for graph in graphs:
        models[graph.name] = {
            "ALCOP": estimate_model_latency(graph, timed, backend_name="ALCOP"),
            "TVM": estimate_model_latency(graph, compilers["TVM"], backend_name="TVM"),
            "XLA": estimate_model_latency(graph, compilers["XLA"], backend_name="XLA"),
        }
    wall = time.perf_counter() - t0 - timed.paused_s
    order = [op.spec for graph in graphs for op in graph.gemm_ops]
    return PassResult(wall, units, configs, {
        "specs": order, "compilers": compilers, "models": models, "measurer": measurer,
    })


# -------------------------------------------------------------- tune-guided
def tune_setup(seed: int):
    from repro.core import AlcopCompiler
    from repro.workloads import get_operator

    op, tseed = tune_inputs(seed)[0]
    return AlcopCompiler(search="model-assisted-xgb", n_trials=TUNE_TRIALS, seed=tseed), \
        get_operator(op)


def tune_pass(op: str, tseed: int, before_batch=_nothing) -> PassResult:
    """Tune ``op`` under tuner seed ``tseed``, cold on a fresh measurer.
    ``before_batch`` runs before each batch of trials the tuner measures,
    and its time is left out of the tune's."""
    from repro.core import AlcopCompiler
    from repro.tuning import clear_space_caches
    from repro.workloads import get_operator

    clear_space_caches()
    spec = get_operator(op)
    compiler = AlcopCompiler(search="model-assisted-xgb", n_trials=TUNE_TRIALS, seed=tseed)
    measure_many = compiler.measurer.measure_many
    paused = 0.0

    def paused_then_measure_many(*args, **kwargs):
        nonlocal paused
        t = time.perf_counter()
        before_batch()
        paused += time.perf_counter() - t
        return measure_many(*args, **kwargs)

    compiler.measurer.measure_many = paused_then_measure_many
    t0 = time.perf_counter()
    try:
        kernel = compiler.compile(spec)
        error = ""
    except Exception as e:  # a failed unit is counted, never fatal
        kernel, error = None, repr(e)
    dt = time.perf_counter() - t0 - paused
    return PassResult(dt, [Unit(f"{op}/{tseed}", dt, error)], TUNE_TRIALS,
                      {"kernels": [kernel], "measurers": [compiler.measurer]})


# -------------------------------------------------------------- serve-mixed
SERVE_WORKERS = 2
SERVE_JOBS = 2


class Daemon:
    """A ``repro serve`` subprocess on a Unix socket with an on-disk
    registry, both under ``workdir``."""

    def __init__(self, workdir: pathlib.Path, tag: str) -> None:
        self.dir = workdir / tag
        self.dir.mkdir(parents=True)
        # Relative to the checkout root, which is both processes' working
        # directory: keeps the path under the AF_UNIX length limit.
        self.socket = os.path.relpath(self.dir / "d.sock", ROOT)
        self.proc: Optional[subprocess.Popen] = None

    def client(self, **kw):
        from repro.serve.client import ServeClient

        return ServeClient(socket_path=self.socket, **kw)

    def start(self) -> float:
        """Launch and wait until the daemon answers; returns the seconds
        from launch to ready."""
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket,
            "--registry-dir", str(self.dir / "registry"),
            "--workers", str(SERVE_WORKERS), "--jobs", str(SERVE_JOBS),
            "--space", str(SERVE_SPACE),
        ]
        log = open(self.dir / "daemon.log", "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=src_env(), stdout=log,
                                         stderr=subprocess.STDOUT)
        finally:
            log.close()
        if not self.client(timeout=5).wait_until_ready(timeout=60, interval=0.005):
            raise RuntimeError(f"daemon never became ready; see {self.dir / 'daemon.log'}")
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            self.client(timeout=10).shutdown()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_candidates(stream: List[Shape]) -> int:
    """Configs the daemon sweeps for the stream: each distinct shape's
    capped space, swept once by its cold request."""
    from repro.tuning import SpaceOptions, enumerate_space, restrict_space

    opts = SpaceOptions(max_size=SERVE_SPACE)
    distinct = {s.dims: s for s in stream}
    return sum(len(restrict_space(enumerate_space(s.spec(), options=opts), "alcop"))
               for s in distinct.values())


def _parse_prometheus(text: str) -> Dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                continue
    return out


def serve_pass(daemon: Daemon, stream: List[Shape], configs: int,
               before_cold=_nothing) -> PassResult:
    """Send ``stream`` over one closed-loop connection: each request goes
    out when the previous one has answered. ``before_cold`` runs before
    the first request for each shape, and its time is left out of the
    pass's.

    With two connections, the registry reads of one overlapped the cold
    sweeps of the other on a 2-core machine, and the median request
    latency followed the scheduler: over ten runs its quartiles lay up to
    56% of its 1.6 ms median apart. Over one connection it held at
    1.10-1.19 ms in four back-to-back passes.
    """
    units: List[Unit] = []
    responses: List[Optional[dict]] = []
    client = daemon.client(timeout=120)
    seen = set()
    paused = 0.0
    start = time.perf_counter()
    for i, shape in enumerate(stream):
        if shape.dims not in seen:
            seen.add(shape.dims)
            t0 = time.perf_counter()
            before_cold()
            paused += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            result = client.compile(**shape.params())
            error = ""
        except Exception as e:  # an error envelope is a failed unit
            result, error = None, repr(e)
        dt = time.perf_counter() - t0
        if result is not None:
            result.pop("ir_text", None)
            result.pop("cuda_source", None)
        responses.append(result)
        units.append(Unit(str(i), dt, error, result["served_from"] if result else ""))
    wall = time.perf_counter() - start - paused
    client = daemon.client(timeout=30)
    snapshot = {
        "status": client.status(),
        "metrics": _parse_prometheus(client.metrics()["text"]),
        "peak_rss_mb": daemon.peak_rss_mb(),
    }
    return PassResult(wall, units, configs, {"stream": stream, "responses": responses},
                      daemon=snapshot)
