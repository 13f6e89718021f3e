"""The measurement harness: time a schedule on the simulator.

This plays the role of AutoTVM's builder+runner. Each trial derives the
kernel's timing spec statically from the schedule config
(:func:`~repro.perfmodel.static_spec.timing_spec_from_config`) and runs
the discrete-event simulator (the reproduction's "hardware") on it. The IR
is not built per trial: the compiler builds it once for every kernel it
returns, and :meth:`repro.core.compiler.AlcopCompiler.build` checks that
the spec extracted from that IR equals the static one. Results are cached
by their full identity (GPU, problem, config) in memory, optionally
persisted to disk (:class:`~repro.tuning.cache.MeasurementCache`), and
batch measurements fan out over persistent worker processes (``jobs >
1``) while returning bitwise-identical latencies to the serial path. Each
measurer owns its workers: they start at the first pooled batch, keep
their own warm measurer (wave memo) across batches, and receive
contiguous chunks of each batch, streaming one result per trial back to
the parent, which alone commits results and telemetry.

Fault tolerance (docs/robustness.md): per-trial crashes, hangs and worker
deaths are ordinary measurement outcomes, never sweep aborts. A dying
worker takes down exactly its in-flight attempt: it is respawned and the
rest of its chunk requeued; crashed attempts retry with exponential
backoff up to ``retries`` times before the config is recorded
:data:`FAILED` and quarantined; a trial exceeding ``trial_timeout_s`` has
its worker killed and respawned and is recorded :data:`FAILED`.
Crash/timeout failures are kept out of the disk
cache (they are properties of the run, not of the config), while genuine
compile failures persist as ``inf``. The ``compile`` and ``worker``
fault-injection sites (:mod:`repro.faults`) live here, so every one of
those recovery paths is exercised by the chaos suite.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core import profiling
from ..core.errors import (
    CompileError,
    DeadlineExceededError,
    MeasurementTimeout,
    ReproError,
    WorkerCrash,
)
from ..gpusim.config import A100, GpuSpec
from ..gpusim.engine import WaveMemo, simulate_kernel
from ..perfmodel.static_spec import timing_spec_from_config
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from .cache import MeasurementCache, measurement_key
from .prune import prune_space

__all__ = ["Measurer", "MeasureTelemetry", "MeasureFailure", "FAILED"]

#: Latency recorded for configurations that fail to compile/launch.
FAILED = math.inf

@dataclasses.dataclass(frozen=True)
class MeasureTelemetry:
    """Where a measurer's answers came from, and what the compiles cost."""

    n_compiled: int
    memory_hits: int
    disk_hits: int
    compile_time_s: float
    #: worker attempts that crashed or died (injected or organic)
    n_crashes: int = 0
    #: trials terminated at the wall-clock budget
    n_timeouts: int = 0
    #: crashed attempts that were resubmitted
    n_retries: int = 0
    #: configs that exhausted their retries by killing workers
    n_quarantined: int = 0
    #: configs dropped by model-guided pruning before any compile
    n_pruned: int = 0
    #: accumulated (stage, seconds) compile-path breakdown, canonical order
    stage_time_s: Tuple[Tuple[str, float], ...] = ()
    #: disk-cache write failures absorbed by degrading to memory-only
    disk_errors: int = 0
    #: untraced wave simulations answered by the measurer's wave memo
    wave_memo_hits: int = 0
    #: wave simulations the memo had to run
    wave_memo_misses: int = 0

    @property
    def wave_memo_hit_ratio(self) -> float:
        looked_up = self.wave_memo_hits + self.wave_memo_misses
        return self.wave_memo_hits / looked_up if looked_up else 0.0

    @property
    def n_measured(self) -> int:
        return self.n_compiled + self.memory_hits + self.disk_hits

    def summary(self) -> str:
        out = (
            f"{self.n_measured} measurements: {self.n_compiled} compiled "
            f"({self.compile_time_s:.2f}s), {self.memory_hits} memory hits, "
            f"{self.disk_hits} disk-cache hits"
        )
        if self.n_pruned:
            out += f"; {self.n_pruned} pruned by the analytical model"
        if self.n_crashes or self.n_timeouts:
            out += (
                f"; {self.n_crashes} crashed attempt(s) "
                f"({self.n_retries} retried, {self.n_quarantined} quarantined), "
                f"{self.n_timeouts} timeout(s)"
            )
        return out

    def profile_summary(self) -> str:
        """Per-stage wall-clock breakdown of the compile+simulate path,
        with the wave memo's hit ratio next to it."""
        times = profiling.StageTimes()
        times.merge(dict(self.stage_time_s))
        return times.summary() + (
            f"\n  wave memo        {self.wave_memo_hits} hits / "
            f"{self.wave_memo_misses} misses "
            f"({100.0 * self.wave_memo_hit_ratio:.0f}% hit)"
        )


@dataclasses.dataclass(frozen=True)
class MeasureFailure:
    """One abnormal measurement outcome (crash or timeout), for telemetry
    and post-mortems. Genuine compile failures are *not* failures in this
    sense — they are valid ``inf`` measurements."""

    spec: str
    config: Tuple
    reason: str  # "crash" | "timeout"
    detail: str
    attempt: int

    def as_error(self) -> ReproError:
        """This failure as its taxonomy exception
        (:class:`MeasurementTimeout` or :class:`WorkerCrash`), for callers
        that want to raise rather than inspect telemetry."""
        cls = MeasurementTimeout if self.reason == "timeout" else WorkerCrash
        return cls(
            f"trial {self.config} of {self.spec} "
            f"(attempt {self.attempt}): {self.detail}",
            diagnostic=self,
        )


def _cfg_token(spec: GemmSpec, cfg: TileConfig) -> str:
    """Deterministic event token identifying one (problem, config) trial,
    used by the fault-injection layer to make per-trial decisions."""
    return (
        f"{spec.name}:{spec.batch}x{spec.m}x{spec.n}x{spec.k}"
        f"|{','.join(str(x) for x in cfg.key())}"
    )


#: Contiguous chunks each worker receives per pooled batch (about
#: ``len(order) / (CHUNKS_PER_WORKER * width)`` trials per chunk): enough
#: chunks to balance the load, few enough that each message carries many
#: trials (docs/performance.md).
CHUNKS_PER_WORKER = 8
#: Pause of the dispatch loop while every busy worker still has over two
#: trials queued. Results then arrive in bursts rather than one wake-up
#: each, which keeps the parent off the workers' cores.
NAP_S = 0.001


def _worker_main(conn) -> None:
    """Persistent measurement worker: one private Measurer serving chunks.

    Each message is ``(gpu, plan, spec, items)`` with ``items`` a list of
    ``(cfg, attempt)``; a closed pipe ends the loop. The worker's measurer
    (and so its wave memo) lives across chunks, and is rebuilt only when
    the parent was retargeted. Every trial runs exactly the serial code
    path, so a pooled sweep returns the same bits as a serial one, and
    streams back ``("ok", latency, compile_s,
    stage_times)`` (``inf`` for genuine compile failures) or ``("crash",
    detail)`` when the trial raised. A killed worker sends nothing for its
    in-flight trial; the parent treats the silence as a crash.
    """
    import copy
    import signal

    # Ctrl-C reaches the whole process group; the parent decides what to
    # put down, so a worker never dies of it on its own.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    m: Optional[Measurer] = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        gpu, plan, spec, items = msg
        if m is None or m.gpu != gpu:
            m = Measurer(gpu)
        if plan is None:
            faults.deactivate()
        for cfg, attempt in items:
            if plan is not None:
                # A fresh copy per trial keeps ``max_hits`` counts per trial
                # attempt, as when every attempt had a process of its own.
                faults.activate(copy.deepcopy(plan), export_env=False)
            token = f"{_cfg_token(spec, cfg)}#a{attempt}" if plan is not None else ""
            stages = profiling.StageTimes()
            compile_s = m.compile_time_s
            try:
                faults.inject("worker", token=token)
                with profiling.collect(stages):
                    latency = m._compile_and_time(spec, cfg, token=token)
                reply = ("ok", latency, m.compile_time_s - compile_s, dict(stages))
            except Exception as e:  # crash-class fault or unexpected compiler bug
                reply = ("crash", repr(e))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return


class _Worker:
    """One persistent worker process and the trials it has been sent."""

    __slots__ = ("proc", "conn", "items", "since", "_poll")

    def __init__(self, ctx) -> None:
        import select

        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self._poll = select.poll()
        self._poll.register(self.conn.fileno(), select.POLLIN)
        #: unreported ``(key, cfg, attempt)`` trials of the chunks sent to
        #: it, the in-flight one first; empty while the worker is idle
        self.items: List[Tuple[Tuple, TileConfig, int]] = []
        #: ``time.monotonic`` start of the in-flight trial
        self.since = 0.0

    def readable(self) -> bool:
        """Whether a message (or EOF) is waiting, without blocking."""
        return bool(self._poll.poll(0))

    def put_down(self) -> None:
        """Retire the worker: SIGTERM, join, escalating to SIGKILL when it
        ignores SIGTERM (or is wedged in uninterruptible state), and always
        release the pipe fd, so a hung trial never leaks a zombie process
        or its descriptor."""
        try:
            self.proc.terminate()
            self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=1.0)
        finally:
            self.conn.close()


class _WorkerPool:
    """The persistent worker processes of one :class:`Measurer`.

    Started lazily by the first pooled batch and grown to the widest batch
    asked for. ``lock`` serialises pooled batches: the serve daemon shares
    one measurer across request threads.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.workers: List[Optional[_Worker]] = []
        #: worker processes ever started: first starts plus respawns
        self.spawned = 0
        self._owner = os.getpid()

    def spawn(self, slot: int) -> _Worker:
        """Start a worker in ``slot``, putting down the one there before."""
        import multiprocessing as mp

        while len(self.workers) <= slot:
            self.workers.append(None)
        self.retire(slot)
        w = self.workers[slot] = _Worker(mp.get_context())
        self.spawned += 1
        return w

    def retire(self, slot: int) -> None:
        w, self.workers[slot] = self.workers[slot], None
        if w is not None:
            w.put_down()

    def shutdown(self) -> None:
        """Put every worker down. Also the measurer's finalizer, so it
        takes no lock; it is a no-op in a forked child, whose copy of the
        pool names its siblings."""
        if os.getpid() != self._owner:
            return
        workers, self.workers = self.workers, []
        for w in workers:
            if w is not None:
                w.proc.terminate()
        for w in workers:
            if w is not None:
                w.put_down()

class Measurer:
    """Compile-and-simulate with caching and fault tolerance.

    Thread safety: telemetry counters, the in-memory result cache and the
    failure/quarantine records are guarded by an internal lock, so one
    measurer may be shared by concurrent request threads (the
    :mod:`repro.serve` daemon) without losing counts. Compiles themselves
    run outside the lock; only the bookkeeping serializes. Pooled batches
    take turns on the measurer's one worker pool.

    Parameters
    ----------
    gpu:
        Target hardware model.
    via_ir:
        Accepted for backward compatibility and must be False: every trial
        measures the static timing spec, and the IR check runs on the
        kernels the compiler returns (:meth:`AlcopCompiler.build
        <repro.core.compiler.AlcopCompiler.build>`).
    cache:
        Optional disk-persistent :class:`MeasurementCache`; misses are
        compiled and written back, so later runs (or other measurers
        sharing the directory) warm-start.
    jobs:
        Worker-process width for batch measurement (:meth:`sweep` /
        :meth:`measure_many`). 1 (default) keeps everything in-process
        unless ``trial_timeout_s`` forces process isolation. Workers are
        persistent; :meth:`close` (or ``with Measurer(...) as m``) stops
        them, and a garbage-collected measurer reaps them too.
    trial_timeout_s:
        Per-trial wall-clock budget. A trial exceeding it has its worker
        killed (and respawned) and is recorded :data:`FAILED`. Requires
        process isolation, so when set, even ``jobs=1`` measurements run
        in a worker process.
    retries:
        How many times a crashed attempt (dead or raising worker) is
        resubmitted before the config is recorded :data:`FAILED` and
        quarantined.
    backoff_s:
        Base of the exponential retry backoff (``backoff_s * 2**attempt``).
    """

    def __init__(
        self,
        gpu: GpuSpec = A100,
        via_ir: bool = False,
        cache: Optional[MeasurementCache] = None,
        jobs: int = 1,
        trial_timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        if via_ir:
            raise ValueError(
                "Measurer(via_ir=True) is gone: trials always measure the static "
                "timing spec, and AlcopCompiler.build checks the IR spec of "
                "every kernel it returns"
            )
        self.gpu = gpu
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.trial_timeout_s = trial_timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        #: guards every telemetry counter and the in-memory caches below;
        #: reentrant because the pool's crash handler tallies a failure and
        #: records its result in one critical section.
        self._lock = threading.RLock()
        self._cache: Dict[Tuple, float] = {}
        #: untraced wave results of this measurer's simulations (bounded
        #: LRU); per-measurer, so a fresh measurer always starts cold.
        self.wave_memo = WaveMemo()
        self.n_compiled = 0
        self.n_memory_hits = 0
        self.n_disk_hits = 0
        self.compile_time_s = 0.0
        self.n_crashes = 0
        self.n_timeouts = 0
        self.n_retries = 0
        #: configs dropped by model-guided pruning (opt-in, sweep-level)
        self.n_pruned = 0
        #: newest :class:`~repro.tuning.prune.PruneStats` from a pruned sweep
        self.last_prune_stats = None
        #: accumulated per-stage wall clock (spec-extract / simulate),
        #: including pooled workers; ``repro tune`` adds the stages of its
        #: verification build of the best config.
        self.stage_times = profiling.StageTimes()
        #: in-memory keys of configs that exhausted retries by killing
        #: workers; they are never resubmitted by this measurer.
        self.quarantined: set = set()
        #: abnormal outcomes (crashes/timeouts) observed, newest last.
        self.failures: List[MeasureFailure] = []
        #: persistent worker processes for pooled batches, started lazily;
        #: reaped by :meth:`close` or, failing that, when this measurer is
        #: garbage-collected.
        self._pool = _WorkerPool()
        weakref.finalize(self, self._pool.shutdown)

    @property
    def telemetry(self) -> MeasureTelemetry:
        with self._lock:
            return self._telemetry_locked()

    def _telemetry_locked(self) -> MeasureTelemetry:
        return MeasureTelemetry(
            n_compiled=self.n_compiled,
            memory_hits=self.n_memory_hits,
            disk_hits=self.n_disk_hits,
            compile_time_s=self.compile_time_s,
            n_crashes=self.n_crashes,
            n_timeouts=self.n_timeouts,
            n_retries=self.n_retries,
            n_quarantined=len(self.quarantined),
            n_pruned=self.n_pruned,
            stage_time_s=tuple(self.stage_times.ordered()),
            disk_errors=self.cache.disk_errors if self.cache is not None else 0,
            wave_memo_hits=self.wave_memo.hits,
            wave_memo_misses=self.wave_memo.misses,
        )

    def _key(self, spec: GemmSpec, cfg: TileConfig) -> Tuple:
        """Full in-memory identity. The GPU spec is part of it: a measurer
        retargeted across GPU generations (the
        ``bench_ablation_gpu_generations`` pattern) must never serve stale
        latencies."""
        return (self.gpu, spec, cfg.key())

    def _timed_spec(self, spec: GemmSpec, cfg: TileConfig) -> float:
        """One trial's latency: the static timing spec, simulated."""
        with profiling.stage("spec-extract"):
            ts = timing_spec_from_config(spec, cfg)
        with profiling.stage("simulate"):
            return simulate_kernel(ts, self.gpu, _memo=self.wave_memo).latency_us

    def _compile_and_time(self, spec: GemmSpec, cfg: TileConfig, token: str = "") -> float:
        """One compile+simulate. Genuine compile/launch rejections return
        :data:`FAILED`; anything else (injected crashes, compiler bugs)
        propagates for the recovery layer to classify."""
        t0 = time.perf_counter()
        try:
            # Ambient token only matters to fault injection; skip the
            # context-manager round-trip on the (common) fault-free path.
            if faults.active_plan() is None:
                with profiling.collect(self.stage_times):
                    try:
                        latency = self._timed_spec(spec, cfg)
                    except (CompileError, ValueError):
                        latency = FAILED
            else:
                with faults.push_token(token), profiling.collect(self.stage_times):
                    faults.inject("compile")
                    try:
                        latency = self._timed_spec(spec, cfg)
                    except (CompileError, ValueError):
                        latency = FAILED
        except BaseException:
            dt = time.perf_counter() - t0
            with self._lock:
                self.compile_time_s += dt
            raise
        dt = time.perf_counter() - t0
        with self._lock:
            self.compile_time_s += dt
            self.n_compiled += 1
        return latency

    def _record(
        self, key: Tuple, spec: GemmSpec, cfg: TileConfig, latency: float,
        persist: bool = True,
    ) -> None:
        """Commit a result to the memory cache and (for genuine
        measurements, not crash/timeout placeholders) the disk cache."""
        with self._lock:
            self._cache[key] = latency
        if self.cache is not None and persist:
            self.cache.put(
                measurement_key(self.gpu, spec, cfg, version=self.cache.version),
                latency,
                meta={
                    "gpu": self.gpu.name,
                    "spec": spec.name,
                    "dims": [spec.batch, spec.m, spec.n, spec.k],
                    "config": list(cfg.key()),
                },
            )

    def _lookup(self, key: Tuple, spec: GemmSpec, cfg: TileConfig) -> Optional[float]:
        """Memory cache, then disk cache (promoting disk hits to memory)."""
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self.n_memory_hits += 1
                return hit
        if self.cache is not None:
            disk = self.cache.get(
                measurement_key(self.gpu, spec, cfg, version=self.cache.version)
            )
            if disk is not None:
                with self._lock:
                    self.n_disk_hits += 1
                    self._cache[key] = disk
                return disk
        return None

    # ------------------------------------------------------------- recovery
    def _note_failure(
        self, spec: GemmSpec, cfg: TileConfig, reason: str, detail: str, attempt: int
    ) -> None:
        with self._lock:
            self.failures.append(
                MeasureFailure(
                    spec=spec.name, config=cfg.key(), reason=reason,
                    detail=detail, attempt=attempt,
                )
            )

    def _measure_with_recovery(self, spec: GemmSpec, cfg: TileConfig, key: Tuple) -> None:
        """Serial (in-process) trial with bounded retry; crash-class
        exceptions become :data:`FAILED` + quarantine instead of aborting
        the sweep."""
        # The trial token exists solely for fault injection; don't pay for
        # its construction per trial when no plan is active.
        token_base = _cfg_token(spec, cfg) if faults.active_plan() is not None else ""
        for attempt in range(self.retries + 1):
            try:
                token = f"{token_base}#a{attempt}" if token_base else ""
                latency = self._compile_and_time(spec, cfg, token=token)
                self._record(key, spec, cfg, latency)
                return
            except Exception as e:
                with self._lock:
                    self.n_crashes += 1
                self._note_failure(spec, cfg, "crash", repr(e), attempt)
                if attempt < self.retries:
                    with self._lock:
                        self.n_retries += 1
                    time.sleep(self.backoff_s * (2**attempt))
        with self._lock:
            self.quarantined.add(key)
        self._record(key, spec, cfg, FAILED, persist=False)

    @staticmethod
    def _deadline_check(deadline: Optional[float], spec: GemmSpec, done: int,
                        total: int) -> None:
        """Raise :class:`DeadlineExceededError` when ``deadline`` (absolute
        ``time.monotonic``) has passed. Results already committed stay in
        the caches, so a retry of the same request resumes warm."""
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"sweep of {spec.name} ran out of its deadline after "
                f"{done}/{total} uncached trials; committed results are kept"
            )

    # ----------------------------------------------------------------- pool
    def close(self) -> None:
        """Stop the worker processes. Idempotent; waits for a pooled batch
        running on another thread to finish first. The measurer stays
        usable: a later pooled batch starts a fresh pool."""
        with self._pool.lock:
            self._pool.shutdown()

    def __enter__(self) -> "Measurer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _measure_pooled(self, spec: GemmSpec, order: List[Tuple[Tuple, TileConfig]],
                        width: int, deadline: Optional[float]) -> None:
        """Measure ``order`` on the persistent workers, one pooled batch at
        a time. A thread still waiting for the pool when ``deadline``
        passes raises :class:`DeadlineExceededError`."""
        pool = self._pool
        if deadline is None:
            pool.lock.acquire()
        elif not pool.lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
            raise DeadlineExceededError(
                f"sweep of {spec.name} ran out of its deadline waiting for the "
                f"measurement pool; 0/{len(order)} uncached trials ran"
            )
        try:
            # Another thread's batch may have measured (or quarantined)
            # some of these while this one waited: those are memory hits.
            with self._lock:
                tasks = [(key, cfg) for key, cfg in order if key not in self._cache]
                self.n_memory_hits += len(order) - len(tasks)
            self._pool_batch(pool, spec, tasks, width, deadline)
        finally:
            pool.lock.release()

    def _pool_batch(self, pool: _WorkerPool, spec: GemmSpec,
                    tasks: List[Tuple[Tuple, TileConfig]], width: int,
                    deadline: Optional[float]) -> None:
        """Fault-tolerant dispatch: contiguous chunks to the workers,
        per-trial deadlines, crash recovery with retry/backoff and
        quarantine, respawn of dead or timed-out workers. A dead or hung
        worker costs exactly its in-flight trial; the batch always
        completes. Results are committed here, in the calling thread, as
        they stream in."""
        import collections
        import select

        plan = faults.active_plan()
        size = max(1, -(-len(tasks) // (CHUNKS_PER_WORKER * width)))
        # (trials as (key, cfg, attempt), not_before_monotonic)
        queue = collections.deque(
            ([(key, cfg, 0) for key, cfg in tasks[i:i + size]], 0.0)
            for i in range(0, len(tasks), size)
        )
        # One poll set per set of busy workers (rebuilt only when it changes,
        # not on every wake-up): each worker's pipe plus its process sentinel.
        watched: List[_Worker] = []
        poller = select.poll()

        def pop_ready(now: float):
            for _ in range(len(queue)):
                item = queue.popleft()
                if item[1] <= now:
                    return item[0]
                queue.append(item)
            return None

        def commit(key, cfg, payload) -> None:
            _, latency, compile_s, stage_times = payload
            with self._lock:
                self.n_compiled += 1
                self.compile_time_s += compile_s
            self.stage_times.merge(stage_times)
            profiling.credit(stage_times)
            self._record(key, spec, cfg, latency)

        def on_crash(key, cfg, attempt, detail) -> None:
            with self._lock:
                self.n_crashes += 1
            self._note_failure(spec, cfg, "crash", detail, attempt)
            if attempt < self.retries:
                with self._lock:
                    self.n_retries += 1
                queue.append(
                    ([(key, cfg, attempt + 1)],
                     time.monotonic() + self.backoff_s * (2**attempt))
                )
            else:
                with self._lock:
                    self.quarantined.add(key)
                self._record(key, spec, cfg, FAILED, persist=False)

        def replace(slot: int, w: _Worker) -> None:
            """Put a failed worker down, requeue its chunk's unreported
            remainder unchanged, and respawn the slot."""
            if w.items:
                queue.appendleft((w.items, 0.0))
            pool.spawn(slot)

        def died(slot: int, w: _Worker) -> None:
            key, cfg, attempt = w.items.pop(0)
            replace(slot, w)
            on_crash(key, cfg, attempt, f"worker died (exit code {w.proc.exitcode})")

        def time_out(slot: int, w: _Worker) -> None:
            """Kill a worker whose in-flight trial overran its budget and
            record the trial FAILED as a timeout."""
            w.proc.terminate()
            # Drain the pipe once before recording the timeout: a result
            # that landed in the race window between the deadline check and
            # the terminate is a completed measurement, and discarding it
            # would make retries (or a fleet coordinator) re-measure a
            # config that actually finished.
            payload = None
            try:
                if w.conn.poll(0.05):
                    payload = w.conn.recv()
            except (EOFError, OSError):
                payload = None
            key, cfg, attempt = w.items.pop(0)
            if payload is not None and payload[0] == "ok":
                commit(key, cfg, payload)
            else:
                with self._lock:
                    self.n_timeouts += 1
                self._note_failure(
                    spec, cfg, "timeout",
                    f"exceeded {self.trial_timeout_s}s wall clock", attempt,
                )
                self._record(key, spec, cfg, FAILED, persist=False)
            replace(slot, w)

        def busy() -> List[Tuple[int, _Worker]]:
            return [(i, w) for i, w in enumerate(pool.workers[:width])
                    if w is not None and w.items]

        try:
            while queue or busy():
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    done = sum(key in self._cache for key, _ in tasks)
                    self._deadline_check(deadline, spec, done, len(tasks))
                for slot in range(width):
                    # A worker holding less than a chunk gets its next one
                    # before it runs dry, so it never idles on this loop.
                    w = pool.workers[slot] if slot < len(pool.workers) else None
                    if w is not None and len(w.items) >= size:
                        continue
                    items = pop_ready(now)
                    if items is None:
                        break
                    if w is None or (not w.items and not w.proc.is_alive()):
                        w = pool.spawn(slot)
                    if not w.items:
                        w.since = now
                    w.items = w.items + items
                    try:
                        w.conn.send((self.gpu, plan, spec,
                                     [(cfg, attempt) for _, cfg, attempt in items]))
                    except (BrokenPipeError, OSError):
                        pass  # died since the liveness check; handled below
                running = busy()
                if not running:
                    # everything is backing off; wait out the shortest delay
                    time.sleep(min(self.backoff_s, 0.05))
                    continue
                if [w for _, w in running] != watched:
                    watched = [w for _, w in running]
                    poller = select.poll()
                    for w in watched:
                        poller.register(w.conn.fileno(), select.POLLIN)
                        poller.register(w.proc.sentinel, select.POLLIN)
                ready = {fd for fd, _ in poller.poll(50)}
                for slot, w in running:
                    if w.conn.fileno() in ready:
                        # Read every result that has arrived in one wake-up.
                        while True:
                            try:
                                payload = w.conn.recv()
                            except (EOFError, OSError):
                                died(slot, w)  # the pipe broke with the worker
                                break
                            key, cfg, attempt = w.items.pop(0)
                            w.since = time.monotonic()
                            if payload[0] == "ok":
                                commit(key, cfg, payload)
                            else:
                                on_crash(key, cfg, attempt, payload[1])
                            if not (w.items and w.readable()):
                                break
                    elif w.proc.sentinel in ready and not w.conn.poll():
                        died(slot, w)  # (a result that raced the exit: next pass)
                    elif (self.trial_timeout_s is not None
                          and time.monotonic() - w.since > self.trial_timeout_s):
                        time_out(slot, w)
                if all(len(w.items) > 2 for _, w in running):
                    # Every worker has work queued: let results pile up for
                    # a moment, so one wake-up of this loop serves several.
                    time.sleep(NAP_S)
        except BaseException:
            # A sweep deadline, Ctrl-C or anything unexpected: put every
            # busy worker down (same SIGTERM → SIGKILL escalation, so no
            # child leaks) — its pipe may still carry results for this
            # batch. Committed trials stay cached; idle workers stay warm.
            stale = busy()
            for _, w in stale:
                w.proc.terminate()
            for slot, _ in stale:
                pool.retire(slot)
            raise

    # ------------------------------------------------------------------ api
    def measure(self, spec: GemmSpec, cfg: TileConfig) -> float:
        """Latency in us, or :data:`FAILED` when compilation fails."""
        return self.measure_many(spec, [cfg])[0]

    def measure_many(
        self, spec: GemmSpec, cfgs: Sequence[TileConfig], jobs: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[float]:
        """Measure a batch; fans out over the persistent worker processes.

        ``jobs`` explicitly overrides the pool width for this call only —
        the measurer's configured width is never mutated (the pool itself
        grows to the widest call), so re-entrant or failed sweeps cannot
        leave a stale pool width behind. Cache hits
        are answered in-process; only distinct uncached configs reach the
        pool. Results (and cache writes) are merged in input order, so the
        output is identical to the serial path bit for bit.

        ``deadline`` (absolute ``time.monotonic`` seconds) aborts the batch
        cleanly with :class:`DeadlineExceededError` once passed, also while
        the batch still waits for another thread's pooled batch: in-flight
        workers are put down, committed results stay cached. The serving
        daemon uses this to stop burning a worker thread on a request whose
        client budget has already expired.
        """
        width = self.jobs if jobs is None else max(1, int(jobs))
        results: Dict[int, float] = {}
        pending: Dict[Tuple, List[int]] = {}
        order: List[Tuple[Tuple, TileConfig]] = []
        for i, cfg in enumerate(cfgs):
            key = self._key(spec, cfg)
            if key in pending:  # duplicate within the batch: compile once
                pending[key].append(i)
                continue
            hit = self._lookup(key, spec, cfg)
            if hit is not None:
                results[i] = hit
                continue
            pending[key] = [i]
            order.append((key, cfg))
        if order:
            if width <= 1 and self.trial_timeout_s is None:
                for done, (key, cfg) in enumerate(order):
                    self._deadline_check(deadline, spec, done, len(order))
                    self._measure_with_recovery(spec, cfg, key)
            else:
                self._measure_pooled(spec, order, width, deadline)
            for key, _ in order:
                for i in pending[key]:
                    results[i] = self._cache[key]
        return [results[i] for i in range(len(cfgs))]

    def sweep(
        self,
        spec: GemmSpec,
        space: Sequence[TileConfig],
        jobs: Optional[int] = None,
        prune_ratio: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> List[float]:
        """Measure every config; failed builds yield :data:`FAILED`.

        ``jobs`` overrides the pool width for this sweep only (passed
        through :meth:`measure_many` explicitly, never stored).

        ``prune_ratio`` (opt-in, default off) runs the model-guided pruning
        pass first: configs the analytical model prices beyond
        ``prune_ratio`` times its best prediction are recorded
        :data:`FAILED` without ever being compiled. Positions in the
        returned list still correspond 1:1 to ``space``.
        """
        space = list(space)
        if not prune_ratio:
            return self.measure_many(spec, space, jobs=jobs, deadline=deadline)
        kept, stats = prune_space(spec, space, self.gpu, prune_ratio)
        with self._lock:
            self.n_pruned += stats.n_total - stats.n_kept
            self.last_prune_stats = stats
        kept_latency = self.measure_many(spec, kept, jobs=jobs, deadline=deadline)
        by_key = {cfg.key(): lat for cfg, lat in zip(kept, kept_latency)}
        return [by_key.get(cfg.key(), FAILED) for cfg in space]

    def best(self, spec: GemmSpec, space: Sequence[TileConfig],
             deadline: Optional[float] = None) -> Tuple[TileConfig, float]:
        """Exhaustive-search optimum over ``space``."""
        space = list(space)
        if not space:
            raise CompileError(
                f"cannot search an empty design space for {spec.name}: every "
                "candidate was removed by the variant/space restrictions"
            )
        latencies = self.sweep(spec, space, deadline=deadline)
        idx = min(range(len(space)), key=lambda i: latencies[i])
        if latencies[idx] == FAILED:
            raise CompileError(f"no configuration in the space compiles for {spec.name}")
        return space[idx], latencies[idx]
