"""Distributed, elastic tuning fleet (docs/distributed.md).

The process-pool :class:`~repro.tuning.measure.Measurer` is one box wide;
this module scales the measurement loop beyond it, modelled on TVM's
RPC-tracker measurement farm: a :class:`FleetCoordinator` shards an
enumerated design space across many expendable workers, streams results
back asynchronously as each trial lands, work-steals the unmeasured
remainder of straggler shards, tolerates worker death at any point, and
scales the fleet up or down mid-sweep (:meth:`FleetCoordinator.scale_to`).

Workers come in two kinds:

:class:`LocalProcessWorker`
    One long-lived worker *process* per fleet slot, like the measurer's
    own persistent pool workers. Each trial runs through the hardened
    ``Measurer`` trial protocol — retry with backoff, quarantine — inside
    the worker, so per-trial crashes never surface as worker failures.
:class:`RemoteServeWorker`
    A ``repro serve`` / ``repro fleet-worker`` daemon reached over the
    newline-JSON Unix socket or HTTP transport, answering the ``measure``
    op with one shard per request. One warm daemon box is one fleet slot.

The invariant that makes the fleet safe to trust: a sharded sweep is
**bitwise-identical** to a serial ``Measurer.sweep`` — every latency and
the best config — including under injected worker death at any fleet
width and mid-sweep resizes. Trials are deterministic simulations, so a
re-measured (retried or stolen) config reproduces the same bits; the
coordinator merges duplicates first-write-wins and the chaos suite
(``tests/chaos/test_fleet.py``) asserts the identity end to end.

Failure model
-------------
A worker dying mid-shard (``fleet`` fault site, ``worker-death``) costs
the shard's unmeasured remainder, which is requeued at the next attempt
number while the slot respawns its worker. A lost dispatch
(``coordinator`` token, ``crash``) requeues the whole shard. A shard that
fails :attr:`FleetCoordinator.max_shard_retries` times aborts the sweep
with :class:`~repro.core.errors.WorkerCrash` — by then the fault is
systemic, not transient. Results already streamed are never lost: they
are committed to the coordinator (and through :func:`fleet_sweep`, to the
measurer's caches) the moment they arrive.

Endpoint health is tracked per slot by a :class:`CircuitBreaker`
(docs/robustness.md): repeated worker-start failures (any slot) or remote
transport/deadline failures open the breaker, which stops dispatching to
the sick seat for an escalating cooldown, then lets one half-open probe
shard through. A successful probe closes the breaker — a daemon that
restarts mid-sweep *rejoins* the fleet instead of being permanently
retired — while a breaker that opens :attr:`CircuitBreaker.max_opens`
times is deemed dead and retires its seat for good.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core.errors import FaultInjected, ServeError, WorkerCrash
from ..gpusim.config import A100, GpuSpec
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from .measure import Measurer, _cfg_token

__all__ = [
    "CircuitBreaker",
    "FleetCoordinator",
    "FleetResult",
    "FleetTelemetry",
    "LocalProcessWorker",
    "RemoteServeWorker",
    "fleet_sweep",
    "parse_endpoint",
]

#: (position in the sweep, config) — the unit of fleet work.
Item = Tuple[int, TileConfig]

#: on_result callback signature: (index, latency_us, persist_to_disk).
ResultSink = Callable[[int, float, bool], None]


#: Process-global mirrors of the fleet telemetry counters, so a long
#: coordinator (or a daemon hosting many sweeps) shows up on /metrics.
_FLEET_STEALS = obs_metrics.counter(
    "repro_fleet_steals_total", "Straggler shards work-stolen mid-sweep.")
_FLEET_DEATHS = obs_metrics.counter(
    "repro_fleet_worker_deaths_total", "Fleet workers that died mid-shard.")
_BREAKER_OPENS = obs_metrics.counter(
    "repro_breaker_opens_total", "Circuit breakers opened on sick fleet seats.")
_BREAKER_REJOINS = obs_metrics.counter(
    "repro_breaker_rejoins_total",
    "Fleet seats that rejoined after a successful half-open probe.")


def _coordinator_token(sid: int, attempt: int) -> str:
    return f"coordinator|shard={sid}|attempt={attempt}"


def _worker_token(spec: GemmSpec, cfg: TileConfig, sid: int, attempt: int) -> str:
    return f"worker|shard={sid}|attempt={attempt}|{_cfg_token(spec, cfg)}"


# --------------------------------------------------------------------- workers
def _fleet_worker_main(conn, gpu: GpuSpec, retries: int) -> None:
    """Fleet worker process: a long-lived loop answering shard requests.

    Each trial goes through the serial ``Measurer`` recovery path (retry
    with backoff, quarantine), so the values returned are bit-identical to
    a serial sweep's. Results stream back one message per trial —
    ``("result", sid, index, latency, persist)`` — so the coordinator
    loses at most the trial in flight when this process dies. ``persist``
    is False for crash-quarantined FAILED placeholders, which are run
    properties, not config properties, and must stay out of disk caches.

    A shard message may carry a sixth element, ``(trace_id, span_id)``:
    the coordinator's trace context. The worker then records a
    ``fleet:worker-shard`` span with per-trial children and ships the
    serialized spans back on the ``done`` message, stitching the child
    process into the coordinator's tree. Older coordinators send 5-tuples
    and older workers ignore the extra element — both directions stay
    compatible. A worker that dies mid-shard simply never ships its spans:
    the trace loses that shard's detail, never its validity.
    """
    try:
        faults.ensure_env_plan()
        measurer = Measurer(gpu, retries=retries, backoff_s=0.01)
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _, sid, attempt, spec, items = msg[:5]
            wire_ctx = msg[5] if len(msg) > 5 else None
            ctx = None
            if (isinstance(wire_ctx, (tuple, list)) and len(wire_ctx) == 2
                    and all(isinstance(x, str) for x in wire_ctx)):
                ctx = obs_trace.SpanContext(wire_ctx[0], wire_ctx[1])
            tracer = None
            with contextlib.ExitStack() as scope:
                if ctx is not None:
                    tracer = scope.enter_context(
                        obs_trace.activate(obs_trace.Tracer(capacity=4096)))
                    scope.enter_context(obs_trace.span(
                        "fleet:worker-shard", parent=ctx,
                        attrs={"shard": sid, "attempt": attempt,
                               "trials": len(items)}))
                for idx, cfg in items:
                    faults.inject("fleet", token=_worker_token(spec, cfg, sid, attempt))
                    with obs_trace.span("fleet:trial", attrs={"index": idx}):
                        latency = measurer.measure(spec, cfg)
                    persist = measurer._key(spec, cfg) not in measurer.quarantined
                    conn.send(("result", sid, idx, latency, persist))
            spans = [s.as_dict() for s in tracer.spans()] if tracer is not None else None
            conn.send(("done", sid, spans))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # coordinator went away; nothing to report to
    finally:
        try:
            conn.close()
        except OSError:
            pass


class LocalProcessWorker:
    """One fleet slot backed by a long-lived local worker process."""

    kind = "process"

    def __init__(self, gpu: GpuSpec, retries: int = 2) -> None:
        self.gpu = gpu
        self.retries = retries
        self._proc = None
        self._conn = None

    def start(self) -> None:
        import multiprocessing as mp

        ctx = mp.get_context()
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_fleet_worker_main,
            args=(child, self.gpu, self.retries),
            daemon=True,
        )
        self._proc.start()
        child.close()

    def measure_shard(
        self, spec: GemmSpec, sid: int, attempt: int, items: Sequence[Item],
        on_result: ResultSink, should_abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run ``items`` on the worker, streaming each trial's result into
        ``on_result`` as it lands. Raises :class:`WorkerCrash` when the
        worker dies mid-shard (the caller requeues the remainder) or when
        ``should_abort`` turns true (sweep already complete elsewhere)."""
        ctx = obs_trace.current_context()
        wire_ctx = (ctx.trace_id, ctx.span_id) if ctx is not None else None
        try:
            self._conn.send(("shard", sid, attempt, spec, list(items), wire_ctx))
            while True:
                if not self._conn.poll(0.05):
                    if should_abort is not None and should_abort():
                        raise WorkerCrash(f"shard {sid} abandoned: sweep over")
                    if self._proc.is_alive() or self._conn.poll():
                        continue
                    raise WorkerCrash(
                        f"fleet worker died mid-shard {sid} "
                        f"(exit code {self._proc.exitcode})"
                    )
                msg = self._conn.recv()
                if msg[0] == "done":
                    # Adopt the child process's spans (message element 3,
                    # absent from older workers) into every active tracer.
                    if len(msg) > 2 and msg[2]:
                        for tracer in obs_trace.active_tracers():
                            tracer.import_spans(msg[2])
                    return
                _, _, idx, latency, persist = msg
                on_result(idx, latency, persist)
        except (EOFError, OSError, BrokenPipeError) as e:
            raise WorkerCrash(f"fleet worker pipe broke on shard {sid}: {e}") from e

    def stop(self) -> None:
        """Retire the worker with the same SIGTERM → SIGKILL escalation as
        the measurement pool: never leak a child or its pipe fd."""
        if self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        if self._proc is not None:
            try:
                self._proc.join(timeout=0.5)
                if self._proc.is_alive():
                    self._proc.terminate()
                    self._proc.join(timeout=1.0)
                if self._proc.is_alive():
                    self._proc.kill()
                    self._proc.join(timeout=1.0)
            finally:
                self._proc = None
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


class RemoteServeWorker:
    """One fleet slot backed by a ``repro serve`` / ``repro fleet-worker``
    daemon answering the ``measure`` op. Result streaming is per-shard (one
    request/response round trip per shard) rather than per-trial."""

    kind = "remote"

    def __init__(self, endpoint: str, timeout: float = 600.0) -> None:
        from ..serve.client import ServeClient

        self.endpoint = endpoint
        kwargs = parse_endpoint(endpoint)
        self._client = ServeClient(timeout=timeout, **kwargs)

    def start(self) -> None:
        self._client.ping()

    def measure_shard(
        self, spec: GemmSpec, sid: int, attempt: int, items: Sequence[Item],
        on_result: ResultSink, should_abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        result = self._client.measure(spec, [cfg for _, cfg in items])
        latencies = result.get("latencies", [])
        persist = result.get("persist", [True] * len(latencies))
        if len(latencies) != len(items):
            raise ServeError(
                f"fleet worker {self.endpoint} answered {len(latencies)} "
                f"latencies for a {len(items)}-trial shard"
            )
        for (idx, _), latency, keep in zip(items, latencies, persist):
            on_result(idx, float(latency), bool(keep))

    def stop(self) -> None:
        pass  # the daemon outlives the sweep by design


def parse_endpoint(endpoint: str) -> Dict[str, object]:
    """``host:port`` → TCP/HTTP client kwargs; anything else is a Unix
    socket path (the jsonl transport)."""
    host, sep, port = endpoint.rpartition(":")
    if sep and port.isdigit() and "/" not in host:
        return {"host": host or "127.0.0.1", "port": int(port)}
    return {"socket_path": endpoint}


# ------------------------------------------------------------ circuit breaker
class CircuitBreaker:
    """Per-slot endpoint health: closed → open → half-open → closed.

    *Closed* (healthy): every dispatch is allowed; ``threshold``
    consecutive failures trip the breaker *open*. *Open*: no dispatches
    for an escalating cooldown (``cooldown_s * 2**(opens-1)``, capped at
    16×), after which the breaker goes *half-open* and admits exactly one
    probe shard. A probe success closes the breaker — the seat rejoins
    the fleet; a probe failure re-opens it with a longer cooldown. A
    breaker that has opened ``max_opens`` times is :attr:`exhausted`:
    the endpoint is dead, not flaky, and its seat retires.

    Not thread-safe by design: each fleet slot owns one breaker and only
    its own driver thread touches it.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 0.25,
                 max_opens: int = 5) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown_s = max(0.0, float(cooldown_s))
        self.max_opens = max(1, int(max_opens))
        self.state = "closed"
        #: consecutive failures while closed (reset on success or trip)
        self.failures = 0
        #: lifetime count of closed/half-open → open transitions
        self.opens = 0
        self._opened_at = 0.0
        self._probe_out = False

    @property
    def exhausted(self) -> bool:
        """True once the breaker has opened ``max_opens`` times: give up."""
        return self.opens >= self.max_opens

    def _cooldown(self) -> float:
        return self.cooldown_s * (2 ** min(self.opens - 1, 4))

    def allow(self) -> bool:
        """May this slot take a shard right now? An open breaker whose
        cooldown has elapsed transitions to half-open and grants the one
        probe; a half-open breaker with its probe already out refuses."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if time.monotonic() - self._opened_at < self._cooldown():
                return False
            self.state = "half-open"
            self._probe_out = True
            return True
        if self._probe_out:
            return False
        self._probe_out = True
        return True

    def release_probe(self) -> None:
        """Return an unused probe permission (``allow`` granted but no
        shard was available to dispatch)."""
        if self.state == "half-open":
            self._probe_out = False

    def record_success(self) -> bool:
        """A dispatch completed. Returns True when this success *rejoined*
        the seat (the breaker was not closed — a probe came back alive)."""
        rejoined = self.state != "closed"
        self.state = "closed"
        self.failures = 0
        self._probe_out = False
        return rejoined

    def record_failure(self) -> bool:
        """A dispatch failed at the transport (worker start, remote I/O,
        remote deadline). Returns True when this failure *opened* the
        breaker (so the caller can count opens and check exhaustion)."""
        if self.state == "open":
            return False
        if self.state == "half-open":
            self._probe_out = False
            self._trip()
            return True
        self.failures += 1
        if self.failures >= self.threshold:
            self._trip()
            return True
        return False

    def _trip(self) -> None:
        self.state = "open"
        self.opens += 1
        self.failures = 0
        self._opened_at = time.monotonic()


# ----------------------------------------------------------------- coordinator
@dataclasses.dataclass(frozen=True)
class FleetTelemetry:
    """What the sweep cost the fleet: dispatches, losses, steals, resizes."""

    n_workers_peak: int
    n_shards: int
    shards_dispatched: int
    worker_deaths: int
    shard_losses: int
    steals: int
    resizes: int
    results_streamed: int
    duplicates: int
    breaker_opens: int = 0
    breaker_rejoins: int = 0

    def summary(self) -> str:
        out = (
            f"{self.n_shards} shard(s) over {self.n_workers_peak} worker(s), "
            f"{self.shards_dispatched} dispatch(es), "
            f"{self.results_streamed} result(s) streamed"
        )
        if self.worker_deaths or self.shard_losses:
            out += (
                f"; {self.worker_deaths} worker death(s), "
                f"{self.shard_losses} shard loss(es) recovered"
            )
        if self.steals:
            out += f"; {self.steals} shard(s) work-stolen ({self.duplicates} duplicate trial(s))"
        if self.resizes:
            out += f"; {self.resizes} mid-sweep resize(s)"
        if self.breaker_opens:
            out += (
                f"; {self.breaker_opens} circuit-breaker open(s), "
                f"{self.breaker_rejoins} rejoin(s)"
            )
        return out


@dataclasses.dataclass(frozen=True)
class FleetResult:
    """Latencies aligned 1:1 with the input space, plus fleet telemetry."""

    latencies: List[float]
    telemetry: FleetTelemetry

    def best_index(self) -> int:
        return min(range(len(self.latencies)), key=lambda i: self.latencies[i])


class _Shard:
    """A contiguous slice of the space, tracking its unmeasured items."""

    def __init__(self, sid: int, items: List[Item], attempt: int = 0,
                 steal_of: Optional[int] = None) -> None:
        self.sid = sid
        self.items = items
        self.attempt = attempt
        #: sid of the in-flight shard this one was cloned from, or None.
        self.steal_of = steal_of
        #: concurrent thieves cloned *from* this shard (bounded to 1).
        self.thieves = 0


class _Slot:
    """One fleet seat: a driver thread plus the worker it manages."""

    def __init__(self, slot_id: int, factory: Callable[[], object],
                 remote: bool = False,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.slot_id = slot_id
        self.factory = factory
        self.remote = remote
        self.retired = False
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.thread: Optional[threading.Thread] = None


class FleetCoordinator:
    """Shard a design space over an elastic worker fleet (module docstring).

    Parameters
    ----------
    spec / configs:
        The problem and the (deduplicated) configs to measure.
    gpu:
        Measurement identity — must match the serial measurer's for the
        bitwise-identity guarantee to be meaningful.
    workers:
        Local worker processes to start with (``scale_to`` changes it
        mid-sweep).
    endpoints:
        Remote ``measure``-op daemons, one fleet slot each, on top of the
        local workers.
    shard_size:
        Trials per shard. Defaults to ~4 shards per slot (enough
        granularity for balancing and stealing without drowning in
        dispatch overhead).
    max_shard_retries:
        Times one shard may be lost (worker death / lost dispatch) before
        the sweep aborts with :class:`WorkerCrash`.
    steal:
        Allow idle slots to clone the unmeasured remainder of an in-flight
        shard (first result wins; duplicates are identical by determinism).
    breaker_threshold / breaker_cooldown_s / breaker_max_opens:
        Per-slot :class:`CircuitBreaker` tuning — consecutive transport
        failures before the slot stops taking shards, base cooldown before
        its half-open probe, and opens before the seat retires for good.
    """

    def __init__(
        self,
        spec: GemmSpec,
        configs: Sequence[TileConfig],
        *,
        gpu: GpuSpec = A100,
        workers: int = 2,
        endpoints: Sequence[str] = (),
        shard_size: Optional[int] = None,
        max_shard_retries: int = 8,
        steal: bool = True,
        trial_retries: int = 2,
        remote_timeout: float = 600.0,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.25,
        breaker_max_opens: int = 5,
    ) -> None:
        self.spec = spec
        self.configs = list(configs)
        self.gpu = gpu
        self.endpoints = list(endpoints)
        self.max_shard_retries = max(0, int(max_shard_retries))
        self.steal = steal
        self.trial_retries = trial_retries
        self.remote_timeout = remote_timeout
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.breaker_max_opens = breaker_max_opens
        self._initial_workers = max(0, int(workers))
        if self._initial_workers + len(self.endpoints) < 1:
            raise ValueError("a fleet needs at least one local or remote worker")
        n_slots = self._initial_workers + len(self.endpoints)
        if shard_size is None:
            shard_size = max(1, math.ceil(len(self.configs) / max(1, 4 * n_slots)))
        self.shard_size = max(1, int(shard_size))

        self._cond = threading.Condition()
        self._queue: List[_Shard] = [
            _Shard(sid, [(i, self.configs[i]) for i in range(lo, min(lo + self.shard_size,
                                                                     len(self.configs)))])
            for sid, lo in enumerate(range(0, len(self.configs), self.shard_size))
        ]
        self._n_shards = len(self._queue)
        self._inflight: Dict[int, _Shard] = {}
        self._results: Dict[int, float] = {}
        self._on_result: Optional[ResultSink] = None
        self._slots: List[_Slot] = []
        self._next_slot = 0
        self._done = False
        self._failure: Optional[BaseException] = None
        # telemetry
        self._dispatched = 0
        self._deaths = 0
        self._losses = 0
        self._steals = 0
        self._resizes = 0
        self._streamed = 0
        self._duplicates = 0
        self._peak = 0
        self._breaker_opens = 0
        self._breaker_rejoins = 0
        #: trace context of the coordinator's root span, handed to the
        #: driver threads (which have no span stack of their own).
        self._trace_ctx: Optional[obs_trace.SpanContext] = None

    # ------------------------------------------------------------- public api
    def run(self, on_result: Optional[ResultSink] = None) -> FleetResult:
        """Measure everything; returns when every config has a result.

        ``on_result(index, latency, persist)`` is invoked exactly once per
        config, as its first result streams in (the hook
        :func:`fleet_sweep` uses to commit into a measurer's caches).
        """
        with obs_trace.span(
            "fleet:coordinator",
            attrs={"configs": len(self.configs), "shards": self._n_shards},
        ) as root:
            self._trace_ctx = root.context() if root is not None else None
            return self._run(on_result)

    def _run(self, on_result: Optional[ResultSink]) -> FleetResult:
        self._on_result = on_result
        if not self.configs:
            return FleetResult([], self._telemetry_locked())
        with self._cond:
            for endpoint in self.endpoints:
                self._add_slot_locked(self._remote_factory(endpoint), remote=True)
            for _ in range(self._initial_workers):
                self._add_slot_locked(self._local_factory())
        try:
            with self._cond:
                while len(self._results) < len(self.configs) and self._failure is None:
                    self._cond.wait(0.05)
        finally:
            with self._cond:
                self._done = True
                self._cond.notify_all()
            for slot in list(self._slots):
                if slot.thread is not None:
                    slot.thread.join(timeout=10.0)
        if self._failure is not None:
            raise self._failure
        with self._cond:
            telemetry = self._telemetry_locked()
        return FleetResult(
            [self._results[i] for i in range(len(self.configs))], telemetry
        )

    def scale_to(self, n_local: int) -> None:
        """Resize the *local* half of the fleet mid-sweep. Growing spawns
        fresh slots immediately; shrinking retires slots, each of which
        drains its current shard and then leaves. Remote endpoint slots are
        not touched."""
        n_local = max(0, int(n_local))
        with self._cond:
            local = [s for s in self._slots if not s.retired and not s.remote]
            if n_local == len(local):
                return
            self._resizes += 1
            if n_local > len(local):
                for _ in range(n_local - len(local)):
                    self._add_slot_locked(self._local_factory())
            else:
                for slot in local[n_local:]:
                    slot.retired = True
            self._cond.notify_all()

    @property
    def telemetry(self) -> FleetTelemetry:
        with self._cond:
            return self._telemetry_locked()

    # ---------------------------------------------------------------- slots
    def _local_factory(self) -> Callable[[], object]:
        return lambda: LocalProcessWorker(self.gpu, self.trial_retries)

    def _remote_factory(self, endpoint: str) -> Callable[[], object]:
        return lambda: RemoteServeWorker(endpoint, self.remote_timeout)

    def _add_slot_locked(self, factory: Callable[[], object],
                         remote: bool = False) -> None:
        slot = _Slot(
            self._next_slot, factory, remote=remote,
            breaker=CircuitBreaker(
                threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s,
                max_opens=self.breaker_max_opens,
            ),
        )
        self._next_slot += 1
        self._slots.append(slot)
        active = sum(1 for s in self._slots if not s.retired)
        self._peak = max(self._peak, active)
        slot.thread = threading.Thread(
            target=self._drive, args=(slot,), name=f"fleet-slot-{slot.slot_id}",
            daemon=True,
        )
        slot.thread.start()

    # --------------------------------------------------------------- driving
    def _over(self) -> bool:
        with self._cond:
            return self._done or self._failure is not None

    def _drive(self, slot: _Slot) -> None:
        worker = None
        try:
            while True:
                with self._cond:
                    shard = None
                    while shard is None:
                        if self._done or self._failure is not None or slot.retired:
                            return
                        if not slot.breaker.allow():
                            # Open breaker: sit out the cooldown without
                            # touching the queue.
                            self._cond.wait(0.05)
                            continue
                        shard = self._next_shard_locked()
                        if shard is None:
                            slot.breaker.release_probe()
                            self._cond.wait(0.05)
                    if shard.steal_of is None:
                        self._inflight[shard.sid] = shard
                    self._dispatched += 1
                if worker is None:
                    try:
                        worker = slot.factory()
                        worker.start()
                    except Exception:
                        # The slot cannot get a worker (e.g. its endpoint is
                        # down). Hand the shard back untouched — this is not
                        # the shard's fault — and feed the breaker so a dead
                        # endpoint backs off instead of stalling the sweep
                        # (and retires for good once the breaker exhausts).
                        worker = None
                        with self._cond:
                            self._breaker_failure_locked(slot)
                            self._requeue_unchanged_locked(shard)
                            self._cond.notify_all()
                        time.sleep(0.05)
                        continue
                try:
                    faults.inject(
                        "fleet",
                        token=_coordinator_token(shard.sid, shard.attempt),
                        kinds=("crash",),
                    )
                    # Driver threads have no span stack; parent the dispatch
                    # explicitly under the coordinator's root span so local
                    # worker-shard spans (and remote serve spans, via the
                    # client context on this thread) stitch into one tree.
                    with obs_trace.span(
                        "fleet:dispatch", parent=self._trace_ctx,
                        attrs={"slot": slot.slot_id, "shard": shard.sid,
                               "attempt": shard.attempt,
                               "kind": getattr(worker, "kind", "unknown")},
                    ):
                        worker.measure_shard(
                            self.spec, shard.sid, shard.attempt, shard.items,
                            self._commit, should_abort=self._over,
                        )
                except FaultInjected:
                    # Lost dispatch (shard-loss): the worker never saw the
                    # shard; requeue it whole, keep the worker.
                    self._abandon(shard, death=False)
                except (WorkerCrash, ServeError, EOFError, OSError) as e:
                    if self._over():
                        self._finish(shard)
                        return
                    if slot.remote:
                        # Remote transport/deadline failure: the endpoint is
                        # sick, not the shard. Local mid-shard deaths stay
                        # out of the breaker — they are the chaos suite's
                        # injected faults, recovered by requeue alone.
                        with self._cond:
                            self._breaker_failure_locked(slot)
                    self._abandon(shard, death=True, error=e)
                    if worker is not None:
                        try:
                            worker.stop()
                        finally:
                            worker = None
                else:
                    if slot.breaker.record_success():
                        with self._cond:
                            self._breaker_rejoins += 1
                        _BREAKER_REJOINS.inc()
                    self._finish(shard)
        except BaseException as e:  # never die silently: fail the sweep
            with self._cond:
                if self._failure is None:
                    self._failure = e
                self._cond.notify_all()
        finally:
            if worker is not None:
                worker.stop()

    def _breaker_failure_locked(self, slot: _Slot) -> None:
        """Feed one transport failure into ``slot``'s breaker; when the
        breaker exhausts, the seat retires — and when every seat is gone,
        the sweep aborts rather than hangs."""
        if slot.breaker.record_failure():
            self._breaker_opens += 1
            _BREAKER_OPENS.inc()
            if slot.breaker.exhausted:
                slot.retired = True
                if not any(
                    not s.retired for s in self._slots
                ) and self._failure is None:
                    self._failure = WorkerCrash(
                        "every fleet slot is gone (workers "
                        "unreachable); sweep cannot proceed"
                    )

    def _requeue_unchanged_locked(self, shard: _Shard) -> None:
        """Give a shard back exactly as dispatched (no attempt consumed)."""
        if shard.steal_of is not None:
            owner = self._inflight.get(shard.steal_of)
            if owner is not None:
                owner.thieves -= 1
            return
        self._inflight.pop(shard.sid, None)
        self._queue.append(shard)

    def _next_shard_locked(self) -> Optional[_Shard]:
        while self._queue:
            shard = self._queue.pop(0)
            shard.items = self._remaining(shard.items)
            if shard.items:
                return shard
            self._inflight.pop(shard.sid, None)  # fully covered by a thief
        if self.steal:
            victim = None
            for shard in self._inflight.values():
                if shard.thieves:
                    continue
                remaining = self._remaining(shard.items)
                if len(remaining) >= 2 and (
                    victim is None or len(remaining) > len(victim[1])
                ):
                    victim = (shard, remaining)
            if victim is not None:
                shard, remaining = victim
                shard.thieves += 1
                self._steals += 1
                _FLEET_STEALS.inc()
                return _Shard(shard.sid, remaining, shard.attempt + 1,
                              steal_of=shard.sid)
        return None

    def _remaining(self, items: Sequence[Item]) -> List[Item]:
        return [it for it in items if it[0] not in self._results]

    def _commit(self, idx: int, latency: float, persist: bool) -> None:
        with self._cond:
            self._streamed += 1
            if idx in self._results:
                self._duplicates += 1
                return
            self._results[idx] = latency
            fresh = True
            if len(self._results) == len(self.configs):
                self._cond.notify_all()
        if fresh and self._on_result is not None:
            self._on_result(idx, latency, persist)

    def _finish(self, shard: _Shard) -> None:
        with self._cond:
            if shard.steal_of is not None:
                owner = self._inflight.get(shard.steal_of)
                if owner is not None:
                    owner.thieves -= 1
            else:
                self._inflight.pop(shard.sid, None)
            self._cond.notify_all()

    def _abandon(self, shard: _Shard, death: bool,
                 error: Optional[BaseException] = None) -> None:
        """A dispatch failed: requeue whatever the shard still owes."""
        with self._cond:
            if death:
                self._deaths += 1
                _FLEET_DEATHS.inc()
            self._losses += 1
            if shard.steal_of is not None:
                # The owner still carries these items; just release the
                # steal slot.
                owner = self._inflight.get(shard.steal_of)
                if owner is not None:
                    owner.thieves -= 1
                self._cond.notify_all()
                return
            self._inflight.pop(shard.sid, None)
            remaining = self._remaining(shard.items)
            if not remaining:
                self._cond.notify_all()
                return
            if shard.attempt >= self.max_shard_retries:
                if self._failure is None:
                    self._failure = WorkerCrash(
                        f"fleet shard {shard.sid} lost {shard.attempt + 1} "
                        f"time(s) ({len(remaining)} trial(s) unmeasured); "
                        f"last error: {error!r}",
                        diagnostic=error,
                    )
            else:
                self._queue.append(_Shard(shard.sid, remaining, shard.attempt + 1))
            self._cond.notify_all()

    def _telemetry_locked(self) -> FleetTelemetry:
        return FleetTelemetry(
            n_workers_peak=self._peak,
            n_shards=self._n_shards,
            shards_dispatched=self._dispatched,
            worker_deaths=self._deaths,
            shard_losses=self._losses,
            steals=self._steals,
            resizes=self._resizes,
            results_streamed=self._streamed,
            duplicates=self._duplicates,
            breaker_opens=self._breaker_opens,
            breaker_rejoins=self._breaker_rejoins,
        )


# ------------------------------------------------------------------ integration
def fleet_sweep(
    measurer: Measurer,
    spec: GemmSpec,
    space: Sequence[TileConfig],
    *,
    workers: int = 2,
    endpoints: Sequence[str] = (),
    shard_size: Optional[int] = None,
    steal: bool = True,
    breaker_threshold: int = 3,
    breaker_cooldown_s: float = 0.25,
    breaker_max_opens: int = 5,
    coordinator: Optional[FleetCoordinator] = None,
) -> Tuple[List[float], FleetTelemetry]:
    """Sweep ``space`` over a worker fleet, committing every result into
    ``measurer``'s caches exactly as a serial sweep would.

    Cache hits (memory, then disk) are answered locally without touching
    the fleet; duplicates within the batch dispatch once. The returned
    latencies are positionally aligned with ``space`` and bitwise-equal to
    ``measurer.sweep(spec, space)``. After the call, every config is a
    memory-cache hit, so a tuner running on ``measurer`` afterwards (the
    ``repro tune --fleet`` path) replays the fleet's answers for free.
    """
    space = list(space)
    results: Dict[int, float] = {}
    pending: Dict[Tuple, List[int]] = {}
    order: List[Tuple[Tuple, TileConfig]] = []
    for i, cfg in enumerate(space):
        key = measurer._key(spec, cfg)
        if key in pending:
            pending[key].append(i)
            continue
        hit = measurer._lookup(key, spec, cfg)
        if hit is not None:
            results[i] = hit
            continue
        pending[key] = [i]
        order.append((key, cfg))
    if not order:
        return [results[i] for i in range(len(space))], FleetTelemetry(
            0, 0, 0, 0, 0, 0, 0, 0, 0
        )
    if coordinator is None:
        coordinator = FleetCoordinator(
            spec,
            [cfg for _, cfg in order],
            gpu=measurer.gpu,
            workers=workers,
            endpoints=endpoints,
            shard_size=shard_size,
            steal=steal,
            trial_retries=measurer.retries,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
            breaker_max_opens=breaker_max_opens,
        )

    def record(pos: int, latency: float, persist: bool) -> None:
        key, cfg = order[pos]
        measurer._record(key, spec, cfg, latency, persist=persist)

    fleet = coordinator.run(on_result=record)
    for pos, (key, _) in enumerate(order):
        for i in pending[key]:
            results[i] = fleet.latencies[pos]
    return [results[i] for i in range(len(space))], fleet.telemetry
