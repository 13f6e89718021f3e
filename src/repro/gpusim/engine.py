"""The kernel timing engine: a per-SM discrete-event pipeline simulation.

One *wave* of co-resident threadblocks on a single representative SM is
simulated event-by-event (all SMs execute the same program on symmetric
tiles, so one SM with its fair bandwidth share represents the machine). A
threadblock is one sequential program — exactly like the instruction stream
of the transformed kernel:

* prologue: issue the first ``smem_stages - 1`` asynchronous chunk copies;
* each outer iteration: issue the copy for iteration ``ko + stages - 1``,
  wait for chunk ``ko`` to arrive, run the inner (register-level) pipeline
  on the SM's tensor-core server, release the stage;
* epilogue: write the output tile through DRAM.

Asynchronous copies are posted to FIFO bandwidth servers (L2 and DRAM with
a working-set-derived DRAM fraction) and complete in the background; the
pipeline depth manifests as slack between a copy's issue and its wait —
precisely the mechanism ALCOP exploits. Contention between co-resident
threadblocks (``N_mplx``), wave quantization, bank conflicts and exposed
shared-memory latency are modelled here but deliberately *not* in the
analytical model, which keeps the model's best-in-top-k below 100% as in
the paper.

The event loop (:func:`_run_wave`) is specialised to that one program:
each threadblock's position (phase, ``ko``, ``ki``) rides on a single
``(time, seq)`` heap, and the three FIFO servers are plain ``free_at``
floats. Events are processed in the order a general scheduler would
process them — earliest time first, ties to the older push — with the
same float operations, so results are bit-for-bit those of a
generator-per-threadblock simulation (docs/simulator.md).
"""

from __future__ import annotations

import dataclasses
import struct
import threading
from collections import OrderedDict
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..obs import metrics as _metrics
from .config import A100, GpuSpec
from .occupancy import CompileError, tb_per_sm
from .spec import KernelTimingSpec

__all__ = ["SimResult", "WaveMemo", "simulate_kernel", "simulate_wave"]

#: Fixed kernel launch overhead (us).
_LAUNCH_OVERHEAD = 3.0
#: Bank-conflict slowdown of shared-memory traffic without swizzling.
_BANK_CONFLICT_FACTOR = 1.8
#: Stagger between threadblock starts on one SM (us) — breaks ties
#: deterministically, like staggered warp scheduling on hardware.
_TB_STAGGER = 0.01
#: Fraction of the register-staged store (LDG+STS) cost that is exposed on
#: the SM's issue/shared-memory ports when copies are not cp.async; the
#: remainder overlaps with math under warp scheduling.
_STORE_THROUGH_FACTOR = 0.5
#: Event budget of one wave simulation; a wave needing more raises
#: ``RuntimeError`` instead of running for minutes.
_MAX_EVENTS = 10_000_000
#: Entries held by one :class:`WaveMemo` (about 0.3 KB each).
WAVE_MEMO_SIZE = 4096
#: Packed memo-key layout per number of non-empty operand chunks: four
#: integers, a flag and the float inputs of :func:`_run_wave`.
_KEY_LAYOUTS = tuple(struct.Struct(f"<4q?{8 + 2 * n}d") for n in range(3))

_MEMO_HITS = _metrics.counter(
    "repro_wave_memo_hits_total",
    "Untraced wave simulations answered from a measurer's wave memo",
)
_MEMO_MISSES = _metrics.counter(
    "repro_wave_memo_misses_total",
    "Untraced wave simulations a measurer's wave memo had to run",
)

@dataclasses.dataclass
class SimResult:
    """Outcome of simulating one kernel launch."""

    latency_us: float
    tb_per_sm: int
    waves: int
    wave_latency_us: float
    tail_latency_us: float
    dram_fraction: float
    total_flops: int
    trace: Optional[List[Tuple[int, str, float, float]]] = None

    @property
    def tflops(self) -> float:
        """Achieved throughput in TFLOP/s."""
        return self.total_flops / self.latency_us / 1e6


class WaveMemo:
    """Bounded LRU of untraced wave latencies keyed by the exact scalar
    inputs of :func:`_run_wave`, packed bit-for-bit into one ``bytes``
    (under half the memory of the equivalent tuple).

    Owned by one :class:`~repro.tuning.measure.Measurer` (never
    process-global), so a fresh measurer always starts cold. Thread-safe:
    a serve daemon shares one measurer across request threads.
    """

    __slots__ = ("hits", "misses", "_entries", "_lock")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[bytes, float]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> Optional[float]:
        with self._lock:
            latency = self._entries.get(key)
            if latency is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        (_MEMO_MISSES if latency is None else _MEMO_HITS).inc()
        return latency

    def put(self, key: bytes, latency: float) -> None:
        with self._lock:
            self._entries[key] = latency
            if len(self._entries) > WAVE_MEMO_SIZE:
                self._entries.popitem(last=False)


def _dram_fraction(ts: KernelTimingSpec, gpu: GpuSpec, wave_tbs: int) -> float:
    """Fraction of the wave's load traffic that misses L2 and hits DRAM.

    Derived from the working set of one threadblock-batch, as in the
    paper's memory latency model: tiles sharing a row re-use the A chunk,
    tiles sharing a column re-use the B chunk.
    """
    if ts.a_chunk_bytes + ts.b_chunk_bytes == 0:
        return 1.0
    tiles_per_batch = ts.m_tiles * ts.n_tiles
    covered = min(wave_tbs, ts.grid)
    batches_covered = max(1, -(-covered // tiles_per_batch))
    # Raster order: n (column) index varies fastest.
    unique_a_tiles = min(covered, -(-covered // ts.n_tiles) if ts.n_tiles else covered)
    unique_b_tiles = min(covered, ts.n_tiles * batches_covered)
    requested = covered * (ts.a_chunk_bytes + ts.b_chunk_bytes)
    unique = (
        unique_a_tiles * ts.a_chunk_bytes * ts.a_footprint_ratio
        + unique_b_tiles * ts.b_chunk_bytes * ts.b_footprint_ratio
    )
    # If the live working set overflows L2, re-reads also go to DRAM.
    resident = unique * (ts.smem_stages + 1)
    if resident > gpu.l2_size:
        return 1.0
    return min(1.0, unique / requested)


def _check_wave(n_tb, E_o, E_i, S, rs2, chunks, d_issue, t_fill, t_store, inner,
                sync, epi) -> None:
    """Raise what the wave would raise, before simulating any of it.

    Service times and delays are per-wave constants, so whether a request
    with a negative service (``ValueError``) or a delay into the past
    (``RuntimeError``) is ever made depends only on which program steps
    run at all; the first threadblock meets them in this order. The event
    count is exact too: one event per threadblock start and one per
    resumption. The budget is checked before the write-back service, which
    a threadblock only requests after its whole loop.
    """
    if n_tb < 1:
        return
    loops = max(E_o, 0)
    issues = S > 1 or loops
    if issues and any(l2 < 0 or dram < 0 for l2, dram in chunks):
        raise ValueError("service and latency must be non-negative")
    past = "event scheduled in the past; scheduler bug"
    if issues and d_issue < 0:
        raise RuntimeError(past)
    if rs2 and (S >= 2 or loops) and t_fill < 0:
        raise RuntimeError(past)
    if loops and E_i > 0 and inner < 0:
        raise ValueError("service and latency must be non-negative")
    if loops and sync < 0:
        raise RuntimeError(past)
    per_iter = 3 + (t_store > 0.0) + (rs2 and S == 1) + max(E_i, 0)
    resumes = S - 1 + 2 * (rs2 and S >= 2) + loops * per_iter + 1
    if n_tb * (resumes + 1) > _MAX_EVENTS:
        raise RuntimeError(f"simulation exceeded {_MAX_EVENTS} events")
    if epi < 0:
        raise ValueError("service and latency must be non-negative")


def _run_wave(n_tb, E_o, E_i, S, rs2, chunks, mem_latency, d_issue, t_fill,
              t_store, inner, sync, epi, write_latency, trace) -> float:
    """Simulate one wave of ``n_tb`` threadblocks; returns the time the
    last one finishes.

    ``chunks`` holds the (L2, DRAM) service times of each non-empty
    operand chunk; ``d_issue``, ``t_fill`` and ``sync`` are the issue,
    fragment-load and barrier delays; ``t_store``, ``inner`` and ``epi``
    are the store-through, inner-step and write-back service times.

    Run-ahead: a threadblock whose next event is strictly earlier than the
    heap's earliest would be popped straight back, so it continues without
    the push/pop. On a tie it is pushed: the older entry goes first.
    """
    _check_wave(n_tb, E_o, E_i, S, rs2, chunks, d_issue, t_fill, t_store, inner, sync, epi)
    # Phases: the code a threadblock runs when it next resumes.
    INNER = 0   # inner step ``ki`` completed: request step ``ki + 1``
    HEAD = 1    # top of outer iteration ``ko``: issue its chunk's copies
    WAIT = 2    # wait for chunk ``ko`` to land
    USE = 3     # start iteration ``ko``'s inner pipeline (no event boundary)
    LANDED = 4  # chunk ``ko`` landed: trace the wait (no event boundary)
    STORE = 5   # register-staged store of chunk ``ko`` into shared memory
    FILL = 6    # inner-pipeline fragment load (hoisted or per-chunk refill)
    PRO = 7     # prologue: issue chunk ``len(done)``
    HOIST = 8   # hoisted inner prologue: wait for chunk 0
    EPI = 9     # epilogue write-back
    FIN = 10    # write-back landed: the threadblock finishes
    hoist = rs2 and S >= 2
    refill = rs2 and S == 1
    after_store = FILL if refill else USE
    after_land = STORE if t_store > 0.0 else after_store
    # Untraced, nothing happens on landing, so go straight on.
    landed = LANDED if trace is not None else after_land
    l2_free = dram_free = m_free = 0.0
    heap = [(i * _TB_STAGGER, i, i, PRO if S >= 2 else HEAD, 0, 0, 0.0) for i in range(n_tb)]
    seq = n_tb
    done_at: List[List[float]] = [[] for _ in range(n_tb)]
    finish: List[float] = []
    while heap:
        now, _, tb, phase, ko, ki, mark = heappop(heap)
        done = done_at[tb]
        while True:
            if phase == INNER:
                ki += 1
                if ki < E_i:
                    m_free = (now if now > m_free else m_free) + inner
                    when = m_free
                else:
                    if trace is not None:
                        trace.append((tb, f"use[{ko}]", mark, now))
                    when = now + sync
                    ko += 1
                    phase = HEAD
            elif phase == HEAD or phase == PRO:
                if phase == HEAD and ko >= E_o:
                    phase = EPI
                    continue
                # Post one chunk's copies to the L2 and DRAM servers.
                t = 0.0
                for l2, dram in chunks:
                    l2_free = (now if now > l2_free else l2_free) + l2
                    dram_free = (now if now > dram_free else dram_free) + dram
                    if l2_free > t:
                        t = l2_free
                    if dram_free > t:
                        t = dram_free
                done.append(t + mem_latency)
                when = now + d_issue
                if phase == HEAD:
                    phase = WAIT
                elif len(done) == S - 1:
                    phase = HOIST if hoist else HEAD
            elif phase == WAIT:
                mark = now
                t = done[ko]
                when = now if now >= t else t
                phase = landed
            elif phase == USE:
                mark = now
                ki = -1
                phase = INNER
                continue
            elif phase == LANDED:
                trace.append((tb, f"smem_wait[{ko}]", mark, now))
                phase = after_land
                continue
            elif phase == STORE:
                m_free = (now if now > m_free else m_free) + t_store
                when = m_free
                phase = after_store
            elif phase == FILL:
                when = now + t_fill
                phase = HEAD if hoist else USE
            elif phase == HOIST:
                t = done[0]
                when = now if now >= t else t
                phase = FILL
            elif phase == EPI:
                mark = now
                dram_free = (now if now > dram_free else dram_free) + epi
                t = dram_free + write_latency
                when = now if now >= t else t
                phase = FIN
            else:  # FIN
                if trace is not None:
                    trace.append((tb, "epilogue", mark, now))
                finish.append(now)
                break
            if heap and when >= heap[0][0]:
                heappush(heap, (when, seq, tb, phase, ko, ki, mark))
                seq += 1
                break
            now = when
    return max(finish)


def simulate_wave(
    ts: KernelTimingSpec,
    gpu: GpuSpec,
    n_tb_on_sm: int,
    active_sms: int,
    collect_trace: bool = False,
    outer_extent: Optional[int] = None,
    *,
    _memo: Optional[WaveMemo] = None,
) -> Tuple[float, float, Optional[list]]:
    """Simulate one wave on a representative SM.

    Returns ``(wave_latency, dram_fraction, trace)``. ``_memo`` (internal,
    passed down by the measurer) answers repeated untraced waves; traced
    waves always simulate.
    """
    E_o = outer_extent if outer_extent is not None else ts.outer_extent
    wave_tbs = n_tb_on_sm * active_sms
    dram_frac = _dram_fraction(ts, gpu, wave_tbs)

    l2_rate = gpu.l2_bw / active_sms  # bytes/us available to this SM's TBs
    dram_rate = gpu.dram_bw / active_sms
    mem_latency = gpu.l2_latency + dram_frac * (gpu.dram_latency - gpu.l2_latency)

    bank = 1.0 if ts.swizzle else _BANK_CONFLICT_FACTOR
    t_load = ts.frag_bytes_tb * bank / gpu.smem_bw_per_sm
    # One hmma.16816-class instruction covers 2*16^3 FLOPs; its issue slots
    # are not free, which caps achievable utilization below nominal peak.
    mma_ops = ts.flops_chunk_tb / (2 * 16 * 16 * 16)
    t_math = ts.flops_chunk_tb / gpu.tc_flops_per_sm + mma_ops * gpu.mma_issue_cost
    # Without cp.async, global->shared copies stage through registers
    # (LDG + STS): the store half occupies the SM's shared-memory ports and
    # issue slots, contending with compute. cp.async bypasses this path —
    # a real Ampere advantage of asynchronous copies.
    if ts.async_smem_copy:
        t_store_through = 0.0
    else:
        t_store_through = _STORE_THROUGH_FACTOR * ts.smem_chunk_bytes * bank / gpu.smem_bw_per_sm
    if ts.reg_stages >= 2:
        # Register double-buffering overlaps the fragment load (and its
        # latency) with the previous chunk's math.
        inner_service = max(t_load, t_math) + gpu.issue_overhead
    else:
        inner_service = t_load + gpu.smem_latency + t_math + 2 * gpu.issue_overhead
    chunks = tuple(
        (nbytes / l2_rate, nbytes * dram_frac / dram_rate)
        for nbytes in (ts.a_chunk_bytes, ts.b_chunk_bytes)
        if nbytes > 0
    )
    times = (
        mem_latency, 2 * gpu.issue_overhead, t_load + gpu.smem_latency, t_store_through,
        inner_service, gpu.sync_overhead, ts.epilogue_bytes / dram_rate,
        gpu.dram_write_latency,
    )
    counts = (n_tb_on_sm, E_o, ts.inner_extent, ts.smem_stages, ts.reg_stages >= 2)
    if collect_trace:
        trace: list = []
        return _run_wave(*counts, chunks, *times, trace), dram_frac, trace
    if _memo is None:
        return _run_wave(*counts, chunks, *times, None), dram_frac, None
    key = _KEY_LAYOUTS[len(chunks)].pack(*counts, *(t for c in chunks for t in c), *times)
    latency = _memo.get(key)
    if latency is None:
        latency = _run_wave(*counts, chunks, *times, None)
        _memo.put(key, latency)
    return latency, dram_frac, None


def _wave_latency_extrapolated(
    ts: KernelTimingSpec,
    gpu: GpuSpec,
    n_tb: int,
    active: int,
    collect_trace: bool,
    max_outer_iters: Optional[int],
    memo: Optional[WaveMemo] = None,
) -> Tuple[float, float, Optional[list]]:
    """Simulate the wave, extrapolating long reduction loops from the
    steady-state rate measured over two truncated runs.

    Both truncated runs must extend past the pipeline prologue and differ
    in length, so a cap of ``smem_stages + 1`` or less simulates the whole
    loop instead.
    """
    if (
        max_outer_iters is None
        or ts.outer_extent <= max_outer_iters
        or max_outer_iters <= ts.smem_stages + 1
    ):
        return simulate_wave(ts, gpu, n_tb, active, collect_trace, _memo=memo)
    e_long = max_outer_iters
    e_short = max(ts.smem_stages + 1, max_outer_iters // 2)
    t_long, frac, trace = simulate_wave(
        ts, gpu, n_tb, active, collect_trace, outer_extent=e_long, _memo=memo
    )
    t_short, _, _ = simulate_wave(ts, gpu, n_tb, active, False, outer_extent=e_short, _memo=memo)
    rate = (t_long - t_short) / (e_long - e_short)
    return t_long + rate * (ts.outer_extent - e_long), frac, trace


def simulate_kernel(
    ts: KernelTimingSpec,
    gpu: GpuSpec = A100,
    collect_trace: bool = False,
    max_outer_iters: Optional[int] = 64,
    *,
    _memo: Optional[WaveMemo] = None,
) -> SimResult:
    """Simulate a full kernel launch; raises :class:`CompileError` when the
    kernel cannot be built or launched on ``gpu``.

    Carries the ``simulate`` fault-injection site (:mod:`repro.faults`):
    chaos plans can crash the simulator (:class:`SimulationError`) or
    corrupt the reported latency here, outside the wave memo (``_memo``,
    internal, passed down by the measurer), so neither is ever memoized.
    """
    from .. import faults

    faults.inject("simulate")
    ts.validate()
    if ts.async_smem_copy and not gpu.has_async_copy:
        raise CompileError(
            f"{gpu.name} lacks asynchronous copy hardware (cp.async); the "
            "pipelined kernel cannot be compiled for it"
        )
    occ = tb_per_sm(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb)

    tbs_per_wave = occ * gpu.num_sms
    full_waves = ts.grid // tbs_per_wave
    remainder = ts.grid - full_waves * tbs_per_wave

    wave_lat = 0.0
    dram_frac = 1.0
    trace = None
    if full_waves:
        wave_lat, dram_frac, trace = _wave_latency_extrapolated(
            ts, gpu, occ, gpu.num_sms, collect_trace, max_outer_iters, _memo
        )

    tail_lat = 0.0
    if remainder:
        tail_occ = min(occ, -(-remainder // gpu.num_sms))
        tail_active = min(gpu.num_sms, -(-remainder // tail_occ))
        tail_lat, tail_frac, tail_trace = _wave_latency_extrapolated(
            ts, gpu, tail_occ, tail_active, collect_trace and trace is None, max_outer_iters,
            _memo,
        )
        if trace is None:
            trace = tail_trace
        if not full_waves:
            dram_frac = tail_frac

    latency = faults.corrupt("simulate", _LAUNCH_OVERHEAD + full_waves * wave_lat + tail_lat)
    return SimResult(
        latency_us=latency,
        tb_per_sm=occ,
        waves=full_waves + (1 if remainder else 0),
        wave_latency_us=wave_lat,
        tail_latency_us=tail_lat,
        dram_fraction=dram_frac,
        total_flops=ts.total_flops,
        trace=trace,
    )
