"""Test-only reference: the generator-based discrete-event wave engine.

This is the simulator the specialised event loop in
:mod:`repro.gpusim.engine` replaced, kept unchanged except for test hooks
(tie and event counters on :class:`Simulator`, and the ``max_events`` /
``sim`` arguments of :func:`simulate_wave`) so differential tests can
compare the two on arbitrary inputs. Each threadblock is a Python
generator yielding ``("delay", dt)`` / ``("wait_until", t)`` commands to a
heap scheduler; the three hardware resources are :class:`FifoServer`
objects. Not imported by anything under ``src/``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Generator, List, Optional, Tuple

from repro.gpusim.engine import (
    _BANK_CONFLICT_FACTOR,
    _STORE_THROUGH_FACTOR,
    _TB_STAGGER,
    _dram_fraction,
)


class FifoServer:
    """A pipelined bandwidth resource serving requests in arrival order."""

    __slots__ = ("name", "free_at", "busy_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at = 0.0
        self.busy_time = 0.0

    def request(self, now: float, service: float, latency: float = 0.0) -> float:
        """Post a request at time ``now``; returns its completion time."""
        if service < 0 or latency < 0:
            raise ValueError("service and latency must be non-negative")
        start = max(now, self.free_at)
        self.free_at = start + service
        self.busy_time += service
        return self.free_at + latency


class Simulator:
    """Run a set of generator processes to completion."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Generator]] = []
        self._seq = 0
        #: pops whose time equalled the next entry's (resolved by seq)
        self.ties = 0
        self.events = 0

    def add_process(self, proc: Generator, start_time: float = 0.0) -> None:
        heapq.heappush(self._heap, (start_time, self._seq, proc))
        self._seq += 1

    def run(self, max_events: int = 10_000_000) -> float:
        """Advance all processes to completion; returns the final time."""
        while self._heap:
            self.events += 1
            if self.events > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            t, _, proc = heapq.heappop(self._heap)
            if self._heap and self._heap[0][0] == t:
                self.ties += 1
            if t < self.now - 1e-12:
                raise RuntimeError("event scheduled in the past; scheduler bug")
            self.now = max(self.now, t)
            try:
                cmd = next(proc)
            except StopIteration:
                continue
            kind = cmd[0]
            if kind == "delay":
                when = self.now + float(cmd[1])
            elif kind == "wait_until":
                when = max(self.now, float(cmd[1]))
            else:
                raise ValueError(f"unknown scheduler command {cmd!r}")
            heapq.heappush(self._heap, (when, self._seq, proc))
            self._seq += 1
        return self.now


def simulate_wave(
    ts,
    gpu,
    n_tb_on_sm: int,
    active_sms: int,
    collect_trace: bool = False,
    outer_extent: Optional[int] = None,
    max_events: int = 10_000_000,
    sim: Optional[Simulator] = None,
) -> Tuple[float, float, Optional[list]]:
    """The pre-loop ``repro.gpusim.engine.simulate_wave``; ``sim`` lets a
    test inspect the scheduler (tie and event counts) afterwards."""
    E_o = outer_extent if outer_extent is not None else ts.outer_extent
    E_i = ts.inner_extent
    S = ts.smem_stages
    wave_tbs = n_tb_on_sm * active_sms
    dram_frac = _dram_fraction(ts, gpu, wave_tbs)

    l2_rate = gpu.l2_bw / active_sms
    dram_rate = gpu.dram_bw / active_sms
    mem_latency = gpu.l2_latency + dram_frac * (gpu.dram_latency - gpu.l2_latency)

    bank = 1.0 if ts.swizzle else _BANK_CONFLICT_FACTOR
    t_load = ts.frag_bytes_tb * bank / gpu.smem_bw_per_sm
    mma_ops = ts.flops_chunk_tb / (2 * 16 * 16 * 16)
    t_math = ts.flops_chunk_tb / gpu.tc_flops_per_sm + mma_ops * gpu.mma_issue_cost
    if ts.async_smem_copy:
        t_store_through = 0.0
    else:
        t_store_through = _STORE_THROUGH_FACTOR * ts.smem_chunk_bytes * bank / gpu.smem_bw_per_sm
    if ts.reg_stages >= 2:
        inner_service = max(t_load, t_math) + gpu.issue_overhead
    else:
        inner_service = t_load + gpu.smem_latency + t_math + 2 * gpu.issue_overhead

    sim = sim if sim is not None else Simulator()
    l2_server = FifoServer("l2")
    dram_server = FifoServer("dram")
    math_server = FifoServer("tensorcore")
    trace: Optional[list] = [] if collect_trace else None
    finish: Dict[int, float] = {}

    def issue_chunk(now: float) -> float:
        done = 0.0
        for nbytes in (ts.a_chunk_bytes, ts.b_chunk_bytes):
            if nbytes <= 0:
                continue
            t_l2 = l2_server.request(now, nbytes / l2_rate)
            t_dram = dram_server.request(now, nbytes * dram_frac / dram_rate)
            done = max(done, t_l2, t_dram)
        return done + mem_latency

    def tb_process(tb_idx: int):
        smem_done: Dict[int, float] = {}
        for p in range(S - 1):
            smem_done[p] = issue_chunk(sim.now)
            yield ("delay", 2 * gpu.issue_overhead)
        if ts.reg_stages >= 2 and S >= 2:
            yield ("wait_until", smem_done[0])
            yield ("delay", t_load + gpu.smem_latency)
        for ko in range(E_o):
            smem_done[ko + S - 1] = issue_chunk(sim.now)
            yield ("delay", 2 * gpu.issue_overhead)
            wait_start = sim.now
            yield ("wait_until", smem_done[ko])
            if trace is not None:
                trace.append((tb_idx, f"smem_wait[{ko}]", wait_start, sim.now))
            if t_store_through > 0.0:
                done = math_server.request(sim.now, t_store_through)
                yield ("wait_until", done)
            if ts.reg_stages >= 2 and S == 1:
                yield ("delay", t_load + gpu.smem_latency)
            use_start = sim.now
            for ki in range(E_i):
                done = math_server.request(sim.now, inner_service)
                yield ("wait_until", done)
            if trace is not None:
                trace.append((tb_idx, f"use[{ko}]", use_start, sim.now))
            yield ("delay", gpu.sync_overhead)
        ep_start = sim.now
        t_dram = dram_server.request(sim.now, ts.epilogue_bytes / dram_rate)
        yield ("wait_until", t_dram + gpu.dram_write_latency)
        if trace is not None:
            trace.append((tb_idx, "epilogue", ep_start, sim.now))
        finish[tb_idx] = sim.now

    for i in range(n_tb_on_sm):
        sim.add_process(tb_process(i), start_time=i * _TB_STAGGER)
    sim.run(max_events)
    return max(finish.values()), dram_frac, trace
