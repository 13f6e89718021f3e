"""Lightweight per-stage wall-clock profiling for the compile hot path.

The measurement harness compiles thousands of schedules per sweep; knowing
*which* stage (automatic scheduling, lowering, the pipelining transform,
sync verification, timing-spec extraction, simulation) dominates is what
turns "the sweep is slow" into an actionable optimization. Stages are
annotated at their definition sites with :func:`stage`; any code that wants
a breakdown activates a collector around the region of interest with
:func:`collect`::

    times = StageTimes()
    with collect(times):
        measurer.sweep(spec, space)
    print(times.summary())

When no collector is active, :func:`stage` costs one dict lookup — the hot
path pays nothing measurable for being instrumented. Collectors nest:
every active collector sees every stage, so a per-trial collector and a
session-wide collector can coexist.

Thread model (the serve daemon shares one measurer across request
threads): the collector stack is **thread-local** — a request thread that
activates a collector sees only the stages its own thread executes, never
a concurrent request's — while :class:`StageTimes` accumulation itself is
lock-protected, so several threads may safely collect into one shared
instance (the measurer's session-wide breakdown).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, List, Mapping, Tuple

from ..obs import trace as _trace

__all__ = ["StageTimes", "collect", "credit", "stage", "STAGE_ORDER"]

#: Canonical display order of the compile/measure pipeline stages.
STAGE_ORDER: Tuple[str, ...] = (
    "schedule",
    "lower",
    "transform",
    "syncheck",
    "spec-extract",
    "simulate",
)


class StageTimes(Dict[str, float]):
    """Accumulated seconds per named stage (a plain dict with helpers).

    Accumulation (:meth:`add` / :meth:`merge`) is thread-safe: one
    instance can be the target of collectors on many threads at once.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self[name] = self.get(name, 0.0) + seconds

    def merge(self, other: Mapping[str, float]) -> None:
        """Fold another breakdown (e.g. from a worker process) into this one."""
        # Snapshot first: merging a StageTimes into itself must not deadlock.
        items = list(other.items())
        with self._lock:
            for name, seconds in items:
                self[name] = self.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.values())

    def ordered(self) -> List[Tuple[str, float]]:
        """Items in canonical stage order, unknown stages last (by name)."""
        known = [(n, self[n]) for n in STAGE_ORDER if n in self]
        extra = sorted((n, t) for n, t in self.items() if n not in STAGE_ORDER)
        return known + extra

    def summary(self) -> str:
        """Multi-line human-readable breakdown with percentages."""
        total = self.total
        if total <= 0.0:
            return "no stages recorded"
        lines = []
        for name, t in self.ordered():
            lines.append(f"{name:12s} {t:9.4f}s  {100.0 * t / total:5.1f}%")
        lines.append(f"{'total':12s} {total:9.4f}s")
        return "\n".join(lines)


#: Active collectors, innermost last — one stack per thread, so concurrent
#: request threads (the serve daemon) never observe each other's stages.
#: Worker processes ship finished breakdowns back over the result pipe
#: instead of sharing.
_local = threading.local()


def _active() -> List[StageTimes]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextlib.contextmanager
def collect(into: StageTimes) -> Iterator[StageTimes]:
    """Route every :func:`stage` duration inside the block (on this
    thread) into ``into``."""
    stack = _active()
    stack.append(into)
    try:
        yield into
    finally:
        # Remove by identity: StageTimes is a dict subclass, so equal
        # *contents* would make list.remove() pop the wrong collector.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is into:
                del stack[i]
                break


def credit(times: Mapping[str, float]) -> None:
    """Fold stage durations measured elsewhere (a worker process) into
    every collector active on this thread, as if the stages had run here."""
    for collector in _active():
        collector.merge(times)


class stage:
    """Time the enclosed block under ``name`` (no-op when nothing collects).

    When a tracer is active with an open span on this thread, the stage is
    also recorded as a child span (the observability bridge: per-stage
    compile timings appear in exported traces for free).

    A slotted context-manager class rather than a generator: the
    measurement hot path enters several stages per compiled config, and
    the generator protocol's overhead is measurable at sweep scale.
    """

    __slots__ = ("name", "_stack", "_traced", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        self._traced = _trace.stage_active()
        # The record/skip decision is taken at entry (matching the original
        # generator implementation): a collector activated mid-block does
        # not retroactively see this stage.
        self._stack = stack if (stack or self._traced) else None
        self._t0 = time.perf_counter() if self._stack is not None else 0.0

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._stack
        if stack is None:
            return
        t0 = self._t0
        t1 = time.perf_counter()
        dt = t1 - t0
        for collector in stack:
            collector.add(self.name, dt)
        if self._traced:
            _trace.record_stage(self.name, t0, t1)
