"""Machine-speed probes.

The benchmark was built on a shared 2-core VM whose CPU speed drifts by
up to 1.5x in phases lasting seconds to minutes, and flickers faster than
that; process CPU time drifts with it, so it is no escape. A probe times
a fixed loop with the garbage collector off (with it on, a probe times
collections of whatever the workload left on the heap) and divides by the
loop's time on the reference machine. The ``interpreter`` loop is small
objects, method calls, float arithmetic and a sort, the kind of work the
simulator does; the ``numpy`` loop is the small-array argsort / cumsum /
where calls the tuner's gradient-boosted trees make.

One probe is noisy (0.6 to 1.3 within a second); the workloads take them
between units of work, leave the probes' time out of every measured
interval and divide a unit by the probes around it. Over 20 back-to-back
cold transformer passes, the pass-to-pass spread (coefficient of
variation) of the slowest op's time was 20% raw, 16% divided by the mean
of the pass's interpreter probes and 9% divided by the two probes around
the op. Over 29 model-assisted tunes, the spread of one op's tune time
was 5.6-8.3% raw, 6.7-11% divided by interpreter probes and 4.1-7.0%
divided by numpy probes taken between trial batches.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Timed repetitions per probe; a probe reports their median.
PROBE_REPS = 3


class _Event:
    __slots__ = ("weight", "order")

    def __init__(self, t: float, weight: float) -> None:
        self.weight = weight
        self.order = t + weight * 0.25

    def step(self, now: float) -> float:
        return max(self.order, now) + self.weight * 0.5


def _interpreter_loop() -> int:
    events = []
    now = 0.0
    for i in range(5000):
        ev = _Event(float(i % 97), float(i % 13))
        now = ev.step(now) % 5000.0
        if i % 4 == 0:
            events.append((now, i))
    events.sort()
    return len(events)


_X = np.random.default_rng(0).random((300, 4))
_Y = _X[:, 0] * 0.5 + _X[:, 1]


def _numpy_loop() -> int:
    best = 0
    for feat in range(4):
        for _ in range(25):
            order = np.argsort(_X[:, feat], kind="stable")
            xs = _X[order, feat]
            cy = np.cumsum(_Y[order])
            valid = np.nonzero(xs[:-1] < xs[1:])[0]
            gain = np.where(valid > 1, cy[valid] ** 2 / (valid + 1), -np.inf)
            best = max(best, int(np.argmax(gain)))
    return best


#: name -> (loop, seconds one run of it takes on the reference machine, a
#: 2-core x86 VM in its fast phase)
LOOPS = {
    "interpreter": (_interpreter_loop, 0.006),
    "numpy": (_numpy_loop, 0.004),
}


def probe(kind: str = "interpreter") -> float:
    """The machine's current slowdown against the reference machine, as
    the :data:`LOOPS` loop ``kind`` sees it."""
    loop, reference_s = LOOPS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / reference_s


class Probes(list):
    """Slowdowns in the order they were probed; calling the list probes
    once more with the ``kind`` loop."""

    def __init__(self, kind: str = "interpreter") -> None:
        super().__init__()
        self.kind = kind

    def __call__(self) -> None:
        self.append(probe(self.kind))
