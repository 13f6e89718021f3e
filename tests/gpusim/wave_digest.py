"""Golden-digest harness for the wave simulator.

Walks strided full tuning spaces of the fig10 12-operator suite on A100,
V100 and H100. For every config it simulates a full-wave shape and a
tail-wave shape, each with ``collect_trace`` off and on, plus the whole
kernel through :func:`simulate_kernel`. Every latency, DRAM fraction and
trace event is folded into one SHA-256 digest by its exact ``repr``, so a
single changed bit anywhere changes the digest.

The committed digest (:data:`GOLDEN_WAVE_DIGEST`) was produced by the
generator-based engine (kept as ``tests/gpusim/reference_engine.py``)
before the specialised event loop replaced it. Regenerate only for an
intended timing-model change::

    PYTHONPATH=src python -m tests.gpusim.wave_digest
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator, Optional, Tuple

#: Digest of the generator-based engine's outputs over :func:`wave_cases`.
GOLDEN_WAVE_DIGEST = "7166e1ced9afad21"
#: Every ``STRIDE``-th config of each full space (~25 per operator).
STRIDE = 199
#: Reduction-loop truncation used for long loops, as ``simulate_kernel``
#: does by default (full waves at 64 outer iterations, tail waves at 32).
TRUNCATE = 64


def wave_cases(stride: int = STRIDE) -> Iterator[Tuple[str, object, object]]:
    """Yield ``(label, ts, gpu)`` per sampled config; ``ts`` is the error
    class name instead when the config has no timing spec."""
    from repro.gpusim import A100, H100, V100
    from repro.perfmodel import timing_spec_from_config
    from repro.tuning import enumerate_space
    from repro.workloads.suite import suite_specs

    for gpu in (A100, V100, H100):
        for spec in suite_specs():
            for cfg in enumerate_space(spec, gpu)[::stride]:
                label = f"{gpu.name}|{spec.name}|{cfg.key()}"
                try:
                    ts = timing_spec_from_config(spec, cfg)
                    ts.validate()
                except ValueError as e:
                    yield label, type(e).__name__, gpu
                    continue
                yield label, ts, gpu


def wave_shapes(ts, gpu) -> Iterator[Tuple[int, int, Optional[int]]]:
    """The full-wave and tail-wave ``(n_tb, active_sms, outer_extent)``
    shapes of one config (raises ``CompileError`` if it cannot launch)."""
    from repro.gpusim import tb_per_sm

    occ = tb_per_sm(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb)
    long_loop = ts.outer_extent > TRUNCATE
    yield occ, gpu.num_sms, TRUNCATE if long_loop else None
    per_wave = occ * gpu.num_sms
    rem = ts.grid % per_wave or max(1, per_wave // 3)
    tail_occ = min(occ, -(-rem // gpu.num_sms))
    tail_active = min(gpu.num_sms, -(-rem // tail_occ))
    yield tail_occ, tail_active, max(ts.smem_stages + 1, TRUNCATE // 2) if long_loop else None


def compute_digest(simulate_wave: Callable, simulate_kernel: Callable,
                   stride: int = STRIDE) -> str:
    """Digest of every wave and kernel result over :func:`wave_cases`."""
    from repro.gpusim import CompileError

    h = hashlib.sha256()
    for label, ts, gpu in wave_cases(stride):
        h.update(label.encode())
        if isinstance(ts, str):
            h.update(ts.encode())
            continue
        try:
            shapes = list(wave_shapes(ts, gpu))
        except CompileError:
            h.update(b"unlaunchable")
            continue
        for n_tb, active, outer in shapes:
            for traced in (False, True):
                lat, frac, trace = simulate_wave(ts, gpu, n_tb, active, traced, outer_extent=outer)
                h.update(repr((n_tb, active, outer, traced, lat, frac, trace)).encode())
        try:
            h.update(repr(simulate_kernel(ts, gpu).latency_us).encode())
        except CompileError as e:
            h.update(type(e).__name__.encode())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    from repro.gpusim import engine

    print(compute_digest(engine.simulate_wave, engine.simulate_kernel))
