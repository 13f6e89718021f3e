"""Static≡IR parity walker: the timing spec the measurer derives from a
config must equal the one extracted from the kernel the compiler builds.

Walks strided full tuning spaces of the fig10 12-operator suite on A100,
V100 and H100 (the walking pattern of ``tests/gpusim/wave_digest.py``).
For every config it derives the static spec
(:func:`~repro.perfmodel.timing_spec_from_config`) and builds the kernel
through schedule → lower → transform (with the sync check) → extract,
without the compiler's own parity check, so a mismatch shows up here as
data rather than as a build error. A config fails on both paths or on
neither, with the same error class.

Run every config of every space (about 170k builds)::

    PYTHONPATH=src python -m tests.tuning.static_ir_parity 1
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Iterator, List, Tuple, Union

#: Every ``STRIDE``-th config of each full space (~80 per operator and GPU).
STRIDE = 61

Outcome = Union[object, str]  # a KernelTimingSpec, or the error class name


def static_outcome(spec, cfg) -> Outcome:
    from repro.perfmodel import timing_spec_from_config

    try:
        return timing_spec_from_config(spec, cfg)
    except Exception as e:  # compared by class with the IR path's outcome
        return type(e).__name__


def ir_outcome(spec, cfg) -> Outcome:
    from repro.codegen import lower
    from repro.gpusim.spec import extract_timing_spec
    from repro.schedule.auto import auto_schedule
    from repro.tensor.operation import contraction, placeholder
    from repro.transform import apply_pipelining

    a_shape = (spec.batch, spec.m, spec.k) if spec.batch > 1 else (spec.m, spec.k)
    b_shape = (spec.batch, spec.n, spec.k) if spec.batch > 1 else (spec.n, spec.k)
    graph = contraction(placeholder("A", a_shape, dtype=spec.dtype),
                        placeholder("B", b_shape, dtype=spec.dtype), spec)
    try:
        kernel = apply_pipelining(lower(auto_schedule(graph, cfg)), verify_sync=True)
        return extract_timing_spec(kernel)
    except Exception as e:
        return type(e).__name__


def differing_fields(a: Outcome, b: Outcome) -> List[str]:
    """Spec fields (``name`` aside) on which two outcomes differ; an error
    class differing from the other side's spec or error reports ``error``."""
    if isinstance(a, str) or isinstance(b, str):
        return [] if a == b else ["error"]
    return [f.name for f in dataclasses.fields(a)
            if f.name != "name" and getattr(a, f.name) != getattr(b, f.name)]


def parity_cases(gpu, stride: int = STRIDE) -> Iterator[Tuple[str, Outcome, Outcome]]:
    """Yield ``(label, static, ir)`` for every ``stride``-th config of each
    suite operator's full space on ``gpu``."""
    from repro.tuning import enumerate_space
    from repro.workloads.suite import suite_specs

    for spec in suite_specs():
        for cfg in enumerate_space(spec, gpu)[::stride]:
            yield (f"{gpu.name}|{spec.name}|{cfg.key()}",
                   static_outcome(spec, cfg), ir_outcome(spec, cfg))


def main(argv: List[str]) -> int:
    from repro.gpusim import A100, H100, V100, CompileError, tb_per_sm

    stride = int(argv[0]) if argv else STRIDE
    total = failed = unlaunchable = 0
    mismatches: List[str] = []
    for gpu in (A100, V100, H100):
        for label, static, ir in parity_cases(gpu, stride):
            total += 1
            diff = differing_fields(static, ir)
            if diff:
                mismatches.append(f"{label}: {diff} (static {static!r}, IR {ir!r})")
            elif isinstance(static, str):
                failed += 1
            else:
                try:
                    tb_per_sm(gpu, static.smem_bytes_per_tb, static.regs_per_thread,
                              static.threads_per_tb)
                except CompileError:
                    unlaunchable += 1
    print(f"stride {stride}: {total} configs, {len(mismatches)} mismatched; "
          f"{failed} fail to build on both paths with the same error class, "
          f"{unlaunchable} build but cannot launch")
    for line in mismatches[:20]:
        print(f"  {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
