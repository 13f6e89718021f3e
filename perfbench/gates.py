"""Correctness gates, run outside the timed windows. Any failure fails the
unit it belongs to, and so the run.

* golden: every (op, chosen config, simulated latency) equals the entry
  pinned in ``golden.json``; the run prints the digest of its outputs in
  input order next to the digest the golden table gives for the seed;
* parity: for every returned kernel, the timing spec extracted from its IR
  equals the static spec derived from its config (``name`` aside);
* execution: a seeded sample of returned kernels runs through the
  interpreter on random fp16 inputs and matches a numpy matmul;
* serve: every warm answer equals the cold answer for the same shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"
#: Largest problem (multiply-adds) the execution gate runs: the interpreter
#: takes about 1.3 s for 2e8 on a 2-core machine.
RUN_CHECK_MACS = 6e8


class Verdict:
    """Failed units of one run, with the reason for each."""

    def __init__(self) -> None:
        self.failures: Dict[str, str] = {}
        self.notes: List[str] = []

    def fail(self, unit: str, why: str) -> None:
        self.failures.setdefault(unit, why)


def entry(cfg, latency_us: float) -> list:
    """JSON form of one (config, latency) output."""
    return [cfg if isinstance(cfg, dict) else cfg.as_dict(), latency_us]


def _normal(value):
    return json.loads(json.dumps(value))


def digest(entries: Sequence[Tuple[str, object]]) -> str:
    return hashlib.sha256(json.dumps(_normal(list(entries)), sort_keys=True).encode()).hexdigest()


def load_golden(workload: str) -> Dict[str, object]:
    with open(GOLDEN_PATH) as f:
        return json.load(f).get(workload, {})


def check_golden(workload: str, entries: Sequence[Tuple[str, object]],
                 verdict: Verdict, unit_of=lambda key: key) -> None:
    """Compare each ``(key, output)`` with the golden table."""
    golden = load_golden(workload)
    expected = [(key, golden.get(key)) for key, _ in entries]
    for (key, got), (_, want) in zip(entries, expected):
        if want is None:
            verdict.fail(unit_of(key), f"{key}: no golden entry")
        elif _normal(got) != want:
            verdict.fail(unit_of(key), f"{key}: output {_normal(got)} != golden {want}")
    verdict.notes.append(f"golden digest {digest(entries)[:16]} "
                         f"(pinned {digest(expected)[:16]}, {len(entries)} outputs)")


def check_parity(spec, cfg, kernel) -> Optional[str]:
    """Static≡IR: the spec extracted from ``kernel`` equals the spec derived
    from ``cfg`` on every field except ``name``."""
    from repro.gpusim.spec import extract_timing_spec
    from repro.perfmodel.static_spec import timing_spec_from_config

    ir = extract_timing_spec(kernel)
    static = timing_spec_from_config(spec, cfg)
    diff = [f.name for f in dataclasses.fields(static)
            if f.name != "name" and getattr(ir, f.name) != getattr(static, f.name)]
    return f"IR spec differs from static spec on {diff}" if diff else None


def check_execution(compiled, rng: np.random.Generator) -> Optional[str]:
    """Run ``compiled`` on random fp16 inputs against a numpy matmul."""
    spec = compiled.spec
    lead = (spec.batch,) if spec.batch > 1 else ()
    a = rng.standard_normal(lead + (spec.m, spec.k)).astype(np.float16)
    b = rng.standard_normal(lead + (spec.n, spec.k)).astype(np.float16)
    out = np.asarray(compiled.run(a, b), dtype=np.float32)
    ref = np.matmul(a.astype(np.float32), np.swapaxes(b, -1, -2).astype(np.float32))
    # fp16 output rounding is 2^-11 relative; allow twice that plus a
    # magnitude-scaled floor for entries near zero.
    tol = 1e-3 * np.abs(ref) + 1e-3 * float(np.abs(ref).max())
    if out.shape != ref.shape:
        return f"output shape {out.shape} != {ref.shape}"
    bad = int(np.count_nonzero(np.abs(out - ref) > tol))
    return f"{bad} of {ref.size} outputs differ from numpy" if bad else None


def macs(spec) -> int:
    return spec.batch * spec.m * spec.n * spec.k


def check_kernels(kernels: Sequence[Tuple[str, object]], verdict: Verdict) -> None:
    """Static≡IR parity for every ``(unit, CompiledKernel)``."""
    for unit, k in kernels:
        why = check_parity(k.spec, k.config, k.kernel)
        if why:
            verdict.fail(unit, f"{k.spec.name}: {why}")


def execute_sample(kernels: Sequence[Tuple[str, object]], verdict: Verdict,
                   rng: np.random.Generator) -> None:
    """Run one seeded pick of the kernels small enough to interpret."""
    small = [(unit, k) for unit, k in kernels if macs(k.spec) <= RUN_CHECK_MACS]
    if not small:
        return
    unit, k = small[rng.integers(len(small))]
    why = check_execution(k, rng)
    if why:
        verdict.fail(unit, f"{k.spec.name}: {why}")
    verdict.notes.append(f"executed {k.spec.name} against numpy: "
                         + ("ok" if why is None else "MISMATCH"))


# ----------------------------------------------------------- per workload
# Each gate checks one pass and returns its ``(unit, CompiledKernel)``
# pairs for the execution sample. ``prefix`` names the pass in unit ids.
def compile_entries(result, fallbacks: frozenset, verdict: Verdict, prefix: str = ""):
    """Per op of a Table III pass, in compile order: the ALCOP and TVM
    (config, latency) and the XLA-like latency. Returns ``(entries,
    kernels)``."""
    compilers = result.outputs["compilers"]
    entries, kernels = [], []
    for spec in result.outputs["specs"]:
        if spec.name in fallbacks:
            entries.append((spec.name, {"roofline": True}))
            continue
        out = {}
        try:
            for label in ("ALCOP", "TVM"):
                k = compilers[label].compile_with_fallback(spec)  # cached by the pass
                out[label.lower()] = entry(k.config, k.latency_us)
                kernels.append((prefix + spec.name, k))
            out["xla"] = compilers["XLA"].gemm_latency(spec)
        except Exception as e:  # recorded as a failed unit
            verdict.fail(prefix + spec.name, f"{spec.name}: {e!r}")
        entries.append((spec.name, out))
    return entries, kernels


def gate_compile(workload: str, result, fallbacks: frozenset, verdict: Verdict,
                 prefix: str = ""):
    """Golden outputs and kernel parity of one Table III pass."""
    entries, kernels = compile_entries(result, fallbacks, verdict, prefix)
    check_golden(workload, entries, verdict, unit_of=lambda key: prefix + key)
    check_kernels(kernels, verdict)
    verdict.notes.append(f"parity checked on {len(kernels)} kernel(s) per pass")
    return entries, kernels


def gate_tune(result, verdict: Verdict, prefix: str = ""):
    entries, kernels = [], []
    for unit, k in zip(result.units, result.outputs["kernels"]):
        if k is not None:
            entries.append((unit.key, entry(k.config, k.latency_us)))
            kernels.append((prefix + unit.key, k))
    check_golden("tune-guided", entries, verdict, unit_of=lambda key: prefix + key)
    check_kernels(kernels, verdict)
    return kernels


def gate_serve(result, verdict: Verdict, prefix: str = ""):
    from repro.core import AlcopCompiler, CompiledKernel
    from repro.gpusim.engine import simulate_kernel
    from repro.gpusim.spec import extract_timing_spec
    from repro.schedule.config import TileConfig

    def answer(resp):
        return resp["key"], resp["config"], resp["latency_us"]

    stream = result.outputs["stream"]
    first: Dict[tuple, Tuple[int, dict]] = {}
    for i, (shape, resp) in enumerate(zip(stream, result.outputs["responses"])):
        if resp is None:
            continue  # the unit already failed with its error
        if shape.dims not in first:
            first[shape.dims] = (i, resp)
        elif answer(resp) != answer(first[shape.dims][1]):
            verdict.fail(f"{prefix}{i}", f"{shape.name}: answer differs from request "
                                         f"{first[shape.dims][0]} for the same shape")
    entries = [(",".join(map(str, dims)), entry(resp["config"], resp["latency_us"]))
               for dims, (_, resp) in first.items()]
    index = {",".join(map(str, dims)): f"{prefix}{i}" for dims, (i, _) in first.items()}
    check_golden("serve-mixed", entries, verdict, unit_of=index.get)
    # Rebuild each served config through the full compiler path: its IR
    # must time identically to the served static-path latency.
    compiler = AlcopCompiler()
    kernels = []
    for i, resp in first.values():
        spec, cfg = stream[i].spec(), TileConfig(**resp["config"])
        kernel = compiler.build(spec, cfg)
        sim = simulate_kernel(extract_timing_spec(kernel))
        if sim.latency_us != resp["latency_us"]:
            verdict.fail(f"{prefix}{i}", f"{spec.name}: IR-path latency {sim.latency_us} "
                                         f"!= served {resp['latency_us']}")
        kernels.append((f"{prefix}{i}",
                        CompiledKernel(spec=spec, config=cfg, kernel=kernel, sim=sim)))
    check_kernels(kernels, verdict)
    verdict.notes.append(f"{len(first)} shape(s) per pass: warm answers equal cold ones; "
                         f"parity checked on every rebuilt kernel")
    return kernels
