"""Span wrappers around each layer's public entry points, and the
per-layer metrics computed from the spans.

The traced run installs a wrapper at every module or class attribute
through which callers reach a layer entry point, records one span per
call (name, start, end, parent, run id) in memory, and restores the
original attributes afterwards. Nothing under ``src/`` changes. Nested
calls into a layer that is already open on the same thread are folded
into the outer span, so a layer's busy time never counts twice.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import pkgutil
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer name -> entry points as (module, attribute path). A dotted path is
#: a method looked up on a class.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "gpusim.simulate": (("repro.gpusim.engine", "simulate_kernel"),),
    "gpusim.wave": (("repro.gpusim.engine", "simulate_wave"),),
    "gpusim.extract": (("repro.gpusim.spec", "extract_timing_spec"),),
    "perfmodel.static_spec": (("repro.perfmodel.static_spec", "timing_spec_from_config"),),
    "perfmodel.batch": (
        ("repro.perfmodel.batch", "predict_latency_batch"),
        ("repro.tuning.tuners", "analytical_rank"),
    ),
    "tuning.space": (
        ("repro.tuning.space", "enumerate_space"),
        ("repro.tuning.space", "restrict_space"),
    ),
    "tuning.gbt.fit": (("repro.tuning.gbt", "GradientBoostedTrees.fit"),),
    "tuning.gbt.predict": (("repro.tuning.gbt", "GradientBoostedTrees.predict"),),
    "tuning.sa.propose": (("repro.tuning.sa", "SimulatedAnnealingSampler.propose"),),
    "tuning.features": (
        ("repro.tuning.features", "featurize"),
        ("repro.tuning.features", "featurize_batch"),
    ),
    "tuning.measure": (
        ("repro.tuning.measure", "Measurer.measure"),
        ("repro.tuning.measure", "Measurer.measure_many"),
        ("repro.tuning.measure", "Measurer.sweep"),
        ("repro.tuning.measure", "Measurer.best"),
    ),
    "schedule": (("repro.schedule.auto", "auto_schedule"),),
    "codegen.lower": (("repro.codegen.lower", "lower"),),
    "transform": (
        ("repro.transform.pipeline_pass", "apply_pipelining"),
        ("repro.transform.pipeline_pass", "transform_with_plan"),
    ),
    "ir.syncheck": (("repro.ir.syncheck", "check_kernel"),),
    "codegen.cuda": (("repro.codegen.cuda", "emit_cuda"),),
    "core.compiler.build": (("repro.core.compiler", "AlcopCompiler.build"),),
    "models.roofline": (("repro.models.runtime", "roofline_fallback_latency"),),
    "serve.client": (("repro.serve.client", "ServeClient.request"),),
}

_MARK = "__perfbench_layer__"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    tid: int


class Recorder:
    """In-memory span store with a per-thread stack for parenting."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.wave_keys: List[tuple] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        if any(self.spans[i].name == name for i in stack):
            yield  # re-entry into an open layer: fold into the outer span
            return
        sp = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                  self.run_id, threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def to_chrome_trace(self) -> dict:
        t0 = min((s.start for s in self.spans), default=0.0)
        tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in self.spans))}
        return {
            "traceEvents": [
                {
                    "name": s.name, "ph": "X", "pid": 1, "tid": tids[s.tid],
                    "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                    "args": {"span": i, "parent": s.parent, "run": s.run_id},
                }
                for i, s in enumerate(self.spans)
            ],
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome_trace(), f)


def _wave_key(args: tuple, kwargs: dict) -> tuple:
    """Every input ``simulate_wave`` reads, as one hashable key."""
    from repro.gpusim import engine

    def arg(i, name, default=None):
        return args[i] if len(args) > i else kwargs.get(name, default)

    ts, gpu = arg(0, "ts"), arg(1, "gpu")
    n_tb, active = arg(2, "n_tb_on_sm"), arg(3, "active_sms")
    outer = arg(5, "outer_extent")
    return (
        gpu, n_tb, active, bool(arg(4, "collect_trace", False)),
        outer if outer is not None else ts.outer_extent,
        engine._dram_fraction(ts, gpu, n_tb * active),
        ts.inner_extent, ts.smem_stages, ts.reg_stages, ts.frag_bytes_tb,
        ts.flops_chunk_tb, ts.smem_chunk_bytes, ts.a_chunk_bytes, ts.b_chunk_bytes,
        ts.epilogue_bytes, ts.swizzle, ts.async_smem_copy,
    )


def _wrap(layer: str, fn: Callable, rec: Recorder) -> Callable:
    if layer == "gpusim.wave":
        def wrapper(*args, **kwargs):
            rec.wave_keys.append(_wave_key(args, kwargs))
            with rec.span(layer):
                return fn(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            with rec.span(layer):
                return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", layer)
    setattr(wrapper, _MARK, layer)
    return wrapper


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[None]:
    """Install span wrappers for every layer of :data:`LAYERS`, restoring
    every patched attribute on exit."""
    # Import the whole package first: a module imported while the wrappers
    # are in place would bind a wrapper by name and keep it after restore.
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    patched: List[Tuple[object, str, object]] = []
    try:
        for layer, entry_points in LAYERS.items():
            for module, path in entry_points:
                owner = sys.modules[module]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = _wrap(layer, original, rec)
                if cls_path:
                    patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                # Module functions: patch every module that bound the same
                # object by name (``from .engine import simulate_kernel``).
                for mod in _repro_modules():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, name, original))
                            setattr(mod, name, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Attributes of loaded ``repro`` modules and their classes that still
    hold a span wrapper (must be empty outside :func:`installed`)."""
    found = []
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{name}.{attr}"
                             for attr, v in vars(value).items() if hasattr(v, _MARK))
    return found


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def layer_stats(rec: Recorder) -> Dict[str, LayerStats]:
    """Per span name: call count, busy time (summed span time) and self
    time (span time minus the time its direct children cover; children
    run on the parent's thread, so they never overlap each other)."""
    child_s = [0.0] * len(rec.spans)
    for s in rec.spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    out: Dict[str, LayerStats] = {}
    for i, s in enumerate(rec.spans):
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.busy_s += s.end - s.start
        st.self_s += (s.end - s.start) - child_s[i]
    return out
