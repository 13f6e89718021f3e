"""Regenerate the golden outputs in ``golden.json``.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Computes every output a workload can produce for any seed — each Table III
op, each tuned (suite op, tuner seed) pair, each serve shape — with the
program at hand, and replaces those workloads' entries (all four by default).
Regenerate only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gates  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def compile_golden(workload: str) -> dict:
    fallbacks = workloads.untileable_ops(workload)
    result = workloads.compile_pass(workload, 0, fallbacks, 0)
    verdict = gates.Verdict()
    entries, _ = gates.compile_entries(result, fallbacks, verdict)
    if verdict.failures:
        raise SystemExit(f"{workload}: {verdict.failures}")
    return dict(entries)


def tune_golden() -> dict:
    out = {}
    for op, tseed in inputs.TUNE_PAIRS:
        result = workloads.tune_pass(op, tseed)
        (unit,), (kernel,) = result.units, result.outputs["kernels"]
        if kernel is None:
            raise SystemExit(f"{unit.key}: {unit.error}")
        out[unit.key] = gates.entry(kernel.config, kernel.latency_us)
    return out


def serve_golden() -> dict:
    """The daemon's answer for each shape, computed in-process: an
    exhaustive static-path sweep of the capped ALCOP space."""
    from repro.tuning import Measurer, SpaceOptions, enumerate_space, restrict_space

    measurer = Measurer(via_ir=False)
    out = {}
    for shape in inputs.tileable_zoo_shapes():
        space = restrict_space(
            enumerate_space(shape.spec(), options=SpaceOptions(max_size=inputs.SERVE_SPACE)),
            "alcop")
        cfg, latency = measurer.best(shape.spec(), space)
        out[",".join(map(str, shape.dims))] = gates.entry(cfg, latency)
    return out


def main(argv) -> int:
    chosen = argv or list(run.RUNNERS)
    golden = json.loads(gates.GOLDEN_PATH.read_text()) if gates.GOLDEN_PATH.exists() else {}
    for w in chosen:
        if w.startswith("compile-"):
            golden[w] = compile_golden(w)
        elif w == "tune-guided":
            golden[w] = tune_golden()
        elif w == "serve-mixed":
            golden[w] = serve_golden()
        else:
            raise SystemExit(f"unknown workload {w!r}")
        gates.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{w}: {len(golden[w])} golden entries", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
