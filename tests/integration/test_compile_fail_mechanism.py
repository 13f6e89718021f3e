"""The Fig. 12 'compile fail' mechanism, isolated.

The paper marks model-ranked schedule lists as 'compile fail' when the
first k proposals all fail to build. Only the bottleneck model can do
this: it is blind to occupancy and launchability, so on a space where the
resource-heaviest schedules look fastest to it, its top picks are
unbuildable. The occupancy-aware analytical model rejects those configs up
front and ranks them last.
"""

import math

from repro.gpusim.occupancy import CompileError, check_launchable
from repro.perfmodel import bottleneck_latency, predict_latency
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import Measurer, best_in_top_k
from repro.tuning.tuners import analytical_rank

SPEC = GemmSpec("cf", 1, 1024, 1024, 4096)

#: A crafted space: a handful of monstrous (unlaunchable) tiles that a
#: full-utilization model loves, plus modest real ones.
MONSTERS = [
    TileConfig(256, 256, 64, warp_m=64, warp_n=64, chunk_k=16, smem_stages=s, reg_stages=2)
    for s in (4, 5, 6)
]
REASONABLE = [
    TileConfig(128, 128, 32, warp_m=64, warp_n=64, chunk_k=16, smem_stages=3, reg_stages=2),
    TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16, smem_stages=3, reg_stages=1),
    TileConfig(64, 128, 32, warp_m=32, warp_n=64, chunk_k=16, smem_stages=2, reg_stages=1),
]
SPACE = MONSTERS + REASONABLE


def test_monsters_do_not_launch():
    for cfg in MONSTERS:
        r = cfg.resource_usage()
        try:
            check_launchable(
                __import__("repro.gpusim", fromlist=["A100"]).A100,
                r.smem_bytes,
                r.regs_per_thread,
                r.threads,
            )
            raised = False
        except CompileError:
            raised = True
        assert raised, cfg


def test_bottleneck_top_picks_compile_fail():
    meas = Measurer()
    lats = meas.sweep(SPEC, SPACE)
    best = min(x for x in lats if math.isfinite(x))
    order = analytical_rank(SPEC, SPACE, model=bottleneck_latency)
    ranked = [lats[i] for i in order]
    # The bottleneck model's first picks are the unbuildable monsters.
    assert best_in_top_k(ranked, len(MONSTERS), best) == 0.0  # 'compile fail'


def test_analytical_ranks_unlaunchable_last():
    meas = Measurer()
    lats = meas.sweep(SPEC, SPACE)
    best = min(x for x in lats if math.isfinite(x))
    order = analytical_rank(SPEC, SPACE, model=predict_latency)
    ranked = [lats[i] for i in order]
    assert best_in_top_k(ranked, 1, best) > 0.0  # first pick builds
    assert all(math.isinf(lats[i]) for i in order[-len(MONSTERS):])
