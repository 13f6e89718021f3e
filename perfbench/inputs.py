"""Seeded inputs for the four benchmark workloads.

Everything a workload feeds the program is generated here from ``--seed``
and nothing else, so the same seed always yields the same inputs. The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

#: Models compiled by each Table III workload.
COMPILE_MODELS: Dict[str, Tuple[str, ...]] = {
    "compile-transformer": ("BERT", "GPT-2"),
    "compile-convnet": ("ResNet-18",),
}
#: Strided design-space cap of the Table III workloads. The transformer cap
#: is the smoke cap of the paper benchmarks; the convnet cap is lower so
#: that several cold passes fit in one run (a ResNet-18 pass at cap 200
#: takes 12-20 s on a 2-core machine, at cap 64 about 5 s).
COMPILE_CAPS: Dict[str, int] = {"compile-transformer": 200, "compile-convnet": 64}

#: Trials per op tune in ``tune-guided``.
TUNE_TRIALS = 64
#: The (suite op, tuner seed) pairs a run tunes: a transformer GEMM, an
#: attention BMM and a convolution, each under another tuner seed. A 64-trial tune takes 2.7-7.5 s on a 2-core x86
#: machine depending on both the op and the tuner seed (the GBT grows
#: data-dependent trees). A seeded draw of four pairs moved the median tune
#: time by about 30% between seeds, more than the bound a regression check
#: can use, so the set is fixed and the seed sets the order.
TUNE_PAIRS: Tuple[Tuple[str, int], ...] = (
    ("MM_BERT_FC1", 0),
    ("BMM_BERT_QK", 1),
    ("Conv_RN50_3x3", 3),
)

#: Design-space cap the serve daemon sweeps per cold request. One pass
#: requests every tileable shape cold once, so the cap sets the pass length
#: (over one connection with ``--jobs 2`` on a 2-core machine, 51 cold
#: sweeps at cap 48 took 23-24 s, too long for one run).
SERVE_SPACE = 32
#: Zipf exponent of shape popularity in the serve stream.
ZIPF_S = 1.1
#: Registry reads that follow each cold request (6 of every 7 requests are
#: warm, the ~85% registry-read share of the workload).
WARM_PER_COLD = 6


def compile_inputs(workload: str, seed: int) -> List[Tuple[str, List[str]]]:
    """``[(model, op names in compile order)]``: each model's GEMM ops in a
    seeded order. The op set is the model's; only the order varies."""
    from repro.models import MODEL_ZOO

    rng = np.random.default_rng([seed, 1])
    out = []
    for model in COMPILE_MODELS[workload]:
        names = [op.spec.name for op in MODEL_ZOO[model]().gemm_ops]
        out.append((model, [names[i] for i in rng.permutation(len(names))]))
    return out


def tune_inputs(seed: int) -> List[Tuple[str, int]]:
    """``[(suite op name, tuner seed)]``: :data:`TUNE_PAIRS` in a seeded
    order."""
    rng = np.random.default_rng([seed, 2])
    return [TUNE_PAIRS[i] for i in rng.permutation(len(TUNE_PAIRS))]


@dataclasses.dataclass(frozen=True)
class Shape:
    """One GEMM problem as the serve protocol sends it."""

    name: str
    batch: int
    m: int
    n: int
    k: int

    @property
    def dims(self) -> Tuple[int, int, int, int]:
        return (self.batch, self.m, self.n, self.k)

    def params(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def spec(self):
        from repro.tensor.operation import GemmSpec

        return GemmSpec(self.name, batch=self.batch, m=self.m, n=self.n, k=self.k)


def tileable_zoo_shapes() -> List[Shape]:
    """Distinct GEMM shapes of the model zoo that the daemon can tile at
    :data:`SERVE_SPACE`, named after the first op that has them. Untileable
    shapes are left out: the daemon answers them with an error by design."""
    from repro.models import MODEL_ZOO
    from repro.tuning import SpaceOptions, enumerate_space

    seen: Dict[Tuple[int, int, int, int], Shape] = {}
    for model in sorted(MODEL_ZOO):
        for op in MODEL_ZOO[model]().gemm_ops:
            s = op.spec
            seen.setdefault((s.batch, s.m, s.n, s.k), Shape(s.name, s.batch, s.m, s.n, s.k))
    out = []
    for dims in sorted(seen):
        shape = seen[dims]
        try:
            enumerate_space(shape.spec(), options=SpaceOptions(max_size=SERVE_SPACE))
        except ValueError:
            continue
        out.append(shape)
    return out


def serve_inputs(seed: int) -> List[Shape]:
    """The request stream of one serve pass.

    Shape popularity follows a Zipf law over a seeded ranking. Every shape
    is requested cold exactly once, in a Zipf-weighted order (popular
    shapes first), and each cold request is followed by
    :data:`WARM_PER_COLD` requests drawn Zipf-weighted from the shapes
    already requested. The cold set is thus the same for every seed; the
    seed moves the order, the popularity and the mix of warm reads.
    """
    rng = np.random.default_rng([seed, 3])
    shapes = tileable_zoo_shapes()
    weights = np.arange(1, len(shapes) + 1, dtype=float) ** -ZIPF_S
    weights = weights[np.argsort(rng.permutation(len(shapes)))]
    cold_order = rng.choice(len(shapes), size=len(shapes), replace=False,
                            p=weights / weights.sum())
    stream: List[Shape] = []
    for n_seen, idx in enumerate(cold_order, start=1):
        stream.append(shapes[idx])
        seen = cold_order[:n_seen]
        p = weights[seen] / weights[seen].sum()
        stream.extend(shapes[i] for i in rng.choice(seen, size=WARM_PER_COLD, p=p))
    return stream
