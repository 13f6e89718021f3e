"""Integration tests: whole-compiler golden paths at reduced scale.

These run the same pipelines as the benchmarks on small spaces so the
repository's headline claims stay true under `pytest tests/`.
"""

import numpy as np
import pytest

from repro.baselines import LibraryKernels, ablation_compilers
from repro.core import AlcopCompiler
from repro.ops import bmm_spec, matmul_spec, reference_bmm
from repro.perfmodel import predict_latency
from repro.tuning import (
    Measurer,
    ModelAssistedXGBTuner,
    SpaceOptions,
    enumerate_space,
    restrict_space,
)
from repro.tuning.record import best_in_top_k
from repro.tuning.tuners import analytical_rank

OPTS = SpaceOptions(max_size=200)
MEAS = Measurer()


class TestHeadlineClaims:
    def test_pipelining_speedup_on_latency_bound_gemm(self):
        """ALCOP must clearly beat TVM on the paper's favourite shape."""
        spec = matmul_spec("int_rn50fc", 1024, 64, 2048)
        space = enumerate_space(spec, options=OPTS)
        _, tvm = MEAS.best(spec, restrict_space(space, "tvm"))
        _, alcop = MEAS.best(spec, restrict_space(space, "alcop"))
        assert tvm / alcop > 1.3

    def test_ablation_ordering(self):
        spec = matmul_spec("int_fc2", 512, 768, 3072)
        space = enumerate_space(spec, options=OPTS)
        lat = {v: MEAS.best(spec, restrict_space(space, v))[1]
               for v in ("tvm", "tvm-db", "alcop-no-ml", "alcop")}
        assert lat["alcop"] <= lat["alcop-no-ml"] <= lat["tvm-db"] <= lat["tvm"]

    def test_model_ranking_beats_bottleneck(self):
        from repro.perfmodel import bottleneck_latency

        spec = matmul_spec("int_fc1", 512, 3072, 768)
        space = enumerate_space(spec, options=OPTS)
        lats = MEAS.sweep(spec, space)
        best = min(x for x in lats if x != float("inf"))
        scores = {}
        for label, model in (("anal", predict_latency), ("bneck", bottleneck_latency)):
            order = analytical_rank(spec, space, model=model)
            scores[label] = best_in_top_k([lats[i] for i in order], 25, best)
        assert scores["anal"] >= scores["bneck"]

    def test_tuner_reaches_near_best_in_50(self):
        spec = matmul_spec("int_fc1b", 512, 3072, 768)
        space = enumerate_space(spec, options=OPTS)
        _, best = MEAS.best(spec, space)
        h = ModelAssistedXGBTuner(spec, space, measurer=MEAS, seed=0).tune(50)
        assert h.normalized_curve([50], best)[0] > 0.9

    def test_library_on_par(self):
        spec = matmul_spec("int_2048", 2048, 2048, 2048)
        space = enumerate_space(spec, options=OPTS)
        _, alcop = MEAS.best(spec, space)
        lib = LibraryKernels().gemm_latency(spec)
        assert 0.7 < lib / alcop < 1.3


class TestFunctionalGoldenPath:
    def test_compiled_bmm_matches_reference(self):
        spec = bmm_spec("int_bmm", 3, 32, 16, 64)
        comp = AlcopCompiler(measurer=Measurer(), space_options=SpaceOptions(max_size=80))
        ck = comp.compile(spec)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 32, 64)).astype(np.float16)
        b = rng.standard_normal((3, 16, 64)).astype(np.float16)
        out = ck.run(a, b)
        np.testing.assert_allclose(
            out.astype(np.float32),
            reference_bmm(a, b).astype(np.float32),
            rtol=2e-2,
            atol=0.5,
        )

    def test_all_variants_functionally_identical(self):
        """Every compiler variant computes the same numbers — pipelining is
        a pure performance transformation."""
        spec = matmul_spec("int_small", 32, 32, 64)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((32, 64)).astype(np.float16)
        b = rng.standard_normal((32, 64)).astype(np.float16)
        outs = []
        for name, comp in ablation_compilers(
            measurer=Measurer(), space_options=SpaceOptions(max_size=60)
        ).items():
            outs.append(comp.compile(spec).run(a, b))
        for other in outs[1:]:
            np.testing.assert_allclose(
                outs[0].astype(np.float32), other.astype(np.float32), rtol=2e-2, atol=0.5
            )
