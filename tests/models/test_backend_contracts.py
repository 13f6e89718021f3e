"""Contract tests: every backend satisfies the runtime's Backend protocol
and produces sane end-to-end estimates."""

import pytest

from repro.baselines import LibraryKernels, XlaLikeCompiler, tvm_compiler
from repro.core import AlcopCompiler, SplitKCompiler
from repro.models import build_bert, estimate_model_latency
from repro.ops import matmul_spec
from repro.tuning import Measurer, SpaceOptions

MEAS = Measurer()
OPTS = SpaceOptions(max_size=120)


def backends():
    return {
        "alcop": AlcopCompiler(measurer=MEAS, space_options=OPTS),
        "tvm": tvm_compiler(measurer=MEAS, space_options=OPTS),
        "xla": XlaLikeCompiler(),
        "splitk": SplitKCompiler(measurer=MEAS, space_options=OPTS),
    }


class TestProtocol:
    @pytest.mark.parametrize("name", ["alcop", "tvm", "xla", "splitk"])
    def test_required_attributes(self, name):
        b = backends()[name]
        assert hasattr(b, "gemm_latency")
        assert isinstance(b.elementwise_factor, float)
        assert isinstance(b.launch_overhead, float)
        assert isinstance(b.fallback_factor, float)

    @pytest.mark.parametrize("name", ["alcop", "tvm", "xla", "splitk"])
    def test_gemm_latency_positive(self, name):
        b = backends()[name]
        assert b.gemm_latency(matmul_spec("contract_mm", 256, 256, 512)) > 0


class TestSplitKAttributes:
    """SplitKCompiler is usable as an end-to-end backend drop-in."""

    def test_has_backend_defaults(self):
        c = SplitKCompiler(measurer=MEAS, space_options=OPTS)
        # Protocol attributes come from the class or delegated defaults.
        assert getattr(c, "elementwise_factor", None) is not None

    def test_end_to_end_not_slower_than_plain(self):
        g = build_bert()
        plain = estimate_model_latency(
            g, AlcopCompiler(measurer=MEAS, space_options=OPTS), backend_name="alcop"
        )
        sk = estimate_model_latency(
            g, SplitKCompiler(measurer=MEAS, space_options=OPTS), backend_name="splitk"
        )
        assert sk.total_us <= plain.total_us * 1.001


class TestLibraryAsBackend:
    def test_library_lacks_fallback_handling(self):
        """LibraryKernels raises on untileable shapes; the runtime's
        fallback path absorbs that only for Backend implementors — so the
        library is used per-op (Fig. 11), not as an end-to-end backend."""
        lib = LibraryKernels()
        from repro.gpusim.occupancy import CompileError

        with pytest.raises(CompileError):
            lib.gemm_latency(matmul_spec("odd", 48, 48, 48))
