"""Every kernel the system returns is built through the IR, and its
extracted timing spec must equal the static spec the search measured.
A static derivation that drifts from the compiler (simulated here by
perturbing one field) makes ``compile``, a cold serve request and
``repro tune`` raise :class:`CompileError` naming that field."""

import dataclasses

import pytest

from repro.cli import main
from repro.core.compiler import AlcopCompiler
from repro.core.errors import CompileError
from repro.perfmodel import timing_spec_from_config
from repro.serve.server import ReproServer
from repro.tensor import GemmSpec
from repro.tuning import SpaceOptions

SPEC = GemmSpec("verify", 1, 128, 128, 256)


@pytest.fixture
def drifted_epilogue(monkeypatch):
    """Static specs (as the measurer and the build check see them) report
    two more epilogue bytes than the compiler emits."""

    def drifted(spec, cfg):
        ts = timing_spec_from_config(spec, cfg)
        return dataclasses.replace(ts, epilogue_bytes=ts.epilogue_bytes + 2)

    monkeypatch.setattr("repro.core.compiler.timing_spec_from_config", drifted)
    monkeypatch.setattr("repro.tuning.measure.timing_spec_from_config", drifted)


def test_compile_refuses_a_drifted_kernel(drifted_epilogue):
    compiler = AlcopCompiler(space_options=SpaceOptions(max_size=8))
    with pytest.raises(CompileError, match="epilogue_bytes") as err:
        compiler.compile(SPEC)
    assert set(err.value.diagnostic) == {"epilogue_bytes"}


def test_cold_serve_compile_refuses_a_drifted_kernel(drifted_epilogue):
    server = ReproServer(port=0, default_space=8)
    try:
        response = server.handle(
            {"op": "compile", "id": "c", "params": {"m": 128, "n": 128, "k": 256}}
        )
    finally:
        server.stop()
    assert not response["ok"]
    assert response["error"]["type"] == "CompileError"
    assert "epilogue_bytes" in response["error"]["message"]
    assert len(server.registry) == 0, "a drifted kernel must never be published"


def test_tune_refuses_a_drifted_kernel(drifted_epilogue):
    argv = ["tune", "--m", "128", "--n", "128", "--k", "256", "--space", "8",
            "--method", "grid", "--trials", "4"]
    with pytest.raises(CompileError, match="epilogue_bytes"):
        main(argv)



def test_compile_extracts_the_ir_spec_once(monkeypatch):
    """The spec the build check extracts is the one simulated: one IR walk
    per returned kernel, and the same latency as simulating it afresh."""
    from repro.core import compiler as compiler_mod

    extract = compiler_mod.extract_timing_spec
    calls = []

    def counting(kernel):
        calls.append(kernel)
        return extract(kernel)

    monkeypatch.setattr(compiler_mod, "extract_timing_spec", counting)
    compiler = AlcopCompiler(space_options=SpaceOptions(max_size=8))
    compiled = compiler.compile(SPEC)
    assert len(calls) == 1
    fresh = compiler_mod.simulate_kernel(extract(compiled.kernel), compiler.gpu)
    assert compiled.sim.latency_us == fresh.latency_us
