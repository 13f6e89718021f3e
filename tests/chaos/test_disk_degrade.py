"""Disk-failure degradation: ENOSPC/EIO on the write paths of the
measurement cache, the session journal and the artifact registry must
degrade each store to memory-only — one warning, a ``disk_errors``
counter — never crash the tuner or the daemon."""

import warnings

import pytest

from repro import faults
from repro.gpusim.config import A100
from repro.schedule.config import TileConfig
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import ReproServer
from repro.tensor.operation import GemmSpec
from repro.tuning.cache import MeasurementCache
from repro.tuning.measure import Measurer
from repro.tuning.session import TuneSession
from repro.tuning.space import SpaceOptions, enumerate_space

SPEC = GemmSpec("disk", 1, 128, 128, 256)

CFG = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16,
                 smem_stages=3, reg_stages=2)


def disk_plan(match):
    return faults.FaultPlan([faults.FaultRule("disk", "crash", match=match)])


class TestCacheDegrade:
    def test_put_degrades_to_memory_only_with_one_warning(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        with faults.injected(disk_plan("cache:")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cache.put("k1", 12.5)
                cache.put("k2", 7.5)
        degrade_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(degrade_warnings) == 1, "must warn exactly once"
        assert "memory-only" in str(degrade_warnings[0].message)
        assert cache.degraded and cache.disk_errors == 1
        # The in-memory entries still serve the rest of this process.
        assert cache.get("k1") == 12.5 and cache.get("k2") == 7.5
        # Nothing persisted: a fresh cache over the same directory is cold.
        assert MeasurementCache(tmp_path).get("k1") is None

    def test_sweep_survives_disk_failure_with_identical_bits(self, tmp_path):
        space = enumerate_space(SPEC, A100, SpaceOptions(max_size=8))
        clean = Measurer(A100).sweep(SPEC, space)
        m = Measurer(A100, cache=MeasurementCache(tmp_path / "c"))
        with faults.injected(disk_plan("cache:")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                faulted = m.sweep(SPEC, space)
        assert faulted == clean, "disk failure must not change measured bits"
        assert m.telemetry.disk_errors >= 1


class TestSessionDegrade:
    def test_journal_degrades_but_trials_stay_in_memory(self, tmp_path):
        session = TuneSession.create(tmp_path / "s", spec="disk-test")
        with faults.injected(disk_plan("journal:")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                session.log_trial(CFG, 10.0)
                session.log_trial(CFG.with_stages(2, 2), 11.0)
        degrade_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(degrade_warnings) == 1
        assert "memory-only" in str(degrade_warnings[0].message)
        assert session.degraded and session.disk_errors == 1
        assert len(session) == 2, "trials must survive in memory"
        session.close()
        # The journal never materialized: a reload finds no trials (the
        # price of degradation is resumability, not correctness).
        reloaded = TuneSession.load(tmp_path / "s")
        assert len(reloaded) == 0


class TestRegistryDegrade:
    def test_daemon_serves_through_registry_disk_failure(self, tmp_path):
        """An ENOSPC mid-publish must not fail the request that built the
        artifact: it serves from memory, the warm path keeps working, and
        status surfaces the degradation."""
        server = ReproServer(
            port=0,
            registry=ArtifactRegistry(tmp_path / "reg"),
            default_space=16,
        )
        problem = {"m": 128, "n": 128, "k": 128}
        with faults.injected(disk_plan("registry:")):
            with pytest.warns(RuntimeWarning, match="memory-only"):
                cold = server.handle({"op": "tune", "params": problem, "id": "c"})
        assert cold["ok"], cold
        assert cold["result"]["served_from"] == "fresh"
        assert server.registry.degraded
        assert server.registry.disk_errors == 1

        warm = server.handle({"op": "compile", "params": problem, "id": "w"})
        assert warm["ok"]
        assert warm["result"]["served_from"] == "registry"

        status = server.handle({"op": "status", "id": "s"})["result"]
        assert status["registry"]["disk_errors"] == 1
        # Nothing reached disk: a fresh registry over the same root misses.
        fresh = ArtifactRegistry(tmp_path / "reg")
        assert fresh.get(cold["result"]["key"]) is None

    def test_degraded_registry_skips_flush_instead_of_raising(self, tmp_path):
        import dataclasses

        from repro.serve.registry import INDEX_FILE, KernelArtifact

        registry = ArtifactRegistry(tmp_path / "reg")
        artifact = KernelArtifact(
            key="k" * 16,
            spec=dataclasses.asdict(SPEC),
            config=CFG.as_dict(),
            latency_us=9.0,
            ir_text="kernel {}",
            cuda_source="__global__ void k() {}",
            provenance={"gpu": "A100"},
        )
        with faults.injected(disk_plan("registry:")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                stored = registry.put(artifact)
        assert stored is artifact and registry.degraded
        registry.flush()  # must be a silent no-op once degraded
        assert not (tmp_path / "reg" / INDEX_FILE).exists()
