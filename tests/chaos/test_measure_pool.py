"""The measurer's persistent worker pool: reuse across batches, respawn
after deaths, sharing between threads, fault plans and retargets that
arrive after the pool started, deadlines while queued, and lifecycle.

Every sweep is checked against a fault-free serial reference: the pool
must return the same bits.
"""

import gc
import multiprocessing
import threading
import time

import pytest

from repro import faults
from repro.core.errors import DeadlineExceededError
from repro.gpusim.config import A100, V100
from repro.tensor.operation import GemmSpec
from repro.tuning import FAILED
from repro.tuning.measure import Measurer, _cfg_token
from repro.tuning.space import SpaceOptions, enumerate_space

SPEC = GemmSpec("pool", 1, 128, 128, 256)


@pytest.fixture(scope="module")
def space():
    s = enumerate_space(SPEC, A100, SpaceOptions(max_size=24))
    assert len(s) >= 16
    return s


@pytest.fixture(scope="module")
def clean(space):
    """Fault-free serial reference sweep."""
    return Measurer(A100).sweep(SPEC, space)


def _pids(m):
    return {w.proc.pid for w in m._pool.workers if w is not None}


def _alive(pids):
    return pids & {p.pid for p in multiprocessing.active_children()}


class TestReuse:
    def test_batches_share_width_many_processes(self, space, clean):
        """A fault-free sweep of several batches forks exactly ``jobs``
        worker processes, once."""
        with Measurer(A100, jobs=2) as m:
            got, pids = [], set()
            for i in range(0, len(space), 8):
                got += m.measure_many(SPEC, space[i:i + 8])
                pids |= _pids(m)
            assert got == clean
            assert len(pids) == 2
            assert m._pool.spawned == 2

    def test_pool_grows_to_widest_call(self, space, clean):
        with Measurer(A100, jobs=1) as m:
            assert m.sweep(SPEC, space[:8], jobs=2) == clean[:8]
            assert m.sweep(SPEC, space[8:], jobs=3) == clean[8:]
            assert m.jobs == 1
            assert m._pool.spawned == 3


class TestRespawn:
    def test_respawns_equal_deaths(self, space, clean):
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", rate=0.3, match="#a0")], seed=3
        )
        with Measurer(A100, jobs=2, retries=2, backoff_s=0.001) as m:
            with faults.injected(plan):
                got = m.sweep(SPEC, space)
            assert got == clean
            assert m.n_crashes > 0
            assert all(f.reason == "crash" for f in m.failures)
            assert m._pool.spawned - 2 == m.n_crashes
            assert len(_pids(m)) == 2


class TestSharing:
    def test_two_threads_get_serial_results(self, space, clean):
        """Two request threads on one ``jobs=2`` measurer take turns on its
        pool; each sees the serial bits and no config is compiled twice."""
        m = Measurer(A100, jobs=2)
        out = [None, None]

        def run(i):
            out[i] = m.sweep(SPEC, space)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert out == [clean, clean]
        assert m.n_compiled == len(space)
        assert m._pool.spawned == 2
        m.close()

    def test_stress_more_workers_than_cores(self, space, clean):
        """Four threads with overlapping batches on a ``jobs=3`` pool, with
        fast thread switching: no lost result, count or double compile."""
        import sys

        m = Measurer(A100, jobs=3)
        slices = [slice(0, 16), slice(8, 24), slice(4, 20), slice(0, 24)]
        out = [None] * len(slices)

        def run(i):
            out[i] = m.measure_many(SPEC, space[slices[i]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(slices))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert out == [clean[s] for s in slices]
        assert m.n_compiled == len(space)
        assert m.n_compiled + m.n_memory_hits == sum(len(space[s]) for s in slices)
        m.close()


class TestStaleState:
    def test_plan_activated_after_pool_start_is_honoured(self, space, clean):
        victim = space[5]
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", match=_cfg_token(SPEC, victim))],
            seed=1,
        )
        with Measurer(A100, jobs=2, retries=1, backoff_s=0.001) as m:
            assert m.measure_many(SPEC, space[:4]) == clean[:4]  # pool starts clean
            with faults.injected(plan):
                got = m.measure_many(SPEC, space[4:])
            assert got[1] == FAILED
            assert [x for i, x in enumerate(got) if i != 1] == [
                x for i, x in enumerate(clean[4:]) if i != 1
            ]
            assert len(m.quarantined) == 1

    def test_plan_deactivated_after_pool_start_is_dropped(self, space, clean):
        plan = faults.FaultPlan([faults.FaultRule("compile", "crash")], seed=1)
        with Measurer(A100, jobs=2, retries=0) as m:
            with faults.injected(plan):
                assert m.measure_many(SPEC, space[:4]) == [FAILED] * 4
            assert m.measure_many(SPEC, space[4:]) == clean[4:]

    def test_retargeted_measurer_never_uses_the_old_gpu(self, space):
        with Measurer(A100, jobs=2) as m:
            m.sweep(SPEC, space)
            m.gpu = V100
            assert m.sweep(SPEC, space) == Measurer(V100).sweep(SPEC, space)


class TestDeadline:
    def test_deadline_passing_while_queued_raises(self, space):
        """A batch waiting behind another thread's pooled batch gives up at
        its deadline instead of queueing past it."""
        m = Measurer(A100, jobs=2)
        with m._pool.lock:  # another batch holds the pool
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                m.measure_many(SPEC, space, deadline=t0 + 0.2)
            assert time.monotonic() - t0 < 5.0
        assert m.n_compiled == 0
        m.close()


class TestLifecycle:
    def test_close_reaps_workers_and_is_idempotent(self, space, clean):
        m = Measurer(A100, jobs=2)
        m.sweep(SPEC, space[:8])
        pids = _pids(m)
        assert len(pids) == 2 and _alive(pids) == pids
        m.close()
        m.close()
        assert not _alive(pids)
        # A closed measurer stays usable: the next pooled batch restarts.
        assert m.sweep(SPEC, space[:8]) == clean[:8]
        m.close()

    def test_context_manager_closes(self, space):
        with Measurer(A100, jobs=2) as m:
            m.sweep(SPEC, space[:8])
            pids = _pids(m)
        assert pids and not _alive(pids)

    def test_garbage_collected_measurer_reaps_workers(self, space):
        m = Measurer(A100, jobs=2)
        m.sweep(SPEC, space[:8])
        pids = _pids(m)
        assert pids
        del m
        gc.collect()
        assert not _alive(pids)

    def test_server_stop_reaps_workers(self, tmp_path):
        from repro.serve.client import ServeClient
        from repro.serve.registry import ArtifactRegistry
        from repro.serve.server import ReproServer

        server = ReproServer(
            socket_path=str(tmp_path / "d.sock"),
            registry=ArtifactRegistry(tmp_path / "reg"),
            jobs=2,
            default_space=16,
        )
        server.start()
        try:
            client = ServeClient(socket_path=server.socket_path, timeout=120)
            assert client.wait_until_ready(timeout=10)
            assert client.compile(m=128, n=128, k=128)["served_from"] == "fresh"
            pids = _pids(server.measurer)
            assert pids
        finally:
            server.stop()
        assert not _alive(pids)
        server.shutdown(timeout=10)
