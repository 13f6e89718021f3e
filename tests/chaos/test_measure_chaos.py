"""Measurer fault tolerance: worker death, hangs, crashes, quarantine.

Every test drives a real multi-process sweep under a deterministic
:class:`~repro.faults.FaultPlan` and asserts the sweep *completes* with
the documented recovery — never aborts, never deadlocks.
"""

import math

import pytest

from repro import faults
from repro.gpusim.config import A100
from repro.tensor.operation import GemmSpec
from repro.tuning import FAILED
from repro.tuning.measure import Measurer, _cfg_token
from repro.tuning.space import SpaceOptions, enumerate_space

SPEC = GemmSpec("chaos", 1, 128, 128, 256)


@pytest.fixture(scope="module")
def space():
    s = enumerate_space(SPEC, A100, SpaceOptions(max_size=8))
    assert len(s) >= 4
    return s


@pytest.fixture(scope="module")
def clean(space):
    """Fault-free reference sweep."""
    return Measurer(A100).sweep(SPEC, space)


class TestWorkerDeath:
    def test_first_attempt_death_recovers_identically(self, space, clean):
        """Every trial's first attempt hard-dies (os._exit); retries land
        and the sweep is bitwise identical to the fault-free run."""
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", match="#a0")], seed=1
        )
        m = Measurer(A100, jobs=2, retries=2)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert got == clean
        assert m.n_crashes >= len(space)
        assert m.n_retries >= len(space)
        assert not m.quarantined
        assert all(f.reason == "crash" for f in m.failures)
        from repro.core.errors import WorkerCrash

        assert isinstance(m.failures[0].as_error(), WorkerCrash)

    def test_persistent_killer_is_quarantined(self, space, clean):
        """One config kills its worker on every attempt: it is recorded
        FAILED and quarantined; every other trial is unaffected."""
        victim = space[1]
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", match=_cfg_token(SPEC, victim))],
            seed=1,
        )
        m = Measurer(A100, jobs=2, retries=1)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert got[1] == FAILED
        assert [x for i, x in enumerate(got) if i != 1] == [
            x for i, x in enumerate(clean) if i != 1
        ]
        assert len(m.quarantined) == 1
        assert m.telemetry.n_quarantined == 1

    def test_quarantined_config_not_resubmitted(self, space):
        victim = space[0]
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", match=_cfg_token(SPEC, victim))],
            seed=1,
        )
        m = Measurer(A100, jobs=2, retries=0)
        with faults.injected(plan):
            m.sweep(SPEC, space)
            crashes = m.n_crashes
            # Second sweep: the quarantined config is a memory-cache hit
            # (FAILED), not a fresh submission to a doomed worker.
            m.sweep(SPEC, space)
        assert m.n_crashes == crashes


class TestHang:
    def test_hung_worker_is_killed_by_trial_timeout(self, space, clean):
        victim = space[2]
        plan = faults.FaultPlan(
            [
                faults.FaultRule(
                    "worker", "hang", match=_cfg_token(SPEC, victim), hang_s=60.0
                )
            ],
            seed=1,
        )
        m = Measurer(A100, jobs=2, trial_timeout_s=0.5, retries=0)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert got[2] == FAILED
        assert [x for i, x in enumerate(got) if i != 2] == [
            x for i, x in enumerate(clean) if i != 2
        ]
        assert m.n_timeouts == 1
        timeout = next(f for f in m.failures if f.reason == "timeout")
        from repro.core.errors import MeasurementTimeout

        err = timeout.as_error()
        assert isinstance(err, MeasurementTimeout)
        assert err.stage == "measure" and err.diagnostic is timeout


class TestCrash:
    def test_serial_crash_recovery(self, space, clean):
        """jobs=1 (in-process) path: a crashing first attempt is retried
        with backoff and the sweep matches the fault-free run."""
        plan = faults.FaultPlan(
            [faults.FaultRule("compile", "crash", match="#a0")], seed=1
        )
        m = Measurer(A100, jobs=1, retries=2, backoff_s=0.001)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert got == clean
        assert m.n_retries >= len(space)

    def test_serial_persistent_crash_quarantines_not_aborts(self, space):
        plan = faults.FaultPlan([faults.FaultRule("compile", "crash")], seed=1)
        m = Measurer(A100, jobs=1, retries=1, backoff_s=0.001)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert all(x == FAILED for x in got)
        assert len(m.quarantined) == len(space)

    def test_transient_failures_never_persist_to_disk(self, space, tmp_path):
        """Crash/timeout FAILED entries are run properties, not config
        properties: they must not poison the disk cache for warm starts."""
        from repro.tuning.cache import MeasurementCache

        plan = faults.FaultPlan([faults.FaultRule("compile", "crash")], seed=1)
        m = Measurer(
            A100, jobs=1, retries=0, backoff_s=0.001,
            cache=MeasurementCache(tmp_path),
        )
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert all(x == FAILED for x in got)
        assert len(m.cache) == 0
        # A fresh measurer on the same cache compiles cleanly.
        m2 = Measurer(A100, cache=MeasurementCache(tmp_path))
        clean = m2.sweep(SPEC, space)
        assert all(math.isfinite(x) for x in clean)


class TestCorruptLatency:
    def test_corruption_changes_values_but_stays_finite(self, space, clean):
        plan = faults.FaultPlan(
            [faults.FaultRule("simulate", "corrupt-latency", rate=0.5, corrupt_factor=100.0)],
            seed=5,
        )
        m = Measurer(A100)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert all(math.isfinite(x) for x in got)
        assert got != clean
        assert any(g == pytest.approx(c * 100.0) for g, c in zip(got, clean))

    def test_pool_and_serial_agree_under_faults(self, space):
        """Fault decisions are token-hashed, not scheduling-dependent: the
        same plan over the same work yields identical results at any pool
        width."""
        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "worker-death", rate=0.4, match="#a0")], seed=2
        )
        results = []
        for jobs in (2, 3):
            m = Measurer(A100, jobs=jobs, retries=2)
            with faults.injected(plan):
                results.append(m.sweep(SPEC, space))
        assert results[0] == results[1]


class TestZombieReap:
    def test_sigterm_ignoring_worker_is_killed_not_leaked(self, space, clean):
        """Regression: a worker wedged where terminate() cannot reach it
        (SIGTERM ignored) used to outlive the sweep as a leaked child. The
        reap path must escalate to SIGKILL and leave no zombies behind."""
        import multiprocessing
        import time as timelib

        victim = space[1]
        plan = faults.FaultPlan(
            [
                faults.FaultRule(
                    "worker", "hang", match=_cfg_token(SPEC, victim),
                    hang_s=60.0, ignore_sigterm=True,
                )
            ],
            seed=1,
        )
        m = Measurer(A100, jobs=2, trial_timeout_s=0.5, retries=0)
        with faults.injected(plan):
            got = m.sweep(SPEC, space)
        assert got[1] == FAILED
        assert [x for i, x in enumerate(got) if i != 1] == [
            x for i, x in enumerate(clean) if i != 1
        ]
        assert m.n_timeouts == 1
        # The wedged worker was killed and respawned; closing the measurer
        # retires the healthy persistent workers too.
        m.close()
        # The acceptance criterion: no child process survives the sweep.
        deadline = timelib.monotonic() + 5.0
        while timelib.monotonic() < deadline:
            alive = [p for p in multiprocessing.active_children() if p.is_alive()]
            if not alive:
                break
            timelib.sleep(0.05)
        assert not alive, f"sweep leaked worker process(es): {alive}"

    def test_keyboard_interrupt_reaps_sigterm_ignoring_workers(self, space):
        """Ctrl-C during a sweep with a wedged (SIGTERM-ignoring) worker
        must still put every child down via the SIGKILL escalation."""
        import multiprocessing
        import time as timelib

        from repro.tuning import measure as measure_mod

        plan = faults.FaultPlan(
            [faults.FaultRule("worker", "hang", hang_s=60.0, ignore_sigterm=True)],
            seed=1,
        )
        m = Measurer(A100, jobs=2, trial_timeout_s=30.0, retries=0)

        orig_wait = measure_mod.time.monotonic
        calls = {"n": 0}

        def interrupt_soon():
            # Let the pool spawn its workers, then simulate ONE Ctrl-C from
            # inside the scheduling loop. Raising exactly once matters: the
            # patch leaks into multiprocessing's own join/wait timing, and a
            # repeat raise there would model a double Ctrl-C aborting the
            # cleanup path rather than the single interrupt under test.
            calls["n"] += 1
            if calls["n"] == 41:
                raise KeyboardInterrupt
            return orig_wait()

        with faults.injected(plan):
            import unittest.mock as mock

            with mock.patch.object(measure_mod.time, "monotonic", interrupt_soon):
                with pytest.raises(KeyboardInterrupt):
                    m.sweep(SPEC, space)
        deadline = timelib.monotonic() + 5.0
        while timelib.monotonic() < deadline:
            alive = [p for p in multiprocessing.active_children() if p.is_alive()]
            if not alive:
                break
            timelib.sleep(0.05)
        assert not alive, f"interrupted sweep leaked worker process(es): {alive}"


class TestTimeoutResultRace:
    def test_result_landing_at_the_deadline_is_kept(self, space, clean, monkeypatch):
        """Regression: a result that arrives in the window between the
        deadline check and terminate() used to be discarded as a timeout.
        The drain after terminate() must record it as a real measurement."""
        import os
        import signal
        import time as timelib

        from repro.tuning import measure as measure_mod

        def racy_worker_main(conn):
            # Deliver the result only when the parent's terminate() lands:
            # by then the parent has already decided "timeout", which is
            # exactly the race the drain must win.
            def on_term(signum, frame):
                conn.send(("ok", 42.0, 0.01, {}))
                conn.close()
                os._exit(0)

            signal.signal(signal.SIGTERM, on_term)
            conn.recv()  # the chunk holding the trial
            timelib.sleep(60.0)

        monkeypatch.setattr(measure_mod, "_worker_main", racy_worker_main)
        m = Measurer(A100, jobs=1, trial_timeout_s=0.3, retries=0)
        got = m.measure(SPEC, space[0])
        assert got == 42.0
        assert m.n_timeouts == 0
        assert m.n_compiled == 1
        assert not m.failures

    def test_true_timeout_still_fails_after_drain(self, space, monkeypatch):
        """A worker that really is hung sends nothing; the drain finds an
        empty pipe and the trial is recorded FAILED as before."""
        import time as timelib

        from repro.tuning import measure as measure_mod

        def hung_worker_main(conn):
            timelib.sleep(60.0)

        monkeypatch.setattr(measure_mod, "_worker_main", hung_worker_main)
        m = Measurer(A100, jobs=1, trial_timeout_s=0.3, retries=0)
        got = m.measure(SPEC, space[0])
        assert got == FAILED
        assert m.n_timeouts == 1


class TestSweepJobsOverride:
    def test_sweep_jobs_does_not_mutate_measurer(self, space):
        m = Measurer(A100, jobs=1)
        m.sweep(SPEC, space, jobs=2)
        assert m.jobs == 1
