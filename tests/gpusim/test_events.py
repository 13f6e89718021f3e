"""Scheduling semantics of the specialised wave event loop.

The loop inlines the L2, DRAM and tensor-core FIFO servers as ``free_at``
floats and runs every threadblock's program off one ``(time, seq)`` heap;
these tests pin the server and scheduler behaviour on hand-checkable
waves built directly from :func:`repro.gpusim.engine._run_wave`'s scalar
inputs (every service and delay zero unless a test sets it).
"""

import pytest

from repro.gpusim import engine


def run(n_tb=1, E_o=1, E_i=0, S=1, rs2=False, chunks=(), mem_latency=0.0, d_issue=0.0,
        t_fill=0.0, t_store=0.0, inner=0.0, sync=0.0, epi=0.0, write_latency=0.0):
    trace = []
    end = engine._run_wave(n_tb, E_o, E_i, S, rs2, chunks, mem_latency, d_issue, t_fill,
                           t_store, inner, sync, epi, write_latency, trace)
    return end, trace


def spans(trace, name):
    """``{tb: (start, end)}`` of one traced activity."""
    return {tb: (start, end) for tb, n, start, end in trace if n == name}


class TestFifoServer:
    def test_idle_server_serves_immediately(self):
        # The write-back is posted at t=1.0 (after the barrier) to an idle
        # DRAM server and completes one service time later.
        end, trace = run(sync=1.0, epi=2.0)
        assert spans(trace, "epilogue") == {0: (1.0, 3.0)}
        assert end == 3.0

    def test_queueing(self):
        # The second threadblock's copy waits for the first's to drain.
        _, trace = run(n_tb=2, chunks=((5.0, 0.0),))
        waits = spans(trace, "smem_wait[0]")
        assert waits[0][1] == 5.0
        assert waits[1][1] == 10.0

    def test_latency_does_not_occupy_server(self):
        _, trace = run(n_tb=2, chunks=((1.0, 0.0),), mem_latency=10.0)
        waits = spans(trace, "smem_wait[0]")
        assert waits[0][1] == 11.0
        assert waits[1][1] == 12.0  # pipelined: only service serializes

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run(E_i=1, inner=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            run(chunks=((-1.0, 0.0),))
        with pytest.raises(ValueError, match="non-negative"):
            run(epi=-1.0)
        # Lazy: a request that is never made cannot fail.
        assert run(E_i=0, inner=-1.0)[0] == 0.0
        assert run(E_o=0, chunks=((-1.0, 0.0),))[0] == 0.0


class TestSimulator:
    def test_single_process_delay(self):
        end, _ = run(d_issue=5.0, sync=2.0)
        assert end == 7.0

    def test_wait_until_past_is_now(self):
        # The chunk lands at 1.0 but the wait only starts at 4.0.
        _, trace = run(chunks=((1.0, 0.0),), d_issue=4.0)
        assert spans(trace, "smem_wait[0]") == {0: (4.0, 4.0)}

    def test_two_processes_interleave(self):
        _, trace = run(n_tb=2, E_o=2, d_issue=1.0, sync=1.0)
        names = [(tb, name) for tb, name, _, _ in trace]
        assert names == [
            (0, "smem_wait[0]"), (0, "use[0]"), (1, "smem_wait[0]"), (1, "use[0]"),
            (0, "smem_wait[1]"), (0, "use[1]"), (1, "smem_wait[1]"), (1, "use[1]"),
            (0, "epilogue"), (1, "epilogue"),
        ]
        ends = [end for _, _, _, end in trace]
        assert ends == sorted(ends)

    def test_server_contention_via_time_order(self):
        """The later-starting threadblock must queue behind the earlier one
        on the tensor-core server."""
        _, trace = run(n_tb=2, E_i=1, inner=10.0)
        uses = spans(trace, "use[0]")
        assert uses[0][1] == 10.0
        assert uses[1][1] == 20.0

    def test_event_budget(self, monkeypatch):
        # One threadblock, one empty iteration: start, issue delay, chunk
        # wait, barrier, write-back wait — 5 events.
        monkeypatch.setattr(engine, "_MAX_EVENTS", 5)
        assert run()[0] == 0.0
        monkeypatch.setattr(engine, "_MAX_EVENTS", 4)
        with pytest.raises(RuntimeError, match="exceeded 4 events"):
            run()

    def test_start_time_offsets(self):
        _, trace = run(n_tb=3)
        starts = {tb: start for tb, (start, _) in spans(trace, "smem_wait[0]").items()}
        assert starts == {i: i * engine._TB_STAGGER for i in range(3)}
