import errno
import gc
import math
import os
import socket
import struct
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jobmig import checkpoint as cp
from jobmig import node as nd
from jobmig import workload
from jobmig.broker import ResourceSpecTemplate
from jobmig.control import TransferFailed
from jobmig.harness import SupervisoryListener
from jobmig.monitor import ReportKind, ServiceLevelAgreement

from conftest import (DEFAULT_TEST_SLA, FailingIndex, images_of, reference_digest, run_to,
                      transfer_bundle, wait_until)


def read_back(data: bytes) -> tuple[int, bytes]:
    """Write ``data`` into one end of a socket pair, close it, and read one
    frame from the other end."""
    writer, reader = socket.socketpair()
    with writer, reader:
        reader.settimeout(5)
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        return nd.recv_frame(reader)


class TestFraming:
    @pytest.mark.parametrize("msg_type", sorted(nd.MSG_NAMES))
    def test_round_trip_every_message_type(self, msg_type):
        payload = b'{"k": 1}'
        frame = nd.encode_frame(msg_type, payload)
        assert read_back(frame) == (msg_type, payload)
        # length covers the type byte plus the payload
        assert struct.unpack(">I", frame[:4])[0] == len(payload) + 1

    def test_empty_payload(self):
        assert read_back(nd.encode_frame(nd.MSG_ACK, b"")) == (nd.MSG_ACK, b"")

    def test_oversize_payload_rejected(self):
        with pytest.raises(nd.FrameError):
            nd.encode_frame(nd.MSG_ACK, b"x" * (nd.MAX_PAYLOAD + 1))

    def test_length_mismatch_rejected(self):
        # the header promises one byte more than the writer sends before closing
        frame = bytearray(nd.encode_frame(nd.MSG_ACK, b"abc"))
        frame[3] += 1
        with pytest.raises(nd.ConnectionClosed):
            read_back(bytes(frame))


class TestClocks:
    def test_virtual_clock_advances_exactly(self):
        clock = nd.VirtualClock()
        assert clock.now_ms() == 0
        clock.advance(Fraction(3, 7))
        clock.advance(Fraction(4, 7))
        assert clock.now_ms() == 1

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            nd.VirtualClock().advance(-1)
        with pytest.raises(ValueError):
            nd.VirtualClock().advance(Fraction(-1, 3))
        clock = nd.VirtualClock()
        for delta, times in ((Fraction(-1, 3), 4), (Fraction(1, 3), -1), (-2, 0)):
            with pytest.raises(ValueError):
                clock.advance(delta, times)
        assert clock.now_ms() == 0

    @given(st.lists(st.one_of(st.integers(min_value=0, max_value=10**12),
                              st.fractions(min_value=0, max_denominator=10**6)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_virtual_clock_equals_exact_sum(self, deltas):
        clock = nd.VirtualClock()
        total = Fraction(0)
        for delta in deltas:
            clock.advance(delta)
            total += delta
            assert clock.now_ms() == total
        assert type(clock.now_ms()) is Fraction

    # denominators that are new primes make each advance grow the clock's lcm
    ADVANCES = st.one_of(st.integers(min_value=0, max_value=10**6),
                         st.builds(Fraction, st.integers(min_value=0, max_value=10**6),
                                   st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])))
    OFFSETS = st.one_of(st.integers(min_value=-3, max_value=3),
                        st.fractions(min_value=-3, max_value=3, max_denominator=10**4))

    @given(st.lists(st.tuples(ADVANCES, st.lists(OFFSETS, min_size=1, max_size=4)),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_virtual_deadline_test_agrees_with_now(self, steps):
        """``reached(t)`` is ``now_ms() >= t`` for int and Fraction deadlines near
        the clock, and ``now_ms()`` stays the exact sum across cached reads."""
        clock = nd.VirtualClock()
        total = Fraction(0)
        for delta, offsets in steps:
            clock.advance(delta)
            total += delta
            now = clock.now_ms()
            assert type(now) is Fraction and now == total
            assert clock.now_ms() is now  # no advance, no new Fraction
            for offset in offsets:
                for t in (total + offset, math.floor(total) + math.floor(offset)):
                    assert clock.reached(t) == (now >= t)

    # cost denominators: large primes, coprime with each other and with the clock's,
    # beside a small prime and the sim's 500
    PRIMES = [999_983, 1_000_003, 2_147_483_647, 7, 500]
    COSTS = st.one_of(st.integers(min_value=0, max_value=1000),
                      st.builds(Fraction, st.integers(min_value=0, max_value=10**9),
                                st.sampled_from(PRIMES)))

    @given(st.lists(ADVANCES, max_size=6), COSTS, st.integers(min_value=1, max_value=40),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_steps_to_a_deadline_counts_single_advances(self, start, cost, limit, data):
        """``steps_to`` is how many single advances by the cost, capped at ``limit``,
        it takes until ``reached`` holds: for a deadline on a step, one already
        passed, and one with a large denominator coprime with the clock's."""
        clock, brute = nd.VirtualClock(), nd.VirtualClock()
        for delta in start:
            clock.advance(delta)
            brute.advance(delta)
        now = clock.now_ms()
        deadline = data.draw(st.one_of(
            st.integers(min_value=0, max_value=limit + 2).map(lambda j: now + j * cost),
            st.fractions(max_value=0, max_denominator=10**6).map(lambda back: now + back),
            st.integers(min_value=0, max_value=10**7),
            st.builds(Fraction, st.integers(min_value=0, max_value=10**15),
                      st.sampled_from(self.PRIMES))))
        expected = limit
        for k in range(1, limit + 1):
            brute.advance(cost)
            if brute.reached(deadline):
                expected = k
                break
        assert clock.steps_to(deadline, cost, limit) == expected
        assert clock.now_ms() == now  # counting moves nothing

    @given(st.lists(ADVANCES, max_size=6), COSTS, st.integers(min_value=0, max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_an_advance_by_times_equals_single_advances(self, start, cost, times):
        """``advance(cost, times)`` moves the clock exactly as ``times`` single advances
        do, also when the cost's denominator is new to the clock."""
        clock, brute = nd.VirtualClock(), nd.VirtualClock()
        for delta in start:
            clock.advance(delta)
            brute.advance(delta)
        clock.advance(cost, times)
        for _ in range(times):
            brute.advance(cost)
        assert clock.now_ms() == brute.now_ms() == sum(start, Fraction(0)) + cost * times
        assert clock.reached(brute.now_ms()) and brute.reached(clock.now_ms())

    def test_wall_deadline_test(self):
        clock = nd.WallClock()
        now = clock.now_ms()
        assert clock.reached(now) and clock.reached(int(now))
        assert not clock.reached(now + 10**9)

    def test_wall_clock_monotonic(self):
        clock = nd.WallClock()
        a = clock.now_ms()
        assert clock.now_ms() >= a >= 0


def sim_runtime(tmp_path, cost=Fraction(57306, 500), speed=Fraction(1), **kw):
    return nd.NodeRuntime(provider_id="sim1", clock=nd.VirtualClock(),
                          store_dir=tmp_path / "sim1", step_cost_ms=cost / speed, **kw)


def run_to_completion(runtime, job_id):
    msgs = []
    entry = runtime.job(job_id)
    while entry.status == nd.ST_RUNNING:
        msgs.extend(runtime.run_iteration(job_id))
    return msgs


def disk_full(record):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestSimExecution:
    def test_uninterrupted_total_matches_cost_model(self, tmp_path):
        # per-iteration cost 57306/500 ms at speed 1.0: N=500 totals exactly 57306
        runtime = sim_runtime(tmp_path)
        runtime.submit_job("j1", "sort", {"n": 500, "seed": 42})
        msgs = run_to_completion(runtime, "j1")
        assert runtime.clock.now_ms() == 57306
        result = dict(msgs)[nd.MSG_RESULT_RETURN]
        assert result["exec_ms"] == 57306
        assert result["iterations_done"] == 500

    @pytest.mark.parametrize("m", [0, 5, 15])
    def test_a_run_that_raises_midway_is_charged_the_steps_it_took(self, tmp_path, m):
        """A run of 16 steps in one ``step(16)`` call whose iteration m + 1 raises: the
        job fails at iteration 16 + m, and the clock is charged m steps."""
        rows, cost = [], Fraction(57306, 500)
        runtime = sim_runtime(tmp_path, cost=cost, emit=rows.append)
        runtime.submit_job("j", "sort", {"n": 60, "seed": 4}, checkpoint_interval=16)
        run_to(runtime, "j", 16)
        task, start_ms = runtime.job("j").task, runtime.clock.now_ms()
        task._index = FailingIndex(task._index, m)
        calls, step = [], task.step
        task.step = lambda k=1: calls.append(k) or step(k)
        msgs = runtime.run_iteration("j")
        assert calls == [16]
        assert dict(msgs)[nd.MSG_RESULT_RETURN]["error"] == "RuntimeError"
        assert (runtime.job("j").status, task.iterations_done) == (nd.ST_FAILED, 16 + m)
        assert runtime.clock.now_ms() - start_ms == m * cost
        assert [(r["event"], r.get("end"), r.get("error")) for r in rows[-2:]] == [
            ("steps", 16 + m, None), ("failed", None, "RuntimeError")]

    def test_speed_factor_scales_cost(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(100), speed=Fraction(2))
        runtime.submit_job("j1", "sort", {"n": 10, "seed": 1})
        run_to_completion(runtime, "j1")
        assert runtime.clock.now_ms() == 500  # 10 * 100/2

    def test_duplicate_submit_rejected(self, tmp_path):
        runtime = sim_runtime(tmp_path)
        runtime.submit_job("j1", "sort", {"n": 5, "seed": 1})
        with pytest.raises(nd.DuplicateJob):
            runtime.submit_job("j1", "sort", {"n": 5, "seed": 1})

    def test_a_submission_whose_first_write_fails_leaves_no_job(self, tmp_path):
        runtime = sim_runtime(tmp_path)
        spec = {"job_id": "g", "task_kind": "sort", "params": {"n": 20, "seed": 1}}
        runtime.store.append = disk_full
        with pytest.raises(OSError):
            runtime.serve(nd.MSG_JOB_SUBMIT, spec)
        assert runtime.jobs == {}
        del runtime.store.append
        runtime.serve(nd.MSG_JOB_SUBMIT, spec)  # the retry is admitted
        run_to_completion(runtime, "g")
        assert runtime.job("g").task.digest() == reference_digest(20, 1)

    def test_quiesce_honored_at_yield_point(self, tmp_path):
        runtime = sim_runtime(tmp_path, withdraw_at=7)
        runtime.submit_job("j1", "sort", {"n": 20, "seed": 3})
        run_to(runtime, "j1", 7)
        entry = runtime.job("j1")
        assert entry.status == nd.ST_QUIESCED
        assert entry.task.iterations_done == 7
        with pytest.raises(nd.InvalidJobState):  # parked, no further steps
            runtime.run_iteration("j1")
        assert entry.task.iterations_done == 7

    def test_tombstoned_job_never_steps(self, tmp_path):
        runtime = sim_runtime(tmp_path)
        runtime.submit_job("j1", "sort", {"n": 20, "seed": 3})
        runtime.run_iteration("j1")
        target = sim_runtime(tmp_path / "t")
        runtime.send = lambda addr, msg_type, body: target.serve(msg_type, body)
        runtime.hand_off("j1", "127.0.0.1:7002")
        assert runtime.job("j1").status == nd.ST_TOMBSTONED
        with pytest.raises(nd.InvalidJobState):
            runtime.run_iteration("j1")

    def test_checkpoint_cadence(self, tmp_path):
        for n, interval in ((100, 10), (95, 10), (100, 7), (64, 1)):
            runtime = sim_runtime(tmp_path / f"{n}-{interval}", cost=Fraction(1))
            runtime.submit_job("jc", "sort", {"n": n, "seed": 5},
                               checkpoint_interval=interval)
            run_to_completion(runtime, "jc")
            records = runtime.store.load("jc")
            assert abs(len(records) - math.ceil(n / interval)) <= 1

    def test_full_record_every_mth_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nd, "FULL_EVERY", 4)
        runtime = sim_runtime(tmp_path, cost=Fraction(1))
        runtime.submit_job("jf", "sort", {"n": 40, "seed": 5}, checkpoint_interval=2)
        run_to_completion(runtime, "jf")
        records = runtime.store.load("jf")
        kinds = [r.kind for r in records]
        for idx, kind in enumerate(kinds):
            expected = cp.KIND_FULL if idx % 4 == 0 else cp.KIND_INCREMENTAL
            assert kind == expected

    def test_withdraw_at_iteration_fires_once(self, tmp_path):
        # a supervisor that moves nothing: the parked job resumes once it answers
        sent, rows = [], []
        runtime = sim_runtime(tmp_path, withdraw_at=5, supervisor="sup", emit=rows.append,
                              send=lambda addr, msg_type, body: sent.append((msg_type, body)) or {})
        runtime.submit_job("j1", "sort", {"n": 12, "seed": 2})
        run_to(runtime, "j1", 12, call="step")
        assert [t for t, _ in sent] == [nd.MSG_WITHDRAW_NOTICE, nd.MSG_RESULT_RETURN]
        assert sent[0][1]["provider_id"] == "sim1"
        assert [(r["event"], r.get("first"), r.get("end"), r.get("iteration")) for r in rows] \
            == [("withdraw", None, None, 5), ("steps", 0, 5, None), ("steps", 5, 12, None),
                ("result", None, None, 12)]
        assert runtime.job("j1").task.digest() == reference_digest(12, 2)

    def test_the_answer_drops_each_ended_job_it_holds(self, tmp_path):
        rows = []
        runtime = sim_runtime(tmp_path, withdraw_at=5, supervisor="sup", emit=rows.append,
                              send=lambda *msg: {"ok": True, "ended": ["ghost", "a", "b"]})
        runtime.submit_job("a", "sort", {"n": 12, "seed": 2})
        runtime.submit_job("b", "sort", {"n": 12, "seed": 3}, checkpoint_interval=1)
        runtime.step("b")  # a capture is due after b's first iteration
        run_to(runtime, "a", 5, call="step")
        assert [(j, runtime.job(j).status) for j in "ab"] \
            == [("a", nd.ST_TOMBSTONED), ("b", nd.ST_TOMBSTONED)]
        assert [(r["event"], r["job_id"], r.get("first"), r.get("end"), r.get("iteration"))
                for r in rows] == [
            ("withdraw", "a", None, None, 5), ("withdraw", "b", None, None, 1),
            ("steps", "a", 0, 5, None), ("dropped", "a", None, None, 5),
            ("steps", "b", 0, 1, None), ("dropped", "b", None, None, 1)]
        with pytest.raises(nd.InvalidJobState):
            runtime.run_iteration("b")

    def test_an_iteration_that_withdraws_and_fails_still_sends_the_notice(self, tmp_path):
        sent = []
        runtime = sim_runtime(tmp_path, withdraw_at=5, supervisor="sup",
                              send=lambda addr, msg_type, body: sent.append((msg_type, body)) or {})
        runtime.submit_job("j1", "sort", {"n": 12, "seed": 2})

        def broken_park(entry):
            raise OSError("store full")

        runtime._park = broken_park
        runtime.step("j1")  # runs to iteration 5, which withdraws
        assert runtime.job("j1").task.iterations_done == 5
        assert [(t, body.get("failed")) for t, body in sent] \
            == [(nd.MSG_WITHDRAW_NOTICE, None), (nd.MSG_RESULT_RETURN, True)]
        assert runtime.job("j1").status == nd.ST_FAILED
        assert runtime.withdrawal  # announced once: no later iteration withdraws again

    def test_withdraw_idempotent(self, tmp_path):
        runtime = sim_runtime(tmp_path)
        assert len(runtime.withdraw()) == 1
        assert runtime.withdraw() == []

    def test_sampling_emits_violations(self, tmp_path):
        # floor far above the achievable 1 iteration per 100 virtual ms
        sla = ServiceLevelAgreement(min_throughput=1000.0, window_k=2, sample_period_ms=200)
        runtime = sim_runtime(tmp_path, cost=Fraction(100))
        runtime.submit_job("j1", "sort", {"n": 50, "seed": 4}, sla=sla)
        reports = [m[1] for m in run_to_completion(runtime, "j1")
                   if m[0] == nd.MSG_MONITOR_REPORT]
        assert reports
        assert all(ReportKind(r["kind"]) is ReportKind.THROUGHPUT_VIOLATION for r in reports)

    def test_updated_sla_governs_later_samples(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(100))
        # no SLA: never sampled; a capture every 5 iterations places yield points
        runtime.submit_job("j1", "sort", {"n": 50, "seed": 4}, checkpoint_interval=5)
        while runtime.job("j1").task.iterations_done < 10:
            assert runtime.run_iteration("j1") == []
        # 1 iteration per 100 virtual ms misses a floor of 1000 iterations/s
        sla = ServiceLevelAgreement(min_throughput=1000.0, window_k=2, sample_period_ms=200)
        assert runtime.serve(nd.MSG_SLA_UPDATE, {"job_id": "j1", "sla": sla.to_dict()}) \
            == {"ok": True, "job_id": "j1"}
        reports = [m[1] for m in run_to_completion(runtime, "j1")
                   if m[0] == nd.MSG_MONITOR_REPORT]
        assert reports


class TestYieldPoints:
    """One ``run_iteration`` runs a job to the first iteration after which
    something happens, and stops there."""

    def test_a_stretch_stops_where_a_capture_is_due(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(1))
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1}, checkpoint_interval=7)
        for end in (7, 14):
            assert runtime.run_iteration("j") == []
            entry = runtime.job("j")
            assert (entry.task.iterations_done, entry.since_checkpoint) == (end, 0)
            assert runtime.clock.now_ms() == end
        assert [r.seq for r in runtime.store.load("j")] == [0, 1, 2]

    def test_a_stretch_stops_at_withdraw_at(self, tmp_path):
        runtime = sim_runtime(tmp_path, withdraw_at=5)
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1})
        assert [m for m, _ in runtime.run_iteration("j")] == [nd.MSG_WITHDRAW_NOTICE]
        entry = runtime.job("j")
        assert (entry.status, entry.task.iterations_done) == (nd.ST_QUIESCED, 5)

    @pytest.mark.parametrize("period,ends", [(250, [3, 6, 9]), (200, [2, 4, 6])])
    def test_a_stretch_takes_each_healthy_sample_where_it_is_due_and_runs_on(
            self, tmp_path, period, ends):
        # 100 virtual ms a step: a 250 ms period falls between steps, a 200 ms one on a step
        runtime = sim_runtime(tmp_path, cost=Fraction(100))
        sla = ServiceLevelAgreement(min_throughput=0.001, window_k=3, sample_period_ms=period)
        capture_at = ends[-1] + 1
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1}, sla=sla,
                           checkpoint_interval=capture_at)
        samples = []
        observe = runtime.analyzer.observe
        runtime.analyzer.observe = lambda s, sla: samples.append(s) or observe(s, sla)
        assert runtime.run_iteration("j") == []  # one stretch, from capture to capture
        assert [s.iterations_done for s in samples] == ends
        assert [s.timestamp_ms for s in samples] == [100 * i for i in ends]
        entry = runtime.job("j")
        assert (entry.task.iterations_done, entry.since_checkpoint) == (capture_at, 0)
        assert runtime.clock.now_ms() == 100 * capture_at
        assert [r.seq for r in runtime.store.load("j")] == [0, 1]

    def test_a_confirmed_violation_ends_the_stretch_at_its_sample(self, tmp_path):
        # 10 it/s against a floor of 1000: the fourth sample, at 12, confirms 3 slow pairs
        runtime = sim_runtime(tmp_path, cost=Fraction(100))
        sla = ServiceLevelAgreement(min_throughput=1000, window_k=3, sample_period_ms=250)
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1}, sla=sla, checkpoint_interval=64)
        msgs = runtime.run_iteration("j")
        assert [m for m, _ in msgs] == [nd.MSG_MONITOR_REPORT]
        assert [e["iterations_done"] for e in msgs[0][1]["evidence"]] == [6, 9, 12]
        entry = runtime.job("j")
        assert (entry.task.iterations_done, entry.since_checkpoint) == (12, 12)
        assert runtime.clock.now_ms() == 1200
        assert entry.next_sample_ms == 1200 + 250
        msgs = runtime.run_iteration("j")  # confirmed anew over a fresh window
        assert [e["iterations_done"] for e in msgs[0][1]["evidence"]] == [18, 21, 24]
        assert runtime.job("j").task.iterations_done == 24

    @pytest.mark.parametrize("mode", ["sim", "wall"])
    def test_a_sample_due_at_a_capture_is_taken_after_it(self, tmp_path, mode):
        # 100 ms a step, each capture's append charged 50 ms, a sample due every 200 ms
        # and a capture every 4 steps: the sample due at 4 carries that capture's time
        clock = nd.VirtualClock() if mode == "sim" else TickClock()
        runtime = nd.NodeRuntime("p", clock, tmp_path / "p",
                                 step_cost_ms=Fraction(100) if mode == "sim" else None)
        append, observe = runtime.store.append, runtime.analyzer.observe
        runtime.store.append = lambda record: clock.advance(50) or append(record)
        samples = []
        runtime.analyzer.observe = lambda s, sla: samples.append(
            (s.iterations_done, s.timestamp_ms, s.capture_ms)) or observe(s, sla)
        sla = ServiceLevelAgreement(min_throughput=0.001, window_k=3, sample_period_ms=200)
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1}, sla=sla, checkpoint_interval=4)
        if mode == "wall":
            clock.ticking(runtime.job("j").task, 100)
        run_to(runtime, "j", 4)
        assert samples == [(2, 250, 50), (4, 500, 100)]

    def test_a_stretch_stops_where_the_job_is_done(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(3))
        runtime.submit_job("j", "sort", {"n": 10, "seed": 1}, checkpoint_interval=64)
        msgs = runtime.run_iteration("j")
        assert [m for m, _ in msgs] == [nd.MSG_RESULT_RETURN]
        assert msgs[0][1]["exec_ms"] == runtime.clock.now_ms() == 30
        assert runtime.job("j").status == nd.ST_DONE

    def test_a_wall_stretch_takes_each_healthy_sample_where_it_is_due_and_runs_on(self, tmp_path):
        clock = TickClock()
        runtime = nd.NodeRuntime("w", clock, tmp_path / "w")
        sla = ServiceLevelAgreement(min_throughput=0.001, window_k=3, sample_period_ms=25)
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1}, sla=sla, checkpoint_interval=10)
        entry = runtime.job("j")
        clock.ticking(entry.task, 10)
        samples = []
        observe = runtime.analyzer.observe
        runtime.analyzer.observe = lambda s, sla: samples.append(
            (s.iterations_done, s.timestamp_ms, entry.next_sample_ms)) or observe(s, sla)
        assert runtime.run_iteration("j") == []  # the clock reads 30 after the third step
        assert samples == [(3, 30, 25), (6, 60, 30 + 25), (9, 90, 60 + 25)]
        assert (entry.task.iterations_done, entry.since_checkpoint) == (10, 0)  # the capture
        assert entry.next_sample_ms == 90 + 25

    @pytest.mark.parametrize("store_ms,floor,at,sent,tuned", [
        (0, 150, 12, [nd.MSG_MONITOR_REPORT], []), (20, 80, 10, [], [(8, 16)])])
    def test_a_wall_violation_ends_the_stretch_at_its_sample(self, tmp_path, store_ms, floor,
                                                             at, sent, tuned):
        # 10 ms a step, a sample due every 55 ms and a capture every 8 steps; one slow pair
        # confirms. With free captures the pair from 6 to 12 runs at 100 it/s, below 150:
        # reported. With each capture's append charged 20 ms the pair from 6 to 10 runs at
        # 4 in 60 ms, below 80, but at 100 it/s less its capture: tuned, not reported.
        clock, rows, samples = TickClock(), [], []
        runtime = nd.NodeRuntime("w", clock, tmp_path / "w", emit=rows.append)
        append, observe = runtime.store.append, runtime.analyzer.observe
        runtime.store.append = lambda record: clock.advance(store_ms) or append(record)
        runtime.analyzer.observe = lambda s, sla: samples.append(s) or observe(s, sla)
        sla = ServiceLevelAgreement(min_throughput=floor, window_k=1, sample_period_ms=55)
        runtime.submit_job("j", "sort", {"n": 50, "seed": 1}, sla=sla, checkpoint_interval=8)
        entry = runtime.job("j")
        clock.ticking(entry.task, 10)
        msgs = []
        while not msgs and not rows:  # a running job's one row is a tune
            msgs = runtime.run_iteration("j")
        assert [m for m, _ in msgs] == sent
        assert [(r["from"], r["to"]) for r in rows if r["event"] == "tune"] == tuned
        assert [s.iterations_done for s in samples] == [6, at]
        assert (entry.task.iterations_done, entry.since_checkpoint) == (at, at - 8)
        assert entry.next_sample_ms == clock.t + 55

    def test_a_wall_job_holds_while_another_job_withdraws(self, tmp_path):
        notices = []

        def send(addr, msg_type, body):  # what b has done while the notice is unanswered
            notices.append((nd.MSG_NAMES[msg_type], b.status, b.task.iterations_done))
            return {"ok": True, "ended": []}

        runtime = nd.NodeRuntime("w", nd.WallClock(), tmp_path / "w", withdraw_at=3,
                                 supervisor="sup", send=send)
        for job_id in "ab":
            runtime.submit_job(job_id, "sort", {"n": 200, "seed": 1}, checkpoint_interval=64)
            runtime.start(job_id)
        b = runtime.job("b")
        assert runtime.run_once()  # a reaches 3 and withdraws; the answer resumes it
        assert notices == [("WITHDRAW_NOTICE", nd.ST_RUNNING, 0)]
        assert (b.status, b.task.iterations_done) == (nd.ST_RUNNING, 0)  # held until then
        assert runtime.run_once()  # answered: b runs on to its next capture
        assert b.task.iterations_done == 64


class TestTurns:
    """``run_once`` steps the node's started jobs in turn, one stretch each."""

    @staticmethod
    def turns_taken(runtime, count):
        taken = []
        run_iteration = runtime.run_iteration
        runtime.run_iteration = lambda job_id: taken.append(job_id) or run_iteration(job_id)
        for _ in range(count):
            assert runtime.run_once()
        return taken

    def test_turns_rotate_in_admission_order(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(1))
        for job_id in "abc":
            runtime.submit_job(job_id, "sort", {"n": 40, "seed": 1}, checkpoint_interval=4)
            runtime.start(job_id)
        assert self.turns_taken(runtime, 6) == list("abcabc")
        assert [runtime.job(j).task.iterations_done for j in "abc"] == [8, 8, 8]
        runtime.submit_job("d", "sort", {"n": 40, "seed": 2}, checkpoint_interval=4)
        runtime.start("d")  # a job started later takes its turn after the others
        assert self.turns_taken(runtime, 4) == list("abcd")

    def test_parked_tombstoned_done_and_failed_jobs_take_no_turn(self, tmp_path):
        rows = []
        runtime = sim_runtime(tmp_path, cost=Fraction(1), withdraw_at=3, emit=rows.append)
        target = sim_runtime(tmp_path / "t")
        runtime.send = lambda addr, msg_type, body: target.serve(msg_type, body)
        for job_id in "ptdfr":
            runtime.submit_job(job_id, "sort", {"n": 40, "seed": 1}, checkpoint_interval=4)
            runtime.start(job_id)
        runtime.run_iteration("p")  # reaches withdraw_at: parked
        runtime.hand_off("t", "127.0.0.1:7002")
        run_to_completion(runtime, "d")

        def broken_step(k=1):
            raise RuntimeError("step failed")

        runtime.job("f").task.step = broken_step
        runtime.run_iteration("f")
        assert [runtime.job(j).status for j in "ptdfr"] == [
            nd.ST_QUIESCED, nd.ST_TOMBSTONED, nd.ST_DONE, nd.ST_FAILED, nd.ST_RUNNING]
        assert [r["error"] for r in rows if r["event"] == "failed"] == ["RuntimeError"]
        assert self.turns_taken(runtime, 3) == list("rrr")

    def test_no_runnable_job_is_no_turn(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(1))
        assert not runtime.run_once()
        runtime.submit_job("j", "sort", {"n": 10, "seed": 1}, checkpoint_interval=64)
        assert not runtime.run_once()  # admitted, not yet started
        runtime.start("j")
        assert runtime.run_once()
        assert runtime.job("j").status == nd.ST_DONE
        assert not runtime.run_once()


class TickClock(nd.WallClock):
    """A wall-mode clock that moves only when the task it watches steps."""

    def __init__(self):
        self.t = 0

    def now_ms(self):
        return self.t

    def advance(self, ms):
        self.t += ms

    def ticking(self, task, ms):
        step = task.step

        def ticked():
            step()
            self.t += ms

        task.step = ticked


class TestLocalTuning:
    """A confirmed violation on a sim node whose store append charges each capture
    16 ms to the clock, after 1 ms a step: 500 it/s at checkpoint interval 16, 667 at
    32, about 800 at 64, 889 at 128, and 1000 with no capture."""

    def run(self, tmp_path, floor, interval=16):
        """Step a job at ``floor`` it/s to its end: the node's rows, the messages it sent,
        and the samples it took."""
        rows, sent, samples = [], [], []
        runtime = sim_runtime(tmp_path, cost=Fraction(1), supervisor="sup", emit=rows.append,
                              send=lambda addr, msg_type, body: sent.append((msg_type, body)) or {})
        append, observe = runtime.store.append, runtime.analyzer.observe

        def costly_append(record):
            runtime.clock.advance(16)
            return append(record)

        runtime.store.append = costly_append
        runtime.analyzer.observe = lambda s, sla: samples.append(s) or observe(s, sla)
        sla = ServiceLevelAgreement(min_throughput=floor, window_k=2, sample_period_ms=200)
        runtime.submit_job("t", "sort", {"n": 2000, "seed": 7}, sla=sla,
                           checkpoint_interval=interval)
        while runtime.job("t").status == nd.ST_RUNNING:
            runtime.step("t")
        return rows, sent, samples

    @staticmethod
    def tunes(rows):
        return [(r["from"], r["to"]) for r in rows if r["event"] == "tune"]

    def test_a_floor_less_checkpointing_meets_is_tuned_to_without_a_report(self, tmp_path):
        rows, sent, _ = self.run(tmp_path, floor=700)
        assert self.tunes(rows) == [(16, 32), (32, 64)]
        assert [t for t, _ in sent] == [nd.MSG_RESULT_RETURN]
        assert sent[0][1]["digest"] == reference_digest(2000, 7)

    def test_a_floor_above_the_capture_free_rate_is_reported_at_once(self, tmp_path):
        rows, sent, samples = self.run(tmp_path, floor=1500)
        assert self.tunes(rows) == []
        kind, report = sent[0]
        assert kind == nd.MSG_MONITOR_REPORT
        assert report["emitted_at"] == float(samples[2].timestamp_ms)  # closes the first window
        assert sent[-1][1]["digest"] == reference_digest(2000, 7)

    def test_at_the_cap_the_violation_is_reported(self, tmp_path):
        rows, sent, _ = self.run(tmp_path / "at-cap", floor=950, interval=128)
        assert self.tunes(rows) == []
        assert sent[0][0] == nd.MSG_MONITOR_REPORT
        # from interval 16 the node doubles up to the cap, and then reports
        rows, sent, _ = self.run(tmp_path / "to-cap", floor=950)
        assert self.tunes(rows) == [(16, 32), (32, 64), (64, 128)]
        last_tune = [r for r in rows if r["event"] == "tune"][-1]
        assert sent[0][0] == nd.MSG_MONITOR_REPORT
        assert sent[0][1]["emitted_at"] > last_tune["t"]  # confirmed anew at interval 128


class TestTransfer:
    def migrate_bundle(self, tmp_path, n=500, until=249, sla=None):
        source = sim_runtime(tmp_path, withdraw_at=until)  # parks the job at ``until``
        source.submit_job("jm", "sort", {"n": n, "seed": 42}, sla=sla, checkpoint_interval=16)
        run_to(source, "jm", until)
        return source.prepare_transfer("jm")

    def test_resume_executes_exactly_remaining_iterations(self, tmp_path):
        bundle, info = self.migrate_bundle(tmp_path)
        assert info["iterations_before"] == 249
        rows = []
        target = sim_runtime(tmp_path / "t", emit=rows.append)
        ack = target.resume_from_bundle(bundle)
        assert ack["resumed_at_iteration"] == 249
        entry = target.job("jm")
        run_to_completion(target, "jm")
        steps = sum(r["end"] - r["first"] for r in rows if r["event"] == "steps")
        assert steps == 251
        assert entry.task.digest() == reference_digest(500, 42)

    def test_first_sample_after_resume_reflects_carried_progress(self, tmp_path):
        bundle, _ = self.migrate_bundle(tmp_path, sla=DEFAULT_TEST_SLA)
        target = sim_runtime(tmp_path / "t")
        target.resume_from_bundle(bundle)
        samples = []
        observe = target.analyzer.observe
        target.analyzer.observe = lambda s, sla: samples.append(s) or observe(s, sla)
        target.run_iteration("jm")  # one step outlasts the sample period: it takes a sample
        first = samples[0]
        assert (first.provider_id, first.iterations_done) == ("sim1", 250)

    def test_corrupted_bundle_leaves_node_unchanged(self, tmp_path):
        bundle, _ = self.migrate_bundle(tmp_path, n=50, until=10)
        corrupted = bytearray(bundle)
        corrupted[4 + int.from_bytes(bundle[:4], "big") + 15] ^= 0x01  # the record's seq
        target = sim_runtime(tmp_path / "t")
        with pytest.raises(cp.CodecError):
            target.resume_from_bundle(bytes(corrupted))
        assert target.jobs == {}

    def test_duplicate_job_rejected(self, tmp_path):
        bundle, _ = self.migrate_bundle(tmp_path, n=50, until=10)
        target = sim_runtime(tmp_path / "t")
        target.resume_from_bundle(bundle)
        stored = target.store.path_for("jm").read_bytes()
        with pytest.raises(nd.DuplicateJob):
            target.resume_from_bundle(bundle)
        assert target.store.path_for("jm").read_bytes() == stored  # nothing written

    def test_a_transfer_whose_first_write_fails_leaves_no_job(self, tmp_path):
        bundle, _ = self.migrate_bundle(tmp_path, n=50, until=10)
        target = sim_runtime(tmp_path / "t")
        target.store.append = disk_full
        with pytest.raises(OSError):
            target.serve(nd.MSG_CHECKPOINT_TRANSFER, bundle)
        assert target.jobs == {}
        del target.store.append
        assert target.serve(nd.MSG_CHECKPOINT_TRANSFER, bundle)["resumed_at_iteration"] == 10
        run_to_completion(target, "jm")
        assert target.job("jm").task.digest() == reference_digest(50, 42)

    def test_the_target_resumes_from_the_record_it_received(self, tmp_path):
        bundle, _ = self.migrate_bundle(tmp_path, n=50, until=10)
        received = transfer_bundle(bundle)
        target = sim_runtime(tmp_path / "t")
        target.resume_from_bundle(bundle)
        entry = target.job("jm")
        assert [cp.encode(r) for r in entry.lineage] == [received]
        assert target.store.path_for("jm").read_bytes() == received  # no capture of its own
        assert entry.seq_next == entry.lineage[0].seq + 1

    def test_a_withdrawal_on_a_checkpoint_boundary_ships_one_full_record(self, tmp_path):
        source = sim_runtime(tmp_path, withdraw_at=8)
        source.submit_job("jb", "sort", {"n": 40, "seed": 3}, checkpoint_interval=4)
        run_to(source, "jb", 8)  # checkpoints at 4 and 8; the withdrawal parks at 8
        entry = source.job("jb")
        assert (entry.status, entry.since_checkpoint) == (nd.ST_QUIESCED, 0)
        records = source.store.load("jb")
        assert [r.kind for r in records] == [cp.KIND_FULL, cp.KIND_INCREMENTAL,
                                            cp.KIND_INCREMENTAL, cp.KIND_FULL]
        assert entry.lineage == records[-1:]
        bundle, _ = source.prepare_transfer("jb")
        assert source.store.load("jb") == records  # the transfer wrote no record
        shipped = cp.decode(transfer_bundle(bundle))
        assert shipped == records[-1]
        assert cp.compose(shipped, []).fields == entry.task.state.fields

    @pytest.mark.parametrize("iteration,done", [(10, 1), (60, 0)])
    def test_forged_sort_state_rejected(self, tmp_path, iteration, done):
        bundle = forged_bundle(iteration, done)
        target = sim_runtime(tmp_path / "t")
        with pytest.raises(workload.InvalidState):
            target.resume_from_bundle(bundle)
        assert target.jobs == {}
        assert not target.store.path_for("forged").exists()

    def test_incremental_first_bundle_rejected(self, tmp_path):
        state = workload.init_sort(5, 1, job_id="x").state
        inc = cp.capture_incremental(state, images_of(state), 1)
        target = sim_runtime(tmp_path / "t")
        with pytest.raises(cp.LineageBroken):
            target.resume_from_bundle(transfer_payload(cp.encode(inc)))

    def test_resume_of_completed_state_reports_result(self, tmp_path):
        task = workload.init_sort(5, 1, job_id="done1")
        while not task.done:
            task.step()
        bundle = transfer_payload(cp.encode(cp.capture_full(task.state, 0)))
        target = sim_runtime(tmp_path / "t")
        target.resume_from_bundle(bundle)
        msgs = target.run_iteration("done1")
        assert msgs[0][0] == nd.MSG_RESULT_RETURN
        assert msgs[0][1]["digest"] == reference_digest(5, 1)
        assert target.job("done1").status == nd.ST_DONE

    def test_a_failed_hand_off_resumes_a_parked_job(self, tmp_path):
        def cut(addr, msg_type, body):
            raise ConnectionResetError("wire cut")

        source = sim_runtime(tmp_path, withdraw_at=10, send=cut)
        source.submit_job("ja", "sort", {"n": 30, "seed": 6})
        run_to(source, "ja", 10)
        entry = source.job("ja")
        assert entry.status == nd.ST_QUIESCED
        with pytest.raises(TransferFailed):
            source.hand_off("ja", "127.0.0.1:7002")
        assert (entry.status, entry.task.iterations_done) == (nd.ST_RUNNING, 10)
        run_to_completion(source, "ja")
        assert entry.task.digest() == reference_digest(30, 6)

    def test_failed_final_capture_leaves_the_job_running(self, tmp_path):
        source = sim_runtime(tmp_path, send=lambda *request: pytest.fail("a payload was sent"))
        source.submit_job("jp", "sort", {"n": 30, "seed": 6}, checkpoint_interval=5)
        run_to(source, "jp", 5)

        def full(record):
            raise OSError(errno.ENOSPC, "No space left on device")

        source.store.append = full
        with pytest.raises(TransferFailed):
            source.hand_off("jp", "127.0.0.1:7002")
        del source.store.append
        entry = source.job("jp")
        assert (entry.status, entry.task.iterations_done) == (nd.ST_RUNNING, 5)
        run_to_completion(source, "jp")
        assert entry.task.digest() == reference_digest(30, 6)

    def test_hand_off_after_a_failed_send(self, tmp_path):
        def cut(addr, msg_type, body):
            raise ConnectionResetError("wire cut")

        source = sim_runtime(tmp_path, send=cut)
        source.submit_job("jr", "sort", {"n": 60, "seed": 8}, checkpoint_interval=2)
        run_to(source, "jr", 10)
        with pytest.raises(TransferFailed):
            source.hand_off("jr", "127.0.0.1:7002")
        run_to(source, "jr", 14)
        target = sim_runtime(tmp_path / "t")
        source.send = lambda addr, msg_type, body: target.serve(msg_type, body)
        info, ack = source.hand_off("jr", "127.0.0.1:7002")
        assert info["iterations_before"] == ack["resumed_at_iteration"] == 14
        run_to_completion(target, "jr")
        assert target.job("jr").task.digest() == reference_digest(60, 8)

    def test_migrate_request_to_the_source_itself_is_refused(self, tmp_path):
        source = sim_runtime(tmp_path, send=lambda *request: pytest.fail("a payload was sent"))
        source.submit_job("js", "sort", {"n": 30, "seed": 6}, checkpoint_interval=5)
        run_to(source, "js", 5)
        with pytest.raises(nd.InvalidJobState):
            source.serve(nd.MSG_MIGRATE_REQUEST,
                         {"job_id": "js", "target_id": "sim1", "target_addr": "127.0.0.1:7002"})
        entry = source.job("js")
        assert (entry.status, entry.task.iterations_done) == (nd.ST_RUNNING, 5)
        run_to_completion(source, "js")
        assert entry.task.digest() == reference_digest(30, 6)


def open_files(root):
    """The files under ``root`` that this process holds open, one entry a descriptor."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if target.startswith(f"{root}{os.sep}"):
            held.append(target)
    return sorted(held)


def fail_writes(monkeypatch):
    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cp.os, "write", full)


class TestHeldFile:
    """A node writes a job's records through one descriptor, held from the job's
    first record until the job stops running here, and never past its node."""

    def test_a_job_holds_one_file_until_it_completes(self, tmp_path):
        runtime = sim_runtime(tmp_path, cost=Fraction(1))
        runtime.submit_job("jh", "sort", {"n": 60, "seed": 3}, checkpoint_interval=4)
        run_to(runtime, "jh", 20)
        assert open_files(tmp_path) == [str(runtime.store.path_for("jh"))]
        run_to_completion(runtime, "jh")
        assert open_files(tmp_path) == []

    def test_a_failed_job_closes_its_file(self, tmp_path):
        rows = []
        runtime = sim_runtime(tmp_path, emit=rows.append)
        runtime.submit_job("jf", "sort", {"n": 30, "seed": 3})

        def broken_step(k=1):
            raise RuntimeError("step failed")

        runtime.job("jf").task.step = broken_step
        assert dict(runtime.run_iteration("jf"))[nd.MSG_RESULT_RETURN]["error"] == "RuntimeError"
        assert runtime.job("jf").status == nd.ST_FAILED
        assert [r["error"] for r in rows if r["event"] == "failed"] == ["RuntimeError"]
        assert open_files(tmp_path) == []

    def test_a_moved_job_closes_its_file_at_its_park(self, tmp_path):
        source = sim_runtime(tmp_path / "a", withdraw_at=10)
        target = sim_runtime(tmp_path / "b")
        source.send = lambda addr, msg_type, body: target.serve(msg_type, body)
        source.submit_job("jt", "sort", {"n": 30, "seed": 3})
        run_to(source, "jt", 10)
        assert open_files(tmp_path / "a") == []  # parked: closed once the park's record is in
        source.hand_off("jt", "127.0.0.1:7002")
        assert open_files(tmp_path / "b") == [str(target.store.path_for("jt"))]
        run_to_completion(target, "jt")
        assert open_files(tmp_path) == []

    def test_a_parked_job_that_resumes_opens_its_file_again(self, tmp_path):
        def cut(addr, msg_type, body):
            raise ConnectionResetError("wire cut")

        source = sim_runtime(tmp_path, withdraw_at=10, send=cut)
        source.submit_job("jr", "sort", {"n": 40, "seed": 6}, checkpoint_interval=4)
        run_to(source, "jr", 10)
        with pytest.raises(TransferFailed):
            source.hand_off("jr", "127.0.0.1:7002")
        assert open_files(tmp_path) == []
        run_to(source, "jr", 14)  # the next capture, 4 after the park's
        assert open_files(tmp_path) == [str(source.store.path_for("jr"))]
        run_to_completion(source, "jr")
        records = source.store.load("jr")  # the whole file decodes
        assert [r.seq for r in records] == list(range(len(records)))
        assert open_files(tmp_path) == []

    def test_a_dropped_job_closes_its_file(self, tmp_path):
        """Dropped while parked (``a``, at the withdrawal) or while running (``b``)."""
        runtime = sim_runtime(tmp_path, withdraw_at=5, supervisor="sup",
                              send=lambda *msg: {"ok": True, "ended": ["a", "b"]})
        runtime.submit_job("a", "sort", {"n": 12, "seed": 2})
        runtime.submit_job("b", "sort", {"n": 12, "seed": 3})
        assert len(open_files(tmp_path)) == 2
        run_to(runtime, "a", 5, call="step")
        assert [runtime.job(j).status for j in "ab"] == [nd.ST_TOMBSTONED] * 2
        assert open_files(tmp_path) == []

    @pytest.mark.parametrize("request_kind", [nd.MSG_JOB_SUBMIT, nd.MSG_CHECKPOINT_TRANSFER],
                             ids=["submit", "transfer"])
    def test_a_refused_admission_closes_the_file_it_opened(self, tmp_path, monkeypatch,
                                                           request_kind):
        if request_kind == nd.MSG_JOB_SUBMIT:
            body = {"job_id": "jr", "task_kind": "sort", "params": {"n": 20, "seed": 1}}
        else:
            state = workload.init_sort(20, 1, job_id="jr").state
            body = transfer_payload(cp.encode(cp.capture_full(state, 0)))
        runtime = sim_runtime(tmp_path)
        with monkeypatch.context() as patch:
            fail_writes(patch)
            with pytest.raises(OSError):
                runtime.serve(request_kind, body)
        assert runtime.jobs == {}
        assert open_files(tmp_path) == []
        runtime.serve(request_kind, body)  # the retry opens it again, and runs
        run_to_completion(runtime, "jr")
        assert runtime.job("jr").task.digest() == reference_digest(20, 1)
        assert open_files(tmp_path) == []

    def test_a_stopped_daemon_closes_the_file_of_a_running_job(self, tmp_path):
        runtime = nd.NodeRuntime(provider_id="d2", clock=nd.WallClock(), store_dir=tmp_path)
        d = nd.NodeDaemon(runtime)
        d.start()
        runtime.submit_job("js", "sort", {"n": 50, "seed": 4})  # admitted, never started
        assert open_files(tmp_path) == [str(runtime.store.path_for("js"))]
        d.stop()
        assert runtime.job("js").status == nd.ST_RUNNING
        assert open_files(tmp_path) == []

    def test_a_collected_store_closes_its_files(self, tmp_path):
        store = cp.CheckpointStore(tmp_path)
        store.append(cp.capture_full(workload.init_sort(8, 1, job_id="jg").state, 0))
        assert len(open_files(tmp_path)) == 1
        del store
        gc.collect()
        assert open_files(tmp_path) == []

    def test_the_descriptor_count_is_unchanged_around_every_ending(self, tmp_path, monkeypatch):
        """The process's whole descriptor table, around one job per ending."""
        before = len(os.listdir("/proc/self/fd"))
        self.test_a_job_holds_one_file_until_it_completes(tmp_path / "done")
        self.test_a_failed_job_closes_its_file(tmp_path / "failed")
        self.test_a_moved_job_closes_its_file_at_its_park(tmp_path / "moved")
        self.test_a_parked_job_that_resumes_opens_its_file_again(tmp_path / "resumed")
        self.test_a_dropped_job_closes_its_file(tmp_path / "dropped")
        for kind in (nd.MSG_JOB_SUBMIT, nd.MSG_CHECKPOINT_TRANSFER):
            self.test_a_refused_admission_closes_the_file_it_opened(
                tmp_path / f"refused-{kind}", monkeypatch, kind)
        self.test_a_stopped_daemon_closes_the_file_of_a_running_job(tmp_path / "stopped")
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_job_that_comes_back_appends_after_its_earlier_records(self, tmp_path):
        """A node keeps a job it moved away as tombstoned, so the job comes back to
        the node restarted on the same store: its file goes on where it ended."""
        a = sim_runtime(tmp_path / "a", withdraw_at=10)
        b = sim_runtime(tmp_path / "b", withdraw_at=20)
        a.submit_job("jb", "sort", {"n": 40, "seed": 5}, checkpoint_interval=4)
        run_to(a, "jb", 10)
        a.send = lambda addr, msg_type, body: b.serve(msg_type, body)
        a.hand_off("jb", "127.0.0.1:7002")
        before = a.store.load("jb")
        run_to(b, "jb", 20)
        back = sim_runtime(tmp_path / "a")
        b.send = lambda addr, msg_type, body: back.serve(msg_type, body)
        b.hand_off("jb", "127.0.0.1:7001")
        run_to_completion(back, "jb")
        assert back.job("jb").task.digest() == reference_digest(40, 5)
        records = back.store.load("jb")  # the whole file decodes
        assert records[:len(before)] == before
        later = records[len(before):]
        assert later[0] == b.job("jb").lineage[0]  # the record the move shipped
        reference = workload.init_sort(40, 5, job_id="jb")
        for _ in range(36):  # the last capture came after iteration 36
            reference.step()
        assert cp.compose(later[0], later[1:]).fields == reference.state.fields
        assert open_files(tmp_path) == []

    def test_only_the_first_record_opens_the_file(self, tmp_path, monkeypatch):
        """After a job's first record, each capture and the park is one write."""
        opened, writes, os_open, os_write = [], [], os.open, os.write

        def counting_open(path, *args, **kwargs):
            if str(path).startswith(str(tmp_path)):
                opened.append(path)
            return os_open(path, *args, **kwargs)

        def counting_write(fd, data):
            writes.append(fd)
            return os_write(fd, data)

        monkeypatch.setattr(cp.os, "open", counting_open)
        runtime = sim_runtime(tmp_path, withdraw_at=30)
        runtime.submit_job("jo", "sort", {"n": 40, "seed": 6}, checkpoint_interval=4)
        monkeypatch.setattr(cp.os, "write", counting_write)
        run_to(runtime, "jo", 30)  # captures, then the park's full record
        monkeypatch.undo()
        assert runtime.job("jo").status == nd.ST_QUIESCED
        assert opened == [runtime.store.path_for("jo")]
        assert len(writes) == len(runtime.store.load("jo")) - 1 == 8


def transfer_payload(bundle: bytes, settings: bytes = b"{}") -> bytes:
    """A CHECKPOINT_TRANSFER payload: settings length, settings JSON, record bundle."""
    return struct.pack(">I", len(settings)) + settings + bundle


def forged_bundle(iteration, done):
    """A well-formed transfer of a sort at iteration 10 of 50 whose counter and
    done flag were then rewritten: a state no run of the sort can reach."""
    task = workload.init_sort(50, 7, job_id="forged")
    for _ in range(10):
        task.step()
    task.state.fields[workload.FIELD_ITER] = iteration
    task.state.fields[workload.FIELD_DONE] = done
    return transfer_payload(cp.encode(cp.capture_full(task.state, 0)))


BAD_TRAILER_BUNDLE = cp.encode(cp.capture_full(workload.init_sort(30, 4, job_id="bad-trailer")
                                               .state, 0))


def send_request(address, msg_type, payload, timeout=10.0):
    return nd.request(address, msg_type, payload, timeout=timeout)


class RefusingSupervisor(nd.FrameServer):
    """A supervisor endpoint that answers every frame with an ERROR."""

    def handle(self, msg_type, payload):
        raise ValueError("refused by stub")


@pytest.fixture
def refusing_supervisor():
    stub = RefusingSupervisor()
    stub.start()
    yield stub
    stub.stop()


class TestDaemon:
    def test_a_stopped_server_leaves_no_accept_thread(self, tmp_path):
        before = set(threading.enumerate())
        for i in range(4):
            runtime = nd.NodeRuntime(provider_id=f"s{i}", clock=nd.WallClock(),
                                     store_dir=tmp_path / str(i))
            servers = [nd.NodeDaemon(runtime), SupervisoryListener(lambda t, body: {"ok": True})]
            servers[0].start()
            for server in servers[i % 2:]:  # a connection first, or none
                socket.create_connection(nd.parse_hostport(server.address), timeout=5).close()
            for server in servers:
                server.stop()
        assert [t for t in threading.enumerate() if t.name == "accept" and t not in before] == []

    def test_submit_and_result_return(self, daemon, listener):
        daemon.runtime.supervisor = listener.address
        spec = {"job_id": "w1", "task_kind": "sort", "params": {"n": 40, "seed": 5},
                "sla": DEFAULT_TEST_SLA.to_dict(), "checkpoint_interval": 8}
        msg_type, payload = send_request(daemon.address, nd.MSG_JOB_SUBMIT,
                                         nd.json_payload(spec))
        assert msg_type == nd.MSG_ACK
        kind, body = listener.events.get(timeout=10)
        assert kind == nd.MSG_RESULT_RETURN
        assert body["digest"] == reference_digest(40, 5)
        assert body["iterations_done"] == 40

    def test_a_job_runs_only_after_its_ack_is_written(self, daemon, monkeypatch):
        events = []
        write, run_iteration = nd.send_frame, daemon.runtime.run_iteration

        def slow_ack(sock, msg_type, payload):
            if msg_type == nd.MSG_ACK:
                time.sleep(0.05)
            write(sock, msg_type, payload)
            events.append(nd.MSG_NAMES[msg_type])

        def iteration(job_id):
            events.append("run_iteration")
            return run_iteration(job_id)

        monkeypatch.setattr(nd, "send_frame", slow_ack)
        monkeypatch.setattr(daemon.runtime, "run_iteration", iteration)
        spec = {"job_id": "a", "task_kind": "sort", "params": {"n": 20, "seed": 1}}
        assert send_request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))[0] \
            == nd.MSG_ACK
        assert wait_until(lambda: daemon.runtime.job("a").status == nd.ST_DONE, timeout=5)
        assert events[:3] == ["JOB_SUBMIT", "ACK", "run_iteration"]

    def test_two_concurrent_jobs_progress_independently(self, daemon, listener):
        daemon.runtime.supervisor = listener.address
        for job_id, n, seed in (("c1", 200, 1), ("c2", 150, 2)):
            spec = {"job_id": job_id, "task_kind": "sort", "params": {"n": n, "seed": seed}}
            msg_type, _ = send_request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))
            assert msg_type == nd.MSG_ACK
        results = {}
        for _ in range(2):
            _, body = listener.events.get(timeout=10)
            results[body["job_id"]] = body["digest"]
        assert results == {"c1": reference_digest(200, 1), "c2": reference_digest(150, 2)}

    def test_a_node_runs_its_jobs_on_one_thread(self, tmp_path, listener):
        runtime = nd.NodeRuntime(provider_id="loop1", clock=nd.WallClock(),
                                 store_dir=tmp_path / "loop1", supervisor=listener.address)
        before = set(threading.enumerate())
        d = nd.NodeDaemon(runtime)
        d.start()
        try:
            for seed in range(3):
                spec = {"job_id": f"t{seed}", "task_kind": "sort",
                        "params": {"n": 1500, "seed": seed}}
                assert send_request(d.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))[0] \
                    == nd.MSG_ACK
            assert [t.name for t in set(threading.enumerate()) - before
                    if t.name.startswith("exec-")] == ["exec-loop1"]
            results = [listener.events.get(timeout=10)[1] for _ in range(3)]
        finally:
            d.stop()
        assert {body["job_id"]: body["digest"] for body in results} \
            == {f"t{seed}": reference_digest(1500, seed) for seed in range(3)}

    def test_transfer_over_the_wire(self, daemon, tmp_path, listener):
        source = sim_runtime(tmp_path / "src", withdraw_at=20)
        source.submit_job("wt", "sort", {"n": 60, "seed": 9})
        run_to(source, "wt", 20)
        bundle, info = source.prepare_transfer("wt")
        daemon.runtime.supervisor = listener.address
        msg_type, payload = send_request(daemon.address, nd.MSG_CHECKPOINT_TRANSFER, bundle)
        assert msg_type == nd.MSG_ACK
        assert nd.parse_json(payload)["resumed_at_iteration"] == 20
        kind, body = listener.events.get(timeout=10)
        assert kind == nd.MSG_RESULT_RETURN
        assert body["digest"] == reference_digest(60, 9)

    def test_migrated_job_keeps_its_settings(self, daemon, tmp_path, listener):
        source = sim_runtime(tmp_path / "src", withdraw_at=20)  # parked at 20, past 16's capture
        daemon.runtime.supervisor = listener.address
        source.submit_job("ks", "sort", {"n": 60, "seed": 9}, sla=DEFAULT_TEST_SLA,
                          checkpoint_interval=8)
        run_to(source, "ks", 20)
        info, ack = source.hand_off("ks", daemon.address)  # sent with the default, nd.call
        assert info["iterations_before"] == ack["resumed_at_iteration"] == 20
        assert source.job("ks").status == nd.ST_TOMBSTONED
        entry = daemon.runtime.job("ks")
        assert (entry.sla, entry.checkpoint_interval) == (DEFAULT_TEST_SLA, 8)
        assert entry.next_sample_ms is not None  # sampled against its SLA
        kind, body = listener.events.get(timeout=10)
        assert kind == nd.MSG_RESULT_RETURN
        assert body["digest"] == reference_digest(60, 9)
        iterations = [dict((d.field_id, d.new_value) for d in r.deltas)[workload.FIELD_ITER]
                      for r in daemon.runtime.store.load("ks")]
        assert iterations == [20, 28, 36, 44, 52]

    @pytest.mark.parametrize("payload", [pytest.param(transfer_payload(BAD_TRAILER_BUNDLE, s),
                                                      id=s.decode()) for s in (
        b"{not json", b"[8]", b'{"checkpoint_interval": "8"}', b'{"checkpoint_interval": 0}',
        b'{"sla": {"window_k": 3}}', b'{"sla": {"min_throughput": -1}}')] + [
        pytest.param(b"\x00\x00\x02", id="under-4-bytes"),
        pytest.param(transfer_payload(BAD_TRAILER_BUNDLE)[:5], id="settings-past-the-end")])
    def test_malformed_trailer_yields_typed_error(self, daemon, payload):
        msg_type, reply = send_request(daemon.address, nd.MSG_CHECKPOINT_TRANSFER, payload)
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(reply)["error"] == "MalformedPayload"
        assert daemon.runtime.jobs == {}

    def test_a_refused_withdrawal_resumes_the_job_at_once(self, tmp_path, refusing_supervisor):
        rows = []
        runtime = nd.NodeRuntime(provider_id="g1", clock=nd.WallClock(),
                                 store_dir=tmp_path / "g1", withdraw_at=25, emit=rows.append,
                                 supervisor=refusing_supervisor.address)
        d = nd.NodeDaemon(runtime)
        d.start()
        try:
            spec = {"job_id": "g", "task_kind": "sort", "params": {"n": 60, "seed": 3}}
            msg_type, _ = send_request(d.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))
            assert msg_type == nd.MSG_ACK
            assert wait_until(lambda: len(rows) == 6, timeout=10)
        finally:
            d.stop()
        assert [(r["event"], r.get("first"), r.get("end"), r.get("iteration"), r.get("message"))
                for r in rows] == [
            ("withdraw", None, None, 25, None), ("steps", 0, 25, None, None),
            ("send_failed", None, None, None, "WITHDRAW_NOTICE"),
            ("steps", 25, 60, None, None), ("result", None, None, 60, None),
            ("send_failed", None, None, None, "RESULT_RETURN")]
        assert rows[4]["digest"] == reference_digest(60, 3)

    def test_other_jobs_hold_until_the_withdrawal_is_answered(self, tmp_path):
        rows, held = [], []
        runtime = nd.NodeRuntime(provider_id="h1", clock=nd.WallClock(),
                                 store_dir=tmp_path / "h1", withdraw_at=25, emit=rows.append)

        def progress():
            return {job_id: e.task.iterations_done for job_id, e in runtime.jobs.items()}

        class SlowSupervisor(nd.FrameServer):
            # answers a withdrawal 0.2 s late, moving nothing, and records what ran meanwhile
            def handle(self, msg_type, payload):
                if msg_type == nd.MSG_WITHDRAW_NOTICE:
                    time.sleep(0.05)
                    before = progress()
                    time.sleep(0.2)
                    held.append((before, progress()))
                return nd.MSG_ACK, nd.json_payload({"ok": True, "ended": []})

        sup = SlowSupervisor()
        sup.start()
        runtime.supervisor = sup.address
        d = nd.NodeDaemon(runtime)
        d.start()
        try:
            for job_id, seed in (("a", 1), ("b", 2)):
                spec = {"job_id": job_id, "task_kind": "sort", "params": {"n": 2000, "seed": seed}}
                assert send_request(d.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))[0] \
                    == nd.MSG_ACK
            assert wait_until(lambda: sum(r["event"] == "result" for r in rows) == 2, timeout=30)
        finally:
            d.stop()
            sup.stop()
        [(before, after)] = held
        assert before == after and 25 in before.values() and len(before) == 2, held
        assert {r["job_id"]: r["digest"] for r in rows if r["event"] == "result"} \
            == {"a": reference_digest(2000, 1), "b": reference_digest(2000, 2)}

    def test_a_refused_result_leaves_a_row(self, tmp_path, refusing_supervisor):
        rows = []
        runtime = nd.NodeRuntime(provider_id="r1", clock=nd.WallClock(),
                                 store_dir=tmp_path / "r1", emit=rows.append,
                                 supervisor=refusing_supervisor.address)
        d = nd.NodeDaemon(runtime)
        d.start()
        try:
            spec = {"job_id": "r", "task_kind": "sort", "params": {"n": 20, "seed": 3}}
            assert send_request(d.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))[0] \
                == nd.MSG_ACK
            assert wait_until(lambda: any(r["event"] == "send_failed" for r in rows), timeout=5)
            assert [(r["event"], r.get("message"), r.get("error")) for r in rows
                    if r["event"] != "steps"] == [
                ("result", None, None),
                ("send_failed", "RESULT_RETURN", "ValueError: refused by stub")]
        finally:
            d.stop()

    def test_a_refused_registration_stops_at_once(self, tmp_path, refusing_supervisor):
        runtime = nd.NodeRuntime(provider_id="r2", clock=nd.WallClock(), store_dir=tmp_path / "r2",
                                 supervisor=refusing_supervisor.address)
        d = nd.NodeDaemon(runtime)
        template = ResourceSpecTemplate(provider_id="r2", address=d.address,
                                        cpu_mhz=2800, memory_mb=512)
        try:
            with pytest.raises(nd.RequestRefused, match="refused by stub"):
                d.register_with_supervisor(template)
        finally:
            d.stop()

    @pytest.mark.parametrize("iteration,done", [(10, 1), (60, 0)])
    def test_forged_transfer_yields_typed_error(self, daemon, iteration, done):
        msg_type, reply = send_request(daemon.address, nd.MSG_CHECKPOINT_TRANSFER,
                                       forged_bundle(iteration, done))
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(reply)["error"] == "InvalidState"
        assert daemon.runtime.jobs == {}

    def test_sla_update(self, daemon):
        spec = {"job_id": "s1", "task_kind": "sort", "params": {"n": 40, "seed": 5},
                "sla": DEFAULT_TEST_SLA.to_dict()}
        assert send_request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))[0] \
            == nd.MSG_ACK
        new_sla = ServiceLevelAgreement(min_throughput=0.5, window_k=2, sample_period_ms=20)
        msg_type, _ = send_request(daemon.address, nd.MSG_SLA_UPDATE, nd.json_payload(
            {"job_id": "s1", "sla": new_sla.to_dict()}))
        assert msg_type == nd.MSG_ACK
        assert daemon.runtime.job("s1").sla == new_sla

    @pytest.mark.parametrize("body,error", [
        ({"job_id": "ghost", "sla": DEFAULT_TEST_SLA.to_dict()}, "UnknownJob"),
        ({"sla": DEFAULT_TEST_SLA.to_dict()}, "MalformedPayload"),
        ({"job_id": "ghost", "sla": None}, "MalformedPayload"),
        ({"job_id": "ghost", "sla": {"window_k": 3}}, "MalformedPayload")])
    def test_bad_sla_update_yields_typed_error(self, daemon, body, error):
        msg_type, reply = send_request(daemon.address, nd.MSG_SLA_UPDATE, nd.json_payload(body))
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(reply)["error"] == error

    def test_corrupt_transfer_yields_typed_error(self, daemon):
        msg_type, payload = send_request(daemon.address, nd.MSG_CHECKPOINT_TRANSFER,
                                         transfer_payload(b"MAF1" + b"\x00" * 20))
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(payload)["error"] in ("Truncated", "ChecksumFailure",
                                                   "MalformedRecord", "BadMagic")

    def test_unknown_message_type_yields_error(self, daemon):
        msg_type, payload = send_request(daemon.address, nd.MSG_MONITOR_REPORT, b"{}")
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(payload)["error"] == "UnsupportedMessage"

    def test_malformed_json_yields_error(self, daemon):
        msg_type, payload = send_request(daemon.address, nd.MSG_JOB_SUBMIT, b"\xff\x00{")
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(payload)["error"] == "MalformedPayload"

    def test_bad_frame_gets_error_then_close(self, daemon):
        host, port = nd.parse_hostport(daemon.address)
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(struct.pack(">I", 0))  # length must cover the type byte
            msg_type, _ = nd.recv_frame(sock)
            assert msg_type == nd.MSG_ERROR
            assert sock.recv(1) == b""  # server closed

    def test_daemon_survives_garbage_and_still_serves(self, daemon):
        host, port = nd.parse_hostport(daemon.address)
        for chunk in (b"\x00", b"GET / HTTP/1.1\r\n\r\n", b"\xff" * 64):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(chunk)
        spec = {"job_id": "alive", "task_kind": "sort", "params": {"n": 5, "seed": 1}}
        msg_type, _ = send_request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))
        assert msg_type == nd.MSG_ACK

    def test_bind_failure(self, daemon, tmp_path):
        runtime = nd.NodeRuntime(provider_id="x", clock=nd.WallClock(),
                                 store_dir=tmp_path / "x")
        with pytest.raises(nd.BindFailure):
            nd.NodeDaemon(runtime, listen=daemon.address)


SUBMIT = {"job_id": "j", "task_kind": "sort", "params": {"n": 10, "seed": 1}}
# each field a value that int() or float() would take: the schema takes none of them
COERCIBLE_SLAS = [pytest.param({"min_throughput": "5"}, id="string-floor"),
                  pytest.param({"min_throughput": True}, id="bool-floor"),
                  pytest.param({"min_throughput": 5.0, "window_k": 2.7}, id="float-window"),
                  pytest.param({"min_throughput": 5.0, "sample_period_ms": True},
                               id="bool-period")]


class TestMessageSchema:
    """A body whose field is missing or of another type is refused as MalformedPayload
    before the node acts on it: nothing coerces it, and the node is left as it was."""

    @pytest.mark.parametrize("body", [
        pytest.param({**SUBMIT, "job_id": 7}, id="int-job-id"),
        pytest.param({**SUBMIT, "params": {"n": "not-a-number", "seed": 1}}, id="word-n"),
        pytest.param({**SUBMIT, "params": {"n": "10", "seed": 1}}, id="string-n"),
        pytest.param({**SUBMIT, "params": {"n": True, "seed": 1}}, id="bool-n"),
        pytest.param({**SUBMIT, "params": {"n": 10, "seed": 1.9}}, id="float-seed"),
        pytest.param({**SUBMIT, "params": {"n": 10}}, id="no-seed"),
        pytest.param({**SUBMIT, "sla": {"min_throughput": "5", "window_k": 2.7,
                                        "sample_period_ms": True},
                      "params": {"n": "10", "seed": 1.9}}, id="everything-coercible")] + [
        pytest.param({**SUBMIT, "sla": sla.values[0]}, id=sla.id) for sla in COERCIBLE_SLAS])
    def test_a_malformed_submit_is_refused(self, tmp_path, body):
        runtime = sim_runtime(tmp_path)
        with pytest.raises(nd.MalformedPayload):
            runtime.serve(nd.MSG_JOB_SUBMIT, body)
        assert runtime.jobs == {}
        assert list(tmp_path.rglob("*.ckpt")) == []

    @pytest.mark.parametrize("sla", COERCIBLE_SLAS)
    def test_a_malformed_sla_in_transfer_settings_is_refused(self, tmp_path, sla):
        runtime = sim_runtime(tmp_path)
        settings = nd.json_payload({"sla": sla, "checkpoint_interval": 8})
        with pytest.raises(nd.MalformedPayload):
            runtime.serve(nd.MSG_CHECKPOINT_TRANSFER, transfer_payload(BAD_TRAILER_BUNDLE, settings))
        assert runtime.jobs == {}
        assert list(tmp_path.rglob("*.ckpt")) == []

    @pytest.mark.parametrize("sla", COERCIBLE_SLAS)
    def test_a_malformed_sla_update_is_refused(self, tmp_path, sla):
        runtime = sim_runtime(tmp_path)
        runtime.serve(nd.MSG_JOB_SUBMIT, {**SUBMIT, "sla": DEFAULT_TEST_SLA.to_dict()})
        with pytest.raises(nd.MalformedPayload):
            runtime.serve(nd.MSG_SLA_UPDATE, {"job_id": "j", "sla": sla})
        assert runtime.job("j").sla == DEFAULT_TEST_SLA

    @pytest.mark.parametrize("target_addr", [5, "nohost", ":7002", "127.0.0.1:"])
    def test_a_malformed_migrate_request_has_no_side_effects(self, tmp_path, target_addr):
        """Refused before the park, which would write a record and a ``steps`` row."""
        rows = []
        source = sim_runtime(tmp_path, emit=rows.append,
                             send=lambda *request: pytest.fail("a payload was sent"))
        source.submit_job("jm", "sort", {"n": 30, "seed": 6}, checkpoint_interval=5)
        run_to(source, "jm", 10)
        entry = source.job("jm")
        path = source.store.path_for("jm")
        before = (path.stat().st_size, entry.seq_next, list(rows))
        with pytest.raises(nd.MalformedPayload):
            source.serve(nd.MSG_MIGRATE_REQUEST,
                         {"job_id": "jm", "target_id": "sim2", "target_addr": target_addr})
        assert (path.stat().st_size, entry.seq_next, rows) == before
        assert (entry.status, entry.task.iterations_done) == (nd.ST_RUNNING, 10)
        run_to_completion(source, "jm")
        assert entry.task.digest() == reference_digest(30, 6)
