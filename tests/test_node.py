import errno
import math
import socket
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jobmig import checkpoint as cp
from jobmig import node as nd
from jobmig import workload
from jobmig.broker import ResourceSpecTemplate
from jobmig.control import TransferFailed
from jobmig.monitor import ReportKind, ServiceLevelAgreement

from conftest import DEFAULT_TEST_SLA, images_of, reference_digest, wait_until


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

    def test_wall_clock_monotonic(self):
        clock = nd.WallClock()
        a = clock.now_ms()
        assert clock.now_ms() >= a >= 0


def sim_runtime(tmp_path, cost=Fraction(57306, 500), speed=Fraction(1), **kw):
    return nd.NodeRuntime(provider_id="sim1", clock=nd.VirtualClock(),
                          store_dir=tmp_path / "sim1", step_cost_ms=cost / speed, **kw)


def park(runtime, job_id):
    """Park the job at its next yield point, as a withdrawal does."""
    runtime.job(job_id).quiesce_requested = True
    runtime.run_iteration(job_id)


def run_to_completion(runtime, job_id):
    msgs = []
    entry = runtime.job(job_id)
    while entry.status == nd.ST_RUNNING:
        msgs.extend(runtime.run_iteration(job_id))
    return msgs


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

    def test_quiesce_honored_at_yield_point(self, tmp_path):
        runtime = sim_runtime(tmp_path)
        runtime.submit_job("j1", "sort", {"n": 20, "seed": 3})
        for _ in range(7):
            runtime.run_iteration("j1")
        park(runtime, "j1")
        entry = runtime.job("j1")
        assert entry.status == nd.ST_QUIESCED
        assert entry.task.iterations_done == 7
        assert runtime.run_iteration("j1") == []  # parked, no further steps
        assert entry.task.iterations_done == 7

    def test_tombstoned_job_never_steps(self, tmp_path):
        runtime = sim_runtime(tmp_path)
        runtime.submit_job("j1", "sort", {"n": 20, "seed": 3})
        runtime.run_iteration("j1")
        park(runtime, "j1")
        runtime.prepare_transfer("j1")
        runtime.finish_transfer("j1")
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
        runtime = sim_runtime(tmp_path, withdraw_at=5)
        runtime.submit_job("j1", "sort", {"n": 12, "seed": 2})
        notices = []
        for _ in range(12):
            notices.extend(m for m in runtime.run_iteration("j1")
                           if m[0] == nd.MSG_WITHDRAW_NOTICE)
        assert len(notices) == 1
        assert notices[0][1]["provider_id"] == "sim1"

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
        runtime.submit_job("j1", "sort", {"n": 50, "seed": 4})  # no SLA: never sampled
        for _ in range(10):
            assert runtime.run_iteration("j1") == []
        # 1 iteration per 100 virtual ms misses a floor of 1000 iterations/s
        sla = ServiceLevelAgreement(min_throughput=1000.0, window_k=2, sample_period_ms=200)
        assert runtime.serve(nd.MSG_SLA_UPDATE, {"job_id": "j1", "sla": sla.to_dict()}) \
            == {"ok": True, "job_id": "j1"}
        reports = [m[1] for m in run_to_completion(runtime, "j1")
                   if m[0] == nd.MSG_MONITOR_REPORT]
        assert reports


class TestTransfer:
    def migrate_bundle(self, tmp_path, n=500, until=249, sla=None):
        source = sim_runtime(tmp_path)
        source.submit_job("jm", "sort", {"n": n, "seed": 42}, sla=sla, checkpoint_interval=16)
        for _ in range(until):
            source.run_iteration("jm")
        park(source, "jm")
        return source.prepare_transfer("jm")

    def test_resume_executes_exactly_remaining_iterations(self, tmp_path):
        bundle, info = self.migrate_bundle(tmp_path)
        assert info["iterations_before"] == 249
        target = sim_runtime(tmp_path / "t")
        ack = target.resume_from_bundle(bundle)
        assert ack["resumed_at_iteration"] == 249
        steps = 0
        entry = target.job("jm")
        while entry.status == nd.ST_RUNNING:
            target.run_iteration("jm")
            steps += 1
        assert steps == 251
        assert entry.task.digest() == reference_digest(500, 42)

    def test_first_sample_after_resume_reflects_carried_progress(self, tmp_path):
        bundle, _ = self.migrate_bundle(tmp_path, sla=DEFAULT_TEST_SLA)
        target = sim_runtime(tmp_path / "t")
        target.resume_from_bundle(bundle)
        target.run_iteration("jm")  # one step outlasts the sample period: it takes a sample
        first = target.analyzer.window("jm")[0]
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
        with pytest.raises(nd.DuplicateJob):
            target.resume_from_bundle(bundle)

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

    def test_abort_transfer_resumes_source(self, tmp_path):
        source = sim_runtime(tmp_path)
        source.submit_job("ja", "sort", {"n": 30, "seed": 6})
        for _ in range(10):
            source.run_iteration("ja")
        park(source, "ja")
        source.prepare_transfer("ja")
        source.abort_transfer("ja")
        entry = source.job("ja")
        assert entry.status == nd.ST_RUNNING
        run_to_completion(source, "ja")
        assert entry.task.digest() == reference_digest(30, 6)

    def test_failed_final_capture_leaves_the_job_running(self, tmp_path):
        source = sim_runtime(tmp_path, send=lambda *request: pytest.fail("a payload was sent"))
        source.submit_job("jp", "sort", {"n": 30, "seed": 6})
        for _ in range(5):
            source.run_iteration("jp")

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
        for _ in range(10):
            source.run_iteration("jr")
        with pytest.raises(TransferFailed):
            source.hand_off("jr", "127.0.0.1:7002")
        for _ in range(4):
            source.run_iteration("jr")
        target = sim_runtime(tmp_path / "t")
        source.send = lambda addr, msg_type, body: target.serve(msg_type, body)
        info, ack = source.hand_off("jr", "127.0.0.1:7002")
        assert info["iterations_before"] == ack["resumed_at_iteration"] == 14
        run_to_completion(target, "jr")
        assert target.job("jr").task.digest() == reference_digest(60, 8)

    def test_migrate_request_to_the_source_itself_is_refused(self, tmp_path):
        source = sim_runtime(tmp_path, send=lambda *request: pytest.fail("a payload was sent"))
        source.submit_job("js", "sort", {"n": 30, "seed": 6})
        for _ in range(5):
            source.run_iteration("js")
        with pytest.raises(nd.InvalidJobState):
            source.serve(nd.MSG_MIGRATE_REQUEST,
                         {"job_id": "js", "target_id": "sim1", "target_addr": "127.0.0.1:7002"})
        entry = source.job("js")
        assert (entry.status, entry.quiesce_requested, entry.task.iterations_done) \
            == (nd.ST_RUNNING, False, 5)
        run_to_completion(source, "js")
        assert entry.task.digest() == reference_digest(30, 6)


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
    def test_submit_and_result_return(self, daemon, listener):
        spec = {"job_id": "w1", "task_kind": "sort", "params": {"n": 40, "seed": 5},
                "sla": DEFAULT_TEST_SLA.to_dict(), "checkpoint_interval": 8,
                "reply_to": listener.address}
        msg_type, payload = send_request(daemon.address, nd.MSG_JOB_SUBMIT,
                                         nd.json_payload(spec))
        assert msg_type == nd.MSG_ACK
        kind, body = listener.events.get(timeout=10)
        assert kind == nd.MSG_RESULT_RETURN
        assert body["digest"] == reference_digest(40, 5)
        assert body["iterations_done"] == 40

    def test_two_concurrent_jobs_progress_independently(self, daemon, listener):
        for job_id, n, seed in (("c1", 200, 1), ("c2", 150, 2)):
            spec = {"job_id": job_id, "task_kind": "sort", "params": {"n": n, "seed": seed},
                    "reply_to": listener.address}
            msg_type, _ = send_request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))
            assert msg_type == nd.MSG_ACK
        results = {}
        for _ in range(2):
            _, body = listener.events.get(timeout=10)
            results[body["job_id"]] = body["digest"]
        assert results == {"c1": reference_digest(200, 1), "c2": reference_digest(150, 2)}

    def test_transfer_over_the_wire(self, daemon, tmp_path, listener):
        source = sim_runtime(tmp_path / "src")
        source.submit_job("wt", "sort", {"n": 60, "seed": 9})
        for _ in range(20):
            source.run_iteration("wt")
        park(source, "wt")
        bundle, info = source.prepare_transfer("wt")
        daemon.supervisor = listener.address
        msg_type, payload = send_request(daemon.address, nd.MSG_CHECKPOINT_TRANSFER, bundle)
        assert msg_type == nd.MSG_ACK
        assert nd.parse_json(payload)["resumed_at_iteration"] == 20
        kind, body = listener.events.get(timeout=10)
        assert kind == nd.MSG_RESULT_RETURN
        assert body["digest"] == reference_digest(60, 9)

    def test_migrated_job_keeps_its_settings(self, daemon, tmp_path, listener):
        source = sim_runtime(tmp_path / "src")
        source.submit_job("ks", "sort", {"n": 60, "seed": 9}, sla=DEFAULT_TEST_SLA,
                          checkpoint_interval=8, reply_to=listener.address)
        for _ in range(20):
            source.run_iteration("ks")
        info, ack = source.hand_off("ks", daemon.address)  # sent with the default, nd.call
        assert info["iterations_before"] == ack["resumed_at_iteration"] == 20
        assert source.job("ks").status == nd.ST_TOMBSTONED
        entry = daemon.runtime.job("ks")
        assert (entry.sla, entry.checkpoint_interval, entry.reply_to) == \
            (DEFAULT_TEST_SLA, 8, listener.address)
        assert entry.next_sample_ms is not None  # sampled against its SLA
        # the daemon has no supervisor: the result can only come back through reply_to
        kind, body = listener.events.get(timeout=10)
        assert kind == nd.MSG_RESULT_RETURN
        assert body["digest"] == reference_digest(60, 9)
        iterations = [dict((d.field_id, d.new_value) for d in r.deltas)[workload.FIELD_ITER]
                      for r in daemon.runtime.store.load("ks")]
        assert iterations == [20, 28, 36, 44, 52]

    @pytest.mark.parametrize("payload", [pytest.param(transfer_payload(BAD_TRAILER_BUNDLE, s),
                                                      id=s.decode()) for s in (
        b"{not json", b"[8]", b'{"checkpoint_interval": "8"}', b'{"checkpoint_interval": 0}',
        b'{"sla": {"window_k": 3}}', b'{"sla": {"min_throughput": -1}}', b'{"reply_to": 7}')] + [
        pytest.param(b"\x00\x00\x02", id="under-4-bytes"),
        pytest.param(transfer_payload(BAD_TRAILER_BUNDLE)[:5], id="settings-past-the-end")])
    def test_malformed_trailer_yields_typed_error(self, daemon, payload):
        msg_type, reply = send_request(daemon.address, nd.MSG_CHECKPOINT_TRANSFER, payload)
        assert msg_type == nd.MSG_ERROR
        assert nd.parse_json(reply)["error"] == "MalformedPayload"
        assert daemon.runtime.jobs == {}

    def test_withdrawn_job_parks_then_resumes_after_grace(self, tmp_path, listener,
                                                         monkeypatch):
        monkeypatch.setattr(nd, "PARK_GRACE_S", 0.5)
        rows = []
        runtime = nd.NodeRuntime(provider_id="g1", clock=nd.WallClock(),
                                 store_dir=tmp_path / "g1", withdraw_at=25, emit=rows.append)
        d = nd.NodeDaemon(runtime, supervisor=listener.address)
        d.start()
        try:
            spec = {"job_id": "g", "task_kind": "sort", "params": {"n": 60, "seed": 3}}
            msg_type, _ = send_request(d.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))
            assert msg_type == nd.MSG_ACK
            assert wait_until(lambda: runtime.job("g").status == nd.ST_QUIESCED, timeout=5)
            assert runtime.job("g").task.iterations_done == 25
            kinds = [listener.events.get(timeout=10) for _ in range(2)]
            assert [k for k, _ in kinds] == [nd.MSG_WITHDRAW_NOTICE, nd.MSG_RESULT_RETURN]
            assert kinds[1][1]["digest"] == reference_digest(60, 3)
            assert [(r["event"], r.get("iteration")) for r in rows if r["event"] != "steps"] \
                == [("withdraw", 25), ("park_expired", 25), ("result", 60)]
        finally:
            d.stop()

    def test_a_refused_result_leaves_a_row(self, tmp_path, refusing_supervisor):
        rows = []
        runtime = nd.NodeRuntime(provider_id="r1", clock=nd.WallClock(),
                                 store_dir=tmp_path / "r1", emit=rows.append)
        d = nd.NodeDaemon(runtime, supervisor=refusing_supervisor.address)
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
        runtime = nd.NodeRuntime(provider_id="r2", clock=nd.WallClock(), store_dir=tmp_path / "r2")
        d = nd.NodeDaemon(runtime, supervisor=refusing_supervisor.address)
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

    def test_daemon_survives_garbage_and_still_serves(self, daemon, listener):
        host, port = nd.parse_hostport(daemon.address)
        for chunk in (b"\x00", b"GET / HTTP/1.1\r\n\r\n", b"\xff" * 64):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(chunk)
        spec = {"job_id": "alive", "task_kind": "sort", "params": {"n": 5, "seed": 1},
                "reply_to": listener.address}
        msg_type, _ = send_request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(spec))
        assert msg_type == nd.MSG_ACK

    def test_bind_failure(self, daemon, tmp_path):
        runtime = nd.NodeRuntime(provider_id="x", clock=nd.WallClock(),
                                 store_dir=tmp_path / "x")
        with pytest.raises(nd.BindFailure):
            nd.NodeDaemon(runtime, listen=daemon.address)
