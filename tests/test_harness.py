import errno
import json
from fractions import Fraction

import numpy as np
import pytest

from jobmig import checkpoint as cp
from jobmig import harness
from jobmig.broker import JobRequirementList, ResourceBroker, ResourceSpecTemplate
from jobmig.control import DecisionAction, JobStatus, SubmitTimeout, SupervisoryAgent
from jobmig.monitor import PerformanceReport, ReportKind, ServiceLevelAgreement
from jobmig.node import (
    MSG_ERROR,
    MSG_MONITOR_REPORT,
    MSG_NAMES,
    MSG_RESULT_RETURN,
    MSG_WITHDRAW_NOTICE,
    ST_DONE,
    ST_QUIESCED,
    ST_RUNNING,
    ST_TOMBSTONED,
    json_payload,
    parse_json,
    request,
)

from conftest import reference_digest, run_to, transfer_bundle, wait_until


class TestBaselineRows:
    def test_every_row_satisfies_the_accounting_identity(self):
        for row in harness.TABLE1_BASELINE:
            assert row.time_source_ms + row.time_target_ms + row.overhead_ms \
                == row.scenario2_total_ms

    def test_known_row_values(self):
        first = harness.TABLE1_BASELINE[0]
        assert (first.n, first.iterations_before) == (500, 249)
        assert 27381 + 25421 + 3620 == 56422 == first.scenario2_total_ms


class TestCalibration:
    def test_per_iteration_cost_matches_float_oracle(self):
        config = harness.calibrate_from_table1()
        oracle = np.mean([r.scenario1_total_ms / r.n for r in harness.TABLE1_BASELINE])
        assert float(config.per_iteration_cost_ms) == pytest.approx(oracle, abs=1e-9)
        assert float(config.per_iteration_cost_ms) == pytest.approx(111.974, abs=1e-3)

    def test_overhead_fit_matches_polyfit_oracle(self):
        config = harness.calibrate_from_table1()
        ns = [r.n for r in harness.TABLE1_BASELINE]
        ovh = [r.overhead_ms for r in harness.TABLE1_BASELINE]
        slope, intercept = np.polyfit(ns, ovh, 1)
        assert float(config.overhead_b) == pytest.approx(slope, abs=1e-9)
        assert float(config.overhead_a) == pytest.approx(intercept, abs=1e-6)
        assert float(config.overhead_b) == pytest.approx(2.1098, abs=1e-4)
        assert float(config.overhead_a) == pytest.approx(2614.5, abs=1e-6)

    def test_fit_within_ten_percent_of_each_overhead(self):
        config = harness.calibrate_from_table1()
        for row in harness.TABLE1_BASELINE:
            fitted = float(config.overhead_ms(row.n))
            assert abs(fitted - row.overhead_ms) / row.overhead_ms < 0.10

    def test_target_speed_factor(self):
        config = harness.calibrate_from_table1()
        src = np.mean([r.scenario1_total_ms / r.n for r in harness.TABLE1_BASELINE])
        tgt = np.mean([r.time_target_ms / (r.n - r.iterations_before)
                       for r in harness.TABLE1_BASELINE])
        assert float(config.speed_of("server2")) == pytest.approx(src / tgt, abs=1e-9)
        assert config.speed_of("server1") == Fraction(1)
        assert float(config.speed_of("server2")) == pytest.approx(1.16561, abs=1e-4)

    def test_overhead_monotone_in_n(self):
        config = harness.calibrate_from_table1()
        values = [config.overhead_ms(n) for n in (100, 500, 1000, 2500, 5000)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_fit_line_on_exact_points(self):
        a, b = harness.fit_line([1, 2, 3], [10, 12, 14])
        assert (a, b) == (Fraction(8), Fraction(2))


class TestScenario1Sim:
    def test_total_is_n_times_cost_exactly(self, tmp_path):
        config = harness.calibrate_from_table1()
        outcome = harness.run_scenario1(500, 42, workdir=tmp_path)
        assert outcome.row.scenario1_total_ms == 500 * config.per_iteration_cost_ms
        assert outcome.iterations == 500

    def test_single_iteration_job(self, tmp_path):
        config = harness.calibrate_from_table1()
        outcome = harness.run_scenario1(1, 7, workdir=tmp_path)
        assert outcome.row.scenario1_total_ms == config.per_iteration_cost_ms

    def test_deterministic_across_runs(self, tmp_path):
        a = harness.run_scenario1(100, 5, workdir=tmp_path / "a")
        b = harness.run_scenario1(100, 5, workdir=tmp_path / "b")
        assert a.row.scenario1_total_ms == b.row.scenario1_total_ms
        assert a.digest == b.digest
        assert a.step_log.rows == b.step_log.rows
        assert store_bytes(tmp_path / "a") == store_bytes(tmp_path / "b")
        # and through an SLA miss, which the node cannot tune away in sim: it moves the job
        c, d = (slow_provider_env(tmp_path / side) for side in ("c", "d"))
        assert c.run_job("hot") == d.run_job("hot")
        assert "reschedule" in [r.get("decision") for r in c.step_log.rows]
        assert "tune" not in [r["event"] for r in c.step_log.rows]
        assert c.step_log.rows == d.step_log.rows
        assert store_bytes(tmp_path / "c") == store_bytes(tmp_path / "d")


class TestScenario2Sim:
    def test_reproduces_first_baseline_shape(self, tmp_path):
        outcome = harness.run_scenario2(500, 42, migrate_at=249, workdir=tmp_path)
        row = outcome.row
        assert row.iterations_before == 249
        config = harness.calibrate_from_table1()
        assert row.time_source_ms == 249 * config.per_iteration_cost_ms
        assert row.time_target_ms == \
            251 * config.per_iteration_cost_ms / config.speed_of("server2")
        assert row.overhead_ms == config.overhead_ms(500)
        row.check_identity()

    def test_digest_equals_scenario1(self, tmp_path):
        outcome = harness.run_scenario2(300, 11, migrate_at=150, workdir=tmp_path)
        ref = harness.run_scenario1(300, 11, workdir=tmp_path / "ref")
        assert outcome.digest == ref.digest == reference_digest(300, 11)

    def test_single_ownership_and_no_replayed_work(self, tmp_path):
        outcome = harness.run_scenario2(120, 3, migrate_at=50, workdir=tmp_path)
        log = outcome.step_log
        job_id = outcome.migration.job_id
        log.assert_single_ownership(job_id)
        # exactly the one withdrawal-triggered migration, no spurious reports
        assert outcome.migration.from_provider == "server1"
        assert outcome.migration.to_provider == "server2"
        steps = log.for_job(job_id)
        source_steps = [i for p, i in steps if p == "server1"]
        target_steps = [i for p, i in steps if p == "server2"]
        assert source_steps == list(range(50))
        assert target_steps == list(range(50, 120))

    def test_default_migration_point_is_half(self, tmp_path):
        outcome = harness.run_scenario2(100, 2, workdir=tmp_path)
        assert outcome.row.iterations_before == 50

    def test_bad_migration_point_rejected(self, tmp_path):
        with pytest.raises(harness.HarnessError):
            harness.run_scenario2(100, 2, migrate_at=100, workdir=tmp_path)

    def test_rescheduling_beats_staying_for_baseline_sizes(self, tmp_path):
        for base in harness.TABLE1_BASELINE[:2]:
            outcome = harness.run_scenario2(base.n, 42, migrate_at=base.iterations_before,
                                            workdir=tmp_path / str(base.n))
            assert outcome.row.scenario2_total_ms < outcome.row.scenario1_total_ms

    def test_the_target_adopts_the_record_the_source_stored_last(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     withdraw_at={"server1": 50})
        source, target = env.nodes["server1"], env.nodes["server2"]
        prepare, sent = source.prepare_transfer, []

        def watched(job_id):
            stored = source.store.path_for(job_id).read_bytes()
            payload, info = prepare(job_id)
            assert source.store.path_for(job_id).read_bytes() == stored  # no record written
            sent.append(transfer_bundle(payload))
            return payload, info

        source.prepare_transfer = watched
        env.deploy_sort("adopt", 120, 3, start_on="server1")
        assert env.run_job("adopt")["digest"] == reference_digest(120, 3)
        (shipped,) = sent
        assert source.store.path_for("adopt").read_bytes().endswith(shipped)
        assert target.store.path_for("adopt").read_bytes().startswith(shipped)
        adopted, following = target.store.load("adopt")[:2]
        assert adopted == source.store.load("adopt")[-1]
        assert (following.kind, following.base_seq, following.seq) \
            == (cp.KIND_INCREMENTAL, adopted.seq, adopted.seq + 1)


class TestTimeline:
    def timeline(self, *steps):
        timeline = harness.Timeline()
        for t, (provider, first, end) in enumerate(steps):
            timeline.emit({"t": t, "event": "steps", "job_id": "j", "provider": provider,
                           "first": first, "end": end})
        return timeline

    def test_consecutive_stretches_on_one_provider_then_another(self):
        timeline = self.timeline(("server1", 0, 40), ("server1", 40, 60), ("server2", 60, 100))
        timeline.assert_single_ownership("j")
        assert timeline.for_job("j") == [("server1", i) for i in range(60)] \
            + [("server2", i) for i in range(60, 100)]

    @pytest.mark.parametrize("steps", [
        pytest.param([("server1", 0, 40), ("server1", 40, 60), ("server2", 40, 60)],
                     id="lost-ack-overlap"),
        pytest.param([("server1", 0, 40), ("server2", 50, 100)], id="gap"),
        pytest.param([("server1", 0, 40), ("server2", 40, 60), ("server1", 60, 100)],
                     id="return-to-earlier-provider")])
    def test_single_ownership_violations_raise(self, steps):
        with pytest.raises(harness.HarnessError):
            self.timeline(*steps).assert_single_ownership("j")

    def test_rows_are_read_in_time_order(self):
        timeline = harness.Timeline()
        for t, first, end in ((5, 40, 80), (2, 0, 40)):  # arrival order differs from time order
            timeline.emit({"t": t, "event": "steps", "job_id": "j", "provider": "server1",
                           "first": first, "end": end})
        timeline.assert_single_ownership("j")

    def test_sim_end_to_end_is_fully_attributed(self, tmp_path):
        outcome = harness.run_scenario2(120, 3, migrate_at=50, workdir=tmp_path,
                                        include_scenario1=False)
        assert outcome.detail["e2e_ms"] == outcome.row.scenario2_total_ms
        assert outcome.detail["unattributed_ms"] == 0


class TestStaleResult:
    def test_result_from_a_provider_not_running_the_job_is_refused(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     checkpoint_interval=10)
        env.deploy_sort("stale", 60, 3, start_on="server1")
        run_to(env.nodes["server1"], "stale", 10, call="step")
        env.route(MSG_RESULT_RETURN, {"job_id": "stale", "provider_id": "server2",
                                      "digest": 1, "iterations_done": 60, "exec_ms": 0})
        assert env.supervisory.jobs["stale"].status is JobStatus.RUNNING
        result = env.run_job("stale")
        assert result["digest"] == reference_digest(60, 3)
        assert [r["decision"] for r in env.step_log.rows if r["event"] == "decision"] \
            == ["submit", "refuse", "done"]


class TestStaleReport:
    def test_report_from_the_provider_a_job_left_is_refused(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     withdraw_at={"server1": 20})
        env.deploy_sort("late", 60, 3, start_on="server1")
        entry = env.supervisory.jobs["late"]
        while entry.current_provider == "server1":
            env.nodes["server1"].step("late")
        late = PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION, provider_id="server1",
                                 job_id="late", emitted_at=1)
        env.route(MSG_MONITOR_REPORT, late.to_dict())
        assert entry.sla.min_throughput == env.nodes["server2"].job("late").sla.min_throughput \
            == 2.0
        rows = [r for r in env.step_log.rows if r["event"] == "decision"]
        assert [r["decision"] for r in rows] == ["submit", "reschedule", "transfer", "refuse"]
        assert rows[-1]["detail"] == "throughput_violation from server1 for a job running on server2"
        assert env.run_job("late")["digest"] == reference_digest(60, 3)


class TestNodeFault:
    def test_a_failing_store_append_fails_the_job(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path)
        env.deploy_sort("full", 80, 2, start_on="server1")
        store = env.nodes["server1"].store
        appends = []

        def third_fails(record):
            appends.append(record.seq)
            if len(appends) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            store.__class__.append(store, record)

        store.append = third_fails
        with pytest.raises(harness.HarnessError, match="failed"):
            env.run_job("full")
        assert env.supervisory.jobs["full"].status is JobStatus.FAILED
        assert env.nodes["server1"].job("full").status == "failed"
        assert [(r.get("decision", r["event"]), r.get("first"), r.get("end"), r.get("error"))
                for r in env.step_log.rows] == [
            ("submit", None, None, None), ("steps", 0, 48, None), ("failed", None, None, "OSError"),
            ("fail", None, None, None)]


# a run this loss breaks until placements carry epochs and sends are retried
ROADMAP_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


def lose_one(env, message, lost):
    """Have every send of ``env`` lose the first ``message``: before delivery, or its
    reply after it. Returns a list that is empty once the loss happened."""
    armed = [True]

    def lossy(addr, msg_type, body):
        if MSG_NAMES[msg_type] != message or not armed:
            return env.send(addr, msg_type, body)
        armed.clear()
        if lost == "reply":
            env.send(addr, msg_type, body)
        raise ConnectionResetError(f"{message} {lost} lost")

    env.transport.send = lossy
    for node in env.nodes.values():
        node.send = lossy
    return armed


class TestSingleFault:
    @pytest.mark.parametrize("message,lost,ends_on", [
        ("JOB_SUBMIT", "request", None),
        pytest.param("JOB_SUBMIT", "reply", None, marks=ROADMAP_ITEM_1),
        ("WITHDRAW_NOTICE", "request", "server1"),
        ("WITHDRAW_NOTICE", "reply", "server2"),
        ("MIGRATE_REQUEST", "request", "server1"),
        pytest.param("MIGRATE_REQUEST", "reply", "server2", marks=ROADMAP_ITEM_1),
        ("CHECKPOINT_TRANSFER", "request", "server1"),
        pytest.param("CHECKPOINT_TRANSFER", "reply", "server2", marks=ROADMAP_ITEM_1),
        pytest.param("RESULT_RETURN", "request", "server2", marks=ROADMAP_ITEM_1),
        ("RESULT_RETURN", "reply", "server2")])
    def test_one_lost_message(self, tmp_path, message, lost, ends_on):
        """Scenario 2 with one send lost, before delivery or as its reply: the job ends
        DONE on ``ends_on`` with the reference digest, or ``deploy`` raises; either way
        no node is left with a running or parked copy."""
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     withdraw_at={"server1": 80})
        armed = lose_one(env, message, lost)
        try:
            env.deploy_sort("j", 200, 7, start_on="server1")
        except SubmitTimeout:
            assert ends_on is None
        else:
            result = env.run_job("j", max_steps=1000)  # and its clock check
            env.step_log.assert_single_ownership("j")
            assert (result["provider_id"], result["digest"]) == (ends_on, reference_digest(200, 7))
        assert not armed  # the loss happened
        copies = [(pid, entry.status) for pid, node in env.nodes.items()
                  for entry in node.jobs.values()]
        assert not [c for c in copies if c[1] in (ST_RUNNING, ST_QUIESCED)], copies
        assert [pid for pid, status in copies if status == ST_DONE] \
            == ([ends_on] if ends_on else [])

    def test_a_job_with_no_provider_left_fails_and_its_copy_is_dropped(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config)[:1], tmp_path,
                                     withdraw_at={"server1": 50})
        env.deploy_sort("orphan", 200, 1, start_on="server1")
        with pytest.raises(harness.HarnessError, match="failed"):
            env.run_job("orphan")
        assert env.supervisory.jobs["orphan"].status is JobStatus.FAILED
        assert env.nodes["server1"].job("orphan").status == ST_TOMBSTONED
        assert [(r.get("decision", r["event"]), r.get("first"), r.get("end"), r.get("iteration"))
                for r in env.step_log.rows] == [
            ("submit", None, None, None), ("withdraw", None, None, 50), ("steps", 0, 50, None),
            ("fail", None, None, None), ("dropped", None, None, 50)]

    @ROADMAP_ITEM_1
    def test_a_failed_job_is_dropped_when_the_answer_is_lost(self, tmp_path):
        # the supervisor fails the job on the notice, but the node never hears it and
        # resumes its copy, which would run to a result the supervisor refuses
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config)[:1], tmp_path,
                                     withdraw_at={"server1": 50})
        armed = lose_one(env, "WITHDRAW_NOTICE", "reply")
        env.deploy_sort("orphan", 200, 1, start_on="server1")
        with pytest.raises(harness.HarnessError, match="failed"):
            env.run_job("orphan")
        assert not armed
        assert env.supervisory.jobs["orphan"].status is JobStatus.FAILED
        assert env.nodes["server1"].job("orphan").status == ST_TOMBSTONED
        assert "dropped" in [r["event"] for r in env.step_log.rows]


class TestSupervisoryListener:
    @pytest.mark.parametrize("msg_type,body", [
        pytest.param(MSG_MONITOR_REPORT, {}, id="report-without-kind"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "bogus", "provider_id": "server1",
                                          "job_id": "j"}, id="report-of-no-kind"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j"}, id="result-without-provider"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": "server1",
                                          "job_id": ["x"]}, id="report-with-a-list-id"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": ["x"], "provider_id": "server1", "digest": 1,
                                         "iterations_done": 1, "exec_ms": 0},
                     id="result-with-a-list-id"),
        pytest.param(MSG_WITHDRAW_NOTICE, {"provider_id": ["x"], "at_ms": 1},
                     id="withdrawal-with-a-list-provider"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": ["x"],
                                          "job_id": "j"}, id="report-with-a-list-provider"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j", "provider_id": ["x"], "digest": 1,
                                         "iterations_done": 1, "exec_ms": 0},
                     id="result-with-a-list-provider"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j", "provider_id": ["x"], "failed": True},
                     id="failed-result-with-a-list-provider"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j", "provider_id": "server1", "digest": 1,
                                         "iterations_done": 60, "exec_ms": "7"},
                     id="result-with-a-string-exec-ms"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j", "provider_id": "server1", "digest": 1,
                                         "iterations_done": 60, "exec_ms": True},
                     id="result-with-a-bool-exec-ms"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j", "provider_id": "server1", "digest": 1,
                                         "iterations_done": "12", "exec_ms": 7},
                     id="result-with-a-string-iterations-done"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "j", "provider_id": "server1", "digest": 1,
                                         "iterations_done": True, "exec_ms": 7},
                     id="result-with-a-bool-iterations-done"),
        pytest.param(MSG_WITHDRAW_NOTICE, {"provider_id": "server1", "at_ms": [1]},
                     id="withdrawal-with-a-list-time"),
        pytest.param(MSG_WITHDRAW_NOTICE, {"provider_id": "server1", "at_ms": "x"},
                     id="withdrawal-with-a-string-time"),
        pytest.param(MSG_WITHDRAW_NOTICE, {"provider_id": "server1", "at_ms": True},
                     id="withdrawal-with-a-bool-time"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": {}},
                     id="report-with-an-object-emitted-at"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"timestamp_ms": [1], "iterations_done": 5}]},
                     id="report-with-a-list-sample-time"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"timestamp_ms": 1, "iterations_done": True}]},
                     id="report-with-a-bool-iterations-done"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"timestamp_ms": 1, "iterations_done": 5.7}]},
                     id="report-with-a-float-iterations-done"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"timestamp_ms": 1, "iterations_done": "12"}]},
                     id="report-with-a-string-iterations-done"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "resource_withdrawn", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"withdrawn": "server1", "at_ms": "x"}]},
                     id="report-with-a-string-withdrawal-time"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "resource_withdrawn", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"withdrawn": ["server1"], "at_ms": 1}]},
                     id="report-of-a-withdrawal-with-a-list-provider"),
        pytest.param(MSG_MONITOR_REPORT, {"kind": "resource_withdrawn", "provider_id": "server1",
                                          "job_id": "j", "emitted_at": 1,
                                          "evidence": [{"withdrawn": "server1", "at_ms": 1}]},
                     id="report-of-a-withdrawal")])
    def test_a_body_route_cannot_act_on_is_refused(self, tmp_path, msg_type, body):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path)
        env.deploy_sort("j", 60, 3, start_on="server1")
        listener = harness.SupervisoryListener(env.route)
        try:
            reply_type, reply = request(listener.address, msg_type, json_payload(body))
        finally:
            listener.stop()
        assert (reply_type, parse_json(reply)["error"]) == (MSG_ERROR, "MalformedPayload")
        assert [r["decision"] for r in env.step_log.rows] == ["submit"]
        assert env.broker.get("server1").available


class TestSimIntake:
    def test_a_message_check_message_refuses_leaves_a_send_failed_row(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path)
        env.deploy_sort("j", 60, 3, start_on="server1")
        node = env.nodes["server1"]

        def with_a_bad_report(job_id):  # the first iteration only
            del node.run_iteration
            return node.run_iteration(job_id) + [
                (MSG_MONITOR_REPORT, {"kind": "throughput_violation", "job_id": job_id})]

        node.run_iteration = with_a_bad_report
        assert env.run_job("j")["digest"] == reference_digest(60, 3)
        assert [(r["event"], r["job_id"], r["provider"], r["message"], r["error"])
                for r in env.step_log.rows if r["event"] == "send_failed"] == [
            ("send_failed", "j", "server1", "MONITOR_REPORT", "bad report: KeyError('provider_id')")]
        assert [r["decision"] for r in env.step_log.rows if r["event"] == "decision"] \
            == ["submit", "done"]


def store_bytes(root):
    """Every checkpoint file under ``root``, by its path there: its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.ckpt"))}


def slow_provider_env(workdir):
    """A sim environment whose job ``hot``, deployed on ``server1``, misses its SLA there."""
    config = harness.calibrate_from_table1()
    # server1 at half speed: ~4.5 it/s, below the 6 it/s floor; server2 ~10.4 it/s
    providers = [
        ResourceSpecTemplate(provider_id="server1", address="127.0.0.1:7001",
                             cpu_mhz=2800, memory_mb=512, speed_factor=Fraction(1, 2)),
        ResourceSpecTemplate(provider_id="server2", address="127.0.0.1:7002",
                             cpu_mhz=3000, memory_mb=1024,
                             speed_factor=config.speed_of("server2")),
    ]
    sla = ServiceLevelAgreement(min_throughput=6.0, window_k=2, sample_period_ms=500)
    env = harness.SimEnvironment(config, providers, workdir, sla=sla)
    env.deploy_sort("hot", 200, 21, start_on="server1")
    return env


class TestViolationDrivenRescheduling:
    def test_slow_provider_triggers_migration_to_better_one(self, tmp_path):
        env = slow_provider_env(tmp_path)
        result = env.run_job("hot")
        entry = env.supervisory.jobs["hot"]
        assert entry.migrations, "expected a violation-driven migration"
        assert entry.migrations[0].from_provider == "server1"
        assert entry.migrations[0].to_provider == "server2"
        assert result["digest"] == reference_digest(200, 21)

    def test_without_better_provider_the_floor_is_renegotiated(self, tmp_path):
        config = harness.calibrate_from_table1()
        providers = [ResourceSpecTemplate(provider_id="server1", address="127.0.0.1:7001",
                                          cpu_mhz=2800, memory_mb=512)]
        sla = ServiceLevelAgreement(min_throughput=11.0, window_k=2, sample_period_ms=500)
        log_path = tmp_path / "decisions.jsonl"
        env = harness.SimEnvironment(config, providers, tmp_path, sla=sla,
                                     decision_log=log_path)
        env.deploy_sort("solo", 300, 4, start_on="server1")
        env.run_job("solo")
        entry = env.supervisory.jobs["solo"]
        assert entry.status is JobStatus.DONE
        assert not entry.migrations
        assert entry.sla.min_throughput < 11.0
        decisions = [json.loads(line)["decision"] for line in log_path.read_text().splitlines()]
        assert "renegotiate_sla" in decisions


@pytest.fixture(params=["sim", "wall"])
def node_transport(request, tmp_path):
    """One mode's transport to a node ``d1``, and that node's runtime."""
    if request.param == "sim":
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, [ResourceSpecTemplate(
            provider_id="d1", address="127.0.0.1:7001", cpu_mhz=2800, memory_mb=512)], tmp_path)
        return env.transport, env.nodes["d1"]
    daemon = request.getfixturevalue("daemon")
    broker = ResourceBroker()
    broker.register_provider(ResourceSpecTemplate(provider_id="d1", address=daemon.address,
                                                  cpu_mhz=2800, memory_mb=512))
    return harness.WallTransport(broker), daemon.runtime


class TestTransport:
    def test_renegotiated_sla_reaches_the_node(self, node_transport):
        transport, node = node_transport
        agent = SupervisoryAgent(transport.broker, transport)
        sla = ServiceLevelAgreement(min_throughput=5.0, window_k=3, sample_period_ms=1000)
        agent.deploy(JobRequirementList(job_id="sla", min_cpu_mhz=2800, min_memory_mb=512,
                                        sla=sla), "sort", {"n": 2000, "seed": 3})
        assert node.job("sla").sla == sla
        decision = agent.on_report(PerformanceReport(
            kind=ReportKind.THROUGHPUT_VIOLATION, provider_id="d1", job_id="sla", emitted_at=1))
        assert decision.action is DecisionAction.RENEGOTIATE_SLA  # d1 is the only provider
        assert decision.new_sla.min_throughput == pytest.approx(4.0)
        assert node.job("sla").sla == decision.new_sla == agent.jobs["sla"].sla

    def test_refused_sla_update_raises(self, node_transport):
        transport, _ = node_transport
        with pytest.raises(harness.HarnessError, match="UnknownJob"):
            transport.update_sla("d1", "ghost", ServiceLevelAgreement(
                min_throughput=1.0, window_k=3, sample_period_ms=50))

    def test_refused_submit_raises(self, node_transport):
        transport, node = node_transport
        with pytest.raises(SubmitTimeout, match="UnknownWorkload"):
            transport.submit("d1", {"job_id": "odd", "task_kind": "matrix", "params": {}})
        assert node.jobs == {}


class TestGhostJob:
    @pytest.mark.parametrize("msg_type,body", [
        pytest.param(MSG_MONITOR_REPORT, {"kind": "throughput_violation",
                                          "provider_id": "server1", "job_id": "ghost"},
                     id="report"),
        pytest.param(MSG_RESULT_RETURN, {"job_id": "ghost", "provider_id": "server1", "digest": 1,
                                         "iterations_done": 60, "exec_ms": 0}, id="result")])
    def test_a_message_for_a_job_never_deployed_is_refused(self, tmp_path, msg_type, body):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path)
        env.deploy_sort("real", 60, 3, start_on="server1")
        env.route(msg_type, body)
        kind = "result" if msg_type == MSG_RESULT_RETURN else "throughput_violation"
        assert [(r["job_id"], r["provider"], r["report_kind"], r["decision"], r["detail"])
                for r in env.step_log.rows if r["event"] == "decision"] == [
            ("real", "server1", "deploy", "submit",
             "provider=server1 ranked=['server2', 'server1']"),
            ("ghost", "server1", kind, "refuse", f"{kind} from server1 for a job never deployed")]
        assert list(env.supervisory.jobs) == ["real"]
        assert env.run_job("real")["digest"] == reference_digest(60, 3)


class TestEmitTable:
    def make_row(self):
        return harness.ScenarioRow(n=500, scenario1_total_ms=57306, scenario2_total_ms=56422,
                                   iterations_before=249, time_source_ms=27381,
                                   time_target_ms=25421, overhead_ms=3620)

    def test_header_matches_contract(self, tmp_path):
        csv_text, _ = harness.emit_table([self.make_row()], out_path=tmp_path / "t.csv")
        lines = csv_text.splitlines()
        assert lines[0] == ("N,scenario1_total_ms,scenario2_total_ms,iterations_before,"
                            "time_source_ms,time_target_ms,overhead_ms")
        assert lines[1] == "500,57306,56422,249,27381,25421,3620"
        assert (tmp_path / "t.csv").read_text() == csv_text

    def test_partial_row_has_empty_cells(self):
        csv_text, _ = harness.emit_table([harness.ScenarioRow(n=10, scenario1_total_ms=100)])
        assert csv_text.splitlines()[1] == "10,100,,,,,"

    def test_identity_rechecked_at_emission(self):
        row = self.make_row()
        row.overhead_ms = 9999
        with pytest.raises(harness.HarnessError):
            harness.emit_table([row])

    def test_reemission_is_byte_identical(self, tmp_path):
        rows = harness.run_table1(seed=1, workdir=tmp_path / "x")
        again = harness.run_table1(seed=1, workdir=tmp_path / "y")
        assert harness.emit_table(rows)[0] == harness.emit_table(again)[0]

    def test_table1_csv_is_pinned(self, tmp_path):
        assert harness.emit_table(harness.run_table1(42, tmp_path))[0] == (
            "N,scenario1_total_ms,scenario2_total_ms,iterations_before,"
            "time_source_ms,time_target_ms,overhead_ms\n"
            "500,55987.057,55663.255,249,27881.554,24112.301,3669.4\n"
            "1000,111974.113,108998.375,516,57778.642,46495.433,4724.3\n"
            "1500,167961.17,162031.221,764,85548.223,70703.798,5779.2\n"
            "2000,223948.227,215668.615,1050,117572.819,91261.696,6834.1\n"
            "2500,279935.283,268701.461,1298,145342.399,115470.062,7889\n")

    def test_fraction_formatting_is_stable(self):
        assert harness.format_ms(Fraction(57306)) == "57306"
        assert harness.format_ms(Fraction(112, 10)) == "11.2"
        assert harness.format_ms(None) == ""
        assert harness.format_ms(27881.55422) == "27881.554"


class TestCli:
    def test_scenario2_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = harness.main(["scenario2", "--n", "120", "--seed", "3", "--migrate-at", "60",
                             "--mode", "sim", "--out", str(out),
                             "--workdir", str(tmp_path / "w")])
        assert code == 0
        text = out.read_text()
        assert text.startswith("N,scenario1_total_ms")
        captured = capsys.readouterr()
        assert "digest=" in captured.out

    def test_scenario1_with_providers_file(self, tmp_path):
        providers = tmp_path / "providers.json"
        providers.write_text(json.dumps([
            {"provider_id": "server1", "address": "127.0.0.1:7001", "cpu_mhz": 2800,
             "memory_mb": 512, "arch_tags": [], "speed_factor": 1.0, "available": True}]))
        code = harness.main(["scenario1", "--n", "50", "--seed", "2",
                             "--providers", str(providers), "--mode", "sim",
                             "--out", str(tmp_path / "row.csv"),
                             "--workdir", str(tmp_path / "w")])
        assert code == 0

    def test_invalid_arguments_exit_nonzero(self, tmp_path):
        code = harness.main(["scenario2", "--n", "10", "--migrate-at", "10",
                             "--mode", "sim", "--workdir", str(tmp_path)])
        assert code == 1

    def test_table1_rejects_wall_mode(self, tmp_path):
        code = harness.main(["table1", "--mode", "wall", "--workdir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("option", [
        ["--checkpoint-interval", "4"], ["--decision-log", "d.jsonl"], ["--sla-floor", "1e9"],
        ["--providers", "p.json"], ["--window-k", "2"], ["--sample-period", "5"]])
    def test_table1_refuses_scenario_options(self, tmp_path, option):
        with pytest.raises(SystemExit) as exc:  # table1 would ignore them
            harness.main(["table1", "--workdir", str(tmp_path), *option])
        assert exc.value.code == 2


@pytest.mark.slow
class TestWallMode:
    def test_wall_scenario2_digest_and_accounting(self, tmp_path):
        outcome = harness.run_scenario2(200, 13, migrate_at=80, mode="wall",
                                        workdir=tmp_path, include_scenario1=False)
        assert outcome.digest == reference_digest(200, 13)
        outcome.row.check_identity()
        assert outcome.row.iterations_before == 80
        assert outcome.detail.get("transfer_ms") is not None

    def test_wall_decision_log(self, tmp_path):
        log_path = tmp_path / "decisions.jsonl"
        code = harness.main(["scenario2", "--n", "200", "--seed", "13", "--migrate-at", "80",
                             "--mode", "wall", "--decision-log", str(log_path),
                             "--out", str(tmp_path / "row.csv"),
                             "--workdir", str(tmp_path / "w")])
        assert code == 0
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [e["decision"] for e in entries] == ["submit", "reschedule", "transfer", "done"]
        assert entries[2]["detail"] == "server1->server2 after 80 iterations"

    def test_sim_and_wall_timelines_agree(self, tmp_path):
        """Each writer (the supervisor, each node) emits the same rows in the same
        order in both modes. Across writers only causal order is fixed in wall
        mode: the target runs the job while the supervisor records the transfer."""
        expected = [("submit", "server1", None, None, None),
                    ("withdraw", "server1", None, None, 80),
                    ("steps", "server1", 0, 80, None),
                    ("reschedule", "server1", None, None, None),
                    ("resume", "server2", None, None, 80),
                    ("transfer", "server1", None, None, 80),
                    ("transfer", "server2", None, None, None),
                    ("steps", "server2", 80, 200, None),
                    ("result", "server2", None, None, 200),
                    ("done", "server2", None, None, None)]
        timelines = {}
        for mode in ("sim", "wall"):
            outcome = harness.run_scenario2(200, 13, migrate_at=80, mode=mode,
                                            workdir=tmp_path / mode, include_scenario1=False)
            timelines[mode] = sorted(outcome.step_log.rows, key=lambda r: r["t"])
        assert [timeline_key(r) for r in timelines["sim"]] == expected
        assert writer_sequences(timelines["wall"]) == writer_sequences(timelines["sim"])

        position = {timeline_key(r)[:2]: i for i, r in enumerate(timelines["wall"])}
        assert position["submit", "server1"] < position["withdraw", "server1"] \
            < position["reschedule", "server1"] < position["resume", "server2"] \
            < position["transfer", "server1"] < position["transfer", "server2"]
        assert position["result", "server2"] < position["done", "server2"]

    def test_wall_sla_miss_migrates_then_finishes_on_the_target(self, tmp_path):
        sla = ServiceLevelAgreement(min_throughput=1e9, window_k=1, sample_period_ms=5)
        env = harness.WallEnvironment(harness.default_providers(), tmp_path, sla=sla)
        try:
            env.start()
            env.deploy_sort("miss", 3000, 4, start_on="server1")
            result = env.run_job("miss")
        finally:
            env.stop()
        env.step_log.assert_single_ownership("miss")
        assert result["provider_id"] == "server2"
        assert result["digest"] == reference_digest(3000, 4)
        rows = [r for r in sorted(env.step_log.rows, key=lambda r: r["t"])
                if r["event"] == "decision"]
        decisions = [r["decision"] for r in rows]
        assert decisions[:3] == ["submit", "reschedule", "transfer"]
        assert decisions[-1] == "done"
        # the source waits for the supervisor to act on its report: it sends no other
        assert set(decisions[3:-1]) <= {"renegotiate_sla"}

    def test_wall_sla_move_lands_at_the_reported_iteration(self, tmp_path):
        sla = ServiceLevelAgreement(min_throughput=1e9, window_k=1, sample_period_ms=5)
        env = harness.WallEnvironment(harness.default_providers(), tmp_path, sla=sla)
        decide, reported = env.supervisory.decide, {}

        def first_report_of_each_job(report):
            reported.setdefault(report.job_id, report.evidence[-1].iterations_done)
            return decide(report)

        env.supervisory.decide = first_report_of_each_job
        try:
            env.start()
            for seed in range(10):  # a 5000-step job moves by about step 1000
                env.deploy_sort(f"sla-{seed}", 5000, seed, start_on="server1")
                assert env.run_job(f"sla-{seed}")["provider_id"] == "server2"
        finally:
            env.stop()
        moved = {job_id: entry.migrations[0].iterations_before
                 for job_id, entry in env.supervisory.jobs.items()}
        assert len(moved) == 10 and moved == reported

    def test_a_ghost_withdrawal_is_refused_and_the_job_goes_on(self, tmp_path):
        env = harness.WallEnvironment(harness.default_providers(), tmp_path,
                                      withdraw_at={"server1": 1000})
        try:
            env.start()
            env.deploy_sort("g", 2000, 5, start_on="server1")
            reply_type, reply = request(env.listener.address, MSG_WITHDRAW_NOTICE,
                                        json_payload({"provider_id": "ghost", "at_ms": 1}))
            result = env.run_job("g")
        finally:
            env.stop()
        assert (reply_type, parse_json(reply)["error"]) == (MSG_ERROR, "UnknownProvider")
        assert (result["provider_id"], result["digest"]) == ("server2", reference_digest(2000, 5))

    def test_wall_single_iteration_job(self, tmp_path):
        # guard: the result can come back before deploy returns
        outcome = harness.run_scenario1(1, 5, mode="wall", workdir=tmp_path)
        assert (outcome.digest, outcome.iterations) == (reference_digest(1, 5), 1)

    def test_wall_end_to_end_covers_its_parts(self, tmp_path):
        # the benchmark's wall check job_s >= source + target + overhead, on the program side
        for seed in range(10):
            outcome = harness.run_scenario2(2500, seed, migrate_at=1250, mode="wall",
                                            workdir=tmp_path / str(seed), include_scenario1=False)
            assert outcome.detail["unattributed_ms"] >= 0, outcome.detail

    def test_wall_job_with_no_provider_left_fails(self, tmp_path):
        # the supervisor fails the job before it answers the withdrawal, and the answer
        # has the node drop its parked copy: the node writes no result
        env = harness.WallEnvironment(harness.default_providers()[:1], tmp_path,
                                      withdraw_at={"server1": 50})
        try:
            env.start()
            env.deploy_sort("orphan", 200, 1, start_on="server1")
            with pytest.raises(harness.HarnessError, match="failed"):
                env.run_job("orphan")
            assert wait_until(lambda: any(r["event"] == "dropped" for r in env.step_log.rows))
        finally:
            env.stop()
        assert env.supervisory.jobs["orphan"].status is JobStatus.FAILED
        assert [(r.get("decision", r["event"]), r.get("first"), r.get("end"), r.get("iteration"))
                for r in sorted(env.step_log.rows, key=lambda r: r["t"])] == [
            ("submit", None, None, None), ("withdraw", None, None, 50), ("steps", 0, 50, None),
            ("fail", None, None, None), ("dropped", None, None, 50)]

    def test_four_jobs_leave_a_withdrawing_node(self, tmp_path):
        # guard: the job that reaches the withdrawal moves at it, and the others hold
        # on the withdrawn node until their own hand-off, so every one ends on server2
        env = harness.WallEnvironment(harness.default_providers(), tmp_path,
                                      withdraw_at={"server1": 1250})
        seeds = {f"m{seed}": seed for seed in range(4)}
        try:
            env.start()
            for job_id, seed in seeds.items():
                env.deploy_sort(job_id, 2500, seed, start_on="server1")
            results = {job_id: env.run_job(job_id) for job_id in seeds}
        finally:
            env.stop()
        for job_id, seed in seeds.items():
            env.step_log.assert_single_ownership(job_id)
            assert (results[job_id]["provider_id"], results[job_id]["digest"]) \
                == ("server2", reference_digest(2500, seed))
        assert 1250 in [m.iterations_before for job_id in seeds
                        for m in env.supervisory.jobs[job_id].migrations]

    @pytest.mark.parametrize("k", [2, 4])
    def test_jobs_that_share_a_node_each_account_their_own_time(self, tmp_path, k):
        # the node runs its jobs in turn, so their exec_ms add up to no more than the span
        env = harness.WallEnvironment(harness.default_providers()[:1], tmp_path)
        seeds = {f"k{seed}": seed for seed in range(k)}
        try:
            env.start()
            for job_id, seed in seeds.items():
                env.deploy_sort(job_id, 2500, seed, start_on="server1")
            results = {job_id: env.run_job(job_id) for job_id in seeds}
        finally:
            env.stop()
        assert {job_id: r["digest"] for job_id, r in results.items()} \
            == {job_id: reference_digest(2500, seed) for job_id, seed in seeds.items()}
        rows = env.step_log.rows
        span_ms = max(r["t"] for r in rows if r["event"] == "result") \
            - min(r["t"] for r in rows if r.get("decision") == "submit")
        assert sum(r["exec_ms"] for r in results.values()) <= span_ms

    def test_wall_scenario1_digest(self, tmp_path):
        outcome = harness.run_scenario1(150, 8, mode="wall", workdir=tmp_path)
        assert outcome.digest == reference_digest(150, 8)
        assert outcome.iterations == 150


def timeline_key(row):
    """What a row says, without its time: comparable across modes."""
    return (row.get("decision", row["event"]), row["provider"], row.get("first"),
            row.get("end"), row.get("iteration"))


def writer_sequences(rows):
    """The rows of each writer, the supervisor or one node, in the given order."""
    sequences = {}
    for row in rows:
        writer = "supervisor" if row["event"] == "decision" else row["provider"]
        sequences.setdefault(writer, []).append(timeline_key(row))
    return sequences
