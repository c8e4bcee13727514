import errno
import json
from fractions import Fraction

import numpy as np
import pytest

from jobmig import harness
from jobmig.broker import JobRequirementList, ResourceBroker, ResourceSpecTemplate
from jobmig.control import DecisionAction, JobStatus, SubmitTimeout, SupervisoryAgent
from jobmig.monitor import PerformanceReport, ReportKind, ServiceLevelAgreement
from jobmig.node import (
    MSG_ERROR,
    MSG_MONITOR_REPORT,
    MSG_RESULT_RETURN,
    json_payload,
    parse_json,
    request,
)

from conftest import reference_digest


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
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path)
        env.deploy_sort("stale", 60, 3, start_on="server1")
        for _ in range(10):
            env.route(env.nodes["server1"].run_iteration("stale"))
        env.route([(MSG_RESULT_RETURN, {"job_id": "stale", "provider_id": "server2",
                                        "digest": 1, "iterations_done": 60, "exec_ms": 0})])
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
            env.route(env.nodes["server1"].run_iteration("late"))
        late = PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION, provider_id="server1",
                                 job_id="late", emitted_at=1)
        env.route([(MSG_MONITOR_REPORT, late.to_dict())])
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
                     id="result-with-a-list-id")])
    def test_a_body_route_cannot_act_on_is_refused(self, listener, msg_type, body):
        reply_type, reply = request(listener.address, msg_type, json_payload(body))
        assert (reply_type, parse_json(reply)["error"]) == (MSG_ERROR, "MalformedPayload")
        assert listener.events.empty()


class TestViolationDrivenRescheduling:
    def test_slow_provider_triggers_migration_to_better_one(self, tmp_path):
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
        env = harness.SimEnvironment(config, providers, tmp_path, sla=sla)
        env.deploy_sort("hot", 200, 21, start_on="server1")
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
        env.route([(msg_type, body)])
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
        assert set(decisions[3:-1]) <= {"renegotiate_sla", "refuse"}
        # a report the source sent before it handed the job off is refused
        assert all(r["detail"].startswith("throughput_violation from server1 ")
                   for r in rows[3:-1] if r["decision"] == "refuse")

    def test_wall_job_with_no_provider_left_fails(self, tmp_path):
        # the job stays parked on its withdrawn node; the pump stops on the FAILED status
        env = harness.WallEnvironment(harness.default_providers()[:1], tmp_path,
                                      withdraw_at={"server1": 50})
        try:
            env.start()
            env.deploy_sort("orphan", 200, 1, start_on="server1")
            with pytest.raises(harness.HarnessError, match="failed"):
                env.run_job("orphan")
        finally:
            env.stop()
        assert env.supervisory.jobs["orphan"].status is JobStatus.FAILED

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
