import json
from fractions import Fraction

import pytest

from jobmig.broker import JobRequirementList, NoMatch, ResourceBroker, ResourceSpecTemplate
from jobmig.control import (
    ControlError,
    DecisionAction,
    InvalidTarget,
    JobStatus,
    MigrationRecord,
    SupervisoryAgent,
    TransferFailed,
    tune_decision,
)
from jobmig.monitor import (
    MonitorHub,
    MonitorSample,
    PerformanceReport,
    ReportKind,
    ServiceLevelAgreement,
    WithdrawalEvent,
)
from jobmig import harness

from conftest import reference_digest, run_to

SLA = ServiceLevelAgreement(min_throughput=5.0, window_k=3, sample_period_ms=1000)


class RecordingTransport:
    """Fake transport: records calls, optionally fails transfers."""

    def __init__(self, fail_transfer=False):
        self.submissions = []
        self.migrations = []
        self.sla_updates = []
        self.fail_transfer = fail_transfer

    def submit(self, provider_id, job_spec):
        self.submissions.append((provider_id, job_spec))

    def migrate(self, source_id, job_id, target_id):
        if self.fail_transfer:
            raise TransferFailed("injected")
        self.migrations.append((source_id, job_id, target_id))
        return MigrationRecord(job_id, source_id, target_id, iterations_before=249,
                               time_on_source_ms=27381, overhead_ms=3620)

    def update_sla(self, provider_id, job_id, sla):
        self.sla_updates.append((provider_id, job_id, sla))


def make_agent(transport=None):
    broker = ResourceBroker()
    broker.register_provider(ResourceSpecTemplate(
        provider_id="server1", address="127.0.0.1:7001", cpu_mhz=2800, memory_mb=512))
    broker.register_provider(ResourceSpecTemplate(
        provider_id="server2", address="127.0.0.1:7002", cpu_mhz=3000, memory_mb=1024))
    transport = transport or RecordingTransport()
    agent = SupervisoryAgent(broker, transport)
    return agent, transport


def deploy(agent, job_id="job-1", start_on=None):
    jrl = JobRequirementList(job_id=job_id, min_cpu_mhz=2800, min_memory_mb=512, sla=SLA)
    return agent.deploy(jrl, "sort", {"n": 500, "seed": 42}, start_on=start_on)


def result(provider, job="job-1", exec_ms=100):
    """A RESULT_RETURN body from ``provider``."""
    return {"job_id": job, "provider_id": provider, "digest": 0xDEAD, "iterations_done": 500,
            "exec_ms": exec_ms}


def withdrawal(provider="server1", job="job-1"):
    return PerformanceReport(kind=ReportKind.RESOURCE_WITHDRAWN, provider_id=provider,
                             job_id=job, evidence=(WithdrawalEvent(provider, 1),), emitted_at=1)


def violation(provider="server1", job="job-1"):
    return PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION, provider_id=provider,
                             job_id=job, emitted_at=2)


class TestDeploy:
    def test_policy_prefers_higher_score(self):
        agent, transport = make_agent()
        deploy(agent)
        entry = agent.jobs["job-1"]
        assert entry.current_provider == "server2"
        assert [pid for pid, _ in agent.targets(entry)] == ["server1"]
        assert transport.submissions[0][0] == "server2"
        assert entry.status is JobStatus.RUNNING

    def test_forced_initial_placement(self):
        agent, transport = make_agent()
        deploy(agent, start_on="server1")
        assert agent.jobs["job-1"].current_provider == "server1"
        assert transport.submissions[0][0] == "server1"

    def test_no_providers(self):
        agent, _ = make_agent()
        jrl = JobRequirementList(job_id="j", min_cpu_mhz=99999, min_memory_mb=512, sla=SLA)
        with pytest.raises(NoMatch):
            agent.deploy(jrl, "sort", {"n": 5, "seed": 1})

    def test_duplicate_job_id_rejected(self):
        agent, _ = make_agent()
        deploy(agent)
        with pytest.raises(ControlError):
            deploy(agent)


class TestOnReport:
    def test_none_report_continues(self):
        agent, _ = make_agent()
        deploy(agent)
        report = PerformanceReport(kind=ReportKind.NONE, provider_id="server2", job_id="job-1")
        assert agent.on_report(report).action is DecisionAction.CONTINUE

    def test_withdrawal_reschedules_to_surviving_candidate(self):
        agent, transport = make_agent()
        deploy(agent, start_on="server1")
        MonitorHub(agent.broker).note_withdrawal("server1", 1, agent.jobs_on("server1"))
        decision = agent.on_report(withdrawal())
        assert decision.action is DecisionAction.RESCHEDULE
        assert decision.target == "server2"
        assert transport.migrations == [("server1", "job-1", "server2")]
        entry = agent.jobs["job-1"]
        assert entry.current_provider == "server2"
        assert "server1" in entry.excluded

    def test_withdrawal_with_no_alternative_fails_job(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        hub = MonitorHub(agent.broker)
        hub.note_withdrawal("server2", 0, agent.jobs_on("server2"))
        hub.note_withdrawal("server1", 1, agent.jobs_on("server1"))
        decision = agent.on_report(withdrawal())
        assert decision.action is DecisionAction.FAIL
        assert agent.jobs["job-1"].status is JobStatus.FAILED

    def test_violation_with_better_provider_reschedules(self):
        agent, transport = make_agent()
        deploy(agent, start_on="server1")  # server2 scores strictly higher
        decision = agent.on_report(violation())
        assert decision.action is DecisionAction.RESCHEDULE
        assert decision.target == "server2"

    def test_violation_without_better_provider_renegotiates(self):
        agent, transport = make_agent()
        deploy(agent)  # already on the best-scored provider
        decision = agent.on_report(violation(provider="server2"))
        assert decision.action is DecisionAction.RENEGOTIATE_SLA
        assert decision.new_sla.min_throughput == pytest.approx(4.0)  # 5.0 * 0.8
        assert agent.jobs["job-1"].sla.min_throughput == pytest.approx(4.0)
        assert transport.sla_updates == [("server2", "job-1", decision.new_sla)]

    def test_provider_registered_after_deploy_is_a_withdrawal_target(self):
        agent, transport = make_agent()
        deploy(agent, start_on="server1")
        agent.broker.register_provider(ResourceSpecTemplate(
            provider_id="server3", address="127.0.0.1:7003", cpu_mhz=2800, memory_mb=512))
        hub = MonitorHub(agent.broker)
        hub.note_withdrawal("server2", 0, agent.jobs_on("server2"))
        hub.note_withdrawal("server1", 1, agent.jobs_on("server1"))
        decision = agent.on_report(withdrawal())
        assert (decision.action, decision.target) == (DecisionAction.RESCHEDULE, "server3")
        assert transport.migrations == [("server1", "job-1", "server3")]

    def test_report_from_a_provider_the_job_left_is_refused(self):
        agent, transport = make_agent()
        rows = []
        agent.emit = rows.append
        deploy(agent, start_on="server1")
        agent.migrate("job-1", "server2")
        assert agent.on_report(violation(provider="server1")) is None
        assert agent.on_report(withdrawal(provider="server1")) is None
        entry = agent.jobs["job-1"]
        assert (entry.status, entry.current_provider, entry.sla) == \
            (JobStatus.RUNNING, "server2", SLA)
        assert transport.sla_updates == [] and len(transport.migrations) == 1
        assert [(r["report_kind"], r["decision"]) for r in rows[2:]] == \
            [("throughput_violation", "refuse"), ("resource_withdrawn", "refuse")]
        assert all(r["detail"].startswith(f"{r['report_kind']} from server1 ")
                   for r in rows[2:])

    def test_duplicate_report_acted_on_once(self):
        agent, transport = make_agent()
        deploy(agent)  # on the best-scored provider: a violation renegotiates
        report = violation(provider="server2")
        assert agent.on_report(report).action is DecisionAction.RENEGOTIATE_SLA
        assert agent.on_report(report) is None
        assert len(transport.sla_updates) == 1
        assert agent.jobs["job-1"].sla.min_throughput == pytest.approx(4.0)

    def test_unknown_job_rejected(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        rows = []
        agent.emit = rows.append
        jobs = dict(agent.jobs)
        assert agent.on_report(violation(provider="server2", job="ghost")) is None
        assert agent.jobs == jobs
        assert [(r["job_id"], r["provider"], r["report_kind"], r["decision"], r["detail"])
                for r in rows] == [("ghost", "server2", "throughput_violation", "refuse",
                                    "throughput_violation from server2 for a job never deployed")]

    def test_decide_is_deterministic(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        MonitorHub(agent.broker).note_withdrawal("server1", 1, agent.jobs_on("server1"))
        assert agent.decide(withdrawal()) == agent.decide(withdrawal())


class TestMigrate:
    def test_target_equals_source_rejected(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        with pytest.raises(InvalidTarget):
            agent.migrate("job-1", "server1")

    def test_unavailable_target_rejected(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        agent.broker.set_available("server2", False)
        with pytest.raises(InvalidTarget):
            agent.migrate("job-1", "server2")

    def test_failed_transfer_keeps_job_on_source(self):
        agent, _ = make_agent(transport=RecordingTransport(fail_transfer=True))
        deploy(agent, start_on="server1")
        with pytest.raises(TransferFailed):
            agent.migrate("job-1", "server2")
        entry = agent.jobs["job-1"]
        assert entry.status is JobStatus.RUNNING
        assert entry.current_provider == "server1"
        assert entry.migrations == []

    def test_record_finalized_on_completion(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        record = agent.migrate("job-1", "server2")
        assert record.iterations_before == 249
        assert record.time_on_target_ms is None
        agent.complete(result("server2", exec_ms=25421))
        assert record.time_on_target_ms == 25421
        assert record.total_ms == 27381 + 25421 + 3620 == 56422


class TestPlacement:
    def test_jobs_on_lists_the_running_jobs_on_a_provider(self):
        agent, _ = make_agent()
        for job_id, provider in (("j2", "server1"), ("j1", "server1"), ("j3", "server2"),
                                 ("j4", "server1")):
            deploy(agent, job_id, start_on=provider)
        agent.complete(result("server1", job="j4"))
        assert agent.jobs_on("server1") == ["j1", "j2"]
        assert agent.jobs_on("server2") == ["j3"]


class TestComplete:
    def agent_with_rows(self):
        agent, _ = make_agent()
        rows = []
        agent.emit = rows.append
        deploy(agent, start_on="server1")
        return agent, rows

    def test_result_from_another_provider_is_refused(self):
        agent, rows = self.agent_with_rows()
        agent.complete(result("server2"))
        entry = agent.jobs["job-1"]
        assert (entry.status, entry.result) == (JobStatus.RUNNING, None)
        agent.complete(result("server1"))
        assert entry.status is JobStatus.DONE
        assert [(r["report_kind"], r["decision"]) for r in rows] == \
            [("deploy", "submit"), ("result", "refuse"), ("result", "done")]

    def test_second_result_is_refused(self):
        agent, rows = self.agent_with_rows()
        first = result("server1")
        agent.complete(first)
        agent.complete(result("server1", exec_ms=1))
        assert agent.jobs["job-1"].result is first
        assert [r["decision"] for r in rows] == ["submit", "done", "refuse"]

    def test_failed_result_fails_the_job(self):
        agent, rows = self.agent_with_rows()
        agent.complete({"job_id": "job-1", "provider_id": "server1", "failed": True,
                        "error": "InvalidState"})
        assert agent.jobs["job-1"].status is JobStatus.FAILED
        assert agent.jobs_on("server1") == []
        assert rows[-1]["decision"] == "fail"


def floor(min_throughput):
    return ServiceLevelAgreement(min_throughput=min_throughput)


class TestLocalTune:
    def sample_pair(self, run_ms, capture_ms, iterations=10):
        a = MonitorSample("p", "j", 0, 0, capture_ms=0)
        b = MonitorSample("p", "j", run_ms, iterations, capture_ms=capture_ms)
        return [a, b]

    def test_high_overhead_doubles_interval(self):
        # 10 iterations in 1 s, 0.6 s of it capturing: 10 it/s, and 25 it/s without the captures
        assert tune_decision(self.sample_pair(1000, 600), floor(20), current_interval=4) == 8

    def test_capture_free_rate_below_the_floor_changes_nothing(self):
        assert tune_decision(self.sample_pair(1000, 600), floor(30), current_interval=4) == 4
        # a capture-free rate that just meets the floor is enough: 10 iterations in 0.5 s
        assert tune_decision(self.sample_pair(1000, 500), floor(20), current_interval=4) == 8

    def test_cap_respected(self):
        assert tune_decision(self.sample_pair(1000, 600), floor(20), current_interval=128) == 128
        assert tune_decision(self.sample_pair(1000, 600), floor(20), current_interval=100) == 128
        # an interval set above the cap is left as it is, not lowered to the cap
        assert tune_decision(self.sample_pair(1000, 600), floor(20), current_interval=1024) == 1024

    def test_rate_runs_from_the_first_sample_to_the_last(self):
        # a window of window_k + 1 samples with cumulative capture times: 10 iterations
        # in 1 s, 0.4 s of it capturing, so 16.7 it/s capture-free; the middle one is not read
        window = [MonitorSample("p", "j", 1000, 100, capture_ms=50),
                  MonitorSample("p", "j", 1500, 101, capture_ms=450),
                  MonitorSample("p", "j", 2000, 110, capture_ms=450)]
        assert tune_decision(window, floor(16), current_interval=16) == 32
        assert tune_decision(window, floor(17), current_interval=16) == 16

    def test_window_without_run_or_capture_changes_nothing(self):
        # a virtual clock charges captures nothing: the capture-free rate is the violating one
        assert tune_decision(self.sample_pair(1000, 0), floor(20), current_interval=4) == 4
        sim_window = [MonitorSample("p", "j", Fraction(0), 0),
                      MonitorSample("p", "j", Fraction(3359, 3), 9)]
        assert tune_decision(sim_window, floor(9), current_interval=16) == 16


class TestDecisionLog:
    def test_jsonl_entries(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        agent, _ = make_agent()
        agent.emit = harness.Timeline(path).emit
        deploy(agent, start_on="server1")
        MonitorHub(agent.broker).note_withdrawal("server1", 1, agent.jobs_on("server1"))
        agent.on_report(withdrawal())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {e["decision"] for e in lines} >= {"submit", "reschedule", "transfer"}
        assert all(set(e) == {"t", "event", "job_id", "provider", "report_kind", "decision",
                              "detail"} and e["event"] == "decision" for e in lines)


class TestEndToEndFaultInjection:
    def cut_first_transfer(self, tmp_path):
        """A sim job 10 iterations into its run on server1, after a migration
        to server2 whose transfer failed on arrival. It checkpoints every 2 iterations,
        so every even iteration is a yield point."""
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     checkpoint_interval=2)
        env.deploy_sort("j-fault", 40, 9, start_on="server1")
        run_to(env.nodes["server1"], "j-fault", 10, call="step")
        target = env.nodes["server2"]

        def cut(payload):  # fails once; then the node's own method serves again
            del target.resume_from_bundle
            raise ConnectionResetError("wire cut")

        target.resume_from_bundle = cut
        with pytest.raises(TransferFailed):
            env.supervisory.migrate("j-fault", "server2")

        entry = env.supervisory.jobs["j-fault"]
        assert entry.status is JobStatus.RUNNING
        assert entry.current_provider == "server1"
        return env

    def test_failed_transfer_job_completes_on_source_with_reference_digest(self, tmp_path):
        env = self.cut_first_transfer(tmp_path)
        result = env.run_job("j-fault")
        assert result["digest"] == reference_digest(40, 9)
        env.step_log.assert_single_ownership("j-fault")

    def test_failed_transfer_after_a_withdrawal_leaves_a_row(self, tmp_path):
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     withdraw_at={"server1": 20})

        def cut(payload):
            raise ConnectionResetError("wire cut")

        env.nodes["server2"].resume_from_bundle = cut
        env.deploy_sort("j-cut", 60, 9, start_on="server1")
        result = env.run_job("j-cut")
        assert (result["provider_id"], result["digest"]) == ("server1", reference_digest(60, 9))
        env.step_log.assert_single_ownership("j-cut")
        rows = [r for r in env.step_log.rows if r["event"] == "decision"]
        assert [r["decision"] for r in rows] == ["submit", "reschedule", "transfer_failed", "done"]
        assert rows[2]["provider"] == "server1" and "wire cut" in rows[2]["detail"]

    def test_migration_retried_after_a_failed_transfer_lands(self, tmp_path):
        env = self.cut_first_transfer(tmp_path)
        run_to(env.nodes["server1"], "j-fault", 14, call="step")
        record = env.supervisory.migrate("j-fault", "server2")
        assert record.iterations_before == 14
        result = env.run_job("j-fault")
        assert result["provider_id"] == "server2"
        assert result["digest"] == reference_digest(40, 9)
        env.step_log.assert_single_ownership("j-fault")
