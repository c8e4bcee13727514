import json

import pytest

from jobmig.broker import JobRequirementList, NoMatch, ResourceBroker, ResourceSpecTemplate
from jobmig.control import (
    ControlError,
    DecisionAction,
    DecisionLog,
    InvalidTarget,
    JobStatus,
    MigrationOutcome,
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
    UnknownJob,
    WithdrawalEvent,
)
from jobmig import harness

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
        return MigrationOutcome(iterations_before=249, time_on_source_ms=27381,
                                overhead_ms=3620)

    def update_sla(self, provider_id, job_id, sla):
        self.sla_updates.append((provider_id, job_id, sla))


def make_agent(transport=None):
    broker = ResourceBroker()
    broker.register_provider(ResourceSpecTemplate(
        provider_id="server1", address="127.0.0.1:7001", cpu_mhz=2800, memory_mb=512))
    broker.register_provider(ResourceSpecTemplate(
        provider_id="server2", address="127.0.0.1:7002", cpu_mhz=3000, memory_mb=1024))
    transport = transport or RecordingTransport()
    agent = SupervisoryAgent(broker, MonitorHub(broker), transport)
    return agent, transport


def deploy(agent, job_id="job-1", start_on=None):
    jrl = JobRequirementList(job_id=job_id, min_cpu_mhz=2800, min_memory_mb=512, sla=SLA)
    return agent.deploy(jrl, "sort", {"n": 500, "seed": 42}, start_on=start_on)


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
        assert entry.candidates.provider_ids == ("server2", "server1")
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
        agent.hub.note_withdrawal("server1", now_ms=1)
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
        agent.hub.note_withdrawal("server2", now_ms=0)
        agent.hub.note_withdrawal("server1", now_ms=1)
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

    def test_unknown_job_rejected(self):
        agent, _ = make_agent()
        with pytest.raises(UnknownJob):
            agent.on_report(violation(job="ghost"))

    def test_decide_is_deterministic(self):
        agent, _ = make_agent()
        deploy(agent, start_on="server1")
        agent.hub.note_withdrawal("server1", now_ms=1)
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
        agent.complete("job-1", digest=0xDEAD, exec_ms=25421, iterations=500)
        assert record.time_on_target_ms == 25421
        assert record.total_ms == 27381 + 25421 + 3620 == 56422
        record.check_identity()


class TestMigrationRecordIdentity:
    def test_identity_enforced(self):
        record = MigrationRecord(job_id="j", from_provider="a", to_provider="b",
                                 iterations_before=1, time_on_source_ms=10,
                                 time_on_target_ms=20, overhead_ms=5, total_ms=36)
        with pytest.raises(ControlError):
            record.check_identity()
        record.total_ms = 35
        record.check_identity()


class TestLocalTune:
    def sample_pair(self, run_ms, ckpt_us):
        a = MonitorSample("p", "j", 0, 0, checkpoint_us=0, run_us=0)
        b = MonitorSample("p", "j", 1, 10, checkpoint_us=ckpt_us, run_us=run_ms * 1000)
        return [a, b]

    def test_high_overhead_doubles_interval(self):
        # 8% of 10s spent checkpointing
        action = tune_decision(self.sample_pair(10_000, 800_000), current_interval=4)
        assert action.kind == "set_checkpoint_interval"
        assert action.interval == 8

    def test_inside_hysteresis_band_no_change(self):
        action = tune_decision(self.sample_pair(10_000, 300_000), current_interval=4)  # 3%
        assert action.kind == "none"

    def test_cap_respected(self):
        action = tune_decision(self.sample_pair(10_000, 800_000), current_interval=128)
        assert action.kind == "none"

    def test_low_overhead_halves_interval(self):
        action = tune_decision(self.sample_pair(10_000, 10_000), current_interval=8)  # 0.1%
        assert action.kind == "set_checkpoint_interval"
        assert action.interval == 4

    def test_floor_of_one(self):
        for ckpt_us in (0, 10_000):  # 0% and 0.1%
            action = tune_decision(self.sample_pair(10_000, ckpt_us), current_interval=1)
            assert action.kind == "none"

    def test_sample_clock_does_not_enter_the_fraction(self):
        # 8% of the run time, whatever the sample timestamps (virtual in sim)
        a = MonitorSample("p", "j", 0, 0, checkpoint_us=0, run_us=0)
        b = MonitorSample("p", "j", 10**9, 10, checkpoint_us=800, run_us=10_000)
        assert tune_decision([a, b], current_interval=4).interval == 8

    def test_window_without_run_or_capture_changes_nothing(self):
        assert tune_decision(self.sample_pair(0, 0), current_interval=4).kind == "none"
        # no capture fell in the window, which says nothing about their cost
        assert tune_decision(self.sample_pair(10_000, 0), current_interval=8).kind == "none"
        assert tune_decision(self.sample_pair(10_000, 800_000)[1:], current_interval=4).kind \
            == "none"

    def test_tuned_sim_job_keeps_its_interval_up(self, tmp_path):
        # checkpointing an N=1000 array every 16 steps costs far more than 5% of the
        # run time, so the tuner must raise the interval, never halve it to 1
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path,
                                     tune=True)
        env.deploy_sort("tuned", 1000, 5, start_on="server1")
        result = env.run_job("tuned")
        node = env.nodes["server1"]
        assert len(node.store.load("tuned")) <= 63  # the untuned job's count at interval 16
        assert node.job("tuned").checkpoint_interval >= 16
        assert result["digest"] == harness.reference_digest(1000, 5)


class TestDecisionLog:
    def test_jsonl_entries(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        agent, _ = make_agent()
        agent.log = DecisionLog(path)
        deploy(agent, start_on="server1")
        agent.hub.note_withdrawal("server1", now_ms=1)
        agent.on_report(withdrawal())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {e["decision"] for e in lines} >= {"submit", "reschedule", "transfer"}
        assert all(set(e) == {"ts", "job_id", "report_kind", "decision", "detail"}
                   for e in lines)


class TestEndToEndFaultInjection:
    def cut_first_transfer(self, tmp_path):
        """A sim job 10 iterations into its run on server1, after a migration
        to server2 whose transfer failed on arrival."""
        config = harness.calibrate_from_table1()
        env = harness.SimEnvironment(config, harness.default_providers(config), tmp_path)
        env.deploy_sort("j-fault", 40, 9, start_on="server1")
        for _ in range(10):
            env.route(env.nodes["server1"].run_iteration("j-fault"))
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
        assert result["digest"] == harness.reference_digest(40, 9)
        env.step_log.assert_single_ownership("j-fault")

    def test_migration_retried_after_a_failed_transfer_lands(self, tmp_path):
        env = self.cut_first_transfer(tmp_path)
        for _ in range(4):
            env.route(env.nodes["server1"].run_iteration("j-fault"))
        record = env.supervisory.migrate("j-fault", "server2")
        assert record.iterations_before == 14
        result = env.run_job("j-fault")
        assert result["provider_id"] == "server2"
        assert result["digest"] == harness.reference_digest(40, 9)
        env.step_log.assert_single_ownership("j-fault")
