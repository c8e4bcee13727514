"""Job control: the supervisory agent and the local tuning rule.

The supervisory agent deploys jobs through the broker, acts on a node's
result or report only while the job runs on that node, and turns each
throughput violation, once, into a decision: reschedule to a strictly better
provider, or renegotiate the SLA. A provider's withdrawal moves each job
running there to its best-ranked target, or fails it (``on_withdrawal``). A
migration carries the job's checkpointed state to the new provider. Each
decision goes to its ``emit`` as a timeline row ``{"t", "event": "decision",
"job_id", "provider", "report_kind", "decision", "detail"}``.
Local tuning (``tune_decision``) is a node's first answer to a confirmed violation,
before any report leaves it: a job that checkpointing less often could speed up to
its floor gets a doubled interval, and a miss that persists is confirmed anew.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, Protocol, Sequence

from .broker import (
    JobRequirementList,
    NoMatch,
    ResourceBroker,
    eligible,
    match_job,
    score,
)
from .monitor import (
    MonitorSample,
    PerformanceReport,
    ServiceLevelAgreement,
)


class ControlError(Exception):
    pass


class InvalidTarget(ControlError):
    pass


class SubmitTimeout(ControlError):
    pass


class TransferFailed(ControlError):
    """Migration transfer failed; the job remains intact on the source."""


class JobStatus(enum.Enum):
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class MigrationRecord:
    """One migration's accounting row: total = source + target + overhead."""

    job_id: str
    from_provider: str
    to_provider: str
    iterations_before: int
    time_on_source_ms: Any
    time_on_target_ms: Any = None
    overhead_ms: Any = 0

    @property
    def total_ms(self):
        """None until the job's result sets ``time_on_target_ms``."""
        if self.time_on_target_ms is None:
            return None
        return self.time_on_source_ms + self.time_on_target_ms + self.overhead_ms


@dataclass
class JobEntry:
    jrl: JobRequirementList
    sla: ServiceLevelAgreement
    current_provider: str
    status: JobStatus
    excluded: set[str] = field(default_factory=set)
    migrations: list[MigrationRecord] = field(default_factory=list)
    result: dict | None = None  # the RESULT_RETURN body the job ended with
    reports: set[PerformanceReport] = field(default_factory=set)  # those acted on


class DecisionAction(enum.Enum):
    RESCHEDULE = "reschedule"
    RENEGOTIATE_SLA = "renegotiate_sla"


@dataclass(frozen=True)
class Decision:
    action: DecisionAction
    target: str | None = None
    new_sla: ServiceLevelAgreement | None = None
    reason: str = ""


# a violation with no strictly better-scored provider relaxes the floor by this factor
RENEGOTIATE_FACTOR = 0.8


class Transport(Protocol):
    def submit(self, provider_id: str, job_spec: dict) -> None: ...
    def migrate(self, source_id: str, job_id: str, target_id: str) -> MigrationRecord: ...
    def update_sla(self, provider_id: str, job_id: str, sla: ServiceLevelAgreement) -> None: ...


CHECKPOINT_INTERVAL_CAP = 128


def tune_decision(window: Sequence[MonitorSample], sla: ServiceLevelAgreement,
                  current_interval: int) -> int:
    """The checkpoint interval after a throughput violation confirmed over ``window``:
    doubled, up to 128, if the window's iterations over its node-clock time less its
    capture time (``capture_ms``) meet the SLA floor, so the node holds the report;
    else unchanged, and the node sends it. A virtual clock charges captures nothing,
    so there that rate is the violating one, and sim never tunes."""
    first, last = window[0], window[-1]
    free_ms = last.timestamp_ms - first.timestamp_ms - (last.capture_ms - first.capture_ms)
    if current_interval < CHECKPOINT_INTERVAL_CAP \
            and (last.iterations_done - first.iterations_done) * 1000 >= sla.min_throughput * free_ms:
        return min(current_interval * 2, CHECKPOINT_INTERVAL_CAP)
    return current_interval


class SupervisoryAgent:
    """The one global control agent: deploys jobs, reacts to reports,
    orchestrates migrations through the transport, and collects results. It
    alone knows where each job runs and how it ended."""

    def __init__(self, broker: ResourceBroker, transport: Transport,
                 clock=None, emit: Callable[[dict], None] | None = None):
        self.broker = broker
        self.transport = transport
        self.clock = clock or (lambda: 0)
        self.emit = emit or (lambda row: None)
        self.jobs: dict[str, JobEntry] = {}

    def _record(self, job_id: str, report_kind: str, decision: str, detail: str,
                t=None, provider: str | None = None) -> None:
        """One decision row, stamped ``t`` or now, about ``provider`` or the job's current one."""
        self.emit({"t": self.clock() if t is None else t, "event": "decision",
                   "job_id": job_id, "provider": provider or self.jobs[job_id].current_provider,
                   "report_kind": report_kind, "decision": decision, "detail": detail})

    def _acts_on(self, job_id: str, sender: str, kind: str) -> JobEntry | None:
        """The job's entry if a ``kind`` message from ``sender`` applies to it: the
        job runs, on ``sender``. Any other message gets a ``refuse`` row and None."""
        entry = self.jobs.get(job_id)
        if entry and entry.status is JobStatus.RUNNING and sender == entry.current_provider:
            return entry
        where = (f"{entry.status.value} on {entry.current_provider}" if entry
                 else "never deployed")
        self._record(job_id, kind, "refuse", f"{kind} from {sender} for a job {where}",
                     provider=None if entry else sender)
        return None

    def jobs_on(self, provider_id: str) -> list[str]:
        """The running jobs on ``provider_id``, sorted."""
        return sorted(job_id for job_id, entry in self.jobs.items()
                      if entry.status is JobStatus.RUNNING
                      and entry.current_provider == provider_id)

    # -- deployment ---------------------------------------------------------

    def deploy(self, jrl: JobRequirementList, task_kind: str, params: dict,
               start_on: str | None = None, checkpoint_interval: int | None = None) -> str:
        """Match, pick the best provider (or honor a forced placement), and submit."""
        if jrl.job_id in self.jobs:
            raise ControlError(f"job {jrl.job_id!r} already submitted")
        if jrl.sla is None:
            raise ControlError(f"job {jrl.job_id!r} has no SLA")
        result = self.broker.match(jrl)
        if start_on is not None:
            if start_on not in result.provider_ids:
                raise NoMatch(f"forced provider {start_on!r} is not eligible for {jrl.job_id!r}")
            chosen = start_on
        else:
            chosen = result.provider_ids[0]
        spec = {"job_id": jrl.job_id, "task_kind": task_kind, "params": params,
                "sla": jrl.sla.to_dict()}
        if checkpoint_interval is not None:  # else the node's default
            spec["checkpoint_interval"] = checkpoint_interval
        t = self.clock()  # the job's timeline starts before its node can step it
        self.transport.submit(chosen, spec)
        self.jobs[jrl.job_id] = JobEntry(
            jrl=jrl, sla=jrl.sla, current_provider=chosen, status=JobStatus.RUNNING)
        self._record(jrl.job_id, "deploy", "submit",
                     f"provider={chosen} ranked={list(result.provider_ids)}", t)
        return jrl.job_id

    # -- report handling ----------------------------------------------------

    def targets(self, entry: JobEntry) -> list[tuple[str, Fraction]]:
        """Where the job may move, best first, with scores: the eligible providers
        in the registry as it is now, less the job's current and former ones."""
        try:
            ranked = match_job(entry.jrl, self.broker.build_rst().values()).ranked
        except NoMatch:
            return []
        skip = entry.excluded | {entry.current_provider}
        return [(pid, pscore) for pid, pscore in ranked if pid not in skip]

    def decide(self, report: PerformanceReport) -> Decision:
        """Pure decision function of (violation report, state, broker snapshot):
        move only if somewhere strictly better exists, else relax the floor."""
        entry = self.jobs[report.job_id]
        current_score = score(self.broker.get(entry.current_provider), entry.jrl)
        for pid, pscore in self.targets(entry):
            if pscore > current_score:
                return Decision(DecisionAction.RESCHEDULE, target=pid,
                                reason="strictly better provider available")
        new_sla = replace(entry.sla, min_throughput=entry.sla.min_throughput * RENEGOTIATE_FACTOR)
        return Decision(DecisionAction.RENEGOTIATE_SLA, new_sla=new_sla,
                        reason="no better provider; relaxing throughput floor")

    def on_report(self, report: PerformanceReport) -> Decision | None:
        """Decide and apply a report the first time it comes: migrate, or record
        the new SLA. A refused or repeated report gets no decision."""
        entry = self._acts_on(report.job_id, report.provider_id, report.kind.value)
        if entry is None or report in entry.reports:
            return None
        entry.reports.add(report)
        decision = self.decide(report)
        self._record(report.job_id, report.kind.value, decision.action.value,
                     decision.reason + (f" target={decision.target}" if decision.target else ""))
        if decision.action is DecisionAction.RESCHEDULE:
            self._move(report.job_id, decision.target)
        else:
            self.transport.update_sla(entry.current_provider, report.job_id, decision.new_sla)
            entry.sla = decision.new_sla
        return decision

    def on_withdrawal(self, provider_id: str) -> list[str]:
        """Mark the provider unavailable, then move each job running on it, in
        sorted order, to the head of its ``targets``, or fail it if there is none.
        Returns the jobs it failed."""
        self.broker.set_available(provider_id, False)  # UnknownProvider if it is not registered
        failed = []
        for job_id in self.jobs_on(provider_id):
            targets = self.targets(self.jobs[job_id])
            if targets:
                target = targets[0][0]
                self._record(job_id, "resource_withdrawn", "reschedule",
                             f"provider {provider_id} withdrew target={target}")
                self._move(job_id, target)
            else:
                self._record(job_id, "resource_withdrawn", "fail",
                             "no alternative provider after withdrawal")
                self.jobs[job_id].status = JobStatus.FAILED
                failed.append(job_id)
        return failed

    def _move(self, job_id: str, target: str) -> None:
        """``migrate``, with a ``transfer_failed`` row if the transfer fails."""
        try:
            self.migrate(job_id, target)
        except TransferFailed as exc:
            self._record(job_id, "migrate", "transfer_failed", str(exc))

    # -- migration ----------------------------------------------------------

    def migrate(self, job_id: str, to_provider: str) -> MigrationRecord:
        """Quiesce, transfer, resume on the target, tombstone the source.

        All-or-nothing from the job's perspective: on TransferFailed the job
        keeps running on the source provider.
        """
        entry = self.jobs[job_id]
        if entry.status is not JobStatus.RUNNING:
            raise ControlError(f"job {job_id!r} is {entry.status.value}, not running")
        source = entry.current_provider
        if to_provider == source:
            raise InvalidTarget("migration target equals the current provider")
        template = self.broker.get(to_provider)
        if template is None or not eligible(template, entry.jrl):
            raise InvalidTarget(f"provider {to_provider!r} is not eligible for {job_id!r}")

        record = self.transport.migrate(source, job_id, to_provider)
        entry.current_provider = to_provider
        entry.excluded.add(source)
        entry.migrations.append(record)
        self._record(job_id, "migrate", "transfer",
                     f"{source}->{to_provider} after {record.iterations_before} iterations")
        return record

    # -- completion ---------------------------------------------------------

    def complete(self, result: dict) -> None:
        """Take a RESULT_RETURN body: the job ends, done or failed, if it is
        running on the result's sender; any other result is refused."""
        job_id = result["job_id"]
        entry = self._acts_on(job_id, result["provider_id"], "result")
        if entry is None:
            return
        entry.result = result
        if result.get("failed"):
            entry.status = JobStatus.FAILED
            self._record(job_id, "result", "fail", f"error={result.get('error')}")
            return
        entry.status = JobStatus.DONE
        if entry.migrations:  # the gate lets one result through: the last move's target time
            entry.migrations[-1].time_on_target_ms = result["exec_ms"]
        self._record(job_id, "result", "done",
                     f"digest={result['digest']:016x} iterations={result['iterations_done']}")
