"""Scenario runner: deterministic virtual-time simulation and wall-mode runs.

Scenario 1 runs a job to completion on one provider; scenario 2 starts on the
same provider, migrates to a second one when the first withdraws, and finishes
there. Rows carry the benchmark accounting columns, and in sim mode the
identity ``scenario2_total = time_source + time_target + overhead`` holds
exactly. The sim cost model is calibrated from the table1 baseline rows.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import workload
from .broker import (
    JobRequirementList,
    ResourceBroker,
    ResourceSpecTemplate,
    load_providers,
    template_from_dict,
)
from .control import (
    DecisionLog,
    JobStatus,
    MigrationOutcome,
    MigrationRecord,
    SubmitTimeout,
    SupervisoryAgent,
    TransferFailed,
)
from .monitor import MonitorHub, PerformanceReport, ServiceLevelAgreement
from .node import (
    MSG_ACK,
    MSG_JOB_SUBMIT,
    MSG_MIGRATE_REQUEST,
    MSG_MONITOR_REPORT,
    MSG_NAMES,
    MSG_REGISTER_PROVIDER,
    MSG_RESULT_RETURN,
    MSG_SLA_UPDATE,
    MSG_WITHDRAW_NOTICE,
    FrameServer,
    NodeError,
    NodeRuntime,
    UnsupportedMessage,
    VirtualClock,
    job_settings,
    json_payload,
    parse_json,
    request,
)


class HarnessError(Exception):
    pass


# -- table1 baseline ------------------------------------------------------------
# Reference measurements (milliseconds) used for calibration defaults and as
# regression fixtures. Every row satisfies
# time_source + time_target + overhead == scenario2_total exactly.

@dataclass(frozen=True)
class BaselineRow:
    n: int
    scenario1_total_ms: int
    scenario2_total_ms: int
    iterations_before: int
    time_source_ms: int
    time_target_ms: int
    overhead_ms: int


TABLE1_BASELINE: tuple[BaselineRow, ...] = (
    BaselineRow(500, 57306, 56422, 249, 27381, 25421, 3620),
    BaselineRow(1000, 111686, 104896, 516, 56805, 43371, 4720),
    BaselineRow(1500, 171436, 159883, 764, 84056, 70002, 5825),
    BaselineRow(2000, 217751, 212264, 1050, 115500, 89811, 6953),
    BaselineRow(2500, 276016, 270604, 1298, 142882, 119944, 7778),
)

SOURCE_PROVIDER = "server1"
TARGET_PROVIDER = "server2"

DEFAULT_MIN_CPU_MHZ = 2800
DEFAULT_MIN_MEMORY_MB = 512

DEFAULT_SIM_SLA = ServiceLevelAgreement(min_throughput=2.0, window_k=3, sample_period_ms=1000)
DEFAULT_WALL_SLA = ServiceLevelAgreement(min_throughput=0.001, window_k=3, sample_period_ms=50)


@dataclass(frozen=True)
class SimConfig:
    """Virtual-time cost model: per-iteration cost, linear migration overhead
    ``a + b*N``, and per-provider speed factors."""

    per_iteration_cost_ms: Fraction
    overhead_a: Fraction
    overhead_b: Fraction
    speed_factors: dict[str, Fraction]

    def __post_init__(self):
        if self.per_iteration_cost_ms <= 0:
            raise ValueError("per-iteration cost must be positive")
        if self.overhead_a < 0 or self.overhead_b < 0:
            raise ValueError("overhead coefficients must be non-negative")

    def overhead_ms(self, n: int) -> Fraction:
        return self.overhead_a + self.overhead_b * n

    def speed_of(self, provider_id: str) -> Fraction:
        return self.speed_factors.get(provider_id, Fraction(1))


def fit_line(xs: Sequence[int], ys: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact least-squares fit y = a + b*x over rationals."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points to fit")
    n = len(xs)
    xbar = Fraction(sum(xs), n)
    ybar = Fraction(sum(ys), n)
    sxx = sum((Fraction(x) - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x equal")
    sxy = sum((Fraction(x) - xbar) * (Fraction(y) - ybar) for x, y in zip(xs, ys))
    b = sxy / sxx
    return ybar - b * xbar, b


def calibrate_from_table1() -> SimConfig:
    """Derive sim defaults from the baseline rows.

    Per-iteration cost is the mean scenario1 cost per element; the target
    speed factor is that cost over the mean per-iteration cost observed on
    the target; the overhead model is the least-squares line through the
    overhead column.
    """
    rows = TABLE1_BASELINE
    cost = sum(Fraction(r.scenario1_total_ms, r.n) for r in rows) / len(rows)
    target_cost = sum(Fraction(r.time_target_ms, r.n - r.iterations_before)
                      for r in rows) / len(rows)
    a, b = fit_line([r.n for r in rows], [r.overhead_ms for r in rows])
    return SimConfig(per_iteration_cost_ms=cost, overhead_a=a, overhead_b=b,
                     speed_factors={SOURCE_PROVIDER: Fraction(1),
                                    TARGET_PROVIDER: cost / target_cost})


def default_providers(config: SimConfig | None = None) -> list[ResourceSpecTemplate]:
    """The two-provider testbed the scenarios were measured on."""
    config = config or calibrate_from_table1()
    return [
        ResourceSpecTemplate(provider_id=SOURCE_PROVIDER, address="127.0.0.1:7001",
                             cpu_mhz=2800, memory_mb=512, arch_tags=frozenset({"x86"}),
                             speed_factor=config.speed_of(SOURCE_PROVIDER)),
        ResourceSpecTemplate(provider_id=TARGET_PROVIDER, address="127.0.0.1:7002",
                             cpu_mhz=3000, memory_mb=1024, arch_tags=frozenset({"x86"}),
                             speed_factor=config.speed_of(TARGET_PROVIDER)),
    ]


# -- result rows -----------------------------------------------------------------

CSV_COLUMNS = ("N", "scenario1_total_ms", "scenario2_total_ms", "iterations_before",
               "time_source_ms", "time_target_ms", "overhead_ms")


@dataclass
class ScenarioRow:
    n: int
    scenario1_total_ms: Any = None
    scenario2_total_ms: Any = None
    iterations_before: int | None = None
    time_source_ms: Any = None
    time_target_ms: Any = None
    overhead_ms: Any = None

    def check_identity(self) -> None:
        parts = (self.time_source_ms, self.time_target_ms, self.overhead_ms)
        if self.scenario2_total_ms is None or any(p is None for p in parts):
            return
        if self.scenario2_total_ms != sum(parts):
            raise HarnessError(
                f"accounting identity violated for N={self.n}: "
                f"{self.scenario2_total_ms} != {parts[0]} + {parts[1]} + {parts[2]}")

    def cells(self) -> list[str]:
        return [str(self.n), format_ms(self.scenario1_total_ms),
                format_ms(self.scenario2_total_ms),
                "" if self.iterations_before is None else str(self.iterations_before),
                format_ms(self.time_source_ms), format_ms(self.time_target_ms),
                format_ms(self.overhead_ms)]


def format_ms(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        value = float(value)
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def emit_table(rows: Sequence[ScenarioRow], out_path: str | Path | None = None) -> tuple[str, str]:
    """Render rows as CSV (written to out_path if given) plus an aligned text
    table; the accounting identity is re-checked for every row."""
    if not rows:
        raise HarnessError("emit_table needs at least one row")
    for row in rows:
        row.check_identity()
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.cells()) for row in rows)
    csv_text = "\n".join(lines) + "\n"

    grid = [list(CSV_COLUMNS)] + [row.cells() for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(CSV_COLUMNS))]
    aligned = "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in grid) + "\n"

    if out_path is not None:
        Path(out_path).write_text(csv_text)
    return csv_text, aligned


# -- step ownership log ------------------------------------------------------------

class StepLog:
    """Global record of every executed iteration: (provider, job, iteration)."""

    def __init__(self):
        self.entries: list[tuple[str, str, int]] = []

    def record(self, provider_id: str, job_id: str, iteration: int) -> None:
        self.entries.append((provider_id, job_id, iteration))

    def for_job(self, job_id: str) -> list[tuple[str, int]]:
        return [(p, i) for p, j, i in self.entries if j == job_id]

    def assert_single_ownership(self, job_id: str) -> None:
        """Every iteration ran exactly once, in order, with no provider interleaving."""
        steps = self.for_job(job_id)
        for idx, (_, iteration) in enumerate(steps):
            if iteration != idx:
                raise HarnessError(
                    f"job {job_id!r}: iteration {iteration} executed out of order at step {idx}")
        providers = [p for p, _ in steps]
        seen: list[str] = []
        for p in providers:
            if not seen or seen[-1] != p:
                if p in seen:
                    raise HarnessError(f"job {job_id!r} returned to provider {p!r}")
                seen.append(p)


# -- environments ----------------------------------------------------------------------

@dataclass
class ScenarioOutcome:
    row: ScenarioRow
    digest: int
    iterations: int
    migration: MigrationRecord | None = None
    step_log: StepLog | None = None
    detail: dict = field(default_factory=dict)


class Environment:
    """One mode's providers under one broker, monitor hub and supervisory
    agent. Subclasses add ``run_job`` (a deployed job to its result); in both
    modes node messages reach the hub and the supervisor through ``route``."""

    step_log: StepLog | None = None  # who ran each iteration, where the mode records it
    reply_to: str | None = None  # where nodes send results; None means their supervisor

    def __init__(self, broker: ResourceBroker, transport, clock, sla: ServiceLevelAgreement,
                 checkpoint_interval: int, decision_log: str | Path | None):
        self.broker = broker
        self.hub = MonitorHub(broker)
        self.transport = transport
        self.supervisory = SupervisoryAgent(broker, self.hub, transport, clock=clock,
                                            decision_log=DecisionLog(decision_log))
        self.sla = sla
        self.checkpoint_interval = checkpoint_interval
        self.results: dict[str, dict] = {}

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def dump_logs(self) -> str:
        return ""

    @property
    def migrate_detail(self) -> dict:
        """Transfer and restore times of the last migration, where the transport measures them."""
        return {}

    def deploy_sort(self, job_id: str, n: int, seed: int, start_on: str | None = None) -> str:
        jrl = JobRequirementList(job_id=job_id, min_cpu_mhz=DEFAULT_MIN_CPU_MHZ,
                                 min_memory_mb=DEFAULT_MIN_MEMORY_MB,
                                 arch_tags=frozenset(), sla=self.sla)
        return self.supervisory.deploy(jrl, workload.SORT_KIND, {"n": n, "seed": seed},
                                       start_on=start_on,
                                       checkpoint_interval=self.checkpoint_interval,
                                       reply_to=self.reply_to)

    def route(self, msgs: list[tuple[int, dict]]) -> None:
        """Hand node messages on: a withdrawal becomes a report for every job
        on that provider, reports go through the hub to the supervisor, and a
        result completes its job, or raises if the job failed."""
        for msg_type, body in msgs:
            if msg_type == MSG_WITHDRAW_NOTICE:
                reports = self.hub.note_withdrawal(body["provider_id"], body["at_ms"])
            elif msg_type == MSG_MONITOR_REPORT:
                reports = [PerformanceReport.from_dict(body)]
            elif body.get("failed"):
                raise HarnessError(f"job {body.get('job_id')} failed on "
                                   f"{body.get('provider_id')}: {body.get('error')}")
            else:
                self.results[body["job_id"]] = body
                self.supervisory.complete(body["job_id"], body["digest"],
                                          body["exec_ms"], body["iterations_done"])
                continue
            for report in reports:
                for fwd in self.hub.submit(report):
                    try:
                        self.supervisory.on_report(fwd)
                    except TransferFailed:
                        pass  # the job stays intact on its source; its result still comes


class SimTransport:
    """In-process transport: direct calls plus the virtual-time overhead model."""

    def __init__(self, env: "SimEnvironment"):
        self.env = env

    def submit(self, provider_id: str, job_spec: dict) -> None:
        self.env.nodes[provider_id].submit_job(job_spec["job_id"], job_spec["task_kind"],
                                               job_spec["params"], **job_settings(job_spec))

    def migrate(self, source_id: str, job_id: str, target_id: str) -> MigrationOutcome:
        env = self.env
        source = env.nodes[source_id]
        overhead = env.config.overhead_ms(source.job(job_id).task.total_iterations)

        def send(payload: bytes) -> dict:
            # a transfer cut before it lands costs no virtual time
            ack = env.nodes[target_id].resume_from_bundle(payload)
            env.clock.advance(overhead)
            return ack

        info, _ = source.hand_off(job_id, send)
        return MigrationOutcome(iterations_before=info["iterations_before"],
                                time_on_source_ms=info["time_on_source_ms"],
                                overhead_ms=overhead)

    def update_sla(self, provider_id: str, job_id: str, sla: ServiceLevelAgreement) -> None:
        self.env.nodes[provider_id].update_sla(job_id, sla)


class SimEnvironment(Environment):
    """All components in one process sharing a virtual clock."""

    def __init__(self, config: SimConfig, providers: Sequence[ResourceSpecTemplate],
                 workdir: str | Path, sla: ServiceLevelAgreement = DEFAULT_SIM_SLA,
                 checkpoint_interval: int = 16,
                 withdraw_at: dict[str, int] | None = None,
                 decision_log: str | Path | None = None, tune: bool = False):
        self.config = config
        self.clock = VirtualClock()
        self.step_log = StepLog()
        self.nodes: dict[str, NodeRuntime] = {}
        broker = ResourceBroker()
        withdraw_at = withdraw_at or {}
        for template in providers:
            broker.register_provider(template)
            self.nodes[template.provider_id] = NodeRuntime(
                provider_id=template.provider_id, clock=self.clock,
                store_dir=Path(workdir) / template.provider_id,
                step_cost_ms=config.per_iteration_cost_ms / template.speed_factor,
                withdraw_at=withdraw_at.get(template.provider_id),
                tune_enabled=tune, on_step=self.step_log.record)
        super().__init__(broker, SimTransport(self), self.clock.now_ms, sla,
                         checkpoint_interval, decision_log)

    def run_job(self, job_id: str, max_steps: int | None = None) -> dict:
        """Step the job on whichever node holds it until its result. The clock
        is this job's alone, so it must then read the job's accounted time:
        its execution on every node plus each migration's overhead."""
        entry = self.supervisory.jobs[job_id]
        budget = max_steps if max_steps is not None else 10_000_000
        while entry.status not in (JobStatus.DONE, JobStatus.FAILED):
            if budget <= 0:
                raise HarnessError(f"job {job_id!r} did not finish within the step budget")
            budget -= 1
            node = self.nodes[entry.current_provider]
            self.route(node.run_iteration(job_id))
        if entry.status is JobStatus.FAILED:
            raise HarnessError(f"job {job_id!r} failed")
        result = self.results[job_id]
        accounted = result["exec_ms"] + sum(r.time_on_source_ms + r.overhead_ms
                                            for r in entry.migrations)
        if self.clock.now_ms() != accounted:
            raise HarnessError("virtual clock diverged from the job's accounted time")
        return result


class SupervisoryListener(FrameServer):
    """Frame endpoint for node-originated messages: registrations go to the
    broker; withdrawals, reports and results to ``events``."""

    def __init__(self, broker: ResourceBroker):
        super().__init__()
        self.broker = broker
        self.events: "queue.Queue[tuple[int, dict]]" = queue.Queue()
        self.start()

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        if msg_type == MSG_REGISTER_PROVIDER:
            self.broker.register_provider(template_from_dict(parse_json(payload)))
        elif msg_type in (MSG_WITHDRAW_NOTICE, MSG_MONITOR_REPORT, MSG_RESULT_RETURN):
            self.events.put((msg_type, parse_json(payload)))
        else:
            raise UnsupportedMessage(f"the supervisor does not serve "
                                     f"{MSG_NAMES.get(msg_type, hex(msg_type))} messages")
        return MSG_ACK, json_payload({"ok": True})


class WallTransport:
    """Frame client used by the supervisory agent against real node daemons."""

    timeout = 30.0  # seconds for each request to a node

    def __init__(self, broker: ResourceBroker):
        self.broker = broker
        self.last_detail: dict = {}

    def _addr(self, provider_id: str) -> str:
        template = self.broker.get(provider_id)
        if template is None:
            raise HarnessError(f"provider {provider_id!r} is not registered")
        return template.address

    def _call(self, provider_id: str, msg_type: int, obj: dict,
              error: type[Exception]) -> dict:
        """One request to a node; no reply or an ERROR reply raises ``error``."""
        name = MSG_NAMES[msg_type]
        try:
            reply_type, reply = request(self._addr(provider_id), msg_type, json_payload(obj),
                                        timeout=self.timeout)
        except (OSError, NodeError) as exc:
            raise error(f"{name} to {provider_id!r} failed: {exc}") from exc
        body = parse_json(reply)
        if reply_type != MSG_ACK:
            raise error(f"{provider_id!r} refused {name}: {body.get('error')}: "
                        f"{body.get('detail')}")
        return body

    def submit(self, provider_id: str, job_spec: dict) -> None:
        self._call(provider_id, MSG_JOB_SUBMIT, job_spec, SubmitTimeout)

    def migrate(self, source_id: str, job_id: str, target_id: str) -> MigrationOutcome:
        body = self._call(source_id, MSG_MIGRATE_REQUEST,
                          {"job_id": job_id, "target_id": target_id,
                           "target_addr": self._addr(target_id)}, TransferFailed)
        self.last_detail = {"transfer_ms": body.get("transfer_ms"),
                            "restore_ms": body.get("restore_ms")}
        return MigrationOutcome(iterations_before=int(body["iterations_before"]),
                                time_on_source_ms=float(body["time_on_source_ms"]),
                                overhead_ms=float(body["overhead_ms"]))

    def update_sla(self, provider_id: str, job_id: str, sla: ServiceLevelAgreement) -> None:
        self._call(provider_id, MSG_SLA_UPDATE, {"job_id": job_id, "sla": sla.to_dict()},
                   HarnessError)


# seconds the spawned nodes have to register with the supervisor
NODE_STARTUP_S = 20.0


class WallEnvironment(Environment):
    """Spawns real node processes and orchestrates them over TCP."""

    def __init__(self, providers: Sequence[ResourceSpecTemplate], workdir: str | Path,
                 sla: ServiceLevelAgreement = DEFAULT_WALL_SLA, checkpoint_interval: int = 16,
                 withdraw_at: dict[str, int] | None = None,
                 decision_log: str | Path | None = None):
        self.providers = list(providers)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.withdraw_at = withdraw_at or {}
        broker = ResourceBroker()
        self.listener = SupervisoryListener(broker)
        self.reply_to = self.listener.address
        super().__init__(broker, WallTransport(broker), time.monotonic, sla,
                         checkpoint_interval, decision_log)
        self.procs: dict[str, subprocess.Popen] = {}
        self.node_logs: dict[str, list[str]] = {}

    @property
    def migrate_detail(self) -> dict:
        return self.transport.last_detail

    # -- process management --------------------------------------------------

    def start(self) -> None:
        for template in self.providers:
            self._spawn(template)
        deadline = time.monotonic() + NODE_STARTUP_S
        pending = {t.provider_id for t in self.providers}
        while pending:
            pending = {p for p in pending if self.broker.get(p) is None}
            if not pending:
                break
            if time.monotonic() > deadline:
                raise HarnessError(f"nodes never registered: {sorted(pending)}\n{self.dump_logs()}")
            time.sleep(0.02)

    def _spawn(self, template: ResourceSpecTemplate) -> None:
        pid = template.provider_id
        cmd = [sys.executable, "-m", "jobmig.node", "--id", pid,
               "--listen", "127.0.0.1:0", "--supervisor", self.listener.address,
               "--data-dir", str(self.workdir / pid),
               "--cpu-mhz", str(template.cpu_mhz), "--memory-mb", str(template.memory_mb)]
        for tag in sorted(template.arch_tags):
            cmd += ["--arch", tag]
        if pid in self.withdraw_at:
            cmd += ["--withdraw-at", str(self.withdraw_at[pid])]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, bufsize=1, env=env)
        self.procs[pid] = proc
        self.node_logs[pid] = []
        threading.Thread(target=self._read_stdout, args=(pid, proc), daemon=True).start()

    def _read_stdout(self, pid: str, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            self.node_logs[pid].append(line.rstrip("\n"))

    def dump_logs(self) -> str:
        chunks = []
        for pid, lines in self.node_logs.items():
            chunks.append(f"--- {pid} ---")
            chunks.extend(lines[-50:])
        return "\n".join(chunks)

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        self.listener.stop()

    # -- orchestration --------------------------------------------------------

    def pump_until_complete(self, job_id: str, timeout: float = 60.0) -> dict:
        """Route the nodes' messages until the job's result arrives."""
        deadline = time.monotonic() + timeout
        while job_id not in self.results:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessError(f"job {job_id!r} did not complete in time\n{self.dump_logs()}")
            try:
                self.route([self.listener.events.get(timeout=min(remaining, 0.5))])
            except queue.Empty:
                continue
        return self.results[job_id]

    run_job = pump_until_complete


# -- scenarios ------------------------------------------------------------------------

def _environment(mode: str, config: SimConfig,
                 providers: Sequence[ResourceSpecTemplate] | None, needed: Sequence[str],
                 workdir: Path, sla: ServiceLevelAgreement | None, checkpoint_interval: int,
                 withdraw_at: dict[str, int] | None = None,
                 decision_log: str | Path | None = None) -> Environment:
    """The mode's environment over the ``needed`` providers, in that order."""
    pool = {t.provider_id: t for t in (providers or default_providers(config))}
    missing = [p for p in needed if p not in pool]
    if missing:
        raise HarnessError(f"no provider spec for {missing}")
    chosen = [pool[p] for p in needed]
    if mode == "wall":
        return WallEnvironment(chosen, workdir, sla=sla or DEFAULT_WALL_SLA,
                               checkpoint_interval=checkpoint_interval,
                               withdraw_at=withdraw_at, decision_log=decision_log)
    return SimEnvironment(config, chosen, workdir, sla=sla or DEFAULT_SIM_SLA,
                          checkpoint_interval=checkpoint_interval, withdraw_at=withdraw_at,
                          decision_log=decision_log)


def _run(env: Environment, job_id: str, n: int, seed: int, start_on: str) -> dict:
    """Deploy one sort job on ``start_on`` and run it to its result."""
    try:
        env.start()
        env.deploy_sort(job_id, n, seed, start_on=start_on)
        return env.run_job(job_id)
    finally:
        env.stop()


def run_scenario1(n: int, seed: int, provider: str = SOURCE_PROVIDER, mode: str = "sim",
                  config: SimConfig | None = None,
                  providers: Sequence[ResourceSpecTemplate] | None = None,
                  sla: ServiceLevelAgreement | None = None, checkpoint_interval: int = 16,
                  workdir: str | Path | None = None, job_id: str | None = None,
                  decision_log: str | Path | None = None) -> ScenarioOutcome:
    """Uninterrupted run to completion on one provider."""
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix=f"jobmig-{mode}1-"))
    env = _environment(mode, config or calibrate_from_table1(), providers, [provider],
                       workdir, sla, checkpoint_interval, decision_log=decision_log)
    result = _run(env, job_id or f"sort-{n}-{seed}", n, seed, provider)
    return ScenarioOutcome(row=ScenarioRow(n=n, scenario1_total_ms=result["exec_ms"]),
                           digest=result["digest"], iterations=result["iterations_done"],
                           step_log=env.step_log)


def run_scenario2(n: int, seed: int, source: str = SOURCE_PROVIDER,
                  target: str = TARGET_PROVIDER, migrate_at: int | None = None,
                  mode: str = "sim", config: SimConfig | None = None,
                  providers: Sequence[ResourceSpecTemplate] | None = None,
                  sla: ServiceLevelAgreement | None = None, checkpoint_interval: int = 16,
                  workdir: str | Path | None = None, job_id: str | None = None,
                  decision_log: str | Path | None = None,
                  include_scenario1: bool = True) -> ScenarioOutcome:
    """Withdrawal-triggered migration: start on ``source``, finish on ``target``.

    The withdrawal fires at iteration ``migrate_at`` (default N//2). With
    ``include_scenario1`` the uninterrupted run on ``source`` must reach the
    same digest, and fills the row's scenario-1 column.
    """
    migrate_at = n // 2 if migrate_at is None else migrate_at
    if not 1 <= migrate_at < n:
        raise HarnessError(f"migrate_at must be in [1, {n - 1}], got {migrate_at}")
    config = config or calibrate_from_table1()
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix=f"jobmig-{mode}2-"))
    job_id = job_id or f"sort-{n}-{seed}"
    env = _environment(mode, config, providers, [source, target], workdir / "scenario2", sla,
                       checkpoint_interval, withdraw_at={source: migrate_at},
                       decision_log=decision_log)
    result = _run(env, job_id, n, seed, source)
    entry = env.supervisory.jobs[job_id]
    if not entry.migrations:
        raise HarnessError(f"scenario2 completed without migrating\n{env.dump_logs()}".rstrip())
    record = entry.migrations[-1]
    record.check_identity()
    row = ScenarioRow(n=n, scenario2_total_ms=record.total_ms,
                      iterations_before=record.iterations_before,
                      time_source_ms=record.time_on_source_ms,
                      time_target_ms=record.time_on_target_ms,
                      overhead_ms=record.overhead_ms)
    outcome = ScenarioOutcome(row=row, digest=result["digest"],
                              iterations=result["iterations_done"], migration=record,
                              step_log=env.step_log, detail=dict(env.migrate_detail))
    if include_scenario1:
        ref = run_scenario1(n, seed, provider=source, mode=mode, config=config,
                            providers=providers, sla=sla,
                            checkpoint_interval=checkpoint_interval,
                            workdir=workdir / "scenario1", job_id=job_id)
        if ref.digest != outcome.digest:
            raise HarnessError("scenario2 digest differs from the uninterrupted run")
        row.scenario1_total_ms = ref.row.scenario1_total_ms
    return outcome


def reference_digest(n: int, seed: int) -> int:
    """Digest of a direct, provider-free run: the correctness witness."""
    task = workload.init_sort(n, seed)
    while not task.done:
        task.step()
    return task.digest()


def run_table1(seed: int = 42, workdir: str | Path | None = None) -> list[ScenarioRow]:
    """All five baseline sizes at their recorded migration points, sim mode."""
    config = calibrate_from_table1()
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="jobmig-t1-"))
    rows = []
    for base in TABLE1_BASELINE:
        outcome = run_scenario2(base.n, seed, migrate_at=base.iterations_before,
                                config=config, workdir=workdir / str(base.n))
        rows.append(outcome.row)
    return rows


# -- CLI ----------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--providers", default=None, help="provider bootstrap JSON file")
    parser.add_argument("--mode", choices=("sim", "wall"), default="sim")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--decision-log", default=None, help="decisions.jsonl path")
    parser.add_argument("--checkpoint-interval", type=int, default=16)
    parser.add_argument("--sla-floor", type=float, default=None,
                        help="min throughput (iterations/s)")
    parser.add_argument("--window-k", type=int, default=3)
    parser.add_argument("--sample-period", type=int, default=None, help="milliseconds")


def _sla_from_args(args) -> ServiceLevelAgreement | None:
    base = DEFAULT_SIM_SLA if args.mode == "sim" else DEFAULT_WALL_SLA
    if args.sla_floor is None and args.sample_period is None and args.window_k == 3:
        return None
    return ServiceLevelAgreement(
        min_throughput=args.sla_floor if args.sla_floor is not None else base.min_throughput,
        window_k=args.window_k,
        sample_period_ms=args.sample_period if args.sample_period is not None
        else base.sample_period_ms)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="jobmig-harness",
                                     description="scenario runner and benchmark table emitter")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("scenario1", help="uninterrupted run on one provider")
    _add_common(p1)
    p1.add_argument("--n", type=int, required=True)
    p1.add_argument("--start-on", default=SOURCE_PROVIDER)

    p2 = sub.add_parser("scenario2", help="withdrawal-triggered migration run")
    _add_common(p2)
    p2.add_argument("--n", type=int, required=True)
    p2.add_argument("--start-on", default=SOURCE_PROVIDER)
    p2.add_argument("--target", default=TARGET_PROVIDER)
    p2.add_argument("--migrate-at", type=int, default=None,
                    help="withdrawal iteration (default N//2)")

    pt = sub.add_parser("table1", help="all five baseline sizes at their migration points")
    _add_common(pt)

    args = parser.parse_args(argv)
    providers = load_providers(args.providers) if args.providers else None
    sla = _sla_from_args(args)

    try:
        if args.command == "scenario1":
            outcome = run_scenario1(args.n, args.seed, provider=args.start_on, mode=args.mode,
                                    providers=providers, sla=sla,
                                    checkpoint_interval=args.checkpoint_interval,
                                    workdir=args.workdir, decision_log=args.decision_log)
            rows = [outcome.row]
            print(f"digest={outcome.digest:016x}")
        elif args.command == "scenario2":
            outcome = run_scenario2(args.n, args.seed, source=args.start_on, target=args.target,
                                    migrate_at=args.migrate_at, mode=args.mode,
                                    providers=providers, sla=sla,
                                    checkpoint_interval=args.checkpoint_interval,
                                    workdir=args.workdir, decision_log=args.decision_log)
            rows = [outcome.row]
            print(f"digest={outcome.digest:016x}")
            if outcome.detail:
                print(f"detail={json.dumps(outcome.detail, sort_keys=True)}")
        else:
            if args.mode != "sim":
                raise HarnessError("table1 runs in sim mode only")
            rows = run_table1(seed=args.seed, workdir=args.workdir)
        csv_text, aligned = emit_table(rows, out_path=args.out)
        print(aligned, end="")
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
