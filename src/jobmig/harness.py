"""Scenario runner: deterministic virtual-time simulation and wall-mode runs.

Scenario 1 runs a job to completion on one provider; scenario 2 starts on the
same provider, migrates to a second one when the first withdraws, and finishes
there. Rows carry the benchmark accounting columns, and in sim mode the
identity ``scenario2_total = time_source + time_target + overhead`` holds
exactly. The sim cost model is calibrated from the table1 baseline rows.

Both modes record a run on one ``Timeline``: the nodes' rows and the
supervisor's decision rows, each ``{"t", "event", "job_id", "provider", ...}``
with ``t`` in ms, virtual and exact in sim, ``time.monotonic_ns()/1e6`` in
wall. Its ``steps`` rows show which provider ran each iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import workload
from .broker import (
    JobRequirementList,
    ResourceBroker,
    ResourceSpecTemplate,
    load_providers,
    template_from_dict,
)
from .control import (
    JobStatus,
    MigrationRecord,
    SubmitTimeout,
    SupervisoryAgent,
    TransferFailed,
)
from .monitor import MonitorHub, PerformanceReport, ServiceLevelAgreement
from .node import (
    MSG_ACK,
    MSG_CHECKPOINT_TRANSFER,
    MSG_JOB_SUBMIT,
    MSG_MIGRATE_REQUEST,
    MSG_MONITOR_REPORT,
    MSG_NAMES,
    MSG_REGISTER_PROVIDER,
    MSG_SLA_UPDATE,
    MSG_WITHDRAW_NOTICE,
    FrameServer,
    MalformedPayload,
    NodeError,
    NodeRuntime,
    SUPERVISOR,
    RequestRefused,
    VirtualClock,
    WallClock,
    call,
    check_body,
    json_payload,
    parse_json,
)


class HarnessError(Exception):
    pass


# -- testbed defaults and calibration -----------------------------------------

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


# Reference measurements (milliseconds) used for calibration defaults and as
# regression fixtures. Every row satisfies
# time_source + time_target + overhead == scenario2_total exactly.
TABLE1_BASELINE: tuple[ScenarioRow, ...] = (
    ScenarioRow(500, 57306, 56422, 249, 27381, 25421, 3620),
    ScenarioRow(1000, 111686, 104896, 516, 56805, 43371, 4720),
    ScenarioRow(1500, 171436, 159883, 764, 84056, 70002, 5825),
    ScenarioRow(2000, 217751, 212264, 1050, 115500, 89811, 6953),
    ScenarioRow(2500, 276016, 270604, 1298, 142882, 119944, 7778),
)


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


# -- the job timeline ----------------------------------------------------------------

class Timeline:
    """Every row the nodes and the supervisor emit, in arrival order; decision
    rows also go to ``decision_log`` as JSON lines."""

    def __init__(self, decision_log: str | Path | None = None):
        self.rows: list[dict] = []
        self.decision_log = Path(decision_log) if decision_log is not None else None
        if self.decision_log is not None:
            self.decision_log.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, row: dict) -> None:
        decision = row["event"] == "decision"  # a dict that is no row raises before it is kept
        self.rows.append(row)
        if decision and self.decision_log is not None:
            with self.decision_log.open("a") as fh:
                fh.write(json.dumps(row, sort_keys=True, default=float) + "\n")

    def for_job(self, job_id: str) -> list[tuple[str, int]]:
        """(provider, iteration) for each iteration the job ran, from its steps rows by time."""
        steps = sorted((r for r in self.rows if r["job_id"] == job_id and r["event"] == "steps"),
                       key=lambda r: r["t"])
        return [(r["provider"], i) for r in steps for i in range(r["first"], r["end"])]

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
    step_log: Timeline | None = None
    detail: dict = field(default_factory=dict)


class Environment:
    """One mode's providers under one broker, monitor hub and supervisory
    agent. Subclasses add ``run_job`` (a deployed job to its result); in both
    modes each node message reaches the supervisor through ``route``."""

    def __init__(self, broker: ResourceBroker, transport, clock, sla: ServiceLevelAgreement,
                 checkpoint_interval: int | None, decision_log: str | Path | None):
        self.broker = broker
        self.hub = MonitorHub()
        self.transport = transport
        self.step_log = Timeline(decision_log)  # the run's timeline, under the benchmark's name
        self.supervisory = SupervisoryAgent(broker, transport, clock=clock,
                                            emit=self.step_log.emit)
        self.sla = sla
        self.checkpoint_interval = checkpoint_interval
        self.changed = threading.Condition()  # held while the supervisor acts, notified after

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def dump_logs(self) -> str:
        return ""

    @property
    def migrate_detail(self) -> dict:
        """Transfer and restore times (real ms) of the last migration."""
        return self.transport.last_detail

    def deploy_sort(self, job_id: str, n: int, seed: int, start_on: str | None = None) -> str:
        jrl = JobRequirementList(job_id=job_id, min_cpu_mhz=DEFAULT_MIN_CPU_MHZ,
                                 min_memory_mb=DEFAULT_MIN_MEMORY_MB,
                                 arch_tags=frozenset(), sla=self.sla)
        with self.changed:  # the job's entry exists before a message about it is routed
            return self.supervisory.deploy(jrl, workload.SORT_KIND, {"n": n, "seed": seed},
                                           start_on=start_on,
                                           checkpoint_interval=self.checkpoint_interval)

    def route(self, msg_type: int, body: dict) -> dict:
        """Act on one node message under the lock, before its sender goes on: a registration
        goes to the broker, and a withdrawal, a report (through the hub) or a result to the
        supervisor, once ``check_body`` has passed it. The answer's ``ended`` names the jobs
        the supervisor failed on a withdrawal."""
        if msg_type != MSG_REGISTER_PROVIDER:  # template_from_dict checks a registration
            check_body(msg_type, body, SUPERVISOR)
        if msg_type == MSG_MONITOR_REPORT:
            try:  # a withdrawal travels as a WITHDRAW_NOTICE: ReportKind knows no such kind
                report = PerformanceReport.from_dict(body)
            except ValueError as exc:
                raise MalformedPayload(f"bad report: {exc}") from exc
        with self.changed:
            ended = []
            if msg_type == MSG_REGISTER_PROVIDER:
                self.broker.register_provider(template_from_dict(body))
            elif msg_type == MSG_WITHDRAW_NOTICE:
                ended = self.supervisory.on_withdrawal(body["provider_id"])
            elif msg_type == MSG_MONITOR_REPORT:
                self.supervisory.on_report(self.hub.submit(report))
            else:
                self.supervisory.complete(body)
            self.changed.notify_all()
        return {"ok": True, "ended": ended}


class NodeTransport:
    """The supervisor's requests to its nodes, each a ``send(addr, msg_type, body)`` to
    the node's registered address: an in-process call in sim, a TCP frame in wall."""

    def __init__(self, broker: ResourceBroker, send=call):
        self.broker = broker
        self.send = send
        self.last_detail: dict = {}

    def _addr(self, provider_id: str) -> str:
        template = self.broker.get(provider_id)
        if template is None:
            raise HarnessError(f"provider {provider_id!r} is not registered")
        return template.address

    def _call(self, provider_id: str, msg_type: int, obj: dict,
              error: type[Exception]) -> dict:
        """One request to a node: its ACK body; no reply or a refusal raises ``error``."""
        try:
            return self.send(self._addr(provider_id), msg_type, obj)
        except (OSError, NodeError) as exc:
            raise error(f"{MSG_NAMES[msg_type]} to {provider_id!r} failed: {exc}") from exc

    def submit(self, provider_id: str, job_spec: dict) -> None:
        self._call(provider_id, MSG_JOB_SUBMIT, job_spec, SubmitTimeout)

    def migrate(self, source_id: str, job_id: str, target_id: str) -> MigrationRecord:
        body = self._call(source_id, MSG_MIGRATE_REQUEST,
                          {"job_id": job_id, "target_id": target_id,
                           "target_addr": self._addr(target_id)}, TransferFailed)
        self.last_detail = {"transfer_ms": body["transfer_ms"], "restore_ms": body["restore_ms"]}
        return MigrationRecord(job_id, source_id, target_id, body["iterations_before"],
                               body["time_on_source_ms"], overhead_ms=body["overhead_ms"])

    def update_sla(self, provider_id: str, job_id: str, sla: ServiceLevelAgreement) -> None:
        self._call(provider_id, MSG_SLA_UPDATE, {"job_id": job_id, "sla": sla.to_dict()},
                   HarnessError)


# The benchmark traces ``submit`` in each mode's own class body, so each mode
# names its transport and owns the method.
class SimTransport(NodeTransport):
    submit = NodeTransport.submit


class WallTransport(NodeTransport):
    submit = NodeTransport.submit


class SimEnvironment(Environment):
    """All components in one process sharing a virtual clock."""

    def __init__(self, config: SimConfig, providers: Sequence[ResourceSpecTemplate],
                 workdir: str | Path, sla: ServiceLevelAgreement = DEFAULT_SIM_SLA,
                 checkpoint_interval: int | None = None,
                 withdraw_at: dict[str, int] | None = None,
                 decision_log: str | Path | None = None):
        self.config = config
        self.supervisor = "sim:supervisor"  # the address the nodes send their messages to
        self.clock = VirtualClock()
        self.nodes: dict[str, NodeRuntime] = {}
        self._at: dict[str, NodeRuntime] = {}  # the nodes by address
        broker = ResourceBroker()
        super().__init__(broker, SimTransport(broker, send=self.send), self.clock.now_ms, sla,
                         checkpoint_interval, decision_log)
        withdraw_at = withdraw_at or {}
        for template in providers:
            if template.address in self._at:
                raise HarnessError(f"two providers share the address {template.address}")
            self.broker.register_provider(template)
            self.nodes[template.provider_id] = self._at[template.address] = NodeRuntime(
                provider_id=template.provider_id, clock=self.clock,
                store_dir=Path(workdir) / template.provider_id,
                step_cost_ms=config.per_iteration_cost_ms / template.speed_factor,
                withdraw_at=withdraw_at.get(template.provider_id), emit=self.step_log.emit,
                send=self.send, supervisor=self.supervisor)

    def send(self, addr: str, msg_type: int, body: dict | bytes) -> dict:
        """To ``route`` if ``addr`` is the supervisor's, else a request to the node there,
        refused on its exception as by a wall node's ERROR. A transfer's ACK charges the
        migration overhead to the clock; one cut before it lands costs no virtual time."""
        if addr == self.supervisor:
            return self.route(msg_type, body)
        node = self._at.get(addr)
        if node is None:
            raise ConnectionRefusedError(f"no node at {addr}")
        try:
            ack = node.serve(msg_type, body)
        except Exception as exc:
            raise RequestRefused(f"{type(exc).__name__}: {exc}") from exc
        if msg_type == MSG_CHECKPOINT_TRANSFER:
            n = node.job(ack["job_id"]).task.total_iterations
            self.clock.advance(self.config.overhead_ms(n))
        return ack

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
            self.nodes[entry.current_provider].step(job_id)
        if entry.status is JobStatus.FAILED:
            raise HarnessError(f"job {job_id!r} failed: {entry.result or 'no provider left'}")
        result = entry.result
        accounted = result["exec_ms"] + sum(r.time_on_source_ms + r.overhead_ms
                                            for r in entry.migrations)
        if self.clock.now_ms() != accounted:
            raise HarnessError("virtual clock diverged from the job's accounted time")
        return result


class SupervisoryListener(FrameServer):
    """Frame endpoint for node-originated messages: ``route`` acts on each and
    its answer is the ACK; an exception it raises becomes the ERROR reply."""

    def __init__(self, route: Callable[[int, dict], dict]):
        super().__init__()
        self.route = route
        self.start()

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        return MSG_ACK, json_payload(self.route(msg_type, parse_json(payload)))


# seconds the spawned nodes have to register with the supervisor
NODE_STARTUP_S = 20.0


class WallEnvironment(Environment):
    """Spawns real node processes and orchestrates them over TCP."""

    def __init__(self, providers: Sequence[ResourceSpecTemplate], workdir: str | Path,
                 sla: ServiceLevelAgreement = DEFAULT_WALL_SLA,
                 checkpoint_interval: int | None = None,
                 withdraw_at: dict[str, int] | None = None,
                 decision_log: str | Path | None = None):
        self.providers = list(providers)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.withdraw_at = withdraw_at or {}
        broker = ResourceBroker()
        super().__init__(broker, WallTransport(broker), WallClock().now_ms, sla,
                         checkpoint_interval, decision_log)
        self.listener = SupervisoryListener(self.route)
        self.procs: dict[str, subprocess.Popen] = {}
        self.node_logs: dict[str, list[str]] = {}  # what nodes print besides their rows
        self.readers: list[threading.Thread] = []

    # -- process management --------------------------------------------------

    def start(self) -> None:
        for template in self.providers:
            self._spawn(template)
        ids = [t.provider_id for t in self.providers]
        with self.changed:
            if not self.changed.wait_for(lambda: all(map(self.broker.get, ids)), NODE_STARTUP_S):
                missing = [p for p in ids if self.broker.get(p) is None]
                raise HarnessError(f"nodes never registered: {missing}\n{self.dump_logs()}")

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
        reader = threading.Thread(target=self._read_stdout, args=(pid, proc), daemon=True)
        reader.start()
        self.readers.append(reader)

    def _read_stdout(self, pid: str, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            try:
                self.step_log.emit(json.loads(line))
            except (ValueError, TypeError, KeyError):  # not a row
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
        for reader in self.readers:  # every row a node printed reaches the timeline
            reader.join(timeout=5)
        self.listener.stop()

    # -- orchestration --------------------------------------------------------

    def pump_until_complete(self, job_id: str, timeout: float = 60.0) -> dict:
        """Wait until the job ends; the listener routes the nodes' messages as they come."""
        entry = self.supervisory.jobs[job_id]
        with self.changed:
            if not self.changed.wait_for(lambda: entry.status is not JobStatus.RUNNING, timeout):
                raise HarnessError(f"job {job_id!r} did not complete in time\n{self.dump_logs()}")
        if entry.status is JobStatus.FAILED:
            raise HarnessError(f"job {job_id!r} failed: {entry.result or 'no provider left'}")
        return entry.result

    run_job = pump_until_complete


# -- scenarios ------------------------------------------------------------------------

def _environment(mode: str, providers: Sequence[ResourceSpecTemplate] | None,
                 needed: Sequence[str], workdir: Path, sla: ServiceLevelAgreement | None,
                 checkpoint_interval: int | None, withdraw_at: dict[str, int] | None = None,
                 decision_log: str | Path | None = None) -> Environment:
    """The mode's environment over the ``needed`` providers, in that order."""
    config = calibrate_from_table1()
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
    """Deploy one sort job on ``start_on``, run it to its result, check single ownership."""
    try:
        env.start()
        env.deploy_sort(job_id, n, seed, start_on=start_on)
        result = env.run_job(job_id)
    finally:
        env.stop()
    env.step_log.assert_single_ownership(job_id)
    return result


def run_scenario1(n: int, seed: int, provider: str = SOURCE_PROVIDER, mode: str = "sim",
                  providers: Sequence[ResourceSpecTemplate] | None = None,
                  sla: ServiceLevelAgreement | None = None, checkpoint_interval: int | None = None,
                  workdir: str | Path | None = None, job_id: str | None = None,
                  decision_log: str | Path | None = None) -> ScenarioOutcome:
    """Uninterrupted run to completion on one provider."""
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix=f"jobmig-{mode}1-"))
    env = _environment(mode, providers, [provider], workdir, sla, checkpoint_interval,
                       decision_log=decision_log)
    result = _run(env, job_id or f"sort-{n}-{seed}", n, seed, provider)
    return ScenarioOutcome(row=ScenarioRow(n=n, scenario1_total_ms=result["exec_ms"]),
                           digest=result["digest"], step_log=env.step_log)


def run_scenario2(n: int, seed: int, source: str = SOURCE_PROVIDER,
                  target: str = TARGET_PROVIDER, migrate_at: int | None = None,
                  mode: str = "sim",
                  providers: Sequence[ResourceSpecTemplate] | None = None,
                  sla: ServiceLevelAgreement | None = None, checkpoint_interval: int | None = None,
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
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix=f"jobmig-{mode}2-"))
    job_id = job_id or f"sort-{n}-{seed}"
    env = _environment(mode, providers, [source, target], workdir / "scenario2", sla,
                       checkpoint_interval, withdraw_at={source: migrate_at},
                       decision_log=decision_log)
    result = _run(env, job_id, n, seed, source)
    entry = env.supervisory.jobs[job_id]
    if not entry.migrations:
        raise HarnessError(f"scenario2 completed without migrating\n{env.dump_logs()}".rstrip())
    record = entry.migrations[-1]
    rows = {(r["event"], r.get("decision")): r for r in env.step_log.rows if r["job_id"] == job_id}
    e2e_ms = rows["result", None]["t"] - rows["decision", "submit"]["t"]
    detail = {**env.migrate_detail, "e2e_ms": e2e_ms, "unattributed_ms": e2e_ms - record.total_ms}
    row = ScenarioRow(n=n, scenario2_total_ms=record.total_ms,
                      iterations_before=record.iterations_before,
                      time_source_ms=record.time_on_source_ms,
                      time_target_ms=record.time_on_target_ms,
                      overhead_ms=record.overhead_ms)
    outcome = ScenarioOutcome(row=row, digest=result["digest"], step_log=env.step_log,
                              detail=detail)
    if include_scenario1:
        ref = run_scenario1(n, seed, provider=source, mode=mode, providers=providers, sla=sla,
                            checkpoint_interval=checkpoint_interval,
                            workdir=workdir / "scenario1", job_id=job_id)
        if ref.digest != outcome.digest:
            raise HarnessError("scenario2 digest differs from the uninterrupted run")
        row.scenario1_total_ms = ref.row.scenario1_total_ms
    return outcome


def run_table1(seed: int = 42, workdir: str | Path | None = None) -> list[ScenarioRow]:
    """All five baseline sizes at their recorded migration points, sim mode."""
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="jobmig-t1-"))
    rows = []
    for base in TABLE1_BASELINE:
        outcome = run_scenario2(base.n, seed, migrate_at=base.iterations_before,
                                workdir=workdir / str(base.n))
        rows.append(outcome.row)
    return rows


# -- CLI ----------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--mode", choices=("sim", "wall"), default="sim")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--workdir", default=None)


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--start-on", default=SOURCE_PROVIDER)
    parser.add_argument("--providers", default=None, help="provider bootstrap JSON file")
    parser.add_argument("--decision-log", default=None, help="decisions.jsonl path")
    parser.add_argument("--checkpoint-interval", type=int, help="default: the node's")
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

    _add_scenario(sub.add_parser("scenario1", help="uninterrupted run on one provider"))
    p2 = sub.add_parser("scenario2", help="withdrawal-triggered migration run")
    _add_scenario(p2)
    p2.add_argument("--target", default=TARGET_PROVIDER)
    p2.add_argument("--migrate-at", type=int, default=None,
                    help="withdrawal iteration (default N//2)")

    pt = sub.add_parser("table1", help="all five baseline sizes at their migration points")
    _add_common(pt)

    args = parser.parse_args(argv)
    try:
        if args.command == "table1":
            if args.mode != "sim":
                raise HarnessError("table1 runs in sim mode only")
            rows = run_table1(seed=args.seed, workdir=args.workdir)
        else:
            common = dict(mode=args.mode, sla=_sla_from_args(args),
                          providers=load_providers(args.providers) if args.providers else None,
                          checkpoint_interval=args.checkpoint_interval,
                          workdir=args.workdir, decision_log=args.decision_log)
            if args.command == "scenario1":
                outcome = run_scenario1(args.n, args.seed, provider=args.start_on, **common)
            else:
                outcome = run_scenario2(args.n, args.seed, source=args.start_on,
                                        target=args.target, migrate_at=args.migrate_at, **common)
            rows = [outcome.row]
            print(f"digest={outcome.digest:016x}")
            if outcome.detail:
                print(f"detail={json.dumps(outcome.detail, sort_keys=True, default=float)}")
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
