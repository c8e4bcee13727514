"""Resource-provider node: wire protocol, execution loop, and TCP daemon.

A node accepts jobs, runs their step/checkpoint/sample loop, services
migration transfers, and can withdraw its services. The same runtime drives
both modes: in sim mode a shared virtual clock advances by the modeled
per-iteration cost, in wall mode a real daemon executes jobs in threads and
talks length-prefixed frames over TCP (``FrameServer``, which the
supervisor's listener also uses). Both modes answer every request to a node in
``NodeRuntime.serve`` and migrate through ``NodeRuntime.hand_off``. A
withdrawal parks every running job at its next yield point, where it waits
for its migration, or for ``PARK_GRACE_S`` seconds before it resumes on this
node.

Frame layout: 4-byte big-endian length, 1-byte message type, payload; the
length covers the type byte plus the payload. Control payloads are JSON.
CHECKPOINT_TRANSFER carries a 4-byte big-endian length, that many bytes of
the job's settings as JSON (``job_settings``), then a checkpoint record
bundle. A node's messages to the supervisor are ``(MSG_*, body)`` pairs in
both modes, with the body the wire carries as JSON.

A node's timeline rows go to its ``emit``: ``{"t", "event", "job_id",
"provider", ...}`` with ``t`` its clock in ms, for ``steps`` (``first``,
``end``: the job stopped running here), ``resume``, ``transfer``, ``result``,
``withdraw``, ``park_expired``, ``failed`` and ``send_failed``. The daemon's
CLI prints each row as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import socket
import struct
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import checkpoint as ckpt
from . import workload
from .broker import ResourceSpecTemplate, template_to_dict
from .monitor import (
    LocalAnalyzer,
    MonitorSample,
    ReportKind,
    ServiceLevelAgreement,
    UnknownJob,
)
from .control import TransferFailed, tune_decision

MSG_REGISTER_PROVIDER = 0x01
MSG_JOB_SUBMIT = 0x02
MSG_CHECKPOINT_TRANSFER = 0x03
MSG_MIGRATE_REQUEST = 0x04
MSG_MONITOR_REPORT = 0x05
MSG_WITHDRAW_NOTICE = 0x06
MSG_RESULT_RETURN = 0x07
MSG_ACK = 0x08
MSG_ERROR = 0x09
MSG_SLA_UPDATE = 0x0A

MSG_NAMES = {
    MSG_REGISTER_PROVIDER: "REGISTER_PROVIDER",
    MSG_JOB_SUBMIT: "JOB_SUBMIT",
    MSG_CHECKPOINT_TRANSFER: "CHECKPOINT_TRANSFER",
    MSG_MIGRATE_REQUEST: "MIGRATE_REQUEST",
    MSG_MONITOR_REPORT: "MONITOR_REPORT",
    MSG_WITHDRAW_NOTICE: "WITHDRAW_NOTICE",
    MSG_RESULT_RETURN: "RESULT_RETURN",
    MSG_ACK: "ACK",
    MSG_ERROR: "ERROR",
    MSG_SLA_UPDATE: "SLA_UPDATE",
}

MAX_PAYLOAD = 16 * 1024 * 1024

# seconds a job parked by a withdrawal waits for its migration, then resumes
PARK_GRACE_S = 5.0

# every FULL_EVERY-th checkpoint record of a job is a full one
FULL_EVERY = 16
DEFAULT_CHECKPOINT_INTERVAL = 16  # iterations between checkpoints, unless a job sets its own


class NodeError(Exception):
    pass


class FrameError(NodeError):
    pass


class ConnectionClosed(NodeError):
    pass


class BindFailure(NodeError):
    pass


class DuplicateJob(NodeError):
    pass


class MalformedPayload(NodeError):
    pass


class UnsupportedMessage(NodeError):
    pass


class InvalidJobState(NodeError):
    pass


class RequestRefused(NodeError):
    """The peer answered a request with an ERROR reply."""


# -- framing -----------------------------------------------------------------

def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise FrameError(f"message type {msg_type} out of range")
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(payload)} bytes exceeds the 16 MiB cap")
    return struct.pack(">IB", len(payload) + 1, msg_type) + payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        piece = sock.recv(n - got)
        if not piece:
            raise ConnectionClosed("peer closed the connection")
        chunks.append(piece)
        got += len(piece)
    return b"".join(chunks)


def send_frame(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    sock.sendall(encode_frame(msg_type, payload))


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    if length < 1:
        raise FrameError("frame length must cover the type byte")
    if length - 1 > MAX_PAYLOAD:
        raise FrameError("frame payload exceeds the 16 MiB cap")
    body = _recv_exact(sock, length)
    return body[0], body[1:]


def parse_hostport(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad host:port address {addr!r}")
    return host, int(port)


def request(addr: str, msg_type: int, payload: bytes, timeout: float = 10.0) -> tuple[int, bytes]:
    """One round trip: connect, send a frame, read the reply."""
    host, port = parse_hostport(addr)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        send_frame(sock, msg_type, payload)
        return recv_frame(sock)


def call(addr: str, msg_type: int, body: dict | bytes, timeout: float | None = None) -> dict:
    """One request whose reply must be an ACK: its JSON body; an ERROR reply raises
    RequestRefused. ``body`` is a JSON object, or a CHECKPOINT_TRANSFER's payload
    bytes, which get 15 s: less than the 30 s of the MIGRATE_REQUEST sending them."""
    transfer = msg_type == MSG_CHECKPOINT_TRANSFER
    reply_type, reply = request(addr, msg_type, body if transfer else json_payload(body),
                                timeout=timeout or (15.0 if transfer else 30.0))
    obj = parse_json(reply)
    if reply_type != MSG_ACK:
        raise RequestRefused(f"{obj.get('error')}: {obj.get('detail')}")
    return obj


class FrameServer:
    """TCP endpoint answering each request frame with one reply frame, one
    thread per connection. Subclasses supply ``handle``; an exception it
    raises becomes a typed ERROR reply, and a frame that cannot be read gets
    an ERROR reply and a closed connection."""

    def __init__(self, listen: str = "127.0.0.1:0"):
        host, port = parse_hostport(listen)
        try:
            self._server = socket.create_server((host, port))
        except OSError as exc:
            raise BindFailure(f"cannot bind {listen}: {exc}") from exc
        self.address = "%s:%d" % self._server.getsockname()[:2]
        self._stop = threading.Event()

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        raise NotImplementedError

    def start(self) -> None:
        threading.Thread(target=self._accept_loop, name="accept", daemon=True).start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(30)
            while not self._stop.is_set():
                try:
                    msg_type, payload = recv_frame(conn)
                except (ConnectionClosed, OSError):
                    return
                except FrameError as exc:
                    # unrecoverable framing: report and drop the connection
                    try:
                        send_frame(conn, MSG_ERROR,
                                   json_payload({"error": "FrameError", "detail": str(exc)}))
                    except OSError:
                        pass
                    return
                try:
                    reply_type, reply = self.handle(msg_type, payload)
                except Exception as exc:  # typed reply, never a server crash
                    reply_type = MSG_ERROR
                    reply = json_payload({"error": type(exc).__name__, "detail": str(exc)})
                try:
                    send_frame(conn, reply_type, reply)
                except OSError:
                    return


def json_payload(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def parse_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedPayload(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedPayload("payload must be a JSON object")
    return obj


def require(obj: dict, *keys: str) -> list:
    """The values of ``keys`` in a JSON payload, each of which must be there."""
    missing = [k for k in keys if k not in obj]
    if missing:
        raise MalformedPayload(f"missing field {missing[0]!r}")
    return [obj[k] for k in keys]


def job_settings(obj: dict) -> dict:
    """SLA, checkpoint interval and reply address of a job spec, as JobExecution kwargs."""
    sla = None
    if obj.get("sla") is not None:
        try:
            sla = ServiceLevelAgreement.from_dict(obj["sla"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedPayload(f"bad sla: {exc}") from exc
    interval = obj.get("checkpoint_interval", DEFAULT_CHECKPOINT_INTERVAL)
    reply_to = obj.get("reply_to")
    if type(interval) is not int or not isinstance(reply_to, (str, type(None))):
        raise MalformedPayload("checkpoint_interval must be an integer, reply_to a string")
    return {"sla": sla, "checkpoint_interval": interval, "reply_to": reply_to}


# -- clocks -------------------------------------------------------------------

class WallClock:
    """Monotonic milliseconds, on one axis for every process on the host."""

    def now_ms(self) -> float:
        return time.monotonic_ns() / 1e6


class VirtualClock:
    """Deterministic clock advanced only by modeled costs (ints or Fractions).
    It holds an integer numerator over a common denominator, the lcm of the
    deltas' denominators so far, so an advance is integer arithmetic; ``now_ms``
    returns the exact Fraction."""

    def __init__(self):
        self._num = 0
        self._den = 1
        self._lock = threading.Lock()

    def now_ms(self) -> Fraction:
        with self._lock:
            return Fraction(self._num, self._den)

    def advance(self, delta_ms: int | Fraction) -> None:
        num, den = delta_ms.numerator, delta_ms.denominator
        if num < 0:
            raise ValueError("virtual time cannot go backwards")
        with self._lock:
            if self._den % den:
                lcm = math.lcm(self._den, den)
                self._num, self._den = self._num * (lcm // self._den), lcm
            self._num += num * (self._den // den)


# -- job execution -------------------------------------------------------------

ST_RUNNING = "running"
ST_QUIESCED = "quiesced"
ST_TOMBSTONED = "tombstoned"
ST_DONE = "done"
ST_FAILED = "failed"


@dataclass
class JobExecution:
    job_id: str
    task: workload.SortTask
    sla: ServiceLevelAgreement | None
    checkpoint_interval: int
    reply_to: str | None
    status: str = ST_RUNNING
    seq_next: int = 0
    since_checkpoint: int = 0
    lineage: list[ckpt.CheckpointRecord] = field(default_factory=list)
    checkpoint_us: int = 0
    run_ns: int = 0  # real time spent stepping and checkpointing on this node
    next_sample_ms: Any = None
    quiesce_requested: bool = False
    # held by each iteration and by a whole hand-off: both see a yield point
    lock: threading.RLock = field(default_factory=threading.RLock)
    # set when a parked job may go on: tombstoned, or resumed on this node
    proceed_evt: threading.Event = field(default_factory=threading.Event)
    # the job's iteration when this node admitted it
    first_iteration: int = field(default=0, init=False)
    steps_from: int = field(default=0, init=False)  # the first iteration of its next steps row
    # each field's value and bytes in the last record: what a capture diffs against
    images: ckpt.Images = field(default_factory=dict, init=False)


class NodeRuntime:
    """Provider-side execution engine, independent of the transport."""

    def __init__(self, provider_id: str, clock, store_dir: str | Path,
                 step_cost_ms: Fraction | None = None,
                 withdraw_at: int | None = None,
                 tune_enabled: bool = False,
                 emit: Callable[[dict], None] | None = None,
                 send: Callable[[str, int, dict | bytes], dict] = call):
        """``step_cost_ms`` is the modeled cost of one step, charged to the
        (virtual) clock; None means each step costs its measured wall time.
        ``emit`` takes the node's timeline rows, ``send`` its requests to other nodes."""
        if withdraw_at is not None and withdraw_at < 1:
            raise ValueError("withdraw_at must be >= 1")
        self.provider_id = provider_id
        self.clock = clock
        self.step_cost_ms = step_cost_ms
        self.withdraw_at = withdraw_at
        self.tune_enabled = tune_enabled
        self.emit = emit or (lambda row: None)
        self.send = send
        self.store = ckpt.CheckpointStore(store_dir)
        self.analyzer = LocalAnalyzer(provider_id)
        self.jobs: dict[str, JobExecution] = {}
        self._withdrawn = False
        self._lock = threading.RLock()

    def record(self, event: str, job_id: str, **fields) -> None:
        """Emit one timeline row about a job on this node, stamped with the clock."""
        self.emit({"t": self.clock.now_ms(), "event": event, "job_id": job_id,
                   "provider": self.provider_id, **fields})

    # -- requests and job admission -------------------------------------------

    def job(self, job_id: str) -> JobExecution:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(f"job {job_id!r} is not on provider {self.provider_id!r}") from None

    def submit_job(self, job_id: str, task_kind: str, params: dict,
                   sla: ServiceLevelAgreement | None = None,
                   checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                   reply_to: str | None = None) -> dict:
        if not job_id:
            raise MalformedPayload("job_id must be non-empty")
        task = workload.create_task(job_id, task_kind, params)
        self._admit(JobExecution(job_id=job_id, task=task, sla=sla,
                                 checkpoint_interval=checkpoint_interval, reply_to=reply_to))
        return {"ok": True, "job_id": job_id, "provider_id": self.provider_id}

    def resume_from_bundle(self, data: bytes) -> dict:
        """Accept a CHECKPOINT_TRANSFER payload: the settings, then a full record and
        optional incrementals. The node is left unchanged on any decode failure."""
        t0 = time.perf_counter_ns()
        end = 4 + int.from_bytes(data[:4], "big")
        if len(data) < 4 or end > len(data):
            raise MalformedPayload("transfer payload ends before its settings do")
        settings = job_settings(parse_json(data[4:end]))
        records = ckpt.decode_bundle(data[end:])
        if records[0].kind != ckpt.KIND_FULL:
            raise ckpt.LineageBroken("transfer bundle must start with a full record")
        state = ckpt.compose(records[0], records[1:])
        task = workload.SortTask(state)
        self._admit(JobExecution(job_id=state.job_id, task=task,
                                 seq_next=records[-1].seq + 1, **settings))
        self.record("resume", state.job_id, iteration=task.iterations_done)
        restore_ms = (time.perf_counter_ns() - t0) / 1e6
        return {"ok": True, "job_id": state.job_id, "provider_id": self.provider_id,
                "resumed_at_iteration": task.iterations_done, "restore_ms": restore_ms}

    def _admit(self, entry: JobExecution) -> None:
        if entry.checkpoint_interval < 1:
            raise MalformedPayload("checkpoint_interval must be >= 1")
        with self._lock:
            if entry.job_id in self.jobs:
                raise DuplicateJob(f"job {entry.job_id!r} already known to {self.provider_id!r}")
            self.jobs[entry.job_id] = entry
        entry.first_iteration = entry.steps_from = entry.task.iterations_done
        # initial full snapshot persists before any step runs
        self._capture(entry)
        if entry.sla is not None:
            entry.next_sample_ms = self.clock.now_ms() + entry.sla.sample_period_ms

    def serve(self, msg_type: int, body: dict | bytes) -> dict:
        """Answer one request in either mode: the ACK body, or an exception that refuses
        it. A CHECKPOINT_TRANSFER body is the payload bytes, any other a JSON object."""
        if msg_type == MSG_JOB_SUBMIT:
            job_id, task_kind = require(body, "job_id", "task_kind")
            return self.submit_job(job_id, task_kind, body.get("params", {}),
                                   **job_settings(body))
        if msg_type == MSG_CHECKPOINT_TRANSFER:
            return self.resume_from_bundle(body)
        if msg_type == MSG_MIGRATE_REQUEST:
            job_id, target_id, target_addr = require(body, "job_id", "target_id", "target_addr")
            if target_id == self.provider_id:
                raise InvalidJobState("migration target equals the source node")
            info, ack = self.hand_off(job_id, target_addr)
            return {"ok": True, "job_id": job_id, "restore_ms": ack["restore_ms"], **info}
        if msg_type == MSG_SLA_UPDATE:
            (job_id,) = require(body, "job_id")
            sla = job_settings(body)["sla"]
            if sla is None:
                raise MalformedPayload("an SLA update needs an sla")
            entry = self.job(job_id)
            with entry.lock:  # a renegotiated SLA: the job's later samples are judged against it
                if entry.next_sample_ms is None:
                    entry.next_sample_ms = self.clock.now_ms() + sla.sample_period_ms
                entry.sla = sla
            return {"ok": True, "job_id": job_id}
        raise UnsupportedMessage(
            f"node does not serve {MSG_NAMES.get(msg_type, hex(msg_type))} messages")

    # -- checkpoint cadence ----------------------------------------------------

    def _capture(self, entry: JobExecution, full: bool = False) -> ckpt.CheckpointRecord:
        t0 = time.perf_counter_ns()
        state = entry.task.state
        if full or len(entry.lineage) % FULL_EVERY == 0:
            record = ckpt.capture_full(state, entry.seq_next, entry.images)
            entry.lineage = [record]
        else:
            record = ckpt.capture_incremental(state, entry.images, entry.seq_next)
            entry.lineage.append(record)
        state.touched.clear()
        self.store.append(record)
        entry.seq_next += 1
        entry.since_checkpoint = 0
        entry.checkpoint_us += (time.perf_counter_ns() - t0) // 1000
        return record

    # -- the execution loop ----------------------------------------------------

    def run_iteration(self, job_id: str) -> list[tuple[int, dict]]:
        """One yield-point-to-yield-point unit of work; returns outbound messages.
        A quiesce request parks the job at its next yield point and takes the
        final capture there, ahead of the hand-off. A job that raises fails here."""
        entry = self.job(job_id)
        with entry.lock:
            if entry.status in (ST_TOMBSTONED, ST_DONE, ST_FAILED):
                raise InvalidJobState(f"job {job_id!r} is {entry.status} and cannot step")
            try:
                if entry.quiesce_requested:
                    self._park(entry)
                    return []
                if entry.task.done:  # a transferred state may already be complete
                    return [self._complete(entry)]

                msgs: list[tuple[int, dict]] = []
                t0 = time.perf_counter_ns()
                entry.task.step()
                if self.step_cost_ms is not None:
                    self.clock.advance(self.step_cost_ms)
                iterations = entry.task.iterations_done

                entry.since_checkpoint += 1
                if not entry.task.done and entry.since_checkpoint >= entry.checkpoint_interval:
                    self._capture(entry)
                entry.run_ns += time.perf_counter_ns() - t0

                if self.withdraw_at is not None and iterations >= self.withdraw_at \
                        and not self._withdrawn:
                    msgs.extend(self.withdraw())

                if entry.sla is not None and not entry.task.done:
                    now = self.clock.now_ms()
                    if now >= entry.next_sample_ms:
                        s = MonitorSample(self.provider_id, job_id, now, iterations,
                                          entry.checkpoint_us, entry.run_ns // 1000)
                        report = self.analyzer.observe(s, entry.sla)
                        if report.kind is not ReportKind.NONE:
                            msgs.append((MSG_MONITOR_REPORT, report.to_dict()))
                        if self.tune_enabled:
                            entry.checkpoint_interval = tune_decision(self.analyzer.window(job_id),
                                                                      entry.checkpoint_interval)
                        entry.next_sample_ms = now + entry.sla.sample_period_ms

                if entry.task.done:
                    msgs.append(self._complete(entry))
                elif entry.quiesce_requested:  # withdrawn during this iteration
                    self._park(entry)
                return msgs
            except Exception as exc:  # the job fails here, and its supervisor hears of it
                self.stop_running(entry, ST_FAILED)
                self.record("failed", job_id, error=type(exc).__name__)
                return [(MSG_RESULT_RETURN, {"job_id": job_id, "provider_id": self.provider_id,
                                             "failed": True, "error": type(exc).__name__})]

    def stop_running(self, entry: JobExecution, status: str) -> None:
        """The job stops running here: a steps row covers its iterations since it last started."""
        entry.status = status
        self.record("steps", entry.job_id, first=entry.steps_from,
                    end=entry.task.iterations_done)
        entry.steps_from = entry.task.iterations_done

    def _park(self, entry: JobExecution) -> None:
        if entry.status == ST_RUNNING:
            self.stop_running(entry, ST_QUIESCED)
            entry.proceed_evt.clear()
            if entry.since_checkpoint:
                self._capture(entry)

    def _complete(self, entry: JobExecution) -> tuple[int, dict]:
        self.stop_running(entry, ST_DONE)
        self.analyzer.reset(entry.job_id)
        digest, iterations = entry.task.digest(), entry.task.iterations_done
        self.record("result", entry.job_id, iteration=iterations, digest=digest)
        return (MSG_RESULT_RETURN, {
            "job_id": entry.job_id, "provider_id": self.provider_id,
            "digest": digest, "iterations_done": iterations, "exec_ms": self._exec_ms(entry)})

    def _exec_ms(self, entry: JobExecution):
        """The job's time on this node: its steps at the modeled cost, or its run_ns."""
        if self.step_cost_ms is None:
            return entry.run_ns / 1e6
        return self.step_cost_ms * (entry.task.iterations_done - entry.first_iteration)

    # -- migration, source side ---------------------------------------------

    def hand_off(self, job_id: str, target_addr: str) -> tuple[dict, dict]:
        """The source side of a migration: park the job, prepare the payload and
        send it to the node at ``target_addr``. Its ACK tombstones the local copy;
        any failure resumes the job here and raises TransferFailed. Returns the ACK
        and the move's figures; ``overhead_ms`` is the clock's advance across the send."""
        entry = self.job(job_id)
        with entry.lock:
            try:
                self._park(entry)  # the final capture: if it fails, the job resumes here
                payload, info = self.prepare_transfer(job_id)
                t0, start_ms = time.perf_counter_ns(), self.clock.now_ms()
                ack = self.send(target_addr, MSG_CHECKPOINT_TRANSFER, payload)
                info["transfer_ms"] = (time.perf_counter_ns() - t0) / 1e6
                info["overhead_ms"] = self.clock.now_ms() - start_ms
            except Exception as exc:
                self.abort_transfer(job_id)
                raise TransferFailed(f"transfer of {job_id!r} failed: {exc}") from exc
            self.finish_transfer(job_id)
        return info, ack

    def prepare_transfer(self, job_id: str) -> tuple[bytes, dict]:
        """Compose the parked job's lineage, check it against the live state, and
        encode the settings followed by an outgoing full record, which becomes
        the start of the job's lineage here too."""
        entry = self.job(job_id)
        if entry.status != ST_QUIESCED:
            raise InvalidJobState(f"job {job_id!r} must be quiesced before transfer")
        composed = ckpt.compose(entry.lineage[0], entry.lineage[1:])
        if composed.fields != entry.task.state.fields:
            raise ckpt.CheckpointError(f"composed state diverges from live state for {job_id!r}")
        outgoing = self._capture(entry, full=True)
        settings = json_payload({"sla": entry.sla and entry.sla.to_dict(),
                                 "reply_to": entry.reply_to,
                                 "checkpoint_interval": entry.checkpoint_interval})
        info = {"iterations_before": entry.task.iterations_done,
                "time_on_source_ms": self._exec_ms(entry)}
        return struct.pack(">I", len(settings)) + settings + ckpt.encode(outgoing), info

    def abort_transfer(self, job_id: str) -> bool:
        """The job resumes on this node untouched: its transfer failed, or no
        migration came for it. Returns whether it was parked."""
        entry = self.job(job_id)
        with entry.lock:
            entry.quiesce_requested = False
            parked = entry.status == ST_QUIESCED
            if parked:
                entry.status = ST_RUNNING
            entry.proceed_evt.set()
            return parked

    def finish_transfer(self, job_id: str) -> None:
        """Target acknowledged: retire the local copy for good."""
        entry = self.job(job_id)
        entry.status = ST_TOMBSTONED
        self.analyzer.reset(job_id)
        self.record("transfer", job_id, iteration=entry.task.iterations_done)
        entry.proceed_evt.set()

    # -- withdrawal -----------------------------------------------------------

    def withdraw(self) -> list[tuple[int, dict]]:
        """Announce withdrawal once, and park every running job at its next
        yield point to wait for its migration."""
        with self._lock:
            if self._withdrawn:
                return []
            self._withdrawn = True
            for entry in self.jobs.values():
                entry.quiesce_requested = True
                if entry.status == ST_RUNNING:
                    self.record("withdraw", entry.job_id, iteration=entry.task.iterations_done)
        return [(MSG_WITHDRAW_NOTICE, {"provider_id": self.provider_id,
                                       "at_ms": self.clock.now_ms()})]


# -- the wall-mode daemon -------------------------------------------------------

class NodeDaemon(FrameServer):
    """Frame server wrapping a NodeRuntime, with one execution thread per job."""

    def __init__(self, runtime: NodeRuntime, listen: str = "127.0.0.1:0",
                 supervisor: str | None = None):
        super().__init__(listen)
        self.runtime = runtime
        self.supervisor = supervisor

    def register_with_supervisor(self, template: ResourceSpecTemplate) -> None:
        body = template_to_dict(template)
        last: Exception | None = None
        for _ in range(50):
            try:
                call(self.supervisor, MSG_REGISTER_PROVIDER, body, timeout=5)
                return
            except OSError as exc:
                last = exc
            time.sleep(0.1)
        raise NodeError(f"could not register with supervisor {self.supervisor}: {last}")

    # -- requests ----------------------------------------------------------------

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        """The runtime serves the request; a job it admits runs on its own thread."""
        body = payload if msg_type == MSG_CHECKPOINT_TRANSFER else parse_json(payload)
        ack = self.runtime.serve(msg_type, body)
        if msg_type in (MSG_JOB_SUBMIT, MSG_CHECKPOINT_TRANSFER):
            threading.Thread(target=self._exec_loop, args=(ack["job_id"],),
                             name=f"exec-{ack['job_id']}", daemon=True).start()
        return MSG_ACK, json_payload(ack)

    # -- execution threads -----------------------------------------------------

    def _exec_loop(self, job_id: str) -> None:
        rt = self.runtime
        entry = rt.job(job_id)
        while entry.status not in (ST_DONE, ST_FAILED, ST_TOMBSTONED) and not self._stop.is_set():
            try:
                msgs = rt.run_iteration(job_id)
            except InvalidJobState:
                return  # migrated away while this thread waited for its turn
            self._dispatch(entry, msgs)
            if entry.status == ST_QUIESCED and not entry.proceed_evt.wait(PARK_GRACE_S) \
                    and rt.abort_transfer(job_id):
                rt.record("park_expired", job_id, iteration=entry.task.iterations_done)

    def _dispatch(self, entry: JobExecution, msgs: list[tuple[int, dict]]) -> None:
        """Send each message upstream: a result to the job's reply address, if it has one."""
        for msg_type, body in msgs:
            addr = (entry.reply_to if msg_type == MSG_RESULT_RETURN else None) or self.supervisor
            if addr is None:
                continue
            try:
                call(addr, msg_type, body, timeout=10)
            except (OSError, NodeError) as exc:
                self.runtime.record("send_failed", entry.job_id,
                                    message=MSG_NAMES.get(msg_type), error=str(exc))


# -- CLI ------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="jobmig-node",
                                     description="wall-mode resource provider daemon")
    parser.add_argument("--id", required=True, help="provider id")
    parser.add_argument("--listen", default="127.0.0.1:0", help="host:port to listen on")
    parser.add_argument("--supervisor", default=None, help="supervisory endpoint host:port")
    parser.add_argument("--data-dir", default=None, help="checkpoint store directory")
    parser.add_argument("--withdraw-at", type=int, default=None,
                        help="withdraw once a job reaches this iteration count: announce it "
                             "and park running jobs until they migrate")
    parser.add_argument("--cpu-mhz", type=int, default=1000)
    parser.add_argument("--memory-mb", type=int, default=256)
    parser.add_argument("--arch", action="append", default=None, help="architecture tag (repeatable)")
    parser.add_argument("--tune", action="store_true", help="enable local checkpoint-interval tuning")
    args = parser.parse_args(argv)

    data_dir = args.data_dir or tempfile.mkdtemp(prefix=f"jobmig-{args.id}-")
    print_lock = threading.Lock()

    def emit(row: dict) -> None:  # each timeline row is one JSON line on stdout
        line = json.dumps(row, sort_keys=True)
        with print_lock:
            print(line, flush=True)

    runtime = NodeRuntime(provider_id=args.id, clock=WallClock(), store_dir=data_dir,
                          withdraw_at=args.withdraw_at, tune_enabled=args.tune, emit=emit)
    try:
        daemon = NodeDaemon(runtime, listen=args.listen, supervisor=args.supervisor)
    except BindFailure as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 1
    daemon.start()

    if args.supervisor:
        template = ResourceSpecTemplate(
            provider_id=args.id, address=daemon.address, cpu_mhz=args.cpu_mhz,
            memory_mb=args.memory_mb, arch_tags=frozenset(args.arch or ()))
        try:
            daemon.register_with_supervisor(template)
        except NodeError as exc:
            print(f"ERROR {exc}", file=sys.stderr)
            daemon.stop()
            return 1

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    stop.wait()
    daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
