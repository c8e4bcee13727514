"""Resource-provider node: wire protocol, execution loop, and TCP daemon.

A node accepts jobs, runs their step/checkpoint/sample loop, services
migration transfers, and can withdraw its services. The same runtime drives
both modes: in sim mode a shared virtual clock advances by the modeled
per-iteration cost, in wall mode a real daemon talks length-prefixed frames over
TCP (``FrameServer``, which the supervisor's listener also uses) and runs the
node's jobs on one thread, in turn (``NodeRuntime.run_once``). Both modes answer
every request to a node in ``NodeRuntime.serve``, migrate through ``hand_off``
and step a job with ``step``, from one yield point to the next: the first
iteration after which a capture is due, the job reaches ``withdraw_at`` or its
end, or an SLA sample is due. A withdrawal parks the job whose step reached it,
at that iteration; the supervisor's answer to the notice moves it away, drops it
or resumes it here. The thread waits for that answer, so no other job on the
node runs meanwhile; its own hand-off parks it.

Frame layout: 4-byte big-endian length, 1-byte message type, payload; the
length covers the type byte plus the payload. Control payloads are JSON.
CHECKPOINT_TRANSFER carries a 4-byte big-endian length, that many bytes of
the job's settings as JSON (``job_settings``), then a checkpoint record
bundle. A node's messages to the supervisor are ``(MSG_*, body)`` pairs in
both modes, with the body the wire carries as JSON.

A node's timeline rows go to its ``emit``: ``{"t", "event", "job_id",
"provider", ...}`` with ``t`` its clock in ms, for ``steps`` (``first``,
``end``: the job stopped running here), ``resume``, ``transfer``, ``result``,
``withdraw``, ``tune`` (``from``, ``to``: the job's checkpoint interval),
``dropped``, ``failed`` and ``send_failed``. The daemon's
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
    thread per connection. Subclasses supply ``handle``: the reply, then any
    callables to run once it is written. An exception it raises becomes a typed
    ERROR reply; a frame that cannot be read, an ERROR reply and a closed connection."""

    def __init__(self, listen: str = "127.0.0.1:0"):
        host, port = parse_hostport(listen)
        try:
            self._server = socket.create_server((host, port))
        except OSError as exc:
            raise BindFailure(f"cannot bind {listen}: {exc}") from exc
        self.address = "%s:%d" % self._server.getsockname()[:2]
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        raise NotImplementedError

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_loop, name="accept",
                                               daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        """Close the listening socket and end the accept thread: a shutdown wakes
        the blocked ``accept``, which closing alone does not."""
        self._stop.set()
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:  # already shut
            pass
        self._server.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

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
                    reply_type, reply, *then = self.handle(msg_type, payload)
                except Exception as exc:  # typed reply, never a server crash
                    reply_type, then = MSG_ERROR, []
                    reply = json_payload({"error": type(exc).__name__, "detail": str(exc)})
                try:
                    send_frame(conn, reply_type, reply)
                except OSError:
                    return
                for follow_up in then:
                    follow_up()


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
    """SLA and checkpoint interval of a job spec, as JobExecution kwargs."""
    sla = None
    if obj.get("sla") is not None:
        try:
            sla = ServiceLevelAgreement.from_dict(obj["sla"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedPayload(f"bad sla: {exc}") from exc
    interval = obj.get("checkpoint_interval", DEFAULT_CHECKPOINT_INTERVAL)
    if type(interval) is not int:
        raise MalformedPayload("checkpoint_interval must be an integer")
    return {"sla": sla, "checkpoint_interval": interval}


# -- clocks -------------------------------------------------------------------

class WallClock:
    """Monotonic milliseconds, on one axis for every process on the host."""

    def now_ms(self) -> float:
        return time.monotonic_ns() / 1e6

    def reached(self, deadline_ms: float) -> bool:
        """Whether ``now_ms()`` is at or past ``deadline_ms``."""
        return self.now_ms() >= deadline_ms


class VirtualClock:
    """Deterministic clock advanced only by modeled costs (ints or Fractions).
    It holds an integer numerator over a common denominator, the lcm of the
    deltas' denominators so far, so an advance is integer arithmetic; ``now_ms``
    returns the exact Fraction, built once per advance: until the next advance it
    is the same object. Only the thread that runs the simulation touches it."""

    def __init__(self):
        self._num = 0
        self._den = 1
        self._now: Fraction | None = None

    def now_ms(self) -> Fraction:
        if self._now is None:
            self._now = Fraction(self._num, self._den)
        return self._now

    def reached(self, deadline_ms: int | Fraction) -> bool:
        """Whether ``now_ms()`` is at or past ``deadline_ms``, compared in integers."""
        return self._num * deadline_ms.denominator >= deadline_ms.numerator * self._den

    def steps_to(self, deadline_ms: int | Fraction, cost_ms: int | Fraction, limit: int) -> int:
        """The fewest advances by ``cost_ms``, from 1 to ``limit``, after which
        ``reached(deadline_ms)`` holds, else ``limit``; counted in integers."""
        # now + k * p/q >= a/b  <=>  k * p * b * den >= (a * den - num * b) * q
        b = deadline_ms.denominator
        gap = (deadline_ms.numerator * self._den - self._num * b) * cost_ms.denominator
        per_step = cost_ms.numerator * b * self._den
        if gap <= 0:
            return 1
        return min(limit, -(-gap // per_step)) if per_step else limit

    def advance(self, delta_ms: int | Fraction) -> None:
        num, den = delta_ms.numerator, delta_ms.denominator
        if num < 0:
            raise ValueError("virtual time cannot go backwards")
        if self._den % den:
            lcm = math.lcm(self._den, den)
            self._num, self._den = self._num * (lcm // self._den), lcm
        self._num += num * (self._den // den)
        self._now = None


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
    status: str = ST_RUNNING
    seq_next: int = 0
    since_checkpoint: int = 0
    lineage: list[ckpt.CheckpointRecord] = field(default_factory=list)
    capture_ms: Any = 0  # time spent capturing on this node, on its clock: 0 on a virtual one
    run_ns: int = 0  # real time spent stepping and checkpointing on this node
    next_sample_ms: Any = None
    first_iteration: int = field(default=0, init=False)  # its iteration when admitted here
    steps_from: int = field(default=0, init=False)  # the first iteration of its next steps row
    # each field's value and bytes in the last record: what a capture diffs against
    images: ckpt.Images = field(default_factory=dict, init=False)


class NodeRuntime:
    """Provider-side execution engine, independent of the transport."""

    def __init__(self, provider_id: str, clock, store_dir: str | Path,
                 step_cost_ms: Fraction | None = None,
                 withdraw_at: int | None = None,
                 emit: Callable[[dict], None] | None = None,
                 send: Callable[[str, int, dict | bytes], dict] = call,
                 supervisor: str | None = None):
        """``step_cost_ms`` is the modeled cost of one step, charged to the
        (virtual) clock; None means each step costs its measured wall time.
        ``emit`` takes the node's timeline rows; ``send`` reaches other nodes and ``supervisor``."""
        if withdraw_at is not None and withdraw_at < 1:
            raise ValueError("withdraw_at must be >= 1")
        self.provider_id = provider_id
        self.clock = clock
        self.step_cost_ms = step_cost_ms
        self.withdraw_at = withdraw_at
        self.emit = emit or (lambda row: None)
        self.send = send
        self.supervisor = supervisor
        self.store = ckpt.CheckpointStore(store_dir)
        self.analyzer = LocalAnalyzer(provider_id)
        self.jobs: dict[str, JobExecution] = {}
        self.withdrawal = False  # announced
        self.turns: list[JobExecution] = []  # the jobs run_once steps, the next first
        self._lock = threading.RLock()  # held by a stretch, a settling and a request
        self._gate = threading.RLock()  # held by a request from before it takes the lock

    def record(self, event: str, job_id: str, **fields) -> None:
        """Emit a timeline row about a job here, stamped and emitted under the lock."""
        with self._lock:
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
                   checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL) -> dict:
        if not job_id:
            raise MalformedPayload("job_id must be non-empty")
        task = workload.create_task(job_id, task_kind, params)
        self._admit(JobExecution(job_id=job_id, task=task, sla=sla,
                                 checkpoint_interval=checkpoint_interval))
        return {"ok": True, "job_id": job_id, "provider_id": self.provider_id}

    def resume_from_bundle(self, data: bytes) -> dict:
        """Accept a CHECKPOINT_TRANSFER payload: the settings, then a full record and
        optional incrementals. The job resumes from the lineage it was sent: its
        records go to the store as received and its next capture chains from the
        last of them. The node is left unchanged on any decode failure."""
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
        entry = JobExecution(job_id=state.job_id, task=task, seq_next=records[-1].seq + 1,
                             lineage=records, **settings)
        entry.images = ckpt.lineage_images(records)
        self._admit(entry)
        restore_ms = (time.perf_counter_ns() - t0) / 1e6
        return {"ok": True, "job_id": state.job_id, "provider_id": self.provider_id,
                "resumed_at_iteration": task.iterations_done, "restore_ms": restore_ms}

    def _admit(self, entry: JobExecution) -> None:
        """Register a new job once its lineage is durable: a received lineage is
        stored as it came, with a ``resume`` row, and a job with none gets a full capture.
        A job this node already knows, or whose first write fails, leaves the node
        unchanged, and the file a failed write opened is closed."""
        if entry.checkpoint_interval < 1:
            raise MalformedPayload("checkpoint_interval must be >= 1")
        entry.first_iteration = entry.steps_from = entry.task.iterations_done
        with self._gate, self._lock:
            if entry.job_id in self.jobs:
                raise DuplicateJob(f"job {entry.job_id!r} already known to {self.provider_id!r}")
            try:
                if entry.lineage:
                    for record in entry.lineage:
                        self.store.append(record)
                    self.record("resume", entry.job_id, iteration=entry.first_iteration)
                else:
                    self._capture(entry)
            except BaseException:
                self.store.close(entry.job_id)
                raise
            self.jobs[entry.job_id] = entry
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
            with self._gate, self._lock:  # the new SLA judges the job's later samples
                if entry.next_sample_ms is None:
                    entry.next_sample_ms = self.clock.now_ms() + sla.sample_period_ms
                entry.sla = sla
            return {"ok": True, "job_id": job_id}
        raise UnsupportedMessage(
            f"node does not serve {MSG_NAMES.get(msg_type, hex(msg_type))} messages")

    # -- checkpoint cadence ----------------------------------------------------

    def _capture(self, entry: JobExecution, full: bool = False) -> ckpt.CheckpointRecord:
        start_ms = self.clock.now_ms()
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
        end_ms = self.clock.now_ms()
        if end_ms is not start_ms:  # a virtual clock that did not move hands back the same object
            entry.capture_ms += end_ms - start_ms
        return record

    # -- the execution loop ----------------------------------------------------

    def run_iteration(self, job_id: str) -> list[tuple[int, dict]]:
        """Run a job from one yield point to the next; returns outbound messages.
        The last iteration takes, in order, its capture, withdrawal, sample, and
        completion or park: a withdrawal parks the job with a final capture, ahead of
        its hand-off. A job that raises fails here, and a withdrawal it announced is still sent."""
        entry = self.job(job_id)
        msgs: list[tuple[int, dict]] = []
        with self._lock:
            if entry.status != ST_RUNNING:
                raise InvalidJobState(f"job {job_id!r} is {entry.status} and cannot step")
            try:
                if entry.task.done:  # a transferred state may already be complete
                    return [self._complete(entry)]

                t0 = time.perf_counter_ns()
                self._run_stretch(entry)
                iterations = entry.task.iterations_done
                if not entry.task.done and entry.since_checkpoint >= entry.checkpoint_interval:
                    self._capture(entry)
                entry.run_ns += time.perf_counter_ns() - t0

                withdrawal = self.withdraw() if self.withdraw_at is not None \
                    and iterations >= self.withdraw_at else []
                msgs.extend(withdrawal)

                if entry.sla is not None and not entry.task.done \
                        and self.clock.reached(entry.next_sample_ms):
                    now = self.clock.now_ms()
                    s = MonitorSample(self.provider_id, job_id, now, iterations,
                                      entry.capture_ms)
                    report = self.analyzer.observe(s, entry.sla)
                    if report is not None:
                        interval = tune_decision(report.window, entry.sla,
                                                 entry.checkpoint_interval)
                        if interval == entry.checkpoint_interval:
                            msgs.append((MSG_MONITOR_REPORT, report.to_dict()))
                        else:  # tuned: the report waits for a fresh window to confirm it
                            self.record("tune", job_id,
                                        **{"from": entry.checkpoint_interval, "to": interval})
                            entry.checkpoint_interval = interval
                    entry.next_sample_ms = now + entry.sla.sample_period_ms

                if entry.task.done:
                    msgs.append(self._complete(entry))
                elif withdrawal:
                    self._park(entry)
                return msgs
            except Exception as exc:  # the job fails here, and its supervisor hears of it
                self.stop_running(entry, ST_FAILED)
                self.record("failed", job_id, error=type(exc).__name__)
                return [m for m in msgs if m[0] == MSG_WITHDRAW_NOTICE] + [(MSG_RESULT_RETURN, {
                    "job_id": job_id, "provider_id": self.provider_id,
                    "failed": True, "error": type(exc).__name__})]

    def _run_stretch(self, entry: JobExecution) -> None:
        """Step the job to its next yield point. In sim the modeled step cost tells
        which step reaches the sample deadline, and the clock advances once for all
        the steps; in wall the clock is read after each step."""
        task = entry.task
        first = task.iterations_done
        n = min(task.total_iterations - first,
                max(1, entry.checkpoint_interval - entry.since_checkpoint))
        if self.withdraw_at is not None and not self.withdrawal:
            n = min(n, max(1, self.withdraw_at - first))
        step, clock = task.step, self.clock
        if self.step_cost_ms is None:
            for _ in range(n):
                step()
                if entry.sla is not None and clock.reached(entry.next_sample_ms):
                    break
        else:
            if entry.sla is not None:
                n = clock.steps_to(entry.next_sample_ms, self.step_cost_ms, n)
            try:
                for _ in range(n):
                    step()
            finally:  # the steps taken, if one raised
                clock.advance(self.step_cost_ms * (task.iterations_done - first))
        entry.since_checkpoint += task.iterations_done - first

    def start(self, job_id: str) -> None:
        """The job takes turns in ``run_once`` from now on."""
        with self._gate, self._lock:
            self.turns.append(self.job(job_id))

    def run_once(self) -> bool:
        """One ``step`` of the first running job in ``turns``, which then goes last (round
        robin in start order), chosen and run under one hold of the lock; whether one ran."""
        self._gate.acquire()  # a request waiting for the lock holds the gate: it goes first
        self._gate.release()
        with self._lock:
            entry = next((e for e in self.turns if e.status == ST_RUNNING), None)
            if entry is None:
                return False
            self.turns.remove(entry)
            self.turns.append(entry)
            msgs = self.run_iteration(entry.job_id)
        self._deliver(entry.job_id, msgs)
        return True

    def step(self, job_id: str) -> None:
        """One ``run_iteration``, then each message it returns delivered to the supervisor."""
        self._deliver(job_id, self.run_iteration(job_id))

    def _deliver(self, job_id: str, msgs: list[tuple[int, dict]]) -> None:
        """Send each message to the supervisor; a failed or refused send leaves a ``send_failed``
        row. Each answer, or failed send, settles the job: the jobs it names as ``ended`` are
        dropped here, and the job resumes if still parked. It sends with the lock released
        and ``serve`` never waits on the supervisor, which may hold its lock across requests."""
        for msg_type, body in msgs:
            ended = []
            try:
                if self.supervisor is not None:
                    ended = self.send(self.supervisor, msg_type, body).get("ended", [])
            except (OSError, NodeError) as exc:
                self.record("send_failed", job_id, message=MSG_NAMES[msg_type], error=str(exc))
            with self._lock:
                for entry in [self.jobs[j] for j in ended if j in self.jobs] + [self.job(job_id)]:
                    if entry.job_id in ended and entry.status in (ST_RUNNING, ST_QUIESCED):
                        self._retire(entry, "dropped")
                    elif entry.status == ST_QUIESCED:
                        entry.status = ST_RUNNING

    def stop_running(self, entry: JobExecution, status: str) -> None:
        """The job stops running here: a steps row covers its iterations since it last started.
        It closes the job's file, except for a park, which closes it once its record is in."""
        entry.status = status
        if status != ST_QUIESCED:
            self.store.close(entry.job_id)
        self.record("steps", entry.job_id, first=entry.steps_from,
                    end=entry.task.iterations_done)
        entry.steps_from = entry.task.iterations_done

    def _park(self, entry: JobExecution) -> None:
        """Stop a running job with its lineage one full record of its live state,
        the record a hand-off ships, and close its file: a job that resumes here
        opens it again."""
        if entry.status == ST_RUNNING:
            self.stop_running(entry, ST_QUIESCED)
            if entry.since_checkpoint or len(entry.lineage) > 1:
                self._capture(entry, full=True)
            self.store.close(entry.job_id)

    def _retire(self, entry: JobExecution, event: str) -> None:
        """The job leaves this node for good, with an ``event`` row: moved away, or dropped."""
        if entry.status == ST_RUNNING:
            self.stop_running(entry, ST_TOMBSTONED)
        entry.status = ST_TOMBSTONED
        self.analyzer.reset(entry.job_id)
        self.record(event, entry.job_id, iteration=entry.task.iterations_done)

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
        and the move's figures; ``overhead_ms`` is the clock's advance across the send.
        The lock is released from the park to the settling: a parked job takes no turn."""
        entry = self.job(job_id)
        try:
            with self._gate, self._lock:
                self._park(entry)  # the final capture: if it fails, the job resumes here
            payload, info = self.prepare_transfer(job_id)
            t0, start_ms = time.perf_counter_ns(), self.clock.now_ms()
            ack = self.send(target_addr, MSG_CHECKPOINT_TRANSFER, payload)
            info["transfer_ms"] = (time.perf_counter_ns() - t0) / 1e6
            info["overhead_ms"] = self.clock.now_ms() - start_ms
        except Exception as exc:
            with self._gate, self._lock:
                if entry.status == ST_QUIESCED:
                    entry.status = ST_RUNNING
            raise TransferFailed(f"transfer of {job_id!r} failed: {exc}") from exc
        with self._gate, self._lock:
            self._retire(entry, "transfer")
        return info, ack

    def prepare_transfer(self, job_id: str) -> tuple[bytes, dict]:
        """Encode the settings followed by the parked job's full record, the one
        ``_park`` left as its lineage, once it composes to the live state. It packs
        and writes no record."""
        entry = self.job(job_id)
        if entry.status != ST_QUIESCED:
            raise InvalidJobState(f"job {job_id!r} must be quiesced before transfer")
        outgoing = entry.lineage[0]
        if ckpt.compose(outgoing, []).fields != entry.task.state.fields:
            raise ckpt.CheckpointError(f"composed state diverges from live state for {job_id!r}")
        settings = json_payload({"sla": entry.sla and entry.sla.to_dict(),
                                 "checkpoint_interval": entry.checkpoint_interval})
        info = {"iterations_before": entry.task.iterations_done,
                "time_on_source_ms": self._exec_ms(entry)}
        return struct.pack(">I", len(settings)) + settings + ckpt.encode(outgoing), info

    # -- withdrawal -----------------------------------------------------------

    def withdraw(self) -> list[tuple[int, dict]]:
        """Announce withdrawal once, with a ``withdraw`` row for each running job."""
        with self._lock:
            if self.withdrawal:
                return []
            self.withdrawal = True
            for entry in self.jobs.values():
                if entry.status == ST_RUNNING:
                    self.record("withdraw", entry.job_id, iteration=entry.task.iterations_done)
        return [(MSG_WITHDRAW_NOTICE, {"provider_id": self.provider_id,
                                       "at_ms": self.clock.now_ms()})]


# -- the wall-mode daemon -------------------------------------------------------

class NodeDaemon(FrameServer):
    """Frame server wrapping a NodeRuntime, with one execution thread that calls
    ``run_once`` while a job runs, else waits for a reply to be written."""

    def __init__(self, runtime: NodeRuntime, listen: str = "127.0.0.1:0"):
        super().__init__(listen)
        self.runtime = runtime
        self._wake = threading.Event()  # set after a reply that may make a job runnable
        self._exec_thread = threading.Thread(target=self._exec_loop,
                                             name=f"exec-{runtime.provider_id}", daemon=True)
        self._exec_thread.start()  # idle until a request admits a job

    def stop(self) -> None:
        """Stop serving, end the execution thread, and close every file the store holds."""
        super().stop()
        self._wake.set()
        self._exec_thread.join(timeout=5)
        with self.runtime._lock:
            self.runtime.store.close()

    def register_with_supervisor(self, template: ResourceSpecTemplate) -> None:
        body = template_to_dict(template)
        last: Exception | None = None
        for _ in range(50):
            try:
                call(self.runtime.supervisor, MSG_REGISTER_PROVIDER, body, timeout=5)
                return
            except OSError as exc:
                last = exc
            time.sleep(0.1)
        raise NodeError(f"could not register with {self.runtime.supervisor}: {last}")

    # -- requests ----------------------------------------------------------------

    def handle(self, msg_type: int, payload: bytes) -> tuple:
        """The runtime serves the request. Once the ACK is written, a job it admits
        starts taking turns, and the execution thread wakes."""
        body = payload if msg_type == MSG_CHECKPOINT_TRANSFER else parse_json(payload)
        try:
            ack = self.runtime.serve(msg_type, body)
        except TransferFailed:
            self._wake.set()  # the job resumed here
            raise

        def replied() -> None:
            if msg_type in (MSG_JOB_SUBMIT, MSG_CHECKPOINT_TRANSFER):
                self.runtime.start(ack["job_id"])
            self._wake.set()

        return MSG_ACK, json_payload(ack), replied

    # -- the execution thread ------------------------------------------------------

    def _exec_loop(self) -> None:
        while not self._stop.is_set():
            if not self.runtime.run_once():
                self._wake.wait()  # a wake set since the last run_once returns at once
                self._wake.clear()


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
                             "and park that job until the supervisor answers")
    parser.add_argument("--cpu-mhz", type=int, default=1000)
    parser.add_argument("--memory-mb", type=int, default=256)
    parser.add_argument("--arch", action="append", default=None, help="architecture tag (repeatable)")
    args = parser.parse_args(argv)

    data_dir = args.data_dir or tempfile.mkdtemp(prefix=f"jobmig-{args.id}-")
    runtime = NodeRuntime(  # each timeline row is one JSON line on stdout
        provider_id=args.id, clock=WallClock(), store_dir=data_dir, withdraw_at=args.withdraw_at,
        emit=lambda row: print(json.dumps(row, sort_keys=True), flush=True),
        supervisor=args.supervisor)
    try:
        daemon = NodeDaemon(runtime, listen=args.listen)
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
