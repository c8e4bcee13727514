"""Spans around calls into jobmig's public functions, recorded from outside.

``Tracer.install`` replaces module functions and class methods with wrappers
that record one span per call: name, start, end, the enclosing span on the
same thread, the job, and a byte count where one applies. ``uninstall``
puts the originals back, so untraced runs execute the unmodified program.
Spans stay in memory; ``layer_metrics`` reduces one job's spans to per-layer
figures, and ``write_jsonl``/``read_jsonl`` move them between processes.
"""

from __future__ import annotations

import gzip
import json
import threading
import time

# (module, class or None, attribute, span name, what the byte count is)
TARGETS = (
    ("workload", "SortTask", "step", "workload.step", None),
    ("checkpoint", None, "capture_full", "checkpoint.capture", None),
    ("checkpoint", None, "capture_incremental", "checkpoint.capture", None),
    ("checkpoint", None, "encode", "checkpoint.encode", "result"),
    ("checkpoint", "CheckpointStore", "append", "checkpoint.store_append", "record_kind"),
    ("checkpoint", None, "compose", "checkpoint.compose", None),
    ("checkpoint", None, "decode_bundle", "checkpoint.decode", None),
    ("node", "NodeRuntime", "prepare_transfer", "node.prepare_transfer", "result0"),
    ("node", "NodeRuntime", "resume_from_bundle", "node.resume", "restore_ms"),
    ("node", "NodeRuntime", "run_iteration", "node.run_iteration", None),
    ("node", "VirtualClock", "advance", "harness.clock_advance", None),
    ("monitor", "LocalAnalyzer", "observe", "monitor.observe", None),
    ("monitor", "MonitorHub", "submit", "monitor.hub_submit", None),
    ("control", "SupervisoryAgent", "decide", "control.decide", None),
    ("control", "SupervisoryAgent", "migrate", "control.migrate", None),
    ("broker", None, "match_job", "broker.match", None),
    # control binds match_job at import time, so its reference is wrapped too
    ("control", None, "match_job", "broker.match", None),
    ("harness", "SimTransport", "submit", "node.submit", None),
    ("harness", "WallTransport", "submit", "node.submit", None),
)

# Per-layer metrics and their units: sums over one job, except the
# *_per_record ratios. The last two, node.migrate_drift_iters, and in wall
# mode node.transfer_ms and node.restore_ms do not come from spans.
LAYER_UNITS = {
    "workload.step.ms": "ms", "workload.step.calls": "count",
    "checkpoint.capture.ms": "ms", "checkpoint.capture.calls": "count",
    "checkpoint.encode.ms": "ms", "checkpoint.encode.kb": "KB",
    "checkpoint.store_append.ms": "ms", "checkpoint.store_append.kb": "KB",
    "checkpoint.incr_kb_per_record": "KB", "checkpoint.full_kb_per_record": "KB",
    "checkpoint.compose.ms": "ms", "checkpoint.decode.ms": "ms",
    "node.prepare_transfer.ms": "ms", "node.resume.ms": "ms", "node.transfer.kb": "KB",
    "node.transfer_ms": "ms", "node.restore_ms": "ms", "node.migrate_drift_iters": "count",
    "node.submit_rtt_ms": "ms", "node.run_iteration.self_ms": "ms",
    "monitor.observe.ms": "ms", "monitor.observe.calls": "count",
    "monitor.hub_submit.calls": "count",
    "control.decide.ms": "ms", "control.migrate.ms": "ms",
    "broker.match.ms": "ms", "broker.match.calls": "count",
    "harness.clock_advance.ms": "ms",
    "host.ref_loop_ms": "ms", "trace.overhead_pct": "%",
}

class Span:
    __slots__ = ("name", "t0", "t1", "parent", "job", "nbytes", "tag", "pid")

    def __init__(self, name, t0, t1, parent, job, nbytes=0, tag=None, pid=None):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.parent = parent
        self.job = job
        self.nbytes = nbytes
        self.tag = tag
        self.pid = pid


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count: str | None = None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0, 0, stack[-1] if stack else None, tracer.job)
            tracer.spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter_ns()
                stack.pop()
            if count == "result":
                span.nbytes = len(result)
            elif count == "result0":
                span.nbytes = len(result[0])
            elif count == "record_kind":
                span.tag = "full" if args[1].kind == 0 else "incr"
            elif count == "restore_ms":
                span.tag = result["restore_ms"]
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)

    def install(self, modules: dict, targets=TARGETS) -> None:
        for mod_name, cls_name, attr, name, count in targets:
            mod = modules[mod_name]
            owner = getattr(mod, cls_name) if cls_name else mod
            self.wrap(owner, attr, name, count)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums over one job's spans: milliseconds, calls, kilobytes."""
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_ns: dict[int, int] = {}
    for sp in spans:
        dur = sp.t1 - sp.t0
        ms[sp.name] = ms.get(sp.name, 0.0) + dur / 1e6
        calls[sp.name] = calls.get(sp.name, 0) + 1
        if sp.parent is not None:
            child_ns[id(sp.parent)] = child_ns.get(id(sp.parent), 0) + dur
    run_self_ns = sum(sp.t1 - sp.t0 - child_ns.get(id(sp), 0)
                      for sp in spans if sp.name == "node.run_iteration")
    append_kb = {"full": 0.0, "incr": 0.0}
    append_n = {"full": 0, "incr": 0}
    encode_kb = 0.0
    transfer_kb = 0.0
    for sp in spans:
        if sp.name == "checkpoint.encode":
            encode_kb += sp.nbytes / 1000
            parent = sp.parent
            if parent is not None and parent.name == "checkpoint.store_append":
                append_kb[parent.tag] += sp.nbytes / 1000
        elif sp.name == "checkpoint.store_append":
            append_n[sp.tag] += 1
        elif sp.name == "node.prepare_transfer":
            transfer_kb += sp.nbytes / 1000

    def per_record(kind):
        return append_kb[kind] / append_n[kind] if append_n[kind] else 0.0

    out = {}
    for key in LAYER_UNITS:
        span_name, _, kind = key.rpartition(".")
        if kind == "ms":
            out[key] = ms.get(span_name, 0.0)
        elif kind == "calls":
            out[key] = calls.get(span_name, 0)
    out["checkpoint.encode.kb"] = encode_kb
    out["checkpoint.store_append.kb"] = append_kb["full"] + append_kb["incr"]
    out["checkpoint.incr_kb_per_record"] = per_record("incr")
    out["checkpoint.full_kb_per_record"] = per_record("full")
    out["node.transfer.kb"] = transfer_kb
    # Without a wire (sim), the hand-off is the target's resume call; wall runs
    # replace both figures with the source node's migrate reply.
    out["node.transfer_ms"] = ms.get("node.resume", 0.0)
    out["node.restore_ms"] = sum(sp.tag for sp in spans if sp.name == "node.resume")
    out["node.submit_rtt_ms"] = ms.get("node.submit", 0.0)
    out["node.run_iteration.self_ms"] = run_self_ns / 1e6
    return out


def write_jsonl(spans: list[Span], path, pid: int) -> None:
    """One JSON object per span; parents are line indices. A ``.gz`` path is
    gzip-compressed (a traced run holds a few hundred thousand spans)."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        for sp in spans:
            parent = index.get(id(sp.parent)) if sp.parent is not None else None
            fh.write(json.dumps({"pid": sp.pid or pid, "name": sp.name, "t0_ns": sp.t0,
                                 "t1_ns": sp.t1, "parent": parent, "job": sp.job,
                                 "bytes": sp.nbytes, "tag": sp.tag}) + "\n")


def read_jsonl(path) -> list[Span]:
    spans: list[Span] = []
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            parent = spans[obj["parent"]] if obj["parent"] is not None else None
            spans.append(Span(obj["name"], obj["t0_ns"], obj["t1_ns"], parent, obj["job"],
                              obj["bytes"], obj["tag"], obj["pid"]))
    return spans
