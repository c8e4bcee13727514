"""Performance monitoring: per-provider analyzers and the global hub.

Local analyzers sample job progress and confirm SLA violations over a
sliding window of pairwise throughputs; the hub passes each violation report
a node sends on to the supervisory controller, which judges whether it still
applies and acts on it once. A provider's withdrawal is no report: the
supervisor acts on its WITHDRAW_NOTICE directly.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence


class MonitorError(Exception):
    pass


class UnknownJob(MonitorError):
    pass


class ReportKind(enum.Enum):
    THROUGHPUT_VIOLATION = "throughput_violation"


@dataclass(frozen=True)
class ServiceLevelAgreement:
    """Throughput floor (iterations/second) with a k-sample confirmation window."""

    min_throughput: float
    window_k: int = 3
    sample_period_ms: int = 1000

    def __post_init__(self):
        if not 0 < self.min_throughput < math.inf:
            raise ValueError("min_throughput must be positive and finite")
        if self.window_k < 1:
            raise ValueError("window_k must be >= 1")
        if self.sample_period_ms <= 0:
            raise ValueError("sample_period_ms must be positive")

    def to_dict(self) -> dict:
        return {"min_throughput": self.min_throughput, "window_k": self.window_k,
                "sample_period_ms": self.sample_period_ms}

    @classmethod
    def from_dict(cls, obj: dict) -> "ServiceLevelAgreement":
        return cls(min_throughput=float(obj["min_throughput"]),
                   window_k=int(obj.get("window_k", 3)),
                   sample_period_ms=int(obj.get("sample_period_ms", 1000)))


@dataclass(frozen=True)
class MonitorSample:
    provider_id: str
    job_id: str
    timestamp_ms: Any  # float in wall mode, exact rational in sim mode
    iterations_done: int
    capture_ms: Any = 0  # the job's capture time on its node so far, on the same clock


@dataclass(frozen=True)
class PerformanceReport:
    kind: ReportKind
    provider_id: str
    job_id: str
    evidence: tuple = ()
    emitted_at: Any = 0
    # the samples a violation was confirmed over, for the node that confirmed it: not sent
    window: tuple = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        """The report as a node sends it."""
        evidence = [{"timestamp_ms": float(s.timestamp_ms),
                     "iterations_done": s.iterations_done} for s in self.evidence]
        return {"kind": self.kind.value, "provider_id": self.provider_id,
                "job_id": self.job_id, "evidence": evidence,
                "emitted_at": float(self.emitted_at)}

    @classmethod
    def from_dict(cls, obj: dict) -> "PerformanceReport":
        evidence = tuple(MonitorSample(obj["provider_id"], obj["job_id"],
                                       e["timestamp_ms"], e["iterations_done"])
                         for e in obj.get("evidence", []))
        return cls(kind=ReportKind(obj["kind"]), provider_id=obj["provider_id"],
                   job_id=obj["job_id"], evidence=evidence, emitted_at=obj.get("emitted_at", 0))


def _pair_throughput(a: MonitorSample, b: MonitorSample) -> float:
    """Iterations/second from sample ``a`` to the later sample ``b``."""
    dt_ms = b.timestamp_ms - a.timestamp_ms
    if dt_ms <= 0:
        raise MonitorError(f"non-increasing timestamps for job {b.job_id!r}")
    return (b.iterations_done - a.iterations_done) / (dt_ms / 1000)


class _Window:
    """One job's last ``window_k + 1`` samples, the SLA they are judged against,
    and how many of their newest pairs in a row fall below its floor."""

    __slots__ = ("samples", "sla", "slow")

    def __init__(self, samples: Sequence[MonitorSample], sla: ServiceLevelAgreement):
        self.samples = deque(samples, maxlen=sla.window_k + 1)
        self.sla = sla
        self.slow = 0
        for a, b in zip(self.samples, list(self.samples)[1:]):
            self.slow = self.slow + 1 if self.is_slow(a, b) else 0

    def is_slow(self, a: MonitorSample, b: MonitorSample) -> bool:
        """Whether iterations/second from ``a`` to ``b`` fall below the SLA floor: by the
        float rate for float (wall) timestamps, else exactly, in integers against the
        floor's exact ratio, as comparing the exact rate with the float floor would."""
        ta, tb = a.timestamp_ms, b.timestamp_ms
        if type(ta) is float or type(tb) is float:
            return _pair_throughput(a, b) < self.sla.min_throughput
        # di / (n/d ms) * 1000 < p/q  <=>  di * 1000 * d * q < p * n, where n, d > 0
        n = tb.numerator * ta.denominator - ta.numerator * tb.denominator
        if n <= 0:
            raise MonitorError(f"non-increasing timestamps for job {b.job_id!r}")
        p, q = self.sla.min_throughput.as_integer_ratio()
        return ((b.iterations_done - a.iterations_done) * 1000 * ta.denominator
                * tb.denominator * q < p * n)


class LocalAnalyzer:
    """Per-provider analysis agent: one sliding window per local job, holding
    the last ``window_k + 1`` samples, which are all that a decision reads. A
    sample rates only its pair with the one before. A violation is confirmed once
    the last ``window_k`` pairs are all slow; its report's evidence is the
    ``window_k`` samples that end those pairs, and its ``window`` all of them."""

    def __init__(self, provider_id: str):
        self.provider_id = provider_id
        self._windows: dict[str, _Window] = {}

    def observe(self, s: MonitorSample, sla: ServiceLevelAgreement) -> PerformanceReport | None:
        window = self._windows.get(s.job_id)
        if window is None or window.sla is not sla:  # a new job, or a renegotiated SLA
            window = self._windows[s.job_id] = _Window(window.samples if window else (), sla)
        samples = window.samples
        if samples:
            window.slow = window.slow + 1 if window.is_slow(samples[-1], s) else 0
        samples.append(s)
        if window.slow < sla.window_k:
            return None
        confirmed = tuple(samples)  # window_k slow pairs: window_k + 1 samples
        # restart confirmation so one slow stretch yields one report per window
        samples.clear()
        window.slow = 0
        return PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION, provider_id=s.provider_id,
                                 job_id=s.job_id, evidence=confirmed[1:],
                                 emitted_at=s.timestamp_ms, window=confirmed)

    def reset(self, job_id: str) -> None:
        """Drop the window, e.g. across a migration pause."""
        self._windows.pop(job_id, None)


class MonitorHub:
    """Global analyzer: the hop by which each violation report a node sends
    reaches the supervisor."""

    # It holds no state; it stays a method on a class of its own because the
    # benchmark traces it by that name, counting the reports that reach the
    # supervisor (``monitor.hub_submit.calls``).
    def submit(self, report: PerformanceReport) -> PerformanceReport:
        return report
