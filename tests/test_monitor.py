from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jobmig.broker import ResourceBroker, ResourceSpecTemplate, UnknownProvider
from jobmig.monitor import (
    LocalAnalyzer,
    MonitorError,
    MonitorHub,
    MonitorSample,
    PerformanceReport,
    ReportKind,
    ServiceLevelAgreement,
    WithdrawalEvent,
)

SLA = ServiceLevelAgreement(min_throughput=5.0, window_k=3, sample_period_ms=1000)


def s(ts, iters, provider="p1", job="j1"):
    return MonitorSample(provider, job, ts, iters)


def reports(samples, sla=SLA):
    """What a fresh analyzer reports for each of ``samples`` in turn."""
    analyzer = LocalAnalyzer("p1")
    return [analyzer.observe(sample, sla) for sample in samples]


def pair_rates(samples):
    """Iterations/second over each adjacent pair of samples."""
    return [(b.iterations_done - a.iterations_done) / ((b.timestamp_ms - a.timestamp_ms) / 1000)
            for a, b in zip(samples, samples[1:])]


def analyze_window(samples, sla):
    """The whole-window analysis the analyzer must agree with: a violation when the
    last window_k pair rates all fall below the floor, with the window_k samples that
    end those pairs as evidence and the window_k + 1 that make them as its window."""
    last, k = samples[-1], sla.window_k
    rates = pair_rates(samples)
    if len(rates) >= k and all(r < sla.min_throughput for r in rates[-k:]):
        return PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION,
                                 provider_id=last.provider_id, job_id=last.job_id,
                                 evidence=tuple(samples[-k:]), emitted_at=last.timestamp_ms,
                                 window=tuple(samples[-k - 1:]))
    return PerformanceReport(kind=ReportKind.NONE, provider_id=last.provider_id,
                             job_id=last.job_id, emitted_at=last.timestamp_ms)


class TestSla:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceLevelAgreement(min_throughput=0)
        with pytest.raises(ValueError):
            ServiceLevelAgreement(min_throughput=1, window_k=0)
        with pytest.raises(ValueError):
            ServiceLevelAgreement(min_throughput=1, sample_period_ms=0)

    @pytest.mark.parametrize("floor", [float("inf"), float("nan")])
    def test_a_floor_must_be_finite(self, floor):
        with pytest.raises(ValueError):
            ServiceLevelAgreement(min_throughput=floor)

    def test_dict_round_trip(self):
        assert ServiceLevelAgreement.from_dict(SLA.to_dict()) == SLA


class TestViolationReport:
    def test_healthy_window_reports_none(self):
        window = [s(0, 0), s(1000, 10), s(2000, 20), s(3000, 30)]
        assert [r.kind for r in reports(window)] == [ReportKind.NONE] * 4

    def test_hand_computed_violation_window(self):
        # pair throughputs: 4/1s=4.0, 7/2s=3.5, 2/1s=2.0 -- all below the 5.0 floor
        window = [s(0, 0), s(1000, 4), s(3000, 11), s(4000, 13)]
        assert pair_rates(window) == [4.0, 3.5, 2.0]
        report = reports(window)[-1]
        assert report.kind is ReportKind.THROUGHPUT_VIOLATION
        assert report.evidence == tuple(window[-3:])
        assert report.window == tuple(window)
        assert report.emitted_at == 4000

    def test_one_sample_reports_none(self):
        assert [r.kind for r in reports([s(0, 0)])] == [ReportKind.NONE]

    def test_fewer_pairs_than_window_is_none(self):
        window = [s(0, 0), s(1000, 1)]  # one slow pair, window_k=3
        assert reports(window)[-1].kind is ReportKind.NONE

    def test_recovery_breaks_the_streak(self):
        window = [s(0, 0), s(1000, 1), s(2000, 2), s(3000, 12), s(4000, 13)]
        assert [r.kind for r in reports(window)] == [ReportKind.NONE] * 5

    def test_evidence_carries_exactly_window_k_samples(self):
        for k in (1, 2, 4):
            sla = ServiceLevelAgreement(min_throughput=5.0, window_k=k, sample_period_ms=1000)
            window = [s(i * 1000, i) for i in range(8)]  # 1 it/s throughout
            report = next(r for r in reports(window, sla)
                          if r.kind is ReportKind.THROUGHPUT_VIOLATION)
            assert len(report.evidence) == k


class TestDetectionLatency:
    @pytest.mark.parametrize("window_k", [1, 3, 5])
    def test_violation_within_k_samples_of_drop(self, window_k):
        sla = ServiceLevelAgreement(min_throughput=5.0, window_k=window_k,
                                    sample_period_ms=1000)
        analyzer = LocalAnalyzer("p1")
        drop_at = 6
        emitted_index = None
        iters = 0
        for idx in range(drop_at + window_k + 3):
            iters += 10 if idx < drop_at else 1  # healthy 10 it/s, then 1 it/s
            report = analyzer.observe(s(idx * 1000, iters), sla)
            if report.kind is ReportKind.THROUGHPUT_VIOLATION:
                emitted_index = idx
                break
        assert emitted_index is not None
        assert emitted_index <= drop_at + window_k

    def test_window_reset_delays_confirmation(self):
        analyzer = LocalAnalyzer("p1")
        analyzer.observe(s(0, 0), SLA)
        analyzer.observe(s(1000, 1), SLA)
        analyzer.reset("j1")
        # after the reset the old slow pair must not count toward a violation
        report = analyzer.observe(s(2000, 2), SLA)
        assert report.kind is ReportKind.NONE

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 5), floor=st.integers(1, 20),
           steps=st.lists(st.tuples(st.integers(1, 3000), st.integers(0, 40)),
                          min_size=1, max_size=80))
    def test_observe_matches_analysis_of_the_whole_history(self, k, floor, steps):
        """The analyzer keeps only the last window_k+1 samples, yet reports what
        analysing every sample since the last violation reports."""
        sla = ServiceLevelAgreement(min_throughput=float(floor), window_k=k,
                                    sample_period_ms=1000)
        analyzer = LocalAnalyzer("p1")
        history = []
        t = iters = 0
        for dt, di in steps:
            t += dt
            iters += di
            history.append(s(t, iters))
            got = analyzer.observe(history[-1], sla)
            if len(history) < 2:
                assert got == PerformanceReport(kind=ReportKind.NONE, provider_id="p1",
                                                job_id="j1", emitted_at=t)
            else:
                assert got == analyze_window(history, sla)
                assert got.window == analyze_window(history, sla).window
            if got.kind is ReportKind.THROUGHPUT_VIOLATION:
                history = []

    @settings(max_examples=300, deadline=None)
    @given(first=st.tuples(st.integers(1, 20), st.integers(1, 5)),
           # rates of 0 to 40 it/s, on both sides of the floors
           steps=st.lists(st.tuples(st.sampled_from([500, 1000, 1500, 2000]),
                                    st.integers(0, 20),
                                    st.none() | st.tuples(st.integers(1, 20),
                                                          st.integers(1, 5))),
                          min_size=1, max_size=80))
    def test_observe_matches_the_whole_window_analyzer_across_sla_changes(self, first, steps):
        """Rating only the newest pair reports what analysing the whole window on every
        sample did, ``window`` included, when the floor or window_k changes mid-stream."""
        def sla_of(floor, k):
            return ServiceLevelAgreement(min_throughput=float(floor), window_k=k)

        sla = sla_of(*first)
        analyzer, reference = LocalAnalyzer("p1"), WholeWindowAnalyzer("p1")
        t = iters = 0
        for dt, di, change in steps:
            if change is not None:  # a renegotiated SLA: a new object, maybe an equal one
                sla = sla_of(*change)
            t += dt
            iters += di
            got = analyzer.observe(s(t, iters), sla)
            want = reference.observe(s(t, iters), sla)
            assert got == want
            assert got.window == want.window


class TestSlowPair:
    """A pair is slow exactly when its rate is below the floor: the exact rate for
    exact timestamps, judged in integers, and the float rate for float ones."""

    FLOORS = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)

    @staticmethod
    def judged_slow(a, b, floor):
        analyzer = LocalAnalyzer("p1")
        sla = ServiceLevelAgreement(min_throughput=floor, window_k=1)
        analyzer.observe(a, sla)
        return analyzer.observe(b, sla).kind is ReportKind.THROUGHPUT_VIOLATION

    @settings(max_examples=500, deadline=None)
    @given(t0=st.fractions(min_value=0, max_value=10**6, max_denominator=10**7),
           dt=st.fractions(min_value=0, max_value=10**4, max_denominator=10**7)
           .filter(lambda d: d > 0),
           di=st.integers(0, 10**4), floor=FLOORS)
    def test_exact_timestamps(self, t0, dt, di, floor):
        slow = Fraction(di) / (dt / 1000) < floor
        assert self.judged_slow(s(t0, 5), s(t0 + dt, 5 + di), floor) is slow

    @settings(max_examples=200, deadline=None)
    @given(t0=st.fractions(min_value=0, max_value=10**6, max_denominator=10**7),
           di=st.integers(1, 10**4), mantissa=st.integers(1, 2**20), shift=st.integers(0, 20))
    def test_a_rate_equal_to_the_floor_is_not_slow(self, t0, di, mantissa, shift):
        floor = mantissa / 2**shift  # a float whose exact value a pair's rate can equal
        dt = Fraction(1000 * di) / Fraction(floor)
        assert not self.judged_slow(s(t0, 0), s(t0 + dt, di), floor)
        assert self.judged_slow(s(t0, 0), s(t0 + dt + Fraction(1, 10**9), di), floor)

    @settings(max_examples=300, deadline=None)
    @given(t0=st.floats(min_value=0, max_value=1e9), dt=st.floats(min_value=1e-3, max_value=1e6),
           di=st.integers(0, 10**4), floor=FLOORS)
    def test_float_timestamps(self, t0, dt, di, floor):
        t1 = t0 + dt
        slow = di / ((t1 - t0) / 1000) < floor
        assert self.judged_slow(s(t0, 0), s(t1, di), floor) is slow
        assert self.judged_slow(s(int(t0), 0), s(t1, di), floor) \
            is (di / ((t1 - int(t0)) / 1000) < floor)

    def test_non_increasing_timestamps_raise(self):
        for t1 in (Fraction(5, 3), 1, 1.5):
            analyzer = LocalAnalyzer("p1")
            analyzer.observe(s(Fraction(5, 3), 0), SLA)
            with pytest.raises(MonitorError):
                analyzer.observe(s(t1, 1), SLA)


class WholeWindowAnalyzer:
    """``LocalAnalyzer`` as it was before it rated only the newest pair: the last
    window_k + 1 samples, all their pairs analysed on every sample."""

    def __init__(self, provider_id):
        self.provider_id = provider_id
        self._windows = {}

    def observe(self, sample, sla):
        window = self._windows.get(sample.job_id)
        if window is None or window.maxlen != sla.window_k + 1:
            window = self._windows[sample.job_id] = deque(window or (),
                                                          maxlen=sla.window_k + 1)
        window.append(sample)
        if len(window) < 2:
            return PerformanceReport(kind=ReportKind.NONE, provider_id=self.provider_id,
                                     job_id=sample.job_id, emitted_at=sample.timestamp_ms)
        report = analyze_window(list(window), sla)
        if report.kind is ReportKind.THROUGHPUT_VIOLATION:
            window.clear()
        return report


def forward(hub, reports):
    return [fwd for report in reports for fwd in hub.submit(report)]


def plain_hub():
    broker = ResourceBroker()
    broker.register_provider(ResourceSpecTemplate(
        provider_id="p1", address="a:1", cpu_mhz=2800, memory_mb=512))
    return MonitorHub(broker)


class TestAggregator:
    """The hub's report stream: what reaches the supervisor. The supervisor acts
    on each report once (``test_control``)."""

    def violation(self, emitted_at=1000, job="j1", provider="p1"):
        return PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION, provider_id=provider,
                                 job_id=job, evidence=(s(emitted_at, 1, provider, job),),
                                 emitted_at=emitted_at)

    def none_report(self, job="j1"):
        return PerformanceReport(kind=ReportKind.NONE, provider_id="p1", job_id=job)

    def withdrawal(self, job="j1", provider="p1", at=2000):
        return PerformanceReport(kind=ReportKind.RESOURCE_WITHDRAWN, provider_id=provider,
                                 job_id=job, evidence=(WithdrawalEvent(provider, at),),
                                 emitted_at=at)

    def test_none_reports_are_not_forwarded(self):
        forwarded = forward(plain_hub(),
                            [self.none_report(), self.none_report(), self.violation()])
        assert len(forwarded) == 1
        assert forwarded[0].kind is ReportKind.THROUGHPUT_VIOLATION

    def test_violation_then_withdrawal_both_forwarded_in_order(self):
        forwarded = forward(plain_hub(), [self.violation(), self.withdrawal()])
        assert [r.kind for r in forwarded] == [ReportKind.THROUGHPUT_VIOLATION,
                                               ReportKind.RESOURCE_WITHDRAWN]

    def test_replay_yields_identical_forwarded_sequence(self):
        stream = [self.none_report(), self.violation(1000), self.violation(2000),
                  self.withdrawal()]
        a = forward(plain_hub(), list(stream))
        b = forward(plain_hub(), list(stream))
        assert a == b
        assert len(a) == 3


class TestMonitorHub:
    def make_hub(self):
        broker = ResourceBroker()
        broker.register_provider(ResourceSpecTemplate(
            provider_id="server1", address="a:1", cpu_mhz=2800, memory_mb=512))
        broker.register_provider(ResourceSpecTemplate(
            provider_id="server2", address="a:2", cpu_mhz=3000, memory_mb=1024))
        return broker, MonitorHub(broker)

    def test_withdrawal_reports_every_local_job(self):
        broker, hub = self.make_hub()
        reports = hub.note_withdrawal("server1", 42, ["j1", "j2"])
        assert [r.job_id for r in reports] == ["j1", "j2"]
        assert all(r.evidence == (WithdrawalEvent("server1", 42),) for r in reports)
        assert all(r.kind is ReportKind.RESOURCE_WITHDRAWN for r in reports)
        assert broker.get("server1").available is False

    def test_withdrawal_with_no_jobs_still_flips_availability(self):
        broker, hub = self.make_hub()
        assert hub.note_withdrawal("server2", 0, []) == []
        assert broker.get("server2").available is False

    def test_unknown_provider(self):
        _, hub = self.make_hub()
        with pytest.raises(UnknownProvider):
            hub.note_withdrawal("ghost", 0, [])

    def test_report_json_round_trip(self):
        violation = PerformanceReport(kind=ReportKind.THROUGHPUT_VIOLATION, provider_id="p",
                                      job_id="j1", evidence=(s(1000, 3, "p", "j1"),),
                                      emitted_at=1000)
        again = PerformanceReport.from_dict(violation.to_dict())
        assert again.kind is ReportKind.THROUGHPUT_VIOLATION
        assert again.job_id == "j1"
        assert again.evidence[0].iterations_done == 3
        assert again == violation
