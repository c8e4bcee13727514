"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import pytest

from jobmig import checkpoint as cp
from jobmig import harness, node as nd, workload
from jobmig.broker import NoMatch, match_job
from jobmig.monitor import LocalAnalyzer, MonitorSample, ReportKind, ServiceLevelAgreement
from jobmig.node import NodeDaemon, NodeRuntime, WallClock

from conftest import DEFAULT_TEST_SLA, make_blob_state, reference_digest
from test_broker import oracle_eligible, random_instance


@contextmanager
def criterion(cid, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {cid} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {cid} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def baseline_outcomes(tmp_path_factory):
    """One sim scenario1+scenario2 pair per baseline size, at the recorded
    migration points. Shared by the accounting and benefit criteria."""
    root = tmp_path_factory.mktemp("baseline")
    outcomes = {}
    for base in harness.TABLE1_BASELINE:
        outcomes[base.n] = harness.run_scenario2(
            base.n, 42, migrate_at=base.iterations_before, workdir=root / str(base.n))
    return outcomes


def test_c1_accounting_identity_on_published_rows():
    with criterion("C1", "accounting-identity-published-rows"):
        assert len(harness.TABLE1_BASELINE) == 5
        for row in harness.TABLE1_BASELINE:
            assert row.time_source_ms + row.time_target_ms + row.overhead_ms \
                == row.scenario2_total_ms, f"row N={row.n}"
        first = harness.TABLE1_BASELINE[0]
        assert 27381 + 25421 + 3620 == 56422 == first.scenario2_total_ms


def test_c2_accounting_identity_on_generated_runs(baseline_outcomes):
    with criterion("C2", "accounting-identity-sim-runs"):
        expected_points = {500: 249, 1000: 516, 1500: 764, 2000: 1050, 2500: 1298}
        for n, outcome in baseline_outcomes.items():
            row = outcome.row
            assert row.iterations_before == expected_points[n]
            assert isinstance(row.scenario2_total_ms, Fraction)
            assert row.scenario2_total_ms == \
                row.time_source_ms + row.time_target_ms + row.overhead_ms, f"N={n}"


@pytest.mark.slow
def test_c3_semantic_transparency_sim_and_wall(tmp_path_factory):
    with criterion("C3", "semantic-transparency-digests"):
        rng = random.Random(1234)
        seeds = [rng.getrandbits(32) for _ in range(10)]
        cases = [(n, seed) for n in (500, 1000) for seed in seeds]
        references = {(n, seed): reference_digest(n, seed) for n, seed in cases}

        sim_root = tmp_path_factory.mktemp("c3-sim")
        for n, seed in cases:
            outcome = harness.run_scenario2(n, seed, migrate_at=n // 2,
                                            workdir=sim_root / f"{n}-{seed}")
            assert outcome.digest == references[(n, seed)], f"sim N={n} seed={seed}"

        wall_root = tmp_path_factory.mktemp("c3-wall")

        def wall_case(args):
            n, seed = args
            outcome = harness.run_scenario2(n, seed, migrate_at=n // 2, mode="wall",
                                            workdir=wall_root / f"{n}-{seed}",
                                            include_scenario1=False)
            return (n, seed), outcome.digest, outcome.row.iterations_before

        with ThreadPoolExecutor(max_workers=4) as pool:
            for key, digest, iterations_before in pool.map(wall_case, cases):
                assert digest == references[key], f"wall N={key[0]} seed={key[1]}"
                assert iterations_before == key[0] // 2, f"wall N={key[0]} seed={key[1]}"


def test_c4_checkpoint_equivalence_suite():
    with criterion("C4", "checkpoint-equivalence-1000-cases"):
        rng = random.Random(0xACCE9)

        def uninterrupted(n, seed):
            t = workload.init_sort(n, seed, job_id="u")
            while not t.done:
                t.step()
            return t

        for case in range(500):
            n = rng.randint(1, 64)
            seed = rng.getrandbits(64)
            k = rng.randint(0, n)
            task = workload.init_sort(n, seed, job_id="u")
            for _ in range(k):
                task.step()
            resumed = workload.SortTask(cp.compose(cp.capture_full(task.state, k), []))
            while not resumed.done:
                resumed.step()
            ref = uninterrupted(n, seed)
            assert resumed.state == ref.state and resumed.digest() == ref.digest(), \
                f"full-capture case {case}"

        for case in range(500):
            n = rng.randint(1, 64)
            seed = rng.getrandbits(64)
            k = rng.randint(0, n)
            task = workload.init_sort(n, seed, job_id="u")
            images = {}
            full = cp.capture_full(task.state, 0, images)
            incrementals = []
            for seq in range(1, k + 1):
                task.step()
                incrementals.append(cp.capture_incremental(task.state, images, seq))
            resumed = workload.SortTask(cp.compose(full, incrementals))
            while not resumed.done:
                resumed.step()
            ref = uninterrupted(n, seed)
            assert resumed.state == ref.state and resumed.digest() == ref.digest(), \
                f"incremental-chain case {case}"

        round_trips = 0
        for case in range(1000):
            if case % 2:
                state = make_blob_state(
                    job_id=f"rt-{case}", counter=rng.getrandbits(62),
                    values=[rng.getrandbits(62) for _ in range(rng.randrange(12))],
                    payload=bytes(rng.randrange(256) for _ in range(rng.randrange(24))))
            else:
                state = workload.init_sort(rng.randint(1, 32), rng.getrandbits(64),
                                           job_id=f"rt-{case}").state
            record = cp.capture_full(state, rng.getrandbits(63))
            data = cp.encode(record)
            decoded = cp.decode(data)
            assert decoded == record and cp.encode(decoded) == data
            round_trips += 1
        assert round_trips == 1000


def test_c5_broker_oracle_equivalence():
    with criterion("C5", "broker-oracle-equivalence-200"):
        rng = random.Random(0xB40C)
        checked = 0
        for _ in range(200):
            req, providers = random_instance(rng)
            expected = oracle_eligible(req, providers)
            try:
                result = match_job(req, providers)
                got = set(result.provider_ids)
            except NoMatch:
                result = None
                got = set()
            assert got == expected
            if result is not None:
                shuffled = providers[:]
                rng.shuffle(shuffled)
                assert match_job(req, shuffled) == result
            checked += 1
        assert checked == 200


def test_c6_rescheduling_benefit_and_overhead_fit(baseline_outcomes):
    with criterion("C6", "rescheduling-benefit-and-overhead-fit"):
        config = harness.calibrate_from_table1()
        for base in harness.TABLE1_BASELINE:
            outcome = baseline_outcomes[base.n]
            assert outcome.row.scenario2_total_ms < outcome.row.scenario1_total_ms, \
                f"no benefit at N={base.n}"
            fitted = float(config.overhead_ms(base.n))
            assert abs(fitted - base.overhead_ms) / base.overhead_ms < 0.10, \
                f"overhead fit off at N={base.n}: {fitted} vs {base.overhead_ms}"


def test_c7_detection_latency():
    with criterion("C7", "detection-latency-bound"):
        for window_k in (1, 3, 5):
            sla = ServiceLevelAgreement(min_throughput=5.0, window_k=window_k,
                                        sample_period_ms=1000)
            analyzer = LocalAnalyzer("p1")
            drop_at = 7
            iters = 0
            emitted = None
            for idx in range(drop_at + window_k + 5):
                iters += 10 if idx < drop_at else 1
                report = analyzer.observe(
                    MonitorSample("p1", "j1", idx * 1000, iters), sla)
                if report is not None:  # a healthy sample builds no report
                    assert report.kind is ReportKind.THROUGHPUT_VIOLATION
                    emitted = idx
                    break
            assert emitted is not None, f"no violation for window_k={window_k}"
            assert emitted <= drop_at + window_k, \
                f"latency bound exceeded for window_k={window_k}: {emitted}"


@pytest.mark.slow
def test_c8_crash_safety_after_transfer_ack(tmp_path_factory):
    with criterion("C8", "crash-safety-kill-source-after-ack"):
        root = tmp_path_factory.mktemp("c8")
        n, withdraw_at = 1500, 150
        providers = harness.default_providers()
        for rep in range(10):
            seed = 9000 + rep
            env = harness.WallEnvironment(providers, root / str(rep),
                                          sla=DEFAULT_TEST_SLA, checkpoint_interval=8,
                                          withdraw_at={"server1": withdraw_at})
            killed = threading.Event()
            migrate = env.supervisory.migrate

            def migrate_then_kill_source(job_id, to_provider):
                record = migrate(job_id, to_provider)  # returns with the target's ACK in hand
                env.procs["server1"].kill()
                killed.set()
                return record

            env.supervisory.migrate = migrate_then_kill_source
            try:
                env.start()
                job_id = env.deploy_sort(f"crash-{rep}", n, seed, start_on="server1")
                result = env.pump_until_complete(job_id, timeout=45)
                assert killed.wait(timeout=10), f"rep {rep}: source never killed"
                assert result["digest"] == reference_digest(n, seed), f"rep {rep}"
                assert result["provider_id"] == "server2", f"rep {rep}"
            finally:
                env.stop()


def test_c9_fuzz_robustness(tmp_path_factory):
    with criterion("C9", "fuzz-robustness-10000"):
        rng = random.Random(0xF022)
        rejected_records = 0

        base_records = []
        for i in range(8):
            state = workload.init_sort(rng.randint(1, 24), rng.getrandbits(64),
                                       job_id=f"fz-{i}").state
            base_records.append(cp.encode(cp.capture_full(state, i)))
            blob = make_blob_state(job_id=f"fzb-{i}",
                                   payload=bytes(rng.randrange(256) for _ in range(10)))
            base_records.append(cp.encode(cp.capture_full(blob, i)))
            # an array that needs 8-byte elements, so both array widths are fuzzed
            wide = make_blob_state(job_id=f"fzw-{i}",
                                   values=[rng.randrange(1000), 2**31 + rng.getrandbits(40)])
            base_records.append(cp.encode(cp.capture_full(wide, i)))

        for case in range(5000):
            data = bytearray(rng.choice(base_records))
            mode = case % 4
            if mode == 0:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            elif mode == 1:
                data = data[:rng.randrange(len(data))]
            elif mode == 2:
                data += bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
            else:
                pos = rng.randrange(len(data))
                data[pos:pos + 4] = bytes(rng.randrange(256) for _ in range(4))
            try:
                cp.decode(bytes(data))
                pytest.fail(f"corrupted record silently accepted (case {case})")
            except cp.CodecError:
                rejected_records += 1

        runtime = NodeRuntime(provider_id="fz", clock=WallClock(),
                              store_dir=tmp_path_factory.mktemp("c9"))
        daemon = NodeDaemon(runtime, listen="127.0.0.1:0")
        daemon.start()
        host, port = nd.parse_hostport(daemon.address)
        answered = 0
        closed = 0
        try:
            sock = socket.create_connection((host, port), timeout=10)
            sock.settimeout(10)
            for case in range(4000):
                msg_type = rng.choice([rng.randint(0, 0xFF)] + list(nd.MSG_NAMES))
                payload = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
                nd.send_frame(sock, msg_type, payload)
                reply_type, _ = nd.recv_frame(sock)
                assert reply_type == nd.MSG_ERROR, f"garbage frame accepted (case {case})"
                answered += 1
            sock.close()

            for case in range(1000):
                with socket.create_connection((host, port), timeout=10) as raw:
                    raw.settimeout(10)
                    mode = case % 4
                    if mode == 0:
                        raw.sendall(struct.pack(">I", 0))  # length below minimum
                    elif mode == 1:
                        raw.sendall(struct.pack(">I", nd.MAX_PAYLOAD + 100))  # oversize
                    elif mode == 2:
                        raw.sendall(struct.pack(">I", 500) + b"\x02trunc")  # truncated body
                    else:
                        raw.sendall(bytes(rng.randrange(256) for _ in range(rng.randint(1, 3))))
                    if mode in (0, 1):
                        reply_type, _ = nd.recv_frame(raw)
                        assert reply_type == nd.MSG_ERROR
                        assert raw.recv(1) == b""  # then the server closes
                    closed += 1

            assert rejected_records + answered + closed == 10_000
            # the daemon still serves real work afterwards
            ack_type, _ = nd.request(daemon.address, nd.MSG_JOB_SUBMIT, nd.json_payload(
                {"job_id": "post-fuzz", "task_kind": "sort", "params": {"n": 5, "seed": 1}}))
            assert ack_type == nd.MSG_ACK
        finally:
            daemon.stop()
