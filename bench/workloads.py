"""The benchmark's workloads, their timed runs, and their correctness checks.

Jobs run one at a time from this process. A run first does one untimed
warm-up job, then repeats whole cycles of its workload's fixed job list until
the run length is used up, so every run averages the same mix. Each job gets
a fresh work directory; garbage is collected before the job's timed region,
and its checks run after it.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref
import spans

from jobmig import broker, checkpoint, control, harness, monitor, node, workload

MODULES = {"broker": broker, "checkpoint": checkpoint, "control": control,
           "harness": harness, "monitor": monitor, "node": node, "workload": workload}

SOURCE = "server1"
TARGET = "server2"
HOOK_DIR = Path(__file__).resolve().parent / "nodehook"


@dataclass(frozen=True)
class JobSpec:
    n: int
    interval: int
    migrate_at: int | None = None  # withdrawal iteration; None runs scenario 1
    probe: bool = False  # sim-quiet's migration probe: only in migrate_ms and setup_s


@dataclass(frozen=True)
class Workload:
    mode: str
    cycle: tuple[JobSpec, ...]


WORKLOADS = {
    # Table 1, scenario 2: each published size at its recorded migration point.
    "sim-table1": Workload("sim", tuple(JobSpec(row[0], 16, row[3]) for row in ref.TABLE1)),
    # A job that meets no problem, alternating with a probe migration of the
    # same job shape, so that migrate_ms exists on this workload too.
    "sim-quiet": Workload("sim", (JobSpec(5000, 1024),
                                  JobSpec(5000, 1024, 2500, probe=True))),
    "wall-s2": Workload("wall", (JobSpec(2500, 16, 1250),)),
}


class CheckFailed(Exception):
    """A job's output disagrees with the independently computed expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class JobRun:
    spec: JobSpec
    job_id: str
    setup_s: float
    job_s: float
    migrate_ms: float | None
    store_bytes: int
    node_hwm_kb: int = 0
    layers: dict = field(default_factory=dict)  # per-layer figures not taken from spans
    table_row: str | None = None
    cycle: int = -1
    traced: bool = False
    host_ms: float = 0.0  # reference-loop time, mean of before and after the job
    node_spans: list = field(default_factory=list)

    def summary(self) -> dict:
        return {"job_id": self.job_id, "n": self.spec.n, "probe": self.spec.probe,
                "cycle": self.cycle, "traced": self.traced, "setup_s": self.setup_s,
                "job_s": self.job_s, "migrate_ms": self.migrate_ms,
                "store_bytes": self.store_bytes, "ref_loop_ms": self.host_ms,
                "drift_iters": self.layers.get("node.migrate_drift_iters")}


# A fixed pure-Python loop is timed before and after every job. It shows how
# fast the host was around that job; end-to-end times are scaled by
# nominal / measured so that host drift between runs cancels (see README).
REF_LOOP_ITERS = 100_000
REF_LOOP_NOMINAL_MS = 10.0


def ref_loop_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed_migrations(supervisory) -> list[float]:
    """Time every SupervisoryAgent.migrate call of this agent, in ms."""
    times: list[float] = []
    inner = supervisory.migrate

    def migrate(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            times.append((time.perf_counter() - t0) * 1e3)

    supervisory.migrate = migrate
    return times


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*.ckpt"))


def replay(lineage) -> dict:
    """Apply a full record's fields and then each incremental's deltas in
    order, checking that every record chains from the one before it."""
    full = lineage[0]
    fields = {d.field_id: d.new_value for d in full.deltas}
    prev = full.seq
    for rec in lineage[1:]:
        expect(rec.base_seq == prev == rec.seq - 1, f"record {rec.seq} does not chain from {prev}")
        fields.update((d.field_id, d.new_value) for d in rec.deltas)
        prev = rec.seq
    return fields


def check_store(root: Path, job_id: str, expected_sorted: list[int]) -> None:
    """Every store file decodes, and every lineage (a full record and the
    incrementals after it) replays to a plausible partial sort. The last
    lineage of each file also goes through ``checkpoint.compose``, which must
    agree with the replay."""
    files = sorted(root.rglob("*.ckpt"))
    expect(bool(files), f"{job_id}: no checkpoint store files")
    for path in files:
        try:
            records = checkpoint.decode_bundle(path.read_bytes())
        except checkpoint.CheckpointError as exc:
            raise CheckFailed(f"{path.name} does not decode: {exc}") from exc
        expect(all(r.job_id == job_id for r in records), f"{path.name}: foreign records")
        expect(records[0].kind == checkpoint.KIND_FULL, f"{path.name}: starts incremental")
        starts = [i for i, r in enumerate(records) if r.kind == checkpoint.KIND_FULL]
        for a, b in zip(starts, starts[1:] + [len(records)]):
            fields = replay(records[a:b])
            try:
                ref.check_sorted_prefix(fields[workload.FIELD_ITER],
                                        list(fields[workload.FIELD_ARRAY]), expected_sorted)
            except ValueError as exc:
                raise CheckFailed(f"{path.name} lineage at seq {records[a].seq}: {exc}") from exc
        try:
            state = checkpoint.compose(records[starts[-1]], records[starts[-1] + 1:])
        except checkpoint.CheckpointError as exc:
            raise CheckFailed(f"{path.name}: last lineage does not compose: {exc}") from exc
        expect(state.fields == {fid: list(v) if isinstance(v, tuple) else v
                                for fid, v in fields.items()},
               f"{path.name}: compose disagrees with the replay")


# -- sim ----------------------------------------------------------------------

def run_sim_job(spec: JobSpec, job_id: str, seed: int, workdir: Path,
                model: ref.CostModel, tracer: spans.Tracer | None) -> JobRun:
    expected_sorted, digest = ref.expected_output(spec.n, seed)
    gc.collect()
    t0 = time.perf_counter()
    config = harness.calibrate_from_table1()
    env = harness.SimEnvironment(
        config, harness.default_providers(config), workdir,
        checkpoint_interval=spec.interval,
        withdraw_at={SOURCE: spec.migrate_at} if spec.migrate_at is not None else None)
    t1 = time.perf_counter()
    migrations = timed_migrations(env.supervisory)
    env.deploy_sort(job_id, spec.n, seed, start_on=SOURCE)
    result = env.run_job(job_id, max_steps=4 * spec.n + 1000)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    n = spec.n
    expect(result["digest"] == digest, f"{job_id}: digest {result['digest']:016x} "
                                       f"!= expected {digest:016x}")
    expect(result["iterations_done"] == n, f"{job_id}: {result['iterations_done']} iterations")
    try:
        env.step_log.assert_single_ownership(job_id)
    except harness.HarnessError as exc:
        raise CheckFailed(str(exc)) from exc
    expect(len(env.step_log.for_job(job_id)) == n, f"{job_id}: step log length")
    entry = env.supervisory.jobs[job_id]
    now = env.clock.now_ms()
    table_row = None
    if spec.migrate_at is None:
        expect(not entry.migrations and result["provider_id"] == SOURCE,
               f"{job_id}: a quiet job moved")
        expect(now == result["exec_ms"] == model.scenario1(n),
               f"{job_id}: scenario1 time {now} != N*c = {model.scenario1(n)}")
    else:
        k = spec.migrate_at
        expect(len(entry.migrations) == 1 and len(migrations) == 1,
               f"{job_id}: {len(entry.migrations)} migrations")
        rec = entry.migrations[0]
        source, target, overhead, total = model.scenario2(n, k)
        expect(rec.iterations_before == k, f"{job_id}: migrated after {rec.iterations_before}")
        expect((rec.from_provider, rec.to_provider, result["provider_id"])
               == (SOURCE, TARGET, TARGET), f"{job_id}: wrong providers")
        expect(rec.time_on_source_ms == source, f"{job_id}: source time {rec.time_on_source_ms}")
        expect(rec.time_on_target_ms == target, f"{job_id}: target time {rec.time_on_target_ms}")
        expect(rec.overhead_ms == overhead, f"{job_id}: overhead {rec.overhead_ms}")
        expect(now == rec.total_ms == total, f"{job_id}: total {now} != {total}")
        expect(total < model.scenario1(n), f"{job_id}: migration did not pay off")
        table_row = (f"  table1 N={n} k={k} scenario1={float(model.scenario1(n)):.3f} "
                     f"scenario2={float(now):.3f} source={float(rec.time_on_source_ms):.3f} "
                     f"target={float(rec.time_on_target_ms):.3f} "
                     f"overhead={float(rec.overhead_ms):.3f} (virtual ms)")
    nbytes = store_bytes(workdir)
    check_store(workdir, job_id, expected_sorted)
    # the withdrawal point is exact in sim (checked above), so drift is 0
    return JobRun(spec, job_id, t1 - t0, t2 - t1, migrations[0] if migrations else None,
                  nbytes, layers={"node.migrate_drift_iters": 0}, table_row=table_row)


# -- wall ---------------------------------------------------------------------

def run_wall_job(spec: JobSpec, job_id: str, seed: int, workdir: Path,
                 tracer: spans.Tracer | None) -> JobRun:
    expected_sorted, digest = ref.expected_output(spec.n, seed)
    span_dir = None
    if tracer is not None:
        span_dir = workdir / "spans"
        span_dir.mkdir(parents=True)
    gc.collect()
    env = harness.WallEnvironment(harness.default_providers(), workdir,
                                  checkpoint_interval=spec.interval,
                                  withdraw_at={SOURCE: spec.migrate_at})
    saved = {k: os.environ.get(k) for k in ("PYTHONPATH", "BENCH_SPAN_DIR", "BENCH_SPAN_JOB")}
    try:
        if span_dir is not None:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(HOOK_DIR), saved["PYTHONPATH"]) if p)
            os.environ["BENCH_SPAN_DIR"] = str(span_dir)
            os.environ["BENCH_SPAN_JOB"] = job_id
        t0 = time.perf_counter()
        try:
            env.start()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        t1 = time.perf_counter()
        migrations = timed_migrations(env.supervisory)
        env.deploy_sort(job_id, spec.n, seed, start_on=SOURCE)
        result = env.pump_until_complete(job_id, timeout=60)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        hwm = max(vm_hwm_kb(p.pid) for p in env.procs.values())
        pids = [p.pid for p in env.procs.values()]
        detail = dict(env.migrate_detail)
    finally:
        env.stop()
        for proc in env.procs.values():  # stop() kills a node that ignores SIGTERM
            proc.wait(timeout=10)

    n, k = spec.n, spec.migrate_at
    job_s = t2 - t1
    expect(result["digest"] == digest, f"{job_id}: digest {result['digest']:016x} "
                                       f"!= expected {digest:016x}")
    expect(result["iterations_done"] == n, f"{job_id}: {result['iterations_done']} iterations")
    expect(result["provider_id"] == TARGET, f"{job_id}: result from {result['provider_id']}")
    entry = env.supervisory.jobs[job_id]
    expect(len(entry.migrations) == 1 and len(migrations) == 1,
           f"{job_id}: {len(entry.migrations)} migrations")
    rec = entry.migrations[0]
    expect(k <= rec.iterations_before < n, f"{job_id}: migrated after {rec.iterations_before}")
    parts_ms = rec.time_on_source_ms + rec.time_on_target_ms + rec.overhead_ms
    expect(job_s * 1e3 >= parts_ms,
           f"{job_id}: measured {job_s * 1e3:.1f} ms < accounted {parts_ms:.1f} ms")
    nbytes = store_bytes(workdir)
    check_store(workdir, job_id, expected_sorted)
    run = JobRun(spec, job_id, t1 - t0, job_s, migrations[0], nbytes, node_hwm_kb=hwm,
                 layers={"node.transfer_ms": float(detail["transfer_ms"]),
                         "node.restore_ms": float(detail["restore_ms"]),
                         "node.migrate_drift_iters": rec.iterations_before - k})
    if span_dir is not None:
        run.node_spans = [sp for pid in pids
                          for sp in spans.read_jsonl(span_dir / f"node-{pid}.jsonl")]
    return run


# -- runs ---------------------------------------------------------------------

def job_id_for(index: int, spec: JobSpec) -> str:
    # fixed width, so every record and therefore the store size is seed-independent
    return f"j{index:05d}-n{spec.n:05d}"


def median(values):
    return statistics.median(values) if values else 0.0


def cycle_median(runs: list[JobRun], value) -> float:
    """Median over cycles of the cycle's mean ``value``, so each figure uses
    every job of a mixed cycle, not only its middle-sized one."""
    cycles: dict[int, list[float]] = {}
    for r in runs:
        v = value(r)
        if v is not None:
            cycles.setdefault(r.cycle, []).append(v)
    return median([sum(vs) / len(vs) for vs in cycles.values()])


class Run:
    def __init__(self, name: str, seed: int, root: Path, tracer: spans.Tracer | None):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.model = ref.fit_table1()
        self.index = 0
        self.jobs: list[JobRun] = []
        self.all_spans: list[spans.Span] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def one_job(self, spec: JobSpec, traced: bool) -> JobRun | None:
        """Run, check and time one job; ``attempted``, ``failed`` and
        ``correct`` count every job, the warm-up included."""
        index = self.index
        self.index += 1
        self.attempted += 1
        job_id = job_id_for(index, spec)
        seed = ref.job_seed(self.seed, index)
        workdir = self.root / job_id
        host_before = ref_loop_ms()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.job = job_id
            tracer.install(MODULES)
        try:
            if self.wl.mode == "sim":
                run = run_sim_job(spec, job_id, seed, workdir, self.model, tracer)
            else:
                run = run_wall_job(spec, job_id, seed, workdir, tracer)
        except CheckFailed as exc:
            self.correct = False
            print(f"CHECK FAILED {self.name} {job_id}: {exc}", file=sys.stderr)
            return None
        except Exception:
            self.failed += 1
            print(f"JOB FAILED {self.name} {job_id}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
        run.traced = traced
        run.host_ms = (host_before + ref_loop_ms()) / 2
        if tracer is not None:
            job_spans = tracer.take() + run.node_spans
            run.node_spans = []
            self.all_spans.extend(job_spans)
            run.layers = {**spans.layer_metrics(job_spans), **run.layers}
        return run

    def execute(self, seconds: float) -> None:
        self.one_job(self.wl.cycle[0], traced=False)  # warm-up, not reported
        start = time.perf_counter()
        cycle = 0
        while True:
            # a traced run alternates untraced and traced cycles
            traced = self.tracer is not None and cycle % 2 == 1
            for spec in self.wl.cycle:
                run = self.one_job(spec, traced)
                if run is not None:
                    run.cycle = cycle
                    self.jobs.append(run)
            cycle += 1
            if time.perf_counter() - start >= seconds and (self.tracer is None or cycle % 2 == 0):
                break

    # -- reduction --------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict[str, tuple[float, str]]:
        """Run figures; with ``scaled``, each job's times are first scaled to
        the nominal host speed by the reference loop timed around that job."""
        def t(r: JobRun, value):
            if value is None or not scaled:
                return value
            return value * REF_LOOP_NOMINAL_MS / r.host_ms

        measured = [r for r in self.jobs if not r.spec.probe]
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb = max([own_kb] + [r.node_hwm_kb for r in self.jobs])
        total_s = sum(t(r, r.job_s) for r in measured)
        return {
            "job_s": (cycle_median(measured, lambda r: t(r, r.job_s)), "s"),
            "iters_per_s": (sum(r.spec.n for r in measured) / total_s if total_s else 0.0, "1/s"),
            "migrate_ms": (cycle_median(self.jobs, lambda r: t(r, r.migrate_ms)), "ms"),
            "store_kb_per_job": (sum(r.store_bytes for r in measured) / 1000 / len(measured)
                                 if measured else 0.0, "KB"),
            "setup_s": (cycle_median(self.jobs, lambda r: t(r, r.setup_s)), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    def table_rows(self) -> list[str]:
        """The virtual-time row of the first job of each size (sim-table1)."""
        rows = {}
        for r in self.jobs:
            if r.table_row is not None and not r.spec.probe:
                rows.setdefault(r.spec.n, r.table_row)
        return [rows[n] for n in sorted(rows)]

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Medians over traced jobs, unscaled, plus the host and tracing figures."""
        traced = [r for r in self.jobs if r.traced and not r.spec.probe]
        plain = [r for r in self.jobs if not r.traced and not r.spec.probe]
        out = {name: (median([r.layers[name] for r in traced]), unit)
               for name, unit in spans.LAYER_UNITS.items()
               if name not in ("host.ref_loop_ms", "trace.overhead_pct")}
        out["host.ref_loop_ms"] = (median([r.host_ms for r in self.jobs]), "ms")
        traced_s = median([r.job_s for r in traced])
        plain_s = median([r.job_s for r in plain])
        out["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100 if plain_s else 0.0, "%")
        return out
