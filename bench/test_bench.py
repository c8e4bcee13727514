"""Tests of the benchmark itself: its reference values, its span arithmetic,
and a smoke run of every workload.

    python3 -m pytest bench -q
"""

import gzip
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jobmig import harness, workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n,seed", [(1, 0), (7, 3), (300, 42), (1000, 2**62 + 5)])
def test_reference_digest_matches_an_uninterrupted_run(n, seed):
    task = workload.init_sort(n, seed)
    assert [v for v in task.state.fields[workload.FIELD_ARRAY]] == ref.job_input(n, seed)
    while not task.done:
        task.step()
    ordered, digest = ref.expected_output(n, seed)
    assert task.state.fields[workload.FIELD_ARRAY] == ordered
    assert task.digest() == digest


def test_cost_model_fit_reproduces_table1():
    model = ref.fit_table1()
    assert float(model.c) == pytest.approx(111.974, abs=1e-3)
    assert float(model.s) == pytest.approx(1.1656, abs=1e-4)
    for n, s1, s2, k, src, tgt, ovh in ref.TABLE1:
        source, target, overhead, total = model.scenario2(n, k)
        assert abs(overhead - ovh) <= Fraction(ovh, 10)
        assert total < model.scenario1(n)
        assert abs(total - s2) <= Fraction(s2, 20)


def test_job_seeds_are_a_function_of_the_run_seed():
    assert [ref.job_seed(5, i) for i in range(4)] == [ref.job_seed(5, i) for i in range(4)]
    assert len({ref.job_seed(s, i) for s in range(3) for i in range(50)}) == 150


def test_sorted_prefix_check_rejects_broken_states():
    data = ref.job_input(50, 9)
    ordered = sorted(data)
    arr = list(data)
    for it in range(50):  # a selection sort's states are all accepted
        ref.check_sorted_prefix(it, arr, ordered)
        j = arr.index(min(arr[it:]), it)
        arr[it], arr[j] = arr[j], arr[it]
    ref.check_sorted_prefix(50, arr, ordered)
    with pytest.raises(ValueError, match="permutation"):
        ref.check_sorted_prefix(10, arr[:-1] + [arr[-1] + 1], ordered)
    with pytest.raises(ValueError, match="not sorted"):
        ref.check_sorted_prefix(10, [arr[1], arr[0]] + arr[2:], ordered)
    with pytest.raises(ValueError, match="exceeds"):
        ref.check_sorted_prefix(3, arr[:2] + [arr[-1]] + arr[3:-1] + [arr[2]], ordered)


def test_layer_metrics_self_time_and_bytes():
    run = spans.Span("node.run_iteration", 0, 10_000_000, None, "j")
    step = spans.Span("workload.step", 1_000_000, 4_000_000, run, "j")
    append = spans.Span("checkpoint.store_append", 5_000_000, 9_000_000, run, "j", tag="incr")
    enc = spans.Span("checkpoint.encode", 6_000_000, 7_000_000, append, "j", nbytes=2000)
    out = spans.layer_metrics([run, step, append, enc])
    assert out["node.run_iteration.self_ms"] == pytest.approx(3.0)
    assert out["workload.step.ms"] == pytest.approx(3.0)
    assert out["checkpoint.store_append.kb"] == pytest.approx(2.0)
    assert out["checkpoint.incr_kb_per_record"] == pytest.approx(2.0)
    assert out["checkpoint.full_kb_per_record"] == 0.0


def target_attr(mod, cls, attr):
    if cls is None:
        return getattr(workloads.MODULES[mod], attr)
    return getattr(workloads.MODULES[mod], cls).__dict__[attr]


def test_tracer_restores_the_program(tmp_path):
    before = {t[:3]: target_attr(*t[:3]) for t in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install(workloads.MODULES)
    harness.run_scenario2(300, 1, migrate_at=150, workdir=tmp_path, include_scenario1=False)
    tracer.uninstall()
    names = {sp.name for sp in tracer.spans}
    assert {"workload.step", "checkpoint.capture", "control.migrate", "node.resume"} <= names
    for target, orig in before.items():
        assert target_attr(*target) is orig
    path = tmp_path / "spans.jsonl"
    spans.write_jsonl(tracer.spans, path, 1)
    back = spans.read_jsonl(path)
    assert spans.layer_metrics(back) == spans.layer_metrics(tracer.spans)
    spans.write_jsonl(tracer.spans, tmp_path / "spans.jsonl.gz", 1)
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt") as fh:
        assert fh.read() == path.read_text()


def test_benchmark_json_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "sim-table1", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
