#!/usr/bin/env python3
"""Run one jobmig benchmark workload and print its metrics.

    python3 bench/run.py --workload sim-table1 --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: it imports jobmig from the checkout's
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones and writes the spans
to ``.bench_out/``. ``--seconds 1`` is a smoke run: a warm-up job and one
cycle. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sim-table1", "sim-quiet", "wall-s2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jobmig" / "__init__.py").is_file():
        print(f"error: no jobmig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobmig
    if Path(jobmig.__file__).resolve().parent != SRC / "jobmig":
        print(f"error: imported jobmig from {jobmig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    run_root = RUN_DIR / f"{args.workload}-{os.getpid()}"
    run = workloads.Run(args.workload, args.seed, run_root, tracer)
    try:
        run.execute(args.seconds)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    metrics = run.per_layer() if tracer is not None else run.end_to_end()
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} jobs attempted, "
          f"{run.failed} failed, checks {'passed' if run.correct else 'FAILED'}")
    for row in run.table_rows():
        print(row)
    raw = run.end_to_end(scaled=False) if tracer is None else {}
    host_ms = workloads.median([job.host_ms for job in run.jobs])
    print(f"  host reference loop {host_ms:.3f} ms (nominal {workloads.REF_LOOP_NOMINAL_MS} ms)")
    for name, (value, unit) in metrics.items():
        unscaled = f"  (unscaled {raw[name][0]:.4f})" if name in raw else ""
        print(f"  {name:34s} {value:14.4f} {unit}{unscaled}")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"jobs-{tag}.jsonl", "w") as fh:
        for job in run.jobs:
            fh.write(json.dumps(job.summary()) + "\n")
    if tracer is not None:
        path = OUT_DIR / f"spans-{tag}.jsonl.gz"
        spans.write_jsonl(run.all_spans, path, os.getpid())
        print(f"  spans: {len(run.all_spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
