"""Benchmark runner for ermine.

    python3 perfbench/run.py --workload mine-data --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
the seed under ``.perfbench_data/``, imports ``ermine`` from ``src/``,
runs one closed-loop client for about ``--seconds`` seconds and checks
every output.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Times are scaled to a reference host speed by
``refclock``.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import refclock
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
LATENCY_KINDS = ("eval", "freq", "rule", "check")

# Set-up is repeated until both floors are met, before and again after the
# timed loop, and the median of its scaled times is taken.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 200


@dataclass
class Record:
    op: workloads.Op
    seconds: float  # wall time, scaled to the reference host speed
    code: int
    digest: str


def load_cli():
    """Import the checkout's ermine CLI module, or exit with an error."""
    src = os.path.join(ROOT, "src")
    missing = [p for p in (os.path.join(src, "ermine", "cli.py"),
                           os.path.join(ROOT, "fixtures", "tv_survey", "schema.json"))
               if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: not a checkout of ermine, missing {', '.join(missing)}")
    sys.path.insert(0, src)
    from ermine import cli
    return cli


def timed_setup(meter, workload, cli, times: list):
    """Repeat the set-up, adding each one's scaled time to ``times``;
    returns the last session."""
    session = None
    reps = 0
    started = time.perf_counter()
    while (reps < SETUP_MIN_REPS
           or time.perf_counter() - started < SETUP_MIN_SECONDS) \
            and reps < SETUP_MAX_REPS:
        session = None  # so that peak RSS never holds two sessions
        session, wall, ref = meter.time(workload.setup, cli)
        times.append(refclock.scaled(wall, ref))
        reps += 1
    return session


def run_ops(meter, cli, session, ops, seconds: float, cycle: int) -> list[Record]:
    """Closed loop: run ops until ``seconds`` have passed at a cycle boundary."""
    records = []
    started = time.perf_counter()
    for op in ops:
        records.append(run_one(meter, cli, session, op))
        if len(records) % cycle == 0 and time.perf_counter() - started >= seconds:
            break
    return records


def count_failed(records, expected) -> int:
    return sum(r.code != 0 or e is None or r.digest != e for r, e in zip(records, expected))


def untraced_run(cli, workload, seconds: float) -> dict:
    """Set-ups, the timed loop, then set-ups again.

    Set-up is timed at both ends of the run, so that its median covers the
    host's speed over the whole run.  Peak RSS is read before the second
    round, which holds one session at a time like the first.
    """
    meter = refclock.Meter()
    setup_times = []
    session = timed_setup(meter, workload, cli, setup_times)
    records = run_ops(meter, cli, session, workload.ops(), seconds, workload.cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session = None
    timed_setup(meter, workload, cli, setup_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(r.seconds for r in records) * 1000,
        "ops_per_s": len(records) / sum(r.seconds for r in records),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = count_failed(records, workload.expected_digests([r.op for r in records]))
    return result(records, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced_run(cli, workload, seconds: float) -> dict:
    """An untraced pass, then the same ops again under tracing."""
    with tracing.Tracer() as setup_tracer:
        session = workload.setup(cli)
    meter = refclock.Meter(period=None)
    plain = run_ops(meter, cli, session, workload.ops(), seconds / 2, workload.cycle)
    ops_tracer = tracing.Tracer()
    with ops_tracer:
        traced = [run_one(meter, cli, session, r.op) for r in plain]
    expected = workload.expected_digests([r.op for r in plain])
    failed = count_failed(plain, expected) + count_failed(traced, [r.digest for r in plain])
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1
    metrics = tracing.layer_metrics(setup_tracer, ops_tracer, len(plain))
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics.update(latency_metrics(plain))
    return result(plain + traced, failed, metrics)


def run_one(meter, cli, session, op) -> Record:
    (code, out), wall, ref = meter.time(workloads.run_op, cli, session, op)
    return Record(op, refclock.scaled(wall, ref), code, workloads.digest(out))


def latency_metrics(records) -> dict:
    """Tail and per-kind latencies of the query ops, 0 where there are none."""
    by_kind = {k: [r.seconds * 1000 for r in records if r.op.kind == k] for k in LATENCY_KINDS}
    queries = [t for ts in by_kind.values() for t in ts]
    out = {"query_p95_ms": (statistics.quantiles(queries, n=20)[-1]
                            if len(queries) > 1 else 0.0, "ms")}
    for kind, ts in by_kind.items():
        out[f"{kind}_p50_ms"] = (statistics.median(ts) if ts else 0.0, "ms")
    return out


def result(records, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ermine benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    cli = load_cli()
    workload = workloads.WORKLOADS[ns.workload]
    data_dir = os.path.join(ROOT, ".perfbench_data", f"{ns.workload}-{ns.seed}-{os.getpid()}")
    try:
        workload.prepare(ROOT, data_dir, ns.seed)
        run = traced_run if ns.trace else untraced_run
        out = run(cli, workload, ns.seconds)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    for name, m in out["metrics"].items():
        print(f"{ns.workload} seed {ns.seed}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{ns.workload} seed {ns.seed}: error_rate = "
          f"{out['failed'] / out['attempted']:.6g} ({out['failed']}/{out['attempted']} ops)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
