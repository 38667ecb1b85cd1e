"""Tests of the benchmark itself: generator, digests, oracle, timing and tracing.

    python3 -m pytest perfbench -q

They run the program on small inputs and take about a minute.
"""

from __future__ import annotations

import filecmp
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import gen
import refclock
import run
import tracing
import workloads

cli = run.load_cli()
SCHEMA = os.path.join(run.ROOT, "fixtures", "tv_survey", "schema.json")


def _validate(data_dir) -> int:
    return cli.main(["--schema", SCHEMA, "--data", str(data_dir), "validate"])


def test_generator_is_deterministic_and_valid(tmp_path, capsys):
    for name in ("a", "b"):
        gen.main(["--out", str(tmp_path / name), "--seed", "7",
                  "--programs", "30", "--stations", "8"])
    gen.write_csvs(gen.generate(8, 30, 8), tmp_path / "c")
    files = sorted(os.listdir(tmp_path / "a"))
    assert files == ["TV-Program.csv", "TV-Station.csv", "WeekdayTV.csv", "WeekendTV.csv"]
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files,
                                               shallow=False)
    assert match == files and not mismatch and not errors
    assert not filecmp.cmp(tmp_path / "a" / "WeekdayTV.csv",
                           tmp_path / "c" / "WeekdayTV.csv", shallow=False)
    assert _validate(tmp_path / "a") == 0
    assert "instance: 218 rows" in capsys.readouterr().out  # 30 + 8 + 2 * 30 * 3


def test_generator_sizes_are_arguments():
    tables = gen.generate(1, programs=40, stations=5, listings=2)
    assert len(tables["TV-Program"]) == 40
    assert len(tables["TV-Station"]) == 5
    for table in gen.LISTING_TABLES:
        rows = tables[table]
        assert len(rows) == 80
        assert len({(r[0], r[1]) for r in rows}) == 80
    with pytest.raises(ValueError):
        gen.generate(1, programs=0, stations=5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_texts_are_fixed_points(tmp_path, seed):
    """The oracle's check output relies on to_text reproducing the text."""
    w = workloads.QueryMixWorkload("query-mix", programs=60, stations=6)
    w.prepare(run.ROOT, str(tmp_path), seed)
    session = w.setup(cli)
    for op in itertools.islice(w.ops(), 60):
        for q in op.queries:
            assert cli.parse_query(q.text, session.schema).text() == q.text


def test_query_stream_is_seeded_and_distinct(tmp_path):
    w = workloads.QueryMixWorkload("query-mix", programs=60, stations=6)
    w.prepare(run.ROOT, str(tmp_path / "a"), 5)
    first = [(op.kind, op.args) for op in itertools.islice(w.ops(), 200)]
    w.prepare(run.ROOT, str(tmp_path / "b"), 5)
    again = [(op.kind, op.args) for op in itertools.islice(w.ops(), 200)]
    assert first == again
    assert len(set(first)) == len(first)
    kinds = [kind for kind, _ in first]
    for start in (0, workloads.CYCLE):
        cycle = kinds[start:start + workloads.CYCLE]
        assert [cycle.count(k) for k in ("eval", "freq", "rule", "check")] == [8, 6, 3, 3]


def test_oracle_reproduces_recorded_query_digests(tmp_path):
    """Recorded digests of the first query cycle, for the first 8 seeds."""
    recorded = workloads.load_digests()["query-mix"]
    w = workloads.WORKLOADS["query-mix"]
    for seed, expected in sorted(recorded.items(), key=lambda kv: int(kv[0]))[:8]:
        w.prepare(run.ROOT, str(tmp_path / seed), int(seed))
        ops = list(itertools.islice(w.ops(), w.cycle))
        oracle = workloads.Oracle(w.tables)
        assert workloads.digest("".join(oracle.output(op) for op in ops)) == expected


def test_program_matches_recorded_query_digest(tmp_path):
    from record_digests import query_prefix_digest
    expected = workloads.load_digests()["query-mix"]["3"]
    w = workloads.QueryMixWorkload("query-mix", programs=5000, stations=50)
    assert query_prefix_digest(cli, w, 3, str(tmp_path)) == expected


def test_program_matches_recorded_mining_digests(tmp_path):
    w = workloads.WORKLOADS["mine-pool"]
    w.prepare(run.ROOT, str(tmp_path), 9)
    ops = list(itertools.islice(w.ops(), 2))
    outputs = [workloads.run_op(cli, None, op) for op in ops]
    assert [code for code, _ in outputs] == [0, 0]
    assert [workloads.digest(text) for _, text in outputs] == w.expected_digests(ops)
    assert None not in w.expected_digests(ops)


def test_recorded_digests_cover_every_variant():
    recorded = workloads.load_digests()
    for name in ("mine-data", "mine-pool"):
        variants = workloads.WORKLOADS[name].variants
        assert sorted(map(int, recorded[name])) == list(range(variants))


def test_wrong_output_counts_as_failed(tmp_path):
    w = workloads.QueryMixWorkload("query-mix", programs=60, stations=6)
    w.prepare(run.ROOT, str(tmp_path), 1)
    session = w.setup(cli)
    records = run.run_ops(refclock.Meter(), cli, session, w.ops(), 0, w.cycle)
    expected = w.expected_digests([r.op for r in records])
    assert run.count_failed(records, expected) == 0
    records[0].digest = workloads.digest("tampered")
    records[1].code = 1
    assert run.count_failed(records, expected) == 2
    assert run.count_failed(records[2:], [None] * len(records)) == len(records) - 2


def test_meter_scales_wall_time_by_the_reference_loop():
    meter = refclock.Meter(period=0.005)
    t0 = time.perf_counter()
    out, wall, ref = meter.time(sum, range(3_000_000))
    elapsed = time.perf_counter() - t0
    assert out == sum(range(3_000_000))
    # The handler ticked during the call, and its time is taken off.
    assert len(meter.samples) > 2 and meter._spent > 0
    assert wall < elapsed - meter._spent + 0.005
    assert ref == pytest.approx(statistics.fmean(meter.samples), rel=1e-9)
    assert refclock.scaled(2.0, refclock.REF_MS / 1000) == pytest.approx(2.0)
    assert refclock.scaled(2.0, 2 * refclock.REF_MS / 1000) == pytest.approx(1.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _declared(section) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    w = workloads.QueryMixWorkload("query-mix", programs=200, stations=10)
    w.prepare(run.ROOT, str(tmp_path), 2)
    out = run.untraced_run(cli, w, seconds=0)
    assert out["failed"] == 0 and out["correct"] and out["attempted"] == w.cycle
    assert {k: m["unit"] for k, m in out["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_equals_untraced_run(tmp_path):
    w = workloads.QueryMixWorkload("query-mix", programs=200, stations=10)
    w.prepare(run.ROOT, str(tmp_path), 4)
    out = run.traced_run(cli, w, seconds=0)
    assert out["failed"] == 0 and out["correct"]
    assert out["attempted"] == 2 * w.cycle
    assert {k: m["unit"] for k, m in out["metrics"].items()} == _declared("per_layer")
    metrics = {k: m["value"] for k, m in out["metrics"].items()}
    assert metrics["evaluator.calls"] > 0
    assert metrics["schema.rows_loaded"] == 200 + 10 + 2 * 200 * 3
    assert metrics["mining.candidates"] == 0
    assert all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_frac")


def test_tracer_counts_outermost_calls_and_restores_functions(tmp_path):
    import ermine.formulas
    import ermine.stats
    originals = (ermine.stats.evaluate, ermine.formulas.normalize, cli.run_mine)
    w = workloads.MineWorkload(
        "tiny", programs=6, stations=4,
        bias=workloads._mining_bias(("P",), ("V >= 5", 'S = "RBC"'), 2),
        min_support="1/10", min_confidence="1/2",
    )
    w.prepare(run.ROOT, str(tmp_path), 0)
    op = next(w.ops())
    _, plain = workloads.run_op(cli, None, op)
    with tracing.Tracer() as tracer:
        assert ermine.stats.evaluate is not originals[0]
        _, traced = workloads.run_op(cli, None, op)
    assert (ermine.stats.evaluate, ermine.formulas.normalize, cli.run_mine) == originals
    assert traced == plain
    metrics = {k: v for k, (v, _) in tracing.layer_metrics(tracer, tracer, 1).items()}
    # Level 1 has 8 signed items, and the 4 lone negations are unsafe.
    assert metrics["mining.drop.unsafe"] >= 4
    assert metrics["mining.candidates"] == sum(
        int(line.split()[2]) for line in plain.splitlines() if line.startswith("level"))
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.func for s in roots] == ["main"]
    # Self times partition the root span, less the wrappers' bookkeeping.
    assert 0.5 * roots[0].dur_ns < sum(s.self_ns for s in tracer.spans) <= roots[0].dur_ns


def test_benchmark_fails_outside_a_checkout(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh)["paths"] == ["perfbench"]
