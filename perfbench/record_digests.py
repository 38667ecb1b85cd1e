"""Record the output digests that run.py checks against.

    python3 perfbench/record_digests.py --workload mine-data

Run this on the commit whose answers are the reference, from the root of
its checkout; it rewrites that workload's entry in ``digests.json``.

* ``mine-data`` and ``mine-pool``: the digest of ``ermine mine``'s stdout
  for each of the workload's ``variants`` generated instances.
* ``query-mix``: for seeds ``0 .. QUERY_SEEDS - 1``, the digest of the
  stdout of the first cycle of queries.  run.py checks query outputs
  against the oracle instead; the test suite checks that the oracle
  reproduces these digests.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil

import run
import workloads

QUERY_SEEDS = 32


def record_mining(cli, workload, data_dir) -> dict:
    out = {}
    for variant in range(workload.variants):
        workload.prepare_variants(run.ROOT, data_dir, [variant])
        op = next(workload.ops())
        code, text = workloads.run_op(cli, None, op)
        if code != 0:
            raise SystemExit(f"{workload.name} variant {variant}: exit code {code}")
        out[str(variant)] = workloads.digest(text)
        print(workload.name, variant, out[str(variant)][:12], flush=True)
        shutil.rmtree(data_dir, ignore_errors=True)
    return out


def query_prefix_digest(cli, workload, seed: int, data_dir) -> str:
    """Digest of the stdout of the first cycle of ops for one seed."""
    workload.prepare(run.ROOT, data_dir, seed)
    session = workload.setup(cli)
    texts = []
    for op in itertools.islice(workload.ops(), workload.cycle):
        code, text = workloads.run_op(cli, session, op)
        if code != 0:
            raise SystemExit(f"query-mix seed {seed}: {op.kind} exited {code}")
        texts.append(text)
    return workloads.digest("".join(texts))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record reference output digests")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ns = ap.parse_args(argv)
    cli = run.load_cli()
    workload = workloads.WORKLOADS[ns.workload]
    data_dir = os.path.join(run.ROOT, ".perfbench_data", f"record-{ns.workload}-{os.getpid()}")
    try:
        if ns.workload == "query-mix":
            entry = {}
            for seed in range(QUERY_SEEDS):
                entry[str(seed)] = query_prefix_digest(cli, workload, seed, data_dir)
                print(ns.workload, seed, entry[str(seed)][:12], flush=True)
        else:
            entry = record_mining(cli, workload, data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    digests = workloads.load_digests()
    digests[ns.workload] = entry
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
