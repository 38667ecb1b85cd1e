"""Deterministic generator of TV-survey-shaped data.

Writes one CSV per table of ``fixtures/tv_survey/schema.json``:
``TV-Program``, ``TV-Station``, ``WeekdayTV`` and ``WeekendTV``.  The same
seed and sizes give byte-identical files.  Only the standard library is
used, so the benchmark downloads nothing.

    python3 perfbench/gen.py --out DIR --seed 7 --programs 100 --stations 20

Every program gets ``listings`` listings in each listing table, on
distinct stations drawn at random.  The viewer counts of a table are the
quantiles of an exponential distribution with mean ``VIEWER_MEAN`` and its
sponsors follow ``SPONSOR_WEIGHTS``, both shuffled over the listings.  So
the seed decides which program and station get which value, while row
counts and value distributions are the same for every seed, and timings
of different seeds stay comparable.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random

SPONSORS = ("RBC", "Avon", "Schwab", "La Senza", "Telus", "Bell", "Molson")
SPONSOR_WEIGHTS = (3, 3, 2, 2, 2, 1, 1)
VIEWER_MEAN = 6
LISTING_TABLES = ("WeekdayTV", "WeekendTV")
LISTING_HEADER = ("TV-Program", "TV-Station", "Viewers", "Sponsor")


def _viewer_quantiles(n: int) -> list[int]:
    return [1 + int(-VIEWER_MEAN * math.log(1 - (i + 0.5) / n)) for i in range(n)]


def _sponsor_shares(n: int) -> list[str]:
    total = sum(SPONSOR_WEIGHTS)
    out = []
    for sponsor, weight in zip(SPONSORS, SPONSOR_WEIGHTS):
        out += [sponsor] * round(n * weight / total)
    return (out + [SPONSORS[0]] * n)[:n]


def generate(seed: int, programs: int, stations: int, listings: int = 3) -> dict:
    """Rows per table name, in a fixed order, for the given seed and sizes."""
    if programs < 1 or stations < 1 or listings < 1:
        raise ValueError("programs, stations and listings must be positive")
    rng = random.Random(seed)
    progs = [f"P{i:05d}" for i in range(programs)]
    stns = [f"S{j:03d}" for j in range(stations)]
    tables = {
        "TV-Program": [(p,) for p in progs],
        "TV-Station": [(s, rng.randint(1, 9)) for s in stns],
    }
    for table in LISTING_TABLES:
        keys = [(p, s) for p in progs for s in sorted(rng.sample(stns, min(listings, stations)))]
        viewers = _viewer_quantiles(len(keys))
        sponsors = _sponsor_shares(len(keys))
        rng.shuffle(viewers)
        rng.shuffle(sponsors)
        tables[table] = [(p, s, v, sp) for (p, s), v, sp in zip(keys, viewers, sponsors)]
    return tables


def write_csvs(tables: dict, out_dir: str) -> None:
    headers = {
        "TV-Program": ("Prog-Name",),
        "TV-Station": ("Station-Name", "Area"),
        **{t: LISTING_HEADER for t in LISTING_TABLES},
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(headers[name])
            writer.writerows(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the CSV files")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--programs", type=int, default=100)
    ap.add_argument("--stations", type=int, default=20)
    ap.add_argument("--listings", type=int, default=3,
                    help="listings per program in each listing table")
    ns = ap.parse_args(argv)
    write_csvs(generate(ns.seed, ns.programs, ns.stations, ns.listings), ns.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
