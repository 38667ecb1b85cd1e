"""The benchmark's workloads: their inputs, operations and expected outputs.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  An operation calls the
program's public CLI functions in-process with stdout captured, and its
output is checked after the timed loop.

* ``mine-data`` and ``mine-pool`` repeat ``ermine mine`` commands through
  ``cli.main``.  A seed picks its instances from a fixed numbered set of
  ``variants``, so that every output can be checked against the digest
  recorded from commit f9e2c83 in ``digests.json``.
* ``query-mix`` loads a session once and then runs a seeded stream of
  distinct ad-hoc queries through ``run_eval``, ``run_freq``, ``run_rule``
  and ``run_check``.  The stream is unbounded, so each output is checked
  against :class:`Oracle`, a plain-Python evaluation of the six query
  templates over the generated rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import gen

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One operation: ``kind`` names the CLI command and ``args`` are its
    arguments; ``queries`` are the template queries behind a query op and
    ``variant`` is the generated instance a mine op reads."""

    kind: str
    args: tuple
    queries: tuple = ()
    variant: int | None = None


def run_op(cli, session, op: Op) -> tuple[int, str]:
    """Run one operation; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            if op.kind == "mine":
                code = cli.main(list(op.args))
            else:
                code = getattr(cli, f"run_{op.kind}")(session, *op.args)
        except cli.ErmineError as exc:
            print(f"error: {exc}")
            code = 1
    return code, out.getvalue()


# -- mining workloads -------------------------------------------------------

def _mining_bias(head, items, max_conjuncts):
    return {
        "head": list(head),
        "items": [f"{t}(P, SN, V, S) AND {cond}" for t in gen.LISTING_TABLES for cond in items],
        "max_conjuncts": max_conjuncts,
        "allow_negation": True,
    }


@dataclass
class MineWorkload:
    """One ``ermine mine`` command per op, over ``instances`` instances in turn.

    Instance ``v`` is the data ``gen.generate(v, programs, stations)``, for
    ``v`` below ``variants``; a seed draws ``instances`` distinct ones.  With
    more than one, a run averages over instances and depends less on how
    one seed's random values fall.
    """

    name: str
    programs: int
    stations: int
    bias: dict
    min_support: str
    min_confidence: str
    instances: int = 1
    variants: int = 64

    @property
    def cycle(self) -> int:
        return self.instances

    def prepare(self, root: str, data_dir: str, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.prepare_variants(root, data_dir, rng.sample(range(self.variants), self.instances))

    def prepare_variants(self, root: str, data_dir: str, variants: list) -> None:
        self.schema = os.path.join(root, "fixtures", "tv_survey", "schema.json")
        self.bias_path = os.path.join(data_dir, "bias.json")
        self.chosen = list(variants)
        self.data = [os.path.join(data_dir, f"v{v}") for v in self.chosen]
        for variant, path in zip(self.chosen, self.data):
            gen.write_csvs(gen.generate(variant, self.programs, self.stations), path)
        with open(self.bias_path, "w", encoding="utf-8") as fh:
            json.dump(self.bias, fh)
        recorded = load_digests().get(self.name, {})
        self.expected = {v: recorded.get(str(v)) for v in self.chosen}

    def setup(self, cli):
        """Load the data and parse the bias, as the mine command does."""
        ns = cli.build_arg_parser().parse_args(self.argv(self.data[0]))
        session = cli.load_session(ns)
        cli.load_bias_file(self.bias_path, session.schema)
        return session

    def argv(self, data: str) -> list[str]:
        return [
            "--schema", self.schema, "--data", data, "mine",
            "--bias", self.bias_path,
            "--min-support", self.min_support,
            "--min-confidence", self.min_confidence,
        ]

    def ops(self):
        for variant, data in itertools.cycle(zip(self.chosen, self.data)):
            yield Op("mine", tuple(self.argv(data)), variant=variant)

    def expected_digests(self, ops):
        """Recorded digest for each op; None where none is recorded."""
        return [self.expected[op.variant] for op in ops]


# -- query-mix --------------------------------------------------------------

TEMPLATES = ("range", "point", "join", "anti", "union", "entity")

# One cycle of operations: (kind, template) slots, a rule's template being
# its (antecedent, consequent) pair.  The kinds take 40/30/15/15 percent.
# Every cycle has the same slots in a seeded order, so runs that stop at a
# cycle boundary do the same mix of work whatever the seed.
CYCLE_SLOTS = (
    *(("eval", t) for t in TEMPLATES + ("range", "point")),
    *(("freq", t) for t in TEMPLATES),
    ("rule", ("range", "join")), ("rule", ("anti", "union")), ("rule", ("union", "anti")),
    ("check", "point"), ("check", "anti"), ("check", "union"),
)
CYCLE = len(CYCLE_SLOTS)

_LISTING = "EXISTS SN. EXISTS V. EXISTS S. {t}(P, SN, V, S)"
_LISTING2 = "EXISTS SN2. EXISTS V2. EXISTS S2. {t}(P, SN2, V2, S2)"


@dataclass(frozen=True)
class Query:
    """A query template instance; ``text`` is a fixed point of to_text."""

    template: str
    params: tuple
    name: str = "q"

    @property
    def head(self) -> tuple:
        return {"point": ("P", "SN"), "entity": ("SN",)}.get(self.template, ("P",))

    @property
    def text(self) -> str:
        p = self.params
        t = self.template
        if t == "range":
            table, lo, hi = p
            body = f"{_LISTING.format(t=table)} AND V >= {lo} AND V <= {hi}"
        elif t == "point":
            table, prog, station = p
            body = (f"EXISTS V. EXISTS S. {table}(P, SN, V, S) AND "
                    f'P = "{prog}" AND SN = "{station}"')
        elif t == "join":
            a, b = p
            body = (f"EXISTS SN. EXISTS V. EXISTS S. EXISTS SN2. EXISTS V2. EXISTS S2. "
                    f"WeekdayTV(P, SN, V, S) AND WeekendTV(P, SN2, V2, S2) AND "
                    f"V >= {a} AND V2 >= {b}")
        elif t == "anti":
            a, b = p
            body = (f"{_LISTING.format(t='WeekdayTV')} AND V >= {a} AND "
                    f"NOT ({_LISTING2.format(t='WeekendTV')} AND V2 >= {b})")
        elif t == "union":
            x, a, y, b = p
            body = (f'({_LISTING.format(t="WeekdayTV")} AND S = "{x}" AND V >= {a}) OR '
                    f'{_LISTING.format(t="WeekendTV")} AND S = "{y}" AND V >= {b}')
        elif t == "entity":
            lo, hi, station = p
            body = (f"EXISTS A. TV-Station(SN, A) AND A >= {lo} AND A <= {hi} "
                    f'AND SN != "{station}"')
        else:
            raise ValueError(f"unknown template {t!r}")
        return f"{self.name}({', '.join(self.head)}) := {body}"


class Oracle:
    """Expected CLI output for template queries, computed from raw rows.

    It mirrors the reference-domain rules of the README for these six
    shapes only: an atom without constants contributes the projection of
    its table, and the point lookup's equalities on P and SN add their
    constant pair.
    """

    def __init__(self, tables: dict):
        self.listings = {t: tables[t] for t in gen.LISTING_TABLES}
        self.stations = {s: area for s, area in tables["TV-Station"]}
        self.progs = {t: {r[0] for r in rows} for t, rows in self.listings.items()}
        self.pairs = {t: {(r[0], r[1]) for r in rows} for t, rows in self.listings.items()}

    def _ge(self, table, v):
        return {r[0] for r in self.listings[table] if r[2] >= v}

    def answers(self, q: Query) -> set:
        p = q.params
        if q.template == "range":
            table, lo, hi = p
            return {(r[0],) for r in self.listings[table] if lo <= r[2] <= hi}
        if q.template == "point":
            table, prog, station = p
            return {(prog, station)} & self.pairs[table]
        if q.template == "join":
            a, b = p
            return {(x,) for x in self._ge("WeekdayTV", a) & self._ge("WeekendTV", b)}
        if q.template == "anti":
            a, b = p
            return {(x,) for x in self._ge("WeekdayTV", a) - self._ge("WeekendTV", b)}
        if q.template == "union":
            x, a, y, b = p
            out = set()
            for table, sponsor, v in (("WeekdayTV", x, a), ("WeekendTV", y, b)):
                out |= {(r[0],) for r in self.listings[table] if r[3] == sponsor and r[2] >= v}
            return out
        if q.template == "entity":
            lo, hi, station = p
            return {(s,) for s, area in self.stations.items() if lo <= area <= hi and s != station}
        raise ValueError(q.template)

    def domain(self, q: Query) -> set:
        p = q.params
        if q.template == "range":
            return {(x,) for x in self.progs[p[0]]}
        if q.template == "point":
            table, prog, station = p
            return self.pairs[table] | {(prog, station)}
        if q.template == "entity":
            return {(s,) for s in self.stations}
        return {(x,) for x in self.progs["WeekdayTV"] | self.progs["WeekendTV"]}

    def output(self, op: Op) -> str:
        if op.kind == "eval":
            (q,) = op.queries
            rows = sorted(self.answers(q))
            return "".join(",".join(r) + "\n" for r in [q.head, *rows])
        if op.kind == "freq":
            (q,) = op.queries
            n, d = len(self.answers(q)), len(self.domain(q))
            return f"frequency: {_frequency(n, d)}\n"
        if op.kind == "rule":
            a, c = op.queries
            ans_a, ans_c = self.answers(a), self.answers(c)
            n, d = len(ans_a & ans_c), len(self.domain(a) | self.domain(c))
            conf = Fraction(n, len(ans_a))
            return (f"rule: {a.name} -> {c.name}\n"
                    f"support: {_frequency(n, d)}\n"
                    f"confidence: {conf} ({_decimal(conf)})\n")
        if op.kind == "check":
            (q,) = op.queries
            head = ", ".join(q.head)
            return (f"query: {q.text}\nsafety: PASS\n"
                    f"entity query: yes (entity variables: {', '.join(sorted(q.head))})\n"
                    f"valid for ({head}): yes\n")
        raise ValueError(op.kind)


def _decimal(value: Fraction) -> str:
    return f"{value.numerator / value.denominator:.6f}"


def _frequency(n: int, d: int) -> str:
    return f"{n}/{d} = {Fraction(n, d)} ({_decimal(Fraction(n, d))})"


@dataclass
class QueryMixWorkload:
    name: str
    programs: int
    stations: int
    cycle = CYCLE

    def prepare(self, root: str, data_dir: str, seed: int) -> None:
        self.seed = seed
        self.tables = gen.generate(seed, self.programs, self.stations)
        gen.write_csvs(self.tables, data_dir)
        self.schema = os.path.join(root, "fixtures", "tv_survey", "schema.json")
        self.data = data_dir

    def setup(self, cli):
        """Load the session once, as ``ermine repl`` does."""
        ns = cli.build_arg_parser().parse_args(
            ["--schema", self.schema, "--data", self.data, "repl"]
        )
        return cli.load_session(ns)

    def ops(self):
        """An endless seeded stream of distinct queries, cycle by cycle."""
        rng = random.Random(f"query-mix/{self.seed}")
        oracle = Oracle(self.tables)
        progs = [r[0] for r in self.tables["TV-Program"]]
        stations = sorted(oracle.stations)
        seen = set()
        while True:
            for kind, template in rng.sample(CYCLE_SLOTS, CYCLE):
                while True:
                    if kind == "rule":
                        a = _draw(rng, template[0], progs, stations, oracle, "a")
                        c = _draw(rng, template[1], progs, stations, oracle, "c")
                        # confidence needs a non-empty antecedent
                        op = Op(kind, (a.text, c.text), (a, c)) if oracle.answers(a) else None
                    else:
                        q = _draw(rng, template, progs, stations, oracle, "q")
                        op = Op(kind, (q.text,), (q,))
                    if op is not None and (kind, op.args) not in seen:
                        break
                seen.add((kind, op.args))
                yield op

    def expected_digests(self, ops):
        oracle = Oracle(self.tables)
        return [digest(oracle.output(op)) for op in ops]


def _draw(rng, template, progs, stations, oracle, name) -> Query:
    table = rng.choice(gen.LISTING_TABLES)
    if template == "range":
        lo = rng.randint(1, 20)
        params = (table, lo, lo + rng.randint(0, 15))
    elif template == "point":
        if rng.random() < 0.5:
            params = (table, *rng.choice(oracle.listings[table])[:2])
        else:
            params = (table, rng.choice(progs), rng.choice(stations))
    elif template in ("join", "anti"):
        params = (rng.randint(1, 25), rng.randint(1, 25))
    elif template == "union":
        params = (rng.choice(gen.SPONSORS), rng.randint(1, 25),
                  rng.choice(gen.SPONSORS), rng.randint(1, 25))
    else:
        lo = rng.randint(1, 9)
        params = (lo, rng.randint(lo, 9), rng.choice(stations))
    return Query(template, params, name)


WORKLOADS = {
    "mine-data": MineWorkload(
        "mine-data", programs=100, stations=20,
        bias=_mining_bias(("P",), ("V >= 5", "V >= 10", "V >= 15", 'S = "RBC"'), 3),
        min_support="1/10", min_confidence="1/2",
    ),
    "mine-pool": MineWorkload(
        "mine-pool", programs=12, stations=6,
        bias=_mining_bias(
            ("P", "SN"),
            ("V >= 3", "V >= 6", "V >= 10", "V >= 15", 'S = "RBC"', 'S = "Avon"'),
            2,
        ),
        min_support="1/5", min_confidence="1/2", instances=32, variants=256,
    ),
    "query-mix": QueryMixWorkload("query-mix", programs=5000, stations=50),
}

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests() -> dict:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
