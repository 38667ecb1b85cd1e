"""Metamorphic relations of the output contract.

Every command prints the same bytes for the same instance, whatever
order its rows were read in: relations are sets, and printed rows and
mined queries are sorted.  These tests run each command on two data
directories that hold one instance and compare the transcripts (exit
code, stdout and stderr of each command, and the rules ``mine --csv``
writes) byte for byte:

* row order: every CSV file's data rows shuffled, header kept;
* round trip: the instance ``load_instance_dir`` reads from one
  directory, written to another by ``save_instance_dir``.

Three more relations run ``mine`` on the fixture instance with each
fixture bias, pruned and with ``--no-prune``:

* duplicate items: a bias that names every item twice prints the same
  stdout and ``--csv`` bytes as the bias itself;
* level prefix: a ``--max-level`` one below the bias's conjunct limit
  prints the full run's level lines up to that level, the full run's
  frequent queries up to the number those lines count, and a prefix of
  its rules and of its ``--csv`` rows;
* item order: the fixture biases and the mining pools of strategies.py,
  their items reversed or shuffled, find the same frequent queries and
  rules, keyed by their items' sorted canonical texts, with the same
  frequencies, supports and confidences.  Printed conjunct order and
  rule order follow item order, so keys are compared, not lines.

The instances are small TV survey instances from strategies.py, mined
with a bias drawn from its pools, and instances of perfbench/gen.py,
mined with the mine-data bias.  A set of two or three rows seldom
iterates in another order when its rows are inserted in another order,
so on the small instances the copy's commands run in a child
interpreter under another ``PYTHONHASHSEED``, which lays out every set
of strings anew.
"""

import csv
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

import strategies
from cli_runs import run_commands
from conftest import TV_DIR
from ermine import load_bias, load_instance_dir, mine_frequent, save_instance_dir
from ermine.mining import kept_splits
from test_bitsets import load_generator

SCHEMA = str(TV_DIR / "schema.json")
DATA = str(TV_DIR / "data")
QUERIES = str(TV_DIR / "queries.erq")
CLI_RUNS = os.path.join(os.path.dirname(__file__), "cli_runs.py")
SRC = str(TV_DIR.parent.parent / "src")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Inline queries beside the fixture's F1, F2 (over P) and G1, G2 (over
# P, SN): whole tables, and rows that mix strings and integers.
PROGRAMS = "q(P) := TV-Program(P)"
STATIONS = "q(SN, A) := TV-Station(SN, A)"
WEEKEND = "q(P, SN, V, S) := WeekendTV(P, SN, V, S)"
LISTINGS = "q(P, SN, V) := EXISTS S. WeekdayTV(P, SN, V, S)"
SPONSORED = 'q(P) := EXISTS SN. EXISTS V. WeekendTV(P, SN, V, "RBC")'

# The mine-data bias of perfbench/workloads.py: both listing tables under
# four conditions.
MINE_DATA_BIAS = {
    "head": ["P"],
    "items": [
        f"{t}(P, SN, V, S) AND {c}"
        for t in ("WeekdayTV", "WeekendTV")
        for c in ("V >= 5", "V >= 10", "V >= 15", 'S = "RBC"')
    ],
    "max_conjuncts": 3,
    "allow_negation": True,
}


def commands(bias, min_support, rules_csv):
    """Every command as (options before it, its arguments)."""
    mine = ["mine", "--bias", bias, "--min-support", min_support, "--min-confidence", "1/2"]
    return [
        *(([], c) for c in (
            ["validate"],
            *(["check", q] for q in ("F1", "G1", SPONSORED)),
            *(["eval", q] for q in (
                "F1", "F2", "G1", "G2", PROGRAMS, STATIONS, WEEKEND, LISTINGS, SPONSORED
            )),
            *(["domain", q] for q in ("F1", "G1", STATIONS)),
            ["domain", "G2", "--vars", "SN"],
            *(["freq", q] for q in ("F1", "G1", SPONSORED)),
            ["rule", "F1", "F2"],
            ["rule", "G1", "G2"],
            [*mine, "--csv", rules_csv],
            [*mine, "--no-prune"],
        )),
        (["--log-level", "debug"], mine),
    ]


def run_commands_in_child(argvs, hash_seed):
    """``run_commands`` in a fresh interpreter under ``PYTHONHASHSEED``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, CLI_RUNS],
        input=json.dumps(argvs), env=env, capture_output=True, text=True, check=True,
    )
    return [tuple(result) for result in json.loads(done.stdout)]


def transcript(data, bias, min_support, hash_seed=None):
    """The command, exit code, stdout and stderr of every command on
    ``data``, then the rules CSV that ``mine --csv`` wrote.  With a
    ``hash_seed``, the commands run in a child interpreter under it."""
    with tempfile.TemporaryDirectory() as tmp:
        rules_csv = os.path.join(tmp, "rules.csv")
        files = ["--schema", SCHEMA, "--data", data, "--queries", QUERIES]
        lines = commands(bias, min_support, rules_csv)
        argvs = [[*options, *files, *argv] for options, argv in lines]
        if hash_seed is None:
            results = run_commands(argvs)
        else:
            results = run_commands_in_child(argvs, hash_seed)
        with open(rules_csv, encoding="utf-8") as fh:
            rules = fh.read()
    return [*((argv[0], *result) for (_, argv), result in zip(lines, results)), rules]


def read_rows(directory):
    """Each CSV file's header and data rows, by file name."""
    tables = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        tables[name] = header, rows
    return tables


def write_rows(tables, directory):
    os.makedirs(directory)
    for name, (header, rows) in tables.items():
        with open(os.path.join(directory, name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


def shuffled_copy(source, target, order):
    """Copy ``source``'s CSV files to ``target`` with each file's data
    rows shuffled by the seed ``order``, header first."""
    tables = read_rows(source)
    rnd = random.Random(order)
    for _, rows in tables.values():
        rnd.shuffle(rows)
    write_rows(tables, target)


def round_trip_copy(source, target):
    save_instance_dir(load_instance_dir(strategies.TV_SCHEMA, source), target)


def write_instance(inst, directory):
    """Write ``inst`` as CSV files, each table's rows in the order its
    relation iterates."""
    tables = {
        f"{t.name}.csv": ([f.name for f in t.fields], list(inst.relations[t.name]))
        for t in inst.schema.tables
    }
    write_rows(tables, directory)


def write_generated(seed, order, directory):
    """Write the generator's instance of ``seed`` at 30 programs and 5
    stations, each table's rows shuffled by the seed ``order``: the
    generator writes them in the order ``save_instance_dir`` does."""
    gen = load_generator()
    tables = gen.generate(seed, 30, 5)
    rnd = random.Random(order)
    for rows in tables.values():
        rnd.shuffle(rows)
    gen.write_csvs(tables, directory)


@st.composite
def bias_documents(draw):
    """A bias document with negation on over a 1- or 2-variable head, its
    items drawn from that head's pool in strategies.MINING_POOLS."""
    head = draw(st.sampled_from(sorted(strategies.MINING_POOLS)))
    pool = st.sampled_from(strategies.MINING_POOLS[head])
    patterns = draw(st.lists(pool, min_size=2, max_size=4, unique=True))
    return {
        "head": list(head),
        "items": [{"pattern": p, "negatable": draw(st.booleans())} for p in patterns],
        "max_conjuncts": draw(st.integers(2, 3)),
        "allow_negation": True,
    }


def assert_same_transcripts(write_original, copy, bias, min_support, hash_seed=None):
    """Write the original data, copy it with ``copy``, and compare every
    command's transcript on the two directories; the copy's commands run
    under ``hash_seed`` if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        original, copied = os.path.join(tmp, "original"), os.path.join(tmp, "copied")
        bias_path = os.path.join(tmp, "bias.json")
        with open(bias_path, "w", encoding="utf-8") as fh:
            json.dump(bias, fh)
        write_original(original)
        copy(original, copied)
        expected = transcript(original, bias_path, min_support)
        assert transcript(copied, bias_path, min_support, hash_seed) == expected
    return expected


# Seeds of row orders, and of string hashes (PYTHONHASHSEED's range).
ORDERS = st.integers(0, 2**32 - 1)


@SETTINGS
@given(strategies.tv_instances(), bias_documents(), ORDERS, ORDERS)
def test_row_order_leaves_every_output_alone(inst, bias, order, hash_seed):
    assert_same_transcripts(
        lambda d: write_instance(inst, d),
        lambda src, dst: shuffled_copy(src, dst, order),
        bias,
        "1/4",
        hash_seed,
    )


@SETTINGS
@given(strategies.tv_instances(), bias_documents(), ORDERS)
def test_a_saved_instance_loads_to_the_same_outputs(inst, bias, hash_seed):
    assert_same_transcripts(
        lambda d: write_instance(inst, d), round_trip_copy, bias, "1/4", hash_seed
    )


@settings(SETTINGS, max_examples=10)
@given(st.integers(0, 2**16), ORDERS, ORDERS)
def test_row_order_leaves_generated_outputs_alone(seed, order, reorder):
    expected = assert_same_transcripts(
        lambda d: write_generated(seed, order, d),
        lambda src, dst: shuffled_copy(src, dst, reorder),
        MINE_DATA_BIAS,
        "1/10",
    )
    assert "level 3:" in expected[-2][2]


@settings(SETTINGS, max_examples=10)
@given(st.integers(0, 2**16), ORDERS)
def test_a_saved_generated_instance_loads_to_the_same_outputs(seed, order):
    assert_same_transcripts(
        lambda d: write_generated(seed, order, d), round_trip_copy, MINE_DATA_BIAS, "1/10"
    )


FIXTURE_BIASES = ("bias_programs", "bias_pairs", "bias_mixed", "bias_cover")
PRUNING = ([], ["--no-prune"])


def mine_outputs(bias_path, options, rules_csv):
    """The exit code, stdout and stderr of ``mine`` on the fixture
    instance, then the rules CSV it wrote."""
    argv = [
        "--schema", SCHEMA, "--data", DATA, "mine", "--bias", bias_path,
        "--min-support", "1/10", "--min-confidence", "1/2", "--csv", rules_csv,
        *options,
    ]
    [result] = run_commands([argv])
    with open(rules_csv, encoding="utf-8") as fh:
        return (*result, fh.read())


def mine_sections(stdout):
    """The level lines, frequent query lines and rule lines that ``mine``
    printed, the "(none)" of an empty section left out."""
    levels, queries, rules = sections = [], [], []
    current = levels
    for line in stdout.splitlines():
        if line.startswith("frequent queries "):
            current = queries
        elif line.startswith("rules "):
            current = rules
        elif line != "  (none)":
            current.append(line)
    return sections


@pytest.mark.parametrize("options", PRUNING, ids=["pruned", "no-prune"])
@pytest.mark.parametrize("name", FIXTURE_BIASES)
def test_a_bias_naming_each_item_twice_mines_the_same_output(name, options, tmp_path):
    original = TV_DIR / f"{name}.json"
    with open(original, encoding="utf-8") as fh:
        bias = json.load(fh)
    bias["items"] = [item for item in bias["items"] for _ in (0, 1)]
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(bias), encoding="utf-8")
    expected = mine_outputs(str(original), options, str(tmp_path / "a.csv"))
    assert mine_outputs(str(doubled), options, str(tmp_path / "b.csv")) == expected
    assert mine_sections(expected[1])[1]


@pytest.mark.parametrize("options", PRUNING, ids=["pruned", "no-prune"])
@pytest.mark.parametrize("name", FIXTURE_BIASES)
def test_a_lower_max_level_prints_a_prefix_of_the_full_run(name, options, tmp_path):
    bias = TV_DIR / f"{name}.json"
    with open(bias, encoding="utf-8") as fh:
        level = json.load(fh)["max_conjuncts"] - 1
    full = mine_outputs(str(bias), options, str(tmp_path / "full.csv"))
    cut = mine_outputs(
        str(bias), [*options, "--max-level", str(level)], str(tmp_path / "cut.csv")
    )
    assert full[0] == cut[0] == 0
    levels, queries, rules = mine_sections(full[1])
    cut_levels, cut_queries, cut_rules = mine_sections(cut[1])
    assert len(levels) == level + 1
    assert cut_levels == levels[:level]
    # "level k: N candidates, M frequent"
    kept = sum(int(line.split()[-2]) for line in cut_levels)
    assert cut_queries == queries[:kept]
    assert len(cut_rules) < len(rules)
    assert cut_rules == rules[: len(cut_rules)]
    cut_csv = cut[3].splitlines()
    assert cut_csv == full[3].splitlines()[: len(cut_csv)]


def item_orders(items):
    """The items reversed and in two shuffled orders."""
    orders = [items[::-1]]
    for seed in (1, 2):
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    return orders


def mined_by_key(inst, bias, prune):
    """The frequent queries and kept rules of ``bias`` at support 1/10 and
    confidence 1/2, keyed apart from item order.  A query's key is its
    candidate's canonical text, its items' canonical texts sorted; a
    rule's is the sorted canonical texts of its antecedent's and of its
    consequent's items.  Queries carry their answer count and domain
    size, rules their support and confidence."""
    result = mine_frequent(inst, bias, Fraction(1, 10), prune=prune)
    queries = sorted(
        (fq.candidate.canonical, fq.frequency.numerator, fq.frequency.denominator)
        for fq in result.frequent
    )
    rules = sorted(
        (
            " AND ".join(sorted(item.canonical for item in antecedent.items)),
            " AND ".join(sorted(item.canonical for item in consequent.items)),
            fq.frequency.value,
            Fraction(fq.frequency.numerator, count),
        )
        for fq, antecedent, consequent, count in kept_splits(result.frequent, Fraction(1, 2))
    )
    return queries, rules


def bias_document(name):
    """A fixture bias document, or a ``strategies.MINING_POOLS`` pool at
    three conjuncts with negation."""
    if name in FIXTURE_BIASES:
        with open(TV_DIR / f"{name}.json", encoding="utf-8") as fh:
            return json.load(fh)
    head = tuple(name.removeprefix("pool-").split("-"))
    return {
        "head": list(head),
        "items": list(strategies.MINING_POOLS[head]),
        "max_conjuncts": 3,
        "allow_negation": True,
    }


POOL_NAMES = tuple("pool-" + "-".join(head) for head in sorted(strategies.MINING_POOLS))


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "no-prune"])
@pytest.mark.parametrize("name", FIXTURE_BIASES + POOL_NAMES)
def test_the_order_of_bias_items_changes_nothing_found(name, prune, tv_schema, tv):
    # Printed conjunct order and rule order follow item order, so what is
    # compared is keyed by sorted canonical texts, not printed lines.
    doc = bias_document(name)
    expected = mined_by_key(tv, load_bias(doc, tv_schema), prune)
    assert expected[0] and expected[1]
    for items in item_orders(doc["items"]):
        permuted = load_bias({**doc, "items": items}, tv_schema)
        assert mined_by_key(tv, permuted, prune) == expected
