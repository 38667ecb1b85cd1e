"""Metamorphic relations of ``evaluate`` at a size the naive oracle
cannot reach.

The instance is ``perfbench/gen.py``'s at 2,000 programs (seed 3, 20
stations).  Two relations hold without a second implementation:

* partitioning (ternary logic partitioning, Rigger & Su 2020): for a
  query Q shaped like the benchmark's query-mix templates and a condition
  p over Q's head, the answers of ``Q AND p`` and ``Q AND NOT p`` are
  disjoint and their union is Q's answers.  Each p is chosen to split
  each Q into two non-empty parts, so neither side holds vacuously;
* atom constants: ``T(..., c, ...)`` has the same answers as
  ``EXISTS V. T(..., V, ...) AND V = c``, and both are the rows of T
  holding c, read from the table rows directly.
"""

import pytest

import strategies
from ermine import evaluate, load_instance, parse_query
from ermine.formulas import format_constant
from test_bitsets import load_generator

LISTING = "EXISTS SN. EXISTS V. EXISTS S. {t}(P, SN, V, S)"
LISTING2 = "EXISTS SN2. EXISTS V2. EXISTS S2. {t}(P, SN2, V2, S2)"

# Queries of the query-mix templates that have more than one answer:
# range, join, anti, union, and a range over (P, SN).
QUERIES = {
    "range": (("P",), f"{LISTING.format(t='WeekdayTV')} AND V >= 5 AND V <= 12"),
    "join": (
        ("P",),
        "EXISTS SN. EXISTS V. EXISTS S. EXISTS SN2. EXISTS V2. EXISTS S2. "
        "WeekdayTV(P, SN, V, S) AND WeekendTV(P, SN2, V2, S2) AND V >= 4 AND V2 >= 6",
    ),
    "anti": (
        ("P",),
        f"{LISTING.format(t='WeekdayTV')} AND V >= 3 AND "
        f"NOT ({LISTING2.format(t='WeekendTV')} AND V2 >= 12)",
    ),
    "union": (
        ("P",),
        f'({LISTING.format(t="WeekdayTV")} AND S = "Avon" AND V >= 4) OR '
        f'{LISTING.format(t="WeekendTV")} AND S = "Schwab" AND V >= 6',
    ),
    "pairs": (("P", "SN"), "EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V >= 8"),
}

# Conditions over P: atoms with a string and an integer constant, a range
# and a negation.
CONDITIONS = {
    "string-constant": 'EXISTS SN. EXISTS V. WeekdayTV(P, SN, V, "RBC")',
    "integer-constant": "EXISTS SN. EXISTS S. WeekendTV(P, SN, 7, S)",
    "range": f"{LISTING.format(t='WeekendTV')} AND V >= 6 AND V <= 9",
    "negation": f"TV-Program(P) AND NOT ({LISTING.format(t='WeekendTV')} AND V >= 10)",
}


@pytest.fixture(scope="module")
def generated():
    gen = load_generator()
    return load_instance(strategies.TV_SCHEMA, gen.generate(3, 2000, 20))


def answers(inst, head, body):
    text = f"q({', '.join(head)}) := {body}"
    return evaluate(inst, parse_query(text, strategies.TV_SCHEMA)).rows


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_condition_partitions_the_answers(generated, query, condition):
    head, q = QUERIES[query]
    p = CONDITIONS[condition]
    whole = answers(generated, head, q)
    holds = answers(generated, head, f"({q}) AND ({p})")
    fails = answers(generated, head, f"({q}) AND NOT ({p})")
    assert holds and fails
    assert holds.isdisjoint(fails)
    assert holds | fails == whole


def test_an_atom_constant_answers_as_an_equality(generated):
    # Each position of each table, with a constant the table holds there.
    for name in ("TV-Station", "WeekdayTV", "WeekendTV"):
        rows = sorted(generated.relations[name])
        width = len(rows[0])
        for i in range(width):
            constant = rows[len(rows) // 3][i]
            variables = [f"X{k}" for k in range(width)]
            terms = [*variables[:i], format_constant(constant), *variables[i + 1 :]]
            head = variables[:i] + variables[i + 1 :]
            expected = {r[:i] + r[i + 1 :] for r in rows if r[i] == constant}
            assert 0 < len(expected) < len(rows)
            body = f"{name}({', '.join(variables)})"
            equality = f"EXISTS {variables[i]}. {body} AND {variables[i]} = {terms[i]}"
            assert answers(generated, head, f"{name}({', '.join(terms)})") == expected
            assert answers(generated, head, equality) == expected


@pytest.mark.parametrize(
    "with_constant, with_equality, expected",
    [
        # Beside a pushed range on another position.
        (
            'EXISTS SN. EXISTS V. WeekdayTV(P, SN, V, "RBC") AND V >= 8',
            f'{LISTING.format(t="WeekdayTV")} AND S = "RBC" AND V >= 8',
            lambda t: {(p,) for p, _, v, s in t["WeekdayTV"] if s == "RBC" and v >= 8},
        ),
        # Under a negation.
        (
            'TV-Program(P) AND NOT (EXISTS SN. EXISTS V. WeekendTV(P, SN, V, "RBC"))',
            f'TV-Program(P) AND NOT ({LISTING.format(t="WeekendTV")} AND S = "RBC")',
            lambda t: t["TV-Program"]
            - {(p,) for p, _, _, s in t["WeekendTV"] if s == "RBC"},
        ),
    ],
    ids=["beside-a-range", "negated"],
)
def test_an_atom_constant_answers_as_an_equality_in_a_conjunction(
    generated, with_constant, with_equality, expected
):
    rows = expected(generated.relations)
    assert 0 < len(rows) < len(generated.relations["TV-Program"])
    assert answers(generated, ("P",), with_constant) == rows
    assert answers(generated, ("P",), with_equality) == rows
