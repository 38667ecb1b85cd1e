"""The miner's bit counts against the set algebra they stand in for.

A mining run counts a signed set from bits over its index of head
tuples where its items allow it, and falls back to ``conjoin`` and
``conjunction_domain`` otherwise.  These tests take every signed set of
up to three items of several pools, in a shuffled order so that the
index grows out of level order, and check each bit count and bit domain
size against the relation and the domain the fallback builds.  A mined
instance of 2,000 generated programs checks the bits at size against
``stats`` computed from scratch.
"""

import importlib.util
import random
from fractions import Fraction

import pytest

import strategies
from conftest import TV_DIR
from ermine import (
    confidence,
    frequency,
    load_bias,
    load_bias_file,
    load_instance,
    mine,
)
from ermine.domains import conjunction_domain
from ermine.mining import _Run
from test_gates import signed_subsets

REPO = TV_DIR.parent.parent

# A (P, SN) pool whose items over P only and whose P = "Gilmore" take
# the fallback in every set they are part of.  The last two items
# evaluate to columns (SN, P), which their bits must read in head order;
# the very last one, not valid but safe, has an empty reference domain,
# so its answers are tuples its domain never put in the index.
PARTIAL_HEAD_POOL = (
    "TV-Program(P)",
    'P = "Gilmore"',
    "WeekendTV(P, SN, V, S)",
    'WeekdayTV(P, SN, V, "RBC")',
    "TV-Station(SN, A) AND A > 1",
    "TV-Station(SN, A) AND WeekdayTV(P, SN, V, S)",
    "TV-Program(P) AND TV-Station(SN, A)",
)


def pool_bias(head, items):
    return load_bias(
        {"head": list(head), "items": list(items), "max_conjuncts": 3, "allow_negation": True},
        strategies.TV_SCHEMA,
    )


BIASES = {
    "bias_mixed": lambda: load_bias_file(TV_DIR / "bias_mixed.json", strategies.TV_SCHEMA),
    "pool-P": lambda: pool_bias(("P",), strategies.MINING_POOLS[("P",)]),
    "pool-P-SN": lambda: pool_bias(("P", "SN"), strategies.MINING_POOLS[("P", "SN")]),
    "partial-head": lambda: pool_bias(("P", "SN"), PARTIAL_HEAD_POOL),
}


def countable(reason):
    """Does the miner count a set with this gate verdict?  Candidates pass
    every gate; a rule antecedent need only be safe over the head."""
    return reason is None or not (
        reason == "free-variable-mismatch" or reason.startswith("unsafe")
    )


@pytest.mark.parametrize("name", sorted(BIASES))
def test_bits_agree_with_conjoin_and_conjunction_domain(tv, name):
    bias = BIASES[name]()
    run = _Run(bias, tv)
    masks = [
        sum(1 << (2 * i + negated) for i, negated in signed)
        for signed in signed_subsets(len(bias.items), bias.max_conjuncts)
    ]
    random.Random(name).shuffle(masks)
    counted = domains = checked = 0
    for mask in masks:
        if not countable(run.set(mask).reason):
            continue
        checked += 1
        count = run.bit_count(mask)
        if count is not None:
            counted += 1
            assert count == len(run.answers(mask).rows)
        items = [run._counted(item) for item in run.set(mask).items]
        size = run.bit_domain(mask)
        if size is not None:
            domains += 1
            conjuncts = [c for item in items for c in item.conjuncts]
            members = [d for item in items for d in item.domains]
            assert size == len(conjunction_domain(conjuncts, run.head, members)[0])
        assert run.count(mask) == len(run.answers(mask).rows)
    # Every pool has sets on the bit path and sets that fall back.
    assert 0 < counted < checked
    assert 0 < domains < checked
    # Every index position is taken by one head tuple.
    assert sorted(run._index.values()) == list(range(len(run._index)))


def test_partial_head_items_fall_back(tv):
    run = _Run(BIASES["partial-head"](), tv)
    program, gilmore, weekend, rbc, _, listed, pairs = (
        2 * i for i in range(len(PARTIAL_HEAD_POOL))
    )
    # Counted first, the pairs' answers all take new index positions.
    assert run.bit_count(1 << pairs) == len(run.answers(1 << pairs).rows) > 0
    assert run.set(1 << pairs).reason == "not-valid"
    assert run.bit_count(1 << weekend | 1 << rbc) is not None
    assert run.bit_count(1 << program | 1 << weekend) is None
    assert run.bit_domain(1 << program | 1 << weekend) is not None
    assert run.bit_count(1 << gilmore | 1 << weekend) is None
    assert run.bit_domain(1 << gilmore | 1 << weekend) is None
    # Every RBC listing is a listing on a known station.
    (relation,) = run._counted(run.item(listed)).evaluated[0]
    assert relation.columns == ("SN", "P")
    assert run.bit_count(1 << rbc | 1 << listed) == len(run.answers(1 << rbc).rows) > 0


def load_generator():
    spec = importlib.util.spec_from_file_location("gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_mined_statistics_at_size_match_stats():
    # The mine-data bias on 2,000 generated programs: every item is over
    # the whole head, so every count and domain is taken from bits.
    gen = load_generator()
    inst = load_instance(strategies.TV_SCHEMA, gen.generate(3, 2000, 20))
    conditions = ("V >= 5", "V >= 10", "V >= 15", 'S = "RBC"')
    bias = load_bias(
        {
            "head": ["P"],
            "items": [f"{t}(P, SN, V, S) AND {c}" for t in gen.LISTING_TABLES for c in conditions],
            "max_conjuncts": 3,
            "allow_negation": True,
        },
        strategies.TV_SCHEMA,
    )
    result = mine(inst, bias, Fraction(1, 10), Fraction(1, 2))
    assert len(result.frequent) > 100 and len(result.rules) > 100
    run = result.frequent[0].candidate.run
    for fq in result.frequent:
        assert run.bit_count(fq.candidate.mask) is not None
        assert run.bit_domain(fq.candidate.mask) is not None
    for fq in result.frequent:
        assert fq.frequency == frequency(inst, fq.candidate.decl)
    for rule in result.rules:
        assert rule.confidence == confidence(inst, rule)
