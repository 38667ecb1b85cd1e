"""The miner's bit counts against the set algebra they stand in for.

A mining run counts a signed set from bits over its index of head
tuples where its items allow it, and falls back to ``conjoin``
otherwise; it always takes a set's reference domain from bits.  An
item's relations are built with the pushdowns of ``evaluate``, so an
item whose comparisons its own atoms take, such as ``TV-Program(P) AND
P != "Gilmore"``, has bits, while a bare comparison falls back.  These
tests take every signed set of up to three items of several pools, in a
shuffled order so that the index grows out of level order, and check
each count against the relation the fallback builds and against
``evaluate`` of the set's conjunction, which shares none of the run's
relations, and each frequency's denominator against ``reference_domain``
of the set's conjunction.  A mined instance of 2,000 generated programs
checks the bits at size against ``stats`` computed from scratch.
"""

import importlib.util
import random
from fractions import Fraction

import pytest

import strategies
from conftest import TV_DIR
from ermine import (
    QueryDecl,
    confidence,
    evaluate,
    frequency,
    load_bias,
    load_bias_file,
    load_instance,
    mine,
    reference_domain,
)
from ermine.evaluator import conjoin
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


# An item with both a positive relation and a NOT conjunct: its negation
# reads its bits as the complement of this item's AND & ~OR.
LISTED_NOT_WEEKEND = (
    "TV-Program(P) AND NOT (EXISTS SN. EXISTS V. EXISTS S. WeekendTV(P, SN, V, S))"
)


def pool_bias(head, items):
    return load_bias(
        {"head": list(head), "items": list(items), "max_conjuncts": 3, "allow_negation": True},
        strategies.TV_SCHEMA,
    )


BIASES = {
    "bias_mixed": lambda: load_bias_file(TV_DIR / "bias_mixed.json", strategies.TV_SCHEMA),
    "pool-P": lambda: pool_bias(("P",), strategies.MINING_POOLS[("P",)] + (LISTED_NOT_WEEKEND,)),
    "pool-P-SN": lambda: pool_bias(("P", "SN"), strategies.MINING_POOLS[("P", "SN")]),
    "partial-head": lambda: pool_bias(("P", "SN"), PARTIAL_HEAD_POOL),
}


def countable(reason):
    """Does the miner count a set with this gate verdict?  Candidates pass
    every gate; a rule antecedent need only be safe over the head."""
    return reason is None or not (
        reason == "free-variable-mismatch" or reason.startswith("unsafe")
    )


def shuffled_masks(bias, name):
    """Every signed set of the bias, in an order seeded by the pool's name."""
    masks = [
        sum(1 << (2 * i + negated) for i, negated in signed)
        for signed in signed_subsets(len(bias.items), bias.max_conjuncts)
    ]
    random.Random(name).shuffle(masks)
    return masks


def bit_count(run, record):
    """The set's answer count as the run takes it from bits; None where
    it falls back to ``conjoin``: an item has no answer bits, or none has
    a positive relation, which leaves the AND negative."""
    run.count(record)
    bits = record.bits
    return None if bits is None or bits < 0 else bits.bit_count()


def evaluated_count(inst, run, mask):
    """The answer count of the set's conjunction from ``evaluate``."""
    return len(evaluate(inst, QueryDecl(None, run.head, run.set(mask).conjunction())).rows)


@pytest.mark.parametrize("name", sorted(BIASES))
def test_bits_agree_with_conjoin_and_conjunction_domain(tv, name):
    # The conjunction's domain is what reference_domain gives its body.
    bias = BIASES[name]()
    run = _Run(bias, tv)
    counted = checked = 0
    for mask in shuffled_masks(bias, name):
        record = run.set(mask)
        if not countable(record.reason):
            continue
        checked += 1
        count = bit_count(run, record)
        if count is not None:
            counted += 1
            assert count == len(run.answers(record).rows)
        assert run.count(record) == len(run.answers(record).rows)
        assert run.count(record) == evaluated_count(tv, run, mask)
        size = len(reference_domain(tv, record.conjunction(), run.head).members)
        assert run.measure(record) == size
    # Every pool has sets on the bit path and sets that fall back.
    assert 0 < counted < checked
    # Every index position is taken by one head tuple.
    assert sorted(run._index.values()) == list(range(len(run._index)))


@pytest.mark.parametrize("name", sorted(BIASES))
def test_negated_items_read_the_bits_of_the_item_they_negate(tv, name):
    bias = BIASES[name]()
    run = _Run(bias, tv)
    for mask in shuffled_masks(bias, name):
        record = run.set(mask)
        if countable(record.reason):
            run.count(record)
    negated_items = [
        item for bit, item in run._items.items() if bit & 1 and item.evaluated is not None
    ]
    assert negated_items
    derived = 0
    for negated in negated_items:
        linked = negated.negates
        assert negated.domain_bits == linked.domain_bits
        if linked.bits is not None and linked.bits >= 0:
            derived += 1
        if negated.bits is not None:
            assert negated.bits == ~run._head_bits(conjoin(*linked.evaluated))
    assert derived
    if name == "pool-P":
        # Some listed program airs on a weekend, so the NOT conjunct
        # takes answers out of the item's positive relation.
        i = [item.text for item in bias.items].index(LISTED_NOT_WEEKEND)
        item = run._counted(run.item(2 * i))
        (positive,) = item.evaluated[0]
        assert run._head_bits(positive) & ~item.bits


def test_items_whose_atoms_take_their_comparisons_count_from_bits(tv):
    bias = BIASES["bias_mixed"]()
    run = _Run(bias, tv)
    texts = [item.text for item in bias.items]
    program, gilmore, not_gilmore = (
        2 * texts.index(t)
        for t in ("TV-Program(P)", 'P = "Gilmore"', 'TV-Program(P) AND P != "Gilmore"')
    )
    # The atom takes P != "Gilmore", so the item's relation is over P.
    count = bit_count(run, run.set(1 << not_gilmore))
    assert count is not None
    assert count == evaluated_count(tv, run, 1 << not_gilmore) > 0
    # No atom of the bare comparison's item binds P: it stays for conjoin.
    both = 1 << gilmore | 1 << program
    assert bit_count(run, run.set(both)) is None
    assert run.count(run.set(both)) == evaluated_count(tv, run, both) == 1


def test_partial_head_items_fall_back(tv):
    run = _Run(BIASES["partial-head"](), tv)
    program, gilmore, weekend, rbc, _, listed, pairs = (
        2 * i for i in range(len(PARTIAL_HEAD_POOL))
    )
    # Counted first, the pairs' answers all take new index positions.
    pairs_set = run.set(1 << pairs)
    assert bit_count(run, pairs_set) == len(run.answers(pairs_set).rows) > 0
    assert pairs_set.reason == "not-valid"
    assert bit_count(run, run.set(1 << weekend | 1 << rbc)) is not None
    assert bit_count(run, run.set(1 << program | 1 << weekend)) is None
    assert bit_count(run, run.set(1 << gilmore | 1 << weekend)) is None
    # Every RBC listing is a listing on a known station.
    (relation,) = run._counted(run.item(listed)).evaluated[0]
    assert relation.columns == ("SN", "P")
    listed_rbc = bit_count(run, run.set(1 << rbc | 1 << listed))
    assert listed_rbc == len(run.answers(run.set(1 << rbc)).rows) > 0


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
        assert bit_count(run, fq.candidate.record) is not None
    for fq in result.frequent:
        assert fq.frequency == frequency(inst, fq.candidate.decl)
    for rule in result.rules:
        assert rule.confidence == confidence(inst, rule)
