"""Randomized invariants over generated instances and queries.

Each property runs 200 deterministic examples (derandomize=True; the
Apriori property 100, the domain property 400) against the tiny schemas
in strategies.py.  The evaluation properties compare the set-algebra
evaluator with brute-force assignment enumeration, on fresh instances
and on one instance whose access path earlier queries have filled, and
so do the conjunction step's answers on what ``conjunct_relations``
builds without ``drop``, as the miner and the rule statistics call it;
the statistics properties exercise the guarantees the miner relies on:
non-empty domains, frequency bounds, answers inside the reference domain
for every query that passes the gates (also every gated set of
``MINING_POOLS`` items, on small instances and on 2,000 generated
programs), disjoint-split additivity, and the anti-monotonicity that
justifies Apriori pruning.  The mining property checks the miner's
set-algebra counts against ``stats`` computed from scratch; the rule
property checks ``rule_statistics``, which evaluates the antecedent once,
against enumeration and against ``support`` followed by ``confidence``; and the
Apriori property checks pruned mining against an exhaustive enumeration
of signed item sets whose items mention the whole head.  The sort
property checks ``sorted_rows`` against the ``row_key`` order.  The loader
property feeds arbitrary JSON documents to the bias and schema loaders,
and the query-text property feeds arbitrary text to the parser and the
command line.
"""

import ast
import contextlib
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import strategies
from conftest import TV_DIR, signed_mask, split_rules_from_scratch
from ermine import (
    And,
    EmptyDomainError,
    ErmineError,
    ErRule,
    Frequency,
    LevelStats,
    Not,
    Or,
    QueryDecl,
    QueryParseError,
    check_safe,
    confidence,
    conjunction,
    enumerate_level,
    evaluate,
    evaluate_naive,
    free_variables,
    frequency,
    is_er_query,
    is_valid_for,
    load_bias,
    load_instance,
    load_schema,
    mine,
    mine_frequent,
    mining,
    normalize,
    parse_formula_text,
    parse_query,
    reference_domain,
    rule_statistics,
    sorted_rows,
    support,
    to_text,
    tokenize,
)
from ermine.access import row_key
from ermine.cli import main
from ermine.evaluator import (
    Relation,
    _reorder,
    conjoin,
    conjunct_relations,
    vocabulary_nonempty,
)
from ermine.mining import _Run
from ermine.stats import prepare_query, rule_conjunction
from test_bitsets import load_generator
from test_gates import signed_subsets

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)


@SETTINGS
@given(strategies.safe_query_cases())
def test_optimized_evaluator_matches_enumeration(case):
    inst, decl = case
    fast = evaluate(inst, decl)
    slow = evaluate_naive(inst, decl)
    assert fast.columns == slow.columns
    assert sorted_rows(fast) == sorted_rows(slow)
    # The builder without ``drop``, as the miner and the rule path call it.
    body = normalize(decl.body)
    built = conjoin(*conjunct_relations(inst, body, vocabulary_nonempty(inst, body)))
    assert sorted_rows(_reorder(built, tuple(decl.variables))) == sorted_rows(slow)


_INTS = st.integers(-3, 3)
_STRS = st.text("ab", max_size=2)


@SETTINGS
@given(
    st.lists(st.sampled_from([_INTS, _STRS, _INTS | _STRS]), max_size=3).flatmap(
        lambda cells: st.sets(st.tuples(*cells), max_size=12).map(
            lambda rows: Relation(tuple("xyz"[: len(cells)]), frozenset(rows))
        )
    )
)
def test_sorted_rows_keeps_the_row_key_order(rel):
    # Each column holds integers, strings or both: relations whose
    # columns are single-typed sort on the raw rows, the others by
    # row_key, and both must give the row_key order.
    assert sorted_rows(rel) == sorted(rel.rows, key=row_key)


@SETTINGS
@given(strategies.safe_query_sequences())
def test_warm_access_path_matches_cold_instances(case):
    # Queries in turn on one instance share its access path; a scan,
    # index or projection kept under the wrong key, or renamed wrongly,
    # shows as a difference from the oracle or from a cold instance.
    inst, decls = case
    for decl in decls:
        fast = evaluate(inst, decl)
        assert sorted_rows(fast) == sorted_rows(evaluate_naive(inst, decl))
        body = normalize(decl.body)
        cold = load_instance(inst.schema, inst.relations)
        assert reference_domain(inst, body, decl.variables) == reference_domain(
            cold, body, decl.variables
        )


@SETTINGS
@given(strategies.valid_query_cases(non_empty=True))
def test_valid_queries_have_nonempty_domains(case):
    inst, decl = case
    body = normalize(decl.body)
    # The generator promises a checked entity query over a database
    # without empty tables; the domain must then be non-empty.
    assert check_safe(body).safe
    assert is_er_query(body, inst).is_er
    assert is_valid_for(body, decl.variables).valid
    dom = reference_domain(inst, body, decl.variables)
    assert dom.members


@SETTINGS
@given(strategies.valid_query_cases(non_empty=True))
def test_frequency_stays_within_bounds(case):
    inst, decl = case
    f = frequency(inst, decl)
    assert 0 <= f.value <= 1
    assert f.value == Fraction(f.numerator, f.denominator)


@settings(SETTINGS, max_examples=400)
@given(st.one_of(strategies.valid_query_cases(non_empty=False), strategies.safe_query_cases()))
def test_answers_stay_within_the_domain(case):
    # Queries built to pass the gates, and any safe query that passes them.
    inst, decl = case
    q = prepare_query(inst, decl)
    assume(q.er.is_er and q.validity.valid)
    assert set(evaluate(inst, q).rows) <= reference_domain(inst, q.body, q.variables).members


def gated_sets_stay_within_the_domain(inst, bias):
    """Check every signed set of the bias whose query passes the gates:
    its answers lie in its reference domain.  Returns how many passed."""
    run = _Run(bias, inst)
    gated = 0
    for signed in signed_subsets(len(bias.items), bias.max_conjuncts):
        mask = signed_mask(signed)
        if run.set(mask).reason is not None:
            continue
        gated += 1
        body = run.set(mask).conjunction()
        answers = set(evaluate(inst, QueryDecl(None, bias.head, body)).rows)
        assert answers <= reference_domain(inst, body, bias.head).members, to_text(body)
    return gated


@SETTINGS
@given(strategies.mining_cases())
def test_gated_sets_of_mining_pools_stay_within_the_domain(case):
    gated_sets_stay_within_the_domain(*case)


# The pools' entity constants renamed to entities of the generated data,
# so that sets equating the head with constants pass the entity gate.
GENERATED_NAMES = {'"Gilmore"': '"P00000"', '"Hockey"': '"P00001"', '"CBS"': '"S000"'}


def generated_item(pattern):
    for old, new in GENERATED_NAMES.items():
        pattern = pattern.replace(old, new)
    return pattern


@pytest.mark.parametrize("head", sorted(strategies.MINING_POOLS))
def test_gated_sets_stay_within_the_domain_at_size(head):
    # Every signed set of up to three pool items on 2,000 generated programs.
    inst = load_instance(strategies.TV_SCHEMA, load_generator().generate(3, 2000, 20))
    bias = load_bias(
        {
            "head": list(head),
            "items": [generated_item(p) for p in strategies.MINING_POOLS[head]],
            "max_conjuncts": 3,
            "allow_negation": True,
        },
        strategies.TV_SCHEMA,
    )
    assert gated_sets_stay_within_the_domain(inst, bias) > 400


@SETTINGS
@given(strategies.split_cases())
def test_splitting_on_a_condition_preserves_frequency(case):
    inst, s, f = case
    with_f = QueryDecl("a", ("X",), And((s, f)))
    without_f = QueryDecl("b", ("X",), And((s, Not(f))))
    both = QueryDecl("c", ("X",), Or(with_f.body, without_f.body))
    fr_with = frequency(inst, with_f)
    fr_without = frequency(inst, without_f)
    fr_both = frequency(inst, both)
    assert fr_with.denominator == fr_without.denominator == fr_both.denominator
    assert fr_both.value == fr_with.value + fr_without.value


@SETTINGS
@given(strategies.split_cases())
def test_conjunction_frequency_is_anti_monotone(case):
    inst, s, f = case
    whole = frequency(inst, QueryDecl("a", ("X",), s)).value
    narrowed = frequency(inst, QueryDecl("b", ("X",), And((s, f)))).value
    assert narrowed <= whole


@SETTINGS
@given(strategies.safe_query_cases())
def test_printed_queries_parse_back_unchanged(case):
    inst, decl = case
    text = to_text(decl.body)
    try:
        reparsed = parse_formula_text(text, inst.schema)
    except QueryParseError:
        # Printable but untypable texts (e.g. X used at both types across
        # disjuncts) are outside the round-trip contract.
        assume(False)
    assert reparsed == decl.body


@SETTINGS
@given(strategies.safe_query_cases())
def test_normalize_is_idempotent_and_keeps_free_variables(case):
    _, decl = case
    once = normalize(decl.body)
    assert normalize(once) == once
    assert set(free_variables(once)) == set(free_variables(decl.body))



def mine_frequent_from_scratch(inst, bias, min_support, prune):
    """``mine_frequent``'s level-wise search with every candidate counted
    by ``stats.frequency`` on a plain copy of its query; returns the
    (level, canonical text, frequency) of each frequent query and the
    level statistics."""
    frequent, levels, extendable, run = [], [], None, _Run(bias, inst)
    for level in range(1, bias.max_conjuncts + 1):
        candidates = enumerate_level(run, level, extendable)
        evaluated, survivors = [], []
        for c in candidates:
            try:
                fr = frequency(inst, QueryDecl(None, c.decl.variables, c.decl.body))
            except EmptyDomainError:
                continue
            evaluated.append(c)
            if fr.value >= min_support:
                survivors.append(c)
                frequent.append((level, c.canonical, fr))
        levels.append(LevelStats(level, len(candidates), len(survivors)))
        extendable = survivors if prune else evaluated
        if not extendable:
            break
    return sorted(frequent, key=lambda t: t[:2]), tuple(levels)


@SETTINGS
@given(strategies.rule_cases())
def test_rule_statistics_match_the_oracle(case):
    # One evaluation of F, with G's conjuncts conjoined onto its answers,
    # counts what enumeration counts for F AND G and for F, and fails
    # where support followed by confidence fails, with the same error.
    inst, rule = case
    with contextlib.suppress(ErmineError):
        # Confidence reads no reference domain, so this holds on an empty
        # domain too.
        conj = rule_conjunction(rule)
        conf = confidence(inst, rule)
        both = len(evaluate_naive(inst, conj).rows)
        assert conf == Fraction(both, len(evaluate_naive(inst, rule.antecedent).rows))
    try:
        expected = support(inst, rule), confidence(inst, rule)
    except ErmineError as exc:
        with pytest.raises(type(exc)) as raised:
            rule_statistics(inst, rule)
        assert str(raised.value) == str(exc)
        return
    domain = reference_domain(inst, normalize(conj.body), conj.variables)
    assert expected[0] == Frequency(both, len(domain.members))
    assert rule_statistics(inst, rule) == expected


@SETTINGS
@given(strategies.mining_cases())
def test_mined_statistics_match_stats(case):
    inst, bias = case
    min_support, min_confidence = Fraction(1, 100), Fraction(1, 10**9)
    results = {}
    for prune in (True, False):
        result = results[prune] = mine(
            inst, bias, min_support, min_confidence, prune=prune
        )
        for fq in result.frequent:
            assert fq.frequency == frequency(inst, fq.candidate.decl)
            # The printed text is joined from kept conjunct texts.
            assert fq.candidate.text() == fq.candidate.decl.text()
        for rule in result.rules:
            plain = ErRule(rule.antecedent, rule.consequent)
            assert rule.confidence == confidence(inst, plain)
            assert rule.support == support(inst, plain)
            assert rule.text() == plain.text()
            # The --csv cells.
            assert (rule.antecedent_text, rule.consequent_text) == (
                to_text(rule.antecedent.body),
                to_text(rule.consequent),
            )
        # Nothing is missed: every candidate, frequent or not, and every
        # rule split is checked against a count from scratch.
        frequent, levels = mine_frequent_from_scratch(inst, bias, min_support, prune)
        assert [
            (fq.level, fq.candidate.canonical, fq.frequency) for fq in result.frequent
        ] == frequent
        assert result.levels == levels
        assert [
            (r.text(), r.support, r.confidence) for r in result.rules
        ] == split_rules_from_scratch(inst, result.frequent)
    assert results[False].frequent == results[True].frequent
    assert results[False].rules == results[True].rules


def mine_frequent_exhaustively(inst, bias, min_support):
    """Every signed set of at most ``max_conjuncts`` distinct pool items
    whose query passes the gates and is frequent, counted by
    ``stats.frequency`` on the plain conjunction: a map from the sorted
    canonical texts of its signed items, joined as a candidate's
    ``canonical`` is, to the frequency.  No mining run is involved."""
    signs = [
        (False, True) if bias.allow_negation and item.negatable else (False,)
        for item in bias.items
    ]
    found = {}
    for k in range(1, bias.max_conjuncts + 1):
        for chosen in itertools.combinations(range(len(bias.items)), k):
            for negated in itertools.product(*(signs[i] for i in chosen)):
                parts = [normalize(bias.items[i].formula) for i in chosen]
                parts = [Not(p) if neg else p for p, neg in zip(parts, negated)]
                body = normalize(conjunction(parts))
                if (
                    set(free_variables(body)) != set(bias.head)
                    or not check_safe(body).safe
                    or not is_er_query(body, inst).is_er
                    or not is_valid_for(body, bias.head).valid
                ):
                    continue
                try:
                    fr = frequency(inst, QueryDecl(None, bias.head, conjunction(parts)))
                except EmptyDomainError:
                    continue
                if fr.value >= min_support:
                    texts = sorted(mining._canonical_text(p, bias.head) for p in parts)
                    found[" AND ".join(texts)] = fr
    return found


@settings(SETTINGS, max_examples=100)
@given(strategies.mining_cases(strategies.WHOLE_HEAD_POOLS), st.sampled_from([1, 2, 3]))
def test_pruned_mining_finds_every_frequent_query(case, quarters):
    # Apriori pruning is complete when every item mentions the whole head:
    # no frequent query is then out of reach behind gate-dropped parents.
    inst, bias = case
    min_support = Fraction(quarters, 4)
    result = mine_frequent(inst, bias, min_support)
    assert {
        fq.candidate.canonical: fq.frequency for fq in result.frequent
    } == mine_frequent_exhaustively(inst, bias, min_support)


def test_pruned_mining_misses_the_documented_gap(tv_schema, tv):
    # README "Mining": neither item mentions the whole head (P, SN), so
    # both are dropped at level 1 and their frequent conjunction is
    # never built.
    bias = load_bias(
        {"head": ["P", "SN"], "items": ['P = "Gilmore"', 'SN = "CBS"']}, tv_schema
    )
    result = mine_frequent(tv, bias, Fraction(1, 100))
    assert result.frequent == ()
    assert result.levels == (LevelStats(1, 0, 0),)
    assert mine_frequent_exhaustively(tv, bias, Fraction(1, 100)) == {
        'P = "Gilmore" AND SN = "CBS"': Frequency(1, 1)
    }


@pytest.mark.parametrize("prune", [True, False])
def test_mining_an_empty_instance_matches_stats(prune):
    # The miner evaluates each conjunct over its own vocabulary, where the
    # candidate's body has its own; on an empty instance the two can
    # differ in being empty.  No count is taken there, because every
    # candidate that passes the gates has an empty reference domain: a
    # constant equated with the head would have to be an entity constant.
    inst = load_instance(strategies.TV_SCHEMA, {})
    bias = load_bias(
        {
            "head": ["P"],
            "items": [
                'P = "Gilmore"',
                "TV-Program(P)",
                "NOT (EXISTS SN. EXISTS V. EXISTS S. WeekendTV(P, SN, V, S))",
            ],
            "max_conjuncts": 3,
            "allow_negation": True,
        },
        strategies.TV_SCHEMA,
    )
    min_support = Fraction(1, 100)
    result = mine(inst, bias, min_support, Fraction(1, 10**9), prune=prune)
    frequent, levels = mine_frequent_from_scratch(inst, bias, min_support, prune)
    assert result.frequent == () and frequent == []
    assert result.levels == levels
    assert result.rules == ()
    run = _Run(bias, inst)
    level_one = enumerate_level(run, 1)
    level_two = enumerate_level(run, 2, level_one)
    assert level_one and level_two
    for c in level_one + level_two:
        assert not reference_domain(inst, c.decl.body, c.decl.variables).members


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def shaped(fields):
    """Arbitrary JSON, or an object with any subset of the given keys
    whose values are arbitrary JSON or of the shape the loader expects."""
    return JSON | st.fixed_dictionaries(
        {}, optional={key: JSON | value for key, value in fields.items()}
    )


def listed(element):
    return st.lists(JSON | element, max_size=3)


BIAS_ITEM = st.sampled_from(
    ["TV-Program(P)", 'P = "Gilmore"', "TV-Station(SN, A) AND A > 1"]
)
BIAS_DOCUMENTS = shaped(
    {
        "head": listed(st.sampled_from(["P", "SN"])),
        "items": listed(BIAS_ITEM | shaped({"pattern": BIAS_ITEM})),
        "max_conjuncts": st.integers(-1, 3),
        "allow_negation": st.booleans(),
    }
)
FIELD = shaped(
    {
        "name": st.sampled_from(["f", "g"]),
        "type": st.sampled_from(["string", "integer"]),
        "key": st.booleans(),
        "references": st.sampled_from(["T.f", "U.f", "T"]),
    }
)
SCHEMA_DOCUMENTS = shaped(
    {
        "tables": listed(
            shaped({"name": st.sampled_from(["T", "U"]), "fields": listed(FIELD)})
        )
    }
)


@pytest.mark.parametrize(
    "documents, load",
    [(BIAS_DOCUMENTS, load_bias), (SCHEMA_DOCUMENTS, lambda doc, _: load_schema(doc))],
    ids=["bias", "schema"],
)
@SETTINGS
@given(data=st.data())
def test_loaders_raise_only_package_errors(tv_schema, documents, load, data):
    try:
        load(data.draw(documents), tv_schema)
    except ErmineError:
        pass


QUERY_TOKENS = st.sampled_from(
    [
        "q(P) :=", "q(P, SN) :=", "q() :=", ":=", "F1", "G2", "TV-Program(P)",
        "WeekdayTV(P, SN, V, S)", "TV-Station(SN, A)", "Nope(P)", "AND", "OR",
        "NOT", "EXISTS V.", "FORALL S.", "(", ")", ",", ".", "=", "!=", ">=",
        "V", "P", '"Gilmore"', '"', "10", "-1", "\\", "\u00b2", "-\u0663",
    ]
)
FORMULA_TEXT = st.recursive(
    st.sampled_from(
        [
            "TV-Program(P)", "EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)",
            "EXISTS S. WeekendTV(P, SN, 10, S)", "TV-Station(SN, 2)",
            "EXISTS A. TV-Station(SN, A) AND A > 1", 'P = "Gilmore"',
            'SN != "CBS"', "P = SN", "V >= 10", "F1", "G1", "Nope(P)", "P",
        ]
    ),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from(["AND", "OR"]), kids).map(" ".join),
        kids.map("NOT {}".format),
        kids.map("({})".format),
        st.tuples(
            st.sampled_from(["EXISTS", "FORALL"]), st.sampled_from("VSAP"), kids
        ).map(lambda t: f"{t[0]} {t[1]}. {t[2]}"),
    ),
    max_leaves=6,
)
# Declarations that parse (most fail a head check or a gate, some get
# evaluated), and token soup for the tokenizer's and parser's errors.
QUERY_TEXT = st.one_of(
    st.tuples(
        st.sampled_from(["q(P) := ", "q(P, SN) := ", "q(SN) := ", "q() := ", "q(P, P) := "]),
        FORMULA_TEXT,
    ).map("".join),
    st.lists(QUERY_TOKENS | st.text(max_size=3), max_size=12).map(" ".join),
)
# Token soup with the lexical extras the query tokens lack: comments with
# and without a newline, tabs, CRs, escapes, and pieces that join.
LEXICAL_TEXT = st.lists(
    st.tuples(
        QUERY_TOKENS
        | st.sampled_from(
            ["# note\n", "#", "\t", "\r\n", r'"say \"hi\" \\"', '""', "7"]
        ),
        st.sampled_from([" ", "", "\t", "\n", " # c\n"]),
    ).map("".join),
    max_size=8,
).map("".join)


def _is_blank(gap: str) -> bool:
    """Whether ``gap`` is only whitespace and comments."""
    return all(not line.split("#", 1)[0].strip(" \t\r") for line in gap.split("\n"))


@SETTINGS
@given(LEXICAL_TEXT)
def test_tokens_tile_the_text(text):
    try:
        tokens = tokenize(text)
    except QueryParseError as exc:
        assert 0 <= exc.pos < len(text)
        return
    as_tuples = [(t.kind, t.value, t.start, t.end) for t in tokens]
    assert as_tuples[-1] == ("EOF", None, len(text), len(text))
    end = 0
    for kind, value, start, stop in as_tuples[:-1]:
        assert end <= start < stop
        assert _is_blank(text[end:start])
        end = stop
        piece = text[start:stop]
        n = len(piece)
        again = [(t.kind, t.value, t.start, t.end) for t in tokenize(piece)]
        assert again == [(kind, value, 0, n), ("EOF", None, n, n)]
        if kind == "IDENT":
            assert value == piece
        elif kind == "INT":
            assert value == int(piece)
        elif kind == "STRING":
            # A Python string literal with only \" and \\ escapes reads the same.
            assert value == ast.literal_eval(piece)
    assert _is_blank(text[end:])


CLI_BASE = [
    "--schema", str(TV_DIR / "schema.json"),
    "--data", str(TV_DIR / "data"),
    "--queries", str(TV_DIR / "queries.erq"),
]


@SETTINGS
@given(QUERY_TEXT)
def test_query_text_never_crashes(tv_schema, queries, text):
    try:
        parse_query(text, tv_schema, queries)
    except ErmineError:
        pass
    for command in ("check", "eval", "freq"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = main([*CLI_BASE, command, text])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        assert code in (0, 1, 2)
