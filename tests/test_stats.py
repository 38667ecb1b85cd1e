"""Frequency, support, confidence, and the itemset shortcut."""

from fractions import Fraction

import pytest

from ermine import (
    DataError,
    EmptyDomainError,
    ErRule,
    Frequency,
    InvalidRuleError,
    NotEntityQueryError,
    NotValidError,
    UnsafeQueryError,
    ZeroAntecedentError,
    checked_query,
    confidence,
    frequency,
    itemset_frequency,
    load_instance,
    load_schema,
    parse_query,
    rule_statistics,
    support,
)


def fr(inst, decl):
    return frequency(inst, decl).value


def test_frequency_formatting():
    f = Frequency(2, 4)
    assert f.value == Fraction(1, 2)
    assert str(f) == "2/4 = 1/2"
    assert str(Frequency(2, 2)) == "2/2 = 1"
    with pytest.raises(ValueError):
        Frequency(1, 0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("q(P) := F1", Fraction(1)),
        ("q(P) := F2", Fraction(1, 2)),
        ("q(P) := F1 AND F2", Fraction(1, 4)),
        ("q(P) := F1 OR F2", Fraction(3, 4)),
        ("q(P) := F1 AND NOT F2", Fraction(1, 4)),
    ],
)
def test_single_variable_frequencies(tv, combine, text, expected):
    assert fr(tv, combine(text)) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("q(P, SN) := G1", Fraction(2, 3)),
        ("q(P, SN) := G2", Fraction(1, 4)),
        ("q(P, SN) := G1 AND G2", Fraction(1, 5)),
        ("q(P, SN) := G1 OR G2", Fraction(2, 5)),
        ("q(P, SN) := G1 AND NOT G2", Fraction(1, 5)),
    ],
)
def test_pair_frequencies(tv, combine, text, expected):
    assert fr(tv, combine(text)) == expected


def test_frequencies_are_exact_rationals(tv, combine):
    value = fr(tv, combine("q(P, SN) := G1"))
    assert isinstance(value, Fraction)
    assert value == Fraction(2, 3)  # never a rounded float


def test_rule_support_and_confidence(tv, queries):
    rule = ErRule(queries["F1"], queries["F2"].body)
    assert support(tv, rule).value == Fraction(1, 4)
    assert confidence(tv, rule) == Fraction(1, 2)


def test_rule_with_itself(tv, queries):
    rule = ErRule(queries["F1"], queries["F1"].body)
    assert support(tv, rule).value == Fraction(1)
    assert confidence(tv, rule) == Fraction(1)


def test_confidence_zero_when_consequent_never_holds(tv, tv_schema, queries):
    never = parse_query(
        "n(P) := EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V < 10",
        tv_schema,
    )
    rule = ErRule(queries["F1"], never.body)
    assert confidence(tv, rule) == Fraction(0)


def test_consequent_variables_must_be_in_head(tv, queries):
    rule = ErRule(queries["F1"], queries["G1"].body)
    with pytest.raises(InvalidRuleError, match="SN"):
        support(tv, rule)


def test_checked_query_rejections(tv, combine):
    with pytest.raises(UnsafeQueryError):
        checked_query(tv, combine("q(P) := NOT F1"))
    with pytest.raises(NotEntityQueryError):
        checked_query(
            tv,
            combine('q(V) := EXISTS S. EXISTS SN. WeekdayTV("Gilmore", SN, V, S)'),
        )
    with pytest.raises(NotValidError, match="not valid for \\(X, Y\\)"):
        checked_query(tv, combine("q(X, Y) := TV-Program(X) AND X = Y"))


def test_empty_table_gives_empty_domain_error():
    schema = load_schema(
        {
            "tables": [
                {"name": "T", "fields": [{"name": "id", "type": "string", "key": True}]}
            ]
        }
    )
    empty = load_instance(schema, {"T": []})
    with pytest.raises(EmptyDomainError):
        frequency(empty, parse_query("q(X) := T(X)", schema))


def test_zero_antecedent_error(tv, tv_schema, queries):
    nothing = parse_query(
        "n(P) := EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V > 50",
        tv_schema,
    )
    rule = ErRule(nothing, queries["F1"].body)
    with pytest.raises(ZeroAntecedentError):
        confidence(tv, rule)
    # Support stays defined: the conjunction still has a domain.
    assert support(tv, rule).value == Fraction(0)


EMPTY_T = load_instance(
    load_schema(
        {"tables": [{"name": "T", "fields": [{"name": "id", "type": "string", "key": True}]}]}
    ),
    {"T": []},
)
NOTHING = "a(P) := EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V > 100"


# The checks of a rule in order: a consequent variable outside the head,
# F AND G's safety, entity and validity gates, an empty reference domain
# (rule_statistics only), F's own safety, and an antecedent without
# answers.  Each case fails at the first listed step; a later step it
# also fails shows that the order holds.
@pytest.mark.parametrize(
    "antecedent, consequent, error, message, conf_error, conf_message",
    [
        # Also unsafe as F AND G.
        (
            "a(P) := NOT F2", "G1", InvalidRuleError,
            "consequent variables not in the antecedent head: SN", None, None,
        ),
        (
            "a(P) := NOT F2", "c(P) := NOT F1", UnsafeQueryError,
            "query is not safe (R3-unlimited-var, R4-bad-negation)", None, None,
        ),
        (
            'a(V) := EXISTS S. EXISTS SN. WeekdayTV("Gilmore", SN, V, S)',
            "c(V) := V > 0", NotEntityQueryError,
            "free variables are not entity variables: V", None, None,
        ),
        (
            "a(X, Y) := TV-Program(X) AND X = Y", "c(X, Y) := X = Y", NotValidError,
            "query is not valid for (X, Y); first failing subformula: "
            "TV-Program(X) AND X = Y AND X = Y", None, None,
        ),
        # F AND G passes every gate; F alone is not safe, and has no
        # answers on the empty instance either.
        (
            "a(X) := T(X)", "c(X) := T(X)", EmptyDomainError,
            "reference domain of (X) is empty", ZeroAntecedentError,
            "antecedent T(X) has no result tuples",
        ),
        (
            "a(X) := NOT T(X)", "c(X) := T(X)", EmptyDomainError,
            "reference domain of (X) is empty", UnsafeQueryError,
            "query is not safe (R3-unlimited-var, R4-bad-negation)",
        ),
        (
            "a(P) := NOT F2", "F1", UnsafeQueryError,
            "query is not safe (R3-unlimited-var, R4-bad-negation)", None, None,
        ),
        (
            NOTHING, "F2", ZeroAntecedentError,
            f"antecedent {NOTHING.split(' := ')[1]} has no result tuples", None, None,
        ),
    ],
    ids=[
        "stray-consequent-variable", "unsafe-conjunction", "not-an-entity-query",
        "not-valid", "empty-domain", "empty-domain-before-unsafe-antecedent",
        "unsafe-antecedent", "zero-antecedent",
    ],
)
def test_rule_errors_in_order(
    tv, tv_schema, queries, antecedent, consequent, error, message, conf_error, conf_message
):
    inst = EMPTY_T if antecedent.startswith("a(X)") else tv

    def parse(text):
        return queries.get(text) or parse_query(text, inst.schema, queries)

    rule = ErRule(parse(antecedent), parse(consequent).body)
    with pytest.raises(error) as raised:
        rule_statistics(inst, rule)
    assert str(raised.value) == message
    # Confidence reads no reference domain; otherwise it fails alike.
    with pytest.raises(conf_error or error) as raised:
        confidence(inst, rule)
    assert str(raised.value) == (conf_message or message)


def test_rule_statistics_match_support_and_confidence(tv, queries, combine):
    for antecedent, consequent in [
        ("F1", "c(P) := F2"),
        ("F1", 'c(P) := P = "Gilmore"'),
        ("F1", 'c(P) := "Gilmore" != P'),
        ("F1", "c(P) := TV-Program(P) AND NOT F2"),
        ("F1", 'c(P) := F2 OR P = "Gilmore"'),
        ("a(P, SN) := G1", 'c(SN) := SN = "CBS"'),
    ]:
        rule = ErRule(queries.get(antecedent) or combine(antecedent), combine(consequent).body)
        assert rule_statistics(tv, rule) == (support(tv, rule), confidence(tv, rule))


def test_split_disjunction_adds_up(tv, combine):
    both = fr(tv, combine("a(P, SN) := G1 AND G2"))
    only = fr(tv, combine("b(P, SN) := G1 AND NOT G2"))
    split = fr(tv, combine("c(P, SN) := (G1 AND G2) OR (G1 AND NOT G2)"))
    assert both == only == Fraction(1, 5)
    assert split == both + only == Fraction(2, 5)


def test_split_shares_denominator(tv, combine):
    parts = [
        frequency(tv, combine("a(P, SN) := G1 AND G2")),
        frequency(tv, combine("b(P, SN) := G1 AND NOT G2")),
        frequency(tv, combine("c(P, SN) := (G1 AND G2) OR (G1 AND NOT G2)")),
    ]
    assert {p.denominator for p in parts} == {5}


def test_conjunction_never_beats_conjunct(tv, combine):
    assert fr(tv, combine("a(P) := F1 AND F2")) <= fr(tv, combine("b(P) := F1"))
    assert fr(tv, combine("c(P, SN) := G1 AND G2")) <= fr(tv, combine("d(P, SN) := G1"))


def test_exhaustive_two_value_disjunction_is_certain():
    schema = load_schema(
        {
            "tables": [
                {
                    "name": "Person",
                    "fields": [
                        {"name": "name", "type": "string", "key": True},
                        {"name": "gender", "type": "string"},
                    ],
                }
            ]
        }
    )
    inst = load_instance(
        schema,
        {"Person": [("ann", "female"), ("bo", "male"), ("kim", "female")]},
    )
    decl = parse_query(
        'q(X) := Person(X, "male") OR Person(X, "female")', schema
    )
    assert fr(inst, decl) == Fraction(1)


def test_itemset_frequencies(baskets):
    assert itemset_frequency(baskets, ["cola"]).value == Fraction(1, 2)
    assert itemset_frequency(baskets, []).value == Fraction(1)
    assert itemset_frequency(baskets, ["water"]).value == Fraction(0)
    assert itemset_frequency(baskets, ["beer"]).value == Fraction(1, 4)
    assert itemset_frequency(baskets, ["cola", "chips"]).value == Fraction(1, 4)


def test_itemset_denominator_counts_transactions(baskets):
    f = itemset_frequency(baskets, ["cola"])
    assert (f.numerator, f.denominator) == (2, 4)


def test_itemset_table_shapes_checked(baskets):
    with pytest.raises(DataError, match="exactly one field"):
        itemset_frequency(baskets, ["cola"], transactions_table="TransItems")
    with pytest.raises(DataError, match="exactly two fields"):
        itemset_frequency(baskets, ["cola"], link_table="Transactions")
