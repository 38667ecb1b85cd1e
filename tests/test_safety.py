"""Safety rules and formula normalization."""

import pytest

from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Forall,
    Not,
    Variable,
    check_safe,
    conjunction,
    free_variables,
    limited_variables,
    normalize,
    parse_formula_text,
    to_text,
)


def test_normalize_rewrites_forall(tv_schema):
    f = parse_formula_text("FORALL X. TV-Program(X)", tv_schema)
    n = normalize(f)
    assert n == Not(Exists("X", Not(Atom("TV-Program", (Variable("X"),)))))


def test_normalize_flattens_nested_conjunctions(tv_schema):
    a = Atom("TV-Program", (Variable("X"),))
    f = And((And((a, a)), a))
    n = normalize(f)
    assert isinstance(n, And)
    assert len(n.conjuncts) == 3


def test_normalize_is_idempotent_on_fixture_queries(queries):
    for decl in queries.values():
        n = normalize(decl.body)
        assert normalize(n) == n
        assert free_variables(n) == free_variables(decl.body)


def test_normalize_keeps_double_negation(tv_schema):
    f = parse_formula_text("TV-Program(X) AND NOT (NOT TV-Program(X))", tv_schema)
    n = normalize(f)
    assert isinstance(n.conjuncts[1], Not)
    assert isinstance(n.conjuncts[1].body, Not)


def test_limited_by_atom(tv_schema):
    conj = parse_formula_text("WeekdayTV(P, SN, V, S) AND V >= 10", tv_schema)
    assert limited_variables(conj) == {"P", "SN", "V", "S"}


def test_limited_through_equality_chain():
    conj = And(
        (
            Comparison(Variable("X"), "=", Variable("Y")),
            Comparison(Variable("Y"), "=", Constant("CBS")),
        )
    )
    assert limited_variables(conj) == {"X", "Y"}


def test_inequality_limits_nothing():
    assert limited_variables(Comparison(Variable("X"), "!=", Constant(5))) == frozenset()


def test_negated_conjunct_does_not_limit(tv_schema):
    conj = parse_formula_text("NOT TV-Program(X) AND TV-Program(Y)", tv_schema)
    assert limited_variables(conj) == {"Y"}


def test_limited_variables_accepts_unnormalized_conjuncts():
    # A FORALL or nested AND conjunct limits its free variables, and a
    # negated FORALL limits nothing, without normalizing first.
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    conj = And(
        (
            Forall("W", Atom("TV-Program", (x,))),
            And((Atom("TV-Program", (y,)), Comparison(y, "=", z))),
            Not(Forall("W", Atom("TV-Program", (Variable("V"),)))),
        )
    )
    assert limited_variables(conj) == {"X", "Y", "Z"}


@pytest.mark.parametrize(
    "text, safe",
    [
        ("F1", True),
        ("F2", True),
        ("F1 AND F2", True),
        ("F1 OR F2", True),
        ("NOT F1", False),
        ("NOT F1 OR F2", False),
        ("F1 AND NOT F2", True),
    ],
)
def test_connective_combinations_of_named_queries(tv_schema, queries, text, safe):
    f = parse_formula_text(text, tv_schema, queries)
    assert check_safe(f).safe is safe


def test_lone_negation_breaks_both_rules(tv_schema, queries):
    f = parse_formula_text("NOT F1", tv_schema, queries)
    report = check_safe(f)
    rules = {v.rule for v in report.violations}
    assert rules == {"R3-unlimited-var", "R4-bad-negation"}


def test_disjuncts_must_share_free_variables(tv_schema):
    f = parse_formula_text(
        "TV-Program(X) OR EXISTS A. TV-Station(Y, A)", tv_schema
    )
    report = check_safe(f)
    assert [v.rule for v in report.violations] == ["R2-disjunct-vars"]


def test_violations_found_inside_quantifiers(tv_schema):
    # The inner conjunction never limits Y.
    f = parse_formula_text(
        "TV-Program(X) AND EXISTS Z. (TV-Program(Z) AND Y != Z)", tv_schema
    )
    report = check_safe(f)
    assert not report.safe
    assert any(v.variable == "Y" for v in report.violations)


def test_equality_with_constant_is_safe(tv_schema):
    f = parse_formula_text('X = "CBS"', tv_schema)
    assert check_safe(f).safe


def test_inequality_alone_is_unsafe(tv_schema):
    f = parse_formula_text('X != "CBS"', tv_schema)
    report = check_safe(f)
    assert [v.rule for v in report.violations] == ["R3-unlimited-var"]
    assert report.violations[0].variable == "X"


def test_forall_checked_after_rewrite(tv_schema):
    # FORALL X. P(X) becomes a lone negation, which no conjunct limits.
    f = parse_formula_text("FORALL X. TV-Program(X)", tv_schema)
    assert not check_safe(f).safe


def test_safe_conjuncts_stay_safe_joined(queries):
    f = conjunction([queries["F1"].body, queries["F2"].body])
    assert check_safe(f).safe
    g = conjunction([queries["F1"].body, Not(queries["F2"].body)])
    assert check_safe(g).safe


def test_violation_describe_mentions_rule_and_span(tv_schema):
    f = parse_formula_text("NOT TV-Program(X)", tv_schema)
    report = check_safe(f)
    text = report.violations[0].describe()
    assert "R3-unlimited-var" in text or "R4-bad-negation" in text
    assert "[0..17]" in text


def test_bound_variables_need_limits_too(tv_schema):
    # X is quantified away but its conjunction never limits it.
    f = parse_formula_text('EXISTS X. X != "CBS"', tv_schema)
    assert not check_safe(f).safe


def test_or_under_conjunction(tv_schema):
    f = parse_formula_text(
        'TV-Program(X) AND (X = "Simpsons" OR X = "Gilmore")', tv_schema
    )
    assert check_safe(f).safe


def test_printer_parenthesizes_or_under_and(tv_schema):
    f = parse_formula_text(
        'TV-Program(X) AND (X = "Simpsons" OR X = "Gilmore")', tv_schema
    )
    assert to_text(f) == 'TV-Program(X) AND (X = "Simpsons" OR X = "Gilmore")'
