"""Tokenizer, parser, and type checks."""

import re
import sys

import pytest

from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Forall,
    Not,
    Or,
    QueryParseError,
    Variable,
    free_variables,
    parse_formula_text,
    parse_query,
    parse_query_file,
    to_text,
    tokenize,
)


def test_tokenize_kinds():
    kinds = [t.kind for t in tokenize('F(X, "hi") AND X >= -3  # note')]
    assert kinds == [
        "IDENT",
        "LPAREN",
        "IDENT",
        "COMMA",
        "STRING",
        "RPAREN",
        "IDENT",
        "IDENT",
        "OP",
        "INT",
        "EOF",
    ]


def test_tokenize_hyphenated_identifier():
    tokens = tokenize("TV-Program(X)")
    assert tokens[0].kind == "IDENT"
    assert tokens[0].value == "TV-Program"


def test_tokenize_negative_integer():
    assert tokenize("-12")[0].value == -12
    # A '-' not directly followed by a digit belongs to an identifier.
    assert tokenize("A-B")[0].value == "A-B"


@pytest.mark.parametrize("text", ["²", "-٣", "X = ١"])
def test_tokenize_rejects_non_ascii_digits(text):
    # str.isdigit() holds for these, but integer literals are ASCII only.
    with pytest.raises(QueryParseError, match="unexpected character"):
        tokenize(text)


def test_tokenize_integer_longer_than_int_converts():
    # int() refuses more digits than sys.get_int_max_str_digits() (0 or
    # absent: no limit); such a literal is a parse error at its offset.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = limit or 5000
    assert tokenize(f"X = -{'7' * digits}")[2].value == -int("7" * digits)
    if limit:
        message = f"integer literal has {limit + 1} digits, more than the {limit} allowed"
        with pytest.raises(QueryParseError, match=f"^{re.escape(message)} \\(at offset 4\\)$"):
            tokenize(f"X = -{'7' * (limit + 1)}")


def test_tokenize_string_escapes():
    tok = tokenize(r'"a \"quoted\" \\ name"')[0]
    assert tok.value == 'a "quoted" \\ name'


def test_tokenize_string_errors():
    with pytest.raises(QueryParseError, match="unterminated"):
        tokenize('"open')
    with pytest.raises(QueryParseError, match="unsupported escape"):
        tokenize(r'"bad \n escape"')
    with pytest.raises(QueryParseError, match="newline"):
        tokenize('"line\nbreak"')


def test_tokenize_unexpected_character():
    with pytest.raises(QueryParseError, match="unexpected character"):
        tokenize("F(X) & G(X)")


def test_parse_builds_expected_ast(tv_schema):
    decl = parse_query(
        "q(P) := EXISTS S. EXISTS SN. EXISTS V. WeekdayTV(P, SN, V, S) AND V >= 10",
        tv_schema,
    )
    expected = Exists(
        "S",
        Exists(
            "SN",
            Exists(
                "V",
                And(
                    (
                        Atom(
                            "WeekdayTV",
                            (
                                Variable("P"),
                                Variable("SN"),
                                Variable("V"),
                                Variable("S"),
                            ),
                        ),
                        Comparison(Variable("V"), ">=", Constant(10)),
                    )
                ),
            ),
        ),
    )
    assert decl.body == expected
    assert decl.variables == ("P",)


def test_single_atom_query(tv_schema):
    decl = parse_query("q(X) := TV-Program(X)", tv_schema)
    assert decl.body == Atom("TV-Program", (Variable("X"),))
    assert free_variables(decl.body) == ("X",)


def test_or_binds_more_loosely_than_and(tv_schema):
    f = parse_formula_text(
        "TV-Program(X) OR TV-Program(X) AND TV-Program(X)", tv_schema
    )
    assert isinstance(f, Or)
    assert isinstance(f.right, And)


def test_not_binds_tightest(tv_schema):
    f = parse_formula_text("NOT TV-Program(X) AND TV-Program(X)", tv_schema)
    assert isinstance(f, And)
    assert isinstance(f.conjuncts[0], Not)


def test_quantifier_body_extends_right(tv_schema):
    f = parse_formula_text(
        "EXISTS X. TV-Program(X) AND TV-Program(Y)", tv_schema
    )
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)
    assert free_variables(f) == ("Y",)


def test_parentheses_override(tv_schema):
    f = parse_formula_text(
        "(EXISTS X. TV-Program(X)) AND TV-Program(Y)", tv_schema
    )
    assert isinstance(f, And)
    assert isinstance(f.conjuncts[0], Exists)


def test_and_is_flattened_nary(tv_schema):
    f = parse_formula_text(
        "TV-Program(X) AND TV-Program(X) AND TV-Program(X)", tv_schema
    )
    assert isinstance(f, And)
    assert len(f.conjuncts) == 3


def test_forall_parses(tv_schema):
    f = parse_formula_text("FORALL X. TV-Program(X)", tv_schema)
    assert isinstance(f, Forall)


def test_comparison_with_constant_left(tv_schema):
    f = parse_formula_text('10 <= V AND EXISTS S. EXISTS SN. WeekdayTV(P, SN, V, S)', tv_schema)
    assert isinstance(f.conjuncts[0], Comparison)
    assert f.conjuncts[0].left == Constant(10)


def test_unknown_predicate(tv_schema):
    with pytest.raises(QueryParseError, match="unknown predicate"):
        parse_query("q(X) := Nope(X)", tv_schema)


def test_arity_mismatch(tv_schema):
    with pytest.raises(QueryParseError, match="takes 4 arguments, got 2"):
        parse_query("q(P) := WeekdayTV(P, SN)", tv_schema)


def test_head_must_match_free_variables(tv_schema):
    with pytest.raises(QueryParseError, match="free in body but not declared: X"):
        parse_query("q() := TV-Program(X)", tv_schema)
    with pytest.raises(QueryParseError, match="declared but not free in body: Y"):
        parse_query("q(X, Y) := TV-Program(X)", tv_schema)


def test_duplicate_head_variable(tv_schema):
    with pytest.raises(QueryParseError, match="repeated head variable"):
        parse_query("q(X, X) := TV-Program(X)", tv_schema)


def test_variables_must_start_uppercase(tv_schema):
    with pytest.raises(QueryParseError, match="uppercase"):
        parse_query("q(x) := TV-Program(x)", tv_schema)


def test_error_positions_are_reported(tv_schema):
    with pytest.raises(QueryParseError, match="at offset 8"):
        parse_query("q(X) := Nope(X)", tv_schema)


def test_keyword_cannot_be_a_query_name(tv_schema):
    with pytest.raises(QueryParseError, match="keyword"):
        parse_query("NOT(X) := TV-Program(X)", tv_schema)


def test_unregistered_name_is_an_error(tv_schema):
    with pytest.raises(QueryParseError, match="neither a registered query name"):
        parse_query("q(P) := F1", tv_schema)


def test_registry_splices_bodies(tv_schema, queries):
    decl = parse_query("F12(P) := F1 AND F2", tv_schema, queries)
    assert isinstance(decl.body, And)
    assert decl.body.conjuncts == (queries["F1"].body, queries["F2"].body)


def test_constant_type_checked_against_field(tv_schema):
    with pytest.raises(QueryParseError, match="does not match the string field"):
        parse_formula_text("TV-Program(7)", tv_schema)
    with pytest.raises(QueryParseError, match="does not match the integer field"):
        parse_formula_text('EXISTS SN. TV-Station(SN, "big")', tv_schema)


def test_variable_cannot_mix_types(tv_schema):
    with pytest.raises(QueryParseError, match="both as"):
        parse_formula_text(
            "EXISTS SN. EXISTS S. WeekdayTV(P, SN, X, S) AND TV-Program(X)",
            tv_schema,
        )
    with pytest.raises(QueryParseError, match="mixes"):
        parse_formula_text("TV-Program(X) AND X = 3", tv_schema)


def test_ordering_comparisons_need_integers(tv_schema):
    with pytest.raises(QueryParseError, match="integer operands"):
        parse_formula_text('TV-Program(X) AND X > "Simpsons"', tv_schema)
    with pytest.raises(QueryParseError, match="cannot infer"):
        parse_formula_text("X > Y OR X > Y", tv_schema)


def test_equality_propagates_types(tv_schema):
    # V gets its integer type through Y, so the ordering comparison is fine.
    f = parse_formula_text(
        "EXISTS SN. EXISTS S. EXISTS V. EXISTS Y. "
        "WeekdayTV(P, SN, V, S) AND Y = V AND Y >= 10",
        tv_schema,
    )
    assert free_variables(f) == ("P",)


def test_mixed_type_comparison_rejected(tv_schema):
    with pytest.raises(QueryParseError, match="mixes"):
        parse_formula_text('EXISTS SN. TV-Station(SN, A) AND A = "big"', tv_schema)


def test_query_file_registry_and_comments(tv_schema):
    text = """\
# named queries
F1(P) := EXISTS S. EXISTS SN. EXISTS V. WeekdayTV(P, SN, V, S) AND V >= 10

F3(P) := F1 AND EXISTS S. EXISTS SN. EXISTS V. WeekendTV(P, SN, V, S)
"""
    registry = parse_query_file(text, tv_schema)
    assert list(registry) == ["F1", "F3"]
    assert isinstance(registry["F3"].body, And)


def test_query_file_reports_line_numbers(tv_schema):
    with pytest.raises(QueryParseError, match="line 2:"):
        parse_query_file("q(X) := TV-Program(X)\nbad(X) := Nope(X)\n", tv_schema)


def test_query_file_rejects_duplicates(tv_schema):
    text = "q(X) := TV-Program(X)\nq(X) := TV-Program(X)\n"
    with pytest.raises(QueryParseError, match="duplicate query name"):
        parse_query_file(text, tv_schema)


def test_fixture_queries_round_trip(tv_schema, queries):
    for decl in queries.values():
        assert parse_formula_text(to_text(decl.body), tv_schema) == decl.body


def test_round_trip_of_mixed_connectives(tv_schema):
    text = (
        'TV-Program(X) AND NOT (TV-Program(X) OR X = "CBS") '
        "AND (EXISTS Y. TV-Program(Y))"
    )
    f = parse_formula_text(text, tv_schema)
    assert parse_formula_text(to_text(f), tv_schema) == f
