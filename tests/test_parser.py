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
    check_safe,
    free_variables,
    parse_formula_text,
    parse_query,
    parse_query_file,
    subformulas,
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


# Golden tokenizer corpus: every token kind with its exact value and
# offsets, and every lexical error with its exact message and offset (an
# over-long integer is pinned by test_tokenize_integer_longer_than_int_converts).
TOKEN_CORPUS = [
    (
        'q(X, SN) := EXISTS V. F(X, "hi", -3) AND X >= 10 OR X != Y '
        'AND X <= 2 AND X < 1 AND X > 0 AND X = "a"',
        [
            ("IDENT", "q", 0, 1), ("LPAREN", "(", 1, 2), ("IDENT", "X", 2, 3),
            ("COMMA", ",", 3, 4), ("IDENT", "SN", 5, 7), ("RPAREN", ")", 7, 8),
            ("ASSIGN", ":=", 9, 11), ("IDENT", "EXISTS", 12, 18),
            ("IDENT", "V", 19, 20), ("DOT", ".", 20, 21), ("IDENT", "F", 22, 23),
            ("LPAREN", "(", 23, 24), ("IDENT", "X", 24, 25), ("COMMA", ",", 25, 26),
            ("STRING", "hi", 27, 31), ("COMMA", ",", 31, 32), ("INT", -3, 33, 35),
            ("RPAREN", ")", 35, 36), ("IDENT", "AND", 37, 40), ("IDENT", "X", 41, 42),
            ("OP", ">=", 43, 45), ("INT", 10, 46, 48), ("IDENT", "OR", 49, 51),
            ("IDENT", "X", 52, 53), ("OP", "!=", 54, 56), ("IDENT", "Y", 57, 58),
            ("IDENT", "AND", 59, 62), ("IDENT", "X", 63, 64), ("OP", "<=", 65, 67),
            ("INT", 2, 68, 69), ("IDENT", "AND", 70, 73), ("IDENT", "X", 74, 75),
            ("OP", "<", 76, 77), ("INT", 1, 78, 79), ("IDENT", "AND", 80, 83),
            ("IDENT", "X", 84, 85), ("OP", ">", 86, 87), ("INT", 0, 88, 89),
            ("IDENT", "AND", 90, 93), ("IDENT", "X", 94, 95), ("OP", "=", 96, 97),
            ("STRING", "a", 98, 101), ("EOF", None, 101, 101),
        ],
    ),
    (
        # Hyphens join letters only: '-' before a digit starts an integer.
        "TV-Program(P) AND A-B-C_1 OR A-1 x_y-Z9 B2-c",
        [
            ("IDENT", "TV-Program", 0, 10), ("LPAREN", "(", 10, 11),
            ("IDENT", "P", 11, 12), ("RPAREN", ")", 12, 13), ("IDENT", "AND", 14, 17),
            ("IDENT", "A-B-C_1", 18, 25), ("IDENT", "OR", 26, 28), ("IDENT", "A", 29, 30),
            ("INT", -1, 30, 32), ("IDENT", "x_y-Z9", 33, 39), ("IDENT", "B2-c", 40, 44),
            ("EOF", None, 44, 44),
        ],
    ),
    (
        "-12 X=-0 A-B -7-8 007",
        [
            ("INT", -12, 0, 3), ("IDENT", "X", 4, 5), ("OP", "=", 5, 6),
            ("INT", 0, 6, 8), ("IDENT", "A-B", 9, 12), ("INT", -7, 13, 15),
            ("INT", -8, 15, 17), ("INT", 7, 18, 21), ("EOF", None, 21, 21),
        ],
    ),
    (
        r'"a \"q\" \\ b" "" "\\" "\"" "é # x"',
        [
            ("STRING", 'a "q" \\ b', 0, 14), ("STRING", "", 15, 17),
            ("STRING", "\\", 18, 22), ("STRING", '"', 23, 27),
            ("STRING", "é # x", 28, 35), ("EOF", None, 35, 35),
        ],
    ),
    (
        "F(X) # note\nAND G(X) # end",
        [
            ("IDENT", "F", 0, 1), ("LPAREN", "(", 1, 2), ("IDENT", "X", 2, 3),
            ("RPAREN", ")", 3, 4), ("IDENT", "AND", 12, 15), ("IDENT", "G", 16, 17),
            ("LPAREN", "(", 17, 18), ("IDENT", "X", 18, 19), ("RPAREN", ")", 19, 20),
            ("EOF", None, 26, 26),
        ],
    ),
    ("# only a comment", [("EOF", None, 16, 16)]),
    ("# comment\n", [("EOF", None, 10, 10)]),
    (
        "F(X)\t\r\nAND\tG(Y)\r\n",
        [
            ("IDENT", "F", 0, 1), ("LPAREN", "(", 1, 2), ("IDENT", "X", 2, 3),
            ("RPAREN", ")", 3, 4), ("IDENT", "AND", 7, 10), ("IDENT", "G", 11, 12),
            ("LPAREN", "(", 12, 13), ("IDENT", "Y", 13, 14), ("RPAREN", ")", 14, 15),
            ("EOF", None, 17, 17),
        ],
    ),
    ("", [("EOF", None, 0, 0)]),
    (
        ":=:= <=>= =<",
        [
            ("ASSIGN", ":=", 0, 2), ("ASSIGN", ":=", 2, 4), ("OP", "<=", 5, 7),
            ("OP", ">=", 7, 9), ("OP", "=", 10, 11), ("OP", "<", 11, 12),
            ("EOF", None, 12, 12),
        ],
    ),
]

TOKEN_ERRORS = [
    ('X = "open', "unterminated string literal", 4),
    ('"ab\\', "unterminated string literal", 0),
    ('"x\\"', "unterminated string literal", 0),
    (r'X = "bad \n escape"', "unsupported escape \\n", 9),
    ('X = "a\\\nb"', "unsupported escape \\\n", 6),
    ('"line\nbreak"', "newline inside string literal", 5),
    ('"\r\n"', "newline inside string literal", 2),
    ("X - 1", "unexpected character '-'", 2),
    ("-", "unexpected character '-'", 0),
    ("A-", "unexpected character '-'", 1),
    ("A--1", "unexpected character '-'", 1),
    ("X : 1", "unexpected character ':'", 2),
    ("X ! Y", "unexpected character '!'", 2),
    ("F(X) & G(X)", "unexpected character '&'", 5),
    ("F(X)\fAND G(X)", "unexpected character '\\x0c'", 4),
    ("X = ١", "unexpected character '١'", 4),
    ("²", "unexpected character '²'", 0),
]


@pytest.mark.parametrize("text, expected", TOKEN_CORPUS)
def test_tokenize_golden_corpus(text, expected):
    assert [(t.kind, t.value, t.start, t.end) for t in tokenize(text)] == expected


@pytest.mark.parametrize("text, message, offset", TOKEN_ERRORS)
def test_tokenize_golden_errors(text, message, offset):
    with pytest.raises(QueryParseError) as info:
        tokenize(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.pos == offset


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


def test_error_in_a_spliced_body_reports_the_name_offset(tv_schema, queries):
    # P is an integer through TV-Station and a string inside F1's body; the
    # offset is F1's in this text, not WeekdayTV's in F1's own declaration.
    text = "B(P) := EXISTS A. TV-Station(A, P) AND F1"
    with pytest.raises(QueryParseError) as info:
        parse_query(text, tv_schema, queries)
    assert str(info.value) == (
        "variable P is used both as integer and as string (at offset 39)"
    )
    assert text[39:41] == "F1"


def test_spliced_body_nodes_take_the_name_span(tv_schema):
    registry = parse_query_file(
        "N(P, SN) := TV-Program(P) OR EXISTS A. TV-Station(SN, A)\n", tv_schema
    )
    text = 'M(P, SN) := EXISTS V. WeekdayTV(P, SN, V, "Avon") AND N'
    decl = parse_query(text, tv_schema, registry)
    spliced = decl.body.body.conjuncts[1]
    assert spliced == registry["N"].body
    assert {g.span for g in subformulas(spliced)} == {(54, 55)}
    [violation] = check_safe(decl.body).violations
    assert violation.describe() == (
        "R2-disjunct-vars: TV-Program(P) OR EXISTS A. TV-Station(SN, A) [54..55]"
    )


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


def test_or_spliced_on_the_right_of_an_or_round_trips(tv_schema):
    registry = parse_query_file('B(P) := P = "Gilmore" OR P = "Simpsons"\n', tv_schema)
    decl = parse_query("q(P) := TV-Program(P) OR B", tv_schema, registry)
    assert decl.body.right == registry["B"].body
    text = to_text(decl.body)
    assert text == 'TV-Program(P) OR (P = "Gilmore" OR P = "Simpsons")'
    assert parse_formula_text(text, tv_schema) == decl.body


def test_keyword_where_a_formula_starts_is_an_error(tv_schema):
    with pytest.raises(QueryParseError, match=r"^unexpected keyword OR \(at offset 26\)$"):
        parse_query("q(P) := TV-Program(P) AND OR", tv_schema)
