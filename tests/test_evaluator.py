"""Both evaluation routes: set operations and brute-force enumeration."""

import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from conftest import TV_DIR
from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    DataError,
    EvaluationError,
    Exists,
    QueryDecl,
    Relation,
    UnsafeQueryError,
    Variable,
    evaluate,
    evaluate_naive,
    evaluation_vocabulary,
    frequency,
    load_instance,
    load_instance_dir,
    load_schema,
    normalize,
    parse_formula_text,
    parse_query,
    reference_domain,
    satisfies,
    sorted_rows,
)
from ermine.cli import build_arg_parser, load_session, run_domain, run_eval, run_freq
from ermine.evaluator import _project, atom_rows

F1_ROWS = {("Gilmore",), ("Hockey Night",)}
F2_ROWS = {("Hockey Night",), ("Simpsons",)}


def rows(inst, decl):
    return evaluate(inst, decl).rows


def test_ground_atom_satisfaction(tv, tv_schema):
    holds = parse_formula_text(
        'WeekdayTV("Gilmore", "CBS", 12, "La Senza")', tv_schema
    )
    assert satisfies(tv, holds)
    weekend_only = parse_formula_text(
        'WeekdayTV("Simpsons", "CBS", 10, "RBC")', tv_schema
    )
    assert not satisfies(tv, weekend_only)


def test_constant_comparisons_fold(tv, tv_schema):
    assert satisfies(tv, parse_formula_text("12 >= 10", tv_schema))
    assert not satisfies(tv, parse_formula_text("1 > 2", tv_schema))


def test_satisfies_uses_binding(tv, tv_schema, queries):
    body = queries["F1"].body
    assert satisfies(tv, body, {"P": "Gilmore"})
    assert not satisfies(tv, body, {"P": "Simpsons"})


def test_unbound_variable_is_an_error(tv, tv_schema):
    with pytest.raises(EvaluationError, match="unbound"):
        satisfies(tv, parse_formula_text("TV-Program(X)", tv_schema))


def test_cross_type_comparisons(tv):
    eq = Comparison(Constant(1), "=", Constant("a"))
    ne = Comparison(Constant(1), "!=", Constant("a"))
    lt = Comparison(Constant(1), "<", Constant("a"))
    assert not satisfies(tv, eq)
    assert satisfies(tv, ne)
    assert not satisfies(tv, lt)


def test_weekday_hits(tv, queries):
    assert rows(tv, queries["F1"]) == F1_ROWS


def test_weekend_hits(tv, queries):
    assert rows(tv, queries["F2"]) == F2_ROWS


def test_conjunction_intersects(tv, combine):
    assert rows(tv, combine("q(P) := F1 AND F2")) == {("Hockey Night",)}


def test_disjunction_unions(tv, combine):
    assert rows(tv, combine("q(P) := F1 OR F2")) == F1_ROWS | F2_ROWS


def test_negated_conjunct_subtracts(tv, combine):
    assert rows(tv, combine("q(P) := F1 AND NOT F2")) == {("Gilmore",)}


def test_pair_query(tv, queries):
    assert rows(tv, queries["G1"]) == {("Gilmore", "CBS"), ("Hockey Night", "CBC")}
    assert rows(tv, queries["G2"]) == {("Hockey Night", "CBC")}


def test_result_columns_follow_declared_head(tv, tv_schema):
    decl = parse_query(
        "q(SN, P) := EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V > 10",
        tv_schema,
    )
    rel = evaluate(tv, decl)
    assert rel.columns == ("SN", "P")
    assert rel.rows == {("CBS", "Gilmore"), ("CBC", "Hockey Night")}


def test_a_head_other_than_the_evaluated_columns_is_an_error(tv):
    decl = QueryDecl(None, ("P", "Q"), Atom("TV-Program", (Variable("P"),)))
    with pytest.raises(
        EvaluationError,
        match=r"^evaluated columns \('P',\) do not match the declared head \('P', 'Q'\)$",
    ):
        evaluate(tv, decl)


def test_an_atom_over_an_unknown_table_is_a_data_error(tv):
    decl = QueryDecl(None, ("P",), Atom("Nope", (Variable("P"),)))
    with pytest.raises(DataError, match="^instance has no table 'Nope'$"):
        evaluate(tv, decl)


def test_constant_in_atom_filters(tv, tv_schema):
    decl = parse_query(
        'q(SN) := EXISTS V. EXISTS S. WeekdayTV("Gilmore", SN, V, S)', tv_schema
    )
    assert rows(tv, decl) == {("Global",), ("CBS",)}


def test_repeated_variable_in_atom():
    schema = load_schema(
        {
            "tables": [
                {"name": "N", "fields": [{"name": "id", "type": "string", "key": True}]},
                {
                    "name": "E",
                    "fields": [
                        {"name": "s", "type": "string", "key": True, "references": "N.id"},
                        {"name": "t", "type": "string", "key": True, "references": "N.id"},
                    ],
                },
            ]
        }
    )
    inst = load_instance(
        schema, {"N": [("a",), ("b",)], "E": [("a", "a"), ("a", "b")]}
    )
    decl = parse_query("loops(X) := E(X, X)", schema)
    assert rows(inst, decl) == {("a",)}
    assert evaluate_naive(inst, decl).rows == {("a",)}


def test_lone_equality_binds(tv, tv_schema):
    decl = parse_query('q(X) := X = "CBS"', tv_schema)
    assert rows(tv, decl) == {("CBS",)}


def test_chained_equalities_bind(tv, tv_schema):
    decl = parse_query('q(X, Y) := X = "CBS" AND Y = X', tv_schema)
    assert rows(tv, decl) == {("CBS", "CBS")}


def test_quantifier_only_query_yields_boolean_relation(tv, tv_schema):
    some = parse_query("q() := EXISTS X. TV-Program(X)", tv_schema)
    rel = evaluate(tv, some)
    assert rel.columns == ()
    assert rel.rows == {()}
    none = parse_query('q() := EXISTS X. TV-Program(X) AND X = "Avon"', tv_schema)
    assert evaluate(tv, none).rows == frozenset()


def test_unsafe_query_rejected(tv, combine):
    with pytest.raises(UnsafeQueryError):
        evaluate(tv, combine("q(P) := NOT F1"))


def test_enumeration_route_agrees_on_fixture(tv, queries, combine):
    combos = [
        queries["F1"],
        queries["F2"],
        queries["G1"],
        combine("q(P) := F1 AND F2"),
        combine("q(P) := F1 OR F2"),
        combine("q(P) := F1 AND NOT F2"),
        combine("q(P, SN) := G1 AND NOT G2"),
    ]
    for decl in combos:
        fast = evaluate(tv, decl)
        slow = evaluate_naive(tv, decl)
        assert fast.columns == slow.columns
        assert fast.rows == slow.rows


@pytest.mark.parametrize("head", ["P, SN", "SN, P"])
@pytest.mark.parametrize(
    "body",
    [
        # The OR's branches meet P and SN in opposite orders.
        "(EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V > 10) OR "
        '(EXISTS A. TV-Station(SN, A) AND A = 1 AND P = "Simpsons")',
        # An equality binds a head variable before any atom mentions it.
        'SN = "CBS" AND TV-Program(P)',
        "SN = P AND TV-Program(P)",
        '(SN = "CBS" AND TV-Program(P)) OR (EXISTS V. EXISTS S. '
        "WeekendTV(P, SN, V, S))",
    ],
)
def test_column_order_inside_the_body_does_not_matter(tv, tv_schema, head, body):
    decl = parse_query(f"q({head}) := {body}", tv_schema)
    fast = evaluate(tv, decl)
    assert fast == evaluate_naive(tv, decl)
    assert fast.rows


def test_enumeration_on_empty_instance(tv_schema):
    empty = load_instance(tv_schema, {})
    decl = parse_query("q(X) := TV-Program(X)", tv_schema)
    assert evaluate_naive(empty, decl).rows == frozenset()
    assert evaluate(empty, decl).rows == frozenset()


def test_extra_vocabulary_does_not_change_safe_results(tv, queries, combine):
    junk = ("Nobody", 999)
    for decl in [queries["F1"], combine("q(P) := F1 AND NOT F2")]:
        assert evaluate_naive(tv, decl, junk).rows == evaluate(tv, decl).rows
        assert evaluate_naive(tv, decl, junk).rows == evaluate_naive(tv, decl).rows


def test_vocabulary_contents(tv, tv_schema):
    f = parse_formula_text('TV-Program(X) AND X != "Zorro"', tv_schema)
    vocab = evaluation_vocabulary(tv, f)
    assert "Zorro" in vocab
    assert tv.active_domain <= vocab


def test_relation_row_length_checked():
    with pytest.raises(ValueError):
        Relation(("a", "b"), frozenset({("only",)}))
    # Of several misfit rows, the least by row_key is named, whatever the
    # set order: integers before strings, then each type in its own order.
    misfits = {(f"r{i:02}",) for i in range(50)} | {("x", "y", "z"), ("ok", "fine")}
    with pytest.raises(ValueError, match=r"^row \('r00',\) does not fit columns \('a', 'b'\)$"):
        Relation(("a", "b"), frozenset(misfits))
    with pytest.raises(ValueError, match=r"^row \(3,\) does not fit"):
        Relation(("a", "b"), frozenset(misfits | {(3,), (4, 5, 6), (-9, "x")}))
    with pytest.raises(ValueError, match=r"^row \(-1, 2, 3\) does not fit"):
        Relation(("a", "b"), frozenset(misfits | {(3,), (-1, 2, 3), (-9, "x")}))


def test_sorted_rows_orders_mixed_types():
    rel = Relation(("x",), frozenset({("b",), (2,), ("a",), (1,)}))
    assert sorted_rows(rel) == [(1,), (2,), ("a",), ("b",)]


def test_sorted_rows_orders_a_mixed_column_beside_a_plain_one():
    # Column x holds strings only and y both types, so the rows' own
    # order would compare 2 with "b"; integers still come first in y.
    rel = Relation(("x", "y"), frozenset({("a", 2), ("a", "b"), ("b", "a"), ("a", 1)}))
    assert sorted_rows(rel) == [("a", 1), ("a", 2), ("a", "b"), ("b", "a")]


_LISTING = "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)"


@pytest.mark.parametrize(
    "body, expected",
    [
        (f"{_LISTING} AND 12 <= V", {("Gilmore",), ("Hockey Night",)}),
        (f"{_LISTING} AND 12 > V", {("Gilmore",)}),
        (f'{_LISTING} AND P = "Gilmore" AND "CBS" = SN', {("Gilmore",)}),
        (f'{_LISTING} AND P = "Gilmore" AND SN = "CBC"', set()),
        (f'{_LISTING} AND P = "Gilmore" AND P = "Hockey Night"', set()),
        ('EXISTS SN. EXISTS V. WeekdayTV(P, SN, V, "Avon") AND V < 12', {("Gilmore",)}),
    ],
)
def test_pushed_comparisons_agree_with_enumeration(tv, tv_schema, body, expected):
    decl = parse_query(f"q(P) := {body}", tv_schema)
    fast = evaluate(tv, decl)
    assert fast == evaluate_naive(tv, decl)
    assert set(fast.rows) == expected


_P, _V, _S = Variable("P"), Variable("V"), Variable("S")


@pytest.mark.parametrize(
    "comparisons, expected",
    [
        ((Comparison(_V, ">=", Constant("10")),), set()),
        ((Comparison(Constant("10"), "!=", _V),), {("Gilmore",), ("Hockey Night",)}),
        ((Comparison(_S, "=", Constant(10)),), set()),
        ((Comparison(Constant(10), "<", _S),), set()),
        ((Comparison(_S, "!=", Constant(10)), Comparison(_V, "<", Constant(12))), {("Gilmore",)}),
        # An index bucket answers the equality; the rest filter its rows.
        ((Comparison(_P, "=", Constant("Gilmore")), Comparison(_V, "<", Constant("z"))), set()),
        ((Comparison(_P, "=", Constant("Gilmore")), Comparison(Constant(5), "<", _S)), set()),
        (
            (Comparison(_P, "=", Constant("Gilmore")), Comparison(_V, "!=", Constant("z"))),
            {("Gilmore",)},
        ),
    ],
)
def test_pushed_cross_type_comparisons(tv, tv_schema, comparisons, expected):
    # The parser rejects these texts, so the bodies are built directly.
    listing = parse_formula_text("WeekdayTV(P, SN, V, S)", tv_schema)
    body = Exists("SN", Exists("V", Exists("S", And((listing, *comparisons)))))
    decl = QueryDecl("q", ("P",), body)
    fast = evaluate(tv, decl)
    assert fast == evaluate_naive(tv, decl)
    assert set(fast.rows) == expected


def test_pushed_comparison_beside_a_repeated_variable(tv):
    # No listing has as many viewers as its sponsor's name.
    listing = Atom("WeekdayTV", (Variable("P"), Variable("SN"), _V, _V))
    body = Exists("SN", Exists("V", And((listing, Comparison(_V, "!=", Constant(0))))))
    decl = QueryDecl("q", ("P",), body)
    assert evaluate(tv, decl) == evaluate_naive(tv, decl)
    assert not evaluate(tv, decl).rows


def test_pushed_comparisons_on_both_sides_of_a_join(tv, tv_schema):
    decl = parse_query(
        "q(P) := EXISTS SN. EXISTS V. EXISTS S. EXISTS V2. EXISTS S2. "
        "WeekdayTV(P, SN, V, S) AND WeekendTV(P, SN, V2, S2) AND V > 9 AND 9 > V2",
        tv_schema,
    )
    assert evaluate(tv, decl).rows == {("Gilmore",)}


def test_quantifier_chain_with_shadowing(tv, tv_schema):
    decl = parse_query("q(X) := EXISTS P. EXISTS P. TV-Program(P) AND P = X", tv_schema)
    fast = evaluate(tv, decl)
    assert fast == evaluate_naive(tv, decl)
    assert len(fast.rows) == 4


def test_filled_access_path_leaves_the_instance_unchanged(tv_schema, queries, combine):
    inst = load_instance_dir(tv_schema, TV_DIR / "data")
    before = repr(inst)
    decls = [
        *queries.values(),
        combine('q(P) := EXISTS SN. EXISTS V. WeekendTV(P, SN, V, "RBC") AND V > 5'),
        combine('q(P, SN) := EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND P = "Gilmore"'),
    ]
    for decl in decls:
        evaluate(inst, decl)
        reference_domain(inst, normalize(decl.body), decl.variables)
        frequency(inst, decl)
    fresh = load_instance_dir(tv_schema, TV_DIR / "data")
    assert inst == fresh
    assert repr(inst) == before == repr(fresh)


def test_domain_explain_is_the_same_on_a_warm_session(capsys):
    ns = build_arg_parser().parse_args(
        [
            "--schema", str(TV_DIR / "schema.json"),
            "--data", str(TV_DIR / "data"),
            "--queries", str(TV_DIR / "queries.erq"),
            "repl",
        ]
    )
    names = ("F1", "F2", "G1", "G2")

    def explain(session, name):
        run_domain(session, name, explain=True)
        return capsys.readouterr()

    cold = [explain(load_session(ns), name) for name in names]
    warm = load_session(ns)
    for name in names:
        run_eval(warm, name)
        run_freq(warm, name)
        run_domain(warm, name)
    capsys.readouterr()
    assert [explain(warm, name) for name in names] == cold
    assert all(c.err for c in cold)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("q() := NOT (EXISTS Z. TV-Program(Z))", {()}),
        # Over an empty vocabulary a vacuous existential is false, also
        # inside a chain of quantifiers and when a quantifier is repeated.
        ("q() := EXISTS Y. NOT (EXISTS Z. TV-Program(Z))", set()),
        ("q() := EXISTS Y. EXISTS Y. NOT (EXISTS Z. TV-Program(Z))", set()),
    ],
)
def test_vacuous_quantifiers_on_an_empty_instance(tv_schema, text, expected):
    empty = load_instance(tv_schema, {})
    decl = parse_query(text, tv_schema)
    assert evaluate(empty, decl).rows == expected
    assert evaluate_naive(empty, decl).rows == expected


SETTINGS = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(SETTINGS, max_examples=300)
@given(strategies.atom_scan_cases())
def test_an_atom_builds_only_its_kept_columns(case):
    inst, atom, tests, columns, kept = case
    # Each variable's test sits at the table position where it first occurs.
    first = {}
    for i, t in enumerate(atom.terms):
        if isinstance(t, Variable):
            first.setdefault(t.name, i)
    tests = [(first[var], op, value) for var, op, value in tests]
    cold = Relation(kept, atom_rows(inst, atom, tests, kept))
    whole = Relation(columns, atom_rows(inst, atom, tests, columns))
    assert cold == _project(whole, kept)
    # Columns asked for in reverse come back reversed.
    assert atom_rows(inst, atom, tests, kept[::-1]) == {r[::-1] for r in cold.rows}
    assert atom_rows(inst, atom, tests, columns[::-1]) == {r[::-1] for r in whole.rows}
    # Again on the access path the first two scans filled.
    assert atom_rows(inst, atom, tests, kept) == cold.rows


# Conjunctions under EXISTS in which another part reads a quantified
# column of the listing atom, so the atom must build it.  Each has at most
# three quantifiers: the oracle enumerates the vocabulary once per
# quantifier.
QUANTIFIED_COLUMN_READERS = {
    "negated conjunct": "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) "
    "AND V >= 5 AND NOT TV-Station(SN, 1)",
    "variable equality": "EXISTS SN. EXISTS V. EXISTS V2. "
    'WeekdayTV(P, SN, V, "RBC") AND WeekendTV(P, SN, V2, "RBC") AND V = V2',
    "variable order": "EXISTS SN. EXISTS V. EXISTS V2. "
    'WeekdayTV(P, SN, V, "Avon") AND WeekendTV(P, SN, V2, "Avon") AND V > V2',
    "second atom": "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) "
    "AND TV-Station(SN, 2)",
    "second listing": "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) "
    "AND WeekendTV(P, SN, 10, S)",
    "or conjunct": "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) "
    'AND V >= 10 AND (TV-Station(SN, 1) OR SN = "CBS")',
}


@pytest.mark.parametrize("name", sorted(QUANTIFIED_COLUMN_READERS))
def test_a_quantified_column_read_elsewhere_is_built_on_the_fixture(tv, tv_schema, name):
    decl = parse_query(f"q(P) := {QUANTIFIED_COLUMN_READERS[name]}", tv_schema)
    fast = evaluate(tv, decl)
    slow = {
        (p,)
        for (p,) in tv.rows("TV-Program")
        if satisfies(tv, decl.body, {"P": p})
    }
    assert fast.rows == slow


@pytest.mark.parametrize("name", sorted(QUANTIFIED_COLUMN_READERS))
@settings(SETTINGS, max_examples=100)
@given(inst=strategies.tv_instances())
def test_a_quantified_column_read_elsewhere_is_built(tv_schema, name, inst):
    decl = parse_query(f"q(P) := {QUANTIFIED_COLUMN_READERS[name]}", tv_schema)
    assert evaluate(inst, decl) == evaluate_naive(inst, decl)


def test_naive_enumeration_reads_forall_as_evaluate_reads_its_rewrite(tv, tv_schema):
    # Programs all of whose weekend listings are on CBC.  A FORALL over a
    # variable its body mentions is never safe, so evaluate takes the
    # safe-range form of the same query.
    forall = parse_query(
        "q(P) := TV-Program(P) AND FORALL SN. "
        '(NOT EXISTS V. EXISTS S. WeekendTV(P, SN, V, S)) OR SN = "CBC"',
        tv_schema,
    )
    rewritten = parse_query(
        "q(P) := TV-Program(P) AND NOT (EXISTS SN. EXISTS V. EXISTS S. "
        'WeekendTV(P, SN, V, S) AND SN != "CBC")',
        tv_schema,
    )
    expected = evaluate(tv, rewritten)
    assert sorted_rows(expected) == [("Daily Show",), ("Hockey Night",)]
    assert evaluate_naive(tv, forall) == expected
