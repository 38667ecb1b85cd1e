"""Reference domain construction."""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import strategies
from conftest import TV_DIR
from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Not,
    Or,
    QueryDecl,
    Variable,
    evaluate_naive,
    explain_reference_domain,
    free_variables,
    load_instance,
    normalize,
    parse_formula_text,
    reference_domain,
)
from ermine.cli import main
from ermine.domains import _union

ALL_PROGRAMS = {("Gilmore",), ("Hockey Night",), ("Simpsons",), ("Daily Show",)}
WEEKDAY_PAIRS = {("Gilmore", "Global"), ("Gilmore", "CBS"), ("Hockey Night", "CBC")}
WEEKEND_PAIRS = {
    ("Gilmore", "Global"),
    ("Hockey Night", "CBC"),
    ("Simpsons", "CBS"),
    ("Daily Show", "CBC"),
}


def dom(inst, f, variables):
    return reference_domain(inst, normalize(f), variables).members


def single_var_dom(inst, f, x):
    """Independent reimplementation of the one-variable construction."""
    if isinstance(f, Atom):
        if any(isinstance(t, Variable) and t.name == x for t in f.terms):
            return _atom_column(inst, f, x)
        return frozenset()
    if isinstance(f, Comparison):
        for a, b in ((f.left, f.right), (f.right, f.left)):
            if (
                f.op == "="
                and isinstance(a, Variable)
                and a.name == x
                and isinstance(b, Constant)
            ):
                return frozenset({(b.value,)})
        return frozenset()
    if isinstance(f, Not):
        return single_var_dom(inst, f.body, x)
    if isinstance(f, Or):
        return single_var_dom(inst, f.left, x) | single_var_dom(inst, f.right, x)
    if isinstance(f, And):
        out = frozenset()
        for c in f.conjuncts:
            out |= single_var_dom(inst, c, x)
        return out
    if isinstance(f, Exists):
        if f.var == x:
            return frozenset()
        return single_var_dom(inst, f.body, x)
    raise TypeError(f)


def _atom_column(inst, atom, x):
    out = set()
    for row in inst.rows(atom.predicate):
        env = {}
        ok = True
        for t, v in zip(atom.terms, row):
            if isinstance(t, Constant):
                ok = ok and t.value == v
            elif t.name in env:
                ok = ok and env[t.name] == v
            else:
                env[t.name] = v
        if ok:
            out.add((env[x],))
    return frozenset(out)


def test_weekday_query_domain(tv, queries):
    assert dom(tv, queries["F1"].body, ("P",)) == {("Gilmore",), ("Hockey Night",)}


def test_weekend_query_domain(tv, queries):
    assert dom(tv, queries["F2"].body, ("P",)) == ALL_PROGRAMS


@pytest.mark.parametrize("text", ["F1 AND F2", "F1 OR F2", "F1 AND NOT F2"])
def test_combined_queries_use_union(tv, tv_schema, queries, text):
    f = parse_formula_text(text, tv_schema, queries)
    assert dom(tv, f, ("P",)) == ALL_PROGRAMS


def test_pair_domains(tv, tv_schema, queries):
    assert dom(tv, queries["G1"].body, ("P", "SN")) == WEEKDAY_PAIRS
    assert dom(tv, queries["G2"].body, ("P", "SN")) == WEEKEND_PAIRS
    both = parse_formula_text("G1 AND G2", tv_schema, queries)
    assert dom(tv, both, ("P", "SN")) == WEEKDAY_PAIRS | WEEKEND_PAIRS
    assert len(dom(tv, both, ("P", "SN"))) == 5


def test_quantifier_capturing_requested_variable(tv, tv_schema):
    f = parse_formula_text("EXISTS X. TV-Program(X)", tv_schema)
    assert dom(tv, f, ("X",)) == frozenset()


def test_constant_equality_contributes_its_constant(tv, tv_schema):
    assert dom(tv, parse_formula_text('X = "CBS"', tv_schema), ("X",)) == {("CBS",)}
    assert dom(tv, parse_formula_text('X != "CBS"', tv_schema), ("X",)) == frozenset()


def test_variable_equality_contributes_nothing(tv, tv_schema):
    f = parse_formula_text("TV-Program(X) AND X = Y", tv_schema)
    # For X alone the equality adds nothing; the atom carries the domain.
    assert dom(tv, f, ("X",)) == ALL_PROGRAMS


def test_atom_missing_a_requested_variable(tv, tv_schema):
    f = parse_formula_text("TV-Program(X) AND TV-Program(Y)", tv_schema)
    assert dom(tv, f, ("X", "Y")) == frozenset()


def test_negation_is_transparent(tv, queries):
    f = queries["F2"].body
    assert dom(tv, Not(f), ("P",)) == dom(tv, f, ("P",))


def test_equality_cover_produces_tuples(tv, tv_schema):
    f = parse_formula_text('X = "Simpsons" AND Y = "CBS"', tv_schema)
    assert dom(tv, f, ("X", "Y")) == {("Simpsons", "CBS")}


def test_equality_cover_unions_remaining_conjuncts(tv, tv_schema):
    f = parse_formula_text(
        'TV-Program(X) AND X = "Gilmore" AND Y = "CBS"', tv_schema
    )
    # The atom lacks Y, so only the covering equalities contribute.
    assert dom(tv, f, ("X", "Y")) == {("Gilmore", "CBS")}


def test_multiple_equalities_cross_product(tv):
    f = And(
        (
            Comparison(Variable("X"), "=", Constant("a")),
            Comparison(Variable("X"), "=", Constant("b")),
            Comparison(Variable("Y"), "=", Constant("c")),
        )
    )
    assert dom(tv, f, ("X", "Y")) == {("a", "c"), ("b", "c")}


def test_constant_filter_shrinks_atom_projection(tv, tv_schema):
    f = parse_formula_text(
        'EXISTS V. EXISTS S. WeekdayTV("Gilmore", SN, V, S)', tv_schema
    )
    assert dom(tv, f, ("SN",)) == {("Global",), ("CBS",)}


def test_matches_single_variable_reimplementation(tv, tv_schema, queries):
    texts = [
        "F1",
        "F2",
        "F1 AND F2",
        "F1 OR F2",
        "F1 AND NOT F2",
        'TV-Program(X1) AND X1 != "CBS"',
        'TV-Program(X1) OR X1 = "CBS"',
    ]
    for text in texts:
        f = normalize(parse_formula_text(text, tv_schema, queries))
        (x,) = free_variables(f)
        assert dom(tv, f, (x,)) == single_var_dom(tv, f, x)


def test_domain_ignores_unrelated_tables(tv, queries):
    # Extra rows in tables the query never names leave the domain alone.
    tables = {name: set(rows) for name, rows in tv.relations.items()}
    tables["TV-Station"].add(("Nowhere", 9))
    bigger = load_instance(tv.schema, tables)
    assert dom(bigger, queries["F1"].body, ("P",)) == dom(tv, queries["F1"].body, ("P",))


def test_forall_must_be_normalized_away(tv, tv_schema):
    f = parse_formula_text("FORALL X. TV-Program(X)", tv_schema)
    with pytest.raises(ValueError):
        reference_domain(tv, f, ("X",))


def test_variables_required(tv, queries):
    with pytest.raises(ValueError):
        reference_domain(tv, queries["F1"].body, ())


def test_explain_tree_shows_rules_and_members(tv, tv_schema, queries):
    f = normalize(parse_formula_text("F1 AND NOT F2", tv_schema, queries))
    domain, tree = explain_reference_domain(tv, f, ("P",))
    assert domain.members == ALL_PROGRAMS
    rendered = tree.render()
    assert "conjunction-union" in rendered
    assert "negation-transparent" in rendered
    assert "atom-projection" in rendered
    assert "Daily Show" in rendered
    assert reference_domain(tv, f, ("P",)).members == domain.members


SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_a_union_with_an_empty_member_is_the_cached_projection(tv, tv_schema):
    f = parse_formula_text(
        "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V >= 5", tv_schema
    )
    members = reference_domain(tv, normalize(f), ("P",)).members
    assert members is tv.access.projection("WeekdayTV", (0, 1, 2, 3), (0,))


def test_an_atom_domain_lists_its_variables_in_the_order_asked(tv, tv_schema):
    atom = parse_formula_text("WeekdayTV(P, SN, 12, S)", tv_schema)
    assert dom(tv, atom, ("S", "SN", "P")) == {("La Senza", "CBS", "Gilmore")}
    # A union with an operand read without a constant keeps one order.
    f = parse_formula_text(
        "EXISTS V. EXISTS S. (WeekdayTV(P, SN, 10, S) OR WeekdayTV(P, SN, V, S))",
        tv_schema,
    )
    assert dom(tv, f, ("SN", "P")) == {(sn, p) for p, sn in WEEKDAY_PAIRS}


@SETTINGS
@given(strategies.atom_scan_cases())
def test_an_atom_domain_is_its_answers_in_the_order_asked(case):
    inst, atom, _, columns, _ = case
    assume(columns)
    order = columns[::-1]
    expected = evaluate_naive(inst, QueryDecl("q", order, atom)).rows
    assert dom(inst, atom, order) == expected


_ROWS = st.frozensets(st.tuples(st.sampled_from(strategies.NAMES + strategies.WEIGHTS)))


@SETTINGS
@given(st.lists(_ROWS, max_size=4))
@example([frozenset({("a",), ("b",)}), frozenset({("b",), (1,)})])
@example([frozenset({("a",)}), frozenset(), frozenset({("a",), (2,)}), frozenset({(1,)})])
def test_union_is_the_union_of_its_operands(sets):
    members = _union(sets)
    assert members == frozenset().union(*sets)
    # It is one of its operands whenever that operand holds all the others.
    if any(s == members for s in sets):
        assert any(s is members for s in sets)


def _union_nodes(node):
    if node.rule in ("conjunction-union", "disjunction-union"):
        yield node
    for child in node.children:
        yield from _union_nodes(child)


@SETTINGS
@given(strategies.safe_query_cases())
def test_every_union_of_a_domain_tree_is_the_union_of_its_children(case):
    inst, decl = case
    body = normalize(decl.body)
    domain, tree = explain_reference_domain(inst, body, decl.variables)
    assert domain.members == tree.members
    assert domain.members == reference_domain(inst, body, decl.variables).members
    for node in _union_nodes(tree):
        assert node.members == frozenset().union(*(c.members for c in node.children))


def test_domain_explain_pins_the_union_trees(capsys):
    # Recorded before unions shared their operands: a disjunction and a
    # cover whose operands do not contain each other, a conjunction of
    # equal domains and one with an empty member.
    base = [
        "--schema", str(TV_DIR / "schema.json"),
        "--data", str(TV_DIR / "data"),
        "--queries", str(TV_DIR / "queries.erq"),
    ]
    trees = ""
    for query in (
        'q(P) := (F1 AND P = "Nobody") OR F2',
        "q(P) := F1 AND NOT F2",
        "q(P, SN) := G1 OR G2",
    ):
        assert main([*base, "domain", query, "--explain"]) == 0
        trees += capsys.readouterr().err
    assert trees == (TV_DIR / "domain_unions.explain").read_text()
