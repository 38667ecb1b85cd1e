"""Entity variables, entity queries, and validity."""

import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Not,
    UnsafeQueryError,
    Variable,
    conjunction,
    entity_variable_candidates,
    is_er_query,
    is_valid_for,
    normalize,
    parse_formula_text,
    to_text,
)
from ermine.entities import _entity_facts


def test_head_variable_of_fixture_query_is_entity(tv, queries):
    report = is_er_query(queries["F1"].body, tv)
    assert report.is_er
    assert report.entity_vars == {"P"}
    assert report.failures == ()


def test_pair_query_is_entity(tv, queries):
    report = is_er_query(queries["G1"].body, tv)
    assert report.is_er
    assert report.entity_vars == {"P", "SN"}


def test_candidates_of_fixture_query(tv, queries):
    # The quantified variables are disqualified, P survives.
    assert entity_variable_candidates(queries["F1"].body, tv) == {"P"}


def test_viewers_query_is_safe_but_not_entity(tv, tv_schema):
    f = parse_formula_text(
        'EXISTS S. EXISTS SN. WeekdayTV("Gilmore Girls", SN, V, S)', tv_schema
    )
    report = is_er_query(f, tv)
    assert not report.is_er
    assert [(x.variable, x.reason) for x in report.failures] == [
        ("V", "non-entity-field")
    ]


def test_ordering_comparison_disqualifies():
    # Built directly: the parser would reject ordering over strings.
    inst = _tiny_instance()
    f = And(
        (
            Atom("Person", (Variable("X"),)),
            Comparison(Variable("X"), ">", Constant("ann")),
        )
    )
    assert "X" not in entity_variable_candidates(f, inst)


def test_non_entity_constant_disqualifies(tv, tv_schema):
    f = parse_formula_text('TV-Program(X) AND X != "Avon"', tv_schema)
    report = is_er_query(f, tv)
    assert not report.is_er
    assert report.failures[0].reason == "non-entity-constant"


def test_entity_constant_comparison_is_fine(tv, tv_schema):
    f = parse_formula_text('TV-Program(X) AND X != "CBS"', tv_schema)
    assert is_er_query(f, tv).is_er


def test_quantified_variables_are_not_candidates(tv, tv_schema):
    f = parse_formula_text("EXISTS X. TV-Program(X) AND TV-Program(Y)", tv_schema)
    candidates = entity_variable_candidates(f, tv)
    assert "Y" in candidates
    assert "X" not in candidates


def test_equality_with_non_candidate_disqualifies(tv, tv_schema):
    # Y is quantified over, so equating X with it drags X down as well.
    f = parse_formula_text(
        "EXISTS A. EXISTS Y. TV-Program(X) AND TV-Station(Y, A) AND X != Y",
        tv_schema,
    )
    report = is_er_query(f, tv)
    assert not report.is_er
    assert [(x.variable, x.reason) for x in report.failures] == [
        ("X", "equated-to-non-candidate")
    ]


def test_equated_free_candidates_stay_entity(tv, tv_schema):
    f = parse_formula_text(
        "TV-Program(X) AND TV-Program(Y) AND X = Y", tv_schema
    )
    report = is_er_query(f, tv)
    assert report.is_er
    assert report.entity_vars == {"X", "Y"}


def test_er_check_rejects_unsafe_input(tv, tv_schema, queries):
    with pytest.raises(UnsafeQueryError):
        is_er_query(parse_formula_text("NOT F1", tv_schema, queries), tv)


def test_candidates_shrink_when_conjuncts_are_added(tv, tv_schema):
    base = parse_formula_text("TV-Program(X)", tv_schema)
    extended = parse_formula_text('TV-Program(X) AND X = "Avon"', tv_schema)
    assert entity_variable_candidates(extended, tv) <= entity_variable_candidates(
        base, tv
    )


def _tiny_instance():
    from ermine import load_instance, load_schema

    schema = load_schema(
        {
            "tables": [
                {"name": "Person", "fields": [{"name": "name", "type": "string", "key": True}]}
            ]
        }
    )
    return load_instance(schema, {"Person": [("ann",), ("bo",)]})


# -- validity ----------------------------------------------------------


def test_atom_containing_all_variables_is_valid(tv_schema):
    f = parse_formula_text("TV-Program(X)", tv_schema)
    assert is_valid_for(f, ("X",)).valid


def test_pair_conjunction_valid_when_atoms_cover_both(tv_schema, queries):
    f = conjunction([queries["G1"].body, queries["G2"].body])
    assert is_valid_for(f, ("P", "SN")).valid


def test_pair_with_dangling_equality_is_invalid(tv_schema):
    f = parse_formula_text("TV-Program(X) AND X = Y", tv_schema)
    report = is_valid_for(f, ("X", "Y"))
    assert not report.valid
    assert to_text(report.failing) == "TV-Program(X) AND X = Y"


def test_separate_atoms_do_not_bind_a_pair(tv_schema):
    f = parse_formula_text("TV-Program(X) AND TV-Program(Y)", tv_schema)
    assert not is_valid_for(f, ("X", "Y")).valid


def test_equality_cover_is_valid(tv_schema):
    f = parse_formula_text('X = "Simpsons" AND Y = "CBS"', tv_schema)
    assert is_valid_for(f, ("X", "Y")).valid


def test_single_constant_equality_is_valid(tv_schema):
    assert is_valid_for(parse_formula_text('X = "CBS"', tv_schema), ("X",)).valid
    assert not is_valid_for(parse_formula_text('X != "CBS"', tv_schema), ("X",)).valid


def test_negation_alone_is_invalid(tv_schema):
    f = Not(parse_formula_text("TV-Program(X)", tv_schema))
    assert not is_valid_for(f, ("X",)).valid


def test_conjunction_with_valid_conjunct_is_valid(tv_schema):
    f = parse_formula_text("TV-Program(X) AND NOT TV-Program(X)", tv_schema)
    assert is_valid_for(f, ("X",)).valid


def test_both_disjuncts_must_be_valid(tv_schema):
    good = parse_formula_text('TV-Program(X) OR X = "CBS"', tv_schema)
    assert is_valid_for(good, ("X",)).valid
    bad = parse_formula_text('TV-Program(X) OR X != "CBS"', tv_schema)
    report = is_valid_for(bad, ("X",))
    assert not report.valid
    assert isinstance(report.failing, Comparison)


def test_an_invalid_left_disjunct_is_the_one_reported(tv_schema):
    f = parse_formula_text('X != "CBS" OR TV-Program(X)', tv_schema)
    report = is_valid_for(f, ("X",))
    assert not report.valid
    assert report.failing == f.left


def test_quantifier_capturing_a_variable_is_invalid():
    f = Exists("X", Atom("TV-Program", (Variable("X"),)))
    assert not is_valid_for(f, ("X",)).valid


def test_quantifier_over_other_variables_is_transparent(tv_schema, queries):
    assert is_valid_for(queries["F1"].body, ("P",)).valid


def test_validity_needs_variables(tv_schema):
    with pytest.raises(ValueError):
        is_valid_for(parse_formula_text("TV-Program(X)", tv_schema), ())


def test_fixture_single_variable_queries_are_valid(tv, queries, tv_schema):
    # Safe single-variable entity queries are valid for that variable.
    combos = ["F1", "F2", "F1 AND F2", "F1 OR F2", "F1 AND NOT F2"]
    for text in combos:
        f = normalize(parse_formula_text(text, tv_schema, queries))
        assert is_er_query(f, tv).is_er
        assert is_valid_for(f, ("P",)).valid


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(strategies.gate_formula_cases())
def test_every_entity_link_names_both_its_ends(case):
    # The gate state keeps no names: a link's far end is read as a
    # non-candidate just when it failed, which needs every link to join
    # two variables.
    inst, f = case
    body = normalize(f)
    candidates = entity_variable_candidates(body, inst)
    facts = _entity_facts(body, inst)
    for a, b in facts.links:
        assert (b not in candidates) == (b in facts.failures), to_text(f)
