"""The formula AST's own checks: node invariants and the walks' refusal
of anything that is not a formula."""

import pytest

from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    Not,
    QueryDecl,
    Variable,
    conjunction,
    free_variables,
    normalize,
    to_text,
)

P = Variable("P")
PROGRAM = Atom("TV-Program", (P,))


def test_a_declaration_prints_as_its_text():
    assert str(QueryDecl("F1", ("P",), PROGRAM)) == "F1(P) := TV-Program(P)"
    assert str(QueryDecl(None, ("P",), PROGRAM)) == "q(P) := TV-Program(P)"


def test_a_comparison_needs_a_known_operator():
    with pytest.raises(ValueError, match="^unknown comparison operator '=='$"):
        Comparison(P, "==", Constant("Gilmore"))


@pytest.mark.parametrize("conjuncts", [(), (PROGRAM,)])
def test_an_and_needs_two_conjuncts(conjuncts):
    with pytest.raises(ValueError, match="^And needs at least two conjuncts$"):
        And(conjuncts)


def test_a_conjunction_of_nothing_is_an_error():
    with pytest.raises(ValueError, match="^conjunction of nothing$"):
        conjunction([])


@pytest.mark.parametrize("walk", [free_variables, normalize, to_text])
@pytest.mark.parametrize("f", [P, Not("TV-Program(P)")], ids=["term", "nested-text"])
def test_the_walks_refuse_what_is_not_a_formula(walk, f):
    with pytest.raises(TypeError, match="^not a formula: "):
        walk(f)
