"""The access path's ordered index, queried on its own and by an atom.

One table has an integer column, a string column and a column that mixes
both.  ``AccessPath.span`` must give the rows whose value passes every
``(op, constant)`` test by the evaluator's comparison rules (``_compare``),
for constants of either type: ones the column holds, ones it lacks, and
ones below its least or above its greatest value.  A second query on the
filled index must give the same rows, and an atom with a constant, which
the evaluator reads as an ``=`` test on the same index, must keep exactly
the rows holding the constant, projected onto the other positions.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ermine.access import AccessPath, value_key
from ermine.evaluator import _compare, atom_rows
from ermine.formulas import Atom, Constant, Variable
from ermine.schema import DatabaseInstance, FieldDecl, Schema, TableDecl

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# Table values, and constants that reach past them on both sides: -3 and
# 23 lie outside the integers, "" and "a" below the strings, "e" above.
INTS = st.integers(0, 20)
STRS = st.text("bcd", min_size=1, max_size=2)
CONSTANTS = st.one_of(st.integers(-3, 23), st.text("abcde", max_size=3))
OPS = ("=", "<", ">", "<=", ">=")

# Rows of (int column, str column, mixed column).  An atom's instance is
# built without load_instance's type checks, so the mixed column stays.
SCHEMA = Schema(
    (
        TableDecl(
            "T",
            (
                FieldDecl("I", "integer", True),
                FieldDecl("S", "string", True),
                FieldDecl("M", "string", True),
            ),
        ),
    )
)
TABLES = st.lists(
    st.tuples(INTS, STRS, st.one_of(INTS, STRS)), max_size=12, unique=True
)


def constants_of(rows, position):
    """A strategy of constants for ``position``: its own values or any of
    CONSTANTS."""
    values = sorted({r[position] for r in rows}, key=value_key)
    if not values:
        return CONSTANTS
    return st.one_of(st.sampled_from(values), CONSTANTS)


@SETTINGS
@given(st.data())
def test_a_span_holds_exactly_the_rows_that_pass_its_tests(data):
    rows = data.draw(TABLES)
    path = AccessPath({"T": frozenset(rows)})
    for _ in range(data.draw(st.integers(1, 3))):
        position = data.draw(st.sampled_from((0, 1, 2)))
        tests = data.draw(
            st.lists(
                st.tuples(st.sampled_from(OPS), constants_of(rows, position)),
                min_size=1,
                max_size=3,
            )
        )
        expected = {
            r for r in rows if all(_compare(r[position], op, c) for op, c in tests)
        }
        ordered, lo, hi = path.span("T", position, tests)
        found = ordered[lo:hi]
        assert len(found) == len(expected)
        assert set(found) == expected
        # The index is built now; asking again reads it as it is.
        again, lo, hi = path.span("T", position, tests)
        assert again is ordered
        assert again[lo:hi] == found


@SETTINGS
@given(st.data())
def test_an_atom_with_a_constant_keeps_the_rows_that_hold_it(data):
    rows = data.draw(TABLES)
    inst = DatabaseInstance(SCHEMA, {"T": frozenset(rows)})
    position = data.draw(st.sampled_from((0, 1, 2)))
    constant = data.draw(constants_of(rows, position))
    others = [i for i in range(3) if i != position]
    terms = [Variable(f"X{i}") for i in range(3)]
    terms[position] = Constant(constant)
    kept = tuple(terms[i].name for i in others)
    expected = {
        tuple(r[i] for i in others) for r in rows if _compare(r[position], "=", constant)
    }
    atom = Atom("T", tuple(terms))
    assert atom_rows(inst, atom, (), kept) == expected
    # The same rows with their columns asked for in reverse.
    assert atom_rows(inst, atom, (), kept[::-1]) == {t[::-1] for t in expected}


def test_an_atom_with_a_constant_keeps_only_an_ordered_index():
    # Its filtered rows are not kept, so no entry's key holds the constant.
    inst = DatabaseInstance(SCHEMA, {"T": frozenset({(1, "b", 2), (3, "c", "d")})})
    atom = Atom("T", (Variable("X"), Constant("b"), Variable("Y")))
    assert atom_rows(inst, atom, (), ("X", "Y")) == {(1, 2)}
    assert list(inst.access._ordered) == [("T", 1)]
    assert not inst.access._projections
