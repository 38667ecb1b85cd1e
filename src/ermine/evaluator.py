"""Query evaluation.

Two independent routes compute the satisfying assignments of a query's
free variables:

* ``evaluate`` works bottom-up with set operations.  It requires a safe
  query.
  - Atoms read the instance's access path (``ermine.access``): the
    ordered index of a table position, or the table's rows, whose
    projections are kept per table, pattern of repeated variables and
    columns.  A constant in an atom is one more ``=`` test at its
    position, so ``T(X, 10)`` reads what ``EXISTS V. T(X, V) AND
    V = 10`` reads.
  - A conjunction first pushes every comparison of a variable with a
    constant (``V op c``, or ``c op V`` with the operator flipped) into
    each positive atom that binds the variable.  The atom then reads the
    shortest of what its tests offer: the tests at one position other
    than ``!=`` offer one span of that position's ordered index, an
    ``=`` the run of equal values and an ordering comparison a range;
    the whole table only when no test offers a span.  Filtered rows are
    not kept: ad-hoc queries rarely repeat, so such entries would only
    hold memory, and no access-path key holds a query constant.
  - Under a chain of EXISTS, a quantified column that no other positive
    conjunct, negated body or leftover comparison reads is never built:
    before anything is evaluated, the conjunction works out the columns
    each positive part keeps, and an atom builds only those from the
    rows its span or table returns (an atom without tests reads the
    kept projection of its scan, which the access path keeps).  A part
    that is not an atom is evaluated whole and then projected.
  - Both pushdowns happen in one place, ``conjunct_relations``, which
    builds the inputs of the conjunction step (``conjoin``) for
    ``evaluate``, for each item of the miner and for each rule
    consequent of the rule statistics, so all three read the same
    filtered atoms.  The conjunction step joins the positive parts,
    smallest first, preferring a part that shares a column with the
    join so far.  The comparisons that no atom took follow (equalities
    can bind still-unbound variables), and negated conjuncts are
    anti-joined.
  - OR unions aligned columns; a chain of EXISTS projects all of its
    quantified columns away at once.
* ``evaluate_naive`` enumerates every assignment of the free variables
  over the evaluation vocabulary and keeps those satisfying the body via
  ``satisfies``.  It is the oracle the optimized route is tested
  against, so the two must stay independent: the oracle reads the
  table rows directly and never the access path, so a wrong scan,
  index or pushed comparison shows as a difference between them.

The evaluation vocabulary is the instance's active domain plus the
constants of the formula.  ``evaluate_naive`` also takes caller-supplied
extras, which for safe queries provably do not change the result.
``evaluate`` needs only whether the vocabulary is empty, for vacuous
quantifiers, so it never builds it.

Comparison semantics: operands of the same type compare normally
(integers numerically, strings by codepoint); across types ``=`` is
false, ``!=`` is true, and ordering comparisons are false.  Pushed
comparisons follow the same rules.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from .access import project, row_key, select, sort_rows, value_key
from .entities import ErReport, ValidityReport
from .errors import EvaluationError, UnsafeQueryError
from .formulas import (
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    QueryDecl,
    Variable,
    conjuncts_of,
    constants_of,
    free_variables,
    normalize,
    to_text,
)
from .safety import SafetyReport, check_safe
from .schema import DatabaseInstance


@dataclass(frozen=True)
class Relation:
    """A named-column set of tuples."""

    columns: tuple[str, ...]
    rows: frozenset[tuple]

    def __post_init__(self):
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            row = min((r for r in self.rows if len(r) != width), key=row_key)
            raise ValueError(f"row {row!r} does not fit columns {self.columns!r}")


def sorted_rows(rel: Relation) -> list[tuple]:
    """The rows in ``row_key`` order (``access.sort_rows``)."""
    return sort_rows(rel.rows)


def evaluation_vocabulary(
    inst: DatabaseInstance, f: Formula, extra_vocabulary=()
) -> frozenset:
    return inst.active_domain | constants_of(f) | frozenset(extra_vocabulary)


def vocabulary_nonempty(inst: DatabaseInstance, f: Formula) -> bool:
    """Is ``evaluation_vocabulary(inst, f)`` non-empty?  Answered without
    building the union."""
    return bool(inst.active_domain or constants_of(f))


def _compare(a, op: str, b) -> bool:
    if (type(a) is str) != (type(b) is str):
        return op == "!="
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown comparison operator {op!r}")


def satisfies(inst: DatabaseInstance, f: Formula, binding=None):
    """Does the (ground, under `binding`) formula hold in the instance?

    Quantifiers range over the evaluation vocabulary.  Every free
    variable of f must be bound.  Atoms are tested against the table
    rows directly, never through the access path, so that this stays an
    independent oracle for ``evaluate``.
    """
    vocab = evaluation_vocabulary(inst, f)
    return _sat(inst, f, dict(binding or {}), vocab)


def _resolve(term, env):
    if isinstance(term, Constant):
        return term.value
    try:
        return env[term.name]
    except KeyError:
        raise EvaluationError(f"unbound variable {term.name}") from None


def _sat(inst, f, env, vocab) -> bool:
    if isinstance(f, Atom):
        vals = tuple(_resolve(t, env) for t in f.terms)
        return vals in inst.rows(f.predicate)
    if isinstance(f, Comparison):
        return _compare(_resolve(f.left, env), f.op, _resolve(f.right, env))
    if isinstance(f, Not):
        return not _sat(inst, f.body, env, vocab)
    if isinstance(f, And):
        return all(_sat(inst, c, env, vocab) for c in f.conjuncts)
    if isinstance(f, Or):
        return _sat(inst, f.left, env, vocab) or _sat(inst, f.right, env, vocab)
    if isinstance(f, Exists):
        return any(_sat(inst, f.body, env | {f.var: v}, vocab) for v in vocab)
    if isinstance(f, Forall):
        return all(_sat(inst, f.body, env | {f.var: v}, vocab) for v in vocab)
    raise TypeError(f"not a formula: {f!r}")


def evaluate_naive(
    inst: DatabaseInstance, query: QueryDecl, extra_vocabulary=()
) -> Relation:
    """Enumerate all vocabulary assignments of the head variables.

    The oracle for ``evaluate``: like ``satisfies`` it tests each
    assignment against the table rows directly and never touches the
    instance's access path.
    """
    vocab = evaluation_vocabulary(inst, query.body, extra_vocabulary)
    # The shared value order only fixes the order of enumeration.
    ordered = sorted(vocab, key=value_key)
    rows = set()
    for combo in itertools.product(ordered, repeat=len(query.variables)):
        env = dict(zip(query.variables, combo))
        if _sat(inst, query.body, env, vocab):
            rows.add(combo)
    return Relation(tuple(query.variables), frozenset(rows))


@dataclass(frozen=True, kw_only=True)
class PreparedQuery(QueryDecl):
    """A query whose body is normalized and whose three gates ran once.

    Built by ``stats.prepare_query`` against one instance.  ``er`` and
    ``validity`` are None when the body is not safe, because entity
    status and validity are only defined for safe queries.
    """

    safety: SafetyReport
    er: ErReport | None
    validity: ValidityReport | None


def evaluate(inst: DatabaseInstance, query: QueryDecl) -> Relation:
    """Evaluate a safe query; result columns follow the declared head.

    A PreparedQuery is evaluated as it is; any other query is normalized
    and safety-checked first.  Raises UnsafeQueryError when the body
    fails check_safe.
    """
    if isinstance(query, PreparedQuery):
        body, report = query.body, query.safety
    else:
        body = normalize(query.body)
        report = check_safe(body)
    if not report.safe:
        raise UnsafeQueryError(report)
    rel = _eval(inst, body, vocabulary_nonempty(inst, body))
    if set(rel.columns) != set(query.variables):
        raise EvaluationError(
            f"evaluated columns {rel.columns!r} do not match the declared "
            f"head {query.variables!r}"
        )
    return _reorder(rel, tuple(query.variables))


# -- relational helpers ------------------------------------------------

_UNIT = Relation((), frozenset({()}))


def _project(rel: Relation, columns: tuple[str, ...]) -> Relation:
    idx = [rel.columns.index(c) for c in columns]
    return Relation(columns, frozenset(project(rel.rows, idx)))


def _reorder(rel: Relation, columns: tuple[str, ...]) -> Relation:
    if rel.columns == columns:
        return rel
    return _project(rel, columns)


def _natural_join(a: Relation, b: Relation) -> Relation:
    if a.columns == b.columns:
        return Relation(a.columns, a.rows & b.rows)
    shared = [c for c in b.columns if c in a.columns]
    b_only = [c for c in b.columns if c not in a.columns]
    a_idx = [a.columns.index(c) for c in shared]
    b_idx = [b.columns.index(c) for c in shared]
    extra_idx = [b.columns.index(c) for c in b_only]
    index: dict[tuple, list[tuple]] = {}
    for key, extra in zip(project(b.rows, b_idx), project(b.rows, extra_idx)):
        index.setdefault(key, []).append(extra)
    rows = frozenset(
        row + extra
        for row, key in zip(a.rows, project(a.rows, a_idx))
        for extra in index.get(key, ())
    )
    return Relation(a.columns + tuple(b_only), rows)


def _antijoin(a: Relation, b: Relation) -> Relation:
    idx = [a.columns.index(c) for c in b.columns]
    keys = project(a.rows, idx)
    rows = frozenset(row for row, key in zip(a.rows, keys) if key not in b.rows)
    return Relation(a.columns, rows)


# -- structural evaluation ---------------------------------------------


def _eval(inst, f: Formula, nonempty: bool, drop=frozenset()) -> Relation:
    """Evaluate a normalized safe formula; the columns are its free
    variables in no fixed order (``evaluate`` orders them by the head),
    except that a conjunction may leave out variables in ``drop``, which
    the caller projects away.  ``nonempty`` tells whether the evaluation
    vocabulary has a member, which only vacuous quantifiers depend on."""
    if isinstance(f, Or):
        left = _eval(inst, f.left, nonempty)
        right = _reorder(_eval(inst, f.right, nonempty), left.columns)
        return Relation(left.columns, left.rows | right.rows)
    if isinstance(f, Exists):
        # A chain of quantifiers is one projection of its innermost body.
        quantified = []
        while isinstance(f, Exists):
            quantified.append(f.var)
            f = f.body
        # Over an empty vocabulary nothing satisfies a vacuous
        # existential (one whose variable is not free in its body);
        # otherwise the body result carries over.
        if not nonempty:
            free = free_variables(f)
            if len(set(quantified)) < len(quantified) or not set(quantified) <= set(free):
                return Relation(
                    tuple(v for v in free if v not in quantified), frozenset()
                )
        body = _eval(inst, f, nonempty, frozenset(quantified))
        return _reorder(body, tuple(c for c in body.columns if c not in quantified))
    if isinstance(f, Forall):
        raise EvaluationError("evaluate needs a normalized formula")
    # And, lone atoms, comparisons and negations all go through the
    # conjunction path (a non-And formula is its own single conjunct).
    return conjoin(*conjunct_relations(inst, f, nonempty, drop))


def _atom_pattern(atom: Atom) -> tuple[tuple, dict[str, int], list]:
    """The atom's access-path pattern (see ``ermine.access``), the table
    position where each of its variables first occurs, and a ``(position,
    "=", constant)`` test per constant."""
    first: dict[str, int] = {}
    pattern = []
    constants = []
    for i, t in enumerate(atom.terms):
        if isinstance(t, Constant):
            pattern.append(None)
            constants.append((i, "=", t.value))
        else:
            pattern.append(first.setdefault(t.name, i))
    return tuple(pattern), first, constants


def atom_rows(inst, atom: Atom, tests, kept) -> frozenset[tuple]:
    """The atom's satisfying tuples that pass every ``(position, op,
    constant)`` test, projected onto the ``kept`` variables (in the
    order they first occur in the atom) and read through the instance's
    access path.  Each constant of the atom is one more ``=`` test.

    The tests at each table position other than ``!=`` offer one span of
    its ordered index (``AccessPath.span``).  The shortest span is read
    instead of the whole table, and only the tests it does not answer are
    applied to its rows, which then build only the kept columns.  An
    atom without tests reads the kept projection of its scan, which the
    access path keeps."""
    pattern, first, constants = _atom_pattern(atom)
    tests = [*constants, *tests]
    columns = tuple(first)
    positions = tuple(columns.index(v) for v in kept)
    access = inst.access
    table = atom.predicate
    if not tests:
        return access.projection(table, pattern, positions)
    by_position: dict[int, list] = {}
    for i, op, value in tests:
        if op != "!=":
            by_position.setdefault(i, []).append((op, value))
    spans = {i: access.span(table, i, t) for i, t in by_position.items()}
    answered = min(spans, key=lambda i: spans[i][2] - spans[i][1], default=None)
    if answered is None:
        rows = access.rows(table)
    else:
        ordered, lo, hi = spans[answered]
        rows = ordered[lo:hi]
    for i, op, value in tests:
        if i != answered or op == "!=":
            rows = _keep(rows, i, op, value)
    rows = select(rows, pattern)
    if positions != tuple(range(len(columns))):
        rows = project(rows, positions)
    return frozenset(rows)


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

# The operator of ``c op V`` rewritten as ``V op' c``.
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _keep(rows, i: int, op: str, value) -> list[tuple]:
    """The rows whose value at position ``i`` compares true with the
    constant, by ``_compare``'s rules across types."""
    is_str = type(value) is str
    if op == "!=":
        return [
            r for r in rows if (type(r[i]) is str) is not is_str or r[i] != value
        ]
    test = _OPS[op]
    return [
        r for r in rows if (type(r[i]) is str) is is_str and test(r[i], value)
    ]


def _variable_test(c: Comparison):
    """``(variable, op, constant)`` for ``V op c`` or ``c op V``, the
    operator flipped in the second form; None for any other comparison."""
    if isinstance(c.left, Variable) and isinstance(c.right, Constant):
        return c.left.name, c.op, c.right.value
    if isinstance(c.left, Constant) and isinstance(c.right, Variable):
        return c.right.name, _FLIPPED[c.op], c.left.value
    return None


def conjunct_relations(
    inst, f: Formula, nonempty: bool, drop=frozenset()
) -> tuple[list, list, list]:
    """What ``conjoin`` takes for a normalized safe formula's conjuncts,
    after the pushdowns: the relations of the positive conjuncts that are
    not comparisons, the comparisons that no atom took, and each negated
    conjunct with its body's relation.  A positive relation may leave out
    variables in ``drop``, which the caller projects away.  ``evaluate``,
    the miner's items and the rule statistics' consequents all build
    ``conjoin``'s inputs here."""
    conjs = conjuncts_of(f)
    positives = [c for c in conjs if not isinstance(c, (Not, Comparison))]
    comparisons = [c for c in conjs if isinstance(c, Comparison)]
    negations = [c for c in conjs if isinstance(c, Not)]
    # Selection pushdown: a comparison of a variable with a constant
    # filters the rows of every positive atom that binds the variable, as
    # a test at the table position where the variable first occurs.
    firsts = [_atom_pattern(p)[1] if isinstance(p, Atom) else {} for p in positives]
    tests = [[] for _ in positives]
    pending = []
    for c in comparisons:
        test = _variable_test(c)
        pushed = False
        if test is not None:
            var, op, value = test
            for k, first in enumerate(firsts):
                if var in first:
                    tests[k].append((first[var], op, value))
                    pushed = True
        if not pushed:
            pending.append(c)
    # Projection pushdown: a column in ``drop`` that no other positive
    # conjunct, negated body or pending comparison reads is never built.
    columns = [
        tuple(first) if isinstance(p, Atom) else free_variables(p)
        for p, first in zip(positives, firsts)
    ]
    kept = columns
    if drop:
        read = Counter(c for cols in columns for c in cols)
        read.update(c for n in negations for c in free_variables(n))
        read.update(
            t.name
            for c in pending
            for t in (c.left, c.right)
            if isinstance(t, Variable)
        )
        kept = [
            tuple(c for c in cols if c not in drop or read[c] > 1) for cols in columns
        ]
    parts = [
        Relation(k, atom_rows(inst, p, t, k))
        if isinstance(p, Atom)
        else _eval_part(inst, p, nonempty, k)
        for p, t, k in zip(positives, tests, kept)
    ]
    return parts, pending, [(n, _eval(inst, n.body, nonempty)) for n in negations]


def _eval_part(inst, f: Formula, nonempty: bool, kept) -> Relation:
    """A conjunct that is not an atom, evaluated whole and then projected
    onto its ``kept`` variables."""
    rel = _eval(inst, f, nonempty)
    return _reorder(rel, tuple(c for c in rel.columns if c in kept))


def conjoin(parts, comparisons, negations) -> Relation:
    """The conjunction step: join ``parts`` smallest first, apply the
    ``comparisons`` (an ``=`` binds an unbound variable), then anti-join
    each ``(negated conjunct, relation of its body)`` in ``negations``.
    Its inputs come from ``conjunct_relations``, after the pushdowns, for
    ``evaluate``, the miner and the rule statistics alike; the miner and
    the rule statistics may add relations of their own to ``parts``.
    """
    rel = _join_smallest_first(parts)
    pending = comparisons
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for c in pending:
            bound_l = _comparand(c.left, rel)
            bound_r = _comparand(c.right, rel)
            if bound_l is not None and bound_r is not None:
                rel = Relation(
                    rel.columns,
                    frozenset(
                        row
                        for row in rel.rows
                        if _compare(bound_l(row), c.op, bound_r(row))
                    ),
                )
                progress = True
            elif c.op == "=" and bound_l is not None:
                rel = _bind_equal(rel, c.right.name, bound_l)
                progress = True
            elif c.op == "=" and bound_r is not None:
                rel = _bind_equal(rel, c.left.name, bound_r)
                progress = True
            else:
                remaining.append(c)
        pending = remaining
    if pending:
        raise EvaluationError(
            f"comparisons over unlimited variables: "
            f"{'; '.join(to_text(c) for c in pending)}"
        )

    for n, sub in negations:
        if not set(rel.columns).issuperset(sub.columns):
            raise EvaluationError(
                f"negation {to_text(n)} mentions variables missing from its "
                f"conjunction"
            )
        rel = _antijoin(rel, sub)
    return rel


def _join_smallest_first(parts: list[Relation]) -> Relation:
    """The natural join of the parts, starting from the smallest and
    joining next the smallest part that shares a column with the result
    so far (the smallest of all when none does)."""
    if len(parts) < 2:
        return parts[0] if parts else _UNIT
    rest = sorted(parts, key=lambda r: len(r.rows))
    rel = rest.pop(0)
    while rest:
        bound = set(rel.columns)
        k = next((k for k, p in enumerate(rest) if bound & set(p.columns)), 0)
        rel = _natural_join(rel, rest.pop(k))
    return rel


def _comparand(term, rel: Relation):
    """A row-to-value getter for a term, or None if it is an unbound
    variable."""
    if isinstance(term, Constant):
        value = term.value
        return lambda row: value
    if term.name in rel.columns:
        i = rel.columns.index(term.name)
        return lambda row: row[i]
    return None


def _bind_equal(rel: Relation, name: str, getter) -> Relation:
    return Relation(
        rel.columns + (name,),
        frozenset(row + (getter(row),) for row in rel.rows),
    )
