"""Query evaluation.

Two independent routes compute the satisfying assignments of a query's
free variables:

* ``evaluate`` works bottom-up with set operations: atoms scan their
  table, conjunctions join their non-negated conjuncts, apply
  comparisons (equalities can bind still-unbound variables), and
  anti-join negated conjuncts; OR unions aligned columns; EXISTS
  projects the quantified column away.  It requires a safe query.
* ``evaluate_naive`` enumerates every assignment of the free variables
  over the evaluation vocabulary and keeps those satisfying the body via
  ``satisfies``.  It is the oracle the optimized route is tested
  against, so the two must stay independent.

The evaluation vocabulary is the instance's active domain plus the
constants of the formula (plus any caller-supplied extras, which for
safe queries provably do not change the result).

Comparison semantics: operands of the same type compare normally
(integers numerically, strings by codepoint); across types ``=`` is
false, ``!=`` is true, and ordering comparisons are false.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    conjuncts_of,
    constants_of,
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
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {row!r} does not fit columns {self.columns!r}"
                )


def row_sort_key(row: tuple) -> tuple:
    # Tag each value with its type so integer and string cells never get
    # compared with < directly; integers sort before strings.
    return tuple((type(v) is str, v) for v in row)


def sorted_rows(rel: Relation) -> list[tuple]:
    return sorted(rel.rows, key=row_sort_key)


def evaluation_vocabulary(
    inst: DatabaseInstance, f: Formula, extra_vocabulary=()
) -> frozenset:
    return inst.active_domain | constants_of(f) | frozenset(extra_vocabulary)


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


def satisfies(inst: DatabaseInstance, f: Formula, binding=None, extra_vocabulary=()):
    """Does the (ground, under `binding`) formula hold in the instance?

    Quantifiers range over the evaluation vocabulary.  Every free
    variable of f must be bound.
    """
    vocab = evaluation_vocabulary(inst, f, extra_vocabulary)
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
    """Enumerate all vocabulary assignments of the head variables."""
    vocab = evaluation_vocabulary(inst, query.body, extra_vocabulary)
    ordered = sorted(vocab, key=lambda v: (type(v) is str, v))
    rows = set()
    for combo in itertools.product(ordered, repeat=len(query.variables)):
        env = dict(zip(query.variables, combo))
        if _sat(inst, query.body, env, vocab):
            rows.add(combo)
    return Relation(tuple(query.variables), frozenset(rows))


@dataclass(frozen=True, kw_only=True)
class PreparedQuery(QueryDecl):
    """A query whose body is normalized and whose three gates ran once.

    Built by ``stats.prepared`` against one instance, for a single query
    (``stats.prepare_query``) or a mining candidate.  ``er`` and
    ``validity`` are None when the body is not safe, because entity
    status and validity are only defined for safe queries.
    """

    safety: SafetyReport
    er: ErReport | None
    validity: ValidityReport | None


def evaluate(
    inst: DatabaseInstance, query: QueryDecl, extra_vocabulary=()
) -> Relation:
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
    vocab = evaluation_vocabulary(inst, body, extra_vocabulary)
    rel = _eval(inst, body, vocab)
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
    return Relation(columns, frozenset(tuple(r[i] for i in idx) for r in rel.rows))


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
    for row in b.rows:
        key = tuple(row[i] for i in b_idx)
        index.setdefault(key, []).append(tuple(row[i] for i in extra_idx))
    out = set()
    for row in a.rows:
        key = tuple(row[i] for i in a_idx)
        for extra in index.get(key, ()):
            out.add(row + extra)
    return Relation(a.columns + tuple(b_only), frozenset(out))


def _antijoin(a: Relation, b: Relation) -> Relation:
    idx = [a.columns.index(c) for c in b.columns]
    out = {row for row in a.rows if tuple(row[i] for i in idx) not in b.rows}
    return Relation(a.columns, frozenset(out))


# -- structural evaluation ---------------------------------------------


def _eval(inst, f: Formula, vocab) -> Relation:
    """Evaluate a normalized safe formula; the columns are its free
    variables in no fixed order (``evaluate`` orders them by the head)."""
    if isinstance(f, Atom):
        return _eval_atom(inst, f)
    if isinstance(f, Or):
        left = _eval(inst, f.left, vocab)
        right = _reorder(_eval(inst, f.right, vocab), left.columns)
        return Relation(left.columns, left.rows | right.rows)
    if isinstance(f, Exists):
        body = _eval(inst, f.body, vocab)
        if f.var in body.columns:
            return _project(
                body, tuple(c for c in body.columns if c != f.var)
            )
        # Vacuous quantifier: over an empty vocabulary nothing satisfies
        # an existential, otherwise the body result carries over.
        if not vocab:
            return Relation(body.columns, frozenset())
        return body
    if isinstance(f, Forall):
        raise EvaluationError("evaluate needs a normalized formula")
    # And, lone comparisons, and lone negations all go through the
    # conjunction path (a non-And formula is its own single conjunct).
    return _eval_conjunction(inst, f, vocab)


def _eval_atom(inst, atom: Atom) -> Relation:
    first_pos: dict[str, int] = {}
    rows = inst.rows(atom.predicate)
    for i, t in enumerate(atom.terms):
        if isinstance(t, Constant):
            rows = [row for row in rows if row[i] == t.value]
        elif t.name in first_pos:
            j = first_pos[t.name]
            rows = [row for row in rows if row[i] == row[j]]
        else:
            first_pos[t.name] = i
    columns, idx = tuple(first_pos), tuple(first_pos.values())
    return Relation(columns, frozenset(tuple(row[i] for i in idx) for row in rows))


def _eval_conjunction(inst, f: Formula, vocab) -> Relation:
    conjs = conjuncts_of(f)
    positives = []
    comparisons = []
    negations = []
    for c in conjs:
        if isinstance(c, Not):
            negations.append(c)
        elif isinstance(c, Comparison):
            comparisons.append(c)
        else:
            positives.append(c)
    rel = _eval(inst, positives[0], vocab) if positives else _UNIT
    for p in positives[1:]:
        rel = _natural_join(rel, _eval(inst, p, vocab))

    pending = list(comparisons)
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

    for n in negations:
        sub = _eval(inst, n.body, vocab)
        if not set(sub.columns) <= set(rel.columns):
            raise EvaluationError(
                f"negation {to_text(n)} mentions variables missing from its "
                f"conjunction"
            )
        rel = _antijoin(rel, sub)
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
