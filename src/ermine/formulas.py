"""Formula AST for the query language.

Formulas are built from table atoms and comparisons with NOT, AND
(n-ary), OR (binary), EXISTS, and FORALL.  Nodes are frozen dataclasses;
structural equality ignores source spans, so a parsed formula compares
equal to the same formula built programmatically.

``normalize`` rewrites every FORALL X. G into NOT EXISTS X. NOT G and
flattens nested ANDs, so downstream analyses only ever see maximal
conjunctions and existential quantifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

Span = tuple[int, int]

COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=")

# An integer literal as the query language writes one; an integer CSV cell
# is written the same way.  int() takes more: "1_0", " 1", "+5", "١".
INTEGER_LITERAL = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Constant:
    value: str | int

    def __str__(self):
        return format_constant(self.value)


Term = Variable | Constant


def format_constant(value) -> str:
    if type(value) is int:
        return str(value)
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class Formula:
    """Base class; concrete nodes are the dataclasses below."""

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    terms: tuple[Term, ...]
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Comparison(Formula):
    left: Term
    op: str
    right: Term
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And(Formula):
    conjuncts: tuple[Formula, ...]
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.conjuncts) < 2:
            raise ValueError("And needs at least two conjuncts")


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula
    span: Span | None = field(default=None, compare=False, repr=False)


def conjunction(parts, span=None) -> Formula:
    """Combine formulas into one conjunction, flattening nested Ands."""
    flat = []
    stack = list(parts)[::-1]
    while stack:
        p = stack.pop()
        if isinstance(p, And):
            stack.extend(reversed(p.conjuncts))
        else:
            flat.append(p)
    if not flat:
        raise ValueError("conjunction of nothing")
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat), span=span)


def conjuncts_of(f: Formula) -> tuple[Formula, ...]:
    """The conjuncts of a maximal conjunction; a non-And is one conjunct."""
    if isinstance(f, And):
        return f.conjuncts
    return (f,)


def equated_constants(f: Formula) -> dict[str, list]:
    """Variables that a conjunct of f equates with a constant (``X = c``
    or ``c = X``), each with its distinct constants in first-use order.

    A non-And formula counts as a conjunction with one conjunct.
    """
    out: dict[str, list] = {}
    for c in conjuncts_of(f):
        if isinstance(c, Comparison) and c.op == "=":
            for a, b in ((c.left, c.right), (c.right, c.left)):
                if isinstance(a, Variable) and isinstance(b, Constant):
                    values = out.setdefault(a.name, [])
                    if b.value not in values:
                        values.append(b.value)
    return out


def free_variables(f: Formula) -> tuple[str, ...]:
    """Free variables in order of first syntactic occurrence."""
    seen: dict[str, None] = {}

    def walk(g, bound):
        if isinstance(g, Atom):
            for t in g.terms:
                if isinstance(t, Variable) and t.name not in bound:
                    seen.setdefault(t.name)
        elif isinstance(g, Comparison):
            for t in (g.left, g.right):
                if isinstance(t, Variable) and t.name not in bound:
                    seen.setdefault(t.name)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, And):
            for c in g.conjuncts:
                walk(c, bound)
        elif isinstance(g, Or):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, frozenset())
    return tuple(seen)


def subformulas(f: Formula):
    """Yield f and every subformula, pre-order."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, And):
        for c in f.conjuncts:
            yield from subformulas(c)
    elif isinstance(f, Or):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Exists, Forall)):
        yield from subformulas(f.body)


def constants_of(f: Formula) -> frozenset:
    out = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            terms = g.terms
        elif isinstance(g, Comparison):
            terms = (g.left, g.right)
        else:
            continue
        for t in terms:
            if isinstance(t, Constant):
                out.add(t.value)
    return frozenset(out)


def normalize(f: Formula) -> Formula:
    """Rewrite FORALL via NOT EXISTS NOT and flatten nested conjunctions.

    The result is semantically equivalent, has the same free variables,
    and is a fixed point of this function.
    """
    if isinstance(f, (Atom, Comparison)):
        return f
    if isinstance(f, Not):
        return Not(normalize(f.body), span=f.span)
    if isinstance(f, And):
        return conjunction([normalize(c) for c in f.conjuncts], span=f.span)
    if isinstance(f, Or):
        return Or(normalize(f.left), normalize(f.right), span=f.span)
    if isinstance(f, Exists):
        return Exists(f.var, normalize(f.body), span=f.span)
    if isinstance(f, Forall):
        body = normalize(f.body)
        return Not(Exists(f.var, Not(body, span=f.span), span=f.span), span=f.span)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str) -> str:
    return f"({text})"


def conjunct_text(f: Formula, text: str) -> str:
    """``text``, which is ``to_text(f)``, as a conjunct of an And.

    Quantifiers extend maximally right and OR binds more loosely than
    AND, so those conjuncts need parentheses.
    """
    if isinstance(f, (Or, Exists, Forall, And)):
        return _wrap(text)
    return text


def negation_text(body: Formula, text: str) -> str:
    """``NOT`` applied to ``text``, a rendering of ``body``, as ``to_text``
    renders ``Not(body)``: an atom is negated as it is, anything else in
    parentheses."""
    return f"NOT {text}" if isinstance(body, Atom) else f"NOT {_wrap(text)}"


def to_text(f: Formula) -> str:
    """Render a formula; parsing the result reproduces the same AST."""
    if isinstance(f, Atom):
        return f"{f.predicate}({', '.join(str(t) for t in f.terms)})"
    if isinstance(f, Comparison):
        return f"{f.left} {f.op} {f.right}"
    if isinstance(f, Not):
        return negation_text(f.body, to_text(f.body))
    if isinstance(f, And):
        return " AND ".join([conjunct_text(c, to_text(c)) for c in f.conjuncts])
    if isinstance(f, Or):
        left = to_text(f.left)
        if isinstance(f.left, (Exists, Forall)):
            left = _wrap(left)
        right = to_text(f.right)
        if isinstance(f.right, Or):
            right = _wrap(right)
        return f"{left} OR {right}"
    if isinstance(f, Exists):
        return f"EXISTS {f.var}. {to_text(f.body)}"
    if isinstance(f, Forall):
        return f"FORALL {f.var}. {to_text(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class QueryDecl:
    """A named query: declared head variables fix the result column order."""

    name: str | None
    variables: tuple[str, ...]
    body: Formula

    def text(self) -> str:
        return declaration_text(self.name, self.variables, to_text(self.body))

    def __str__(self):
        return self.text()


def declaration_text(name: str | None, variables, body_text: str) -> str:
    """A declaration's text, given its body's text."""
    return f"{name or 'q'}({', '.join(variables)}) := {body_text}"
