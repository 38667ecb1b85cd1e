"""Reference domains: the denominators for frequency statistics.

The reference domain of a formula for a variable list is built by
structural recursion and collects, per subformula, the tuples the
variables could range over:

* an atom mentioning all the variables contributes its own satisfying
  tuples projected onto them (an atom missing some variable contributes
  nothing);
* a lone comparison contributes {(c,)} when it equates the single
  requested variable with the constant c, else nothing;
* a conjunction whose conjuncts equate every requested variable with a
  constant contributes the cross product of those constants on top of
  the domain of its remaining conjuncts (all but the comparisons that
  equate a requested variable), taken as one conjunction by these same
  rules; any other conjunction contributes the union over its
  conjuncts;
* OR contributes the union of both branches;
* NOT is transparent (the domain of the negated formula);
* EXISTS is transparent unless it captures a requested variable, in
  which case it contributes nothing.

Unions share their operands: a union whose other operands add nothing to
its largest one is that operand, so the domain of one atom beside
comparisons is the projection the instance's access path keeps, not a
copy.

Logically equivalent formulas may have different reference domains; the
construction is deliberately syntactic so that a query's denominator
reflects the tables and selections it actually names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .access import sort_rows
from .evaluator import atom_rows
from .formulas import (
    And,
    Atom,
    Comparison,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Variable,
    conjunction,
    equated_constants,
    to_text,
)
from .schema import DatabaseInstance


@dataclass(frozen=True)
class ReferenceDomain:
    variables: tuple[str, ...]
    members: frozenset[tuple]


@dataclass
class DomainTrace:
    """One node of the recursion tree behind a reference domain."""

    formula: str
    rule: str
    members: frozenset[tuple]
    children: list[DomainTrace] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        shown = ", ".join(
            "(" + ", ".join(str(v) for v in m) + ")"
            for m in sort_rows(self.members)
        )
        lines = [f"{pad}{self.rule}: {self.formula} -> {{{shown}}}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def reference_domain(
    inst: DatabaseInstance, f: Formula, variables
) -> ReferenceDomain:
    members, _ = _dom(inst, f, tuple(variables), trace=False)
    return ReferenceDomain(tuple(variables), members)


def explain_reference_domain(
    inst: DatabaseInstance, f: Formula, variables
) -> tuple[ReferenceDomain, DomainTrace]:
    members, node = _dom(inst, f, tuple(variables), trace=True)
    return ReferenceDomain(tuple(variables), members), node


def _dom(inst, f: Formula, variables: tuple[str, ...], trace: bool):
    if not variables:
        raise ValueError("reference domain needs a non-empty variable list")
    if isinstance(f, Atom):
        names = {t.name for t in f.terms if isinstance(t, Variable)}
        if set(variables) <= names:
            members = atom_rows(inst, f, (), variables)
            return members, _node(trace, f, "atom-projection", members)
        return frozenset(), _node(trace, f, "atom-missing-variable", frozenset())
    if isinstance(f, Comparison):
        constants = equated_constants(f)
        members = frozenset()
        if len(variables) == 1 and variables[0] in constants:
            members = frozenset((c,) for c in constants[variables[0]])
        rule = "comparison-constant" if members else "comparison-empty"
        return members, _node(trace, f, rule, members)
    if isinstance(f, Not):
        members, child = _dom(inst, f.body, variables, trace)
        return members, _node(trace, f, "negation-transparent", members, child)
    if isinstance(f, Or):
        left, lnode = _dom(inst, f.left, variables, trace)
        right, rnode = _dom(inst, f.right, variables, trace)
        members = _union((left, right))
        return members, _node(trace, f, "disjunction-union", members, lnode, rnode)
    if isinstance(f, Exists):
        if f.var in variables:
            return frozenset(), _node(
                trace, f, "quantifies-requested-variable", frozenset()
            )
        members, child = _dom(inst, f.body, variables, trace)
        return members, _node(trace, f, "quantifier-transparent", members, child)
    if isinstance(f, Forall):
        raise ValueError("reference_domain needs a normalized formula")
    if isinstance(f, And):
        constants = equated_constants(f)
        if not constants.keys() >= set(variables):
            sets, nodes = zip(*[_dom(inst, c, variables, trace) for c in f.conjuncts])
            members = _union(sets)
            return members, _node(trace, f, "conjunction-union", members, *nodes)
        # The cover's tuples stand in for the comparisons that equate a
        # requested variable; the remaining conjuncts, which equate none,
        # add their conjunction's domain, a union by this same rule.
        rest = [
            c
            for c in f.conjuncts
            if not (isinstance(c, Comparison) and equated_constants(c).keys() & set(variables))
        ]
        members = frozenset(itertools.product(*(constants[v] for v in variables)))
        child = None
        if rest:
            others, child = _dom(inst, conjunction(rest), variables, trace)
            members = _union((members, others))
        return members, _node(trace, f, "conjunction-equality-cover", members, child)
    raise TypeError(f"not a formula: {f!r}")


def _union(sets) -> frozenset:
    """The union of the sets, sharing the largest operand when the others
    add nothing to it: an atom's members are its access path's cached
    projection, which a union with a comparison's empty set or with an
    equal set would otherwise copy."""
    members = frozenset()
    for s in sets:
        if len(s) >= len(members):
            members, s = s, members
        if not s <= members:
            members = members | s
    return members


def _node(trace: bool, f: Formula, rule: str, members, *children):
    if not trace:
        return None
    return DomainTrace(
        to_text(f), rule, frozenset(members), [c for c in children if c]
    )
