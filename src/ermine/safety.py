"""Syntactic safety check for query formulas.

A formula (after ``normalize``, so no FORALL and no nested ANDs) is safe
when every maximal conjunction in it limits all of its free variables and
only uses negation as a conjunct alongside limiting conjuncts:

* R2-disjunct-vars: both operands of an OR have the same free variables.
* R3-unlimited-var: in a maximal conjunction, every free variable must be
  limited: it occurs in a non-negated conjunct that is not a comparison,
  or a conjunct equates it with a constant, or a conjunct equates it with
  another limited variable (computed to a fixed point).
* R4-bad-negation: a negated conjunct's free variables must all be
  limited by the other conjuncts of the same conjunction.

Safe formulas can be evaluated over any vocabulary extending the active
domain with the same result; limitation is what pins every free variable
to values derived from the data or from constants in the formula.

The check is split in two: ``conjunct_safety`` summarizes one conjunct
(its free variables, what it limits, and the violations inside it), and
``violations`` combines the summaries of a conjunction's conjuncts.  A
conjunct shared by many conjunctions, such as a mining pool item, is
then summarized once.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    conjuncts_of,
    equated_constants,
    free_variables,
    normalize,
    to_text,
)

RULE_DISJUNCT_VARS = "R2-disjunct-vars"
RULE_UNLIMITED_VAR = "R3-unlimited-var"
RULE_BAD_NEGATION = "R4-bad-negation"


@dataclass(frozen=True)
class Violation:
    rule: str
    subformula: Formula
    variable: str | None = None

    def describe(self) -> str:
        where = to_text(self.subformula)
        if self.subformula.span:
            lo, hi = self.subformula.span
            where += f" [{lo}..{hi}]"
        if self.variable is not None:
            return f"{self.rule}: variable {self.variable} in {where}"
        return f"{self.rule}: {where}"


@dataclass(frozen=True)
class SafetyReport:
    violations: tuple[Violation, ...]

    @property
    def safe(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ConjunctSafety:
    """What the safety check needs of one conjunct of a maximal
    conjunction, none of which depends on the other conjuncts.

    ``limits`` are the variables the conjunct limits on its own: the
    free variables of a conjunct that is neither negated nor a
    comparison, or the variable an ``=`` equates with a constant.
    ``equates`` is the pair of variables an ``=`` equates, which spreads
    limitation.  ``violations`` are those found inside the conjunct, in
    the order ``check_safe`` lists them.
    """

    conjunct: Formula
    free: tuple[str, ...]  # in order of first occurrence
    limits: frozenset[str]
    equates: tuple[str, str] | None
    violations: tuple[Violation, ...]


def conjunct_safety(c: Formula) -> ConjunctSafety:
    """Summarize one conjunct of a normalized formula.

    Free variables are computed bottom-up, so every node is visited once.
    """
    if isinstance(c, (Atom, Comparison)):
        terms = c.terms if isinstance(c, Atom) else (c.left, c.right)
        free = tuple(dict.fromkeys(t.name for t in terms if isinstance(t, Variable)))
        return _summary(c, free, ())
    if isinstance(c, Not):
        inner = conjunction_safety(c.body)
        return _summary(c, free_of(inner), tuple(violations(c.body, inner)))
    if isinstance(c, Exists):
        inner = conjunction_safety(c.body)
        free = tuple(v for v in free_of(inner) if v != c.var)
        return _summary(c, free, tuple(violations(c.body, inner)))
    if isinstance(c, Or):
        left, right = conjunction_safety(c.left), conjunction_safety(c.right)
        left_free, right_free = free_of(left), free_of(right)
        found = [Violation(RULE_DISJUNCT_VARS, c)] if set(left_free) != set(right_free) else []
        found += violations(c.left, left)
        found += violations(c.right, right)
        return _summary(c, tuple(dict.fromkeys(left_free + right_free)), tuple(found))
    if isinstance(c, (And, Forall)):
        raise ValueError("check_safe needs a normalized formula")
    raise TypeError(f"not a formula: {c!r}")


def _summary(c: Formula, free, found) -> ConjunctSafety:
    """The summary of conjunct c, given its free variables and the
    violations inside it: a negated conjunct limits nothing, a comparison
    only the variable an ``=`` equates with a constant, and any other
    conjunct all of its free variables."""
    if isinstance(c, Not):
        return ConjunctSafety(c, free, frozenset(), None, found)
    if isinstance(c, Comparison):
        equates = None
        if c.op == "=" and isinstance(c.left, Variable) and isinstance(c.right, Variable):
            equates = (c.left.name, c.right.name)
        return ConjunctSafety(c, free, frozenset(equated_constants(c)), equates, found)
    return ConjunctSafety(c, free, frozenset(free), None, found)


def conjunction_safety(f: Formula) -> tuple[ConjunctSafety, ...]:
    """The summaries of the conjuncts of a normalized formula."""
    return tuple(conjunct_safety(c) for c in conjuncts_of(f))


def free_of(parts) -> tuple[str, ...]:
    """Free variables of a conjunction, from its conjuncts' summaries."""
    return tuple(dict.fromkeys(v for p in parts for v in p.free))


def limited_of(parts) -> frozenset[str]:
    """Variables limited by a conjunction, from its conjuncts' summaries:
    what each conjunct limits on its own, spread by variable-variable
    equalities to a fixed point."""
    return closed_limited(
        frozenset().union(*(p.limits for p in parts)),
        [p.equates for p in parts if p.equates],
    )


def closed_limited(limited, pairs) -> frozenset[str]:
    """The variables ``limited`` spread by the variable-variable
    equalities ``pairs`` to a fixed point."""
    limited = set(limited)
    pairs = [set(p) for p in pairs]
    changed = True
    while changed:
        changed = False
        for names in pairs:
            if names & limited and not names <= limited:
                limited |= names
                changed = True
    return frozenset(limited)


def violations(f: Formula, parts):
    """Yield the violations of the conjunction f, whose conjuncts' summaries
    are ``parts``, in report order: R3 for f's unlimited free variables,
    then per conjunct its R4 (a negated conjunct's first unlimited
    variable) and the violations inside it."""
    limited = limited_of(parts)
    for v in free_of(parts):
        if v not in limited:
            yield Violation(RULE_UNLIMITED_VAR, f, v)
    for p in parts:
        if isinstance(p.conjunct, Not):
            for v in p.free:
                if v not in limited:
                    yield Violation(RULE_BAD_NEGATION, p.conjunct, v)
                    break
        yield from p.violations


def limited_variables(conj: Formula) -> frozenset[str]:
    """Variables limited by the conjuncts of a maximal conjunction.

    A non-And formula counts as a conjunction with one conjunct.  Seeds:
    free variables of non-negated, non-comparison conjuncts and variables
    equated with a constant.  Then variable-variable equalities spread
    limitation to a fixed point.  The formula need not be normalized: a
    FORALL or nested AND conjunct limits its free variables.
    """
    return limited_of([_summary(c, free_variables(c), ()) for c in conjuncts_of(conj)])


def check_safe(f: Formula) -> SafetyReport:
    """Check the safety rules; the report lists every violation found."""
    body = normalize(f)
    return SafetyReport(tuple(violations(body, conjunction_safety(body))))
