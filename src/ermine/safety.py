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


def limited_variables(conj: Formula) -> frozenset[str]:
    """Variables limited by the conjuncts of a maximal conjunction.

    A non-And formula counts as a conjunction with one conjunct.  Seeds:
    free variables of non-negated, non-comparison conjuncts and variables
    equated with a constant.  Then variable-variable equalities spread
    limitation to a fixed point.
    """
    conjs = conjuncts_of(conj)
    limited = set(equated_constants(conj))
    for c in conjs:
        if not isinstance(c, (Not, Comparison)):
            limited.update(free_variables(c))
    changed = True
    while changed:
        changed = False
        for c in conjs:
            if (
                isinstance(c, Comparison)
                and c.op == "="
                and isinstance(c.left, Variable)
                and isinstance(c.right, Variable)
            ):
                names = {c.left.name, c.right.name}
                if names & limited and not names <= limited:
                    limited |= names
                    changed = True
    return frozenset(limited)


def check_safe(f: Formula) -> SafetyReport:
    """Check the safety rules; the report lists every violation found."""
    return _check_normalized(normalize(f))


def _check_normalized(f: Formula) -> SafetyReport:
    """``check_safe`` of a formula that is already normalized."""
    violations: list[Violation] = []
    _check_conjunction(f, violations)
    return SafetyReport(tuple(violations))


def _check_conjunction(f: Formula, out: list[Violation]) -> None:
    conjs = conjuncts_of(f)
    limited = limited_variables(f)
    for v in free_variables(f):
        if v not in limited:
            out.append(Violation(RULE_UNLIMITED_VAR, f, v))
    for c in conjs:
        if isinstance(c, (Atom, Comparison)):
            continue
        if isinstance(c, Not):
            for v in free_variables(c):
                if v not in limited:
                    out.append(Violation(RULE_BAD_NEGATION, c, v))
                    break
            _check_conjunction(c.body, out)
        elif isinstance(c, Exists):
            _check_conjunction(c.body, out)
        elif isinstance(c, Or):
            if set(free_variables(c.left)) != set(free_variables(c.right)):
                out.append(Violation(RULE_DISJUNCT_VARS, c))
            _check_conjunction(c.left, out)
            _check_conjunction(c.right, out)
        elif isinstance(c, (And, Forall)):
            raise ValueError("check_safe needs a normalized formula")
        else:
            raise TypeError(f"not a formula: {c!r}")
