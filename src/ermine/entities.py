"""Entity variables and validity.

An entity query is a safe query whose free variables all range over
entities.  A variable is an entity variable candidate when it is never
quantified over, every comparison touching it is = or != (and any
constant it is compared with is an entity constant of the instance), and
every atom position it fills is an entity field.  A candidate is an
entity variable unless some =/!= comparison links it to a non-candidate
variable.

Validity for a variable list is the syntactic condition under which the
reference domain construction is guaranteed non-empty on instances
without empty tables: an atom must mention all the variables, a lone
comparison must equate the single variable with a constant, a
conjunction must either equate every variable with a constant or contain
a valid conjunct, both OR branches must be valid, and EXISTS must not
capture a requested variable.

As in ``safety``, each gate is split into a summary per conjunct of a
normalized body (``ConjunctGates``) and a combine at the conjunction
level (``gate_reports``), which ``stats.prepare_query`` and the miner
both use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UnsafeQueryError
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
    Variable,
    conjuncts_of,
    equated_constants,
    normalize,
    subformulas,
)
from .safety import SafetyReport, conjunct_safety, free_of, violations
from .schema import DatabaseInstance, entity_fields, is_entity_constant

REASON_QUANTIFIED = "quantified-over"
REASON_BAD_OP = "bad-comparison-op"
REASON_NON_ENTITY_CONSTANT = "non-entity-constant"
REASON_NON_ENTITY_FIELD = "non-entity-field"
REASON_EQUATED_NON_CANDIDATE = "equated-to-non-candidate"


@dataclass(frozen=True)
class EntityFailure:
    variable: str
    reason: str


@dataclass(frozen=True)
class ErReport:
    is_er: bool
    entity_vars: frozenset[str]
    failures: tuple[EntityFailure, ...]


@dataclass(frozen=True)
class EntityFacts:
    """What the entity check needs of a formula, from one walk over its
    subformulas: the variables it names, the reasons some of them fail
    to be entity variable candidates, and the variable pairs its =/!=
    comparisons link, in both directions."""

    names: frozenset[str]
    failures: dict[str, frozenset[str]]
    links: tuple[tuple[str, str], ...]

    @property
    def candidates(self) -> frozenset[str]:
        return self.names - self.failures.keys()


def _entity_facts(f: Formula, inst: DatabaseInstance) -> EntityFacts:
    names: set[str] = set()
    failures: dict[str, set[str]] = {}
    links: list[tuple[str, str]] = []

    def fail(var: str, reason: str):
        failures.setdefault(var, set()).add(reason)

    efields = entity_fields(inst.schema)
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            names.add(g.var)
            fail(g.var, REASON_QUANTIFIED)
        elif isinstance(g, Comparison):
            for side, other in ((g.left, g.right), (g.right, g.left)):
                if not isinstance(side, Variable):
                    continue
                names.add(side.name)
                if g.op not in ("=", "!="):
                    fail(side.name, REASON_BAD_OP)
                elif isinstance(other, Variable):
                    links.append((side.name, other.name))
                if isinstance(other, Constant) and not is_entity_constant(
                    inst, other.value
                ):
                    fail(side.name, REASON_NON_ENTITY_CONSTANT)
        elif isinstance(g, Atom):
            table = inst.schema.table(g.predicate)
            for fld, t in zip(table.fields, g.terms):
                if isinstance(t, Variable):
                    names.add(t.name)
                    if f"{table.name}.{fld.name}" not in efields:
                        fail(t.name, REASON_NON_ENTITY_FIELD)
    frozen = {v: frozenset(reasons) for v, reasons in failures.items()}
    return EntityFacts(frozenset(names), frozen, tuple(links))


def entity_variable_candidates(f: Formula, inst: DatabaseInstance) -> frozenset[str]:
    """Variables of f (free or bound) that individually qualify as
    entity variable candidates."""
    return _entity_facts(normalize(f), inst).candidates


def is_er_query(f: Formula, inst: DatabaseInstance) -> ErReport:
    """Check that a safe formula's free variables are all entity variables.

    Raises UnsafeQueryError when the formula is not safe.
    """
    body = normalize(f)
    safety, er, _ = gate_reports(body, conjunction_gates(body, inst, ()), ())
    if not safety.safe:
        raise UnsafeQueryError(safety)
    return er


def _er_report(free, facts) -> ErReport:
    """Entity status of the free variables of a conjunction whose
    conjuncts have the given facts."""
    names, failures = set(), {}
    for x in facts:
        names |= x.names
        for v, reasons in x.failures.items():
            failures[v] = failures.get(v, frozenset()) | reasons
    candidates = names - failures.keys()
    linked_out = {a for x in facts for a, b in x.links if b not in candidates}
    out_failures: list[EntityFailure] = []
    entity_vars = set()
    for v in free:
        problems = set(failures.get(v, ()))
        if v in linked_out:
            problems.add(REASON_EQUATED_NON_CANDIDATE)
        if problems:
            for reason in sorted(problems):
                out_failures.append(EntityFailure(v, reason))
        else:
            entity_vars.add(v)
    return ErReport(not out_failures, frozenset(entity_vars), tuple(out_failures))


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    failing: Formula | None = None


def is_valid_for(f: Formula, variables) -> ValidityReport:
    """Check validity of f for the given variable list (see module doc)."""
    varset = frozenset(variables)
    if not varset:
        raise ValueError("validity needs a non-empty variable list")
    return _valid(normalize(f), varset)


def _valid(f: Formula, varset: frozenset[str]) -> ValidityReport:
    if isinstance(f, Atom):
        names = {t.name for t in f.terms if isinstance(t, Variable)}
        if varset <= names:
            return ValidityReport(True)
        return ValidityReport(False, f)
    if isinstance(f, Comparison):
        # One comparison equates at most one variable with a constant.
        if varset <= equated_constants(f).keys():
            return ValidityReport(True)
        return ValidityReport(False, f)
    if isinstance(f, Not):
        return ValidityReport(False, f)
    if isinstance(f, And):
        return _conjunction_validity(
            f, varset, equated_constants(f).keys(),
            (_valid(c, varset) for c in f.conjuncts),
        )
    if isinstance(f, Or):
        left = _valid(f.left, varset)
        if not left.valid:
            return left
        right = _valid(f.right, varset)
        if not right.valid:
            return right
        return ValidityReport(True)
    if isinstance(f, Exists):
        if f.var in varset:
            return ValidityReport(False, f)
        return _valid(f.body, varset)
    if isinstance(f, Forall):
        raise ValueError("is_valid_for needs a normalized formula")
    raise TypeError(f"not a formula: {f!r}")


def _conjunction_validity(f: And, varset, cover, reports) -> ValidityReport:
    """Validity of a conjunction of two or more conjuncts: it is valid when
    the variables its conjuncts equate with constants (``cover``) include
    ``varset``, or when some conjunct's report (``reports``) is valid."""
    if varset <= cover or any(r.valid for r in reports):
        return ValidityReport(True)
    return ValidityReport(False, f)


class ConjunctGates:
    """What the safety, entity, and validity gates need of one conjunct of
    a normalized query body.  None of it depends on the other conjuncts,
    so a conjunct shared by many queries (a mining pool item) is
    summarized once; ``gate_reports`` combines the summaries.

    The entity facts depend on the instance (through its entity
    constants) and the validity report on the head variables, so a
    summary holds for one instance and one head.  Both are worked out
    on first use, since only safe queries need them.
    """

    def __init__(self, conjunct: Formula, inst: DatabaseInstance, variables):
        self.safety = conjunct_safety(conjunct)
        self._inst = inst
        self._varset = frozenset(variables)

    @property
    def conjunct(self) -> Formula:
        return self.safety.conjunct

    @cached_property
    def entities(self) -> EntityFacts:
        return _entity_facts(self.conjunct, self._inst)

    @cached_property
    def validity(self) -> ValidityReport:
        return _valid(self.conjunct, self._varset)


def conjunction_gates(
    f: Formula, inst: DatabaseInstance, variables
) -> tuple[ConjunctGates, ...]:
    """The summaries of the conjuncts of a normalized body."""
    return tuple(ConjunctGates(c, inst, variables) for c in conjuncts_of(f))


def gate_reports(body: Formula, parts, variables):
    """The safety, entity, and validity reports of a normalized body whose
    conjuncts' summaries are ``parts`` (made for the same head).

    Entity status and validity are only defined for a safe body, so
    both are None for an unsafe one.  A body with no head variables is
    valid for no variable list.
    """
    summaries = [p.safety for p in parts]
    safety = SafetyReport(tuple(violations(body, summaries)))
    if not safety.safe:
        return safety, None, None
    er = _er_report(free_of(summaries), [p.entities for p in parts])
    if not variables:
        validity = ValidityReport(False)
    elif len(parts) == 1:
        validity = parts[0].validity
    else:
        validity = _conjunction_validity(
            body, frozenset(variables), equated_constants(body).keys(),
            (p.validity for p in parts),
        )
    return safety, er, validity
