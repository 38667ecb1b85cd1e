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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    equated_constants,
    free_variables,
    normalize,
    subformulas,
)
from .safety import _check_normalized
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


def _candidates(f: Formula, inst: DatabaseInstance):
    """Entity variable candidates of a normalized formula, and the reasons
    each of its other variables fails to be one."""
    names: set[str] = set()
    failures: dict[str, set[str]] = {}

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
    return frozenset(names - failures.keys()), failures


def entity_variable_candidates(f: Formula, inst: DatabaseInstance) -> frozenset[str]:
    """Variables of f (free or bound) that individually qualify as
    entity variable candidates."""
    return _candidates(normalize(f), inst)[0]


def is_er_query(f: Formula, inst: DatabaseInstance) -> ErReport:
    """Check that a safe formula's free variables are all entity variables.

    Raises UnsafeQueryError when the formula is not safe.
    """
    return _er_report(normalize(f), inst)


def _er_report(f: Formula, inst: DatabaseInstance) -> ErReport:
    """``is_er_query`` of a formula that is already normalized."""
    report = _check_normalized(f)
    if not report.safe:
        raise UnsafeQueryError(report)
    candidates, failures = _candidates(f, inst)
    linked_out: dict[str, str] = {}
    for g in subformulas(f):
        if (
            isinstance(g, Comparison)
            and g.op in ("=", "!=")
            and isinstance(g.left, Variable)
            and isinstance(g.right, Variable)
        ):
            for a, b in ((g.left, g.right), (g.right, g.left)):
                if b.name not in candidates:
                    linked_out.setdefault(a.name, b.name)
    out_failures: list[EntityFailure] = []
    entity_vars = set()
    for v in free_variables(f):
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
        if varset <= equated_constants(f).keys():
            return ValidityReport(True)
        for c in f.conjuncts:
            r = _valid(c, varset)
            if r.valid:
                return r
        return ValidityReport(False, f)
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

