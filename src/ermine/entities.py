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
level.  A summary holds its conjunct's gate state (``GateState``), and
the state of a conjunction is its conjuncts' states joined in order
(``GateState.joined``).  ``gate_reports``, which ``stats.prepare_query``
uses, reads the verdicts from the joined state and the reports' details
from the summaries; the miner reads a drop reason from the state alone.
The state of a negated conjunct follows from its body's summaries
(``negation_state``), so the miner derives a negated item's state from
the item it negates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

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
from .safety import (
    RULE_BAD_NEGATION,
    RULE_UNLIMITED_VAR,
    SafetyReport,
    closed_limited,
    conjunct_safety,
    free_of,
    violations,
)
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
    facts = _entity_facts(normalize(f), inst)
    return facts.names - facts.failures.keys()


def is_er_query(f: Formula, inst: DatabaseInstance) -> ErReport:
    """Check that a safe formula's free variables are all entity variables.

    Raises UnsafeQueryError when the formula is not safe.
    """
    body = normalize(f)
    safety, er, _ = gate_reports(body, conjunction_gates(body, inst, ()), ())
    if not safety.safe:
        raise UnsafeQueryError(safety)
    return er


def _er_report(free, state: GateState, facts) -> ErReport:
    """Entity status of the free variables ``free`` of a conjunction whose
    joined gate state is ``state``; its conjuncts' facts give a failing
    variable's reasons."""
    linked_out = state.linked_out()
    failing = [v for v in free if v in state.failed or v in linked_out]
    failures: list[EntityFailure] = []
    for v in failing:
        problems = {reason for x in facts for reason in x.failures.get(v, ())}
        if v in linked_out:
            problems.add(REASON_EQUATED_NON_CANDIDATE)
        failures += [EntityFailure(v, reason) for reason in sorted(problems)]
    return ErReport(not failing, frozenset(free).difference(failing), tuple(failures))


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
        # Valid when its comparisons equate every variable with a constant
        # or some conjunct is valid.
        if varset <= equated_constants(f).keys() or any(
            _valid(c, varset).valid for c in f.conjuncts
        ):
            return ValidityReport(True)
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


@dataclass(frozen=True, slots=True)
class GateState:
    """The gate state of a conjunction of conjuncts, all its three
    verdicts need: free variables; limited variables, already closed
    under the ``=`` pairs ``equates``; the entity names, the variables
    with an entity failure and the =/!= links; the variables a comparison
    equates with a constant (``cover``); whether some conjunct is valid;
    and per conjunct that can make the conjunction unsafe, in order, a
    negated conjunct's free variables (R4 when one is not limited) and the
    rule of the first violation inside it.

    A single conjunct is valid just when ``cover`` includes the head or
    it is valid on its own, so ``valid`` and ``cover`` give validity for
    one conjunct and for many alike.
    """

    free: frozenset[str]
    limited: frozenset[str]
    equates: tuple[tuple[str, str], ...]
    names: frozenset[str]
    failed: frozenset[str]
    links: tuple[tuple[str, str], ...]
    cover: frozenset[str]
    valid: bool
    checks: tuple[tuple[frozenset[str], str | None], ...]

    def joined(self, other: GateState) -> GateState:
        """The state of this conjunction followed by the other's conjuncts."""
        limited = _union(self.limited, other.limited)
        equates = self.equates + other.equates
        if equates:
            limited = closed_limited(limited, equates)
        return GateState(
            _union(self.free, other.free),
            limited,
            equates,
            _union(self.names, other.names),
            _union(self.failed, other.failed),
            self.links + other.links,
            _union(self.cover, other.cover),
            self.valid or other.valid,
            self.checks + other.checks,
        )

    def linked_out(self) -> set[str]:
        """The variables a =/!= comparison links to a non-candidate.  A
        link is read against the final candidates: a later conjunct can
        fail a variable an earlier one linked to."""
        candidates = self.names - self.failed
        return {a for a, b in self.links if b not in candidates}

    def drop_reason(self, head: frozenset[str]) -> str | None:
        """Why a query of this body and head is dropped, None if it passes.
        An unsafe one names its first violation: R3, then per conjunct
        its R4 and the violations inside it."""
        if self.free != head:
            return "free-variable-mismatch"
        if not self.free <= self.limited:
            return f"unsafe ({RULE_UNLIMITED_VAR})"
        for negated_free, inner in self.checks:
            if not negated_free <= self.limited:
                return f"unsafe ({RULE_BAD_NEGATION})"
            if inner is not None:
                return f"unsafe ({inner})"
        if head & self.failed or head & self.linked_out():
            return "not-an-entity-query"
        if not (head <= self.cover or self.valid):
            return "not-valid"
        return None


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, sharing a when b adds nothing: sets mostly stop growing
    after a few conjuncts, and the miner keeps a state per signed set."""
    return a if b <= a else a | b


class ConjunctGates:
    """What the safety, entity, and validity gates need of one conjunct of
    a normalized query body.  None of it depends on the other conjuncts,
    so a conjunct shared by many queries (a mining pool item) is
    summarized once; ``gate_reports`` combines the summaries.

    The entity facts depend on the instance (through its entity
    constants) and the validity report on the head variables, so a
    summary holds for one instance and one head.  Both, and the gate
    ``state`` made from them, are worked out on first use, since only
    safe queries need them.
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

    @cached_property
    def state(self) -> GateState:
        """The gate state of this conjunct alone; its own ``=`` pair spreads
        no limitation, as a comparison of two variables limits neither."""
        s, facts, negated = self.safety, self.entities, isinstance(self.conjunct, Not)
        inner = s.violations[0].rule if s.violations else None
        checks = ((frozenset(s.free if negated else ()), inner),) if negated or inner else ()
        return GateState(
            frozenset(s.free), s.limits, (s.equates,) if s.equates else (),
            facts.names, frozenset(facts.failures), facts.links,
            s.limits if isinstance(self.conjunct, Comparison) else frozenset(),
            self.validity.valid, checks,
        )


def conjunction_gates(
    f: Formula, inst: DatabaseInstance, variables
) -> tuple[ConjunctGates, ...]:
    """The summaries of the conjuncts of a normalized body."""
    return tuple(ConjunctGates(c, inst, variables) for c in conjuncts_of(f))


def negation_state(body: Formula, parts) -> GateState:
    """The gate state of ``NOT body``, read from the summaries ``parts``
    of ``body``'s conjuncts with no walk of the formula.  It is what
    ``ConjunctGates(Not(body), ...).state`` works out: a negated conjunct
    has ``body``'s free variables, limits, equates and covers nothing, and
    is not valid; its entity facts are its conjuncts' merged, links in
    order; and its one check pairs its free variables with the rule of
    the first violation inside ``body``."""
    summaries = [p.safety for p in parts]
    free = frozenset(free_of(summaries))
    inner = next(violations(body, summaries), None)
    facts = [p.entities for p in parts]
    return GateState(
        free, frozenset(), (),
        frozenset().union(*[x.names for x in facts]),
        frozenset().union(*[x.failures for x in facts]),
        tuple([link for x in facts for link in x.links]),
        frozenset(), False, ((free, inner.rule if inner else None),),
    )


def gate_reports(body: Formula, parts, variables):
    """The safety, entity, and validity reports of a normalized body whose
    conjuncts' summaries are ``parts`` (made for the same head).

    Entity status and validity are only defined for a safe body, so
    both are None for an unsafe one; their verdicts are read from the
    parts' joined gate state.  A body with no head variables is valid
    for no variable list.
    """
    summaries = [p.safety for p in parts]
    safety = SafetyReport(tuple(violations(body, summaries)))
    if not safety.safe:
        return safety, None, None
    state = reduce(GateState.joined, [p.state for p in parts])
    er = _er_report(free_of(summaries), state, [p.entities for p in parts])
    if not variables:
        validity = ValidityReport(False)
    elif len(parts) == 1:
        validity = parts[0].validity
    elif frozenset(variables) <= state.cover or state.valid:
        validity = ValidityReport(True)
    else:
        validity = ValidityReport(False, body)
    return safety, er, validity
