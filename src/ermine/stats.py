"""Frequency, support, and confidence as exact rationals.

The frequency of a query is |result tuples| / |reference domain of the
head variables|.  It is only defined for safe entity queries that are
valid for their head (validity guarantees a non-empty denominator on
instances without empty tables; an empty domain raises EmptyDomainError
rather than dividing by zero).

A rule F -> G pairs an antecedent query F with a consequent formula G
whose free variables all occur in F's head.  Support is the frequency of
the conjunction F AND G; confidence is |tuples(F AND G)| / |tuples(F)|.
Both come from one evaluation of F (``rule_statistics``): G's conjuncts
are conjoined onto F's answers by the conjunction step the miner uses,
so F AND G is never evaluated from scratch.  The checks run in one
order: a consequent variable outside F's head, F AND G's safety, entity
and validity gates, an empty reference domain (which ``confidence``
does not read), F's own safety, and an antecedent without answers.
All arithmetic uses fractions.Fraction; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .domains import reference_domain
from .entities import conjunction_gates, gate_reports
from .errors import (
    DataError,
    EmptyDomainError,
    InvalidRuleError,
    NotEntityQueryError,
    NotValidError,
    UnsafeQueryError,
    ZeroAntecedentError,
)
from .evaluator import (
    PreparedQuery,
    conjoin,
    conjunct_relations,
    evaluate,
    vocabulary_nonempty,
)
from .formulas import (
    Atom,
    Constant,
    Formula,
    QueryDecl,
    Variable,
    conjunction,
    free_variables,
    normalize,
    to_text,
)
from .schema import DatabaseInstance


@dataclass(frozen=True)
class Frequency:
    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("frequency denominator must be positive")

    @cached_property
    def value(self) -> Fraction:
        """The frequency as a normalized Fraction, built on first use."""
        return Fraction(self.numerator, self.denominator)

    def __str__(self):
        return f"{self.numerator}/{self.denominator} = {self.value}"


@dataclass(frozen=True)
class ErRule:
    antecedent: QueryDecl
    consequent: Formula

    def text(self) -> str:
        return f"{to_text(self.antecedent.body)} -> {to_text(self.consequent)}"


def prepare_query(inst: DatabaseInstance, query: QueryDecl) -> PreparedQuery:
    """Normalize the body once and run the safety, entity, and validity
    gates once each, keeping every report; a PreparedQuery comes back as
    it is.  Raises nothing for a query that fails a gate.

    The gates summarize each conjunct of the normalized body and combine
    the summaries (``entities.gate_reports``); the miner joins the same
    summaries' gate states per signed set.
    """
    if isinstance(query, PreparedQuery):
        return query
    body = normalize(query.body)
    parts = conjunction_gates(body, inst, query.variables)
    safety, er, validity = gate_reports(body, parts, query.variables)
    return PreparedQuery(
        query.name, query.variables, body, source=query.source,
        safety=safety, er=er, validity=validity,
    )


def checked_query(inst: DatabaseInstance, query: QueryDecl) -> PreparedQuery:
    """Prepare the query and raise for the first gate it fails.

    Raises UnsafeQueryError, NotEntityQueryError, or NotValidError.
    """
    q = prepare_query(inst, query)
    if not q.safety.safe:
        raise UnsafeQueryError(q.safety)
    if not q.er.is_er:
        raise NotEntityQueryError(q.er)
    if not q.validity.valid:
        failing = q.validity.failing or q.body
        raise NotValidError(
            f"query is not valid for ({', '.join(q.variables)}); "
            f"first failing subformula: {to_text(failing)}"
        )
    return q


def frequency(inst: DatabaseInstance, query: QueryDecl) -> Frequency:
    """Exact |tuples| / |reference domain| for a valid entity query."""
    q = checked_query(inst, query)
    size = _domain_size(inst, q)
    return Frequency(len(evaluate(inst, q).rows), size)


def _domain_size(inst: DatabaseInstance, q: PreparedQuery) -> int:
    """The size of a checked query's reference domain, the denominator of
    its frequency; raises EmptyDomainError when it would be 0."""
    members = reference_domain(inst, q.body, q.variables).members
    if not members:
        raise EmptyDomainError(
            f"reference domain of ({', '.join(q.variables)}) is empty"
        )
    return len(members)


def rule_conjunction(rule: ErRule) -> QueryDecl:
    """The query F AND G over the antecedent's head."""
    head = set(rule.antecedent.variables)
    cons_free = set(free_variables(rule.consequent))
    if not cons_free <= head:
        stray = ", ".join(sorted(cons_free - head))
        raise InvalidRuleError(
            f"consequent variables not in the antecedent head: {stray}"
        )
    body = conjunction([rule.antecedent.body, rule.consequent])
    return QueryDecl(None, rule.antecedent.variables, body)


def support(inst: DatabaseInstance, rule: ErRule) -> Frequency:
    return frequency(inst, rule_conjunction(rule))


def confidence(inst: DatabaseInstance, rule: ErRule) -> Fraction:
    """|tuples(F AND G)| / |tuples(F)|; needs a non-empty antecedent.
    Reads no reference domain."""
    return _rule_counts(inst, rule, checked_query(inst, rule_conjunction(rule)))[1]


def rule_statistics(inst: DatabaseInstance, rule: ErRule) -> tuple[Frequency, Fraction]:
    """The support and the confidence of a rule from one evaluation of
    its antecedent; raises what ``support`` and then ``confidence``
    would."""
    conj = checked_query(inst, rule_conjunction(rule))
    size = _domain_size(inst, conj)
    count, conf = _rule_counts(inst, rule, conj)
    return Frequency(count, size), conf


def _rule_counts(inst, rule: ErRule, conj: PreparedQuery) -> tuple[int, Fraction]:
    """|tuples(F AND G)| and the confidence, for a rule whose F AND G
    (``conj``) passed the gates.  F is evaluated once, raising for its own
    safety, and G's conjuncts are conjoined onto its answers.  They are
    evaluated over F AND G's vocabulary, as evaluating ``conj`` would;
    F's own differs only when F's answers are empty either way."""
    answers = evaluate(inst, rule.antecedent)
    parts, comparisons, negations = conjunct_relations(
        inst, normalize(rule.consequent), vocabulary_nonempty(inst, conj.body)
    )
    count = len(conjoin([answers, *parts], comparisons, negations).rows)
    return count, confidence_from_count(rule.antecedent, count, len(answers.rows))


def confidence_from_count(
    antecedent: QueryDecl, conjunction_count: int, antecedent_count: int
) -> Fraction:
    """Confidence of a rule F -> G whose F AND G has ``conjunction_count``
    result tuples and whose F has ``antecedent_count``; raises
    ZeroAntecedentError when F has none."""
    if not antecedent_count:
        raise ZeroAntecedentError(
            f"antecedent {to_text(antecedent.body)} has no result tuples"
        )
    return Fraction(conjunction_count, antecedent_count)


def itemset_frequency(
    inst: DatabaseInstance,
    items,
    transactions_table: str = "Transactions",
    link_table: str = "TransItems",
) -> Frequency:
    """Frequency of transactions containing all the given items.

    Expects a unary transactions table and a binary link table whose
    first field holds the transaction and whose second holds the item.
    The empty itemset has frequency 1 on a non-empty transactions table.
    """
    trans = inst.schema.table(transactions_table)
    link = inst.schema.table(link_table)
    if trans.arity != 1:
        raise DataError(f"{transactions_table} must have exactly one field")
    if link.arity != 2:
        raise DataError(f"{link_table} must have exactly two fields")
    var = Variable("X")
    parts: list[Formula] = [Atom(transactions_table, (var,))]
    for item in items:
        parts.append(Atom(link_table, (var, Constant(item))))
    query = QueryDecl("itemset", ("X",), conjunction(parts))
    return frequency(inst, query)
