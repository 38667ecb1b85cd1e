"""Level-wise mining of frequent entity queries and association rules.

A language bias fixes the head variables and a pool of pattern items.
Each item is parsed and existentially closed over its non-head
variables; a candidate query at level k conjoins k distinct pool items,
each taken positively or (when allowed and the item is negatable)
negated.  Candidates failing the free-variable, safety, entity, or
validity checks are dropped with a logged reason, so everything that
reaches evaluation is a well-formed entity query.

Mining proceeds level by level, and level k only extends candidates of
level k-1 that passed the gates.  Because the frequency of a conjunction
never exceeds the frequency of any subconjunction, extending only the
frequent survivors (classic Apriori pruning) finds the same frequent set
as extending every evaluated candidate, which ``prune=False`` does to
keep that equivalence testable.  Neither is exhaustive enumeration: the
gates are not anti-monotone, so a candidate whose every sub-conjunction
was dropped by a gate is never built.

Bias documents are JSON:

    {"head": ["P"],
     "items": [{"pattern": "WeekdayTV(P, SN, V, S) AND V >= 10",
                "negatable": true}, ...],
     "max_conjuncts": 2,
     "allow_negation": true}

Items may also be plain pattern strings (negatable defaults to true).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction

from .errors import BiasError, EmptyDomainError, UnsafeQueryError, ZeroAntecedentError
from .evaluator import PreparedQuery
from .formulas import (
    And,
    Atom,
    Comparison,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    QueryDecl,
    Variable,
    conjunction,
    free_variables,
    normalize,
    to_text,
)
from .parser import check_nesting, parse_formula_text
from .schema import DatabaseInstance, Schema, read_json_file
from .stats import ErRule, Frequency, confidence_from_count, frequency, prepare_query

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PoolItem:
    text: str
    formula: Formula  # existentially closed over its non-head variables
    negatable: bool
    canonical: str


@dataclass(frozen=True)
class LanguageBias:
    head: tuple[str, ...]
    items: tuple[PoolItem, ...]
    max_conjuncts: int
    allow_negation: bool


@dataclass(frozen=True)
class Candidate:
    """A candidate query: signed pool items plus its prepared query.

    ``parts`` holds one formula per signed item (the item's closure,
    negated where the sign says so), so rule splitting can regroup them
    without the bias at hand.
    """

    signed_items: tuple[tuple[int, bool], ...]  # (item index, negated)
    parts: tuple[Formula, ...]
    decl: PreparedQuery
    canonical: str

    @property
    def level(self) -> int:
        return len(self.signed_items)


@dataclass(frozen=True)
class FrequentQuery:
    candidate: Candidate
    frequency: Frequency
    level: int


@dataclass(frozen=True)
class MinedRule(ErRule):
    support: Frequency
    confidence: Fraction


@dataclass(frozen=True)
class LevelStats:
    level: int
    candidates: int
    survivors: int


@dataclass(frozen=True)
class MiningResult:
    frequent: tuple[FrequentQuery, ...]
    rules: tuple[MinedRule, ...]
    levels: tuple[LevelStats, ...]


def _close_over_non_head(f: Formula, head) -> Formula:
    extra = [v for v in free_variables(f) if v not in head]
    for v in reversed(extra):
        f = Exists(v, f)
    return f


def _canonical_text(f: Formula, head) -> str:
    """Render with bound variables renamed in first-use order, so pool
    items that differ only in bound names collapse together."""
    counter = itertools.count(1)

    def sub(term, env):
        if isinstance(term, Variable) and term.name in env:
            return Variable(env[term.name])
        return term

    def rebuild(g, env):
        if isinstance(g, (Exists, Forall)):
            fresh = f"B{next(counter)}_"
            return type(g)(fresh, rebuild(g.body, {**env, g.var: fresh}))
        if isinstance(g, Not):
            return Not(rebuild(g.body, env))
        if isinstance(g, And):
            return conjunction([rebuild(c, env) for c in g.conjuncts])
        if isinstance(g, Or):
            return Or(rebuild(g.left, env), rebuild(g.right, env))
        if isinstance(g, Comparison):
            return Comparison(sub(g.left, env), g.op, sub(g.right, env))
        if isinstance(g, Atom):
            return Atom(g.predicate, tuple(sub(t, env) for t in g.terms))
        raise TypeError(f"not a formula: {g!r}")

    return to_text(rebuild(f, {}))


def load_bias(doc, schema: Schema) -> LanguageBias:
    """Build a LanguageBias from a parsed bias document."""
    if not isinstance(doc, dict):
        raise BiasError("bias document must be a JSON object")
    head = doc.get("head")
    if (
        not isinstance(head, list)
        or not head
        or not all(isinstance(v, str) for v in head)
        or len(set(head)) != len(head)
    ):
        raise BiasError("'head' must be a non-empty list of distinct variables")
    head = tuple(head)
    raw_items = doc.get("items")
    if not isinstance(raw_items, list) or not raw_items:
        raise BiasError("'items' must be a non-empty list")
    items: list[PoolItem] = []
    seen = set()
    for raw in raw_items:
        if isinstance(raw, str):
            pattern, negatable = raw, True
        elif isinstance(raw, dict) and isinstance(raw.get("pattern"), str):
            pattern = raw["pattern"]
            negatable = bool(raw.get("negatable", True))
        else:
            raise BiasError("each item needs a string 'pattern'")
        closed = _close_over_non_head(parse_formula_text(pattern, schema), head)
        check_nesting(closed)
        canonical = _canonical_text(closed, head)
        if canonical in seen:
            log.debug("bias: dropping duplicate item %r", pattern)
            continue
        seen.add(canonical)
        items.append(PoolItem(pattern, closed, negatable, canonical))
    max_conjuncts = doc.get("max_conjuncts", len(items))
    if not isinstance(max_conjuncts, int) or max_conjuncts < 1:
        raise BiasError("'max_conjuncts' must be a positive integer")
    allow_negation = bool(doc.get("allow_negation", False))
    return LanguageBias(head, tuple(items), max_conjuncts, allow_negation)


def load_bias_file(path, schema: Schema) -> LanguageBias:
    return load_bias(read_json_file(path, BiasError), schema)


def build_candidate(bias: LanguageBias, inst: DatabaseInstance, signed_items):
    """Assemble and check one candidate; returns (candidate, drop reason)."""
    parts = tuple(
        Not(bias.items[i].formula) if negated else bias.items[i].formula
        for i, negated in signed_items
    )
    body = conjunction(parts)
    if set(free_variables(body)) != set(bias.head):
        return None, "free-variable-mismatch"
    q = prepare_query(inst, QueryDecl(None, bias.head, body))
    if not q.safety.safe:
        return None, f"unsafe ({q.safety.violations[0].rule})"
    if not q.er.is_er:
        return None, "not-an-entity-query"
    if not q.validity.valid:
        return None, "not-valid"
    parts_canonical = sorted(
        _canonical_text(normalize(p), bias.head) for p in parts
    )
    canonical = " AND ".join(parts_canonical)
    return Candidate(tuple(signed_items), parts, q, canonical), None


def enumerate_level(
    bias: LanguageBias,
    inst: DatabaseInstance,
    level: int,
    previous=None,
) -> list[Candidate]:
    """Candidates at a level; level k > 1 extends the given previous
    candidates by one unused item.  Duplicates (same signed items, or the
    same query up to conjunct order and bound-variable names) collapse."""
    if level < 1:
        raise ValueError("level must be >= 1")

    def signs_for(i):
        if bias.allow_negation and bias.items[i].negatable:
            return (False, True)
        return (False,)

    signed_sets = []
    if level == 1:
        for i in range(len(bias.items)):
            for neg in signs_for(i):
                signed_sets.append(((i, neg),))
    else:
        seen_signed = set()
        for prev in previous or ():
            used = {i for i, _ in prev.signed_items}
            for i in range(len(bias.items)):
                if i in used:
                    continue
                for neg in signs_for(i):
                    signed = tuple(sorted(prev.signed_items + ((i, neg),)))
                    if signed in seen_signed:
                        continue
                    seen_signed.add(signed)
                    signed_sets.append(signed)

    out = []
    seen_canonical = set()
    for signed in signed_sets:
        candidate, reason = build_candidate(bias, inst, signed)
        if candidate is None:
            log.debug("level %d: dropping %r: %s", level, signed, reason)
            continue
        if candidate.canonical in seen_canonical:
            log.debug("level %d: dropping %r: duplicate query", level, signed)
            continue
        seen_canonical.add(candidate.canonical)
        out.append(candidate)
    return out


def mine_frequent(
    inst: DatabaseInstance,
    bias: LanguageBias,
    min_support: Fraction,
    max_level: int | None = None,
    prune: bool = True,
) -> MiningResult:
    """Level-wise frequent query search; rules are left empty here."""
    min_support = Fraction(min_support)
    if not 0 < min_support <= 1:
        raise ValueError("min_support must be in (0, 1]")
    levels = bias.max_conjuncts if max_level is None else min(max_level, bias.max_conjuncts)
    frequent: list[FrequentQuery] = []
    stats: list[LevelStats] = []
    extendable: list[Candidate] = []
    for level in range(1, levels + 1):
        candidates = enumerate_level(
            bias, inst, level, extendable if level > 1 else None
        )
        evaluated = []
        survivors = []
        for c in candidates:
            try:
                fr = frequency(inst, c.decl)
            except EmptyDomainError:
                log.debug("level %d: empty domain for %s", level, c.canonical)
                continue
            evaluated.append(c)
            if fr.value >= min_support:
                survivors.append(c)
                frequent.append(FrequentQuery(c, fr, level))
        stats.append(LevelStats(level, len(candidates), len(survivors)))
        extendable = survivors if prune else evaluated
        if not extendable:
            break
    frequent.sort(key=lambda fq: (fq.level, fq.candidate.canonical))
    return MiningResult(tuple(frequent), (), tuple(stats))


def mine_rules(
    inst: DatabaseInstance,
    frequent,
    min_confidence: Fraction,
) -> tuple[MinedRule, ...]:
    """Split each frequent multi-item query into antecedent -> consequent
    rules and keep those at or above the confidence threshold.

    A split's A AND C has exactly the candidate's conjuncts, so its
    answer count is the candidate's frequency numerator and
    ``confidence_from_count`` evaluates only the antecedent.
    """
    min_confidence = Fraction(min_confidence)
    rules = []
    for fq in sorted(frequent, key=lambda q: (q.level, q.candidate.canonical)):
        parts = fq.candidate.parts
        if len(parts) < 2:
            continue
        head = fq.candidate.decl.variables
        for mask in range(1, 2 ** len(parts) - 1):
            ant_parts = [p for j, p in enumerate(parts) if mask & (1 << j)]
            con_parts = [p for j, p in enumerate(parts) if not mask & (1 << j)]
            ant_body = normalize(conjunction(ant_parts))
            con_body = normalize(conjunction(con_parts))
            if set(free_variables(ant_body)) != set(head):
                log.debug(
                    "rule from %s: antecedent drops head variables",
                    fq.candidate.canonical,
                )
                continue
            antecedent = QueryDecl(None, head, ant_body)
            try:
                conf = confidence_from_count(inst, antecedent, fq.frequency.numerator)
            except (UnsafeQueryError, ZeroAntecedentError) as exc:
                log.debug("rule from %s: %s", fq.candidate.canonical, exc)
                continue
            if conf >= min_confidence:
                rules.append(
                    MinedRule(antecedent, con_body, fq.frequency, conf)
                )
    return tuple(rules)


def mine(
    inst: DatabaseInstance,
    bias: LanguageBias,
    min_support: Fraction,
    min_confidence: Fraction,
    max_level: int | None = None,
    prune: bool = True,
) -> MiningResult:
    result = mine_frequent(inst, bias, min_support, max_level=max_level, prune=prune)
    rules = mine_rules(inst, result.frequent, min_confidence)
    return MiningResult(result.frequent, rules, result.levels)
