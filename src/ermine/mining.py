"""Level-wise mining of frequent entity queries and association rules.

A language bias fixes the head variables and a pool of pattern items.
Each item is parsed and existentially closed over its non-head
variables; a candidate query at level k conjoins k distinct pool items,
each taken positively or (when allowed and the item is negatable)
negated.  Candidates failing the free-variable, safety, entity, or
validity checks are dropped with a reason logged at debug level, so
everything that reaches evaluation is a well-formed entity query.

Mining proceeds level by level, and level k only extends candidates of
level k-1 that passed the gates.  Because the frequency of a conjunction
never exceeds the frequency of any subconjunction, extending only the
frequent survivors (classic Apriori pruning) finds the same frequent set
as extending every evaluated candidate, which ``prune=False`` does to
keep that equivalence testable.  Neither is exhaustive enumeration: the
gates are not anti-monotone, so a candidate whose every sub-conjunction
was dropped by a gate is never built.

Gating is decided per item.  Each item is existentially closed over its
non-head variables, so whatever the safety, entity, and validity gates
find inside one of an item's conjuncts is the same in every candidate the
item is part of; only the candidate's top-level conjunction differs.  A
mining run summarizes the conjuncts of each signed item once
(``entities.ConjunctGates``) and gates a candidate by combining its
items' summaries with ``entities.gate_reports``, the combine
``stats.prepare_query`` runs on the conjuncts of a single query.  Per
candidate that leaves the fixpoint of limited variables, R3 and R4 at
the top level, the entity status of the head from the merged facts, and
validity as "the constant equalities cover the head, or some conjunct is
valid".

Counting is vertical, in the manner of Eclat's tidset intersection: a
mining run evaluates each pool item once and computes its reference
domain once.  A candidate's answers are then the natural join (an
intersection when every item mentions the whole head) of its positive
items' answers, anti-joined with its negated items' answers, and its
reference domain is the union of its items' domains.  That is what
evaluating the body and the conjunction-union rule of reference domains
give whenever each item normalizes to one conjunct that is not a
conjunction, a comparison or a negation.  Other candidates are counted
by ``stats.frequency``: an item like ``P = "Gilmore"`` can make the
equality-cover rule decide the domain, and an item that normalizes to a
conjunction is flattened into the candidate's.  A rule antecedent takes
its answer count from the candidate with the same signed items where one
was evaluated, else from the same set algebra, else from evaluating it.

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
from dataclasses import dataclass, field
from fractions import Fraction

from .domains import reference_domain
from .entities import ConjunctGates, conjunction_gates
from .errors import BiasError, EmptyDomainError, UnsafeQueryError, ZeroAntecedentError
from .evaluator import (
    PreparedQuery,
    Relation,
    _antijoin,
    _eval,
    _natural_join,
    _reorder,
    evaluate,
    vocabulary_nonempty,
)
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
from .stats import (
    ErRule,
    Frequency,
    check_domain,
    confidence_from_count,
    frequency,
    prepared,
)

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
    negated where the sign says so).  ``run`` is the mining run that
    built the candidate; rule splitting regroups the signed items through
    it and reuses its counts and item answers.  A candidate built without
    one gets a run of its own parts when its rules are mined.
    """

    signed_items: tuple[tuple[int, bool], ...]  # (item index, negated)
    parts: tuple[Formula, ...]
    decl: PreparedQuery
    canonical: str
    run: _Run | None = field(default=None, compare=False, repr=False)

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


class _Run:
    """What one mining run works out once per pool item and shares.

    ``items`` maps each item index to the item's closed formula.  Per
    pool item: its normalized closure, free variables and, the first
    time a candidate that passed the gates needs them, its answers (from
    the evaluator's ``_eval``, columns in head order) and its reference
    domain.  Per signed item: its canonical text and the gate summaries
    of its conjuncts, from which every candidate and every rule
    antecedent made of it is gated.  Per evaluated candidate: its answer
    count, keyed by its signed items.

    All of it is keyed by item index or signed item and holds for one
    instance: the entity gate reads the instance's entity constants.
    """

    def __init__(self, inst: DatabaseInstance, head: tuple[str, ...], items):
        self.inst = inst
        self.head = head
        self.items = items
        self.counts: dict[tuple, int] = {}
        self._formulas: dict[int, Formula] = {}
        self._free: dict[int, frozenset[str]] = {}
        self._texts: dict[tuple[int, bool], str] = {}
        self._gates: dict[tuple[int, bool], tuple[ConjunctGates, ...]] = {}
        self._answers: dict[int, Relation] = {}
        self._domains: dict[int, frozenset] = {}

    @classmethod
    def of_bias(cls, bias: LanguageBias, inst: DatabaseInstance) -> _Run:
        return cls(inst, bias.head, [item.formula for item in bias.items])

    @classmethod
    def of_candidate(cls, candidate: Candidate, inst: DatabaseInstance) -> _Run:
        items = {
            i: part.body if negated else part
            for (i, negated), part in zip(candidate.signed_items, candidate.parts)
        }
        return cls(inst, candidate.decl.variables, items)

    def part(self, signed) -> Formula:
        """The normalized part of a signed item."""
        i, negated = signed
        f = self._formulas.get(i)
        if f is None:
            f = self._formulas[i] = normalize(self.items[i])
        return Not(f) if negated else f

    def free(self, signed_items) -> frozenset[str]:
        """Free variables of the items' conjunction."""
        out = frozenset()
        for i, _ in signed_items:
            free = self._free.get(i)
            if free is None:
                free = self._free[i] = frozenset(
                    free_variables(self.part((i, False)))
                )
            out |= free
        return out

    def prepare(self, signed_items) -> PreparedQuery:
        """The prepared conjunction of the signed items, gated by combining
        the gate summaries of each signed item's conjuncts."""
        parts = []
        for signed in signed_items:
            gates = self._gates.get(signed)
            if gates is None:
                gates = self._gates[signed] = conjunction_gates(
                    self.part(signed), self.inst, self.head
                )
            parts += gates
        body = conjunction([self.part(s) for s in signed_items])
        return prepared(None, self.head, body, parts)

    def canonical(self, signed) -> str:
        text = self._texts.get(signed)
        if text is None:
            text = self._texts[signed] = _canonical_text(self.part(signed), self.head)
        return text

    def vertical(self, signed_items) -> bool:
        """Do the items' answers and domains give the conjunction's by set
        algebra?  They do when each item is one conjunct that evaluation
        joins (or, negated, anti-joins) and whose domain the
        conjunction-union rule takes: not a conjunction (flattened into
        the candidate's), a comparison (applied after the joins, and read
        by the equality-cover rule) or a negation (an anti-join of its
        body)."""
        return not any(
            isinstance(self.part((i, False)), (And, Comparison, Not))
            for i, _ in signed_items
        )

    def answers(self, signed_items) -> Relation:
        """Answers of a safe vertical conjunction: the join of its
        positive items' answers, anti-joined with its negated items'."""
        rel = None
        for i, negated in signed_items:
            if not negated:
                item = self._item_answers(i)
                rel = item if rel is None else _natural_join(rel, item)
        for i, negated in signed_items:
            if negated:
                rel = _antijoin(rel, self._item_answers(i))
        return rel

    def _item_answers(self, i: int) -> Relation:
        # The vocabulary only matters to vacuous quantifiers, by being
        # empty or not.  Item and body vocabularies both hold the active
        # domain, and on an empty instance, where both can be empty, every
        # entity query has an empty domain, so no answers are counted.
        rel = self._answers.get(i)
        if rel is None:
            f = self.part((i, False))
            rel = _eval(self.inst, f, vocabulary_nonempty(self.inst, f))
            head = tuple(v for v in self.head if v in rel.columns)
            rel = self._answers[i] = _reorder(rel, head)
        return rel

    def _item_domain(self, i: int) -> frozenset:
        dom = self._domains.get(i)
        if dom is None:
            dom = self._domains[i] = reference_domain(
                self.inst, self.part((i, False)), self.head
            ).members
        return dom

    def frequency(self, candidate: Candidate) -> Frequency:
        """The candidate's frequency, by set algebra where it is vertical
        and by ``stats.frequency`` otherwise; its count is kept."""
        signed = candidate.signed_items
        if self.vertical(signed):
            members = frozenset().union(*(self._item_domain(i) for i, _ in signed))
            check_domain(members, self.head)
            fr = Frequency(len(self.answers(signed).rows), len(members))
        else:
            fr = frequency(self.inst, candidate.decl)
        self.counts[signed] = fr.numerator
        return fr

    def antecedent_count(self, signed_items) -> int:
        """Answer count of a rule antecedent made of some of a candidate's
        signed items: the count kept for the same signed items, else the
        set algebra, else evaluating it.  Raises UnsafeQueryError, with
        the report ``check_safe`` gives, when the antecedent is not safe.
        """
        count = self.counts.get(signed_items)
        if count is not None:
            return count
        q = self.prepare(signed_items)
        if not q.safety.safe:
            raise UnsafeQueryError(q.safety)
        if self.vertical(signed_items):
            return len(self.answers(signed_items).rows)
        return len(evaluate(self.inst, q).rows)


def build_candidate(
    bias: LanguageBias, inst: DatabaseInstance, signed_items, *, run: _Run | None = None
):
    """Assemble and check one candidate; returns (candidate, drop reason).

    ``run`` is the mining run the candidate belongs to (a new one when
    None)."""
    if run is None:
        run = _Run.of_bias(bias, inst)
    parts = tuple(
        Not(bias.items[i].formula) if negated else bias.items[i].formula
        for i, negated in signed_items
    )
    if run.free(signed_items) != set(bias.head):
        return None, "free-variable-mismatch"
    q = run.prepare(signed_items)
    if not q.safety.safe:
        return None, f"unsafe ({q.safety.violations[0].rule})"
    if not q.er.is_er:
        return None, "not-an-entity-query"
    if not q.validity.valid:
        return None, "not-valid"
    canonical = " AND ".join(sorted(run.canonical(s) for s in signed_items))
    return Candidate(tuple(signed_items), parts, q, canonical, run), None


def enumerate_level(
    bias: LanguageBias,
    inst: DatabaseInstance,
    level: int,
    previous=None,
    *,
    run: _Run | None = None,
) -> list[Candidate]:
    """Candidates at a level; level k > 1 extends the given previous
    candidates by one unused item.  Duplicates (same signed items, or the
    same query up to conjunct order and bound-variable names) collapse.
    ``run`` is the mining run the candidates belong to (a new one when
    None)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if run is None:
        run = _Run.of_bias(bias, inst)

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
        candidate, reason = build_candidate(bias, inst, signed, run=run)
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
    run = _Run.of_bias(bias, inst)
    frequent: list[FrequentQuery] = []
    stats: list[LevelStats] = []
    extendable: list[Candidate] = []
    for level in range(1, levels + 1):
        candidates = enumerate_level(
            bias, inst, level, extendable if level > 1 else None, run=run
        )
        evaluated = []
        survivors = []
        for c in candidates:
            try:
                fr = run.frequency(c)
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
    answer count is the candidate's frequency numerator.  The
    antecedent's count and safety verdict come from the candidate's
    mining run (``_Run.antecedent_count``).
    """
    min_confidence = Fraction(min_confidence)
    rules = []
    for fq in sorted(frequent, key=lambda q: (q.level, q.candidate.canonical)):
        c = fq.candidate
        run = c.run or _Run.of_candidate(c, inst)
        head = c.decl.variables
        for mask in range(1, 2 ** c.level - 1):
            ant = tuple(s for j, s in enumerate(c.signed_items) if mask >> j & 1)
            con = tuple(s for j, s in enumerate(c.signed_items) if not mask >> j & 1)
            if run.free(ant) != set(head):
                log.debug(
                    "rule from %s: antecedent drops head variables", c.canonical
                )
                continue
            antecedent = QueryDecl(
                None, head, conjunction([run.part(s) for s in ant])
            )
            try:
                conf = confidence_from_count(
                    inst, antecedent, fq.frequency.numerator, run.antecedent_count(ant)
                )
            except (UnsafeQueryError, ZeroAntecedentError) as exc:
                log.debug("rule from %s: %s", c.canonical, exc)
                continue
            if conf >= min_confidence:
                con_body = conjunction([run.part(s) for s in con])
                rules.append(MinedRule(antecedent, con_body, fq.frequency, conf))
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
