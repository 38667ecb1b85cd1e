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

A mining run keeps one record per signed item (an item and its sign),
made on first use: its normalized part, the gate summaries of its
conjuncts, its free variables, its canonical text, its conjuncts'
texts and, once counted, its conjuncts' reference domains and evaluated
relations.  Per signed set (a candidate's or a rule antecedent's items)
it keeps one gate verdict and one answer count, each made on first use.

Each signed item's conjuncts are rendered once per run.  The text of a
frequent query, and of a rule's antecedent and consequent, is what
``to_text`` gives for the conjunction, joined from those kept texts
(``_Run.text``), so no printed line renders a formula again.

Gating is decided per item.  Each item is existentially closed over its
non-head variables, so whatever the safety, entity, and validity gates
find inside one of an item's conjuncts is the same in every candidate the
item is part of; only the candidate's top-level conjunction differs.  A
candidate is gated by combining its items' summaries
(``entities.ConjunctGates``) with ``entities.gate_reports``, the combine
``stats.prepare_query`` runs on the conjuncts of a single query.  Per
candidate that leaves the fixpoint of limited variables, R3 and R4 at
the top level, the entity status of the head from the merged facts, and
validity as "the constant equalities cover the head, or some conjunct is
valid".

Counting is vertical, in the manner of Eclat's tidset intersection: each
conjunct of each signed item is evaluated once and its reference domain
computed once.  A candidate's answers are then the conjunction step of
evaluation (``evaluator.conjoin``) over its items' kept relations: the
join of the positive conjuncts, the comparisons, and an anti-join with
each negated conjunct's body.  Its reference domain is the conjunction
rule (``domains.conjunction_domain``) over its items' kept domains.
Every candidate and every rule antecedent is gated and counted this
way, through the same kept verdicts and counts, so no set is gated or
counted twice.  A candidate with an empty reference domain has no
frequency and is skipped.

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

from .domains import conjunction_domain, reference_domain
from .entities import ConjunctGates, conjunction_gates
from .errors import BiasError, UnsafeQueryError, ZeroAntecedentError
from .evaluator import PreparedQuery, Relation, _eval, conjoin, vocabulary_nonempty
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
    conjunct_text,
    conjunction,
    conjuncts_of,
    declaration_text,
    free_variables,
    normalize,
    to_text,
)
from .parser import check_nesting, parse_formula_text
from .schema import DatabaseInstance, Schema, read_json_file
from .stats import ErRule, Frequency, confidence_from_count, prepared

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PoolItem:
    text: str
    formula: Formula  # existentially closed over its non-head variables
    negatable: bool


@dataclass(frozen=True)
class LanguageBias:
    head: tuple[str, ...]
    items: tuple[PoolItem, ...]
    max_conjuncts: int
    allow_negation: bool


@dataclass(frozen=True)
class Candidate:
    """A candidate query: signed pool items plus its prepared query.

    ``parts`` holds the run's normalized part of each signed item (the
    item's closure, negated where the sign says so).  ``run`` is the
    mining run that built the candidate; rule splitting regroups the
    signed items through it and reuses its records and counts.
    """

    signed_items: tuple[tuple[int, bool], ...]  # (item index, negated)
    parts: tuple[Formula, ...]
    decl: PreparedQuery
    canonical: str
    run: _Run = field(compare=False, repr=False)

    @property
    def level(self) -> int:
        return len(self.signed_items)

    def text(self) -> str:
        """``decl.text()``, joined from the run's kept conjunct texts."""
        return declaration_text(
            self.decl.name, self.decl.variables, self.run.text(self.signed_items)
        )


@dataclass(frozen=True)
class FrequentQuery:
    candidate: Candidate
    frequency: Frequency

    @property
    def level(self) -> int:
        return self.candidate.level


@dataclass(frozen=True)
class MinedRule(ErRule):
    """A kept rule; the texts are ``to_text`` of the antecedent's body
    and of the consequent, joined from the mining run's kept conjunct
    texts."""

    support: Frequency
    confidence: Fraction
    antecedent_text: str = field(compare=False, repr=False)
    consequent_text: str = field(compare=False, repr=False)

    def text(self) -> str:
        return f"{self.antecedent_text} -> {self.consequent_text}"


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
            pattern, negatable = raw["pattern"], raw.get("negatable", True)
            if not isinstance(negatable, bool):
                raise BiasError("'negatable' must be true or false")
        else:
            raise BiasError("each item needs a string 'pattern'")
        closed = _close_over_non_head(parse_formula_text(pattern, schema), head)
        check_nesting(closed)
        canonical = _canonical_text(closed, head)
        if canonical in seen:
            log.debug("bias: dropping duplicate item %r", pattern)
            continue
        seen.add(canonical)
        items.append(PoolItem(pattern, closed, negatable))
    max_conjuncts = doc.get("max_conjuncts", len(items))
    if type(max_conjuncts) is not int or max_conjuncts < 1:  # not a bool
        raise BiasError("'max_conjuncts' must be a positive integer")
    allow_negation = doc.get("allow_negation", False)
    if not isinstance(allow_negation, bool):
        raise BiasError("'allow_negation' must be true or false")
    return LanguageBias(head, tuple(items), max_conjuncts, allow_negation)


def load_bias_file(path, schema: Schema) -> LanguageBias:
    return load_bias(read_json_file(path, BiasError), schema)


@dataclass
class _Item:
    """A signed pool item as a mining run keeps it.

    ``part`` is the item's normalized closure, negated where the sign says
    so, and ``conjuncts`` its conjuncts; ``gates`` holds their gate
    summaries.  ``rendered`` is each conjunct rendered once by
    ``to_text``, and ``texts`` the same texts as conjuncts of an And
    (``formulas.conjunct_text``), which ``_Run.text`` joins.  ``domains``
    and ``evaluated`` are filled in on first count: the conjuncts'
    reference domains, and the relations of the positive non-comparison
    conjuncts, the comparisons as they are and each ``NOT`` conjunct with
    its body's relation.
    """

    part: Formula
    conjuncts: tuple[Formula, ...]
    gates: tuple[ConjunctGates, ...]
    free: frozenset[str]
    canonical: str
    rendered: tuple[str, ...]
    texts: tuple[str, ...]
    domains: list[frozenset] | None = None
    evaluated: tuple[list, list, list] | None = None


class _Run:
    """One mining run over one instance: a record per signed item
    (``_Item``), and per signed set a gate verdict (``verdicts``) and an
    answer count (``counts``), each made on first use, so each set is
    gated and counted at most once.  All of it holds for one instance:
    the entity gate reads the instance's entity constants.

    A candidate's body conjoins its items' conjuncts, so it is gated by
    combining their summaries (``stats.prepared``), its domain is
    ``domains.conjunction_domain`` over their domains and its answers are
    ``evaluator.conjoin`` over their relations, as ``evaluate`` gives;
    safety makes each conjunct and negated body safe on its own.

    Each conjunct is evaluated over its own vocabulary, not the body's.
    The two differ only in being empty or not, which only vacuous
    quantifiers read, and only on an empty instance.  No count is taken
    there: every candidate that passes the gates has an empty reference
    domain, as a constant equated with a head variable would have to be
    an entity constant, and an empty instance has none.
    """

    def __init__(self, bias: LanguageBias, inst: DatabaseInstance):
        self.bias = bias
        self.inst = inst
        self.head = bias.head
        self.counts: dict[tuple, int] = {}
        self.verdicts: dict[tuple, tuple[str | None, PreparedQuery | None]] = {}
        self._items: dict[tuple[int, bool], _Item] = {}
        # Keyed by identity: every formula these see is a conjunct (or a
        # negated conjunct's body) of a kept part, and a negated item's
        # part wraps its positive part, so both signs share entries.
        self._members: dict[int, frozenset] = {}
        self._relations: dict[int, Relation] = {}

    def item(self, signed) -> _Item:
        item = self._items.get(signed)
        if item is None:
            i, negated = signed
            if negated:
                part = Not(self.item((i, False)).part)
            else:
                part = normalize(self.bias.items[i].formula)
            conjuncts = conjuncts_of(part)
            rendered = tuple([to_text(c) for c in conjuncts])
            item = self._items[signed] = _Item(
                part,
                conjuncts,
                conjunction_gates(part, self.inst, self.head),
                frozenset(free_variables(part)),
                _canonical_text(part, self.head),
                rendered,
                tuple(map(conjunct_text, conjuncts, rendered)),
            )
        return item

    def text(self, signed_items) -> str:
        """``to_text`` of the items' conjunction, joined from their kept
        conjunct texts; a lone conjunct is not wrapped."""
        items = [self.item(s) for s in signed_items]
        if len(items) == 1 and len(items[0].rendered) == 1:
            return items[0].rendered[0]
        return " AND ".join([text for item in items for text in item.texts])

    def verdict(self, signed_items) -> tuple[str | None, PreparedQuery | None]:
        """The gate verdict of the items' conjunction, made once and kept:
        the reason a candidate of these items is dropped (None when it
        passes), and its prepared query (None when its free variables are
        not the head's)."""
        verdict = self.verdicts.get(signed_items)
        if verdict is None:
            items = [self.item(s) for s in signed_items]
            if frozenset().union(*(item.free for item in items)) != set(self.head):
                verdict = "free-variable-mismatch", None
            else:
                body = conjunction([item.part for item in items])
                q = prepared(None, self.head, body, [g for item in items for g in item.gates])
                if not q.safety.safe:
                    verdict = f"unsafe ({q.safety.violations[0].rule})", q
                elif not q.er.is_er:
                    verdict = "not-an-entity-query", q
                elif not q.validity.valid:
                    verdict = "not-valid", q
                else:
                    verdict = None, q
            self.verdicts[signed_items] = verdict
        return verdict

    def domain(self, signed_items) -> frozenset:
        """Members of the reference domain of the items' conjunction."""
        conjuncts, members = [], []
        for signed in signed_items:
            item = self.item(signed)
            if item.domains is None:
                item.domains = [self._domain(c) for c in item.conjuncts]
            conjuncts += item.conjuncts
            members += item.domains
        return conjunction_domain(conjuncts, self.head, members)[0]

    def answers(self, signed_items) -> Relation:
        """Answers of the items' conjunction, which must be safe."""
        parts, comparisons, negations = [], [], []
        for signed in signed_items:
            item = self.item(signed)
            if item.evaluated is None:
                own = item.conjuncts
                item.evaluated = (
                    [self._relation(c) for c in own if not isinstance(c, (Not, Comparison))],
                    [c for c in own if isinstance(c, Comparison)],
                    [(c, self._relation(c.body)) for c in own if isinstance(c, Not)],
                )
            parts += item.evaluated[0]
            comparisons += item.evaluated[1]
            negations += item.evaluated[2]
        return conjoin(parts, comparisons, negations)

    def _domain(self, f: Formula) -> frozenset:
        # NOT is transparent to reference domains.
        if isinstance(f, Not):
            f = f.body
        members = self._members.get(id(f))
        if members is None:
            members = reference_domain(self.inst, f, self.head).members
            self._members[id(f)] = members
        return members

    def _relation(self, f: Formula) -> Relation:
        rel = self._relations.get(id(f))
        if rel is None:
            nonempty = vocabulary_nonempty(self.inst, f)
            rel = self._relations[id(f)] = _eval(self.inst, f, nonempty)
        return rel

    def count(self, signed_items) -> int:
        """Answer count of the items' conjunction, which must be safe;
        counted once and kept."""
        count = self.counts.get(signed_items)
        if count is None:
            count = self.counts[signed_items] = len(self.answers(signed_items).rows)
        return count

    def frequency(self, signed_items) -> Frequency | None:
        """The frequency of a candidate's signed items, None on an empty
        reference domain."""
        members = self.domain(signed_items)
        if not members:
            return None
        return Frequency(self.count(signed_items), len(members))


def build_candidate(run: _Run, signed_items):
    """Assemble one candidate of the run from its kept gate verdict;
    returns (candidate, drop reason)."""
    reason, q = run.verdict(signed_items)
    if reason is not None:
        return None, reason
    items = [run.item(s) for s in signed_items]
    canonical = " AND ".join(sorted(item.canonical for item in items))
    parts = tuple(item.part for item in items)
    return Candidate(tuple(signed_items), parts, q, canonical, run), None


def enumerate_level(run: _Run, level: int, previous=None) -> list[Candidate]:
    """The run's candidates at a level: level 1 extends the empty signed
    set by one item, level k > 1 each given previous candidate by one
    unused item.  Duplicates (same signed items, or the same query up to
    conjunct order and bound-variable names) collapse."""
    if level < 1:
        raise ValueError("level must be >= 1")
    bias = run.bias
    prefixes = [()] if level == 1 else [c.signed_items for c in previous or ()]
    out = []
    seen_signed = set()
    seen_canonical = set()
    for prefix in prefixes:
        used = {i for i, _ in prefix}
        for i, item in enumerate(bias.items):
            if i in used:
                continue
            for neg in (False, True) if bias.allow_negation and item.negatable else (False,):
                signed = tuple(sorted(prefix + ((i, neg),)))
                if signed in seen_signed:
                    continue
                seen_signed.add(signed)
                candidate, reason = build_candidate(run, signed)
                if candidate is None:
                    log.debug("level %d: dropping %r: %s", level, signed, reason)
                elif candidate.canonical in seen_canonical:
                    log.debug("level %d: dropping %r: duplicate query", level, signed)
                else:
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
    run = _Run(bias, inst)
    frequent: list[FrequentQuery] = []
    stats: list[LevelStats] = []
    extendable: list[Candidate] = []
    for level in range(1, levels + 1):
        candidates = enumerate_level(run, level, extendable)
        evaluated = []
        survivors = []
        for c in candidates:
            fr = run.frequency(c.signed_items)
            if fr is None:
                log.debug("level %d: empty domain for %s", level, c.canonical)
                continue
            evaluated.append(c)
            # fr >= min_support, without normalizing a Fraction.
            if fr.numerator * min_support.denominator >= min_support.numerator * fr.denominator:
                survivors.append(c)
                frequent.append(FrequentQuery(c, fr))
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
    antecedent's gate verdict and count come from the candidate's mining
    run (``_Run.verdict`` and ``_Run.count``), as the candidates' did.
    Confidence is compared as integers; the antecedent, the consequent
    and the confidence are built only for a rule that is kept.
    """
    min_confidence = Fraction(min_confidence)
    rules = []
    for fq in sorted(frequent, key=lambda q: (q.level, q.candidate.canonical)):
        c = fq.candidate
        run = c.run
        head = c.decl.variables
        both = fq.frequency.numerator
        for mask in range(1, 2 ** c.level - 1):
            ant = tuple(s for j, s in enumerate(c.signed_items) if mask >> j & 1)
            con = tuple(s for j, s in enumerate(c.signed_items) if not mask >> j & 1)
            _, q = run.verdict(ant)
            if q is None:
                log.debug(
                    "rule from %s: antecedent drops head variables", c.canonical
                )
                continue
            if not q.safety.safe:
                if log.isEnabledFor(logging.DEBUG):
                    log.debug("rule from %s: %s", c.canonical, UnsafeQueryError(q.safety))
                continue
            count = run.count(ant)
            # both / count < min_confidence, without a Fraction.  A zero
            # count is not skipped here, so confidence_from_count rejects it.
            if both * min_confidence.denominator < min_confidence.numerator * count:
                continue
            antecedent = QueryDecl(None, head, q.body)
            try:
                conf = confidence_from_count(inst, antecedent, both, count)
            except ZeroAntecedentError as exc:
                log.debug("rule from %s: %s", c.canonical, exc)
                continue
            con_body = conjunction([run.item(s).part for s in con])
            rules.append(
                MinedRule(
                    antecedent, con_body, fq.frequency, conf, run.text(ant), run.text(con)
                )
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
