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
made on first use: its normalized part, its conjuncts' joined gate state,
its canonical text, its conjuncts' texts and, once counted, its
conjuncts' evaluated relations, its reference domain and their bits.
A negated item links to the record of the item it negates.  It derives
its gate state, its canonical text and its text from that record's, with
no walk of the formula, and reads its domain, its body's relation and,
where it can, their bits from it.  A signed set (a candidate's or a rule
antecedent's items) is an int over the pool: bit 2i is item i taken
positively, bit 2i+1 item i negated, so the set bits in ascending order
are the set's items in the order its conjunction lists them.  Per
signed set the run keeps one record, made from its parent's: its items,
gate state and gate verdict, and, each on first need, its answer count,
text, conjunction and safety report.

Each signed item's conjuncts are rendered once per run.  The text of a
frequent query, and of a rule's antecedent and consequent, is what
``to_text`` gives for the conjunction, joined once per set from those
kept texts (``_Run.text``), so no printed line renders a formula again.

Gating is carried from parent to child.  Each item is existentially
closed over its non-head variables, so whatever the safety, entity, and
validity gates find inside one of an item's conjuncts is the same in
every set the item is part of; only the set's top-level conjunction
differs.  A set's gate state (``entities.GateState``) is its parent's
state, the set without its highest bit, joined with that item's own
state, which is its conjuncts' states joined: the free variables, the
limited variables closed under the ``=`` pairs of all the set's
conjuncts, the merged entity names, failures and links, the variables
equated with constants, whether some conjunct is valid, and the
conjuncts that can make the set unsafe.  Limitation, entity failures and
validity only grow as conjuncts are added, so the drop reason is read
from the state alone and is the verdict ``stats.prepare_query`` gives
the set's query.  The miner builds no gate report but one: the safety
report of an unsafe rule antecedent (``check_safe``), for its debug
line only.

Counting is vertical, in the manner of Eclat's tidsets (Zaki 2000) kept
as MAFIA's vertical bitmaps (Burdick et al. 2001): each conjunct of each
signed item is evaluated once and each item's reference domain computed
once.  A mining run keeps one index of head tuples, each given the next
free bit position when first seen, and each item keeps its relations
and its domain as Python ints over it.  A set's reference domain is
always the OR of its items' domain bits, with the tuples of the equality
cover when the set's comparisons equate every head variable with a
constant.  Where every conjunct of a set's items yields a relation over
exactly the head variables, the join of the positive conjuncts is an
intersection and each anti-join with a negated conjunct's body a
difference, so the answer count is ``(AND of positives & ~OR of negated
bodies).bit_count()``.  A set keeps its domain bits and its answer bits,
made from its parent's (the set without its last item) with one OR and
one AND.  An item's relations are built by
``evaluator.conjunct_relations``, as ``evaluate`` builds a conjunction's
and ``stats.rule_statistics`` a consequent's, so a comparison whose
variable an atom of the item binds filters that atom's rows and is
gone: ``TV-Program(P) AND P != "Gilmore"`` has bits.  The answer count
of any other set, one with a comparison that no atom of its item takes,
such as ``P = "Gilmore"``, or with an item over part of the head, is the
conjunction step of evaluation (``evaluator.conjoin``) over its items'
kept relations.  Only counts are read from bits; no answer is decoded.
Every candidate and every rule antecedent is gated and counted this
way, through the same set records, so no set is gated or counted twice.
A candidate with an empty reference domain has no frequency and is
skipped.

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
from functools import cached_property, reduce
from operator import and_, or_

from .domains import reference_domain
from .entities import ConjunctGates, GateState, conjunction_gates, negation_state
from .errors import BiasError, UnsafeQueryError, ZeroAntecedentError
from .evaluator import Relation, _reorder, conjoin, conjunct_relations, vocabulary_nonempty
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
    equated_constants,
    free_variables,
    negation_text,
    normalize,
    to_text,
)
from .parser import _VAR_RE, KEYWORDS, check_nesting, parse_formula_text
from .safety import SafetyReport, check_safe
from .schema import DatabaseInstance, Schema, read_json_file
from .stats import ErRule, Frequency, confidence_from_count

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PoolItem:
    """A bias item: its pattern text, its closure and whether it may be
    negated.  ``canonical`` is the closure's ``_canonical_text`` under the
    bias head, which ``load_bias`` dedupes on; it takes no part in
    equality."""

    text: str
    formula: Formula  # existentially closed over its non-head variables
    negatable: bool
    canonical: str | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LanguageBias:
    head: tuple[str, ...]
    items: tuple[PoolItem, ...]
    max_conjuncts: int
    allow_negation: bool


@dataclass(frozen=True)
class Candidate:
    """A candidate query: a signed set of pool items that passed the gates.

    ``mask`` is the signed set (bit 2i item i, bit 2i+1 item i negated),
    and ``parts`` the run's normalized part of each signed item (the
    item's closure, negated where the sign says so).  ``run`` is the
    mining run that built the candidate; rule splitting regroups the
    signed items through it and reuses its records and counts.
    """

    mask: int
    parts: tuple[Formula, ...]
    canonical: str
    run: _Run = field(compare=False, repr=False)

    @property
    def signed_items(self) -> tuple[tuple[int, bool], ...]:
        return signed_items(self.mask)

    @property
    def level(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def decl(self) -> QueryDecl:
        """The conjunction of the parts over the run's head, built once."""
        return QueryDecl(None, self.run.head, self.run.body(self.mask))

    def text(self) -> str:
        """``decl.text()``, joined from the run's kept conjunct texts."""
        return declaration_text(None, self.run.head, self.run.text(self.mask))


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
    items that differ only in bound names collapse together.  The fresh
    names ``B1_``, ``B2_``, ... skip the head variables, which stay free."""
    fresh_names = (n for n in map("B{}_".format, itertools.count(1)) if n not in head)

    def sub(term, env):
        if isinstance(term, Variable) and term.name in env:
            return Variable(env[term.name])
        return term

    def rebuild(g, env):
        if isinstance(g, (Exists, Forall)):
            fresh = next(fresh_names)
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
    not_variables = [v for v in head if v in KEYWORDS or not _VAR_RE.match(v)]
    if not_variables:
        raise BiasError(f"'head' names non-variables: {', '.join(map(repr, not_variables))}")
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
        items.append(PoolItem(pattern, closed, negatable, canonical))
    max_conjuncts = doc.get("max_conjuncts", len(items))
    if type(max_conjuncts) is not int or max_conjuncts < 1:  # not a bool
        raise BiasError("'max_conjuncts' must be a positive integer")
    allow_negation = doc.get("allow_negation", False)
    if not isinstance(allow_negation, bool):
        raise BiasError("'allow_negation' must be true or false")
    return LanguageBias(head, tuple(items), max_conjuncts, allow_negation)


def load_bias_file(path, schema: Schema) -> LanguageBias:
    return load_bias(read_json_file(path, BiasError), schema)


def signed_items(mask: int) -> tuple[tuple[int, bool], ...]:
    """The (item index, negated) pairs of a signed set, in order."""
    return tuple((bit >> 1, bool(bit & 1)) for bit in _bits(mask))


def _bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class _Item:
    """A signed pool item as a mining run keeps it.

    ``part`` is the item's normalized closure, negated where the sign says
    so; ``state`` is the gate state its conjuncts' summaries
    (``entities.ConjunctGates``) join to.  ``rendered`` is
    each conjunct rendered once by ``to_text``, and ``texts`` the same
    texts as conjuncts of an And (``formulas.conjunct_text``), which
    ``_Run.text`` joins.  A negated item's ``negates`` is the record of
    the item it negates, and its state, canonical text and texts are
    derived from that record's with no walk of the formula.  ``gates``
    are a positive item's conjuncts' summaries, which that derivation
    reads; a negated item keeps none.  The rest is filled in on first count
    (``_Run._counted``).  ``evaluated`` is what ``conjoin`` takes for
    them (``evaluator.conjunct_relations``): the relations of the
    positive non-comparison conjuncts, each atom's rows filtered by the
    comparisons of a variable it binds, the comparisons that no atom
    took, and each ``NOT`` conjunct with its body's relation.
    ``domain_bits`` is the item's reference domain
    (``domains.reference_domain`` of ``part``) as bits over the run's
    head-tuple index.  ``bits`` is the item's answers
    as bits, ``AND of the positive relations & ~OR of the NOT bodies'
    relations``: a negative int, every tuple except those of ``~bits``,
    when there is no positive relation; None when a comparison is left
    over or a relation is not over exactly the head variables.
    """

    part: Formula
    state: GateState
    canonical: str
    rendered: tuple[str, ...]
    texts: tuple[str, ...]
    negates: _Item | None
    gates: tuple[ConjunctGates, ...] = ()
    evaluated: tuple[list, list, list] | None = None
    domain_bits: int | None = None
    bits: int | None = None

    @property
    def text(self) -> str:
        """``to_text(part)``, joined from the kept conjunct texts; a lone
        conjunct is not wrapped."""
        return self.rendered[0] if len(self.rendered) == 1 else " AND ".join(self.texts)


@dataclass(slots=True)
class _Set:
    """A signed set as a mining run keeps it: its items' records in
    order, their joined gate state and the drop reason read from it (None
    when a query of the set passes), all made with the record.  The
    answer count, the text, the conjunction and, for an unsafe rule
    antecedent at debug level, the safety report are filled in on first
    need.  So are ``domain_bits``, the OR of the items' domain bits, and
    ``bits``, the AND of their answer bits (None when an item has none),
    each made from the parent's and the last item's (``_Run._set_bits``).
    """

    items: tuple[_Item, ...]
    state: GateState
    reason: str | None
    domain_bits: int | None = None
    bits: int | None = None
    count: int | None = None
    text: str | None = None
    body: Formula | None = None
    safety: SafetyReport | None = None


class _Run:
    """One mining run over one instance: a record per signed item
    (``_Item``), looked up by its bit, and a record per signed set
    (``_Set``), looked up by its mask, each made on first use, so each
    set is gated and counted at most once.  All of it holds for one
    instance: the entity gate reads the instance's entity constants.

    A set's record is made from its parent's (the set without its highest
    bit): its gate state is the parent's joined with the state of that
    bit's item, so a set of k items costs one join however it is reached,
    as a candidate, a rule antecedent, or out of level order.  A set's
    safety report is made only when asked for (``safety``), by the debug
    line of an unsafe rule antecedent.

    Counting reads one index per run: a dict from head tuples, in head
    order, to bit positions, a tuple taking the next free position when
    first seen, so no bit ever moves.  Each item keeps its relations and
    its domain as bits over it (``_Item.bits`` and ``domain_bits``).  A
    set whose items all have answer bits, one with a positive relation,
    is counted as the AND of its items' bits, which is ``(AND of
    positives & ~OR of NOT bodies).bit_count()``: its relations are all
    over the head, so the join is an intersection and each anti-join a
    difference.  A comparison of a variable that one of the item's own
    atoms binds is pushed into that atom, as ``evaluate`` pushes a
    conjunction's, so it leaves no comparison behind.  Any other set,
    one with a comparison that no atom of its item takes, such as ``P =
    "Gilmore"``, or an item over part of the head, is counted by
    ``evaluator.conjoin`` over its items' relations, as ``evaluate``
    would; safety makes each conjunct and negated body safe on its own.

    A set's reference domain is always read from bits.  Under the union
    rule no item equates the whole head with constants, as an item's
    cover is part of its set's, so the domain is the OR of the items'
    domain bits.  Under the cover rule (``head <= state.cover``) each
    item's own domain and each equating comparison's tuples lie in the
    product of the set's constants, so the domain is that OR with the
    product's bits.  A negated item reads its domain and its body's
    relation from the item it negates: ``NOT`` is transparent to
    domains, and its body's relation is that item's relations
    conjoined.  Where that item has answer bits, the negated item's are
    their complement, with no rows read.
    Only counts are read from bits; no answer is decoded.

    Each item's conjuncts are evaluated over the item's vocabulary, not
    the set's.  The two differ only in being empty or not, which only
    vacuous quantifiers read, and only on an empty instance.  No count is
    taken there: every candidate that passes the gates has an empty
    reference domain, as a constant equated with a head variable would
    have to be an entity constant, and an empty instance has none.
    """

    def __init__(self, bias: LanguageBias, inst: DatabaseInstance):
        self.bias = bias
        self.inst = inst
        self.head = bias.head
        self._head_set = frozenset(bias.head)
        self._items: dict[int, _Item] = {}
        self._sets: dict[int, _Set] = {}
        self._index: dict[tuple, int] = {}

    def item(self, bit: int) -> _Item:
        """The record of the signed item at a mask bit."""
        item = self._items.get(bit)
        if item is None:
            if bit & 1:
                item = _negation(self.item(bit - 1))
            else:
                item = self._positive(self.bias.items[bit >> 1])
            self._items[bit] = item
        return item

    def _positive(self, pool_item: PoolItem) -> _Item:
        """The record of a pool item taken positively.  Its canonical text
        is the one ``load_bias`` worked out where normalizing leaves the
        closure as it is."""
        part = normalize(pool_item.formula)
        canonical = pool_item.canonical
        if canonical is None or part != pool_item.formula:
            canonical = _canonical_text(part, self.head)
        conjuncts = conjuncts_of(part)
        gates = conjunction_gates(part, self.inst, self.head)
        rendered = tuple([to_text(c) for c in conjuncts])
        return _Item(
            part,
            reduce(GateState.joined, [g.state for g in gates]),
            canonical,
            rendered,
            tuple(map(conjunct_text, conjuncts, rendered)),
            None,
            gates,
        )

    def set(self, mask: int) -> _Set:
        """The record of a signed set, made once from its parent's."""
        record = self._sets.get(mask)
        if record is None:
            top = mask.bit_length() - 1
            parent = mask ^ 1 << top
            item = self.item(top)
            items, state = (item,), item.state
            if parent:
                prefix = self.set(parent)
                items, state = prefix.items + items, prefix.state.joined(state)
            reason = state.drop_reason(self._head_set)
            record = self._sets[mask] = _Set(items, state, reason)
        return record

    def text(self, mask: int) -> str:
        """``to_text`` of the items' conjunction, joined once from their
        kept conjunct texts; a lone conjunct is not wrapped."""
        record = self.set(mask)
        if record.text is None:
            items = record.items
            if len(items) == 1:
                record.text = items[0].text
            else:
                record.text = " AND ".join([t for item in items for t in item.texts])
        return record.text

    def body(self, mask: int) -> Formula:
        """The items' conjunction, built once: a set is the antecedent or
        consequent of many kept rules."""
        record = self.set(mask)
        if record.body is None:
            record.body = conjunction([item.part for item in record.items])
        return record.body

    def safety(self, mask: int) -> SafetyReport:
        """``check_safe`` of the items' conjunction, made on first need."""
        record = self.set(mask)
        if record.safety is None:
            record.safety = check_safe(self.body(mask))
        return record.safety

    def _counted(self, item: _Item) -> _Item:
        """The item with its conjuncts' relations, its domain and their
        bits filled in."""
        if item.evaluated is None:
            negates = item.negates
            if negates is None:
                domain = reference_domain(self.inst, item.part, self.head).members
                item.domain_bits = self._bitset(domain)
                nonempty = vocabulary_nonempty(self.inst, item.part)
                item.evaluated = conjunct_relations(self.inst, item.part, nonempty)
            else:
                # NOT is transparent to domains, and the body is the linked
                # item, whose answer bits complemented are this item's.
                negates = self._counted(negates)
                item.domain_bits = negates.domain_bits
                item.evaluated = ([], [], [(item.part, conjoin(*negates.evaluated))])
                if negates.bits is not None:
                    item.bits = ~negates.bits
            parts, comparisons, negations = item.evaluated
            bodies = [body for _, body in negations]
            if item.bits is None and not comparisons and all(
                set(r.columns) == self._head_set for r in parts + bodies
            ):
                positive = reduce(and_, map(self._head_bits, parts), -1)
                item.bits = positive & ~reduce(or_, map(self._head_bits, bodies), 0)
        return item

    def _head_bits(self, rel: Relation) -> int:
        """The bits of a relation over exactly the head variables, its
        columns taken in head order."""
        return self._bitset(_reorder(rel, self.head).rows)

    def _bitset(self, tuples) -> int:
        """The int whose set bits are the head tuples' index positions;
        a tuple seen for the first time takes the next free position.
        ``tuples`` is a collection: it is read more than once."""
        index = self._index
        try:
            positions = list(map(index.__getitem__, tuples))
        except KeyError:
            for t in tuples:
                if t not in index:
                    index[t] = len(index)
            positions = list(map(index.__getitem__, tuples))
        if not positions:
            return 0
        buf = bytearray((max(positions) >> 3) + 1)
        for p in positions:
            buf[p >> 3] |= 1 << (p & 7)
        return int.from_bytes(buf, "little")

    def _set_bits(self, mask: int) -> _Set:
        """The set's record with its domain bits and answer bits filled
        in, once, from its parent's and those of its last item."""
        record = self.set(mask)
        if record.domain_bits is None:
            top = mask.bit_length() - 1
            item = self._counted(self.item(top))
            domain, bits = item.domain_bits, item.bits
            parent = mask ^ 1 << top
            if parent:
                prefix = self._set_bits(parent)
                domain |= prefix.domain_bits
                bits = None if bits is None or prefix.bits is None else bits & prefix.bits
            record.domain_bits, record.bits = domain, bits
        return record

    def bit_count(self, mask: int) -> int | None:
        """The answer count of the items' conjunction from their bits;
        None when an item has no answer bits or none has a positive
        relation, which leaves the AND negative (every tuple but some)."""
        bits = self._set_bits(mask).bits
        return None if bits is None or bits < 0 else bits.bit_count()

    def answers(self, mask: int) -> Relation:
        """Answers of the items' conjunction, which must be safe."""
        evaluated = [self._counted(item).evaluated for item in self.set(mask).items]
        # zip(*evaluated) groups each of conjoin's three inputs across items.
        return conjoin(*(list(itertools.chain(*kind)) for kind in zip(*evaluated)))

    def count(self, mask: int) -> int:
        """Answer count of the items' conjunction, which must be safe;
        counted once."""
        record = self.set(mask)
        if record.count is None:
            record.count = self._answer_count(mask)
        return record.count

    def _answer_count(self, mask: int) -> int:
        """The answer count from bits where the items have them, else by
        conjoining their relations."""
        count = self.bit_count(mask)
        return len(self.answers(mask).rows) if count is None else count

    def frequency(self, mask: int) -> Frequency | None:
        """The frequency of a candidate's signed set, None on an empty
        reference domain.  The domain is the OR of the items' domain bits,
        with the equality cover's tuples when the set's comparisons equate
        every head variable with a constant."""
        record = self._set_bits(mask)
        domain = record.domain_bits
        if self._head_set <= record.state.cover:
            constants = equated_constants(self.body(mask))
            domain |= self._bitset(list(itertools.product(*map(constants.get, self.head))))
        if not domain:
            return None
        return Frequency(self.count(mask), domain.bit_count())


def _negation(negates: _Item) -> _Item:
    """The record of an item taken negated, derived from the record of
    the item it negates: ``NOT part`` is one conjunct, whose gate state
    follows from the part's conjuncts' summaries
    (``entities.negation_state``) and whose texts and canonical text are
    the part's, negated as ``to_text`` negates."""
    body = negates.part
    text = negation_text(body, negates.text)
    return _Item(
        Not(body),
        negation_state(body, negates.gates),
        negation_text(body, negates.canonical),
        (text,),
        (text,),
        negates,
    )


def build_candidate(run: _Run, mask: int):
    """Assemble one candidate of the run from its set's gate verdict;
    returns (candidate, drop reason)."""
    record = run.set(mask)
    if record.reason is not None:
        return None, record.reason
    items = record.items
    canonical = " AND ".join(sorted(item.canonical for item in items))
    return Candidate(mask, tuple(item.part for item in items), canonical, run), None


def enumerate_level(run: _Run, level: int, previous=None) -> list[Candidate]:
    """The run's candidates at a level: level 1 extends the empty signed
    set by one item, level k > 1 each given previous candidate by one
    unused item.  Duplicates (same signed items, or the same query up to
    conjunct order and bound-variable names) collapse."""
    if level < 1:
        raise ValueError("level must be >= 1")
    bias = run.bias
    prefixes = [0] if level == 1 else [c.mask for c in previous or ()]
    out = []
    seen_signed = set()
    seen_canonical = set()
    for prefix in prefixes:
        for i, item in enumerate(bias.items):
            if prefix >> 2 * i & 3:
                continue
            for neg in (False, True) if bias.allow_negation and item.negatable else (False,):
                mask = prefix | 1 << (2 * i + neg)
                if mask in seen_signed:
                    continue
                seen_signed.add(mask)
                candidate, reason = build_candidate(run, mask)
                if candidate is None:
                    log.debug("level %d: dropping %r: %s", level, signed_items(mask), reason)
                elif candidate.canonical in seen_canonical:
                    log.debug(
                        "level %d: dropping %r: duplicate query", level, signed_items(mask)
                    )
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
    if max_level is not None and max_level < 1:
        raise ValueError("max_level must be >= 1")
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
            fr = run.frequency(c.mask)
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
    answer count is the candidate's frequency numerator.  Splits are the
    submasks of the candidate's mask in ascending order; the antecedent's
    gate verdict and count come from its record in the candidate's mining
    run (``_Run.set`` and ``_Run.count``), as the candidates' did.
    Confidence is compared as integers; the antecedent, the consequent
    and the confidence are built only for a rule that is kept.
    """
    min_confidence = Fraction(min_confidence)
    if not 0 <= min_confidence <= 1:
        raise ValueError("min_confidence must be in [0, 1]")
    rules = []
    for fq in sorted(frequent, key=lambda q: (q.level, q.candidate.canonical)):
        c = fq.candidate
        run = c.run
        both = fq.frequency.numerator
        for ant in _proper_submasks(c.mask):
            reason = run.set(ant).reason
            if reason == "free-variable-mismatch":
                log.debug(
                    "rule from %s: antecedent drops head variables", c.canonical
                )
                continue
            if reason is not None and reason.startswith("unsafe"):
                if log.isEnabledFor(logging.DEBUG):
                    log.debug("rule from %s: %s", c.canonical, UnsafeQueryError(run.safety(ant)))
                continue
            count = run.count(ant)
            # both / count < min_confidence, without a Fraction.  A zero
            # count is not skipped here, so confidence_from_count rejects it.
            if both * min_confidence.denominator < min_confidence.numerator * count:
                continue
            antecedent = QueryDecl(None, run.head, run.body(ant))
            try:
                conf = confidence_from_count(antecedent, both, count)
            except ZeroAntecedentError as exc:
                log.debug("rule from %s: %s", c.canonical, exc)
                continue
            con = c.mask ^ ant
            rules.append(
                MinedRule(
                    antecedent, run.body(con), fq.frequency, conf, run.text(ant), run.text(con)
                )
            )
    return tuple(rules)


def _proper_submasks(mask: int):
    """The non-empty submasks of a mask other than itself, ascending."""
    sub = -mask & mask
    while sub != mask:
        yield sub
        sub = (sub - mask) & mask


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
