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
its canonical text, its text, its conjuncts' texts and, once counted, its
conjuncts' evaluated relations, its reference domain and their bits.
A negated item links to the record of the item it negates.  It derives
its gate state (``GateState.negated``), its canonical text and its text
from that record's, with no walk of the formula, and reads its domain,
its body's relation and, where it can, their bits from it.  A signed
set (a candidate's or a rule antecedent's items) is an int over the
pool: bit 2i is item i taken positively, bit 2i+1 item i negated, so
the set bits in ascending order are the set's items in the order its
conjunction lists them.  Per
signed set the run keeps one record, made from its parent's and linked
to it: its items, gate state and gate verdict, and, each on first need,
its answer count and domain size as ints, its text, its conjunction, its
one declaration over the head and its safety report.  A set is looked
up by its mask only where the miner starts from a mask: when the level
loop visits a set and for a rule split's antecedent and consequent.  A
candidate holds its set's record, which the level loop measures in one
step (``_Run.measure``: its domain bits and answer bits, its domain size
and, when that is not 0, its answer count, taken by ``_Run.count``), and
from which the CLI prints its line.  Support and confidence are tested
on those ints; a ``Frequency`` is built only for a frequent query.
``Candidate``, ``FrequentQuery`` and ``Frequency`` set their fields
directly in their constructors, not through the frozen ``__setattr__``.
Rule splitting is one generator (``kept_splits``) that walks each
frequent query's proper submasks, reads each antecedent's verdict and
count from its record as fields, and yields each kept split as its
frequent query, its antecedent's and consequent's records and the
antecedent's count.  ``mine_rules`` builds a ``MinedRule``, with its
confidence ``Fraction``, from each; the CLI formats each rule's line from
the counts and the records' kept texts as it is yielded, with no rule
object, and the text of each distinct (count, count) ratio once.

Each signed item's conjuncts are rendered once per run.  The text of a
frequent query, and of a rule's antecedent and consequent, is what
``to_text`` gives for the conjunction, joined once per set from those
kept texts (``_Set.joined_text``), so no printed line renders a formula again.

Gating is carried from parent to child.  Each item is existentially
closed over its non-head variables, so whatever the safety, entity, and
validity gates find inside one of an item's conjuncts is the same in
every set the item is part of; only the set's top-level conjunction
differs.  A set's gate state (``entities.GateState``) is its parent's
state, the set without its highest bit, joined with that item's own
state, which is its conjuncts' states joined: the free variables, the
limited variables closed under the ``=`` pairs of all the set's
conjuncts, the merged entity failures and links, the variables equated
with constants, whether some conjunct is valid, and the rule of the
first violation inside a conjunct.  Limitation, entity failures and
validity only grow as conjuncts are added, so the drop reason is read
from the state alone and is the verdict ``stats.prepare_query`` gives
the set's query.  Many sets share few states, so a run interns gate
states by value and keeps one verdict, the joined state and its drop
reason, per distinct (parent's state, item's state) pair, in the manner
of hash-consing (Filliâtre & Conchon 2006): the join and the drop
reason are worked out once per distinct pair, not once per set.  The
miner builds no gate report but one: the safety report of an unsafe rule
antecedent (``check_safe``), for its debug line only.

Counting is vertical, in the manner of Eclat's tidsets (Zaki 2000) kept
as MAFIA's vertical bitmaps (Burdick et al. 2001): each conjunct of each
signed item is evaluated once and each item's reference domain computed
once.  A mining run keeps one index of head tuples, each given the next
free bit position when first seen, and each item keeps its relations and
its domain as Python ints over it.  A set's reference domain is the OR
of its items' domain bits, unless the set's comparisons equate every
head variable with a constant: then it is ``domains.reference_domain``
of the set's conjunction.  Where every conjunct of a set's items yields
a relation over exactly the head variables, the join of the positive
conjuncts is an intersection and each anti-join with a negated
conjunct's body a difference, so the answer count is ``(AND of positives
& ~OR of negated bodies).bit_count()``.  A set keeps its domain bits and
its answer bits, made from its parent's (the set without its last item)
with one OR and one AND.  An item's relations are built by
``evaluator.conjunct_relations``, as ``evaluate`` builds a conjunction's
and ``stats.rule_statistics`` a consequent's, so a comparison whose
variable an atom of the item binds filters that atom's rows and is gone:
``TV-Program(P) AND P != "Gilmore"`` has bits.  The answer count of any
other set, one with a comparison that no atom of its item takes, such as
``P = "Gilmore"``, or with an item over part of the head, is the
conjunction step of evaluation (``evaluator.conjoin``) over its items'
kept relations.  Only counts are read from bits; no answer is decoded.
Every candidate and every rule antecedent is gated and counted this way,
through the same set records, so no set is gated or counted twice.  A
candidate with an empty reference domain has no frequency and is
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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import reduce
from operator import and_, attrgetter, or_

from .domains import reference_domain
from .entities import GateState, conjunction_gates
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


@dataclass(frozen=True, slots=True, init=False)
class Candidate:
    """A candidate query: a signed set of pool items that passed the gates.

    ``mask`` is the signed set (bit 2i item i, bit 2i+1 item i negated)
    and ``record`` the mining run's record of it (``_Set``), which the
    level loop counts and the transcript prints from.  ``run`` is the
    mining run that built the candidate; rule splitting regroups the
    signed items through it and reuses its records and counts.  The
    constructor sets each field through its slot (``_slot_setters``).
    """

    mask: int
    canonical: str
    record: _Set = field(compare=False, repr=False)
    run: _Run = field(compare=False, repr=False)

    def __init__(self, mask: int, canonical: str, record: _Set, run: _Run):
        _set_mask(self, mask)
        _set_canonical(self, canonical)
        _set_record(self, record)
        _set_run(self, run)

    @property
    def parts(self) -> tuple[Formula, ...]:
        """The run's normalized part of each signed item (the item's
        closure, negated where the sign says so)."""
        return tuple(item.part for item in self.record.items)

    @property
    def signed_items(self) -> tuple[tuple[int, bool], ...]:
        return signed_items(self.mask)

    @property
    def level(self) -> int:
        return self.mask.bit_count()

    @property
    def decl(self) -> QueryDecl:
        """The conjunction of the parts over the run's head: the record's
        one declaration (``_Set.declared``)."""
        return self.record.declared(self.run.head)

    def text(self) -> str:
        """``decl.text()``, joined from the run's kept conjunct texts."""
        return declaration_text(None, self.run.head, self.record.joined_text())


@dataclass(frozen=True, slots=True, init=False)
class FrequentQuery:
    candidate: Candidate
    frequency: Frequency

    def __init__(self, candidate: Candidate, frequency: Frequency):
        _set_candidate(self, candidate)
        _set_frequency(self, frequency)

    @property
    def level(self) -> int:
        return self.candidate.level


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot of a frozen slotted dataclass,
    in field order.  Its constructor sets its fields through these, which
    costs half of the generated ``__init__``'s ``object.__setattr__``
    calls; the frozen ``__setattr__`` still refuses every later write."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_set_mask, _set_canonical, _set_record, _set_run = _slot_setters(Candidate)
_set_candidate, _set_frequency = _slot_setters(FrequentQuery)


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
    return to_text(_renamed(f, {}, fresh_names))


def _renamed(g: Formula, env: dict, fresh_names) -> Formula:
    """``g`` with each variable bound in it given the next of
    ``fresh_names`` and each variable that ``env`` maps renamed."""
    if isinstance(g, (Exists, Forall)):
        fresh = next(fresh_names)
        return type(g)(fresh, _renamed(g.body, {**env, g.var: fresh}, fresh_names))
    if isinstance(g, Not):
        return Not(_renamed(g.body, env, fresh_names))
    if isinstance(g, And):
        return conjunction([_renamed(c, env, fresh_names) for c in g.conjuncts])
    if isinstance(g, Or):
        return Or(_renamed(g.left, env, fresh_names), _renamed(g.right, env, fresh_names))
    if isinstance(g, Comparison):
        return Comparison(_renamed_term(g.left, env), g.op, _renamed_term(g.right, env))
    if isinstance(g, Atom):
        return Atom(g.predicate, tuple(_renamed_term(t, env) for t in g.terms))
    raise TypeError(f"not a formula: {g!r}")


def _renamed_term(term, env: dict):
    if isinstance(term, Variable) and term.name in env:
        return Variable(env[term.name])
    return term


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
    (``entities.ConjunctGates``) join to.  ``texts`` is each conjunct
    rendered once by ``to_text`` as a conjunct of an And
    (``formulas.conjunct_text``), which ``_Set.joined_text`` joins, and ``text``
    is ``to_text(part)``: a lone conjunct's own text, unwrapped, or the
    joined ``texts``.  A negated item's ``negates`` is the record of the
    item it negates, and its state (``GateState.negated``), canonical
    text, text and texts are derived from that record's with no walk of
    the formula.  The rest is filled in on first count
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
    text: str
    texts: tuple[str, ...]
    negates: _Item | None
    evaluated: tuple[list, list, list] | None = None
    domain_bits: int | None = None
    bits: int | None = None


_CANONICAL = attrgetter("canonical")
_BY_CANONICAL = attrgetter("candidate.canonical")


@dataclass(slots=True)
class _Set:
    """A signed set as a mining run keeps it: its items' records in
    order, their joined gate state (the run's interned one) and the drop
    reason read from it (None when a query of the set passes), and its
    parent's record (None for one item), all made with the record.  The
    rest is filled in on first need: ``domain_bits``, the OR of the items'
    domain bits, and ``bits``, the AND of their answer bits (None when an
    item has none), each made from the parent's and the last item's
    (``_Run._filled``); the answer count (``count``) and the reference
    domain's size (``size``, 0 when it is empty), plain ints that the
    support and confidence tests compare; the text, the conjunction and
    its one declaration over the head (``decl``); and, for an unsafe rule
    antecedent at debug level, the safety report.
    """

    items: tuple[_Item, ...]
    state: GateState
    reason: str | None
    parent: _Set | None
    domain_bits: int | None = None
    bits: int | None = None
    count: int | None = None
    size: int | None = None
    text: str | None = None
    body: Formula | None = None
    decl: QueryDecl | None = None
    safety: SafetyReport | None = None

    def joined_text(self) -> str:
        """``to_text`` of the items' conjunction, joined once from their
        kept conjunct texts; a lone conjunct is not wrapped."""
        if self.text is None:
            items = self.items
            if len(items) == 1:
                self.text = items[0].text
            else:
                self.text = " AND ".join([t for item in items for t in item.texts])
        return self.text

    def conjunction(self) -> Formula:
        """The items' conjunction, built once: a set is the antecedent or
        consequent of many kept rules."""
        if self.body is None:
            self.body = conjunction([item.part for item in self.items])
        return self.body

    def declared(self, head: tuple[str, ...]) -> QueryDecl:
        """The conjunction over the run's head, declared once: a
        candidate's ``decl`` and the antecedent of every kept rule that
        splits it off are this one object."""
        if self.decl is None:
            self.decl = QueryDecl(None, head, self.conjunction())
        return self.decl


class _Run:
    """One mining run over one instance: a record per signed item
    (``_Item``), looked up by its bit, and a record per signed set
    (``_Set``), looked up by its mask, each made on first use, so each
    set is gated and counted at most once.  All of it holds for one
    instance: the entity gate reads the instance's entity constants.

    A set's answer count (``count``, the one step that takes a fresh
    count) and its reference domain's size are ints kept on its record,
    and so is its one ``QueryDecl`` (``_Set.decl``), shared by a
    candidate and every kept rule with that antecedent.  The level loop
    measures a candidate's record in one step (``measure``): its bits,
    its size and, for a non-empty domain, its count.  Rule splitting
    reads an antecedent's verdict and count from its record as fields and
    calls ``count`` only for a record that holds none.  ``count``,
    ``measure`` and ``safety`` take the record, and text, conjunction and
    declaration are made by the record itself (``_Set``), so a caller
    holding the record, as a candidate does, looks nothing up again:
    ``set`` is called once per set the level loop visits and once per
    parent a new record finds missing, and by rule splitting only for an
    antecedent or consequent that has no record yet.

    A reference domain's member set is made into bits once per run
    (``_domain_bits``), keyed by the set's id and held beside its bits so
    that no id is reused while the run holds it: items over one table
    share its access path's projection.

    A set's record is made from its parent's (the set without its highest
    bit) and links to it: its gate state is the parent's joined with the
    state of that bit's item.  Gate states are interned by value, one
    object per distinct state, and the run keeps one verdict per distinct
    (parent's state, item's state) pair: the joined state, interned, and
    the drop reason read from it.  So ``GateState.joined`` and
    ``drop_reason`` run once per distinct pair, however many sets share
    it, and a set costs one lookup of its pair however it is reached, as
    a candidate, a rule antecedent, or out of level order.  The join is
    always the parent's state, then the last item's, never regrouped: the
    first violation inside a conjunct (``GateState.inner``) depends on
    that order.  A set's safety report is made only when asked for
    (``safety``), by the debug line of an unsafe rule antecedent.

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

    A set's reference domain is the OR of its items' domain bits: no
    item equates the whole head with constants while its set does not,
    as an item's cover is part of its set's, so each item's domain, like
    the set's, is the union of its conjuncts'.  A set whose comparisons
    do equate the whole head (``head <= state.cover``) takes the bits of
    ``domains.reference_domain`` of its conjunction, the one place the
    equality cover rule is worked out.  A negated item reads its domain
    and its body's relation from the item it negates: ``NOT`` is
    transparent to domains, and its body's relation is that item's
    relations conjoined.  Where that item has answer bits, the negated
    item's are their complement, with no rows read.  Only counts are
    read from bits; no answer is decoded.

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
        self._states: dict[GateState, GateState] = {}
        # Keyed by the ids of interned states, which _states keeps alive;
        # a one-item set's parent state is None.
        self._verdicts: dict[tuple[int | None, int], tuple[GateState, str | None]] = {}
        # Keyed by the ids of reference domains' member sets, each held
        # beside its bits, so no id is reused while the run holds it.
        self._domains: dict[int, tuple[frozenset, int]] = {}

    def item(self, bit: int) -> _Item:
        """The record of the signed item at a mask bit, its gate state
        interned."""
        item = self._items.get(bit)
        if item is None:
            if bit & 1:
                item = _negation(self.item(bit - 1))
            else:
                item = self._positive(self.bias.items[bit >> 1])
            item.state = self._interned(item.state)
            self._items[bit] = item
        return item

    def _interned(self, state: GateState) -> GateState:
        """The run's one object for a gate state of this value."""
        return self._states.setdefault(state, state)

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
        rendered = [to_text(c) for c in conjuncts]
        texts = tuple(map(conjunct_text, conjuncts, rendered))
        return _Item(
            part,
            reduce(GateState.joined, [g.state for g in gates]),
            canonical,
            rendered[0] if len(rendered) == 1 else " AND ".join(texts),
            texts,
            None,
        )

    def set(self, mask: int) -> _Set:
        """The record of a signed set, made once from its parent's, with
        the verdict of its (parent's state, last item's state) pair."""
        sets = self._sets
        record = sets.get(mask)
        if record is None:
            top = mask.bit_length() - 1
            parent = mask ^ 1 << top
            item = self._items.get(top) or self.item(top)
            if parent:
                prefix = sets.get(parent) or self.set(parent)
                items, pair = prefix.items + (item,), (id(prefix.state), id(item.state))
            else:
                prefix, items, pair = None, (item,), (None, id(item.state))
            verdict = self._verdicts.get(pair)
            if verdict is None:
                state = item.state
                if prefix is not None:
                    state = self._interned(prefix.state.joined(state))
                verdict = self._verdicts[pair] = state, state.drop_reason(self._head_set)
            state, reason = verdict
            record = sets[mask] = _Set(items, state, reason, prefix)
        return record

    def safety(self, record: _Set) -> SafetyReport:
        """``check_safe`` of the items' conjunction, made on first need."""
        if record.safety is None:
            record.safety = check_safe(record.conjunction())
        return record.safety

    def _counted(self, item: _Item) -> _Item:
        """The item with its conjuncts' relations, its domain and their
        bits filled in."""
        if item.evaluated is None:
            negates = item.negates
            if negates is None:
                domain = reference_domain(self.inst, item.part, self.head).members
                item.domain_bits = self._domain_bits(domain)
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

    def _domain_bits(self, members: frozenset) -> int:
        """The bits of a reference domain's members, built once per member
        set: items over one table share its access path's set."""
        held = self._domains.get(id(members))
        if held is None:
            held = self._domains[id(members)] = members, self._bitset(members)
        return held[1]

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

    def _filled(self, record: _Set) -> None:
        """Fill in a set's domain bits and answer bits from its parent's,
        filled first where they are not yet, and those of its last item.
        Callers fill a record whose ``domain_bits`` is None."""
        item = record.items[-1]
        if item.evaluated is None:
            self._counted(item)
        domain, bits = item.domain_bits, item.bits
        prefix = record.parent
        if prefix is not None:
            if prefix.domain_bits is None:
                self._filled(prefix)
            domain |= prefix.domain_bits
            bits = None if bits is None or prefix.bits is None else bits & prefix.bits
        record.domain_bits, record.bits = domain, bits

    def answers(self, record: _Set) -> Relation:
        """Answers of the items' conjunction, which must be safe."""
        evaluated = [self._counted(item).evaluated for item in record.items]
        # zip(*evaluated) groups each of conjoin's three inputs across items.
        return conjoin(*(list(itertools.chain(*kind)) for kind in zip(*evaluated)))

    def count(self, record: _Set) -> int:
        """Answer count of the items' conjunction, which must be safe,
        counted once: from its answer bits where every item has them and
        one has a positive relation (else the AND is None or negative,
        every tuple but some), else by conjoining their relations.  The
        one counting step: a candidate's count (``measure``) and a rule
        antecedent's are taken here."""
        if record.count is None:
            if record.domain_bits is None:
                self._filled(record)
            bits = record.bits
            if bits is None or bits < 0:
                record.count = len(self.answers(record).rows)
            else:
                record.count = bits.bit_count()
        return record.count

    def measure(self, record: _Set) -> int:
        """Measure a candidate's set in one step: its domain bits and
        answer bits, its reference domain's size (returned; 0 when it is
        empty) and, when that is not 0, its answer count (``count``).  The
        domain is the OR of the items' domain bits, or, when the set's
        comparisons equate every head variable with a constant, that of
        the set's conjunction."""
        if record.domain_bits is None:
            self._filled(record)
        size = record.size
        if size is None:
            domain = record.domain_bits
            if self._head_set <= record.state.cover:
                members = reference_domain(self.inst, record.conjunction(), self.head).members
                domain = self._domain_bits(members)
            size = record.size = domain.bit_count()
        if size:
            self.count(record)
        return size


def _negation(negates: _Item) -> _Item:
    """The record of an item taken negated, derived from the record of
    the item it negates: ``NOT part`` is one conjunct, whose gate state
    follows from the part's (``GateState.negated``) and whose texts and
    canonical text are the part's, negated as ``to_text`` negates."""
    body = negates.part
    text = negation_text(body, negates.text)
    return _Item(
        Not(body),
        negates.state.negated(),
        negation_text(body, negates.canonical),
        text,
        (text,),
        negates,
    )


def build_candidate(run: _Run, mask: int):
    """Assemble one candidate of the run from its set's gate verdict;
    returns (candidate, drop reason)."""
    record = run.set(mask)
    if record.reason is not None:
        return None, record.reason
    canonical = " AND ".join(sorted(map(_CANONICAL, record.items)))
    return Candidate(mask, canonical, record, run), None


def enumerate_level(run: _Run, level: int, previous=None) -> list[Candidate]:
    """The run's candidates at a level: level 1 extends the empty signed
    set by one item, level k > 1 each given previous candidate by one
    unused item.  Duplicates (same signed items, or the same query up to
    conjunct order and bound-variable names) collapse."""
    if level < 1:
        raise ValueError("level must be >= 1")
    bias = run.bias
    debug = log.isEnabledFor(logging.DEBUG)
    prefixes = [0] if level == 1 else [c.mask for c in previous or ()]
    # Each item's two bits, which a set extended by it must not hold, and
    # the bits it may be added as: positive, then negated where allowed.
    extensions = [
        (3 << 2 * i, (1 << 2 * i, 2 << 2 * i) if bias.allow_negation and item.negatable
         else (1 << 2 * i,))
        for i, item in enumerate(bias.items)
    ]
    out = []
    seen_signed = set()
    seen_canonical = set()
    for prefix in prefixes:
        for used, bits in extensions:
            if prefix & used:
                continue
            for bit in bits:
                mask = prefix | bit
                if mask in seen_signed:
                    continue
                seen_signed.add(mask)
                candidate, reason = build_candidate(run, mask)
                if candidate is None:
                    if debug:
                        log.debug("level %d: dropping %r: %s", level, signed_items(mask), reason)
                elif candidate.canonical in seen_canonical:
                    if debug:
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
    measure = run.measure
    least, per = min_support.numerator, min_support.denominator
    frequent: list[FrequentQuery] = []
    stats: list[LevelStats] = []
    extendable: list[Candidate] = []
    for level in range(1, levels + 1):
        candidates = enumerate_level(run, level, extendable)
        evaluated = []
        survivors = []
        found = []
        for c in candidates:
            size = measure(c.record)
            if not size:
                log.debug("level %d: empty domain for %s", level, c.canonical)
                continue
            evaluated.append(c)
            count = c.record.count
            # count / size >= min_support, in integers.
            if count * per >= least * size:
                survivors.append(c)
                found.append(FrequentQuery(c, Frequency(count, size)))
        # Levels come in order, so this sorts by (level, canonical text).
        frequent += sorted(found, key=_BY_CANONICAL)
        stats.append(LevelStats(level, len(candidates), len(survivors)))
        extendable = survivors if prune else evaluated
        if not extendable:
            break
    return MiningResult(tuple(frequent), (), tuple(stats))


def kept_splits(frequent, min_confidence: Fraction):
    """Split each frequent multi-item query into antecedent -> consequent
    and yield each split at or above ``min_confidence`` (a Fraction in
    [0, 1], checked by the caller) as (frequent query, antecedent's
    record, consequent's record, antecedent's answer count).

    Frequent queries are taken in the order given, and each one's splits
    are the proper submasks of its mask in ascending order, walked here:
    ``mine_frequent`` returns its queries in (level, canonical) order, so
    their splits come in the order ``mine_rules`` keeps its rules.  A
    split's A AND C has exactly the candidate's conjuncts, so its answer
    count is the candidate's frequency numerator.  The antecedent's
    record in the candidate's mining run is looked up by its mask, made
    (``_Run.set``) only where the run has none, and its gate verdict and
    count are read from it as fields, counted (``_Run.count``) only where
    it holds no count yet; confidence is compared as integers.  A split
    whose antecedent drops head variables, is unsafe or has no answers is
    logged at debug level and skipped.  Nothing is built for a split but
    the records, which the run keeps.
    """
    least, per = min_confidence.numerator, min_confidence.denominator
    # Read once, not per split: on the mine-data bias a quarter of the
    # splits have an unsafe antecedent.
    debug = log.isEnabledFor(logging.DEBUG)
    for fq in frequent:
        c = fq.candidate
        run, mask = c.run, c.mask
        both = fq.frequency.numerator
        sets = run._sets
        sub = -mask & mask
        while sub != mask:
            ant, sub = sub, (sub - mask) & mask
            antecedent = sets.get(ant) or run.set(ant)
            reason = antecedent.reason
            if reason is not None:
                if reason == "free-variable-mismatch":
                    if debug:
                        log.debug("rule from %s: antecedent drops head variables", c.canonical)
                    continue
                if reason.startswith("unsafe"):
                    if debug:
                        log.debug(
                            "rule from %s: %s",
                            c.canonical,
                            UnsafeQueryError(run.safety(antecedent)),
                        )
                    continue
            count = antecedent.count
            if count is None:
                count = run.count(antecedent)
            # both / count < min_confidence, in integers.
            if both * per < least * count:
                continue
            if not count:
                # A zero count passes any threshold; the debug line is the
                # error confidence_from_count raises for it.
                try:
                    confidence_from_count(antecedent.declared(run.head), both, count)
                except ZeroAntecedentError as exc:
                    log.debug("rule from %s: %s", c.canonical, exc)
                continue
            yield fq, antecedent, sets.get(mask ^ ant) or run.set(mask ^ ant), count


def mine_rules(
    inst: DatabaseInstance,
    frequent,
    min_confidence: Fraction,
) -> tuple[MinedRule, ...]:
    """The rules split from the frequent queries at or above the
    confidence threshold (``kept_splits``), each with its confidence
    Fraction, its consequent's conjunction and the one declaration of
    its antecedent's record (``_Set.declared``), which every rule with
    that antecedent, and the candidate of that mask, share.  Rules come
    in the order of their frequent queries by (level, canonical text),
    whatever the order given, then by antecedent mask.
    """
    min_confidence = Fraction(min_confidence)
    if not 0 <= min_confidence <= 1:
        raise ValueError("min_confidence must be in [0, 1]")
    rules = []
    ordered = sorted(frequent, key=lambda q: (q.level, q.candidate.canonical))
    for fq, antecedent, consequent, count in kept_splits(ordered, min_confidence):
        decl = antecedent.declared(fq.candidate.run.head)
        rules.append(
            MinedRule(
                decl,
                consequent.conjunction(),
                fq.frequency,
                confidence_from_count(decl, fq.frequency.numerator, count),
                antecedent.joined_text(),
                consequent.joined_text(),
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
