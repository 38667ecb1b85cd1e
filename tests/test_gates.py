"""The miner's gates against the gates of a plain query, per signed subset.

A mining run gates each candidate, and each unsafe rule antecedent, by
combining summaries it keeps per signed pool item.  These tests build
every signed subset of up to three items of widened test pools and
check the miner's verdict against two oracles that see only the plain
query ``QueryDecl(None, head, conjunction(parts))``:

* ``stats.prepare_query`` and ``check_safe``, the single-query path;
* a reference written here from the rules in the ``safety`` and
  ``entities`` module docstrings, which walks the whole body the naive
  way and shares no code with either path beyond ``formulas``.

The widened pools reach every drop reason: R2 and nested R3/R4 inside
an item, an entity failure by a non-entity field, by a non-entity
constant and by an equality with a non-candidate, ``EXISTS P.``
shadowing a head variable, limitation through variable-variable
equalities, and not-valid.
"""

import itertools
import random
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies
from conftest import TV_DIR, signed_mask
from ermine import (
    And,
    Atom,
    Comparison,
    Constant,
    ErReport,
    Exists,
    Not,
    Or,
    QueryDecl,
    SafetyReport,
    ValidityReport,
    Variable,
    Violation,
    build_candidate,
    check_safe,
    conjunction,
    entity_fields,
    equated_constants,
    free_variables,
    load_bias,
    load_bias_file,
    normalize,
    subformulas,
)
from ermine.entities import (
    EntityFailure,
    REASON_BAD_OP,
    REASON_EQUATED_NON_CANDIDATE,
    REASON_NON_ENTITY_CONSTANT,
    REASON_NON_ENTITY_FIELD,
    REASON_QUANTIFIED,
    GateState,
    conjunction_gates,
)
from ermine.evaluator import PreparedQuery
from ermine.formulas import conjunct_text, to_text
from ermine.mining import _canonical_text, _Run
from ermine.safety import RULE_BAD_NEGATION, RULE_DISJUNCT_VARS, RULE_UNLIMITED_VAR
from ermine.stats import prepare_query

EXTRA_ITEMS = {
    ("P",): (
        # R2 inside the item.
        "WeekdayTV(P, SN, V, S) OR WeekendTV(P, SN2, V2, S2)",
        # R3 and R4 nested under NOT EXISTS.
        "TV-Program(P) AND NOT (EXISTS SN. "
        '(NOT WeekdayTV(P, SN, 10, "RBC") AND TV-Station(SN, 2)))',
        # P fills a non-entity field.
        "TV-Station(SN, P)",
        # P is compared with a constant that is no entity.
        'TV-Program(P) AND P != "Avon"',
        # P is linked to S, a non-candidate.
        "WeekdayTV(P, SN, V, S) AND P != S",
        # EXISTS P. shadows the head variable: alone, the item has no
        # free variable; with others, P is quantified over.
        "EXISTS P. WeekendTV(P, SN, V, S)",
        # P is limited inside the item only through Q = P.
        "TV-Program(Q) AND Q = P",
    ),
    ("P", "SN"): (
        # Not valid, failing on the conjunction under EXISTS A.
        "TV-Program(P) AND TV-Station(SN, A)",
        # SN is limited only through P = SN at the top level.
        "P = SN",
        "WeekdayTV(P, SN, V, S) OR WeekendTV(P, SN, V2, S2)",
        'SN != "Avon"',
    ),
}

POOLS = {head: strategies.MINING_POOLS[head] + EXTRA_ITEMS[head] for head in EXTRA_ITEMS}


def wide_bias(head):
    return load_bias(
        {
            "head": list(head),
            "items": list(POOLS[head]),
            "max_conjuncts": 3,
            "allow_negation": True,
        },
        strategies.TV_SCHEMA,
    )


def signed_subsets(n_items, max_level=3):
    for level in range(1, max_level + 1):
        for items in itertools.combinations(range(n_items), level):
            for signs in itertools.product((False, True), repeat=level):
                yield tuple(zip(items, signs))


def plain_parts(bias, signed):
    return [
        Not(bias.items[i].formula) if negated else bias.items[i].formula
        for i, negated in signed
    ]


# -- the reference gates ---------------------------------------------------


def _conjuncts(f):
    return f.conjuncts if isinstance(f, And) else (f,)


def _var_pair(c):
    if isinstance(c.left, Variable) and isinstance(c.right, Variable):
        return c.left.name, c.right.name
    return None


def reference_safety(f):
    """R2-R4 on a normalized formula, every violation in report order."""
    out = []

    def check(g):
        cs = _conjuncts(g)
        limited = set(equated_constants(g))
        for c in cs:
            if not isinstance(c, (Not, Comparison)):
                limited.update(free_variables(c))
        pairs = [
            set(_var_pair(c)) for c in cs
            if isinstance(c, Comparison) and c.op == "=" and _var_pair(c)
        ]
        while True:
            grown = {v for p in pairs if p & limited for v in p} - limited
            if not grown:
                break
            limited |= grown
        out.extend(
            Violation(RULE_UNLIMITED_VAR, g, v)
            for v in free_variables(g) if v not in limited
        )
        for c in cs:
            if isinstance(c, Not):
                unlimited = [v for v in free_variables(c) if v not in limited]
                if unlimited:
                    out.append(Violation(RULE_BAD_NEGATION, c, unlimited[0]))
                check(c.body)
            elif isinstance(c, Exists):
                check(c.body)
            elif isinstance(c, Or):
                if set(free_variables(c.left)) != set(free_variables(c.right)):
                    out.append(Violation(RULE_DISJUNCT_VARS, c))
                check(c.left)
                check(c.right)

    check(f)
    return SafetyReport(tuple(out))


def reference_er(f, inst):
    """Entity status of the free variables of a safe normalized formula."""
    efields = entity_fields(inst.schema)
    names, failures = set(), {}
    for g in subformulas(f):
        if isinstance(g, Exists):
            names.add(g.var)
            failures.setdefault(g.var, set()).add(REASON_QUANTIFIED)
        elif isinstance(g, Comparison):
            for side, other in ((g.left, g.right), (g.right, g.left)):
                if isinstance(side, Variable):
                    names.add(side.name)
                    if g.op not in ("=", "!="):
                        failures.setdefault(side.name, set()).add(REASON_BAD_OP)
                    if (
                        isinstance(other, Constant)
                        and other.value not in inst.entity_constants
                    ):
                        failures.setdefault(side.name, set()).add(
                            REASON_NON_ENTITY_CONSTANT
                        )
        elif isinstance(g, Atom):
            table = inst.schema.table(g.predicate)
            for fld, t in zip(table.fields, g.terms):
                if isinstance(t, Variable):
                    names.add(t.name)
                    if f"{table.name}.{fld.name}" not in efields:
                        failures.setdefault(t.name, set()).add(REASON_NON_ENTITY_FIELD)
    candidates = names - failures.keys()
    linked_out = {
        a
        for g in subformulas(f)
        if isinstance(g, Comparison) and g.op in ("=", "!=") and _var_pair(g)
        for a, b in (_var_pair(g), _var_pair(g)[::-1])
        if b not in candidates
    }
    failed = []
    for v in free_variables(f):
        reasons = failures.get(v, set()) | (
            {REASON_EQUATED_NON_CANDIDATE} if v in linked_out else set()
        )
        failed += [EntityFailure(v, r) for r in sorted(reasons)]
    entity_vars = frozenset(free_variables(f)) - {x.variable for x in failed}
    return ErReport(not failed, entity_vars, tuple(failed))


def reference_validity(f, varset):
    """Validity of a normalized formula for a non-empty variable set."""
    if isinstance(f, Atom):
        ok = varset <= {t.name for t in f.terms if isinstance(t, Variable)}
    elif isinstance(f, Comparison):
        ok = varset <= equated_constants(f).keys()
    elif isinstance(f, Not):
        ok = False
    elif isinstance(f, And):
        if varset <= equated_constants(f).keys() or any(
            reference_validity(c, varset).valid for c in f.conjuncts
        ):
            return ValidityReport(True)
        ok = False
    elif isinstance(f, Or):
        for branch in (f.left, f.right):
            r = reference_validity(branch, varset)
            if not r.valid:
                return r
        return ValidityReport(True)
    else:
        if f.var in varset:
            return ValidityReport(False, f)
        return reference_validity(f.body, varset)
    return ValidityReport(True) if ok else ValidityReport(False, f)


def reference_prepared(inst, decl):
    body = normalize(decl.body)
    safety, er, validity = reference_safety(body), None, None
    if safety.safe:
        er = reference_er(body, inst)
        validity = reference_validity(body, frozenset(decl.variables))
    return PreparedQuery(
        None, decl.variables, body, safety=safety, er=er, validity=validity
    )


def reason_of(q):
    if set(free_variables(q.body)) != set(q.variables):
        return "free-variable-mismatch"
    if not q.safety.safe:
        return f"unsafe ({q.safety.violations[0].rule})"
    if not q.er.is_er:
        return "not-an-entity-query"
    if not q.validity.valid:
        return "not-valid"
    return None


# -- the checks ------------------------------------------------------------


def check_subsets(inst, bias, subsets, seed=0):
    """Check each subset's verdict, and the safety report of each unsafe
    antecedent of a passing one; returns the reasons seen.

    The subsets are gated in the given order on one run, then in an order
    shuffled by ``seed`` on a fresh run, so a set's gate state is also
    carried from parents that were never gated themselves."""
    subsets = list(subsets)
    shuffled = list(subsets)
    random.Random(seed).shuffle(shuffled)
    seen = set()
    for order in (subsets, shuffled):
        run = _Run(bias, inst)
        for signed in order:
            seen |= check_subset(inst, bias, run, signed)
    return seen


def check_subset(inst, bias, run, signed):
    parts = plain_parts(bias, signed)
    decl = QueryDecl(None, bias.head, conjunction(parts))
    expected = reference_prepared(inst, decl)
    assert prepare_query(inst, decl) == expected, signed
    reason = reason_of(expected)
    seen = {reason}
    candidate, got = build_candidate(run, signed_mask(signed))
    assert got == reason, signed
    if candidate is None:
        return seen
    assert candidate.signed_items == signed
    assert prepare_query(inst, candidate.decl) == expected, signed
    for mask in range(1, 2 ** len(signed) - 1):
        ant = tuple(s for j, s in enumerate(signed) if mask >> j & 1)
        body = conjunction([normalize(p) for p in plain_parts(bias, ant)])
        if set(free_variables(body)) != set(bias.head):
            continue
        report = check_safe(body)
        assert report == reference_safety(body), ant
        assert prepare_query(inst, QueryDecl(None, bias.head, body)).safety == report, ant
        if not report.safe:
            assert run.set(signed_mask(ant)).reason == f"unsafe ({report.violations[0].rule})"
            assert check_safe(run.body(signed_mask(ant))) == report, ant
            assert run.safety(signed_mask(ant)) == report, ant
            seen.add("unsafe antecedent")
    return seen


@pytest.mark.parametrize("head", sorted(POOLS))
def test_miner_gates_match_plain_queries_on_the_fixture(tv, head):
    bias = wide_bias(head)
    seen = check_subsets(tv, bias, signed_subsets(len(bias.items)))
    assert {
        None,
        "free-variable-mismatch",
        "unsafe (R3-unlimited-var)",
        "not-an-entity-query",
        "unsafe antecedent",
    } <= seen
    if head == ("P",):
        assert "unsafe (R2-disjunct-vars)" in seen
    else:
        assert "not-valid" in seen


def pool_bias(items, head=("P", "SN")):
    return load_bias(
        {"head": list(head), "items": list(items), "allow_negation": True},
        strategies.TV_SCHEMA,
    )


MINING_BIASES = {
    "bias_mixed": lambda: load_bias_file(TV_DIR / "bias_mixed.json", strategies.TV_SCHEMA),
    "pool-P": lambda: pool_bias(strategies.MINING_POOLS[("P",)], ("P",)),
    "pool-P-SN": lambda: pool_bias(strategies.MINING_POOLS[("P", "SN")]),
    # P = SN comes before the items that limit P or SN, so a set's
    # limitation spreads through an equality of its parent, not only
    # through one of the item the set adds last.
    "wide-P-SN-reversed": lambda: pool_bias(POOLS[("P", "SN")][::-1]),
}


@pytest.mark.parametrize("name", sorted(MINING_BIASES))
def test_miner_gates_match_plain_queries_on_mining_pools(tv, name):
    bias = MINING_BIASES[name]()
    seen = check_subsets(tv, bias, signed_subsets(len(bias.items)), seed=len(bias.items))
    assert None in seen and "unsafe antecedent" in seen


WIDE = {head: wide_bias(head) for head in sorted(POOLS)}
SUBSETS = {head: list(signed_subsets(len(bias.items))) for head, bias in WIDE.items()}


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_miner_gates_match_plain_queries_on_generated_instances(data):
    """Entity constants vary with the instance, so the entity gate does."""
    inst = data.draw(strategies.tv_instances())
    head = data.draw(st.sampled_from(sorted(WIDE)))
    subsets = data.draw(
        st.lists(st.sampled_from(SUBSETS[head]), min_size=50, max_size=150)
    )
    check_subsets(inst, WIDE[head], subsets)


# -- negated items derived from the items they negate ---------------------

# Items whose negations exercise every field of the derived state: several
# conjuncts, links in more than one of them (an item is closed over its
# non-head variables, so only conjuncts that each close their own
# variables are top-level conjuncts), an OR, a nested NOT, safety violations
# inside the item, a non-entity constant and field, a FORALL that
# normalizing rewrites, and an atom, which is negated unwrapped.
DERIVATION_ITEMS = {
    ("P",): (
        "WeekdayTV(P, SN, V, S) AND P != S AND SN = S AND V >= 3",
        "(EXISTS Q. TV-Program(Q) AND Q = P) AND "
        "(EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND P != S)",
        'TV-Program(P) AND NOT (TV-Program(P) AND NOT WeekdayTV(P, "CBS", 10, "RBC"))',
        "NOT (EXISTS SN. (NOT WeekdayTV(P, SN, 10, \"RBC\") AND TV-Station(SN, 2)))",
        'P != "Avon" AND P != "Gilmore"',
        "FORALL SN. NOT WeekdayTV(P, SN, 1, \"Avon\") OR TV-Program(P)",
    ),
    ("P", "SN"): (
        'WeekdayTV(P, SN, V, "RBC") OR WeekendTV(P, SN, V, "Avon")',
        'WeekendTV(P, SN, V, S) AND P = "Gilmore" AND SN != P',
        "TV-Program(P) AND P != SN AND (EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND SN = S)",
    ),
}

DERIVATION_BIASES = {
    **{
        f"fixture-{name}": (
            lambda name=name: load_bias_file(TV_DIR / f"{name}.json", strategies.TV_SCHEMA)
        )
        for name in ("bias_programs", "bias_pairs", "bias_mixed", "bias_cover")
    },
    **{
        f"pool-{'-'.join(head)}": (
            lambda head=head: pool_bias(
                strategies.MINING_POOLS[head] + EXTRA_ITEMS[head] + DERIVATION_ITEMS[head], head
            )
        )
        for head in sorted(strategies.MINING_POOLS)
    },
}


@pytest.mark.parametrize("name", sorted(DERIVATION_BIASES))
def test_negated_items_derive_what_the_formula_walk_gives(tv, name):
    bias = DERIVATION_BIASES[name]()
    run = _Run(bias, tv)
    head = bias.head
    inner_rules = covers = linked = 0
    for i, pool_item in enumerate(bias.items):
        positive, negated = run.item(2 * i), run.item(2 * i + 1)
        part = normalize(pool_item.formula)
        assert positive.part == part and negated.part == Not(part)
        assert positive.canonical == _canonical_text(part, head)
        assert positive.text == to_text(part)
        walked = conjunction_gates(Not(part), tv, head)
        assert negated.state == reduce(GateState.joined, [g.state for g in walked])
        assert negated.canonical == _canonical_text(Not(part), head)
        assert negated.rendered == (to_text(Not(part)),)
        assert negated.texts == (conjunct_text(Not(part), to_text(Not(part))),)
        assert negated.text == to_text(Not(part))
        inner_rules += negated.state.checks[0][1] is not None
        covers += bool(positive.state.cover)
        linked += sum(bool(g.entities.links) for g in positive.gates) > 1
    if name.startswith("pool-"):
        # The pools reach the fields a derivation could get wrong.
        assert inner_rules and covers and linked
