"""Language bias loading and the level-wise rule miner."""

import collections
import json
import logging
import sys
from fractions import Fraction

import pytest

import strategies
from conftest import TV_DIR, signed_mask, split_rules_from_scratch
from ermine import (
    BiasError,
    LevelStats,
    Not,
    QueryParseError,
    UnsafeQueryError,
    build_candidate,
    check_safe,
    enumerate_level,
    is_er_query,
    is_valid_for,
    load_bias,
    load_bias_file,
    load_instance,
    mine,
    mine_frequent,
    mine_rules,
    mining,
    normalize,
)
from ermine.cli import main
from ermine.entities import GateState, gate_reports
from ermine.evaluator import evaluate
from ermine.formulas import to_text
from ermine.mining import _Run
from ermine.stats import checked_query, frequency

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def pool_bias(head):
    """The bias document of a ``strategies.MINING_POOLS`` pool at 3
    conjuncts.  Both pools mix bare comparisons, items that normalize to
    a conjunction and NOT items with plain items."""
    return {
        "head": list(head),
        "items": list(strategies.MINING_POOLS[head]),
        "max_conjuncts": 3,
        "allow_negation": True,
    }


@pytest.fixture(scope="module")
def programs_bias(tv_schema):
    return load_bias_file(TV_DIR / "bias_programs.json", tv_schema)


@pytest.fixture(scope="module")
def pairs_bias(tv_schema):
    return load_bias_file(TV_DIR / "bias_pairs.json", tv_schema)


def freq_by_signs(result):
    return {
        fq.candidate.signed_items: fq.frequency.value for fq in result.frequent
    }


def test_bias_file_loads(programs_bias):
    assert programs_bias.head == ("P",)
    assert len(programs_bias.items) == 2
    assert programs_bias.max_conjuncts == 2
    assert programs_bias.allow_negation
    assert all(item.negatable for item in programs_bias.items)


def test_bias_defaults(tv_schema):
    bias = load_bias({"head": ["P"], "items": ["TV-Program(P)"]}, tv_schema)
    assert bias.max_conjuncts == 1  # defaults to the item count
    assert not bias.allow_negation
    assert bias.items[0].negatable


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "JSON object"),
        ({"items": ["TV-Program(P)"]}, "'head'"),
        ({"head": [], "items": ["TV-Program(P)"]}, "'head'"),
        ({"head": ["P", "P"], "items": ["TV-Program(P)"]}, "'head'"),
        ({"head": ["P"]}, "'items'"),
        ({"head": ["P"], "items": []}, "'items'"),
        ({"head": ["P"], "items": [{"negatable": True}]}, "pattern"),
        ({"head": ["P"], "items": ["TV-Program(P)"], "max_conjuncts": 0},
         "'max_conjuncts'"),
        ({"head": [["P"]], "items": ["TV-Program(P)"]}, "'head'"),
        ({"head": ["P"], "items": [{"pattern": 5}]}, "string 'pattern'"),
        # Flags are JSON booleans: bool("false") would turn negation on.
        ({"head": ["P"], "items": ["TV-Program(P)"], "allow_negation": "false"},
         "'allow_negation' must be true or false"),
        ({"head": ["P"], "items": ["TV-Program(P)"], "allow_negation": 0},
         "'allow_negation' must be true or false"),
        ({"head": ["P"], "items": [{"pattern": "TV-Program(P)", "negatable": "no"}]},
         "'negatable' must be true or false"),
        ({"head": ["P"], "items": [{"pattern": "TV-Program(P)", "negatable": 1}]},
         "'negatable' must be true or false"),
        ({"head": ["P"], "items": ["TV-Program(P)"], "max_conjuncts": True},
         "'max_conjuncts'"),
        # Head names are variables as the query parser reads them.
        ({"head": ["p"], "items": ["TV-Program(p)"]}, "'head' names non-variables: 'p'"),
        ({"head": [""], "items": ["TV-Program(P)"]}, "'head' names non-variables: ''"),
        ({"head": ["AND"], "items": ["TV-Program(P)"]}, "'head' names non-variables: 'AND'"),
        ({"head": ["P-Q"], "items": ["TV-Program(P)"]}, "'head' names non-variables: 'P-Q'"),
        ({"head": ["P", "x1", "Q "], "items": ["TV-Program(P)"]},
         "'head' names non-variables: 'x1', 'Q '"),
    ],
)
def test_bias_validation(tv_schema, doc, message):
    with pytest.raises(BiasError, match=message):
        load_bias(doc, tv_schema)


def test_bias_file_rejects_bad_json(tmp_path, tv_schema):
    path = tmp_path / "bias.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BiasError, match="not valid JSON"):
        load_bias_file(path, tv_schema)


def test_bias_item_patterns_are_typechecked(tv_schema):
    with pytest.raises(QueryParseError, match="unknown predicate"):
        load_bias({"head": ["P"], "items": ["Nope(P)"]}, tv_schema)


def test_items_differing_only_in_bound_names_collapse(tv_schema):
    bias = load_bias(
        {
            "head": ["P"],
            "items": [
                "WeekdayTV(P, SN, V, S) AND V >= 10",
                "WeekdayTV(P, SN9, V9, S9) AND V9 >= 10",
            ],
        },
        tv_schema,
    )
    assert len(bias.items) == 1


def test_renaming_the_head_variable_changes_nothing_found(tv_schema, tv):
    # The canonical texts' fresh bound names B1_, B2_, ... skip the head
    # variables, so an item over the head variable B1_ is no duplicate of
    # one whose first bound variable becomes B1_.
    def found(head):
        items = ["WeekdayTV(SN, SN, V, S)", f"WeekdayTV({head}, SN, V, S)"]
        bias = load_bias({"head": [head], "items": items}, tv_schema)
        result = mine(tv, bias, Fraction(1, 4), Fraction(1, 2))
        texts = [(fq.candidate.text().replace(head, "X"), str(fq.frequency)) for fq in result.frequent]
        return len(bias.items), result.levels, texts

    assert found("B1_") == found("P")
    assert found("P")[2] == [
        ("q(X) := EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(X, SN, V, S)", "2/2 = 1")
    ]


def test_candidate_reason_unsafe(programs_bias, tv):
    candidate, reason = build_candidate(_Run(programs_bias, tv), signed_mask(((0, True),)))
    assert candidate is None
    assert reason == "unsafe (R3-unlimited-var)"


def test_candidate_reason_free_variable_mismatch(tv_schema, tv):
    bias = load_bias({"head": ["P"], "items": ["TV-Program(X)"]}, tv_schema)
    candidate, reason = build_candidate(_Run(bias, tv), signed_mask(((0, False),)))
    assert candidate is None
    assert reason == "free-variable-mismatch"


def test_candidate_reason_not_entity(tv_schema, tv):
    bias = load_bias(
        {"head": ["V"], "items": ["WeekdayTV(P, SN, V, S)"]}, tv_schema
    )
    candidate, reason = build_candidate(_Run(bias, tv), signed_mask(((0, False),)))
    assert candidate is None
    assert reason == "not-an-entity-query"


def test_candidate_reason_not_valid(tv_schema, tv):
    bias = load_bias(
        {
            "head": ["P", "SN"],
            "items": ["WeekdayTV(P, SN2, V, S) AND WeekdayTV(P2, SN, V2, S2)"],
        },
        tv_schema,
    )
    candidate, reason = build_candidate(_Run(bias, tv), signed_mask(((0, False),)))
    assert candidate is None
    assert reason == "not-valid"


def test_candidate_success(programs_bias, tv):
    candidate, reason = build_candidate(_Run(programs_bias, tv), signed_mask(((0, False),)))
    assert reason is None
    assert candidate.level == 1
    assert candidate.decl.variables == ("P",)
    assert candidate.parts == (programs_bias.items[0].formula,)


def test_enumerate_level_one_drops_bare_negations(programs_bias, tv):
    candidates = enumerate_level(_Run(programs_bias, tv), 1)
    assert [c.signed_items for c in candidates] == [((0, False),), ((1, False),)]
    with pytest.raises(ValueError):
        enumerate_level(_Run(programs_bias, tv), 0)


def test_mine_frequent_programs(programs_bias, tv):
    result = mine_frequent(tv, programs_bias, QUARTER)
    assert result.levels == (LevelStats(1, 2, 2), LevelStats(2, 3, 3))
    assert freq_by_signs(result) == {
        ((0, False),): Fraction(1),
        ((1, False),): HALF,
        ((0, False), (1, False)): QUARTER,
        ((0, False), (1, True)): QUARTER,
        ((0, True), (1, False)): QUARTER,
    }
    assert result.rules == ()


def test_mine_frequent_high_threshold(programs_bias, tv):
    result = mine_frequent(tv, programs_bias, Fraction(1))
    assert set(freq_by_signs(result)) == {((0, False),)}
    assert result.levels == (LevelStats(1, 2, 1), LevelStats(2, 2, 0))


def test_mined_rules_programs(programs_bias, tv):
    result = mine(tv, programs_bias, QUARTER, HALF)
    f1 = normalize(programs_bias.items[0].formula)
    f2 = normalize(programs_bias.items[1].formula)
    shape = {
        (rule.antecedent.body, rule.consequent): (rule.support.value, rule.confidence)
        for rule in result.rules
    }
    assert shape == {
        (f1, f2): (QUARTER, HALF),
        (f2, f1): (QUARTER, HALF),
        (f1, Not(f2)): (QUARTER, HALF),
        (f2, Not(f1)): (QUARTER, HALF),
    }


def test_rule_text_round_trips_the_fixture_rule(programs_bias, tv):
    result = mine(tv, programs_bias, QUARTER, HALF)
    texts = {rule.text() for rule in result.rules}
    assert (
        "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V >= 10"
        " -> EXISTS SN. EXISTS V. EXISTS S. WeekendTV(P, SN, V, S) AND V >= 10"
    ) in texts


def test_full_confidence_yields_no_rules(programs_bias, tv):
    result = mine(tv, programs_bias, QUARTER, Fraction(1))
    assert result.rules == ()


def test_mine_pairs(pairs_bias, tv):
    result = mine(tv, pairs_bias, QUARTER, HALF)
    assert result.levels == (LevelStats(1, 2, 2), LevelStats(2, 1, 0))
    assert freq_by_signs(result) == {
        ((0, False),): Fraction(2, 3),
        ((1, False),): QUARTER,
    }
    assert result.rules == ()


def test_pruning_changes_nothing(programs_bias, pairs_bias, tv):
    for bias in (programs_bias, pairs_bias):
        pruned = mine(tv, bias, QUARTER, HALF)
        exhaustive = mine(tv, bias, QUARTER, HALF, prune=False)
        assert pruned == exhaustive


def test_pruning_skips_work_but_keeps_answers(programs_bias, tv):
    threshold = Fraction(2, 3)
    pruned = mine(tv, programs_bias, threshold, HALF)
    exhaustive = mine(tv, programs_bias, threshold, HALF, prune=False)
    assert pruned.frequent == exhaustive.frequent
    assert pruned.rules == exhaustive.rules
    # Without pruning the infrequent level-1 query still gets extended.
    assert pruned.levels == (LevelStats(1, 2, 1), LevelStats(2, 2, 0))
    assert exhaustive.levels == (LevelStats(1, 2, 1), LevelStats(2, 3, 0))


def test_threshold_monotonicity(programs_bias, tv):
    strict = mine_frequent(tv, programs_bias, HALF)
    loose = mine_frequent(tv, programs_bias, QUARTER)
    strict_keys = set(freq_by_signs(strict))
    loose_keys = set(freq_by_signs(loose))
    assert strict_keys <= loose_keys
    assert strict_keys == {((0, False),), ((1, False),)}


def test_max_level_caps_search(programs_bias, tv):
    result = mine(tv, programs_bias, QUARTER, HALF, max_level=1)
    assert result.levels == (LevelStats(1, 2, 2),)
    assert len(result.frequent) == 2
    assert result.rules == ()  # single-item queries cannot split


def test_mining_is_deterministic(programs_bias, tv):
    assert mine(tv, programs_bias, QUARTER, HALF) == mine(
        tv, programs_bias, QUARTER, HALF
    )


def test_every_frequent_query_is_checked(programs_bias, tv):
    result = mine_frequent(tv, programs_bias, QUARTER)
    for fq in result.frequent:
        body = fq.candidate.decl.body
        assert check_safe(body).safe
        assert is_er_query(body, tv).is_er
        assert is_valid_for(body, fq.candidate.decl.variables).valid


def test_empty_instance_yields_nothing(programs_bias, tv_schema):
    empty = load_instance(
        tv_schema,
        {"TV-Program": [], "TV-Station": [], "WeekdayTV": [], "WeekendTV": []},
    )
    result = mine_frequent(empty, programs_bias, QUARTER)
    assert result.frequent == ()
    assert result.levels == (LevelStats(1, 2, 0),)


@pytest.mark.parametrize("bad", [0, 2, Fraction(3, 2), Fraction(0)])
def test_min_support_range(programs_bias, tv, bad):
    with pytest.raises(ValueError, match="min_support"):
        mine_frequent(tv, programs_bias, bad)


@pytest.mark.parametrize("bad", [0, -3])
def test_max_level_range(programs_bias, tv, bad):
    with pytest.raises(ValueError, match="max_level"):
        mine_frequent(tv, programs_bias, QUARTER, max_level=bad)


@pytest.mark.parametrize("bad", [2, -1, Fraction(3, 2), Fraction(-1, 10**9)])
def test_min_confidence_range(programs_bias, tv, bad):
    frequent = mine_frequent(tv, programs_bias, QUARTER).frequent
    with pytest.raises(ValueError, match="min_confidence"):
        mine_rules(tv, frequent, bad)


def test_mine_rules_needs_multi_part_queries(programs_bias, tv):
    level_one = mine_frequent(tv, programs_bias, QUARTER, max_level=1)
    assert mine_rules(tv, level_one.frequent, Fraction(0)) == ()


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("bias_name", ["programs_bias", "pairs_bias"])
def test_rule_statistics_match_stats_from_scratch(request, tv, bias_name, prune):
    # A confidence floor this low keeps every split with a non-empty
    # antecedent, so the rule list is compared whole.
    bias = request.getfixturevalue(bias_name)
    result = mine(tv, bias, Fraction(1, 100), Fraction(1, 10**9), prune=prune)
    assert result.rules
    assert [
        (r.text(), r.support, r.confidence) for r in result.rules
    ] == split_rules_from_scratch(tv, result.frequent)


def test_rule_antecedent_that_never_was_a_candidate(tv_schema, tv):
    # TV-Program(P) AND EXISTS A. TV-Station(SN, A) is safe but not valid
    # for (P, SN), so it is never a candidate: the rule split joins the
    # two items' answers (4 programs x 3 stations).
    bias = load_bias(
        {
            "head": ["P", "SN"],
            "items": ["WeekdayTV(P, SN, V, S)", "TV-Program(P)", "TV-Station(SN, A)"],
        },
        tv_schema,
    )
    result = mine(tv, bias, Fraction(1, 100), Fraction(1, 10**9))
    confidences = {rule.text(): rule.confidence for rule in result.rules}
    weekday = "EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)"
    assert confidences[
        f"TV-Program(P) AND (EXISTS A. TV-Station(SN, A)) -> {weekday}"
    ] == Fraction(3, 12)
    assert [
        (r.text(), r.support, r.confidence) for r in result.rules
    ] == split_rules_from_scratch(tv, result.frequent)


@pytest.mark.parametrize("head", sorted(strategies.MINING_POOLS))
def test_mining_never_evaluates_a_whole_query(monkeypatch, tv_schema, tv, head):
    bias = load_bias(pool_bias(head), tv_schema)

    def whole_query(*args, **kwargs):
        raise AssertionError("mine evaluated a whole query")

    for name, module in list(sys.modules.items()):
        if name == "ermine" or name.startswith("ermine."):
            for attr, fn in (("evaluate", evaluate), ("frequency", frequency)):
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, whole_query)
    results = [
        mine(tv, bias, Fraction(1, 100), Fraction(1, 10**9), prune=prune)
        for prune in (True, False)
    ]
    monkeypatch.undo()
    for result in results:
        assert result.rules
        for fq in result.frequent:
            assert fq.frequency == frequency(tv, fq.candidate.decl)
        assert [
            (r.text(), r.support, r.confidence) for r in result.rules
        ] == split_rules_from_scratch(tv, result.frequent)


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("head", sorted(strategies.MINING_POOLS))
def test_mining_counts_each_signed_set_once(monkeypatch, tv_schema, tv, head, prune):
    # A rule antecedent that never was a candidate splits from several
    # frequent queries of the (P, SN) pool; its count is kept too.  Every
    # count, from bits or by conjoin, is taken in _Run._answer_count.
    bias = load_bias(pool_bias(head), tv_schema)
    counted = collections.Counter()
    answer_count = _Run._answer_count

    def counting(run, mask):
        counted[id(run), mask] += 1
        return answer_count(run, mask)

    monkeypatch.setattr(_Run, "_answer_count", counting)
    result = mine(tv, bias, Fraction(1, 100), Fraction(1, 10**9), prune=prune)
    monkeypatch.undo()
    assert result.rules
    assert len(counted) > 300
    assert max(counted.values()) == 1


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("head", sorted(strategies.MINING_POOLS))
def test_mining_gates_each_signed_set_once(
    monkeypatch, caplog, tv_schema, tv, head, prune
):
    # Rule antecedents read the verdicts candidates left, and an unsafe
    # antecedent keeps its verdict for every later split that reaches it.
    # A set of two or more items gets its gate state by one join of its
    # parent's kept state with its last item's kept state, so a set gated
    # twice would repeat a pair; the joined states are kept alive, so no
    # id is reused.  At debug level the safety report of an unsafe
    # antecedent is made at most once per set: the run keeps one body per
    # set, kept alive here too, so its identity names the set.  No other
    # gate report is made; a frequent query's decl is its plain query,
    # built once, and passes the single-query gates.
    bias = load_bias(pool_bias(head), tv_schema)
    joined, kept = collections.Counter(), []
    join = GateState.joined

    def counting_joins(state, other):
        joined[id(state), id(other)] += 1
        kept.append((state, other))
        return join(state, other)

    reported = collections.Counter()

    def counting_reports(body):
        reported[id(body)] += 1
        kept.append(body)
        return check_safe(body)

    monkeypatch.setattr(GateState, "joined", counting_joins)
    monkeypatch.setattr(mining, "check_safe", counting_reports)
    caplog.set_level(logging.DEBUG, logger="ermine")
    result = mine(tv, bias, Fraction(1, 100), Fraction(1, 10**9), prune=prune)
    monkeypatch.undo()
    assert result.rules
    assert len(joined) > 400
    assert max(joined.values()) == 1
    assert reported
    assert max(reported.values()) == 1
    for fq in result.frequent:
        decl = fq.candidate.decl
        assert fq.candidate.decl is decl
        assert checked_query(tv, decl).variables == head


def test_rules_with_one_mask_share_its_text(tv_schema, tv):
    # The run keeps one conjunction per signed set, and distinct sets
    # have distinct conjunctions, so two rules have the same antecedent
    # (or consequent) mask just when they carry the same body object.
    bias = load_bias(pool_bias(("P",)), tv_schema)
    result = mine(tv, bias, Fraction(1, 100), Fraction(1, 10**9))
    for side in ("antecedent", "consequent"):
        texts = collections.defaultdict(list)
        for rule in result.rules:
            body = rule.antecedent.body if side == "antecedent" else rule.consequent
            texts[id(body)].append(getattr(rule, f"{side}_text"))
        shared = [ts for ts in texts.values() if len(ts) > 1 and " AND " in ts[0]]
        assert len(shared) > 20
        for first, *rest in texts.values():
            assert all(text is first for text in rest)


@pytest.mark.parametrize("head", sorted(strategies.MINING_POOLS))
def test_unsafe_antecedents_build_no_error_below_debug(monkeypatch, caplog, tv_schema, tv, head):
    # The error is built only for its debug message.  Half the splits'
    # confidences fall below the floor, which is compared as integers.
    bias = load_bias(pool_bias(head), tv_schema)
    built = []
    init = UnsafeQueryError.__init__

    def counting(self, report):
        built.append(report)
        init(self, report)

    monkeypatch.setattr(UnsafeQueryError, "__init__", counting)
    for level in (logging.DEBUG, logging.WARNING):
        caplog.set_level(level, logger="ermine")
        built.clear()
        result = mine(tv, bias, Fraction(1, 100), HALF)
        assert bool(built) == (level == logging.DEBUG)
    monkeypatch.undo()
    scratch = split_rules_from_scratch(tv, result.frequent)
    kept = [r for r in scratch if r[2] >= HALF]
    assert result.rules and len(kept) < len(scratch)
    assert [(r.text(), r.support, r.confidence) for r in result.rules] == kept


def test_zero_count_antecedent_is_logged_and_dropped(monkeypatch, caplog, programs_bias, tv):
    result = mine_frequent(tv, programs_bias, QUARTER)
    count = _Run.count
    # Every one-item antecedent reads as answerless.
    monkeypatch.setattr(
        _Run, "count", lambda run, mask: 0 if mask.bit_count() == 1 else count(run, mask)
    )
    caplog.set_level(logging.DEBUG, logger="ermine")
    assert mine_rules(tv, result.frequent, Fraction(0)) == ()
    assert "has no result tuples" in caplog.text


def mine_cli_cases(test):
    """Run a test on ``bias_mixed`` and both ``MINING_POOLS``, each pruned
    and with ``--no-prune``."""
    test = pytest.mark.parametrize(
        "bias",
        ["bias_mixed", *sorted(strategies.MINING_POOLS)],
        ids=lambda bias: bias if isinstance(bias, str) else "pool-" + "-".join(bias),
    )(test)
    return pytest.mark.parametrize(
        "prune", [[], ["--no-prune"]], ids=["pruned", "no-prune"]
    )(test)


def mine_cli(capsys, tmp_path, bias, prune):
    """``ermine mine`` at the default log level with ``--csv`` on a fixture
    bias or a ``MINING_POOLS`` pool; checks that rules were printed and
    written."""
    if isinstance(bias, tuple):
        path = tmp_path / "bias.json"
        path.write_text(json.dumps(pool_bias(bias)), encoding="utf-8")
    else:
        path = TV_DIR / f"{bias}.json"
    out_csv = tmp_path / "rules.csv"
    code = main(
        [
            "--schema", str(TV_DIR / "schema.json"),
            "--data", str(TV_DIR / "data"),
            "mine",
            "--bias", str(path),
            "--min-support", "1/100",
            "--min-confidence", "1/100",
            "--csv", str(out_csv),
            *prune,
        ]
    )
    assert code == 0
    assert " -> " in capsys.readouterr().out
    assert len(out_csv.read_text(encoding="utf-8").splitlines()) > 1


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` in every ermine module that imported it."""
    for name, module in list(sys.modules.items()):
        if name == "ermine" or name.startswith("ermine."):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, replacement)


@mine_cli_cases
def test_mine_renders_each_formula_once(monkeypatch, capsys, tmp_path, bias, prune):
    # Only outermost calls count; the rendered formulas are kept alive,
    # so no id is reused.
    rendered = collections.Counter()
    kept = []
    depth = 0

    def counting(f):
        nonlocal depth
        if not depth:
            rendered[id(f)] += 1
            kept.append(f)
        depth += 1
        try:
            return to_text(f)
        finally:
            depth -= 1

    patch_everywhere(monkeypatch, to_text, counting)
    mine_cli(capsys, tmp_path, bias, prune)
    monkeypatch.undo()
    assert rendered and max(rendered.values()) == 1


@mine_cli_cases
def test_mine_builds_no_gate_report_below_debug(monkeypatch, capsys, tmp_path, bias, prune):
    # Drop reasons come from the carried gate states; nothing printed or
    # written needs a full safety, entity or validity report.
    calls = []

    def counting(*args):
        calls.append(args)
        return gate_reports(*args)

    patch_everywhere(monkeypatch, gate_reports, counting)
    mine_cli(capsys, tmp_path, bias, prune)
    monkeypatch.undo()
    assert calls == []
