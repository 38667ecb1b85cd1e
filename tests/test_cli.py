"""End-to-end command line tests driving ermine.cli.main."""

import csv
import json
import logging
import os
import shutil
import subprocess
import sys

import pytest

from cli_runs import run_commands
from conftest import BASKET_DIR, TV_DIR
from ermine import cli
from ermine.cli import REPL_HELP, _repl_line, build_arg_parser, main
from ermine.parser import MAX_NESTING, MAX_SPLICED_NODES
from test_bitsets import load_generator
from test_metamorphic import MINE_DATA_BIAS

SCHEMA = str(TV_DIR / "schema.json")
DATA = str(TV_DIR / "data")
QUERIES = str(TV_DIR / "queries.erq")
BIAS = str(TV_DIR / "bias_programs.json")

BASE = ["--schema", SCHEMA, "--data", DATA, "--queries", QUERIES]

F1_TEXT = "EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V >= 10"
F2_TEXT = "EXISTS SN. EXISTS V. EXISTS S. WeekendTV(P, SN, V, S) AND V >= 10"

MINE_STDOUT = f"""\
level 1: 2 candidates, 2 frequent
level 2: 3 candidates, 3 frequent
frequent queries (min support 1/4):
  q(P) := {F1_TEXT}  [frequency 2/2 = 1]
  q(P) := {F2_TEXT}  [frequency 2/4 = 1/2]
  q(P) := ({F1_TEXT}) AND ({F2_TEXT})  [frequency 1/4 = 1/4]
  q(P) := ({F1_TEXT}) AND NOT ({F2_TEXT})  [frequency 1/4 = 1/4]
  q(P) := NOT ({F1_TEXT}) AND ({F2_TEXT})  [frequency 1/4 = 1/4]
rules (min confidence 1/2):
  {F1_TEXT} -> {F2_TEXT}  [support 1/4, confidence 1/2]
  {F2_TEXT} -> {F1_TEXT}  [support 1/4, confidence 1/2]
  {F1_TEXT} -> NOT ({F2_TEXT})  [support 1/4, confidence 1/2]
  {F2_TEXT} -> NOT ({F1_TEXT})  [support 1/4, confidence 1/2]
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run(capsys, *BASE, "validate")
    assert code == 0
    assert "OK" in out
    assert "entity tables: TV-Program, TV-Station" in out
    assert "queries: F1, F2, G1, G2" in out


def test_eval_named_query(capsys):
    code, out, _ = run(capsys, *BASE, "eval", "F1")
    assert code == 0
    assert out == "P\nGilmore\nHockey Night\n"


def test_eval_is_byte_stable(capsys):
    first = run(capsys, *BASE, "eval", "F2")
    second = run(capsys, *BASE, "eval", "F2")
    assert first == second
    assert first[1] == "P\nHockey Night\nSimpsons\n"


def test_eval_inline_declaration(capsys):
    code, out, _ = run(capsys, *BASE, "eval", "q(P) := F1 AND F2")
    assert code == 0
    assert out == "P\nHockey Night\n"


@pytest.mark.parametrize("program, printed", [("Gilmore", "true\n"), ("Nobody", "false\n")])
def test_eval_of_a_headless_query_prints_true_or_false(capsys, program, printed):
    query = f'q() := EXISTS P. TV-Program(P) AND P = "{program}"'
    assert run(capsys, *BASE, "eval", query) == (0, printed, "")


def test_check_passing_query(capsys):
    code, out, _ = run(capsys, *BASE, "check", "F1")
    assert code == 0
    assert "safety: PASS" in out
    assert "entity query: yes (entity variables: P)" in out
    assert "valid for (P): yes" in out


def test_check_unsafe_query(capsys):
    code, out, _ = run(capsys, *BASE, "check", "q(P) := NOT F1")
    assert code == 1
    assert "safety: FAIL" in out
    assert "R3-unlimited-var" in out
    assert "entity query: skipped (not safe)" in out
    assert "validity: skipped (not safe)" in out


def test_check_safe_but_not_entity(capsys):
    code, out, _ = run(
        capsys,
        *BASE,
        "check",
        'v(V) := EXISTS S. EXISTS SN. WeekdayTV("Gilmore", SN, V, S)',
    )
    assert code == 1
    assert "safety: PASS" in out
    assert "entity query: no" in out
    assert "  V: " in out


def test_check_entity_but_not_valid(capsys):
    code, out, _ = run(capsys, *BASE, "check", "q(X, Y) := TV-Program(X) AND X = Y")
    assert code == 1
    assert out.endswith(
        "valid for (X, Y): no (first failing subformula: TV-Program(X) AND X = Y)\n"
    )


DEEP = 10_000
DEEP_BODIES = {
    "parentheses": "(" * DEEP + "TV-Program(P)" + ")" * DEEP,
    "exists": "EXISTS X. " * DEEP + "TV-Program(P)",
    "not": "NOT " * DEEP + "TV-Program(P)",
    "or": " OR ".join(["TV-Program(P)"] * DEEP),
}
NESTING_ERROR = f"error: formula nests deeper than {MAX_NESTING} levels"


@pytest.mark.parametrize("command", ["check", "eval", "freq"])
@pytest.mark.parametrize("shape", DEEP_BODIES)
def test_deep_query_is_a_parse_error(capsys, command, shape):
    code, out, err = run(capsys, *BASE, command, f"q(P) := {DEEP_BODIES[shape]}")
    assert code == 1
    assert out == ""
    assert err.startswith(NESTING_ERROR)


@pytest.mark.parametrize("shape", DEEP_BODIES)
def test_deep_bias_item_is_a_parse_error(capsys, tmp_path, shape):
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps({"head": ["P"], "items": [DEEP_BODIES[shape]]}))
    code, _, err = run(
        capsys, *BASE, "mine", "--bias", str(bias),
        "--min-support", "1/4", "--min-confidence", "1/2",
    )
    assert code == 1
    assert err.startswith(NESTING_ERROR)


@pytest.mark.parametrize(
    "body",
    [
        "(" * MAX_NESTING + "TV-Program(P)" + ")" * MAX_NESTING,
        "EXISTS X. " * MAX_NESTING + "TV-Program(P)",
        "TV-Program(P) AND NOT (" * (MAX_NESTING // 2)
        + "TV-Program(P)"
        + ")" * (MAX_NESTING // 2),
        " OR ".join(["TV-Program(P)"] * (MAX_NESTING + 1)),
    ],
)
def test_nesting_at_the_limit_still_evaluates(capsys, body):
    code, out, _ = run(capsys, *BASE, "eval", f"q(P) := {body}")
    assert code == 0
    assert out == "P\nDaily Show\nGilmore\nHockey Night\nSimpsons\n"
    code, _, err = run(capsys, *BASE, "eval", f"q(P) := EXISTS Y. {body}")
    assert code == 1
    assert err.startswith(NESTING_ERROR)


def test_queries_that_splice_past_the_bound_are_a_parse_error(capsys, tmp_path):
    # Line k + 1 names line k's query twice, so its splices double: they
    # add 2**k + 2 formula nodes (an And of 2**(k - 1) atoms, twice).
    lines = ["q0(P) := TV-Program(P)"]
    lines += [f"q{k}(P) := q{k - 1} AND q{k - 1}" for k in range(1, 17)]
    past = next(k for k in range(1, 17) if 2**k + 2 > MAX_SPLICED_NODES)
    path = tmp_path / "doubling.erq"
    argv = ["--schema", SCHEMA, "--data", DATA, "--queries", str(path), "validate"]
    path.write_text("\n".join(lines[:past]) + "\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith(f"queries: {', '.join(f'q{k}' for k in range(past))}\nOK\n")
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: line {past + 1}: splices add more than {MAX_SPLICED_NODES} formula "
        f"nodes (at offset {lines[past].rindex(f'q{past - 1}')})\n"
    )


def test_domain_of_named_query(capsys):
    code, out, _ = run(capsys, *BASE, "domain", "F1")
    assert code == 0
    assert out == "P\nGilmore\nHockey Night\n"


def test_domain_covers_all_programs(capsys):
    code, out, _ = run(capsys, *BASE, "domain", "q(P) := F1 AND F2")
    assert code == 0
    assert out == "P\nDaily Show\nGilmore\nHockey Night\nSimpsons\n"


def test_domain_vars_subset(capsys):
    code, out, _ = run(capsys, *BASE, "domain", "G1", "--vars", "SN")
    assert code == 0
    assert out == "SN\nCBC\nCBS\nGlobal\n"


def test_domain_vars_must_come_from_head(capsys):
    code, _, err = run(capsys, *BASE, "domain", "G1", "--vars", "Z")
    assert code == 1
    assert "outside the query head" in err


@pytest.mark.parametrize(
    "names, message",
    [
        ("P,P", "--vars repeats 'P'"),
        ("SN, P,SN,P", "--vars repeats 'SN', 'P'"),
        ("P,", "--vars names outside the query head: ''"),
        ("P,Z,", "--vars names outside the query head: 'Z', ''"),
    ],
)
def test_domain_vars_repeated_or_empty(capsys, names, message):
    # Like a repeated head variable in a declaration, a repeated --vars
    # name is an error; names are quoted, so an empty one shows.
    code, out, err = run(capsys, *BASE, "domain", "G1", "--vars", names)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_domain_of_a_headless_query_fails(capsys):
    code, out, err = run(capsys, *BASE, "domain", "q() := EXISTS P. TV-Program(P)")
    assert code == 1
    assert out == ""
    assert err == "error: domain needs a query with head variables\n"


def test_domain_explain_goes_to_stderr(capsys):
    code, out, err = run(capsys, *BASE, "domain", "F1", "--explain")
    assert code == 0
    assert out == "P\nGilmore\nHockey Night\n"
    assert "atom-projection" in err


# The equality cover's trees, recorded before the cover rule moved into
# the reference domain's conjunction step.  In the first the comparisons
# equate both head variables and the remaining conjuncts form one node;
# in the second two constants cover P and one conjunct remains.
COVER_TREES = {
    'q(P, SN) := P = "Gilmore" AND SN = "CBC" AND TV-Program(P)'
    ' AND (EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)) AND P != "Hockey Night"': (
        "P,SN\nGilmore,CBC\nGilmore,CBS\nGilmore,Global\nHockey Night,CBC\n",
        """\
conjunction-equality-cover: P = "Gilmore" AND SN = "CBC" AND TV-Program(P) AND \
(EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)) AND P != "Hockey Night" -> \
{(Gilmore, CBC), (Gilmore, CBS), (Gilmore, Global), (Hockey Night, CBC)}
  conjunction-union: TV-Program(P) AND (EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)) \
AND P != "Hockey Night" -> {(Gilmore, CBS), (Gilmore, Global), (Hockey Night, CBC)}
    atom-missing-variable: TV-Program(P) -> {}
    quantifier-transparent: EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) -> \
{(Gilmore, CBS), (Gilmore, Global), (Hockey Night, CBC)}
      quantifier-transparent: EXISTS S. WeekdayTV(P, SN, V, S) -> \
{(Gilmore, CBS), (Gilmore, Global), (Hockey Night, CBC)}
        atom-projection: WeekdayTV(P, SN, V, S) -> \
{(Gilmore, CBS), (Gilmore, Global), (Hockey Night, CBC)}
    comparison-empty: P != "Hockey Night" -> {}
""",
    ),
    'q(P) := P = "Gilmore" AND P = "Simpsons"'
    " AND (EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S))": (
        "P\nGilmore\nHockey Night\nSimpsons\n",
        """\
conjunction-equality-cover: P = "Gilmore" AND P = "Simpsons" AND \
(EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)) -> {(Gilmore), (Hockey Night), (Simpsons)}
  quantifier-transparent: EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) -> \
{(Gilmore), (Hockey Night)}
    quantifier-transparent: EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) -> \
{(Gilmore), (Hockey Night)}
      quantifier-transparent: EXISTS S. WeekdayTV(P, SN, V, S) -> {(Gilmore), (Hockey Night)}
        atom-projection: WeekdayTV(P, SN, V, S) -> {(Gilmore), (Hockey Night)}
""",
    ),
}


@pytest.mark.parametrize("query", sorted(COVER_TREES))
def test_domain_explain_pins_the_equality_cover_tree(capsys, query):
    code, out, err = run(capsys, *BASE, "domain", query, "--explain")
    assert code == 0
    assert (out, err) == COVER_TREES[query]


def test_freq_certain_query(capsys):
    code, out, _ = run(capsys, *BASE, "freq", "F1")
    assert code == 0
    assert out == "frequency: 2/2 = 1 (1.000000)\n"


def test_freq_pair_conjunction(capsys):
    code, out, _ = run(capsys, *BASE, "freq", "q(P, SN) := G1 AND G2")
    assert code == 0
    assert out == "frequency: 1/5 = 1/5 (0.200000)\n"


def test_rule_support_and_confidence(capsys):
    code, out, _ = run(capsys, *BASE, "rule", "F1", "F2")
    assert code == 0
    assert "rule: F1 -> F2" in out
    assert "support: 1/4 = 1/4 (0.250000)" in out
    assert "confidence: 1/2 (0.500000)" in out


EMPTY_ANTECEDENT = (
    "a(P) := EXISTS SN. EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S) AND V > 100"
)


@pytest.mark.parametrize(
    "antecedent, consequent, message",
    [
        (EMPTY_ANTECEDENT, "F2", "has no result tuples"),
        # F1 AND NOT F2 passes every gate; NOT F2 alone is not safe.
        (
            "a(P) := NOT F2",
            "F1",
            "error: query is not safe (R3-unlimited-var, R4-bad-negation)",
        ),
        ("F1", "G1", "consequent variables not in the antecedent head: SN"),
    ],
    ids=["empty-antecedent", "unsafe-antecedent", "stray-consequent-variable"],
)
def test_rule_errors(capsys, antecedent, consequent, message):
    code, out, err = run(capsys, *BASE, "rule", antecedent, consequent)
    assert code == 1
    assert out == ""
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("blanks", ["", "   "])
def test_error_offsets_count_from_the_argument_as_typed(capsys, blanks):
    # 'Nope' starts at offset 8 of the declaration, after any leading blanks.
    code, out, err = run(capsys, *BASE, "eval", f"{blanks}q(P) := Nope(P)")
    assert code == 1
    assert out == ""
    assert err == f"error: unknown predicate 'Nope' (at offset {8 + len(blanks)})\n"


def test_mine_transcript(capsys):
    code, out, _ = run(
        capsys,
        *BASE,
        "mine",
        "--bias", BIAS,
        "--min-support", "1/4",
        "--min-confidence", "1/2",
    )
    assert code == 0
    assert out == MINE_STDOUT


def test_mine_no_prune_matches(capsys):
    args = (*BASE, "mine", "--bias", BIAS,
            "--min-support", "1/4", "--min-confidence", "1/2")
    with_prune = run(capsys, *args)
    without = run(capsys, *args, "--no-prune")
    assert with_prune == without
    # Extending every evaluated candidate can build more candidates than
    # extending the frequent ones; the frequent queries and rules match.
    args = (*BASE, "mine", "--bias", BIAS,
            "--min-support", "1", "--min-confidence", "1/2")
    with_prune = run(capsys, *args)
    without = run(capsys, *args, "--no-prune")
    levels = [
        [line for line in out.splitlines() if line.startswith("level ")]
        for _, out, _ in (with_prune, without)
    ]
    assert levels[0][1] == "level 2: 2 candidates, 0 frequent"
    assert levels[1][1] == "level 2: 3 candidates, 0 frequent"

    def results(outcome):
        code, out, err = outcome
        return code, out.split("frequent queries")[1], err

    assert results(with_prune) == results(without)
    assert "[frequency 2/2 = 1]" in results(with_prune)[1]


@pytest.mark.parametrize("prune", [[], ["--no-prune"]], ids=["pruned", "no-prune"])
@pytest.mark.parametrize(
    "bias", ["bias_programs.json", "bias_pairs.json", "bias_mixed.json"]
)
def test_mine_output_does_not_depend_on_the_hash_seed(bias, prune):
    args = [sys.executable, "-m", "ermine", *BASE, "mine",
            "--bias", str(TV_DIR / bias),
            "--min-support", "1/100", "--min-confidence", "1/100", *prune]
    src = str(TV_DIR.parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(args, env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert b"frequent queries" in outputs[0]


def test_first_dangling_reference_does_not_depend_on_the_hash_seed(tmp_path):
    # Three programs no TV-Program row names, appended out of name order:
    # the first appended is reported, under every hash seed.
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    with open(data / "WeekdayTV.csv", "a", encoding="utf-8") as fh:
        for name in ("Ghost2", "Ghost3", "Ghost1"):
            fh.write(f"{name},CBS,1,Avon\n")
    args = [sys.executable, "-m", "ermine", "--schema", SCHEMA, "--data", str(data), "validate"]
    src = str(TV_DIR.parent.parent / "src")
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(args, env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr == (
            "error: WeekdayTV.TV-Program value 'Ghost2' has no matching "
            "TV-Program.Prog-Name row\n"
        )


def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(tmp_path):
    # The reader takes the header of some 15,000 rows and closes the pipe,
    # so a later write fails: that is no bad input file, and the command
    # exits 1 with nothing on stderr.
    gen = load_generator()
    data = tmp_path / "data"
    gen.write_csvs(gen.generate(1, 5000, 50), str(data))
    args = [sys.executable, "-m", "ermine", "--schema", SCHEMA, "--data", str(data),
            "eval", "q(P, SN) := EXISTS V. EXISTS S. WeekdayTV(P, SN, V, S)"]
    src = str(TV_DIR.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"P,SN\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
    assert err == b""


def test_a_reader_that_closes_the_pipe_mid_mine_ends_the_command_quietly(tmp_path):
    # The mine-data bias on 100 generated programs prints more than a pipe
    # buffer holds, so the transcript is still being written when the
    # reader has taken the first line and gone.  stdout is buffered, as
    # by default.
    mine_into_a_pipe_closed_after_one_line(tmp_path, unbuffered=False)


def test_a_reader_that_closes_the_pipe_mid_mine_ends_an_unbuffered_command_quietly(tmp_path):
    # Unbuffered, the whole transcript is one chunk written to the raw
    # file, whose write the closed pipe cuts short; the rest of the chunk
    # is still written, so the cut is reported and the exit code is 1.
    mine_into_a_pipe_closed_after_one_line(tmp_path, unbuffered=True)


def mine_into_a_pipe_closed_after_one_line(tmp_path, unbuffered):
    """Run ``mine`` on the mine-data bias over 100 generated programs,
    read its first line and close the pipe: exit 1, nothing on stderr."""
    gen = load_generator()
    data = tmp_path / "data"
    gen.write_csvs(gen.generate(3, 100, 20), str(data))
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps(MINE_DATA_BIAS), encoding="utf-8")
    args = [sys.executable, "-m", "ermine", "--schema", SCHEMA, "--data", str(data),
            "mine", "--bias", str(bias), "--min-support", "1/10", "--min-confidence", "1/2"]
    src = str(TV_DIR.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run(args, env=env, capture_output=True, check=True)
    assert len(done.stdout) > 2 * 65536
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"level 1: ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
    assert err == b""


def reused_parser_sequences(rules_csv):
    """Command lines run in turn, each pair once with a fresh parser and
    once with the parser the first call left behind."""
    mine = [*BASE, "mine", "--bias", str(TV_DIR / "bias_mixed.json"),
            "--min-support", "1/4", "--min-confidence", "1/2"]
    return {
        "csv-then-plain": [[*mine, "--no-prune", "--max-level", "1", "--csv", rules_csv], mine],
        "debug-then-default": [["--log-level", "debug", *mine], mine],
        # --min-support and --min-confidence are missing: argparse exits 2.
        "usage-error-then-valid": [mine[:-4], mine],
    }


def test_the_process_has_one_argument_parser():
    assert build_arg_parser() is build_arg_parser()


@pytest.mark.parametrize("sequence", sorted(reused_parser_sequences("")))
def test_main_in_one_process_prints_what_fresh_processes_print(monkeypatch, tmp_path, sequence):
    # argparse wraps usage lines to the terminal's width; fix it for both.
    monkeypatch.setenv("COLUMNS", "80")
    rules_csv = tmp_path / "rules.csv"
    argvs = reused_parser_sequences(str(rules_csv))[sequence]
    in_process = run_commands(argvs)
    written = rules_csv.read_bytes() if rules_csv.exists() else None
    src = str(TV_DIR.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in argvs:
        done = subprocess.run(
            [sys.executable, "-m", "ermine", *argv],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )
        fresh.append([done.returncode, done.stdout, done.stderr])
    assert [list(r) for r in in_process] == fresh
    assert fresh[-1][0] == 0 and "rules (min confidence 1/2):" in fresh[-1][1]
    if sequence == "usage-error-then-valid":
        assert fresh[0][0] == 2 and "error: the following arguments are required" in fresh[0][2]
    if sequence == "debug-then-default":
        assert "DEBUG ermine.mining" in fresh[0][2] and fresh[1][2] == ""
    if written is not None:
        assert rules_csv.read_bytes() == written


def test_mine_writes_rule_csv(capsys, tmp_path):
    out_csv = tmp_path / "rules.csv"
    code, _, _ = run(
        capsys,
        *BASE,
        "mine",
        "--bias", BIAS,
        "--min-support", "1/4",
        "--min-confidence", "1/2",
        "--csv", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["antecedent", "consequent", "support", "confidence"]
    assert rows[1] == [F1_TEXT, F2_TEXT, "1/4", "1/2"]
    assert len(rows) == 5


def test_mine_mixed_bias_matches_the_recorded_output(capsys, tmp_path):
    # Bare comparisons, an item that normalizes to a conjunction and a NOT
    # item beside plain items; recorded before the miner counted every
    # candidate by set algebra.
    out_csv = tmp_path / "rules.csv"
    code, out, _ = run(
        capsys,
        *BASE,
        "mine",
        "--bias", str(TV_DIR / "bias_mixed.json"),
        "--min-support", "1/4",
        "--min-confidence", "1/2",
        "--csv", str(out_csv),
    )
    assert code == 0
    assert out.encode("utf-8") == (TV_DIR / "mine_mixed.stdout").read_bytes()
    assert out_csv.read_bytes() == (TV_DIR / "mine_mixed.csv").read_bytes()


def test_mine_writes_stdout_in_chunks(monkeypatch):
    # At three lines per write, the recorded transcript arrives in
    # ceil(lines / 3) writes of whole lines.
    writes = []

    class Stdout:
        write = writes.append

        def flush(self):
            pass

    monkeypatch.setattr(cli, "MINE_CHUNK_LINES", 3)
    monkeypatch.setattr(sys, "stdout", Stdout())
    code = main([*BASE, "mine", "--bias", str(TV_DIR / "bias_mixed.json"),
                 "--min-support", "1/4", "--min-confidence", "1/2"])
    monkeypatch.undo()
    recorded = (TV_DIR / "mine_mixed.stdout").read_text(encoding="utf-8")
    assert code == 0
    assert "".join(writes) == recorded
    assert len(writes) == -(-recorded.count("\n") // 3)
    assert all(chunk.endswith("\n") and chunk.count("\n") <= 3 for chunk in writes)


def test_mine_mixed_bias_debug_log_matches_the_recorded_log(capsys):
    # Every drop reason, including the rule lines of unsafe antecedents,
    # recorded before rule antecedents read the candidates' kept verdicts.
    code, out, err = run(
        capsys,
        "--log-level", "debug",
        *BASE,
        "mine",
        "--bias", str(TV_DIR / "bias_mixed.json"),
        "--min-support", "1/4",
        "--min-confidence", "1/2",
    )
    assert code == 0
    assert out.encode("utf-8") == (TV_DIR / "mine_mixed.stdout").read_bytes()
    assert err.encode("utf-8") == (TV_DIR / "mine_mixed.debug").read_bytes()


@pytest.mark.parametrize("bias", ["cover", "mixed"])
def test_mine_at_confidence_0_matches_the_recorded_output(capsys, tmp_path, bias):
    # Every split at support 1/100, recorded before lines were formatted
    # from counts.  The cover bias prints frequencies "= 1", supports "1"
    # and confidences "1", whose reduced denominator is 1.
    out_csv = tmp_path / "rules.csv"
    code, out, _ = run(
        capsys,
        *BASE,
        "mine",
        "--bias", str(TV_DIR / f"bias_{bias}.json"),
        "--min-support", "1/100",
        "--min-confidence", "0",
        "--csv", str(out_csv),
    )
    assert code == 0
    assert out.encode("utf-8") == (TV_DIR / f"mine_{bias}_all.stdout").read_bytes()
    assert out_csv.read_bytes() == (TV_DIR / f"mine_{bias}_all.csv").read_bytes()


def test_mine_cover_bias_matches_the_recorded_output(capsys, tmp_path):
    # A (P, SN) head with an item whose comparisons equate both head
    # variables with constants, comparison items, and negation; recorded
    # before the miner took every reference domain from bits.
    bias = str(TV_DIR / "bias_cover.json")
    argv = (*BASE, "mine", "--bias", bias, "--min-support", "1/4", "--min-confidence", "1/2")
    out_csv = tmp_path / "rules.csv"
    code, out, _ = run(capsys, *argv, "--csv", str(out_csv))
    assert code == 0
    assert out.encode("utf-8") == (TV_DIR / "mine_cover.stdout").read_bytes()
    assert out_csv.read_bytes() == (TV_DIR / "mine_cover.csv").read_bytes()
    code, out, err = run(capsys, "--log-level", "debug", *argv)
    assert code == 0
    assert out.encode("utf-8") == (TV_DIR / "mine_cover.stdout").read_bytes()
    assert err.encode("utf-8") == (TV_DIR / "mine_cover.debug").read_bytes()


def test_mine_nothing_found(capsys):
    code, out, _ = run(
        capsys,
        *BASE,
        "mine",
        "--bias", BIAS,
        "--min-support", "1",
        "--min-confidence", "1",
    )
    assert code == 0
    assert "  (none)" in out


def test_mine_rejects_junk_threshold(capsys):
    code, _, err = run(
        capsys,
        *BASE,
        "mine",
        "--bias", BIAS,
        "--min-support", "lots",
        "--min-confidence", "1/2",
    )
    assert code == 1
    assert "--min-support" in err


@pytest.mark.parametrize("threshold", ["0", "2", "-1/2"])
def test_mine_rejects_min_support_out_of_range(capsys, threshold):
    code, out, err = run(
        capsys,
        *BASE,
        "mine",
        "--bias", BIAS,
        f"--min-support={threshold}",
        "--min-confidence", "1/2",
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --min-support must be in (0, 1], got {threshold!r}\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--min-confidence", "2", "must be in [0, 1], got '2'"),
        ("--min-confidence", "-1", "must be in [0, 1], got '-1'"),
        ("--min-confidence", "3/2", "must be in [0, 1], got '3/2'"),
        ("--max-level", "0", "must be at least 1, got 0"),
        ("--max-level", "-3", "must be at least 1, got -3"),
    ],
)
def test_mine_rejects_other_thresholds_out_of_range(capsys, option, value, message):
    given = {"--min-support": "1/4", "--min-confidence": "1/2", option: value}
    code, out, err = run(
        capsys, *BASE, "mine", "--bias", BIAS, *(f"{k}={v}" for k, v in given.items())
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {option} {message}\n"


# (id, option, value, exit code) of bias, threshold and load errors;
# "{tmp}" is the test's directory of broken inputs.
MINE_ERRORS = [
    ("missing-bias", "--bias", "{tmp}/no-such-bias.json", 2),
    ("bias-not-json", "--bias", str(TV_DIR / "data" / "WeekdayTV.csv"), 2),
    ("bias-not-a-query", "--bias", "{tmp}/bad-pattern.json", 1),
    ("bias-bad-head", "--bias", "{tmp}/bad-head.json", 2),
    ("support-junk", "--min-support", "lots", 1),
    ("support-zero", "--min-support", "0", 1),
    ("confidence-above-one", "--min-confidence", "3/2", 1),
    ("max-level-zero", "--max-level", "0", 1),
    ("missing-schema", "--schema", "{tmp}/no-such-schema.json", 2),
    ("missing-data", "--data", "{tmp}/no-such-data", 2),
    ("data-bad-cell", "--data", "{tmp}/bad-cell", 2),
]


@pytest.mark.parametrize(
    "option, value, code", [case[1:] for case in MINE_ERRORS], ids=[case[0] for case in MINE_ERRORS]
)
def test_mine_errors_leave_stdout_empty(capsys, tmp_path, option, value, code):
    # Every bias, threshold and load error is raised before the first
    # line of the transcript is written.
    (tmp_path / "bad-pattern.json").write_text('{"head": ["P"], "items": ["Nope(P)"]}')
    (tmp_path / "bad-head.json").write_text('{"head": ["p"], "items": ["TV-Program(P)"]}')
    shutil.copytree(DATA, tmp_path / "bad-cell")
    listings = tmp_path / "bad-cell" / "WeekdayTV.csv"
    header, first, *rest = listings.read_text(encoding="utf-8").splitlines(True)
    listings.write_text(header + first.replace(",10,", ",1_0,") + "".join(rest), encoding="utf-8")
    options = {
        "--schema": SCHEMA, "--data": DATA, "--bias": BIAS,
        "--min-support": "1/4", "--min-confidence": "1/2",
        option: value.format(tmp=tmp_path),
    }
    argv = [f"--schema={options.pop('--schema')}", f"--data={options.pop('--data')}", "mine"]
    got, out, err = run(capsys, *argv, *(f"{k}={v}" for k, v in options.items()))
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_mine_accepts_min_confidence_at_the_bounds(capsys, threshold):
    code, out, err = run(
        capsys,
        *BASE,
        "mine",
        "--bias", BIAS,
        "--min-support", "1/4",
        "--min-confidence", threshold,
        "--max-level", "1",
    )
    assert (code, err) == (0, "")
    assert out.startswith("level 1: ")


@pytest.mark.parametrize("prune", [[], ["--no-prune"]], ids=["pruned", "no-prune"])
@pytest.mark.parametrize("bias", ["bias_programs.json", "bias_pairs.json"])
def test_debug_log_leaves_mine_stdout_alone(capsys, bias, prune):
    argv = [
        *BASE, "mine", "--bias", str(TV_DIR / bias),
        "--min-support", "1/4", "--min-confidence", "1/2", *prune,
    ]
    code, plain, plain_err = run(capsys, *argv)
    debug_code, debug, err = run(capsys, "--log-level", "debug", *argv)
    assert (code, debug_code) == (0, 0)
    assert debug == plain
    assert plain_err == ""
    if bias == "bias_programs.json":
        # A lone negated item leaves the head unlimited.
        assert (
            "DEBUG ermine.mining: level 1: dropping ((0, True),): "
            "unsafe (R3-unlimited-var)\n"
        ) in err
    logger = logging.getLogger("ermine")
    assert logger.handlers == [] and logger.level == logging.NOTSET


def test_missing_schema_flag(capsys):
    code, _, err = run(capsys, "--data", DATA, "eval", "F1")
    assert code == 2
    assert "--schema is required" in err


def test_missing_data_flag(capsys):
    code, out, err = run(capsys, "--schema", SCHEMA, "eval", "F1")
    assert (code, out, err) == (2, "", "error: --data is required\n")


def test_reference_to_an_unknown_field(capsys, tmp_path):
    schema = tmp_path / "schema.json"
    text = (TV_DIR / "schema.json").read_text(encoding="utf-8")
    schema.write_text(text.replace('"TV-Program.Prog-Name"', '"TV-Program.nope"'), encoding="utf-8")
    code, out, err = run(capsys, "--schema", str(schema), "--data", DATA, "validate")
    assert (code, out, err) == (2, "", "error: table 'TV-Program' has no field 'nope'\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() converts integers of any length",
)
def test_integers_longer_than_int_converts_are_errors(capsys, tmp_path):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    data = tmp_path / "data"
    data.mkdir()
    for name in os.listdir(DATA):
        text = (TV_DIR / "data" / name).read_text(encoding="utf-8")
        if name == "WeekdayTV.csv":
            text = text.replace(",10,", f",{digits},", 1)
        (data / name).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "--schema", SCHEMA, "--data", str(data), "validate")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {data / 'WeekdayTV.csv'} line ")
    assert err.count("\n") == 1
    code, out, err = run(capsys, *BASE, "eval", f"q(P) := F1 AND 1 < {digits}")
    assert (code, out) == (1, "")
    assert err.startswith("error: integer literal has ")
    assert err.count("\n") == 1


def test_missing_schema_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "--schema", str(tmp_path / "nope.json"), "--data", DATA, "validate"
    )
    assert code == 2
    assert "error:" in err


def test_malformed_schema_file(capsys, tmp_path):
    bad = tmp_path / "schema.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "--schema", str(bad), "--data", DATA, "validate")
    assert code == 2
    assert "not valid JSON" in err


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b"\xff\xfe not text"


@pytest.mark.parametrize(
    "target, content",
    [
        ("schema", DEEP_JSON),
        ("bias", DEEP_JSON),
        ("schema", NOT_UTF8),
        ("bias", NOT_UTF8),
        ("queries", NOT_UTF8),
        ("csv", NOT_UTF8),
        ("csv", b"x" * 200_000),
    ],
    ids=["deep-schema", "deep-bias", "binary-schema", "binary-bias",
         "binary-queries", "binary-csv", "huge-csv-field"],
)
def test_bad_input_file_is_one_error_line(capsys, tmp_path, target, content):
    data = tmp_path / "data"
    data.mkdir()
    for src in (TV_DIR / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    paths = {
        "schema": tmp_path / "schema.json",
        "bias": tmp_path / "bias.json",
        "queries": tmp_path / "queries.erq",
        "csv": data / "WeekendTV.csv",
    }
    paths["schema"].write_bytes((TV_DIR / "schema.json").read_bytes())
    paths["bias"].write_bytes((TV_DIR / "bias_programs.json").read_bytes())
    paths["queries"].write_bytes((TV_DIR / "queries.erq").read_bytes())
    paths[target].write_bytes(content)
    code, out, err = run(
        capsys,
        "--schema", str(paths["schema"]),
        "--data", str(data),
        "--queries", str(paths["queries"]),
        "mine", "--bias", str(paths["bias"]),
        "--min-support", "1/4", "--min-confidence", "1/2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {paths[target]}: not valid ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "target, edit, message",
    [
        ("bias", {"allow_negation": "false"}, "'allow_negation' must be true or false"),
        ("bias", {"items": [{"pattern": "TV-Program(P)", "negatable": "no"}]},
         "'negatable' must be true or false"),
        ("bias", {"max_conjuncts": True}, "'max_conjuncts' must be a positive integer"),
        # As a key, Area would make TV-Station a relationship table.
        ("schema", "false", "TV-Station.Area: 'key' must be true or false"),
    ],
)
def test_non_boolean_flag_is_one_error_line(capsys, tmp_path, target, edit, message):
    bias = json.loads((TV_DIR / "bias_programs.json").read_text())
    schema = json.loads((TV_DIR / "schema.json").read_text())
    if target == "bias":
        bias.update(edit)
    else:
        station = next(t for t in schema["tables"] if t["name"] == "TV-Station")
        station["fields"][1]["key"] = edit
    (tmp_path / "bias.json").write_text(json.dumps(bias))
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    code, out, err = run(
        capsys,
        "--schema", str(tmp_path / "schema.json"),
        "--data", DATA,
        "mine", "--bias", str(tmp_path / "bias.json"),
        "--min-support", "1/4", "--min-confidence", "1/2",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_data_dir_must_match_schema(capsys):
    code, _, err = run(
        capsys, "--schema", SCHEMA, "--data", str(BASKET_DIR / "data"), "validate"
    )
    assert code == 2
    assert "error:" in err


def test_unsafe_eval_fails(capsys):
    code, _, err = run(capsys, *BASE, "eval", "q(P) := NOT F1")
    assert code == 1
    assert "not safe" in err


def test_unknown_query_name(capsys):
    code, _, err = run(capsys, *BASE, "eval", "Zed")
    assert code == 1
    assert "not a registered query name" in err


def test_freq_requires_validity(capsys):
    code, _, err = run(capsys, *BASE, "freq", "q(X, Y) := TV-Program(X) AND X = Y")
    assert code == 1
    assert "not valid for" in err


def test_freq_of_a_headless_query_is_not_valid(capsys):
    code, _, err = run(capsys, *BASE, "freq", "q() := EXISTS P. TV-Program(P)")
    assert code == 1
    assert "error: query is not valid for ()" in err


@pytest.fixture()
def session():
    ns = type(
        "NS", (), {"schema": SCHEMA, "data": DATA, "queries": QUERIES}
    )
    from ermine.cli import load_session

    return load_session(ns)


def test_repl_lines(session, capsys):
    assert _repl_line(session, "help") is False
    assert REPL_HELP in capsys.readouterr().out

    assert _repl_line(session, "names") is False
    assert "F1(P) :=" in capsys.readouterr().out

    assert _repl_line(session, "let H(P) := F1 AND F2") is False
    assert "registered H" in capsys.readouterr().out
    assert "H" in session.registry

    assert _repl_line(session, "eval H") is False
    assert capsys.readouterr().out == "P\nHockey Night\n"

    assert _repl_line(session, "J(P) := F1 OR F2") is False
    assert "registered J" in capsys.readouterr().out

    assert _repl_line(session, "check F1") is False
    assert "safety: PASS" in capsys.readouterr().out

    assert _repl_line(session, "freq F1") is False
    assert "frequency: 2/2 = 1" in capsys.readouterr().out

    assert _repl_line(session, "rule F1 F2") is False
    assert "confidence: 1/2" in capsys.readouterr().out

    assert _repl_line(session, "rule F1") is False
    assert "usage: rule" in capsys.readouterr().out

    assert _repl_line(session, "frobnicate") is False
    assert "unknown command" in capsys.readouterr().out

    assert _repl_line(session, "quit") is True
    assert _repl_line(session, "exit") is True


def test_repl_loop(capsys, monkeypatch):
    lines = iter(["eval F1", "bogus line with spaces", "freq Nope", "", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main([*BASE, "repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Gilmore" in out
    assert "unknown command" in out
    assert "error:" in out  # freq of an unregistered name reports, not crashes


def test_repl_without_queries_lists_none_and_ends_at_end_of_input(capsys, monkeypatch):
    lines = iter(["names"])

    def read(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", read)
    code, out, err = run(capsys, "--schema", SCHEMA, "--data", DATA, "repl")
    assert (code, err) == (0, "")
    assert out == "ermine repl; 'help' lists commands\n(no registered queries)\n\n"
