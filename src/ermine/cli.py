"""Command-line interface.

    ermine --schema schema.json --data DIR [--queries FILE]
           [--log-level {warning,info,debug}] COMMAND ...

Commands: validate, check, eval, domain, freq, rule, mine, repl.  Query
arguments are either a name registered via --queries (or the repl) or a
full declaration ``name(vars) := body``.  Exit codes: 0 on success, 1 on
user errors (bad queries, unsafe formulas, empty domains, failed
checks), 2 on I/O and format errors (missing or malformed files).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import logging
import sys
from dataclasses import dataclass
from fractions import Fraction

from .domains import explain_reference_domain, reference_domain
from .errors import (
    BiasError,
    DataError,
    ErmineError,
    QueryParseError,
    SchemaError,
)
from .evaluator import Relation, evaluate, sorted_rows
from .formulas import QueryDecl, normalize, to_text
from .mining import load_bias_file, mine
from .parser import parse_query, parse_query_file
from .schema import (
    DatabaseInstance,
    Schema,
    entity_fields,
    load_instance_dir,
    load_schema_file,
)
from .stats import ErRule, frequency, prepare_query, rule_statistics


@dataclass
class Session:
    schema: Schema
    instance: DatabaseInstance
    registry: dict[str, QueryDecl]


def load_session(ns) -> Session:
    if not ns.schema:
        raise SchemaError("--schema is required")
    schema = load_schema_file(ns.schema)
    if not ns.data:
        raise DataError("--data is required")
    instance = load_instance_dir(schema, ns.data)
    registry: dict[str, QueryDecl] = {}
    if ns.queries:
        try:
            with open(ns.queries, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{ns.queries}: not valid UTF-8: {exc}") from exc
        registry = parse_query_file(text, schema)
    return Session(schema, instance, registry)


def _resolve_query(session: Session, text: str) -> QueryDecl:
    if ":=" in text:
        return parse_query(text, session.schema, session.registry)
    name = text.strip()
    if name in session.registry:
        return session.registry[name]
    raise QueryParseError(
        f"{name!r} is not a registered query name; pass a declaration "
        f"'name(vars) := body' or use --queries"
    )


def _print_relation(rel: Relation, out) -> None:
    if not rel.columns:
        out.write("true\n" if rel.rows else "false\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rel.columns)
    writer.writerows(sorted_rows(rel))


def _decimal(value: Fraction) -> str:
    return f"{value.numerator / value.denominator:.6f}"


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ErmineError(f"{what} must be a rational like 1/4, got {text!r}") from None


def run_validate(session: Session) -> int:
    schema = session.schema
    inst = session.instance
    entity = [t.name for t in schema.tables if t.is_entity]
    relationship = [t.name for t in schema.tables if not t.is_entity]
    print(
        f"schema: {len(schema.tables)} tables "
        f"({len(entity)} entity, {len(relationship)} relationship)"
    )
    if entity:
        print(f"entity tables: {', '.join(entity)}")
    if relationship:
        print(f"relationship tables: {', '.join(relationship)}")
    print(f"entity fields: {', '.join(sorted(entity_fields(schema)))}")
    total_rows = sum(len(rows) for rows in inst.relations.values())
    print(
        f"instance: {total_rows} rows, {len(inst.active_domain)} active "
        f"domain constants, {len(inst.entity_constants)} entity constants"
    )
    if session.registry:
        print(f"queries: {', '.join(session.registry)}")
    print("OK")
    return 0


def run_check(session: Session, query: str) -> int:
    decl = _resolve_query(session, query)
    print(f"query: {decl.text()}")
    q = prepare_query(session.instance, decl)
    if not q.safety.safe:
        print("safety: FAIL")
        for v in q.safety.violations:
            print(f"  {v.describe()}")
        print("entity query: skipped (not safe)")
        print("validity: skipped (not safe)")
        return 1
    print("safety: PASS")
    ok = q.er.is_er
    if q.er.is_er:
        names = ", ".join(sorted(q.er.entity_vars)) or "(none)"
        print(f"entity query: yes (entity variables: {names})")
    else:
        print("entity query: no")
        for failure in q.er.failures:
            print(f"  {failure.variable}: {failure.reason}")
    if decl.variables:
        head = ", ".join(decl.variables)
        if q.validity.valid:
            print(f"valid for ({head}): yes")
        else:
            ok = False
            where = to_text(q.validity.failing) if q.validity.failing else "?"
            print(f"valid for ({head}): no (first failing subformula: {where})")
    return 0 if ok else 1


def run_eval(session: Session, query: str) -> int:
    decl = _resolve_query(session, query)
    _print_relation(evaluate(session.instance, decl), sys.stdout)
    return 0


def run_domain(session: Session, query: str, vars_arg=None, explain=False) -> int:
    decl = _resolve_query(session, query)
    if vars_arg:
        variables = tuple(v.strip() for v in vars_arg.split(","))
        unknown = [v for v in variables if v not in decl.variables]
        if unknown:
            raise QueryParseError(
                f"--vars names outside the query head: {', '.join(map(repr, unknown))}"
            )
        repeated = [v for v in dict.fromkeys(variables) if variables.count(v) > 1]
        if repeated:
            raise QueryParseError(f"--vars repeats {', '.join(map(repr, repeated))}")
    else:
        variables = decl.variables
    if not variables:
        raise QueryParseError("domain needs a query with head variables")
    body = normalize(decl.body)
    if explain:
        dom, tree = explain_reference_domain(session.instance, body, variables)
        print(tree.render(), file=sys.stderr)
    else:
        dom = reference_domain(session.instance, body, variables)
    _print_relation(Relation(dom.variables, dom.members), sys.stdout)
    return 0


def run_freq(session: Session, query: str) -> int:
    decl = _resolve_query(session, query)
    fr = frequency(session.instance, decl)
    print(f"frequency: {fr} ({_decimal(fr.value)})")
    return 0


def run_rule(session: Session, antecedent_arg: str, consequent_arg: str) -> int:
    antecedent = _resolve_query(session, antecedent_arg)
    consequent = _resolve_query(session, consequent_arg)
    sup, conf = rule_statistics(session.instance, ErRule(antecedent, consequent.body))
    print(
        f"rule: {antecedent.name or 'antecedent'} -> "
        f"{consequent.name or 'consequent'}"
    )
    print(f"support: {sup} ({_decimal(sup.value)})")
    print(f"confidence: {conf} ({_decimal(conf)})")
    return 0


def run_mine(session: Session, ns) -> int:
    bias = load_bias_file(ns.bias, session.schema)
    min_support = _parse_fraction(ns.min_support, "--min-support")
    if not 0 < min_support <= 1:
        raise ErmineError(f"--min-support must be in (0, 1], got {ns.min_support!r}")
    min_confidence = _parse_fraction(ns.min_confidence, "--min-confidence")
    if not 0 <= min_confidence <= 1:
        raise ErmineError(f"--min-confidence must be in [0, 1], got {ns.min_confidence!r}")
    if ns.max_level is not None and ns.max_level < 1:
        raise ErmineError(f"--max-level must be at least 1, got {ns.max_level}")
    result = mine(
        session.instance,
        bias,
        min_support,
        min_confidence,
        max_level=ns.max_level,
        prune=not ns.no_prune,
    )
    for level in result.levels:
        print(
            f"level {level.level}: {level.candidates} candidates, "
            f"{level.survivors} frequent"
        )
    print(f"frequent queries (min support {min_support}):")
    if result.frequent:
        for fq in result.frequent:
            print(f"  {fq.candidate.text()}  [frequency {fq.frequency}]")
    else:
        print("  (none)")
    print(f"rules (min confidence {min_confidence}):")
    if result.rules:
        for rule in result.rules:
            print(
                f"  {rule.text()}  [support {rule.support.value}, "
                f"confidence {rule.confidence}]"
            )
    else:
        print("  (none)")
    if ns.csv:
        with open(ns.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["antecedent", "consequent", "support", "confidence"])
            for rule in result.rules:
                writer.writerow(
                    [
                        rule.antecedent_text,
                        rule.consequent_text,
                        str(rule.support.value),
                        str(rule.confidence),
                    ]
                )
    return 0


REPL_HELP = """\
commands:
  name(vars) := body    register a query (also: let name(vars) := body)
  check NAME            safety / entity / validity report
  eval NAME             evaluate and print CSV
  domain NAME           print the reference domain CSV
  freq NAME             print the frequency
  rule NAME NAME        support and confidence of antecedent -> consequent
  names                 list registered queries
  quit                  leave\
"""


def run_repl(session: Session) -> int:
    print("ermine repl; 'help' lists commands")
    while True:
        try:
            line = input("ermine> ").strip()
        except EOFError:
            print()
            return 0
        if not line or line.startswith("#"):
            continue
        try:
            if _repl_line(session, line):
                return 0
        except ErmineError as exc:
            print(f"error: {exc}")


_REPL_QUERY_COMMANDS = {
    "check": run_check,
    "eval": run_eval,
    "domain": run_domain,
    "freq": run_freq,
}


def _repl_line(session: Session, line: str) -> bool:
    """Handle one repl line; True means quit."""
    word, _, rest = line.partition(" ")
    rest = rest.strip()
    if word in ("quit", "exit"):
        return True
    if word == "help":
        print(REPL_HELP)
        return False
    if word == "names":
        if session.registry:
            for decl in session.registry.values():
                print(decl.text())
        else:
            print("(no registered queries)")
        return False
    if word == "let" or ":=" in line:
        text = rest if word == "let" else line
        decl = parse_query(text, session.schema, session.registry)
        session.registry[decl.name] = decl
        print(f"registered {decl.name}")
        return False
    if word in _REPL_QUERY_COMMANDS:
        _REPL_QUERY_COMMANDS[word](session, rest)
        return False
    if word == "rule":
        parts = rest.split()
        if len(parts) != 2:
            print("usage: rule ANTECEDENT CONSEQUENT")
            return False
        run_rule(session, parts[0], parts[1])
        return False
    print(f"unknown command {word!r}; 'help' lists commands")
    return False


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ermine",
        description="evaluate entity-relationship queries and mine rules",
    )
    parser.add_argument("--schema", help="schema JSON file")
    parser.add_argument("--data", help="directory with one CSV per table")
    parser.add_argument("--queries", help="file of named query declarations")
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="log to stderr at this level; debug shows why the miner drops "
        "each candidate and rule (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate schema and data")
    p.set_defaults(func=lambda session, ns: run_validate(session))

    p = sub.add_parser("check", help="safety / entity / validity report")
    p.add_argument("query")
    p.set_defaults(func=lambda session, ns: run_check(session, ns.query))

    p = sub.add_parser("eval", help="evaluate a query, print CSV")
    p.add_argument("query")
    p.set_defaults(func=lambda session, ns: run_eval(session, ns.query))

    p = sub.add_parser("domain", help="print the reference domain as CSV")
    p.add_argument("query")
    p.add_argument("--vars", help="comma-separated subset of head variables")
    p.add_argument(
        "--explain", action="store_true", help="print the recursion tree to stderr"
    )
    p.set_defaults(
        func=lambda session, ns: run_domain(session, ns.query, ns.vars, ns.explain)
    )

    p = sub.add_parser("freq", help="print the exact frequency")
    p.add_argument("query")
    p.set_defaults(func=lambda session, ns: run_freq(session, ns.query))

    p = sub.add_parser("rule", help="support and confidence of a rule")
    p.add_argument("antecedent")
    p.add_argument("consequent")
    p.set_defaults(
        func=lambda session, ns: run_rule(session, ns.antecedent, ns.consequent)
    )

    p = sub.add_parser("mine", help="mine frequent queries and rules")
    p.add_argument("--bias", required=True, help="language bias JSON file")
    p.add_argument("--min-support", required=True, help="threshold, e.g. 1/4")
    p.add_argument("--min-confidence", required=True, help="threshold, e.g. 1/2")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument(
        "--no-prune",
        action="store_true",
        help="extend every candidate, not only frequent ones (differential mode)",
    )
    p.add_argument("--csv", help="also write the rules to this CSV file")
    p.set_defaults(func=lambda session, ns: run_mine(session, ns))

    p = sub.add_parser("repl", help="interactive session")
    p.set_defaults(func=lambda session, ns: run_repl(session))
    return parser


LOG_LEVELS = ("warning", "info", "debug")


@contextlib.contextmanager
def _logging_to_stderr(level: str):
    """Send the package's log records at ``level`` and above to stderr
    while the block runs, then restore the logger as it was."""
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built on first use
    and kept for the process: parsing leaves no state in it, and its
    ``prog`` is fixed, so usage and error lines are the same on every
    call."""
    return build_arg_parser()


def main(argv=None) -> int:
    ns = _arg_parser().parse_args(argv)
    with _logging_to_stderr(ns.log_level):
        return _run(ns)


def _run(ns) -> int:
    try:
        session = load_session(ns)
        return ns.func(session, ns)
    except (SchemaError, DataError, BiasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ErmineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
