"""Shared fixtures: the TV survey database and a toy transactions database."""

import pathlib

import pytest

from ermine import (
    ErRule,
    QueryDecl,
    UnsafeQueryError,
    ZeroAntecedentError,
    confidence,
    conjunction,
    free_variables,
    load_instance_dir,
    load_schema_file,
    normalize,
    parse_query,
    parse_query_file,
    support,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
TV_DIR = FIXTURES / "tv_survey"
BASKET_DIR = FIXTURES / "itemsets"


@pytest.fixture(scope="session")
def tv_schema():
    return load_schema_file(TV_DIR / "schema.json")


@pytest.fixture(scope="session")
def tv(tv_schema):
    return load_instance_dir(tv_schema, TV_DIR / "data")


@pytest.fixture(scope="session")
def queries(tv_schema):
    """The named fixture queries F1, F2, G1, G2."""
    return parse_query_file((TV_DIR / "queries.erq").read_text(), tv_schema)


@pytest.fixture(scope="session")
def baskets():
    schema = load_schema_file(BASKET_DIR / "schema.json")
    return load_instance_dir(schema, BASKET_DIR / "data")


@pytest.fixture()
def combine(tv_schema, queries):
    """Parse a declaration that may reference the named fixture queries."""

    def parse(text):
        return parse_query(text, tv_schema, queries)

    return parse


def signed_mask(signed) -> int:
    """The mining mask of (item index, negated) pairs: bit 2i is item i
    taken positively, bit 2i+1 item i negated."""
    mask = 0
    for i, negated in signed:
        mask |= 1 << (2 * i + negated)
    return mask


def split_rules_from_scratch(inst, frequent):
    """Every split of every frequent query that stats.confidence accepts,
    as (rule text, support, confidence) recomputed from scratch."""
    out = []
    for fq in sorted(frequent, key=lambda q: (q.level, q.candidate.canonical)):
        parts = fq.candidate.parts
        head = fq.candidate.decl.variables
        for mask in range(1, 2 ** len(parts) - 1):
            ant = normalize(conjunction([p for j, p in enumerate(parts) if mask >> j & 1]))
            con = normalize(conjunction([p for j, p in enumerate(parts) if not mask >> j & 1]))
            if set(free_variables(ant)) != set(head):
                continue
            rule = ErRule(QueryDecl(None, head, ant), con)
            try:
                conf = confidence(inst, rule)
            except (UnsafeQueryError, ZeroAntecedentError):
                continue
            out.append((rule.text(), support(inst, rule), conf))
    return out
