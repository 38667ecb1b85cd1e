"""Tokenizer and recursive-descent parser for query declarations.

Grammar (keywords are uppercase, precedence NOT > AND > OR, quantifier
bodies extend maximally to the right, parentheses override):

    decl    := name '(' [vars] ')' ':=' formula
    formula := conj ('OR' conj)*
    conj    := unary ('AND' unary)*
    unary   := 'NOT' unary | ('EXISTS'|'FORALL') var '.' formula | primary
    primary := '(' formula ')' | pred '(' terms ')' | term cmp term | name
    term    := var | integer | string

Variables are identifiers starting with an uppercase letter (no hyphens);
predicates are schema table names and may contain hyphens.  A bare name at
formula level splices the body of a previously registered query, which is
how queries compose.  ``#`` starts a line comment.

Comparisons are typed: ``<``, ``>``, ``<=``, ``>=`` need both sides
integer-typed (from predicate positions or literal form, propagated
through equalities); ``=`` and ``!=`` work at any matching type.
"""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from typing import NamedTuple

from .errors import QueryParseError
from .formulas import (
    INTEGER_LITERAL,
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    QueryDecl,
    Variable,
    conjunction,
    free_variables,
    subformulas,
)
from .schema import Schema

KEYWORDS = frozenset({"EXISTS", "FORALL", "AND", "OR", "NOT"})

# Deepest nesting of parentheses, NOT and quantifiers, and tallest formula
# tree, that a formula may have.  The parser takes up to four stack frames
# per nesting level and the evaluator up to four per tree level, so at this
# depth every recursive walk stays near 500 frames, half of Python's
# default recursion limit of 1000, leaving the rest to the caller.
MAX_NESTING = 100

# Most formula nodes that the registered query names of one text may splice
# in.  Each name is spliced as a full copy of its query's body, so a chain
# of queries that each name the one before twice doubles at every link;
# without a bound, 25 such lines would need gigabytes.  The bound refuses
# the text before its copies are made.
MAX_SPLICED_NODES = 10_000

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

# A string literal up to its closing quote: any character but a quote, a
# backslash or a newline, or one of the escapes \" and \\.
_OPEN_STRING = r'"(?:[^"\\\n]|\\["\\])*'
_OPEN_STRING_RE = re.compile(_OPEN_STRING)
# One alternation, tried in order at each offset; the group that matched
# names the token.  SKIP is whitespace and comments, which make no token.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("SKIP", r"(?:[ \t\r\n]|#[^\n]*)+"),
            ("STRING", _OPEN_STRING + '"'),
            ("INT", INTEGER_LITERAL.pattern),
            ("IDENT", _IDENT_RE.pattern),
            ("ASSIGN", ":="),
            ("OP", "[<>!]=|[=<>]"),
            ("LPAREN", r"\("),
            ("RPAREN", r"\)"),
            ("COMMA", ","),
            ("DOT", r"\."),
        )
    )
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class Token(NamedTuple):
    kind: str
    value: object
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    n = len(text)
    match = _TOKEN_RE.match
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise _scan_error(text, pos)
        kind = m.lastgroup
        end = m.end()
        if kind != "SKIP":
            value = m.group()
            if kind == "STRING":
                value = _ESCAPE_RE.sub(r"\1", value[1:-1])
            elif kind == "INT":
                try:
                    value = int(value)
                except ValueError:
                    # More digits than int() converts (sys.get_int_max_str_digits).
                    raise QueryParseError(
                        f"integer literal has {len(value.lstrip('-'))} digits, "
                        f"more than the {sys.get_int_max_str_digits()} allowed",
                        pos,
                    ) from None
            tokens.append(Token(kind, value, pos, end))
        pos = end
    tokens.append(Token("EOF", None, n, n))
    return tokens


def _scan_error(text: str, pos: int) -> QueryParseError:
    """The error at ``pos``, where no token matches.  In a string literal
    that did not close, it is what ends the literal's longest well-formed
    prefix: a newline, an unsupported escape, or the end of the input."""
    if text[pos] != '"':
        return QueryParseError(f"unexpected character {text[pos]!r}", pos)
    j = _OPEN_STRING_RE.match(text, pos).end()
    fault = text[j : j + 2]
    if fault[:1] == "\n":
        return QueryParseError("newline inside string literal", j)
    if len(fault) == 2:
        return QueryParseError(f"unsupported escape {fault}", j)
    return QueryParseError("unterminated string literal", pos)


class _Parser:
    def __init__(self, tokens, schema: Schema, registry=None):
        self.tokens = tokens
        self.pos = 0
        self.schema = schema
        self.registry = registry or {}
        self.last_end = 0
        self.depth = 0
        self.spliced = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        self.last_end = tok.end
        return tok

    def expect(self, kind, what=None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = "end of input" if tok.kind == "EOF" else repr(tok.value)
            raise QueryParseError(f"expected {what or kind}, got {got}", tok.start)
        return self.advance()

    def nested(self, parse, tok: Token) -> Formula:
        """Run one parse step a nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise QueryParseError(
                f"formula nests deeper than {MAX_NESTING} levels", tok.start
            )
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def at_keyword(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == word

    def name(self, what) -> Token:
        """An identifier that is not a keyword."""
        tok = self.expect("IDENT", what)
        if tok.value in KEYWORDS:
            raise QueryParseError(f"unexpected keyword {tok.value}", tok.start)
        return tok

    def variable_name(self) -> str:
        tok = self.name("a variable")
        if not _VAR_RE.match(tok.value):
            raise QueryParseError(
                f"variables must start with an uppercase letter and contain "
                f"no hyphens, got {tok.value!r}",
                tok.start,
            )
        return tok.value

    def parenthesized_list(self, parse_item) -> list:
        """``'(' [item (',' item)*] ')'``, each item read by ``parse_item``."""
        self.expect("LPAREN", "'('")
        items = []
        if self.peek().kind != "RPAREN":
            items.append(parse_item())
            while self.peek().kind == "COMMA":
                self.advance()
                items.append(parse_item())
        self.expect("RPAREN", "')'")
        return items

    def parse_head(self) -> tuple[str, tuple[str, ...]]:
        """``name '(' [vars] ')' ':='``, the head of a declaration."""
        name = self.name("a query name").value
        variables = self.parenthesized_list(self.variable_name)
        self.expect("ASSIGN", "':='")
        return name, tuple(variables)

    def parse_formula(self) -> Formula:
        left = self.parse_conjunction()
        while self.at_keyword("OR"):
            self.advance()
            right = self.parse_conjunction()
            left = Or(left, right, span=(_start(left), self.last_end))
        return left

    def parse_conjunction(self) -> Formula:
        parts = [self.parse_unary()]
        while self.at_keyword("AND"):
            self.advance()
            parts.append(self.parse_unary())
        if len(parts) == 1:
            return parts[0]
        return conjunction(parts, span=(_start(parts[0]), self.last_end))

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if self.at_keyword("NOT"):
            self.advance()
            inner = self.nested(self.parse_unary, tok)
            return Not(inner, span=(tok.start, self.last_end))
        if self.at_keyword("EXISTS") or self.at_keyword("FORALL"):
            self.advance()
            var = self.variable_name()
            self.expect("DOT", "'.' after the quantified variable")
            body = self.nested(self.parse_formula, tok)
            cls = Exists if tok.value == "EXISTS" else Forall
            return cls(var, body, span=(tok.start, self.last_end))
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            f = self.nested(self.parse_formula, tok)
            self.expect("RPAREN", "')'")
            return f
        if tok.kind == "IDENT":
            if tok.value in KEYWORDS:
                raise QueryParseError(f"unexpected keyword {tok.value}", tok.start)
            if self.peek(1).kind == "LPAREN":
                return self.parse_atom()
            if self.peek(1).kind != "OP":
                if tok.value not in self.registry:
                    raise QueryParseError(
                        f"{tok.value!r} is neither a registered query name nor "
                        f"the start of an atom or comparison",
                        tok.start,
                    )
                self.advance()
                body = self.registry[tok.value].body
                self.spliced += sum(1 for _ in subformulas(body))
                if self.spliced > MAX_SPLICED_NODES:
                    raise QueryParseError(
                        f"splices add more than {MAX_SPLICED_NODES} formula nodes", tok.start
                    )
                return _spliced(body, (tok.start, tok.end))
        elif tok.kind not in ("STRING", "INT"):
            raise QueryParseError(
                "expected a formula"
                if tok.kind != "EOF"
                else "unexpected end of input",
                tok.start,
            )
        left = self.parse_term()
        op = self.expect("OP", "a comparison operator")
        right = self.parse_term()
        return Comparison(left, op.value, right, span=(tok.start, self.last_end))

    def parse_term(self):
        tok = self.peek()
        if tok.kind in ("STRING", "INT"):
            self.advance()
            return Constant(tok.value)
        if tok.kind == "IDENT" and tok.value not in KEYWORDS:
            return Variable(self.variable_name())
        raise QueryParseError("expected a term (variable or constant)", tok.start)

    def parse_atom(self) -> Atom:
        name_tok = self.advance()
        terms = self.parenthesized_list(self.parse_term)
        if not self.schema.has_table(name_tok.value):
            raise QueryParseError(
                f"unknown predicate {name_tok.value!r}", name_tok.start
            )
        table = self.schema.table(name_tok.value)
        if len(terms) != table.arity:
            raise QueryParseError(
                f"predicate {table.name} takes {table.arity} arguments, "
                f"got {len(terms)}",
                name_tok.start,
            )
        return Atom(name_tok.value, tuple(terms), span=(name_tok.start, self.last_end))


def _start(f: Formula, missing=0) -> int | None:
    return f.span[0] if f.span else missing


def _spliced(f: Formula, span) -> Formula:
    """``f`` with ``span`` on every node: a spliced body's own spans point
    into the text that declared it, so its nodes take the name's span."""
    if isinstance(f, And):
        return And(tuple(_spliced(c, span) for c in f.conjuncts), span=span)
    if isinstance(f, Or):
        return Or(_spliced(f.left, span), _spliced(f.right, span), span=span)
    if isinstance(f, (Not, Exists, Forall)):
        return replace(f, body=_spliced(f.body, span), span=span)
    return replace(f, span=span)


def check_nesting(f: Formula) -> None:
    """Refuse a formula tree taller than MAX_NESTING.

    OR chains and spliced registered queries grow a tree past the nesting
    the parser sees, and so does closing a bias item over its variables.
    """
    stack = [(f, 0)]
    while stack:
        g, height = stack.pop()
        if height > MAX_NESTING:
            raise QueryParseError(
                f"formula nests deeper than {MAX_NESTING} levels", _start(g)
            )
        if isinstance(g, And):
            stack.extend((c, height + 1) for c in g.conjuncts)
        elif isinstance(g, Or):
            stack.extend(((g.left, height + 1), (g.right, height + 1)))
        elif isinstance(g, (Not, Exists, Forall)):
            stack.append((g.body, height + 1))


def _typecheck(body: Formula, schema: Schema) -> dict[str, str]:
    """Infer variable types from atom positions and literals; reject
    mistyped atom arguments and comparisons."""
    types: dict[str, str] = {}

    def note(var: str, vtype: str, pos):
        prev = types.get(var)
        if prev is not None and prev != vtype:
            raise QueryParseError(
                f"variable {var} is used both as {prev} and as {vtype}", pos
            )
        types[var] = vtype

    def type_of(t):
        if isinstance(t, Constant):
            return "integer" if type(t.value) is int else "string"
        return types.get(t.name)

    comparisons = []
    for g in subformulas(body):
        if isinstance(g, Atom):
            table = schema.table(g.predicate)
            pos = _start(g, None)
            for f, t in zip(table.fields, g.terms):
                if isinstance(t, Variable):
                    note(t.name, f.value_type, pos)
                elif type_of(t) != f.value_type:
                    raise QueryParseError(
                        f"constant {t} does not match the {f.value_type} "
                        f"field {table.name}.{f.name}",
                        pos,
                    )
        elif isinstance(g, Comparison):
            comparisons.append(g)

    # Equalities propagate known types onto untyped variables.
    changed = True
    while changed:
        changed = False
        for c in comparisons:
            lt, rt = type_of(c.left), type_of(c.right)
            pos = _start(c, None)
            if lt is not None and rt is not None and lt != rt:
                raise QueryParseError(
                    f"comparison mixes {lt} and {rt} operands", pos
                )
            if (lt is None) != (rt is None):
                # A constant is always typed, so the untyped side is a variable.
                note((c.left if lt is None else c.right).name, lt or rt, pos)
                changed = True

    for c in comparisons:
        if c.op not in ("=", "!="):
            lt, rt = type_of(c.left), type_of(c.right)
            pos = _start(c, None)
            if lt is None or rt is None:
                raise QueryParseError(
                    f"cannot infer an integer type for {c}", pos
                )
            if lt != "integer" or rt != "integer":
                raise QueryParseError(
                    f"ordering comparison {c} needs integer operands", pos
                )
    return types


def _parse(text: str, schema: Schema, registry, declaration: bool):
    """The one path of every query text: tokens, the grammar to the end of
    input, the nesting limit, a declaration's head against its body's free
    variables, then types.  Returns the name and head (None for a bare
    formula) and the body."""
    p = _Parser(tokenize(text), schema, registry)
    name, variables = p.parse_head() if declaration else (None, None)
    body = p.parse_formula()
    p.expect("EOF", "end of declaration" if declaration else "end of formula")
    check_nesting(body)
    if declaration:
        _check_head(name, variables, body)
    _typecheck(body, schema)
    return name, variables, body


def _check_head(name: str, variables: tuple[str, ...], body: Formula) -> None:
    if len(set(variables)) != len(variables):
        raise QueryParseError(f"query {name}: repeated head variable")
    declared = set(variables)
    free = set(free_variables(body))
    if declared != free:
        missing = sorted(free - declared)
        extra = sorted(declared - free)
        detail = []
        if missing:
            detail.append(f"free in body but not declared: {', '.join(missing)}")
        if extra:
            detail.append(f"declared but not free in body: {', '.join(extra)}")
        raise QueryParseError(f"query {name}: {'; '.join(detail)}")


def parse_formula_text(text: str, schema: Schema, registry=None) -> Formula:
    """Parse a bare formula (no head); used for rule consequents and bias
    patterns."""
    return _parse(text, schema, registry, declaration=False)[2]


def parse_query(text: str, schema: Schema, registry=None) -> QueryDecl:
    """Parse ``name(vars) := body`` and check heads, arities, and types."""
    name, variables, body = _parse(text, schema, registry, declaration=True)
    return QueryDecl(name, variables, body)


def parse_query_file(text: str, schema: Schema, registry=None) -> dict[str, QueryDecl]:
    """Parse a query file: one declaration per line, ``#`` comments.

    Later declarations may reference earlier ones by name.  Returns the
    registry of declarations in file order.
    """
    out: dict[str, QueryDecl] = dict(registry or {})
    for lno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            decl = parse_query(line, schema, out)
        except QueryParseError as exc:
            raise QueryParseError(f"line {lno}: {exc.args[0]}") from None
        if decl.name in out:
            raise QueryParseError(f"line {lno}: duplicate query name {decl.name!r}")
        out[decl.name] = decl
    return out
