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
from dataclasses import dataclass

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

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise QueryParseError("unterminated string literal", i)
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise QueryParseError("unterminated string literal", i)
                    esc = text[j + 1]
                    if esc not in ('"', "\\"):
                        raise QueryParseError(f"unsupported escape \\{esc}", j)
                    buf.append(esc)
                    j += 2
                elif c == '"':
                    j += 1
                    break
                elif c == "\n":
                    raise QueryParseError("newline inside string literal", j)
                else:
                    buf.append(c)
                    j += 1
            tokens.append(Token("STRING", "".join(buf), i, j))
            i = j
            continue
        m = INTEGER_LITERAL.match(text, i)
        if m:
            try:
                value = int(m.group())
            except ValueError:
                # More digits than int() converts (sys.get_int_max_str_digits).
                raise QueryParseError(
                    f"integer literal has {len(m.group().lstrip('-'))} digits, "
                    f"more than the {sys.get_int_max_str_digits()} allowed",
                    i,
                ) from None
            tokens.append(Token("INT", value, i, m.end()))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("IDENT", m.group(), i, m.end()))
            i = m.end()
            continue
        two = text[i : i + 2]
        if two == ":=":
            tokens.append(Token("ASSIGN", two, i, i + 2))
            i += 2
            continue
        if two in ("<=", ">=", "!="):
            tokens.append(Token("OP", two, i, i + 2))
            i += 2
            continue
        if ch in "=<>":
            tokens.append(Token("OP", ch, i, i + 1))
            i += 1
            continue
        simple = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}
        if ch in simple:
            tokens.append(Token(simple[ch], ch, i, i + 1))
            i += 1
            continue
        raise QueryParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", None, n, n))
    return tokens


class _Parser:
    def __init__(self, tokens, schema: Schema, registry=None):
        self.tokens = tokens
        self.pos = 0
        self.schema = schema
        self.registry = registry or {}
        self.last_end = 0
        self.depth = 0

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
            raise QueryParseError(
                f"expected {what or kind}, got {tok.value!r}"
                if tok.kind != "EOF"
                else f"expected {what or kind}, got end of input",
                tok.start,
            )
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

    def variable_name(self) -> str:
        tok = self.expect("IDENT", "a variable")
        if tok.value in KEYWORDS:
            raise QueryParseError(f"unexpected keyword {tok.value}", tok.start)
        if not _VAR_RE.match(tok.value):
            raise QueryParseError(
                f"variables must start with an uppercase letter and contain "
                f"no hyphens, got {tok.value!r}",
                tok.start,
            )
        return tok.value

    def parse_declaration(self) -> tuple[str, tuple[str, ...], Formula]:
        name_tok = self.expect("IDENT", "a query name")
        if name_tok.value in KEYWORDS:
            raise QueryParseError(
                f"unexpected keyword {name_tok.value}", name_tok.start
            )
        self.expect("LPAREN", "'('")
        variables = []
        if self.peek().kind != "RPAREN":
            while True:
                variables.append(self.variable_name())
                if self.peek().kind == "COMMA":
                    self.advance()
                    continue
                break
        self.expect("RPAREN", "')'")
        self.expect("ASSIGN", "':='")
        body = self.parse_formula()
        self.expect("EOF", "end of declaration")
        return name_tok.value, tuple(variables), body

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
        if tok.kind in ("STRING", "INT"):
            self.advance()
            return self.finish_comparison(Constant(tok.value), tok)
        if tok.kind == "IDENT":
            if tok.value in KEYWORDS:
                raise QueryParseError(f"unexpected keyword {tok.value}", tok.start)
            if self.peek(1).kind == "LPAREN":
                return self.parse_atom()
            if self.peek(1).kind == "OP":
                name = self.variable_name()
                return self.finish_comparison(Variable(name), tok)
            if tok.value in self.registry:
                self.advance()
                return self.registry[tok.value].body
            raise QueryParseError(
                f"{tok.value!r} is neither a registered query name nor the "
                f"start of an atom or comparison",
                tok.start,
            )
        raise QueryParseError(
            "expected a formula"
            if tok.kind != "EOF"
            else "unexpected end of input",
            tok.start,
        )

    def finish_comparison(self, left, start_tok) -> Comparison:
        op = self.expect("OP", "a comparison operator")
        right = self.parse_term()
        return Comparison(left, op.value, right, span=(start_tok.start, self.last_end))

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
        self.expect("LPAREN", "'('")
        terms = []
        if self.peek().kind != "RPAREN":
            while True:
                terms.append(self.parse_term())
                if self.peek().kind == "COMMA":
                    self.advance()
                    continue
                break
        self.expect("RPAREN", "')'")
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


def _start(f: Formula) -> int:
    return f.span[0] if f.span else 0


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

    comparisons = []
    for g in subformulas(body):
        if isinstance(g, Atom):
            table = schema.table(g.predicate)
            for f, t in zip(table.fields, g.terms):
                pos = g.span[0] if g.span else None
                if isinstance(t, Variable):
                    note(t.name, f.value_type, pos)
                else:
                    ctype = "integer" if type(t.value) is int else "string"
                    if ctype != f.value_type:
                        raise QueryParseError(
                            f"constant {t} does not match the {f.value_type} "
                            f"field {table.name}.{f.name}",
                            pos,
                        )
        elif isinstance(g, Comparison):
            comparisons.append(g)

    def type_of(t):
        if isinstance(t, Constant):
            return "integer" if type(t.value) is int else "string"
        return types.get(t.name)

    # Equalities propagate known types onto untyped variables.
    changed = True
    while changed:
        changed = False
        for c in comparisons:
            lt, rt = type_of(c.left), type_of(c.right)
            pos = c.span[0] if c.span else None
            if lt is not None and rt is not None and lt != rt:
                raise QueryParseError(
                    f"comparison mixes {lt} and {rt} operands", pos
                )
            if lt is not None and rt is None and isinstance(c.right, Variable):
                note(c.right.name, lt, pos)
                changed = True
            if rt is not None and lt is None and isinstance(c.left, Variable):
                note(c.left.name, rt, pos)
                changed = True

    for c in comparisons:
        if c.op not in ("=", "!="):
            lt, rt = type_of(c.left), type_of(c.right)
            pos = c.span[0] if c.span else None
            if lt is None or rt is None:
                raise QueryParseError(
                    f"cannot infer an integer type for {c}", pos
                )
            if lt != "integer" or rt != "integer":
                raise QueryParseError(
                    f"ordering comparison {c} needs integer operands", pos
                )
    return types


def parse_formula_text(text: str, schema: Schema, registry=None) -> Formula:
    """Parse a bare formula (no head); used for rule consequents and bias
    patterns."""
    p = _Parser(tokenize(text), schema, registry)
    body = p.parse_formula()
    p.expect("EOF", "end of formula")
    check_nesting(body)
    _typecheck(body, schema)
    return body


def parse_query(text: str, schema: Schema, registry=None) -> QueryDecl:
    """Parse ``name(vars) := body`` and check heads, arities, and types."""
    p = _Parser(tokenize(text), schema, registry)
    name, variables, body = p.parse_declaration()
    check_nesting(body)
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
    _typecheck(body, schema)
    return QueryDecl(name, variables, body, source=text)


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
