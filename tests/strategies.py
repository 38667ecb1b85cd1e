"""Hypothesis generators: small random instances plus queries over them.

Every generated query has the single free variable X.  Two families:

* safe_query_cases() makes safe (not necessarily entity) queries with
  constants, repeated variables, disjunctions, negation, variables
  bound only through equalities, and comparisons of variables with
  constants: every operator, the constant on either side, of either
  type, beside atoms with constants or repeated variables.  Used for
  differential evaluation; safe_query_sequences() draws several of them
  over one instance.
* valid_query_cases() / split_cases() make entity queries whose atoms
  hold only distinct variables with X in an entity position, so they are
  safe, entity, and valid for X by construction, and their reference
  domains are non-empty whenever no table is empty.

rule_cases() pairs an antecedent over X, safe or a negation that is not
safe on its own, with a consequent: a safe body, a bare comparison of X
with a constant, a top-level NOT, an OR, or a comparison naming a
variable outside the head.

atom_scan_cases() makes one atom with constants and repeated variables,
comparisons of its variables with constants, and a subset of its columns
to keep, for checks of the evaluator's atom scan.

Instances stay tiny on purpose (at most four tables, four rows per
table, five distinct constants) so the enumeration oracle stays cheap.

mining_cases() makes small instances of the fixture TV schema, empty
tables included, with a language bias over them for the miner, drawn
from MINING_POOLS or from their items that mention the whole head
(WHOLE_HEAD_POOLS).
"""

import pathlib

from hypothesis import strategies as st

from ermine import (
    Atom,
    Comparison,
    Constant,
    ErRule,
    Exists,
    Not,
    Or,
    QueryDecl,
    Variable,
    conjunction,
    entity_fields,
    free_variables,
    load_bias,
    load_instance,
    load_schema,
    load_schema_file,
    parse_formula_text,
)

NAMES = ("a", "b", "c")
WEIGHTS = (1, 2)
OPS = ("<", ">", "<=", ">=", "=", "!=")

SCHEMAS = {
    "single": load_schema(
        {
            "tables": [
                {"name": "P", "fields": [{"name": "id", "type": "string", "key": True}]},
            ]
        }
    ),
    "linked": load_schema(
        {
            "tables": [
                {"name": "P", "fields": [{"name": "id", "type": "string", "key": True}]},
                {"name": "Q", "fields": [{"name": "id", "type": "string", "key": True}]},
                {
                    "name": "L",
                    "fields": [
                        {"name": "p", "type": "string", "key": True, "references": "P.id"},
                        {"name": "q", "type": "string", "key": True, "references": "Q.id"},
                    ],
                },
            ]
        }
    ),
    "graph": load_schema(
        {
            "tables": [
                {"name": "N", "fields": [{"name": "id", "type": "string", "key": True}]},
                {
                    "name": "E",
                    "fields": [
                        {"name": "s", "type": "string", "key": True, "references": "N.id"},
                        {"name": "t", "type": "string", "key": True, "references": "N.id"},
                        {"name": "w", "type": "integer"},
                    ],
                },
            ]
        }
    ),
    "four": load_schema(
        {
            "tables": [
                {"name": "P", "fields": [{"name": "id", "type": "string", "key": True}]},
                {"name": "Q", "fields": [{"name": "id", "type": "string", "key": True}]},
                {
                    "name": "L",
                    "fields": [
                        {"name": "p", "type": "string", "key": True, "references": "P.id"},
                        {"name": "q", "type": "string", "key": True, "references": "Q.id"},
                    ],
                },
                {
                    "name": "M",
                    "fields": [
                        {"name": "q", "type": "string", "key": True, "references": "Q.id"},
                        {"name": "p", "type": "string", "key": True, "references": "P.id"},
                    ],
                },
            ]
        }
    ),
}


def _anchor_positions(schema):
    efields = entity_fields(schema)
    out = []
    for t in schema.tables:
        for i, f in enumerate(t.fields):
            if f"{t.name}.{f.name}" in efields:
                out.append((t.name, i))
    return out


ANCHORS = {key: _anchor_positions(schema) for key, schema in SCHEMAS.items()}


@st.composite
def instances(draw, schema_key=None, non_empty=False):
    key = schema_key or draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[key]
    tables = {}
    for t in schema.tables:
        if t.is_entity:
            ids = draw(
                st.lists(
                    st.sampled_from(NAMES),
                    min_size=1 if non_empty else 0,
                    max_size=3,
                    unique=True,
                )
            )
            tables[t.name] = [(v,) for v in ids]
    for t in schema.tables:
        if t.is_entity:
            continue
        pools = []
        for f in t.fields:
            if f.references:
                ref_table = f.references.split(".", 1)[0]
                pools.append(sorted(row[0] for row in tables[ref_table]))
            else:
                pools.append(list(WEIGHTS))
        if any(not pool for pool in pools):
            tables[t.name] = []
            continue
        key_idx = [i for i, f in enumerate(t.fields) if f.is_key]
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(pool) for pool in pools]),
                min_size=1 if non_empty else 0,
                max_size=4,
                unique_by=lambda row, idx=tuple(key_idx): tuple(row[i] for i in idx),
            )
        )
        tables[t.name] = rows
    return key, load_instance(schema, tables)


@st.composite
def _pattern(draw, key, var="X", plain=True, allow_negation=True, alias=False):
    """One existentially closed conjunction whose free variable is `var`.

    With plain=True every atom holds distinct fresh variables besides the
    anchored `var`, so the projection onto `var` covers a whole column.
    Otherwise constants and repeated bound variables may appear.
    """
    schema = SCHEMAS[key]
    used = []  # (name, value_type) of fresh variables, in first-use order

    def fresh(value_type):
        name = f"V{len(used) + 1}"
        used.append((name, value_type))
        return name

    def term_for(field):
        if not plain:
            same_type = [n for n, vt in used if vt == field.value_type]
            options = ["fresh"]
            if same_type:
                options.append("reuse")
            options.append("const")
            choice = draw(st.sampled_from(options))
            if choice == "reuse":
                return Variable(draw(st.sampled_from(same_type)))
            if choice == "const":
                pool = NAMES if field.value_type == "string" else WEIGHTS
                return Constant(draw(st.sampled_from(pool)))
        return Variable(fresh(field.value_type))

    def anchored_atom():
        table_name, pos = draw(st.sampled_from(ANCHORS[key]))
        table = schema.table(table_name)
        terms = tuple(
            Variable(var) if i == pos else term_for(f)
            for i, f in enumerate(table.fields)
        )
        return Atom(table_name, terms)

    conjs = [anchored_atom()]
    if draw(st.booleans()):
        conjs.append(anchored_atom())
    if plain:
        ints = [n for n, vt in used if vt == "integer"]
        if ints and draw(st.booleans()):
            conjs.append(
                Comparison(
                    Variable(draw(st.sampled_from(ints))),
                    draw(st.sampled_from(OPS)),
                    Constant(draw(st.sampled_from(WEIGHTS))),
                )
            )
    else:
        for _ in range(draw(st.integers(0, 2))):
            name = draw(st.sampled_from([var] + [n for n, _ in used]))
            conjs.append(draw(_constant_comparison(name)))
    if allow_negation and draw(st.booleans()):
        negand = draw(_pattern(key, var=var, plain=plain, allow_negation=False))
        conjs.append(Not(negand))
    if alias and draw(st.booleans()):
        # A variable bound only through an equality with the anchor.
        conjs.append(Comparison(Variable(fresh("string")), "=", Variable(var)))
    body = conjunction(conjs)
    for name, _ in reversed(used):
        body = Exists(name, body)
    return body


@st.composite
def _constant_comparison(draw, name):
    """``name op c`` or ``c op name`` for any operator, the constant of
    either type whatever the variable's type."""
    op = draw(st.sampled_from(OPS))
    value = Constant(draw(st.sampled_from(NAMES + WEIGHTS)))
    if draw(st.booleans()):
        return Comparison(value, op, Variable(name))
    return Comparison(Variable(name), op, value)


@st.composite
def _pushdown_pattern(draw, key):
    """An atom holding X beside a constant or a repeated variable, in one
    conjunction with comparisons of its variables against constants,
    optionally with a negated permutation of the atom and a second
    pattern."""
    schema = SCHEMAS[key]
    anchors = [(t, i) for t, i in ANCHORS[key] if schema.table(t).arity > 1]
    if not anchors:
        return draw(_pattern(key, plain=False))
    table_name, pos = draw(st.sampled_from(anchors))
    table = schema.table(table_name)
    special = draw(st.sampled_from([i for i in range(table.arity) if i != pos]))
    fresh = []
    terms = []
    for i in range(table.arity):
        if i == pos:
            terms.append(Variable("X"))
        elif i == special and draw(st.booleans()):
            terms.append(Constant(draw(st.sampled_from(NAMES + WEIGHTS))))
        elif i == special:
            terms.append(Variable(draw(st.sampled_from(["X"] + fresh))))
        else:
            fresh.append(f"V{len(fresh) + 1}")
            terms.append(Variable(fresh[-1]))
    conjs = [Atom(table_name, tuple(terms))]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["X"] + fresh))
        conjs.append(draw(_constant_comparison(name)))
    if draw(st.booleans()):
        # A negation reading the quantified variables too.
        conjs.append(Not(Atom(table_name, tuple(draw(st.permutations(terms))))))
    if draw(st.booleans()):
        conjs.append(draw(_pattern(key, plain=False, allow_negation=False)))
    body = conjunction(draw(st.permutations(conjs)))
    for name in reversed(fresh):
        body = Exists(name, body)
    return body


@st.composite
def _safe_body(draw, key):
    kind = draw(
        st.sampled_from(("pattern", "alias", "pushdown", "eq", "or", "or-eq"))
    )
    if kind == "pattern":
        return draw(_pattern(key, plain=False))
    if kind == "pushdown":
        return draw(_pushdown_pattern(key))
    if kind == "alias":
        return draw(_pattern(key, plain=False, alias=True))
    if kind == "eq":
        value = draw(st.sampled_from(NAMES + WEIGHTS))
        return Comparison(Variable("X"), "=", Constant(value))
    if kind == "or":
        return Or(draw(_pattern(key, plain=False)), draw(_pattern(key, plain=False)))
    return Or(
        draw(_pattern(key, plain=False)),
        Comparison(Variable("X"), "=", Constant(draw(st.sampled_from(NAMES)))),
    )


@st.composite
def atom_scan_cases(draw):
    """An instance, an atom over one of its tables, ``(variable, op,
    constant)`` tests of the atom's variables, the atom's columns (its
    distinct variables in first-occurrence order) and an ordered subset
    of them to keep."""
    key, inst = draw(instances())
    table = draw(st.sampled_from(SCHEMAS[key].tables))
    terms = tuple(
        draw(
            st.one_of(
                st.sampled_from(("A", "B", "C")).map(Variable),
                st.sampled_from(NAMES + WEIGHTS).map(Constant),
            )
        )
        for _ in table.fields
    )
    columns = tuple(dict.fromkeys(t.name for t in terms if isinstance(t, Variable)))
    tests = []
    if columns:
        tests = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(columns),
                    st.sampled_from(OPS),
                    st.sampled_from(NAMES + WEIGHTS),
                ),
                max_size=3,
            )
        )
    kept = tuple(c for c in columns if draw(st.booleans()))
    return inst, Atom(table.name, terms), tests, columns, kept


@st.composite
def safe_query_cases(draw):
    key, inst = draw(instances())
    body = draw(_safe_body(key))
    return inst, QueryDecl("q", ("X",), body)


@st.composite
def rule_cases(draw):
    """An instance, empty tables allowed, and a rule F -> G over the head
    X."""
    key, inst = draw(instances(non_empty=draw(st.booleans())))
    kind = draw(st.sampled_from(("entity", "or", "safe", "not")))
    if kind == "entity":
        antecedent = draw(_pattern(key))
    elif kind == "or":
        antecedent = Or(draw(_pattern(key)), draw(_pattern(key)))
    else:
        antecedent = draw(_safe_body(key))
    if kind == "not":
        antecedent = Not(antecedent)
    # Strings the entity gate passes in = and !=, where the instance has any.
    names = sorted(v for v in inst.entity_constants if type(v) is str) or NAMES
    kind = draw(st.sampled_from(("plain", "safe", "comparison", "not", "or", "stray")))
    if kind == "plain":
        consequent = draw(_pattern(key))
    elif kind == "safe":
        consequent = draw(_safe_body(key))
    elif kind == "comparison":
        value, op = Constant(draw(st.sampled_from(names))), draw(st.sampled_from(("=", "!=")))
        terms = (Variable("X"), value) if draw(st.booleans()) else (value, Variable("X"))
        consequent = Comparison(terms[0], op, terms[1])
    elif kind == "not":
        consequent = Not(draw(_pattern(key, plain=draw(st.booleans()))))
    elif kind == "or":
        value = Constant(draw(st.sampled_from(names)))
        consequent = Or(draw(_pattern(key)), Comparison(Variable("X"), "=", value))
    else:
        consequent = draw(_constant_comparison("Y"))
    return inst, ErRule(QueryDecl("f", ("X",), antecedent), consequent)


@st.composite
def safe_query_sequences(draw):
    """One instance and several safe queries over it, for checks that
    need queries to share the instance's access path."""
    key, inst = draw(instances())
    bodies = draw(st.lists(_safe_body(key), min_size=3, max_size=6))
    return inst, [QueryDecl(f"q{k}", ("X",), b) for k, b in enumerate(bodies)]


@st.composite
def valid_query_cases(draw, non_empty=True):
    key, inst = draw(instances(non_empty=non_empty))
    if draw(st.booleans()):
        body = draw(_pattern(key))
    else:
        body = Or(draw(_pattern(key)), draw(_pattern(key)))
    return inst, QueryDecl("q", ("X",), body)


@st.composite
def split_cases(draw):
    """An instance without empty tables plus two closed patterns over X."""
    key, inst = draw(instances(non_empty=True))
    s = draw(_pattern(key, allow_negation=False))
    f = draw(_pattern(key, allow_negation=False))
    return inst, s, f


TV_SCHEMA = load_schema_file(
    pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "tv_survey" / "schema.json"
)

# Pool items per bias head.  Besides items that are one existential
# conjunct, each pool has items the miner cannot count by set algebra:
# bare comparisons, negations, and items over head variables only that
# normalize to a conjunction (one of them cannot be evaluated on its own).
# The (P, SN) pool also has items mentioning only part of the head, so
# answers are joined rather than intersected, and constant equalities on
# both head variables, for the equality-cover rule of reference domains.
MINING_POOLS = {
    ("P",): (
        "WeekdayTV(P, SN, V, S) AND V >= 10",
        "WeekendTV(P, SN, V, S) AND V >= 10",
        'WeekdayTV(P, SN, V, S) AND S = "RBC"',
        "WeekdayTV(P, SN, V, S) OR WeekendTV(P, SN, V, S)",
        "TV-Program(P)",
        'TV-Program(P) AND P != "Gilmore"',
        'P = "Gilmore"',
        'P != "Hockey"',
        'P != "Gilmore" AND P != "Hockey"',
        "NOT (EXISTS SN. EXISTS V. EXISTS S. WeekendTV(P, SN, V, S))",
    ),
    ("P", "SN"): (
        "WeekdayTV(P, SN, V, S) AND V > 5",
        "WeekendTV(P, SN, V, S)",
        'WeekdayTV(P, SN, V, "RBC")',
        "TV-Program(P)",
        "TV-Station(SN, A) AND A > 1",
        'P = "Gilmore"',
        'SN = "CBS"',
        'SN != "CBS"',
        'WeekendTV(P, SN, 10, "Avon") AND P = "Gilmore"',
        'NOT WeekdayTV(P, SN, 10, "RBC")',
    ),
}


# The items of each pool that mention the whole head.  Over these the
# gates cannot drop every sub-conjunction of a frequent query, so level-
# wise mining should find what exhaustive enumeration finds (README
# "Mining" shows a pair of items that do not mention the whole head).
WHOLE_HEAD_POOLS = {
    head: tuple(
        p
        for p in patterns
        if set(head) <= set(free_variables(parse_formula_text(p, TV_SCHEMA)))
    )
    for head, patterns in MINING_POOLS.items()
}


@st.composite
def tv_instances(draw):
    """A TV survey instance with up to 3 programs, 2 stations and 4
    listings per table; any table may be empty."""
    programs = draw(st.lists(st.sampled_from(("Gilmore", "Hockey", "Simpsons")), unique=True))
    stations = draw(st.lists(st.sampled_from(("CBS", "CBC")), unique=True))
    tables = {
        "TV-Program": [(p,) for p in programs],
        "TV-Station": [(s, draw(st.sampled_from((1, 2)))) for s in stations],
    }
    pairs = [(p, s) for p in programs for s in stations]
    for name in ("WeekdayTV", "WeekendTV"):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
        tables[name] = [
            (p, s, draw(st.sampled_from((5, 10, 15))), draw(st.sampled_from(("RBC", "Avon"))))
            for p, s in chosen
        ]
    return load_instance(TV_SCHEMA, tables)


@st.composite
def mining_cases(draw, pools=MINING_POOLS):
    """A TV instance and a bias with negation on over a 1- or 2-variable
    head, its items drawn from the pool of that head in ``pools``."""
    inst = draw(tv_instances())
    head = draw(st.sampled_from(sorted(pools)))
    pool = st.sampled_from(pools[head])
    patterns = draw(st.lists(pool, min_size=2, max_size=5, unique=True))
    items = [{"pattern": p, "negatable": draw(st.booleans())} for p in patterns]
    bias = load_bias(
        {
            "head": list(head),
            "items": items,
            "max_conjuncts": draw(st.integers(2, 3)),
            "allow_negation": True,
        },
        TV_SCHEMA,
    )
    return inst, bias
