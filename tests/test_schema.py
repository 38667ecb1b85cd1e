"""Schema and instance loading."""

import csv
import os
import re
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ermine import (
    DataError,
    Schema,
    SchemaError,
    TableDecl,
    entity_fields,
    is_entity_constant,
    load_instance,
    load_instance_dir,
    load_schema,
    save_instance_dir,
)
from conftest import TV_DIR
from strategies import SCHEMAS
from test_bitsets import load_generator

TV_ENTITY_FIELDS = {
    "TV-Program.Prog-Name",
    "TV-Station.Station-Name",
    "WeekdayTV.TV-Program",
    "WeekdayTV.TV-Station",
    "WeekendTV.TV-Program",
    "WeekendTV.TV-Station",
}


def schema_doc(tables):
    return {"tables": tables}


def person_table(extra=None):
    fields = [{"name": "name", "type": "string", "key": True}]
    if extra:
        fields.extend(extra)
    return {"name": "Person", "fields": fields}


def test_tv_schema_shape(tv_schema):
    assert [t.name for t in tv_schema.tables] == [
        "TV-Program",
        "TV-Station",
        "WeekdayTV",
        "WeekendTV",
    ]
    assert tv_schema.table("WeekdayTV").arity == 4
    assert tv_schema.table("TV-Program").is_entity
    assert tv_schema.table("TV-Station").is_entity
    assert not tv_schema.table("WeekdayTV").is_entity
    assert [f.name for f in tv_schema.table("WeekendTV").key_fields] == [
        "TV-Program",
        "TV-Station",
    ]


def test_tv_entity_fields(tv_schema):
    assert entity_fields(tv_schema) == TV_ENTITY_FIELDS


def test_entity_constants(tv):
    assert {"CBS", "Simpsons"} <= tv.entity_constants
    assert is_entity_constant(tv, "CBS")
    assert not is_entity_constant(tv, "Avon")  # sponsor, not an entity field
    assert not is_entity_constant(tv, 10)
    assert tv.entity_constants == {
        "Gilmore",
        "Hockey Night",
        "Simpsons",
        "Daily Show",
        "Global",
        "CBS",
        "CBC",
    }


def _fresh_copy(schema):
    return Schema(tuple(TableDecl(t.name, t.fields) for t in schema.tables))


def _fresh_entity_fields(schema):
    """Entity fields worked out here from the declarations alone."""
    out = set()
    for t in schema.tables:
        single_key = sum(f.is_key for f in t.fields) == 1
        for f in t.fields:
            if single_key and f.is_key or f.references is not None:
                out.add(f"{t.name}.{f.name}")
    return out


@pytest.mark.parametrize("name", ["tv", *sorted(SCHEMAS)])
def test_kept_schema_facts_match_a_fresh_computation(tv_schema, name):
    schema = tv_schema if name == "tv" else SCHEMAS[name]
    filled, fresh = _fresh_copy(schema), _fresh_copy(schema)
    for _ in range(2):  # the second round reads what the first kept
        assert entity_fields(filled) == _fresh_entity_fields(schema)
        for t in schema.tables:
            kept = filled.table(t.name)
            assert kept is filled.tables[schema.tables.index(t)]
            assert filled.has_table(t.name)
            assert kept.key_fields == tuple(f for f in t.fields if f.is_key)
            assert kept.is_entity == (len(kept.key_fields) == 1)
    with pytest.raises(SchemaError, match="unknown table 'Nope'"):
        filled.table("Nope")
    assert not filled.has_table("Nope")
    # What a schema keeps takes no part in equality or hashing.
    assert filled == fresh and hash(filled) == hash(fresh)
    for kept, other in zip(filled.tables, fresh.tables):
        assert kept == other and hash(kept) == hash(other)
    assert {filled: 1}[fresh] == 1


def test_active_domain_covers_all_values(tv):
    assert tv.entity_constants <= tv.active_domain
    assert {"Avon", "La Senza", "RBC", "Schwab"} <= tv.active_domain
    assert {1, 2, 3, 6, 8, 10, 12, 14, 20} <= tv.active_domain


def test_rows_accessor(tv):
    assert ("Gilmore", "CBS", 12, "La Senza") in tv.rows("WeekdayTV")
    with pytest.raises(DataError):
        tv.rows("Nope")


def test_unknown_table_lookup(tv_schema):
    with pytest.raises(SchemaError):
        tv_schema.table("Nope")
    assert not tv_schema.has_table("Nope")


def test_schema_needs_key():
    doc = schema_doc([{"name": "T", "fields": [{"name": "x", "type": "string"}]}])
    with pytest.raises(SchemaError, match="no key"):
        load_schema(doc)


def test_schema_rejects_duplicate_tables():
    with pytest.raises(SchemaError, match="duplicate"):
        load_schema(schema_doc([person_table(), person_table()]))


def test_schema_rejects_duplicate_fields():
    doc = schema_doc(
        [
            {
                "name": "T",
                "fields": [
                    {"name": "x", "type": "string", "key": True},
                    {"name": "x", "type": "integer"},
                ],
            }
        ]
    )
    with pytest.raises(SchemaError, match="repeats field"):
        load_schema(doc)


def test_schema_rejects_unknown_type():
    doc = schema_doc([{"name": "T", "fields": [{"name": "x", "type": "float", "key": True}]}])
    with pytest.raises(SchemaError, match="unknown type"):
        load_schema(doc)


@pytest.mark.parametrize(
    "table, message",
    [
        ({"name": "T", "fields": 5}, "'fields' list"),
        ({"name": ["T"], "fields": []}, "string 'name'"),
        ({"name": "T", "fields": [{"name": 1, "type": "string"}]}, "string 'name'"),
        (
            {"name": "T", "fields": [{"name": "x", "type": "string", "references": 5}]},
            "T.x: 'references' must be a string",
        ),
        # bool("false") would make x a key.
        (
            {"name": "T", "fields": [{"name": "x", "type": "string", "key": "false"}]},
            "T.x: 'key' must be true or false",
        ),
        (
            {"name": "T", "fields": [{"name": "x", "type": "string", "key": 1}]},
            "T.x: 'key' must be true or false",
        ),
    ],
)
def test_schema_rejects_malformed_shapes(table, message):
    with pytest.raises(SchemaError, match=message):
        load_schema(schema_doc([table]))


def test_single_key_table_with_a_reference_is_an_entity_table():
    # The key decides, not the references: one key field makes an entity
    # table even when that field references another entity table.
    schema = load_schema(
        schema_doc(
            [
                person_table(),
                {
                    "name": "T",
                    "fields": [
                        {"name": "p", "type": "string", "key": True,
                         "references": "Person.name"},
                        {"name": "n", "type": "integer"},
                    ],
                },
            ]
        )
    )
    assert schema.table("T").is_entity
    assert "T.p" in entity_fields(schema)


@pytest.mark.parametrize(
    "references, message",
    [
        ("Nope.name", "unknown table"),
        ("Person", "Table.Field"),
        ("Link.a", "not an entity table"),
    ],
)
def test_schema_reference_targets(references, message):
    doc = schema_doc(
        [
            person_table(),
            {
                "name": "Link",
                "fields": [
                    {"name": "a", "type": "string", "key": True, "references": "Person.name"},
                    {"name": "b", "type": "string", "key": True, "references": references},
                ],
            },
        ]
    )
    with pytest.raises(SchemaError, match=message):
        load_schema(doc)


def test_schema_reference_type_must_match():
    doc = schema_doc(
        [
            person_table(),
            {
                "name": "Age",
                "fields": [
                    {"name": "who", "type": "integer", "key": True, "references": "Person.name"},
                ],
            },
        ]
    )
    with pytest.raises(SchemaError, match="types must match"):
        load_schema(doc)


def test_reference_to_non_key_field_rejected():
    doc = schema_doc(
        [
            person_table(extra=[{"name": "city", "type": "string"}]),
            {
                "name": "Link",
                "fields": [
                    {"name": "a", "type": "string", "key": True, "references": "Person.city"},
                ],
            },
        ]
    )
    with pytest.raises(SchemaError, match="non-key"):
        load_schema(doc)


def pair_schema():
    return load_schema(
        schema_doc(
            [
                person_table(),
                {
                    "name": "Knows",
                    "fields": [
                        {"name": "a", "type": "string", "key": True, "references": "Person.name"},
                        {"name": "b", "type": "string", "key": True, "references": "Person.name"},
                        {"name": "since", "type": "integer"},
                    ],
                },
            ]
        )
    )


def test_load_instance_happy_path():
    schema = pair_schema()
    inst = load_instance(
        schema,
        {"Person": [("ann",), ("bo",)], "Knows": [("ann", "bo", 2020)]},
    )
    assert inst.rows("Knows") == {("ann", "bo", 2020)}
    assert inst.entity_constants == {"ann", "bo"}
    assert inst.active_domain == {"ann", "bo", 2020}


def test_load_instance_arity_check():
    with pytest.raises(DataError, match="expected 1 values"):
        load_instance(pair_schema(), {"Person": [("ann", "extra")]})


def test_load_instance_type_check():
    schema = pair_schema()
    with pytest.raises(DataError, match="expects an integer"):
        load_instance(schema, {"Person": [("ann",)], "Knows": [("ann", "ann", "old")]})
    with pytest.raises(DataError, match="expects a string"):
        load_instance(schema, {"Person": [(7,)]})


def test_load_instance_rejects_bool_as_integer():
    schema = pair_schema()
    with pytest.raises(DataError, match="expects an integer"):
        load_instance(schema, {"Person": [("ann",)], "Knows": [("ann", "ann", True)]})


def test_load_instance_duplicate_key():
    schema = pair_schema()
    with pytest.raises(DataError, match="duplicate key"):
        load_instance(
            schema,
            {"Person": [("ann",), ("bo",)], "Knows": [("ann", "bo", 1), ("ann", "bo", 2)]},
        )


@pytest.mark.parametrize(
    "tables, message",
    [
        ({"Person": [("ann",), ("bo", "x")]}, "Person row 2: expected 1 values, got 2"),
        (
            {"Person": [("ann",)], "Knows": [("ann", "ann", 1), ("ann", "ann", "old")]},
            "Knows row 2: field Knows.since expects an integer, got 'old'",
        ),
        ({"Person": [("ann",), (7,)]}, "Person row 2: field Person.name expects a string, got 7"),
        (
            {"Person": [("ann",), ("bo",)], "Knows": [("ann", "bo", 1), ("ann", "bo", 2)]},
            "Knows row 2: duplicate key ('ann', 'bo')",
        ),
    ],
)
def test_load_instance_errors_name_the_row(tables, message):
    # The row's location is formatted only when a row fails.
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_instance(pair_schema(), tables)


def test_load_instance_referential_integrity():
    schema = pair_schema()
    with pytest.raises(DataError, match="no matching Person.name"):
        load_instance(schema, {"Person": [("ann",)], "Knows": [("ann", "ghost", 1)]})


def test_load_instance_rejects_undeclared_table():
    with pytest.raises(DataError, match="undeclared"):
        load_instance(pair_schema(), {"Ghost": [("x",)]})


def test_instance_dir_round_trip(tv, tmp_path):
    target = tmp_path / "data"
    save_instance_dir(tv, target)
    again = load_instance_dir(tv.schema, target)
    assert again.relations == tv.relations
    header = (target / "WeekdayTV.csv").read_text().splitlines()[0]
    assert header == "TV-Program,TV-Station,Viewers,Sponsor"


def assert_one_object_per_string(inst):
    cells = [v for rows in inst.relations.values() for row in rows for v in row if type(v) is str]
    objects = {id(v) for v in cells}
    assert len(objects) == len(set(cells))
    for value in (*inst.entity_constants, *inst.active_domain):
        if type(value) is str:
            assert id(value) in objects


def test_load_instance_dir_keeps_one_object_per_string_value(tv, tv_schema, tmp_path):
    # One pool per load, shared by every table: a program's name in
    # TV-Program and in both listing tables is one object.
    assert_one_object_per_string(tv)
    gen = load_generator()
    gen.write_csvs(gen.generate(3, 2000, 20), tmp_path)
    assert_one_object_per_string(load_instance_dir(tv_schema, tmp_path))


def test_load_instance_dir_missing_file(tv_schema, tmp_path):
    with pytest.raises(DataError, match="missing data file"):
        load_instance_dir(tv_schema, tmp_path)


def test_load_instance_dir_header_mismatch(tmp_path):
    schema = pair_schema()
    (tmp_path / "Person.csv").write_text("wrong\nann\n")
    (tmp_path / "Knows.csv").write_text("a,b,since\n")
    with pytest.raises(DataError, match="header"):
        load_instance_dir(schema, tmp_path)


def test_load_instance_dir_bad_integer_cell(tmp_path):
    # Integer cells are the query language's integer literals, -?[0-9]+,
    # not whatever int() takes.
    schema = pair_schema()
    knows = tmp_path / "Knows.csv"
    (tmp_path / "Person.csv").write_text("name\nann\nbob\n")
    for cell in ("recently", "1_0", " 1", "1 ", "+5", "\u0661\u0662", "", "-", "--1", "1.0"):
        knows.write_text(f"a,b,since\nann,ann,1\nann,bob,{cell}\n", encoding="utf-8")
        message = f"{knows} line 3: field Knows.since expects an integer, got {cell!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_instance_dir(schema, tmp_path)
    knows.write_text("a,b,since\nann,ann,-07\nann,bob,0\n")
    rows = load_instance_dir(schema, tmp_path).relations["Knows"]
    assert sorted(rows) == [("ann", "ann", -7), ("ann", "bob", 0)]


def test_integer_cell_error_names_the_file_and_line(tmp_path):
    # The location is formatted only when a cell fails; the message still
    # names the file and the line of the failing cell, after good rows.
    schema = pair_schema()
    knows = tmp_path / "Knows.csv"
    (tmp_path / "Person.csv").write_text("name\nann\nbob\n")
    rows = "".join(f"ann,bob,{n}\n" for n in range(5))
    knows.write_text(f"a,b,since\n{rows}bob,ann,x7\nbob,bob,1\n")
    message = f"{knows} line 7: field Knows.since expects an integer, got 'x7'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_instance_dir(schema, tmp_path)


def test_load_instance_dir_empty_file(tmp_path):
    schema = pair_schema()
    (tmp_path / "Person.csv").write_text("")
    (tmp_path / "Knows.csv").write_text("a,b,since\n")
    with pytest.raises(DataError, match="empty file"):
        load_instance_dir(schema, tmp_path)


def test_load_instance_dir_integer_longer_than_int_converts(tmp_path):
    # int() refuses more digits than sys.get_int_max_str_digits() (0 or
    # absent: no limit); such a cell is a bad cell, named by file and line.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = limit or 5000
    schema = pair_schema()
    knows = tmp_path / "Knows.csv"
    (tmp_path / "Person.csv").write_text("name\nann\n")
    knows.write_text(f"a,b,since\nann,ann,-{'7' * digits}\n")
    rows = load_instance_dir(schema, tmp_path).relations["Knows"]
    assert rows == {("ann", "ann", -int("7" * digits))}
    if limit:
        knows.write_text(f"a,b,since\nann,ann,1\nann,ann,-{'7' * (limit + 1)}\n")
        message = (
            f"{knows} line 3: field Knows.since expects an integer of at most "
            f"{limit} digits, got {limit + 1}"
        )
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_instance_dir(schema, tmp_path)


# -- the loader against a row-at-a-time reference ---------------------------


def reference_load(schema, tables):
    """A tests-only loader that checks one row at a time, in row order: each
    table's rows (arity, types in field order, key), then each referencing
    field's values.

    Returns (relations, entity constants, active domain) or raises the
    DataError that ``load_instance`` must raise too.
    """
    relations, in_order = {}, {}
    for t in schema.tables:
        rows, keys = set(), set()
        in_order[t.name] = [tuple(raw) for raw in tables.get(t.name, ())]
        for rno, row in enumerate(in_order[t.name], start=1):
            if len(row) != t.arity:
                raise DataError(f"{t.name} row {rno}: expected {t.arity} values, got {len(row)}")
            for f, v in zip(t.fields, row):
                want, noun = (int, "an integer") if f.value_type == "integer" else (str, "a string")
                if type(v) is not want:
                    raise DataError(
                        f"{t.name} row {rno}: field {t.name}.{f.name} expects {noun}, got {v!r}"
                    )
            key = tuple(v for f, v in zip(t.fields, row) if f.is_key)
            if key in keys:
                raise DataError(f"{t.name} row {rno}: duplicate key {key!r}")
            keys.add(key)
            rows.add(row)
        relations[t.name] = frozenset(rows)
    for t in schema.tables:
        for i, f in enumerate(t.fields):
            if f.references is None:
                continue
            tname, fname = f.references.split(".")
            j = [g.name for g in schema.table(tname).fields].index(fname)
            present = {row[j] for row in relations[tname]}
            for row in in_order[t.name]:
                if row[i] not in present:
                    raise DataError(
                        f"{t.name}.{f.name} value {row[i]!r} has no matching {f.references} row"
                    )
    efields = entity_fields(schema)
    ents = {
        v
        for t in schema.tables
        for row in relations[t.name]
        for f, v in zip(t.fields, row)
        if f"{t.name}.{f.name}" in efields
    }
    active = {v for rows in relations.values() for row in rows for v in row}
    return relations, frozenset(ents), frozenset(active)


def reference_read_csv(t, path):
    """A tests-only CSV reader that parses one row at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == [f.name for f in t.fields]
        rows = []
        for rno, cells in enumerate(reader, start=2):
            if len(cells) != t.arity:
                raise DataError(f"{path} line {rno}: expected {t.arity} values, got {len(cells)}")
            row = []
            for f, c in zip(t.fields, cells):
                if f.value_type == "integer":
                    digits = c[1:] if c[:1] == "-" else c
                    if not (c.isascii() and digits.isdigit()):
                        raise DataError(
                            f"{path} line {rno}: field {t.name}.{f.name} expects an integer, "
                            f"got {c!r}"
                        )
                    c = int(c)
                row.append(c)
            rows.append(tuple(row))
    return rows


def reference_load_dir(schema, directory):
    tables = {}
    for t in schema.tables:
        path = os.path.join(directory, f"{t.name}.csv")
        try:
            tables[t.name] = reference_read_csv(t, path)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not valid UTF-8 CSV: {exc}") from exc
    return reference_load(schema, tables)


def outcome(load, *args):
    """What a loader gives: its error message, or the instance's parts."""
    try:
        result = load(*args)
    except DataError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.relations, result.entity_constants, result.active_domain


def badge_schema():
    """People, integer-keyed badges, and who holds which badge at what level:
    string and integer keys, a composite key, and references of both types."""
    return load_schema(
        schema_doc(
            [
                person_table(),
                {
                    "name": "Badge",
                    "fields": [
                        {"name": "id", "type": "integer", "key": True},
                        {"name": "label", "type": "string"},
                    ],
                },
                {
                    "name": "Holds",
                    "fields": [
                        {"name": "who", "type": "string", "key": True,
                         "references": "Person.name"},
                        {"name": "badge", "type": "integer", "key": True,
                         "references": "Badge.id"},
                        {"name": "level", "type": "integer"},
                    ],
                },
            ]
        )
    )


BADGES = badge_schema()
FAULTS = ("arity", "type", "bool", "duplicate", "dangling")
NAMES_ST = st.text(alphabet="abé,\" ", max_size=3)
INTS_ST = st.integers(-20, 20)


@st.composite
def badge_tables(draw):
    """Fault-free tables of BADGES, rows in a drawn order."""
    people = draw(st.lists(NAMES_ST, min_size=1, max_size=5, unique=True))
    badges = draw(st.lists(INTS_ST, min_size=1, max_size=5, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(people), st.sampled_from(badges)),
                          max_size=8, unique=True))
    return {
        "Person": [(p,) for p in people],
        "Badge": [(b, draw(NAMES_ST)) for b in badges],
        "Holds": [(p, b, draw(INTS_ST)) for p, b in pairs],
    }


@st.composite
def faulty_badge_tables(draw):
    """Tables of BADGES with one fault of a drawn kind at a drawn row."""
    tables = draw(badge_tables())
    fault = draw(st.sampled_from(FAULTS))
    if fault == "dangling":
        name = "Holds"
    elif fault == "bool":
        name = draw(st.sampled_from(["Badge", "Holds"]))
    else:
        name = draw(st.sampled_from(["Person", "Badge", "Holds"]))
    rows = tables[name]
    t = BADGES.table(name)
    if fault == "duplicate":
        # A new row at position r with the key of an earlier row.
        assume(rows)
        r = draw(st.integers(1, len(rows)))
        source = rows[draw(st.integers(0, r - 1))]
        new = tuple(v if f.is_key else draw(NAMES_ST if f.value_type == "string" else INTS_ST)
                    for f, v in zip(t.fields, source))
        rows.insert(r, new)
        return tables
    assume(rows)
    r = draw(st.integers(0, len(rows) - 1))
    row = list(rows[r])
    if fault == "arity":
        row = row[:-1] if draw(st.booleans()) else row + [draw(INTS_ST | NAMES_ST)]
    elif fault == "dangling":
        i = draw(st.sampled_from([0, 1]))
        row[i] = "ghost" if i == 0 else 99
    else:
        i = draw(st.sampled_from([i for i, f in enumerate(t.fields)
                                  if fault == "type" or f.value_type == "integer"]))
        if fault == "bool":
            row[i] = draw(st.booleans())
        elif t.fields[i].value_type == "integer":
            row[i] = draw(st.sampled_from([str(row[i]), 1.0, None]))
        else:
            row[i] = draw(INTS_ST)
    rows[r] = tuple(row)
    return tables


FAULT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@FAULT_SETTINGS
@given(faulty_badge_tables())
def test_load_instance_reports_what_a_row_walk_reports(tables):
    got = outcome(load_instance, BADGES, tables)
    assert isinstance(got, str)
    assert got == outcome(reference_load, BADGES, tables)


@FAULT_SETTINGS
@given(badge_tables())
def test_load_instance_of_fault_free_tables_matches_a_row_walk(tables):
    assert outcome(load_instance, BADGES, tables) == outcome(reference_load, BADGES, tables)


def write_csvs(schema, tables, directory):
    for t in schema.tables:
        with open(os.path.join(directory, f"{t.name}.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f.name for f in t.fields])
            writer.writerows(tables[t.name])


@st.composite
def faulty_badge_files(draw):
    """Tables of BADGES as CSV rows, most of them with one fault: a short or
    long row, a bad integer cell, a duplicate key or a dangling reference."""
    tables = draw(badge_tables())
    name = draw(st.sampled_from(["Person", "Badge", "Holds"]))
    rows = tables[name]
    assume(rows)
    r = draw(st.integers(0, len(rows) - 1))
    row = list(rows[r])
    fault = draw(st.sampled_from(("none", "arity", "cell", "duplicate", "dangling")))
    if fault == "arity":
        row = row[:-1] if draw(st.booleans()) else row + [draw(NAMES_ST)]
    elif fault == "cell" and name != "Person":
        # A cell with a line break in it, quoted in the file, must fail as
        # one cell however the column's cells are tested.
        cell = st.sampled_from(["x", "1_0", " 1", "+5", "١", "", "-", "1.0", "0x1",
                                "1\n2", "7\n"])
        row[-1 if name == "Holds" else 0] = draw(cell | st.text(max_size=3))
    elif fault == "duplicate":
        row = list(rows[draw(st.integers(0, len(rows) - 1))])
    elif fault == "dangling" and name == "Holds":
        row[0] = "ghost"
    rows.insert(r, tuple(row))
    return tables


@FAULT_SETTINGS
@given(faulty_badge_files())
# Cells with a line break, which the strategy seldom draws, in a
# referenced and in a plain integer column.
@example({"Person": [("a",)], "Badge": [(1, "x"), ("7\n", "y")], "Holds": [("a", 1, 0)]})
@example({"Person": [("a",), ("b",)], "Badge": [(1, "x")],
          "Holds": [("a", 1, 5), ("b", 1, "1\n2"), ("b", 1, 6)]})
def test_load_instance_dir_reports_what_a_row_walk_reports(tables):
    with tempfile.TemporaryDirectory() as directory:
        write_csvs(BADGES, tables, directory)
        got = outcome(load_instance_dir, BADGES, directory)
        assert got == outcome(reference_load_dir, BADGES, directory)


def assert_entry_points_agree(schema, directory):
    """Loading a directory's files and loading the same rows, in file
    order, as tables give the same instance, with every relation in the
    same order: only the checks the two entry points run differ."""
    from_files = load_instance_dir(schema, directory)
    from_rows = load_instance(schema, {
        t.name: reference_read_csv(t, os.path.join(directory, f"{t.name}.csv"))
        for t in schema.tables
    })
    for t in schema.tables:
        assert list(from_files.relations[t.name]) == list(from_rows.relations[t.name])
    assert from_files.entity_constants == from_rows.entity_constants
    assert from_files.active_domain == from_rows.active_domain


@FAULT_SETTINGS
@given(badge_tables())
def test_both_entry_points_load_fault_free_tables_alike(tables):
    with tempfile.TemporaryDirectory() as directory:
        write_csvs(BADGES, tables, directory)
        assert_entry_points_agree(BADGES, directory)


def test_both_entry_points_load_the_fixture_and_a_generated_instance_alike(
    tv_schema, tmp_path
):
    assert_entry_points_agree(tv_schema, TV_DIR / "data")
    gen = load_generator()
    gen.write_csvs(gen.generate(3, 200, 20), tmp_path)
    assert_entry_points_agree(tv_schema, tmp_path)


def test_first_failing_row_wins():
    # A duplicate key at row 2 comes before a type error at row 3, and a
    # type error at row 2 before a duplicate key at row 3.
    schema = pair_schema()
    people = [("ann",), ("bo",)]
    dup_first = [("ann", "bo", 1), ("ann", "bo", 2), ("bo", "ann", "old")]
    with pytest.raises(DataError, match=r"^Knows row 2: duplicate key \('ann', 'bo'\)$"):
        load_instance(schema, {"Person": people, "Knows": dup_first})
    type_first = [("ann", "bo", 1), ("bo", "ann", "old"), ("ann", "bo", 2)]
    with pytest.raises(DataError, match="^Knows row 2: field Knows.since expects an integer"):
        load_instance(schema, {"Person": people, "Knows": type_first})
    # Every row is checked before any reference.
    with pytest.raises(DataError, match=r"^Knows row 2: duplicate key \('ghost', 'bo'\)$"):
        load_instance(schema, {"Person": people, "Knows": [("ghost", "bo", 1)] * 2})


def test_first_failing_line_wins_in_files(tmp_path):
    # Within the files, the first bad line wins: a short row on line 3
    # before a bad integer on line 4, and the other way round.
    schema = pair_schema()
    knows = tmp_path / "Knows.csv"
    (tmp_path / "Person.csv").write_text("name\nann\nbo\n")
    knows.write_text("a,b,since\nann,bo,1\nbo,ann\nann,ann,x\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{knows} line 3: expected 3 values')}"):
        load_instance_dir(schema, tmp_path)
    knows.write_text("a,b,since\nann,bo,1\nbo,ann,x\nann,ann\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{knows} line 3: field Knows.since')}"):
        load_instance_dir(schema, tmp_path)
    # A duplicate key on line 3 and a dangling reference on line 2: every
    # row is checked before any reference.
    knows.write_text("a,b,since\nghost,bo,1\nghost,bo,2\n")
    with pytest.raises(DataError, match=r"^Knows row 2: duplicate key \('ghost', 'bo'\)$"):
        load_instance_dir(schema, tmp_path)
    # Every file is parsed before keys are checked: a bad integer on line 4
    # wins over a duplicate key on line 3.
    knows.write_text("a,b,since\nann,bo,1\nann,bo,2\nbo,ann,x\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{knows} line 4: field Knows.since')}"):
        load_instance_dir(schema, tmp_path)


def test_load_instance_dir_at_size_matches_a_row_walk(tv_schema, tmp_path):
    gen = load_generator()
    gen.write_csvs(gen.generate(3, 2000, 20), tmp_path / "data")
    got = outcome(load_instance_dir, tv_schema, tmp_path / "data")
    assert got == outcome(reference_load_dir, tv_schema, tmp_path / "data")
    assert sum(map(len, got[0].values())) == 2000 + 20 + 2 * 3 * 2000
    inst = load_instance_dir(tv_schema, tmp_path / "data")
    save_instance_dir(inst, tmp_path / "again")
    assert load_instance_dir(tv_schema, tmp_path / "again").relations == inst.relations


def test_first_of_several_dangling_references_matches_a_row_walk():
    # The first dangling value in row order is reported, for integer and
    # for string values; string hashes change from process to process, so
    # set order would name a different one.
    schema = load_schema(
        schema_doc(
            [
                {"name": "Badge", "fields": [{"name": "id", "type": "integer", "key": True}]},
                {
                    "name": "Uses",
                    "fields": [
                        {"name": "badge", "type": "integer", "key": True,
                         "references": "Badge.id"},
                        {"name": "slot", "type": "integer", "key": True},
                    ],
                },
            ]
        )
    )
    badges = [(b,) for b in range(0, 101, 3)]
    for n in range(1, 60):
        uses = [(b * 7919 % 101, s) for b in range(n) for s in (n, -n)]
        tables = {"Badge": badges, "Uses": uses}
        first = next((b for b, _ in uses if b % 3), None)
        want = outcome(reference_load, schema, tables)
        assert outcome(load_instance, schema, tables) == want
        if first is not None:
            assert want == f"Uses.badge value {first} has no matching Badge.id row"
    people = [(f"p{i}",) for i in range(5)]
    for n in range(1, 30):
        ghosts = [f"ghost{i * 7 % 31}" for i in range(n)]
        holds = [(g, b, 0) for b in (1, 2) for g in ghosts]
        tables = {"Person": people, "Badge": [(1, "x"), (2, "y")], "Holds": holds}
        message = f"Holds.who value {ghosts[0]!r} has no matching Person.name row"
        assert outcome(load_instance, BADGES, tables) == message
        assert outcome(reference_load, BADGES, tables) == message


# -- every fault in the tables argument is a DataError ----------------------


@pytest.fixture
def int_digits_4300():
    """Python's default limit on the digits of an int's repr, whatever the
    process was started with."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python puts no limit on an int's digits")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


HUGE = 10**5000
HUGE_SHOWN = "an integer of more than 4300 digits"


def load_error(schema, tables):
    with pytest.raises(DataError) as exc:
        load_instance(schema, tables)
    return str(exc.value)


def test_an_int_too_long_to_show_is_described(int_digits_4300):
    people = [(f"p{i}",) for i in range(3)]
    assert load_error(BADGES, {"Person": [("p0",), (HUGE,)]}) == (
        f"Person row 2: field Person.name expects a string, got {HUGE_SHOWN}"
    )
    assert load_error(BADGES, {"Person": [((1, HUGE),)]}) == (
        f"Person row 1: field Person.name expects a string, got (1, {HUGE_SHOWN})"
    )
    assert load_error(BADGES, {"Person": [([HUGE],)]}) == (
        "Person row 1: field Person.name expects a string, got a list that cannot be shown"
    )
    badges = [(HUGE, "a"), (-HUGE, "b"), (HUGE, "c")]
    assert load_error(BADGES, {"Person": people, "Badge": badges}) == (
        f"Badge row 3: duplicate key ({HUGE_SHOWN},)"
    )
    holds = [("p0", 1, 0), ("p1", HUGE, 0)]
    tables = {"Person": people, "Badge": [(1, "a")], "Holds": holds}
    assert load_error(BADGES, tables) == (
        f"Holds.badge value {HUGE_SHOWN} has no matching Badge.id row"
    )
    # A long int outside the key is not part of a duplicate key's message.
    schema = pair_schema()
    knows = [("p0", "p1", HUGE), ("p0", "p1", 1)]
    assert load_error(schema, {"Person": people, "Knows": knows}) == (
        "Knows row 2: duplicate key ('p0', 'p1')"
    )


def test_a_table_or_row_that_is_not_iterable_is_a_data_error():
    assert load_error(BADGES, {"Person": None}) == (
        "Person: expected an iterable of rows, got None"
    )
    assert load_error(BADGES, {"Person": [("ann",)], "Badge": 7}) == (
        "Badge: expected an iterable of rows, got 7"
    )
    # A string iterates as characters, not rows.
    assert load_error(BADGES, {"Person": "ann"}) == (
        "Person: expected an iterable of rows, got 'ann'"
    )
    assert load_error(BADGES, {"Person": [("ann",)], "Badge": b"ab"}) == (
        "Badge: expected an iterable of rows, got b'ab'"
    )
    assert load_error(BADGES, {"Person": [("ann",), ("bo",), 5, None]}) == (
        "Person row 3: expected a row of values, got 5"
    )
    # A fault in an earlier row comes first, as everywhere else.
    assert load_error(BADGES, {"Person": [("ann",), ("ann",), 5]}) == (
        "Person row 2: duplicate key ('ann',)"
    )
    assert load_error(BADGES, {"Person": [("ann",), (1,), None]}) == (
        "Person row 2: field Person.name expects a string, got 1"
    )
    # Rows may be any iterables, generators included.
    rows = [(c for c in ("ann",)), ["bo"], "c", 3]
    assert load_error(BADGES, {"Person": rows}) == (
        "Person row 4: expected a row of values, got 3"
    )


def test_tables_that_are_not_a_mapping_are_a_data_error():
    assert load_error(BADGES, [("Person", [("ann",)])]) == (
        "instance data must map table names to rows, got list"
    )
    assert load_error(BADGES, None) == (
        "instance data must map table names to rows, got NoneType"
    )
    # Names that are not strings are undeclared tables, and may be mixed
    # with names that are.
    assert load_error(BADGES, {"Person": [], 2: [], "Ghost": [], None: []}) == (
        "data for undeclared tables: 2, Ghost, None"
    )


def test_a_schema_that_is_not_a_schema_is_the_callers_error():
    # Only the tables are input; a wrong schema argument is a bug in the
    # calling code, and is not reported as a fault in the data.
    with pytest.raises(AttributeError):
        load_instance(None, {"Person": [("ann",)]})
    with pytest.raises(AttributeError):
        load_instance({"tables": []}, {})
