"""Schema and instance loading."""

import re

import pytest

from ermine import (
    DataError,
    SchemaError,
    entity_fields,
    is_entity_constant,
    load_instance,
    load_instance_dir,
    load_schema,
    save_instance_dir,
)

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
