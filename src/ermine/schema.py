"""Schema catalog and database instances.

A schema declares tables with typed fields.  Tables whose key is a single
field are entity tables; tables with a composite key are relationship
tables.  A field may reference the key field of an entity table, which is
how cross-table entity identity is declared (and checked, rather than
assumed from field names).

Entity fields are the key fields of entity tables plus every field that
references one.  The values stored in entity fields of an instance are its
entity constants.

Schema documents are JSON:

    {"tables": [{"name": "T",
                 "fields": [{"name": "f", "type": "string",
                             "key": true, "references": "U.g"}, ...]}, ...]}

``key`` defaults to false and ``references`` to absent.  Instances are one
CSV file per table (``<table>.csv``, RFC 4180, UTF-8) whose header row must
equal the declared field names in order.  Integer fields hold unquoted
decimal integers; there are no NULLs.

An instance is built by one of two entry points, and each check runs
once.  ``load_instance_dir`` checks each file's header, each row's arity
and each integer cell as it reads them, then hands the rows to
``load_instance``, which checks only their keys and references.
``load_instance`` called on tables from anywhere else checks everything:
that the tables are a mapping of declared tables to iterables of rows,
and each row's arity and value types, then keys and references.
"""

from __future__ import annotations

import csv
import json
import os
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import NoReturn

from .access import AccessPath, sort_rows
from .errors import DataError, SchemaError
from .formulas import INTEGER_LITERAL

VALUE_TYPES = ("string", "integer")


@dataclass(frozen=True)
class FieldDecl:
    name: str
    value_type: str
    is_key: bool = False
    references: str | None = None


@dataclass(frozen=True)
class TableDecl:
    """A table's declaration.  ``key_fields`` and ``is_entity`` are
    worked out on first read and kept; they take no part in equality or
    hashing, which compare the declared name and fields only."""

    name: str
    fields: tuple[FieldDecl, ...]

    def __post_init__(self):
        if not self.fields:
            raise SchemaError(f"table {self.name!r} declares no fields")
        seen = set()
        for f in self.fields:
            if f.name in seen:
                raise SchemaError(f"table {self.name!r} repeats field {f.name!r}")
            seen.add(f.name)
            if f.value_type not in VALUE_TYPES:
                raise SchemaError(
                    f"field {self.name}.{f.name} has unknown type {f.value_type!r}"
                )
        if not self.key_fields:
            raise SchemaError(f"table {self.name!r} has no key fields")

    @cached_property
    def key_fields(self) -> tuple[FieldDecl, ...]:
        return tuple(f for f in self.fields if f.is_key)

    @property
    def arity(self) -> int:
        return len(self.fields)

    @cached_property
    def is_entity(self) -> bool:
        """Entity tables are exactly the tables with a single-field key."""
        return len(self.key_fields) == 1

    def field_named(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"table {self.name!r} has no field {name!r}")


@dataclass(frozen=True)
class Schema:
    """A schema's tables.  The name index behind ``table`` and
    ``entity_fields`` are worked out on first use and kept; they take no
    part in equality or hashing, which compare the tables only."""

    tables: tuple[TableDecl, ...]

    def __post_init__(self):
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate table names: {', '.join(dup)}")
        for t in self.tables:
            for f in t.fields:
                if f.references is None:
                    continue
                if "." not in f.references:
                    raise SchemaError(
                        f"{t.name}.{f.name}: references must be 'Table.Field', "
                        f"got {f.references!r}"
                    )
                tname, fname = f.references.split(".", 1)
                target = self._by_name.get(tname)
                if target is None:
                    raise SchemaError(
                        f"{t.name}.{f.name} references unknown table {tname!r}"
                    )
                if not target.is_entity:
                    raise SchemaError(
                        f"{t.name}.{f.name} references {f.references}, but "
                        f"{tname} is not an entity table"
                    )
                tfield = target.field_named(fname)
                if not tfield.is_key:
                    raise SchemaError(
                        f"{t.name}.{f.name} references non-key field {f.references}"
                    )
                if tfield.value_type != f.value_type:
                    raise SchemaError(
                        f"{t.name}.{f.name} ({f.value_type}) references "
                        f"{f.references} ({tfield.value_type}); types must match"
                    )

    @cached_property
    def _by_name(self) -> dict[str, TableDecl]:
        return {t.name: t for t in self.tables}

    def table(self, name: str) -> TableDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._by_name

    @cached_property
    def entity_fields(self) -> frozenset[str]:
        """``table.field`` names of all entity fields: the key fields of
        entity tables together with every field that references such a
        key."""
        out = set()
        for t in self.tables:
            for f in t.fields:
                if t.is_entity and f.is_key:
                    out.add(f"{t.name}.{f.name}")
                if f.references is not None:
                    out.add(f"{t.name}.{f.name}")
        return frozenset(out)


def entity_fields(schema: Schema) -> frozenset[str]:
    """Return ``table.field`` names of all entity fields (``Schema.entity_fields``)."""
    return schema.entity_fields


def load_schema(doc) -> Schema:
    """Build a Schema from a parsed schema document (see module docstring)."""
    if not isinstance(doc, dict) or "tables" not in doc:
        raise SchemaError("schema document must be an object with a 'tables' list")
    raw_tables = doc["tables"]
    if not isinstance(raw_tables, list):
        raise SchemaError("'tables' must be a list")
    tables = []
    for raw in raw_tables:
        if (
            not isinstance(raw, dict)
            or not isinstance(raw.get("name"), str)
            or not isinstance(raw.get("fields"), list)
        ):
            raise SchemaError("each table needs a string 'name' and a 'fields' list")
        fields = []
        for rf in raw["fields"]:
            if (
                not isinstance(rf, dict)
                or not isinstance(rf.get("name"), str)
                or "type" not in rf
            ):
                raise SchemaError(
                    f"table {raw['name']!r}: each field needs a string 'name' "
                    f"and a 'type'"
                )
            where = f"{raw['name']}.{rf['name']}"
            is_key, references = rf.get("key", False), rf.get("references")
            if not isinstance(is_key, bool):
                raise SchemaError(f"{where}: 'key' must be true or false")
            if references is not None and not isinstance(references, str):
                raise SchemaError(f"{where}: 'references' must be a string")
            fields.append(
                FieldDecl(
                    name=rf["name"],
                    value_type=rf["type"],
                    is_key=is_key,
                    references=references,
                )
            )
        tables.append(TableDecl(raw["name"], tuple(fields)))
    return Schema(tuple(tables))


def read_json_file(path, error: type[Exception]):
    """Parse a UTF-8 JSON file; bad bytes, bad syntax and nesting past the
    recursion limit raise ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def load_schema_file(path) -> Schema:
    return load_schema(read_json_file(path, SchemaError))


@dataclass(frozen=True)
class DatabaseInstance:
    """Immutable instance: one finite relation (set of tuples) per table.

    ``access`` is the evaluator's access path to the tables (see
    ``ermine.access``).  It starts empty and fills as queries run; it
    takes no part in equality or repr.
    """

    schema: Schema
    relations: dict[str, frozenset[tuple]]
    entity_constants: frozenset = field(default=frozenset(), compare=False)
    active_domain: frozenset = field(default=frozenset(), compare=False)
    access: AccessPath = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "access", AccessPath(self.relations))

    def rows(self, table: str) -> frozenset[tuple]:
        try:
            return self.relations[table]
        except KeyError:
            raise DataError(f"instance has no table {table!r}") from None


# The Python type that holds each declared value type.
_PYTHON_TYPES = {"integer": int, "string": str}

# CSV rows are checked and converted this many at a time.
_CHUNK_ROWS = 512

# Integer literals, one per line.
_INTEGER_LINES = re.compile(rf"(?:{INTEGER_LITERAL.pattern}\n)*{INTEGER_LITERAL.pattern}")


def _shown(value) -> str:
    """``repr(value)``, or a description of a value whose repr raises
    ``ValueError``: an int past ``sys.get_int_max_str_digits()``, or a
    tuple or other value holding one."""
    try:
        return repr(value)
    except ValueError:
        pass
    if type(value) is int:
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
    return f"a {type(value).__name__} that cannot be shown"


def _check_value(table: TableDecl, f: FieldDecl, value, rno: int):
    """Check the value's type; ``rno`` names its row in an error."""
    # type() rather than isinstance(): bool is a subclass of int.
    if type(value) is not _PYTHON_TYPES[f.value_type]:
        noun = "an integer" if f.value_type == "integer" else "a string"
        raise DataError(
            f"{table.name} row {rno}: field {table.name}.{f.name} expects {noun}, "
            f"got {_shown(value)}"
        )


def _raise_row_error(t: TableDecl, rows: list[tuple]) -> NoReturn:
    """Raise the error of the first failing row of ``t``, whose column
    checks failed: its arity, then its values' types in field order, then
    its key against the rows before it."""
    key_idx = [i for i, f in enumerate(t.fields) if f.is_key]
    keys_seen = set()
    for rno, row in enumerate(rows, start=1):
        if len(row) != t.arity:
            raise DataError(f"{t.name} row {rno}: expected {t.arity} values, got {len(row)}")
        for f, v in zip(t.fields, row):
            _check_value(t, f, v, rno)
        key = tuple(row[i] for i in key_idx)
        if key in keys_seen:
            raise DataError(f"{t.name} row {rno}: duplicate key {_shown(key)}")
        keys_seen.add(key)
    raise AssertionError(f"a column check of {t.name} failed that no row check fails")


def _fits(t: TableDecl, rows: list[tuple], typed: bool) -> bool:
    """Whether every row has ``t``'s arity, values of the declared types,
    and a key no other row has; checked a column at a time.  ``typed``
    rows are known to have the arity and the types, so only their keys
    are tested."""
    if not rows:
        return True
    if not typed:
        if set(map(len, rows)) != {t.arity}:
            return False
        for i, f in enumerate(t.fields):
            # type() rather than isinstance(): bool is a subclass of int.
            if set(map(type, map(itemgetter(i), rows))) != {_PYTHON_TYPES[f.value_type]}:
                return False
    key = itemgetter(*(i for i, f in enumerate(t.fields) if f.is_key))
    # Keys with distinct hashes are distinct.  A key is dropped as soon as
    # it is hashed, so a large table's keys do not wake the cyclic GC;
    # the keys themselves are compared only when two hashes meet.
    if len(set(map(hash, map(key, rows)))) == len(rows):
        return True
    return len(set(map(key, rows))) == len(rows)


def _as_rows(t: TableDecl, raw) -> list[tuple]:
    """``t``'s data as a list of row tuples; a table or a row that is not
    iterable is a DataError, reported after any fault in the rows before it.
    A ``str`` or ``bytes`` table is one too: it iterates as characters."""
    try:
        if isinstance(raw, (str, bytes)):
            raise TypeError
        items = list(raw)
    except TypeError:
        raise DataError(f"{t.name}: expected an iterable of rows, got {_shown(raw)}") from None
    rows = []
    try:
        rows.extend(map(tuple, items))
    except TypeError:
        # extend keeps the rows converted before the one that failed.
        if not _fits(t, rows, typed=False):
            _raise_row_error(t, rows)
        raise DataError(
            f"{t.name} row {len(rows) + 1}: expected a row of values, "
            f"got {_shown(items[len(rows)])}"
        ) from None
    return rows


class _ReadTables(dict):
    """Table name -> rows as ``_read_csv`` returned them: each row a tuple
    of its table's arity whose values have the declared types.
    ``strings`` is the pool that holds every string cell of every table."""

    def __init__(self, strings: dict[str, str]):
        super().__init__()
        self.strings = strings


def load_instance(schema: Schema, tables) -> DatabaseInstance:
    """Validate row data (mapping of table name to iterable of row tuples).

    Checks arity and value types per field, key uniqueness, and referential
    integrity, then computes the entity constants and the active domain.
    The checks run a column at a time; when one fails, only what failed is
    walked to report it: the table's rows in row order, or a referencing
    field's rows up to the first value with no key row.

    Tables that ``load_instance_dir`` read are taken as they are: their
    arity and types were checked cell by cell as they were read, so only
    their keys and references are checked here, and their string pool is
    the string part of the active domain.

    ``tables`` and everything in it are input, so any fault in them is a
    DataError; a ``schema`` that is not a Schema is the caller's error.
    """
    if not isinstance(tables, Mapping):
        raise DataError(
            f"instance data must map table names to rows, got {type(tables).__name__}"
        )
    read = type(tables) is _ReadTables
    extra = set(tables) - {t.name for t in schema.tables}
    if extra:
        names = sorted(n if type(n) is str else _shown(n) for n in extra)
        raise DataError(f"data for undeclared tables: {', '.join(names)}")
    efields = entity_fields(schema)
    rows_of: dict[str, list[tuple]] = {}
    relations: dict[str, frozenset[tuple]] = {}
    values_of = {}  # entity field name -> the set of its values
    active = set(tables.strings) if read else set()
    for t in schema.tables:
        rows = rows_of[t.name] = tables[t.name] if read else _as_rows(t, tables.get(t.name, ()))
        if not _fits(t, rows, typed=read):
            _raise_row_error(t, rows)
        # Through a set, as a row-at-a-time build would: its table is sized
        # to fit, and the frozenset's order is the same.
        relations[t.name] = frozenset(set(rows))
        for i, f in enumerate(t.fields):
            column = map(itemgetter(i), rows)
            if f"{t.name}.{f.name}" in efields:
                values_of[f"{t.name}.{f.name}"] = column = set(column)
            # A read table's string cells are all in its pool.
            if not read or f.value_type != "string":
                active.update(column)

    # Referential integrity: every referencing value must exist as a key
    # value of the referenced table.  The first that does not, in row
    # order, is reported.
    for t in schema.tables:
        for i, f in enumerate(t.fields):
            if f.references is None:
                continue
            keys = values_of[f.references]
            if not values_of[f"{t.name}.{f.name}"] <= keys:
                value = next(row[i] for row in rows_of[t.name] if row[i] not in keys)
                raise DataError(
                    f"{t.name}.{f.name} value {_shown(value)} has no matching "
                    f"{f.references} row"
                )

    ents = set().union(*values_of.values())
    return DatabaseInstance(schema, relations, frozenset(ents), frozenset(active))


def is_entity_constant(inst: DatabaseInstance, value) -> bool:
    return value in inst.entity_constants


def _check_cell(table: TableDecl, f: FieldDecl, cell: str, path, rno: int):
    """Check an integer field's cell; ``path`` and ``rno`` name its line in
    an error."""
    if f.value_type != "integer":
        return
    if not INTEGER_LITERAL.fullmatch(cell):
        wanted = f"an integer, got {cell!r}"
    else:
        try:
            int(cell)
            return
        except ValueError:  # past sys.get_int_max_str_digits()
            wanted = (
                f"an integer of at most {sys.get_int_max_str_digits()} digits, "
                f"got {len(cell.lstrip('-'))}"
            )
    raise DataError(f"{path} line {rno}: field {table.name}.{f.name} expects {wanted}")


def load_instance_dir(schema: Schema, directory) -> DatabaseInstance:
    """Load one ``<table>.csv`` per schema table from a directory.

    Each file's header, each row's arity and each integer cell are checked
    as the file is read (``_read_csv``); ``load_instance`` then checks
    keys and references only.  Every table's string cells go through one
    pool, made per call, so the instance holds one ``str`` object per
    distinct string value: its rows, relations, entity constants and
    active domain all share it.
    """
    strings: dict[str, str] = {}
    tables = _ReadTables(strings)
    for t in schema.tables:
        path = os.path.join(directory, f"{t.name}.csv")
        if not os.path.exists(path):
            raise DataError(f"missing data file {path}")
        try:
            tables[t.name] = _read_csv(t, path, strings)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not valid UTF-8 CSV: {exc}") from exc
    return load_instance(schema, tables)


def _check_header(t: TableDecl, path, reader):
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None
    expected = [f.name for f in t.fields]
    if header != expected:
        raise DataError(
            f"{path}: header {header!r} does not match declared fields "
            f"{expected!r}"
        )


def _raise_first_csv_error(t: TableDecl, path) -> NoReturn:
    """Read ``path`` again a row at a time and raise its first error in
    file order: a row of the wrong arity, a bad integer cell, or bad UTF-8
    or CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(t, path, reader)
        for rno, cells in enumerate(reader, start=2):
            if len(cells) != t.arity:
                raise DataError(
                    f"{path} line {rno}: expected {t.arity} values, "
                    f"got {len(cells)}"
                )
            for f, c in zip(t.fields, cells):
                _check_cell(t, f, c, path, rno)
    raise AssertionError(f"a column check of {path} failed that no row check fails")


def _converted(t: TableDecl, chunk: list[list[str]], strings: dict[str, str]):
    """The chunk's rows as tuples, converted a column at a time, or None
    when a row has the wrong arity or a bad integer cell.  Integer cells
    become ints; each string cell becomes the pooled object ``strings``
    holds for its value, added on first sight."""
    if set(map(len, chunk)) != {t.arity}:
        return None
    columns = []
    for i, f in enumerate(t.fields):
        cells = list(map(itemgetter(i), chunk))
        if f.value_type == "integer":
            # One match over the column's cells, one per line; a count of
            # the line breaks rules out a cell that holds one itself.
            joined = "\n".join(cells)
            if not _INTEGER_LINES.fullmatch(joined) or joined.count("\n") != len(cells) - 1:
                return None
            columns.append(map(int, cells))
        else:
            columns.append(map(strings.setdefault, cells, cells))
    return zip(*columns)


def _read_csv(t: TableDecl, path, strings: dict[str, str]) -> list[tuple]:
    """The rows of ``path``, checked and converted ``_CHUNK_ROWS`` rows at
    a time, so that no file's cells are all held twice.  String cells are
    pooled in ``strings``, which every file of one load shares.

    When a check fails, ``_raise_first_csv_error`` reads the file again a
    row at a time to report the first failing row.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _check_header(t, path, reader)
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                converted = _converted(t, chunk, strings)
                if converted is None:
                    break
                rows.extend(converted)
            else:  # every chunk converted
                return rows
    # int() raises ValueError past sys.get_int_max_str_digits().
    except (UnicodeDecodeError, csv.Error, ValueError):
        pass
    _raise_first_csv_error(t, path)


def save_instance_dir(inst: DatabaseInstance, directory) -> None:
    """Write one ``<table>.csv`` per table; inverse of load_instance_dir."""
    os.makedirs(directory, exist_ok=True)
    for t in inst.schema.tables:
        path = os.path.join(directory, f"{t.name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f.name for f in t.fields])
            writer.writerows(sort_rows(inst.relations[t.name]))
