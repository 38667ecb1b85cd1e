"""Access paths: lazily built ordered indexes and projections of one
instance's tables.

Every ``DatabaseInstance`` carries one ``AccessPath``.  It starts empty
and fills as queries read the tables, so loading an instance costs
nothing extra.  It holds two kinds of entries, neither of them specific
to one query:

* **ordered indexes** — one per (table, position): the table's rows
  sorted by ``value_key`` of their value there, so that each type's
  values form one sorted run, and where the run of strings starts.
  ``AccessPath.span`` answers ``=`` and the ordering comparisons from it
  by bisection, an atom's constant among them: the evaluator reads it
  as an ``=`` test at its position.
* **projections** — the scan of an atom without constants projected onto
  some of its columns, which is what an atom without tests reads.  An
  atom's *pattern* has one element per table position: None for a
  constant, else the position where that variable first occurs; its scan
  is the table's rows whose repeated variables agree, projected onto the
  first positions of its variables.  No key holds a query constant.

Rows are plain tuples throughout; naming columns is the evaluator's job.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .errors import DataError


def value_key(value) -> tuple:
    """The sort key of a table value: integers before strings, each type
    in its own order, so values of the two types are never compared."""
    return (type(value) is str, value)


def row_key(row: tuple) -> tuple:
    """The sort key of a row: its values' keys in order."""
    return tuple(map(value_key, row))


def one_type(values) -> bool:
    """Do the values hold at most one type?  Then their own order is
    their ``value_key`` order, which needs no key per value."""
    return len(set(map(type, values))) < 2


def sort_rows(rows) -> list[tuple]:
    """The rows, all of one width, in ``row_key`` order: their own order
    where every column holds one type."""
    width = len(next(iter(rows), ()))
    if all(one_type(map(itemgetter(i), rows)) for i in range(width)):
        return sorted(rows)
    return sorted(rows, key=row_key)


def is_plain(pattern: tuple) -> bool:
    """Does the pattern belong to an atom of distinct variables?"""
    return all(p == i for i, p in enumerate(pattern))


def project(rows, positions):
    """The tuples of each row's values at ``positions``, in the order the
    rows are iterated; iterating the same set again gives the same order,
    so the result can be zipped with the rows."""
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    if positions:
        return map(itemgetter(*positions), rows)
    return (() for _ in rows)


def select(rows, pattern: tuple):
    """The rows whose repeated variables agree, projected onto the
    pattern's variables' first positions: ``rows`` itself when the
    pattern is plain.  A constant's position is left out, not tested."""
    for i, p in enumerate(pattern):
        if p is not None and p != i:
            rows = [r for r in rows if r[i] == r[p]]
    keep = [i for i, p in enumerate(pattern) if p == i]
    if len(keep) == len(pattern):
        return rows
    return list(project(rows, keep))


class AccessPath:
    """Ordered indexes and projections over a mapping of table rows."""

    __slots__ = ("_relations", "_ordered", "_projections")

    def __init__(self, relations):
        self._relations = relations
        self._ordered: dict[tuple, tuple[list, int]] = {}
        self._projections: dict[tuple, frozenset] = {}

    def rows(self, table: str) -> frozenset:
        try:
            return self._relations[table]
        except KeyError:
            raise DataError(f"instance has no table {table!r}") from None

    def ordered(self, table: str, position: int) -> tuple[list[tuple], int]:
        """The ordered index of ``table`` at ``position``: the table's rows
        sorted by ``value_key`` of their value there, so that each type's
        values form one sorted run, and the index where strings start.  A
        column of one type sorts on its raw values."""
        key = (table, position)
        index = self._ordered.get(key)
        if index is None:
            rows = self.rows(table)
            if one_type(map(itemgetter(position), rows)):
                rows = sorted(rows, key=itemgetter(position))
                strings = 0 if rows and type(rows[0][position]) is str else len(rows)
            else:

                def keyed(row):
                    return value_key(row[position])

                rows = sorted(rows, key=keyed)
                strings = bisect_left(rows, (True, ""), key=keyed)
            index = self._ordered[key] = rows, strings
        return index

    def span(self, table: str, position: int, tests) -> tuple[list[tuple], int, int]:
        """The ordered index's rows at ``position`` and bounds ``lo`` and
        ``hi``: ``rows[lo:hi]`` are the rows whose value there passes every
        ``(op, constant)`` test, ``op`` one of ``=``, ``<``, ``>``, ``<=``
        and ``>=``, by the evaluator's comparison rules.  Only values of a
        constant's type can pass, so each test bisects within that type's
        run; an ``=`` is the run of values equal to the constant."""
        rows, strings = self.ordered(table, position)
        value_at = itemgetter(position)
        lo, hi = 0, len(rows)
        for op, value in tests:
            if type(value) is str:
                lo = max(lo, strings)
            else:
                hi = min(hi, strings)
            if lo >= hi:
                return rows, lo, lo
            if op == "=" or op == ">=":
                lo = bisect_left(rows, value, lo, hi, key=value_at)
            elif op == ">":
                lo = bisect_right(rows, value, lo, hi, key=value_at)
            if op == "=" or op == "<=":
                hi = bisect_right(rows, value, lo, hi, key=value_at)
            elif op == "<":
                hi = bisect_left(rows, value, lo, hi, key=value_at)
        return rows, lo, hi

    def projection(self, table: str, pattern: tuple, columns: tuple) -> frozenset:
        """The scan projected onto ``columns``, positions in its rows; kept
        unless it is the table's own frozenset."""
        if is_plain(pattern) and columns == tuple(range(len(pattern))):
            return self.rows(table)
        key = (table, pattern, columns)
        rows = self._projections.get(key)
        if rows is None:
            rows = frozenset(project(select(self.rows(table), pattern), columns))
            self._projections[key] = rows
        return rows
