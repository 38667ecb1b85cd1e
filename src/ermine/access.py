"""Access paths: lazily built scans, hash indexes and projections of one
instance's tables.

Every ``DatabaseInstance`` carries one ``AccessPath``.  It starts empty
and fills as queries read the tables, so loading an instance costs
nothing extra.  It holds three kinds of entries, none of them specific
to one query:

* **scans** — the rows of a table that fit an atom's *pattern*, projected
  onto the positions of the atom's distinct variables.  A pattern has one
  element per table position: the position's value as a 1-tuple for a
  constant, else the position where that variable first occurs.  The scan
  of an atom of distinct variables is the table's own frozenset.
* **indexes** — one hash index per (table, position), mapping each value
  to the tuple of table rows holding it there, and one ordered index per
  (table, position): the table's rows sorted by ``value_key`` of their
  value there, for range selections by bisection.
* **projections** — a scan projected onto some of its columns, which is
  what a reference domain reads for an atom.

Rows are plain tuples throughout; naming columns is the evaluator's job.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import DataError


def value_key(value) -> tuple:
    """The sort key of a table value: integers before strings, each type
    in its own order, so values of the two types are never compared."""
    return (type(value) is str, value)


def row_key(row: tuple) -> tuple:
    """The sort key of a row: its values' keys in order."""
    return tuple(map(value_key, row))


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


def select(rows, pattern: tuple) -> list[tuple]:
    """The rows that fit the pattern, projected onto its variables'
    first positions; the result has no duplicates when ``rows`` has
    none."""
    for i, p in enumerate(pattern):
        if type(p) is tuple:
            rows = [r for r in rows if r[i] == p[0]]
        elif p != i:
            rows = [r for r in rows if r[i] == r[p]]
    keep = [i for i, p in enumerate(pattern) if p == i]
    if len(keep) == len(pattern):
        return list(rows)
    return list(project(rows, keep))


class AccessPath:
    """Scans, indexes and projections over a mapping of table rows."""

    __slots__ = ("_relations", "_scans", "_indexes", "_ordered", "_projections")

    def __init__(self, relations):
        self._relations = relations
        self._scans: dict[tuple, frozenset] = {}
        self._indexes: dict[tuple, dict] = {}
        self._ordered: dict[tuple, list] = {}
        self._projections: dict[tuple, frozenset] = {}

    def rows(self, table: str) -> frozenset:
        try:
            return self._relations[table]
        except KeyError:
            raise DataError(f"instance has no table {table!r}") from None

    def scan(self, table: str, pattern: tuple) -> frozenset:
        """The unfiltered scan of an atom over ``table`` with ``pattern``."""
        if is_plain(pattern):
            return self.rows(table)
        key = (table, pattern)
        rows = self._scans.get(key)
        if rows is None:
            const = next(
                (i for i, p in enumerate(pattern) if type(p) is tuple), None
            )
            if const is None:
                source = self.rows(table)
            else:
                source = self.lookup(table, const, pattern[const][0])
            rows = self._scans[key] = frozenset(select(source, pattern))
        return rows

    def lookup(self, table: str, position: int, value) -> tuple:
        """The table rows holding ``value`` at ``position``."""
        key = (table, position)
        index = self._indexes.get(key)
        if index is None:
            built: dict = {}
            for row in self.rows(table):
                built.setdefault(row[position], []).append(row)
            index = self._indexes[key] = {v: tuple(rs) for v, rs in built.items()}
        return index.get(value, ())

    def ordered(self, table: str, position: int) -> list[tuple]:
        """The table rows sorted by ``value_key`` of their value at
        ``position``, so that each type's values form one sorted run."""
        key = (table, position)
        rows = self._ordered.get(key)
        if rows is None:
            rows = self._ordered[key] = sorted(
                self.rows(table), key=lambda r: value_key(r[position])
            )
        return rows

    def projection(self, table: str, pattern: tuple, columns: tuple) -> frozenset:
        """The scan projected onto ``columns``, positions in its rows."""
        scan = self.scan(table, pattern)
        width = sum(1 for i, p in enumerate(pattern) if p == i)
        if columns == tuple(range(width)):
            return scan
        key = (table, pattern, columns)
        rows = self._projections.get(key)
        if rows is None:
            rows = self._projections[key] = frozenset(project(scan, columns))
        return rows
