"""Relational schema model: columns, tables, keys, and whole-schema graph.

The schema is the ``s`` in the survey's problem definition ``x = {q, s}``:
it is what semantic parsers link question tokens against.  The model keeps
names case-preserved but all lookups are case-insensitive, matching the SQL
substrate.  :meth:`Schema.graph` exposes the schema as a ``networkx`` graph
for the graph-encoder parser family (RAT-SQL, SADGA, LGESQL lineage).
"""

from __future__ import annotations

import enum
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

import networkx as nx

from repro.errors import AnalysisError


class ColumnType(enum.Enum):
    """Logical column type used by generators, linkers, and the analyzer."""

    NUMBER = "number"
    TEXT = "text"
    DATE = "date"  # stored as ISO-8601 text; compares lexicographically
    BOOLEAN = "boolean"

    @property
    def family(self) -> str:
        """Collapse to the executor's ``number``/``text`` families."""
        if self in (ColumnType.NUMBER, ColumnType.BOOLEAN):
            return "number"
        return "text"


@dataclass(frozen=True)
class Column:
    """A column: name, logical type, and optional human-readable synonyms.

    ``synonyms`` are alternative natural-language names ("salary" for
    column ``wage``) used by the NLG channel and by schema linkers.
    """

    name: str
    type: ColumnType = ColumnType.TEXT
    synonyms: tuple[str, ...] = ()

    def mentions(self) -> tuple[str, ...]:
        """All natural-language surface forms for this column."""
        readable = self.name.replace("_", " ").lower()
        return (readable,) + tuple(s.lower() for s in self.synonyms)


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``table.column -> ref_table.ref_column``."""

    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class TableSchema:
    """A table: name, ordered columns, optional primary key and synonyms."""

    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None
    synonyms: tuple[str, ...] = ()

    def column(self, name: str) -> Column:
        """Look up a column case-insensitively; raise AnalysisError if absent."""
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        raise AnalysisError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(col.name.lower() == lowered for col in self.columns)

    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def mentions(self) -> tuple[str, ...]:
        """All natural-language surface forms for this table."""
        readable = self.name.replace("_", " ").lower()
        return (readable,) + tuple(s.lower() for s in self.synonyms)


class SchemaStructure:
    """The interned structural fingerprint of a schema.

    ``fingerprint`` holds every table's exact name, its columns' exact
    names, order and types, and its primary key, followed by the foreign
    keys; it leaves out ``db_id``, ``domain`` and synonyms.  Schemas with
    equal fingerprints share one live object, so compare structures with
    ``is`` (equality and hash are by identity).  Plans compiled for one
    schema run on any schema of the same structure: the plan compiler
    reads nothing else from a schema.
    """

    __slots__ = ("fingerprint", "__weakref__")

    def __init__(self, fingerprint: tuple) -> None:
        self.fingerprint = fingerprint

    def __repr__(self) -> str:
        tables = ", ".join(entry[0] for entry in self.fingerprint[0])
        return f"SchemaStructure({tables})"


#: fingerprint -> its live :class:`SchemaStructure`; an entry lives as
#: long as some schema (or a cache key) holds the structure, so the map
#: stays as small as the set of structures in use
_STRUCTURES: "weakref.WeakValueDictionary[tuple, SchemaStructure]" = (
    weakref.WeakValueDictionary()
)
_STRUCTURES_LOCK = threading.Lock()


def _intern_structure(fingerprint: tuple) -> SchemaStructure:
    with _STRUCTURES_LOCK:
        structure = _STRUCTURES.get(fingerprint)
        if structure is None:
            structure = _STRUCTURES[fingerprint] = SchemaStructure(fingerprint)
        return structure


@dataclass(frozen=True)
class Schema:
    """A database schema: named tables plus foreign-key edges.

    ``db_id`` identifies the database in benchmark datasets (mirroring
    Spider's ``db_id``); ``domain`` tags the subject area for cross-domain
    dataset construction.
    """

    db_id: str
    tables: tuple[TableSchema, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()
    domain: str = "general"

    @cached_property
    def structure(self) -> SchemaStructure:
        """This schema's :class:`SchemaStructure`, computed once."""
        tables = tuple(
            (
                table.name,
                tuple((col.name, col.type) for col in table.columns),
                table.primary_key,
            )
            for table in self.tables
        )
        keys = tuple(
            (fk.table, fk.column, fk.ref_table, fk.ref_column)
            for fk in self.foreign_keys
        )
        return _intern_structure((tables, keys))

    def table(self, name: str) -> TableSchema:
        """Look up a table case-insensitively; raise AnalysisError if absent."""
        lowered = name.lower()
        for table in self.tables:
            if table.name.lower() == lowered:
                return table
        raise AnalysisError(f"schema {self.db_id!r} has no table {name!r}")

    def has_table(self, name: str) -> bool:
        lowered = name.lower()
        return any(t.name.lower() == lowered for t in self.tables)

    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def columns_of(self, table_name: str) -> tuple[Column, ...]:
        return self.table(table_name).columns

    def all_columns(self) -> list[tuple[str, Column]]:
        """All (table name, column) pairs in schema order."""
        return [(t.name, c) for t in self.tables for c in t.columns]

    def foreign_keys_between(self, left: str, right: str) -> list[ForeignKey]:
        """Foreign keys connecting *left* and *right* in either direction."""
        left_l, right_l = left.lower(), right.lower()
        found = []
        for fk in self.foreign_keys:
            pair = (fk.table.lower(), fk.ref_table.lower())
            if pair in ((left_l, right_l), (right_l, left_l)):
                found.append(fk)
        return found

    def graph(self) -> nx.Graph:
        """Schema graph: table and column nodes, membership and FK edges.

        Node names are ``"table:<name>"`` and ``"column:<table>.<col>"``;
        edge ``kind`` attributes are ``"member"``, ``"fk"``, or
        ``"primary"``.  This is the structure graph-based encoders consume.
        """
        graph = nx.Graph()
        for table in self.tables:
            tnode = f"table:{table.name.lower()}"
            graph.add_node(tnode, kind="table", label=table.name)
            for col in table.columns:
                cnode = f"column:{table.name.lower()}.{col.name.lower()}"
                graph.add_node(
                    cnode, kind="column", label=col.name, type=col.type.value
                )
                edge_kind = (
                    "primary"
                    if table.primary_key
                    and col.name.lower() == table.primary_key.lower()
                    else "member"
                )
                graph.add_edge(tnode, cnode, kind=edge_kind)
        for fk in self.foreign_keys:
            src = f"column:{fk.table.lower()}.{fk.column.lower()}"
            dst = f"column:{fk.ref_table.lower()}.{fk.ref_column.lower()}"
            if graph.has_node(src) and graph.has_node(dst):
                graph.add_edge(src, dst, kind="fk")
        return graph

    def join_path(self, left: str, right: str) -> list[str]:
        """Shortest table-level join path from *left* to *right* via FK edges.

        Returns the list of table names along the path (inclusive).  Raises
        :class:`AnalysisError` when the tables are not connected.
        """
        graph = nx.Graph()
        for table in self.tables:
            graph.add_node(table.name.lower())
        for fk in self.foreign_keys:
            graph.add_edge(fk.table.lower(), fk.ref_table.lower())
        try:
            path = nx.shortest_path(graph, left.lower(), right.lower())
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise AnalysisError(
                f"no join path between {left!r} and {right!r} in {self.db_id!r}"
            ) from exc
        return [self.table(name).name for name in path]

    def validate(self) -> None:
        """Check internal consistency; raise AnalysisError on any problem."""
        seen: set[str] = set()
        for table in self.tables:
            lowered = table.name.lower()
            if lowered in seen:
                raise AnalysisError(f"duplicate table name {table.name!r}")
            seen.add(lowered)
            col_seen: set[str] = set()
            for col in table.columns:
                if col.name.lower() in col_seen:
                    raise AnalysisError(
                        f"duplicate column {col.name!r} in table {table.name!r}"
                    )
                col_seen.add(col.name.lower())
            if table.primary_key and not table.has_column(table.primary_key):
                raise AnalysisError(
                    f"primary key {table.primary_key!r} missing from "
                    f"table {table.name!r}"
                )
        for fk in self.foreign_keys:
            self.table(fk.table).column(fk.column)
            self.table(fk.ref_table).column(fk.ref_column)
