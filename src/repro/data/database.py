"""In-memory relational store: tables of typed rows plus a schema.

The :class:`Database` is the ``D`` in the survey's problem definition: the
thing the execution engine ``E`` runs functional expressions against.  It
supports CSV round-trips (one file per table) so generated benchmarks can be
persisted and inspected, and cheap structural cloning for the test-suite
metric's database-variant fuzzing.
"""

from __future__ import annotations

import csv
import io
import pathlib
from dataclasses import dataclass, field

from repro.data.schema import Schema, TableSchema
from repro.data.values import Value, coerce_value, render_value
from repro.errors import AnalysisError


@dataclass
class Table:
    """A table's contents: the schema of its columns plus a list of rows.

    Rows are tuples aligned with ``schema.columns``.  The class is mutable
    (rows can be appended) because generators build content incrementally,
    but consumers should treat the row tuples themselves as immutable.
    """

    schema: TableSchema
    rows: list[tuple[Value, ...]] = field(default_factory=list)

    # class-level defaults, not dataclass fields: the generation and the
    # row list the last token was taken from (see cache_token)
    _version = 0
    _token_rows = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def version(self) -> int:
        """The rows' *generation*: a counter bumped by :meth:`replace_rows`,
        :meth:`invalidate_caches` and a raw swap of the ``rows`` list.

        :meth:`append` leaves it alone, so within one generation the rows
        only grow and a derived structure built over ``rows[:n]`` can
        catch up by folding in ``rows[n:]``.
        """
        return self._version

    def cache_token(self) -> tuple[int, int]:
        """Stamp identifying this table's current contents:
        ``(generation, len(rows))``.

        The contract: in place, rows only grow (through :meth:`append`).
        Any other change goes through :meth:`replace_rows`,
        :meth:`invalidate_caches` or a swap of the ``rows`` list, each of
        which starts a new generation.  So the token moves on every
        mutation, and caches of whole answers or whole-table summaries
        (result and turn caches, statistics, column batches) key on all
        of it, while access structures (indexes) key on the generation
        alone and extend themselves over appended rows.

        Raw swaps are detected by holding a strong reference to the
        last-seen list and bumping the generation when ``self.rows`` is
        no longer that object; the strong reference is what makes the
        ``is`` check sound (an earlier scheme put ``id(rows)`` in the
        token itself, but a swapped-in list can be allocated at a
        garbage-collected predecessor's address and alias its token).
        In-place mutation of an existing row tuple's slot is the one
        thing it cannot see; row tuples are immutable by contract.
        """
        rows = self.rows
        if self._token_rows is not rows:
            self._token_rows = rows
            self._version += 1
        return (self._version, len(rows))

    def invalidate_caches(self) -> None:
        """Start a new generation: every derived structure — statistics,
        indexes and column batches — rebuilds from all rows on next use."""
        self._version += 1

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, col in enumerate(self.schema.columns):
            if col.name.lower() == lowered:
                return i
        raise AnalysisError(f"table {self.name!r} has no column {name!r}")

    def column_values(self, name: str) -> list[Value]:
        """All values of one column, in row order."""
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def append(self, row: tuple[Value, ...]) -> None:
        if len(row) != len(self.schema.columns):
            raise AnalysisError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"with {len(self.schema.columns)} columns"
            )
        self.rows.append(row)

    def replace_rows(self, rows: list[tuple[Value, ...]]) -> None:
        """Swap in a whole new row list, starting a new generation."""
        self.rows = rows
        self._version += 1

    def copy(self) -> "Table":
        return Table(schema=self.schema, rows=list(self.rows))

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Database:
    """A schema plus the contents of each of its tables."""

    schema: Schema
    tables: dict[str, Table] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # normalize keys so lookups are case-insensitive
        self.tables = {name.lower(): tbl for name, tbl in self.tables.items()}
        for table_schema in self.schema.tables:
            self.tables.setdefault(
                table_schema.name.lower(), Table(schema=table_schema)
            )

    @property
    def db_id(self) -> str:
        return self.schema.db_id

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise AnalysisError(
                f"database {self.db_id!r} has no table {name!r}"
            ) from None

    def insert(self, table_name: str, row: tuple[Value, ...]) -> None:
        self.table(table_name).append(row)

    def copy(self) -> "Database":
        """Structural copy sharing schemas but not row lists."""
        return Database(
            schema=self.schema,
            tables={name: table.copy() for name, table in self.tables.items()},
        )

    def row_count(self) -> int:
        return sum(len(table) for table in self.tables.values())

    # ------------------------------------------------------------------
    # CSV persistence
    # ------------------------------------------------------------------
    def to_csv_dir(self, directory: str | pathlib.Path) -> None:
        """Write one ``<table>.csv`` per table (header row included)."""
        path = pathlib.Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        for table in self.tables.values():
            with open(path / f"{table.name}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table.schema.column_names())
                for row in table.rows:
                    writer.writerow([render_value(v) for v in row])

    @classmethod
    def from_csv_dir(cls, schema: Schema, directory: str | pathlib.Path) -> "Database":
        """Load table contents from ``<table>.csv`` files under *directory*.

        Missing files produce empty tables; cells are re-typed with
        :func:`~repro.data.values.coerce_value`.
        """
        path = pathlib.Path(directory)
        db = cls(schema=schema)
        for table_schema in schema.tables:
            file_path = path / f"{table_schema.name}.csv"
            if not file_path.exists():
                continue
            with open(file_path, newline="") as handle:
                db._load_csv(table_schema.name, handle)
        return db

    def _load_csv(self, table_name: str, handle: io.TextIOBase) -> None:
        reader = csv.reader(handle)
        header = next(reader, None)
        table = self.table(table_name)
        expected = [c.lower() for c in table.schema.column_names()]
        if header is None:
            return
        if [h.strip().lower() for h in header] != expected:
            raise AnalysisError(
                f"CSV header for table {table_name!r} does not match schema"
            )
        for row in reader:
            table.append(tuple(coerce_value(cell) for cell in row))
