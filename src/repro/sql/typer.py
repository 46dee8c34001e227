"""Static output-schema inference: result column names and types from the AST.

Where the executor discovers a result's shape by *running* the query, this
pass derives it from the AST and the :class:`~repro.data.schema.Schema`
alone — through projections, expressions, aggregates, joins (including
LEFT JOIN null padding), set operations, and subqueries.  Each output
column infers to a :class:`ColType` (number / text / bool / temporal /
null / unknown) plus a nullability flag, packaged as a
:class:`ResultSchema`.

The pass is deliberately quiet and total: unknown tables, unresolvable
columns, and unexpandable stars infer to :attr:`ColType.UNKNOWN` and mark
the schema ``incomplete`` instead of raising — scope problems are the lint
engine's job (:mod:`repro.sql.lint`).  Its main consumer is the vis lint
catalog (:mod:`repro.vis.lint`), which uses the inferred types to reject
charts that can never render *before* the SQL executes; the runtime checks
in :func:`repro.vis.spec.build_spec` stay on as backstops, and the
differential test suite asserts the two classifications agree (via
:meth:`ColType.vega`) on every query of the generated-dataset corpus.

Output-column *names* reproduce the executor's rules exactly: a star
expands to ``binding.column`` pairs, an alias is kept verbatim, and any
other expression renders as its lowercased SQL text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.data.schema import ColumnType, Schema, TableSchema
from repro.data.values import looks_temporal
from repro.sql.ast import (
    ARITHMETIC_OPS,
    Between,
    BinaryOp,
    ColumnRef,
    Exists,
    Expr,
    FromClause,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    Query,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperation,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.unparser import to_sql

__all__ = [
    "ColType",
    "OutputColumn",
    "ResultSchema",
    "infer_expr_type",
    "infer_output_schema",
]


class ColType(enum.Enum):
    """Statically inferred logical type of one result column."""

    NUMBER = "number"
    TEXT = "text"
    BOOL = "bool"
    TEMPORAL = "temporal"
    NULL = "null"
    UNKNOWN = "unknown"

    @property
    def vega(self) -> str | None:
        """The Vega-Lite field type the runtime would assign, or None.

        Mirrors :func:`repro.vis.spec.field_type`: numbers are
        ``quantitative``, ISO dates are ``temporal``, and everything else
        (text, booleans, all-NULL columns) falls back to ``nominal``.
        ``UNKNOWN`` returns None — statically undetermined.
        """
        if self is ColType.UNKNOWN:
            return None
        if self is ColType.NUMBER:
            return "quantitative"
        if self is ColType.TEMPORAL:
            return "temporal"
        return "nominal"


_COLUMN_TYPE_MAP = {
    ColumnType.NUMBER: ColType.NUMBER,
    ColumnType.TEXT: ColType.TEXT,
    ColumnType.DATE: ColType.TEMPORAL,
    ColumnType.BOOLEAN: ColType.BOOL,
}


@dataclass(frozen=True)
class OutputColumn:
    """One result column: executor-compatible name, type, nullability."""

    name: str
    type: ColType
    nullable: bool = True

    def render(self) -> str:
        suffix = "" if self.nullable else " not null"
        return f"{self.name}: {self.type.value}{suffix}"


@dataclass(frozen=True)
class ResultSchema:
    """The statically inferred output schema of one query.

    ``incomplete`` is True when some star could not be expanded (unknown
    table) — arity-sensitive consumers must not trust ``len(columns)``
    then, though the per-column types that did resolve remain valid.
    """

    columns: tuple[OutputColumn, ...]
    incomplete: bool = False

    @property
    def arity(self) -> int:
        return len(self.columns)

    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def column(self, index: int) -> OutputColumn | None:
        """The column at *index*, or None when out of range/incomplete."""
        if 0 <= index < len(self.columns):
            return self.columns[index]
        return None

    def find(self, name: str) -> OutputColumn | None:
        """Case-insensitive lookup by output-column name."""
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        return None

    def render(self) -> str:
        if not self.columns:
            return "(no columns)"
        body = ", ".join(column.render() for column in self.columns)
        return f"({body})" + (" [incomplete]" if self.incomplete else "")


# ----------------------------------------------------------------------
# binding environment
# ----------------------------------------------------------------------
#: one frame: binding name -> (table schema, padded-nullable by LEFT JOIN)
_Frame = dict[str, tuple[TableSchema, bool]]


def _collect_frame(clause: FromClause | None, schema: Schema) -> _Frame:
    """Bindings of a FROM clause; right sides of LEFT JOINs are nullable."""
    frame: _Frame = {}
    if clause is not None:
        _bind_from(clause, False, schema, frame)
    return frame


def _bind_from(
    node: FromClause, padded: bool, schema: Schema, frame: _Frame
) -> None:
    # module level, not a closure: a self-recursive closure is a
    # reference cycle that every typed query would leave to the collector
    if isinstance(node, TableRef):
        if schema.has_table(node.name):
            frame[node.binding] = (schema.table(node.name), padded)
        return
    assert isinstance(node, Join)
    _bind_from(node.left, padded, schema, frame)
    _bind_from(node.right, padded or node.kind == "left", schema, frame)


def _resolve(
    ref: ColumnRef, env: list[_Frame]
) -> tuple[TableSchema, str, bool] | None:
    """Resolve *ref* to ``(table, column name, padded)`` or None.

    Mirrors the lint engine's :class:`~repro.sql.lint.engine.Resolver`:
    qualified references search the frame stack for the binding;
    unqualified references search innermost-first and refuse ambiguity.
    """
    if ref.table is not None:
        lowered = ref.table.lower()
        for frame in reversed(env):
            if lowered in frame:
                table, padded = frame[lowered]
                if table.has_column(ref.column):
                    return (table, ref.column, padded)
                return None
        return None
    for frame in reversed(env):
        hits = [
            (table, padded)
            for table, padded in frame.values()
            if table.has_column(ref.column)
        ]
        if len(hits) > 1:
            return None  # ambiguous; the scope pass reports it
        if len(hits) == 1:
            table, padded = hits[0]
            return (table, ref.column, padded)
    return None


# ----------------------------------------------------------------------
# expression typing
# ----------------------------------------------------------------------
def infer_expr_type(
    expr: Expr, schema: Schema, env: list[_Frame]
) -> tuple[ColType, bool]:
    """Infer ``(type, nullable)`` for *expr* under the binding stack *env*."""
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return (ColType.NULL, True)
        if isinstance(value, bool):
            return (ColType.BOOL, False)
        if isinstance(value, (int, float)):
            return (ColType.NUMBER, False)
        if looks_temporal(value):
            return (ColType.TEMPORAL, False)
        return (ColType.TEXT, False)
    if isinstance(expr, ColumnRef):
        resolved = _resolve(expr, env)
        if resolved is None:
            return (ColType.UNKNOWN, True)
        table, column_name, padded = resolved
        column = table.column(column_name)
        non_null_key = (
            table.primary_key is not None
            and column.name.lower() == table.primary_key.lower()
        )
        return (_COLUMN_TYPE_MAP[column.type], padded or not non_null_key)
    if isinstance(expr, Star):
        return (ColType.UNKNOWN, True)
    if isinstance(expr, FuncCall):
        name = expr.name.lower()
        if name == "count":
            return (ColType.NUMBER, False)
        if name in ("sum", "avg"):
            # NULL over an empty (or all-NULL) input group
            return (ColType.NUMBER, True)
        if name in ("min", "max") and expr.args:
            arg_type, _ = infer_expr_type(expr.args[0], schema, env)
            return (arg_type, True)
        return (ColType.UNKNOWN, True)
    if isinstance(expr, BinaryOp):
        if expr.op in ARITHMETIC_OPS:
            left_null = infer_expr_type(expr.left, schema, env)[1]
            right_null = infer_expr_type(expr.right, schema, env)[1]
            return (ColType.NUMBER, left_null or right_null)
        return (ColType.BOOL, True)  # comparison / AND / OR
    if isinstance(expr, UnaryOp):
        operand = infer_expr_type(expr.operand, schema, env)
        if expr.op == "not":
            return (ColType.BOOL, operand[1])
        return (ColType.NUMBER, operand[1])
    if isinstance(expr, IsNull):
        return (ColType.BOOL, False)  # three-valued logic never reaches it
    if isinstance(expr, (Between, InList, InSubquery, Like, Exists)):
        return (ColType.BOOL, True)
    if isinstance(expr, ScalarSubquery):
        inner = infer_output_schema(expr.query, schema, _env=env)
        first = inner.column(0)
        if first is None:
            return (ColType.UNKNOWN, True)
        return (first.type, True)  # empty subquery yields NULL
    return (ColType.UNKNOWN, True)


# ----------------------------------------------------------------------
# query-level inference
# ----------------------------------------------------------------------
def infer_output_schema(
    query: Query, schema: Schema, _env: list[_Frame] | None = None
) -> ResultSchema:
    """Derive the :class:`ResultSchema` of *query* against *schema*.

    ``_env`` threads the outer binding stack into correlated subqueries;
    top-level callers leave it unset.
    """
    env = _env or []
    if isinstance(query, SetOperation):
        left = infer_output_schema(query.left, schema, _env=env)
        right = infer_output_schema(query.right, schema, _env=env)
        return _merge_set_operation(left, right)
    return _infer_select(query, schema, env)


def _infer_select(
    select: Select, schema: Schema, env: list[_Frame]
) -> ResultSchema:
    frame = _collect_frame(select.from_, schema)
    inner = env + [frame]
    columns: list[OutputColumn] = []
    incomplete = False
    for item in select.items:
        if isinstance(item.expr, Star):
            expanded, complete = _expand_star(item.expr, frame)
            columns.extend(expanded)
            incomplete = incomplete or not complete
            continue
        col_type, nullable = infer_expr_type(item.expr, schema, inner)
        columns.append(
            OutputColumn(
                name=_output_name(item), type=col_type, nullable=nullable
            )
        )
    return ResultSchema(columns=tuple(columns), incomplete=incomplete)


def _expand_star(
    star: Star, frame: _Frame
) -> tuple[list[OutputColumn], bool]:
    """Expand a (possibly qualified) star; False when its table is unknown."""
    if star.table is not None:
        entry = frame.get(star.table.lower())
        pairs = [(star.table.lower(), entry)] if entry is not None else []
    else:
        pairs = list(frame.items())
    if not pairs:
        return ([], False)
    columns: list[OutputColumn] = []
    for binding, (table, padded) in pairs:
        for column in table.columns:
            non_null_key = (
                table.primary_key is not None
                and column.name.lower() == table.primary_key.lower()
            )
            columns.append(
                OutputColumn(
                    name=f"{binding}.{column.name.lower()}",
                    type=_COLUMN_TYPE_MAP[column.type],
                    nullable=padded or not non_null_key,
                )
            )
    return (columns, True)


def _output_name(item: SelectItem) -> str:
    """The executor's output-column name for a non-star projection item."""
    if item.alias:
        return item.alias
    return to_sql(item.expr).lower()


def _merge_set_operation(
    left: ResultSchema, right: ResultSchema
) -> ResultSchema:
    """Positional merge: names from the left branch, types unified.

    Equal types keep; a NULL branch defers to the other (its rows only add
    NULLs); anything else degrades to UNKNOWN.  Arity mismatches are the
    scope pass's E107 — the merge just takes the left arity.
    """
    merged: list[OutputColumn] = []
    for index, left_col in enumerate(left.columns):
        right_col = right.column(index)
        if right_col is None:
            merged.append(left_col)
            continue
        if left_col.type is right_col.type:
            unified = left_col.type
        elif left_col.type is ColType.NULL:
            unified = right_col.type
        elif right_col.type is ColType.NULL:
            unified = left_col.type
        else:
            unified = ColType.UNKNOWN
        merged.append(
            OutputColumn(
                name=left_col.name,
                type=unified,
                nullable=left_col.nullable or right_col.nullable,
            )
        )
    return ResultSchema(
        columns=tuple(merged),
        incomplete=left.incomplete or right.incomplete,
    )
