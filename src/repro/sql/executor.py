"""Execution engine for the SQL subset.

Implements the survey's execution engine ``E(e, D) -> r``: given a parsed
query AST and an in-memory :class:`~repro.data.database.Database`, produce a
:class:`Result`.  Semantics follow SQLite where the dialect overlaps:

- three-valued logic — comparisons involving NULL are unknown, filters keep
  only rows where the predicate is true;
- aggregates skip NULLs, ``COUNT(*)`` counts rows, ``SUM``/``MAX``/... of an
  empty group is NULL, ``COUNT`` of an empty group is 0;
- a query with aggregates and no ``GROUP BY`` evaluates over one whole-table
  group (even when the table is empty);
- ``UNION``/``INTERSECT``/``EXCEPT`` are distinct; ``UNION ALL`` keeps bags;
- ascending sorts place NULLs first; ``LIKE`` is case-insensitive.

Two engines share these semantics.  :func:`execute` routes through the
compiled physical-operator plans of :mod:`repro.sql.plan` (hash joins, slot
resolution, subquery hoisting, plan caching); :func:`execute_reference` is
the original tree-walking interpreter — nested-loop joins, per-row dict
scopes, correlated subqueries re-evaluated per outer row — kept as the
differential-testing oracle the compiled engine is checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.data.database import Database, Table
from repro.data.values import Value, compare_values, sort_key
from repro.errors import ExecutionError
from repro.obs import trace as _obs_trace
from repro.sql.ast import (
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
    OrderItem,
    Query,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperation,
    Star,
    TableRef,
    UnaryOp,
    has_aggregate,
    walk,
)
from repro.sql.unparser import to_sql


@dataclass(frozen=True, slots=True)
class Result:
    """The result ``r`` of executing a query: column names plus row tuples.

    ``ordered`` records whether the query imposed an ORDER BY, which the
    execution-match metric uses to decide between sequence and multiset
    comparison.  Frozen (tuple columns and rows), so caches share it.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]
    ordered: bool = False

    def __post_init__(self) -> None:
        if type(self.columns) is not tuple:
            object.__setattr__(self, "columns", tuple(self.columns))
        if type(self.rows) is not tuple:
            object.__setattr__(self, "rows", tuple(self.rows))

    def first_value(self) -> Value:
        """The single scalar of a 1x1 result, else None."""
        if self.rows and self.rows[0]:
            return self.rows[0][0]
        return None

    def as_multiset(self) -> dict[tuple[Value, ...], int]:
        counts: dict[tuple[Value, ...], int] = {}
        for row in self.rows:
            counts[row] = counts.get(row, 0) + 1
        return counts


class _Scope:
    """One row's variable bindings, chained to an outer scope when correlated."""

    __slots__ = ("bindings", "parent")

    def __init__(
        self,
        bindings: dict[str, dict[str, Value]],
        parent: "_Scope | None" = None,
    ) -> None:
        self.bindings = bindings  # binding name -> {column -> value}
        self.parent = parent

    def lookup(self, table: str | None, column: str) -> Value:
        column = column.lower()
        scope: _Scope | None = self
        while scope is not None:
            if table is not None:
                row = scope.bindings.get(table.lower())
                if row is not None and column in row:
                    return row[column]
            else:
                hits = [
                    row[column] for row in scope.bindings.values() if column in row
                ]
                if len(hits) == 1:
                    return hits[0]
                if len(hits) > 1:
                    raise ExecutionError(f"ambiguous column reference {column!r}")
            scope = scope.parent
        qualified = f"{table}.{column}" if table else column
        raise ExecutionError(f"unknown column reference {qualified!r}")

    def binding_columns(self, table: str | None) -> list[tuple[str, str]]:
        """(binding, column) pairs visible in this scope, for star expansion."""
        pairs: list[tuple[str, str]] = []
        for binding, row in self.bindings.items():
            if table is None or binding == table.lower():
                pairs.extend((binding, column) for column in row)
        if not pairs:
            raise ExecutionError(f"cannot expand star for table {table!r}")
        return pairs


_plan_module = None
_rescache_module = None


def execute(query: Query, db: Database) -> Result:
    """Execute a parsed *query* against *db* and return its :class:`Result`.

    This is the library's main execution entry point (``E(e, D) -> r`` in
    the survey's notation).  It routes through the compiled
    physical-operator engine (:mod:`repro.sql.plan`), which caches one
    plan per (query shape, schema structure) pair, so repeated executions
    of the same query — the candidate-evaluation hot path — compile
    exactly once.  Semantics are identical to
    :func:`execute_reference`, the tree-walking oracle; the differential
    tests in ``tests/test_sql_plan.py`` enforce this.

    Raises :class:`~repro.errors.ExecutionError` (or another
    :class:`~repro.errors.SQLError` subtype) exactly where the reference
    interpreter would — including deferred errors inside subqueries.

    When tracing is enabled (:mod:`repro.obs.trace`), each call emits a
    ``repro.sql.execute`` span whose children mirror the physical
    operator tree with actual row counts; results are bit-identical
    either way (``tests/test_obs.py`` runs that differential).

    Execution routes through the versioned result cache
    (:mod:`repro.sql.rescache`): a repeat of an equal query AST against
    unchanged tables returns the cached rows without running the plan at
    all.  Tracing bypasses the cache so span trees always reflect real
    operator work.
    """
    global _plan_module, _rescache_module
    if _plan_module is None:  # lazy: plan imports this module
        from repro.sql import plan as _plan

        _plan_module = _plan
    if _obs_trace._ENABLED:
        return _execute_traced(query, db)
    if _rescache_module is None:  # lazy: rescache imports this module
        from repro.sql import rescache as _rescache

        _rescache_module = _rescache
    return _rescache_module.cached_execute(query, db)


def _execute_traced(query: Query, db: Database) -> Result:
    """The tracing-enabled twin of :func:`execute` (same results)."""
    with _obs_trace.span("repro.sql.execute") as span:
        plan = _plan_module.plan_for(query, db.schema, db)
        result, state = plan.run_traced(db)
        span.set_attr("rows", len(result.rows))
        span.set_attr("optimized", plan.optimized)
        _plan_module.attach_operator_spans(span, plan, state)
        return result


def execute_reference(query: Query, db: Database) -> Result:
    """Execute *query* with the reference tree-walking interpreter.

    This is the original engine, kept verbatim as the differential-testing
    oracle for the compiled plans.
    """
    return _execute_query(query, db, outer=None)


def _execute_query(query: Query, db: Database, outer: _Scope | None) -> Result:
    if isinstance(query, SetOperation):
        return _execute_setop(query, db, outer)
    return _execute_select(query, db, outer)


def _execute_setop(query: SetOperation, db: Database, outer: _Scope | None) -> Result:
    left = _execute_query(query.left, db, outer)
    right = _execute_query(query.right, db, outer)
    if left.columns and right.columns and len(left.columns) != len(right.columns):
        raise ExecutionError(
            f"set operation arity mismatch: {len(left.columns)} vs "
            f"{len(right.columns)}"
        )
    if query.op == "union all":
        rows = left.rows + right.rows
    elif query.op == "union":
        rows = _distinct(left.rows + right.rows)
    elif query.op == "intersect":
        right_set = set(right.rows)
        rows = _distinct([row for row in left.rows if row in right_set])
    elif query.op == "except":
        right_set = set(right.rows)
        rows = _distinct([row for row in left.rows if row not in right_set])
    else:  # pragma: no cover - parser only produces the four ops
        raise ExecutionError(f"unknown set operation {query.op!r}")
    return Result(columns=left.columns, rows=rows, ordered=False)


def _execute_select(select: Select, db: Database, outer: _Scope | None) -> Result:
    scopes = _eval_from(select.from_, db, outer)

    if select.where is not None:
        scopes = [s for s in scopes if _truthy(_eval(select.where, s, db, None))]

    aggregated = bool(select.group_by) or _select_uses_aggregates(select)

    if aggregated:
        return _execute_aggregated(select, db, scopes, outer)
    return _execute_plain(select, db, scopes, outer)


def _select_uses_aggregates(select: Select) -> bool:
    exprs: list[Expr] = [item.expr for item in select.items]
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(item.expr for item in select.order_by)
    return any(has_aggregate(e) for e in exprs)


# ----------------------------------------------------------------------
# FROM clause
# ----------------------------------------------------------------------
def _eval_from(
    clause: FromClause | None, db: Database, outer: _Scope | None
) -> list[_Scope]:
    if clause is None:
        return [_Scope(bindings={}, parent=outer)]
    rows = _eval_from_rows(clause, db, outer)
    return [_Scope(bindings=row, parent=outer) for row in rows]


def _eval_from_rows(
    clause: FromClause, db: Database, outer: _Scope | None
) -> list[dict[str, dict[str, Value]]]:
    if isinstance(clause, TableRef):
        return _table_rows(clause, db)
    if not isinstance(clause, Join):  # pragma: no cover - defensive
        raise ExecutionError(f"unsupported FROM clause {clause!r}")

    left_rows = _eval_from_rows(clause.left, db, outer)
    right_rows = _table_rows(clause.right, db)
    joined: list[dict[str, dict[str, Value]]] = []
    for left in left_rows:
        matched = False
        for right in right_rows:
            combined = {**left, **right}
            if clause.condition is not None:
                scope = _Scope(bindings=combined, parent=outer)
                if not _truthy(_eval(clause.condition, scope, db, None)):
                    continue
            matched = True
            joined.append(combined)
        if clause.kind == "left" and not matched:
            # null-pad from the schema, not from a sample row: the right
            # side may be empty, and a row-derived pad would drift if rows
            # ever carried a column subset
            joined.append({**left, **_null_binding(clause.right, db)})
    return joined


def _table_rows(ref: TableRef, db: Database) -> list[dict[str, dict[str, Value]]]:
    table: Table = db.table(ref.name)
    columns = [c.name.lower() for c in table.schema.columns]
    binding = ref.binding
    return [
        {binding: dict(zip(columns, row))}
        for row in table.rows
    ]


def _null_binding(ref: TableRef, db: Database) -> dict[str, dict[str, Value]]:
    table = db.table(ref.name)
    return {ref.binding: {c.name.lower(): None for c in table.schema.columns}}


# ----------------------------------------------------------------------
# plain (non-aggregated) SELECT
# ----------------------------------------------------------------------
def _execute_plain(
    select: Select, db: Database, scopes: list[_Scope], outer: _Scope | None
) -> Result:
    columns = _output_columns(select, scopes)
    projected: list[tuple[Value, ...]] = []
    keyed: list[tuple[list[Value], tuple[Value, ...]]] = []
    needs_alias_env = _order_by_may_use_alias(select)

    for scope in scopes:
        row = _project_row(select.items, scope, db)
        if select.order_by:
            alias_env = _alias_env(select.items, row) if needs_alias_env else None
            keys = [
                _eval(item.expr, scope, db, None, alias_env)
                for item in select.order_by
            ]
            keyed.append((keys, row))
        else:
            projected.append(row)

    if select.order_by:
        projected = _sort_rows(keyed, select.order_by)

    if select.distinct:
        projected = _distinct(projected)
    if select.limit is not None:
        projected = projected[: select.limit]
    return Result(columns=columns, rows=projected, ordered=bool(select.order_by))


def _project_row(
    items: tuple[SelectItem, ...], scope: _Scope, db: Database
) -> tuple[Value, ...]:
    values: list[Value] = []
    for item in items:
        if isinstance(item.expr, Star):
            for binding, column in scope.binding_columns(item.expr.table):
                values.append(scope.lookup(binding, column))
        else:
            values.append(_eval(item.expr, scope, db, None))
    return tuple(values)


def _order_by_may_use_alias(select: Select) -> bool:
    """Whether any ORDER BY key could resolve through the alias environment.

    Alias resolution only ever fires on a :class:`ColumnRef` (directly or as
    the fallback after a failed scope lookup), and only when some select item
    actually carries an alias — so when either condition is statically false
    the per-row ``alias_env`` rebuild is dead work.
    """
    if not any(item.alias for item in select.items):
        return False
    return any(
        isinstance(node, ColumnRef)
        for item in select.order_by
        for node in walk(item.expr)
    )


def _output_columns(select: Select, scopes: list[_Scope]) -> list[str]:
    names: list[str] = []
    for item in select.items:
        if isinstance(item.expr, Star):
            if scopes:
                names.extend(
                    f"{binding}.{column}"
                    for binding, column in scopes[0].binding_columns(item.expr.table)
                )
            else:
                names.append("*")
        elif item.alias:
            names.append(item.alias)
        else:
            names.append(to_sql(item.expr).lower())
    return names


# ----------------------------------------------------------------------
# aggregated SELECT
# ----------------------------------------------------------------------
def _execute_aggregated(
    select: Select, db: Database, scopes: list[_Scope], outer: _Scope | None
) -> Result:
    groups: list[list[_Scope]]
    if select.group_by:
        keyed_groups: dict[tuple[Value, ...], list[_Scope]] = {}
        order: list[tuple[Value, ...]] = []
        for scope in scopes:
            key = tuple(_eval(e, scope, db, None) for e in select.group_by)
            if key not in keyed_groups:
                keyed_groups[key] = []
                order.append(key)
            keyed_groups[key].append(scope)
        groups = [keyed_groups[key] for key in order]
    else:
        groups = [scopes]  # one whole-table group, even when empty

    rows: list[tuple[Value, ...]] = []
    keyed: list[tuple[list[Value], tuple[Value, ...]]] = []
    empty_scope = _Scope(bindings={}, parent=outer)
    for group in groups:
        rep = group[0] if group else empty_scope
        if select.having is not None:
            if not _truthy(_eval(select.having, rep, db, group)):
                continue
        row = tuple(_eval(item.expr, rep, db, group) for item in select.items)
        if select.order_by:
            alias_env = _alias_env(select.items, row)
            keys = [
                _eval(item.expr, rep, db, group, alias_env)
                for item in select.order_by
            ]
            keyed.append((keys, row))
        else:
            rows.append(row)

    if select.order_by:
        rows = _sort_rows(keyed, select.order_by)
    if select.distinct:
        rows = _distinct(rows)
    if select.limit is not None:
        rows = rows[: select.limit]

    columns = _aggregate_columns(select)
    return Result(columns=columns, rows=rows, ordered=bool(select.order_by))


def _aggregate_columns(select: Select) -> list[str]:
    names = []
    for item in select.items:
        names.append(item.alias if item.alias else to_sql(item.expr).lower())
    return names


def _alias_env(
    items: tuple[SelectItem, ...], row: tuple[Value, ...]
) -> dict[str, Value]:
    env: dict[str, Value] = {}
    offset = 0
    for item in items:
        if isinstance(item.expr, Star):
            # stars shift positions; alias mapping only covers non-star items
            offset += 1
            continue
        if item.alias and offset < len(row):
            env[item.alias.lower()] = row[offset]
        offset += 1
    return env


def _sort_rows(
    keyed: list[tuple[list[Value], tuple[Value, ...]]],
    order_by: tuple[OrderItem, ...],
) -> list[tuple[Value, ...]]:
    # stable multi-key sort: apply keys right-to-left
    for index in range(len(order_by) - 1, -1, -1):
        reverse = order_by[index].descending
        keyed.sort(key=lambda pair: sort_key(pair[0][index]), reverse=reverse)
    return [row for _, row in keyed]


def _distinct(rows: list[tuple[Value, ...]]) -> list[tuple[Value, ...]]:
    seen: set[tuple[Value, ...]] = set()
    out: list[tuple[Value, ...]] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------
def _truthy(value: Value) -> bool:
    return value is True or (
        not isinstance(value, bool) and value is not None and bool(value)
    )


def _eval(
    expr: Expr,
    scope: _Scope,
    db: Database,
    group: list[_Scope] | None,
    alias_env: dict[str, Value] | None = None,
) -> Value:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        if alias_env is not None and expr.table is None:
            if expr.column.lower() in alias_env:
                return alias_env[expr.column.lower()]
        try:
            return scope.lookup(expr.table, expr.column)
        except ExecutionError:
            if alias_env is not None and expr.column.lower() in alias_env:
                return alias_env[expr.column.lower()]
            raise
    if isinstance(expr, FuncCall):
        return _eval_function(expr, scope, db, group)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, scope, db, group, alias_env)
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            inner = _eval(expr.operand, scope, db, group, alias_env)
            if inner is None:
                return None
            return not _truthy(inner)
        operand = _eval(expr.operand, scope, db, group, alias_env)
        if operand is None:
            return None
        if not isinstance(operand, (int, float)):
            raise ExecutionError(f"cannot negate non-numeric value {operand!r}")
        return -operand
    if isinstance(expr, Between):
        value = _eval(expr.expr, scope, db, group, alias_env)
        low = _eval(expr.low, scope, db, group, alias_env)
        high = _eval(expr.high, scope, db, group, alias_env)
        cmp_low = compare_values(value, low)
        cmp_high = compare_values(value, high)
        if cmp_low is None or cmp_high is None:
            return None
        result = cmp_low >= 0 and cmp_high <= 0
        return (not result) if expr.negated else result
    if isinstance(expr, InList):
        return _eval_in(
            _eval(expr.expr, scope, db, group, alias_env),
            [_eval(item, scope, db, group, alias_env) for item in expr.items],
            expr.negated,
        )
    if isinstance(expr, InSubquery):
        value = _eval(expr.expr, scope, db, group, alias_env)
        sub = _execute_query(expr.query, db, scope)
        return _eval_in(value, [row[0] if row else None for row in sub.rows],
                        expr.negated)
    if isinstance(expr, Like):
        value = _eval(expr.expr, scope, db, group, alias_env)
        pattern = _eval(expr.pattern, scope, db, group, alias_env)
        if value is None or pattern is None:
            return None
        result = _like_match(str(value), str(pattern))
        return (not result) if expr.negated else result
    if isinstance(expr, IsNull):
        value = _eval(expr.expr, scope, db, group, alias_env)
        result = value is None
        return (not result) if expr.negated else result
    if isinstance(expr, Exists):
        sub = _execute_query(expr.query, db, scope)
        result = bool(sub.rows)
        return (not result) if expr.negated else result
    if isinstance(expr, ScalarSubquery):
        sub = _execute_query(expr.query, db, scope)
        return sub.rows[0][0] if sub.rows and sub.rows[0] else None
    if isinstance(expr, Star):
        raise ExecutionError("'*' is only valid in projections and COUNT(*)")
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _eval_in(value: Value, candidates: list[Value], negated: bool) -> Value:
    if value is None:
        return None
    found = False
    saw_null = False
    for candidate in candidates:
        cmp = compare_values(value, candidate)
        if cmp is None:
            saw_null = True
        elif cmp == 0:
            found = True
            break
    if found:
        return not negated if negated else True
    if saw_null:
        return None  # SQL: x IN (..., NULL) is unknown when no match
    return negated if negated else False


def _eval_binary(
    expr: BinaryOp,
    scope: _Scope,
    db: Database,
    group: list[_Scope] | None,
    alias_env: dict[str, Value] | None,
) -> Value:
    op = expr.op
    if op in ("and", "or"):
        left = _eval(expr.left, scope, db, group, alias_env)
        right = _eval(expr.right, scope, db, group, alias_env)
        return _bool3(op, left, right)
    left = _eval(expr.left, scope, db, group, alias_env)
    right = _eval(expr.right, scope, db, group, alias_env)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        cmp = compare_values(left, right)
        if cmp is None:
            return None
        return {
            "=": cmp == 0,
            "<>": cmp != 0,
            "<": cmp < 0,
            "<=": cmp <= 0,
            ">": cmp > 0,
            ">=": cmp >= 0,
        }[op]
    # arithmetic
    if left is None or right is None:
        return None
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right  # convenience string concatenation
        raise ExecutionError(
            f"arithmetic {op!r} on non-numeric values {left!r}, {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQLite: division by zero yields NULL
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"unknown operator {op!r}")  # pragma: no cover


def _bool3(op: str, left: Value, right: Value) -> Value:
    lval = None if left is None else _truthy(left)
    rval = None if right is None else _truthy(right)
    if op == "and":
        if lval is False or rval is False:
            return False
        if lval is None or rval is None:
            return None
        return True
    if lval is True or rval is True:
        return True
    if lval is None or rval is None:
        return None
    return False


def _eval_function(
    expr: FuncCall, scope: _Scope, db: Database, group: list[_Scope] | None
) -> Value:
    name = expr.name.lower()
    if expr.is_aggregate:
        if group is None:
            raise ExecutionError(
                f"aggregate {name.upper()} used outside an aggregated context"
            )
        return _eval_aggregate(expr, db, group)
    # scalar functions
    args = [_eval(a, scope, db, group) for a in expr.args]
    if name == "abs" and len(args) == 1:
        return None if args[0] is None else abs(args[0])  # type: ignore[arg-type]
    if name in ("upper", "lower") and len(args) == 1:
        if args[0] is None:
            return None
        text = str(args[0])
        return text.upper() if name == "upper" else text.lower()
    if name == "length" and len(args) == 1:
        return None if args[0] is None else len(str(args[0]))
    if name == "round":
        if not args or args[0] is None:
            return None
        digits = int(args[1]) if len(args) > 1 and args[1] is not None else 0
        return round(float(args[0]), digits)
    raise ExecutionError(f"unknown function {expr.name!r}")


def _eval_aggregate(expr: FuncCall, db: Database, group: list[_Scope]) -> Value:
    name = expr.name.lower()
    if name == "count" and (
        not expr.args or isinstance(expr.args[0], Star)
    ):
        return len(group)
    if not expr.args:
        raise ExecutionError(f"aggregate {name.upper()} requires an argument")
    arg = expr.args[0]
    values = [
        v
        for scope in group
        if (v := _eval(arg, scope, db, None)) is not None
    ]
    if expr.distinct:
        values = _distinct_values(values)
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "min":
        return min(values, key=sort_key)
    if name == "max":
        return max(values, key=sort_key)
    numbers = [float(v) if isinstance(v, bool) else v for v in values]
    if not all(isinstance(v, (int, float)) for v in numbers):
        raise ExecutionError(f"aggregate {name.upper()} over non-numeric values")
    if name == "sum":
        total = sum(numbers)  # type: ignore[arg-type]
        return total
    if name == "avg":
        return sum(numbers) / len(numbers)  # type: ignore[arg-type]
    raise ExecutionError(f"unknown aggregate {expr.name!r}")  # pragma: no cover


def _distinct_values(values: list[Value]) -> list[Value]:
    seen: set[Value] = set()
    out: list[Value] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) once per pattern.

    Shared by both engines: patterns recur across rows (and across metric
    calls), so translating and compiling per row is pure overhead.
    """
    regex = []
    for ch in pattern:
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.compile("".join(regex), flags=re.IGNORECASE)


def _like_match(text: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards, case-insensitive."""
    return _like_regex(pattern).fullmatch(text) is not None


# ----------------------------------------------------------------------
# observability: the LIKE-regex lru_cache mirrored as callback gauges
# (read lazily at snapshot time — the match hot path pays nothing)
# ----------------------------------------------------------------------
from repro.obs import metrics as _obs_metrics  # noqa: E402

_registry = _obs_metrics.get_registry()
_registry.gauge(
    "repro.sql.like_cache.size", fn=lambda: _like_regex.cache_info().currsize
)
_registry.gauge(
    "repro.sql.like_cache.max_size",
    fn=lambda: _like_regex.cache_info().maxsize,
)
_registry.gauge(
    "repro.sql.like_cache.hits", fn=lambda: _like_regex.cache_info().hits
)
_registry.gauge(
    "repro.sql.like_cache.misses", fn=lambda: _like_regex.cache_info().misses
)
