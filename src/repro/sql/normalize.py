"""Normalization of SQL queries for string-based comparison.

``normalize_sql`` maps semantically-irrelevant surface variation onto one
canonical text: keyword casing, whitespace, identifier casing, table alias
names (renamed positionally to ``t1``, ``t2``, ...), and redundant
projection aliases are all erased.  The exact-string-match metric compares
normalized forms, which is exactly the leniency the survey attributes to
"Exact String Match" tooling in practice (it still cannot see through
semantically equivalent but structurally different queries — that is the
documented disadvantage reproduced by the Table 3 benchmark).  It is
*lenient*: two queries sharing a normalized form may differ in output
column names or (for pathological alias shadowing) even results, so it
is a comparison aid, never a cache key.
"""

from __future__ import annotations

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
    from_tables,
)
from repro.sql.parser import parse_sql
from repro.sql.unparser import to_sql


def normalize_sql(sql: str) -> str:
    """Return the canonical text of *sql* (parse, canonicalize, unparse)."""
    return to_sql(normalize_query(parse_sql(sql)))


def normalize_query(query: Query) -> Query:
    """Canonicalize a parsed query AST (see module docstring)."""
    return _norm_query(query, parent_renames={})


def _norm_query(query: Query, parent_renames: dict[str, str]) -> Query:
    if isinstance(query, SetOperation):
        return SetOperation(
            op=query.op,
            left=_norm_query(query.left, parent_renames),
            right=_norm_query(query.right, parent_renames),
        )
    return _norm_select(query, parent_renames)


def _norm_select(select: Select, parent_renames: dict[str, str]) -> Select:
    # Build the alias renaming map: every table binding becomes t<i>, in
    # FROM order; single-table queries drop the alias entirely.
    tables = from_tables(select.from_)
    renames = dict(parent_renames)
    single = len(tables) == 1
    for index, ref in enumerate(tables, start=1):
        if single:
            renames[ref.binding] = ref.name.lower()
        else:
            renames[ref.binding] = f"t{index}"

    # qualifiers are droppable only for bindings local to this single-table
    # select; correlated references to outer tables keep their qualifier.
    droppable = {ref.binding for ref in tables} if single else set()

    from_ = _norm_from(select.from_, renames, droppable)
    return Select(
        items=tuple(
            SelectItem(expr=_norm_expr(item.expr, renames, droppable), alias=None)
            for item in select.items
        ),
        from_=from_,
        where=_norm_opt(select.where, renames, droppable),
        group_by=tuple(_norm_expr(e, renames, droppable) for e in select.group_by),
        having=_norm_opt(select.having, renames, droppable),
        order_by=tuple(
            OrderItem(
                expr=_norm_expr(o.expr, renames, droppable),
                descending=o.descending,
            )
            for o in select.order_by
        ),
        limit=select.limit,
        distinct=select.distinct,
    )


def _norm_from(
    clause: FromClause | None, renames: dict[str, str], droppable: set[str]
) -> FromClause | None:
    if clause is None:
        return None
    if isinstance(clause, TableRef):
        return _norm_table(clause, renames, droppable)
    return Join(
        left=_norm_from(clause.left, renames, droppable),
        right=_norm_table(clause.right, renames, droppable),
        kind=clause.kind,
        condition=(
            _norm_expr(clause.condition, renames, droppable)
            if clause.condition is not None
            else None
        ),
    )


def _norm_table(
    ref: TableRef, renames: dict[str, str], droppable: set[str]
) -> TableRef:
    name = ref.name.lower()
    new_alias = renames.get(ref.binding)
    if ref.binding in droppable or new_alias == name:
        return TableRef(name=name, alias=None)
    return TableRef(name=name, alias=new_alias)


def _norm_opt(
    expr: Expr | None, renames: dict[str, str], droppable: set[str]
) -> Expr | None:
    return None if expr is None else _norm_expr(expr, renames, droppable)


def _norm_expr(expr: Expr, renames: dict[str, str], droppable: set[str]) -> Expr:
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, ColumnRef):
        column = expr.column.lower()
        if expr.table is None:
            return ColumnRef(column=column)
        binding = expr.table.lower()
        if binding in droppable:
            return ColumnRef(column=column)
        return ColumnRef(column=column, table=renames.get(binding, binding))
    if isinstance(expr, Star):
        if expr.table is None:
            return expr
        binding = expr.table.lower()
        if binding in droppable:
            return Star()
        return Star(table=renames.get(binding, binding))
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name.lower(),
            args=tuple(_norm_expr(a, renames, droppable) for a in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, BinaryOp):
        left = _norm_expr(expr.left, renames, droppable)
        right = _norm_expr(expr.right, renames, droppable)
        op = expr.op
        # order commutative comparisons/ops canonically: literal on the right
        if op in ("=", "<>", "+", "*", "and", "or"):
            if isinstance(left, Literal) and not isinstance(right, Literal):
                left, right = right, left
        return BinaryOp(op=op, left=left, right=right)
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_norm_expr(expr.operand, renames, droppable))
    if isinstance(expr, Between):
        return Between(
            expr=_norm_expr(expr.expr, renames, droppable),
            low=_norm_expr(expr.low, renames, droppable),
            high=_norm_expr(expr.high, renames, droppable),
            negated=expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            expr=_norm_expr(expr.expr, renames, droppable),
            items=tuple(_norm_expr(i, renames, droppable) for i in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            expr=_norm_expr(expr.expr, renames, droppable),
            query=_norm_query(expr.query, renames),
            negated=expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            expr=_norm_expr(expr.expr, renames, droppable),
            pattern=_norm_expr(expr.pattern, renames, droppable),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(
            expr=_norm_expr(expr.expr, renames, droppable), negated=expr.negated
        )
    if isinstance(expr, Exists):
        return Exists(query=_norm_query(expr.query, renames), negated=expr.negated)
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(query=_norm_query(expr.query, renames))
    return expr

