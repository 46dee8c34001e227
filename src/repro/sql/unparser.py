"""Unparser: render an AST back to canonical SQL text.

The rendering is canonical — keywords uppercase, single spaces, minimal but
unambiguous parentheses — so ``to_sql(parse_sql(to_sql(q))) == to_sql(q)``
holds for every query the parser accepts.  The exact-string-match metric and
the normalizer both rely on this canonical form.
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
    Node,
    OrderItem,
    Query,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperation,
    Star,
    TableRef,
    UnaryOp,
)

#: Larger binds tighter.  Used to decide where parentheses are required.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def to_sql(node: Node) -> str:
    """Render any AST node as canonical SQL text."""
    if isinstance(node, (Select, SetOperation)):
        return _query(node)
    if isinstance(node, (TableRef, Join)):
        return _from(node)
    if isinstance(node, SelectItem):
        return _select_item(node)
    if isinstance(node, OrderItem):
        return _order_item(node)
    if isinstance(node, Expr):
        return _expr(node, parent_prec=0)
    raise TypeError(f"cannot unparse node of type {type(node).__name__}")


def _query(query: Query) -> str:
    if isinstance(query, SetOperation):
        return f"{_query(query.left)} {query.op.upper()} {_query(query.right)}"
    return _select(query)


def _select(select: Select) -> str:
    parts = ["SELECT"]
    if select.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join([_select_item(i) for i in select.items]))
    if select.from_ is not None:
        parts.append("FROM")
        parts.append(_from(select.from_))
    if select.where is not None:
        parts.append("WHERE")
        parts.append(_expr(select.where, 0))
    if select.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join([_expr(e, 0) for e in select.group_by]))
    if select.having is not None:
        parts.append("HAVING")
        parts.append(_expr(select.having, 0))
    if select.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join([_order_item(o) for o in select.order_by]))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    return " ".join(parts)


def _select_item(item: SelectItem) -> str:
    text = _expr(item.expr, 0)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _order_item(item: OrderItem) -> str:
    direction = "DESC" if item.descending else "ASC"
    return f"{_expr(item.expr, 0)} {direction}"


def _from(clause: FromClause) -> str:
    if isinstance(clause, TableRef):
        return _table_ref(clause)
    keyword = "JOIN" if clause.kind == "inner" else "LEFT JOIN"
    text = f"{_from(clause.left)} {keyword} {_table_ref(clause.right)}"
    if clause.condition is not None:
        text += f" ON {_expr(clause.condition, 0)}"
    return text


def _table_ref(ref: TableRef) -> str:
    if ref.alias:
        return f"{ref.name} AS {ref.alias}"
    return ref.name


def _expr(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Literal):
        return _literal(expr)
    if isinstance(expr, ColumnRef):
        return f"{expr.table}.{expr.column}" if expr.table else expr.column
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, FuncCall):
        inner = ", ".join([_expr(a, 0) for a in expr.args])
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, BinaryOp):
        prec = _PRECEDENCE[expr.op]
        op = expr.op.upper() if expr.op in ("and", "or") else expr.op
        # operators here are left-associative: the right child needs parens
        # at equal precedence (a - (b - c)), the left child does not.
        text = (
            f"{_expr(expr.left, prec)} {op} {_expr(expr.right, prec + 1)}"
        )
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            text = f"NOT {_expr(expr.operand, 3)}"
            return f"({text})" if parent_prec > 2 else text
        return f"-{_expr(expr.operand, 7)}"
    if isinstance(expr, Between):
        middle = "NOT BETWEEN" if expr.negated else "BETWEEN"
        text = (
            f"{_expr(expr.expr, 5)} {middle} "
            f"{_expr(expr.low, 5)} AND {_expr(expr.high, 5)}"
        )
        return f"({text})" if parent_prec > 3 else text
    if isinstance(expr, InList):
        middle = "NOT IN" if expr.negated else "IN"
        items = ", ".join([_expr(i, 0) for i in expr.items])
        text = f"{_expr(expr.expr, 5)} {middle} ({items})"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(expr, InSubquery):
        middle = "NOT IN" if expr.negated else "IN"
        text = f"{_expr(expr.expr, 5)} {middle} ({_query(expr.query)})"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(expr, Like):
        middle = "NOT LIKE" if expr.negated else "LIKE"
        text = f"{_expr(expr.expr, 5)} {middle} {_expr(expr.pattern, 5)}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(expr, IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        text = f"{_expr(expr.expr, 5)} {middle}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(expr, Exists):
        prefix = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{prefix} ({_query(expr.query)})"
    if isinstance(expr, ScalarSubquery):
        return f"({_query(expr.query)})"
    raise TypeError(f"cannot unparse expression of type {type(expr).__name__}")


def _literal(lit: Literal) -> str:
    value = lit.value
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
