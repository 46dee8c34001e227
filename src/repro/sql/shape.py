"""Query shapes: the part of a query the compiled plan depends on.

A query's *shape* is the query with each predicate comparand swapped for
a typed :class:`~repro.sql.ast.Param`; queries that differ only in those
values share one compiled plan (:func:`repro.sql.plan.plan_for`), bound
to each query's own values.  :func:`query_entry` derives the shape, the
values and the base-table names from one walk per AST value, and is the
one per-query lookup the plan cache and the result cache share.
"""

from __future__ import annotations

import threading
from math import copysign

from repro.data.values import Value
from repro.sql.ast import (
    COMPARISON_OPS,
    Between,
    BinaryOp,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    Param,
    Query,
    ScalarSubquery,
    Select,
    SetOperation,
    Star,
    TableRef,
    UnaryOp,
)

__all__ = ["QueryEntry", "Shape", "Shaper", "clear_query_entries", "query_entry"]

#: guards inserts into and clears of the query entries
_LOCK = threading.Lock()


class Shaper:
    """One walk over a query AST that yields its *shape*.

    The shape is the query with each predicate comparand swapped for a
    typed :class:`~repro.sql.ast.Param`: a literal operand of a
    comparison, a ``BETWEEN`` bound, an ``IN``-list item or a ``LIKE``
    pattern, inside a WHERE, HAVING or JOIN ON (nested subqueries'
    included).  Every other literal stays in the shape: the compiled
    operators read it, or it names an output column.  So bare literal
    predicates (the compiler folds their truthiness), arithmetic operands,
    function arguments, and all of the projection, GROUP BY, ORDER BY and
    LIMIT — down into their subqueries, whose text becomes a column
    name — are kept.  A parameter keeps its value's exact class (NULL's
    too), because the compiled kernels specialize on it.

    The walk collects the parameter values, the base-table names, and a
    flat token list that is equal for two queries exactly when their
    shapes are: each node contributes its class name, then a fixed
    number of its scalar fields, then its children's tokens.  Tokens are
    strings, numbers, ``None`` and builtin classes, which the garbage
    collector stops tracking once it has seen them.  With ``build`` it
    also rebuilds the shape AST for the compiler; both modes visit the
    same nodes in the same order, so the parameter indexes agree.
    """

    __slots__ = ("tokens", "params", "tables", "build")

    def __init__(self, build: bool = False) -> None:
        self.tokens: list = []
        self.params: list[Value] = []
        self.tables: set[str] = set()
        self.build = build

    def query(self, query: Query, frozen: bool) -> Query:
        """Walk *query*; *frozen* keeps every literal in the shape."""
        if query.__class__ is SetOperation:
            self.tokens.extend(("SetOperation", query.op))
            left = self.query(query.left, frozen)
            right = self.query(query.right, frozen)
            if left is query.left and right is query.right:
                return query
            return SetOperation(query.op, left, right)
        select = query
        tokens = self.tokens
        tokens.extend((
            "Select", len(select.items), len(select.group_by),
            len(select.order_by), select.distinct, select.limit,
            select.from_ is None, select.where is None, select.having is None,
        ))
        for item in select.items:
            self.expr(item.expr, False)
            tokens.append(item.alias)
        for expr in select.group_by:
            self.expr(expr, False)
        for item in select.order_by:
            self.expr(item.expr, False)
            tokens.append(item.descending)
        live = not frozen
        from_ = select.from_
        if from_ is not None:
            from_ = self.from_clause(from_, live)
        where = select.where
        if where is not None:
            where = self.expr(where, live)
        having = select.having
        if having is not None:
            having = self.expr(having, live)
        if (
            from_ is select.from_
            and where is select.where
            and having is select.having
        ):
            return select
        return Select(
            select.items, from_, where, select.group_by, having,
            select.order_by, select.limit, select.distinct,
        )

    def from_clause(self, clause, live: bool):
        if clause.__class__ is TableRef:
            self.tables.add(clause.name.lower())
            self.tokens.extend(("TableRef", clause.name, clause.alias))
            return clause
        condition = clause.condition
        self.tokens.extend(("Join", clause.kind, condition is None))
        left = self.from_clause(clause.left, live)
        self.from_clause(clause.right, live)
        if condition is not None:
            condition = self.expr(condition, live)
        if left is clause.left and condition is clause.condition:
            return clause
        return Join(left, clause.right, clause.kind, condition)

    def operand(self, expr: Expr, live: bool) -> Expr:
        """A comparand: a parameter when it is a literal in a predicate."""
        if not live or expr.__class__ is not Literal:
            return self.expr(expr, live)
        value = expr.value
        kind = value.__class__
        self.tokens.extend(("Param", kind))
        self.params.append(value)
        if self.build:
            return Param(len(self.params) - 1, kind)
        return expr

    def expr(self, expr: Expr, live: bool) -> Expr:
        """Walk *expr*; *live* when it sits in a predicate of the shape."""
        tokens = self.tokens
        cls = expr.__class__
        if cls is ColumnRef:
            tokens.extend(("ColumnRef", expr.table, expr.column))
            return expr
        if cls is Literal:
            value = expr.value
            kind = value.__class__
            if kind is float and value == 0.0 and copysign(1.0, value) < 0.0:
                # equal to 0.0, but its text (a column name) differs
                kind = "-0.0"
            tokens.extend(("Literal", kind, value))
            return expr
        if cls is BinaryOp:
            op = expr.op
            tokens.extend(("BinaryOp", op))
            if op in COMPARISON_OPS:
                left = self.operand(expr.left, live)
                right = self.operand(expr.right, live)
            else:
                left = self.expr(expr.left, live)
                right = self.expr(expr.right, live)
            if left is expr.left and right is expr.right:
                return expr
            return BinaryOp(op, left, right)
        if cls is FuncCall:
            tokens.extend(("FuncCall", expr.name, expr.distinct, len(expr.args)))
            args = tuple([self.expr(arg, live) for arg in expr.args])
            if all(new is old for new, old in zip(args, expr.args)):
                return expr
            return FuncCall(expr.name, args, expr.distinct)
        if cls is Star:
            tokens.extend(("Star", expr.table))
            return expr
        if cls is UnaryOp:
            tokens.extend(("UnaryOp", expr.op))
            operand = self.expr(expr.operand, live)
            if operand is expr.operand:
                return expr
            return UnaryOp(expr.op, operand)
        if cls is Between:
            tokens.extend(("Between", expr.negated))
            value = self.expr(expr.expr, live)
            low = self.operand(expr.low, live)
            high = self.operand(expr.high, live)
            if value is expr.expr and low is expr.low and high is expr.high:
                return expr
            return Between(value, low, high, expr.negated)
        if cls is InList:
            tokens.extend(("InList", expr.negated, len(expr.items)))
            value = self.expr(expr.expr, live)
            items = tuple([self.operand(item, live) for item in expr.items])
            if value is expr.expr and all(
                new is old for new, old in zip(items, expr.items)
            ):
                return expr
            return InList(value, items, expr.negated)
        if cls is Like:
            tokens.extend(("Like", expr.negated))
            value = self.expr(expr.expr, live)
            pattern = self.operand(expr.pattern, live)
            if value is expr.expr and pattern is expr.pattern:
                return expr
            return Like(value, pattern, expr.negated)
        if cls is IsNull:
            tokens.extend(("IsNull", expr.negated))
            value = self.expr(expr.expr, live)
            if value is expr.expr:
                return expr
            return IsNull(value, expr.negated)
        if cls is InSubquery:
            tokens.extend(("InSubquery", expr.negated))
            value = self.expr(expr.expr, live)
            query = self.query(expr.query, not live)
            if value is expr.expr and query is expr.query:
                return expr
            return InSubquery(value, query, expr.negated)
        if cls is Exists:
            tokens.extend(("Exists", expr.negated))
            query = self.query(expr.query, not live)
            if query is expr.query:
                return expr
            return Exists(query, expr.negated)
        if cls is ScalarSubquery:
            tokens.append("ScalarSubquery")
            query = self.query(expr.query, not live)
            if query is expr.query:
                return expr
            return ScalarSubquery(query)
        tokens.append(expr)  # any other node: kept whole, compared by value
        return expr


class Shape:
    """A plan-cache shape key: the shaper's tokens with their hash."""

    __slots__ = ("tokens", "_hash")

    def __init__(self, tokens: tuple) -> None:
        self.tokens = tokens
        self._hash = hash(tokens)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            other.__class__ is Shape and self.tokens == other.tokens
        )


class QueryEntry:
    """What the engine derives from one query AST value, in one walk.

    ``query`` is the first AST of this value seen (the *interned* AST:
    result-cache keys hold it, so a probe with a fresh equal AST compares
    its key by identity); ``tables`` the sorted, lowercased base-table
    names it reads; ``shape`` its plan-cache shape key and ``params`` the
    predicate values that bind the shape (see :class:`Shaper`).
    ``bound`` is the plan :func:`repro.sql.plan.plan_for` last returned
    for it, so an exact repeat returns the same object.
    """

    __slots__ = ("query", "tables", "shape", "params", "bound")

    def __init__(self, query: Query) -> None:
        shaper = Shaper()
        shaper.query(query, False)
        self.query = query
        self.tables = tuple(sorted(shaper.tables))
        self.shape = Shape(tuple(shaper.tokens))
        self.params = tuple(shaper.params)
        self.bound = None


#: query AST (by value) -> its :class:`QueryEntry`.  Bounded, oldest
#: entry evicted first (before an insert, so it never holds more than
#: the bound), and emptied by :func:`repro.sql.plan.clear_plan_caches`
#: and :func:`repro.sql.rescache.clear_result_cache`.  Reads take no
#: lock: a hit is one dict probe on the query's cached hash.
_QUERY_ENTRIES: dict[Query, QueryEntry] = {}
_QUERY_ENTRIES_MAX = 512  # the plan cache's default bound


def query_entry(query: Query) -> QueryEntry:
    """The :class:`QueryEntry` of *query*'s value, walking it on a miss."""
    entry = _QUERY_ENTRIES.get(query)
    if entry is not None:
        return entry
    entry = QueryEntry(query)
    with _LOCK:
        # a racing insert of an equal AST wins: keep one interned object
        stored = _QUERY_ENTRIES.get(query)
        if stored is not None:
            return stored
        while len(_QUERY_ENTRIES) >= _QUERY_ENTRIES_MAX:
            del _QUERY_ENTRIES[next(iter(_QUERY_ENTRIES))]
        _QUERY_ENTRIES[query] = entry
    return entry


def clear_query_entries() -> None:
    """Drop every :class:`QueryEntry`."""
    with _LOCK:
        _QUERY_ENTRIES.clear()
