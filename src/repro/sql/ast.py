"""Typed abstract syntax tree for the SQL subset.

All nodes are immutable, slotted frozen dataclasses, so they can be hashed,
used as dictionary keys by the metrics and the plan/result caches, and shared
safely between parser outputs, dataset generators and session histories.
Collections inside nodes are tuples for the same reason.  Equality is by
value; :class:`Literal` compares its value *type-exactly*, so ``1``, ``1.0``
and ``TRUE`` are three different programs even though Python's ``1 == 1.0
== True``.

The two top-level node kinds are :class:`Select` and :class:`SetOperation`;
``Query`` is their union type alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Union

#: SQL value domain: NULL, numbers, and text.
Value = Union[None, bool, int, float, str]

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})

COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
BOOLEAN_OPS = frozenset({"and", "or"})


class Node:
    """Marker base class for all AST nodes."""

    __slots__ = ()


class Expr(Node):
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class Literal(Expr):
    """A constant value: number, string, boolean, or NULL.

    Equality and hash are type-exact: ``SELECT 1``, ``SELECT 1.0`` and
    ``SELECT TRUE`` differ in output column name and value type, so value-
    keyed caches (plan, result-key, turn history) must never alias them.
    They are sign-exact too: ``0.0 == -0.0`` in Python, but the sign shows
    in the value's text (``LIKE -0.0``, a column name).
    """

    value: Value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        mine, theirs = self.value, other.value
        return mine.__class__ is theirs.__class__ and mine == theirs and (
            mine.__class__ is not float
            or mine != 0.0
            or copysign(1.0, mine) == copysign(1.0, theirs)
        )

    def __hash__(self) -> int:
        value = self.value
        if value.__class__ is float and value == 0.0 and (
            copysign(1.0, value) < 0.0
        ):
            return hash((float, "-0.0"))
        return hash((value.__class__, value))


@dataclass(frozen=True, slots=True)
class Param(Expr):
    """A typed placeholder for a predicate literal in a plan shape.

    The parser never produces it: :mod:`repro.sql.plan` swaps the
    comparands of a query's predicates for placeholders so that queries
    differing only in those literals share one compiled plan.  ``index``
    points into the bound parameter tuple; ``kind`` is the literal's
    exact class (``type(None)`` for NULL), because compiled kernels
    specialize on it.
    """

    index: int
    kind: type


@dataclass(frozen=True, slots=True)
class ColumnRef(Expr):
    """A reference to a column, optionally qualified by table name or alias."""

    column: str
    table: str | None = None

    def key(self) -> tuple[str | None, str]:
        """Case-insensitive lookup key for scope resolution."""
        table = self.table.lower() if self.table is not None else None
        return (table, self.column.lower())


@dataclass(frozen=True, slots=True)
class Star(Expr):
    """The ``*`` projection, optionally qualified (``t.*``)."""

    table: str | None = None


@dataclass(frozen=True, slots=True)
class FuncCall(Expr):
    """A function application, e.g. ``COUNT(DISTINCT name)``."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.lower() in AGGREGATE_FUNCTIONS


@dataclass(frozen=True, slots=True)
class BinaryOp(Expr):
    """Binary operation: arithmetic, comparison, or AND/OR."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    """Unary operation: ``NOT expr`` or ``-expr``."""

    op: str
    operand: Expr


@dataclass(frozen=True, slots=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: Expr
    query: "Query"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Query"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class ScalarSubquery(Expr):
    """A parenthesized subquery used as a scalar expression."""

    query: "Query"


@dataclass(frozen=True, slots=True)
class SelectItem(Node):
    """One projection item: expression plus optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True, slots=True)
class OrderItem(Node):
    """One ORDER BY item: expression plus direction."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True, slots=True)
class TableRef(Node):
    """A base-table reference with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is visible as inside the query scope."""
        return (self.alias or self.name).lower()


@dataclass(frozen=True, slots=True)
class Join(Node):
    """A join between a from-clause prefix and one more table."""

    left: "FromClause"
    right: TableRef
    kind: str = "inner"  # "inner" or "left"
    condition: Expr | None = None


FromClause = Union[TableRef, Join]


class _QueryNode(Node):
    """Base of the top-level query nodes: remembers its structural hash.

    A query AST is hashed by every value-keyed cache it meets (the
    per-query entries the plan and result caches share, the turn key
    through session history),
    and the generated dataclass hash walks the whole tree each time.
    :func:`_cached_hash` keeps the first hash in a slot that is not a
    dataclass field, so it is neither compared nor pickled (string hashes
    differ between processes; an unpickled or copied node starts without
    one).
    """

    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", None)


def _cached_hash(cls):
    """Make *cls*'s generated field hash run once per object."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:  # a slot read: cheaper than getattr with a default
            value = self._hash
        except AttributeError:  # unpickled or copied: the slot is unset
            value = None
        if value is None:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__
    return cls


@_cached_hash
@dataclass(frozen=True, slots=True)
class Select(_QueryNode):
    """A single SELECT block."""

    items: tuple[SelectItem, ...]
    from_: FromClause | None = None
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False


@_cached_hash
@dataclass(frozen=True, slots=True)
class SetOperation(_QueryNode):
    """``left UNION [ALL] | INTERSECT | EXCEPT right``."""

    op: str
    left: "Query"
    right: "Query"


Query = Union[Select, SetOperation]


def walk(node: Node) -> list[Node]:
    """Return *node* and all AST descendants in depth-first pre-order.

    Useful for analyses that need to scan every node, e.g. aggregate
    detection, schema linking, and component decomposition.
    """
    out: list[Node] = []
    _walk_into(node, out)
    return out


def _walk_into(node: object, out: list[Node]) -> None:
    if isinstance(node, Node):
        out.append(node)
        for fname in getattr(node, "__dataclass_fields__", {}):
            _walk_into(getattr(node, fname), out)
    elif isinstance(node, tuple):
        for item in node:
            _walk_into(item, out)


def iter_selects(query: Query) -> list[Select]:
    """Return every SELECT block in *query*, including nested subqueries."""
    return [n for n in walk(query) if isinstance(n, Select)]


def from_tables(clause: FromClause | None) -> list[TableRef]:
    """Return the base-table references of a FROM clause in join order."""
    if clause is None:
        return []
    if isinstance(clause, TableRef):
        return [clause]
    return from_tables(clause.left) + [clause.right]


def has_aggregate(expr: Expr) -> bool:
    """Return True when *expr* contains an aggregate function call.

    Aggregates inside nested subqueries belong to the subquery's own SELECT
    and are deliberately not counted.
    """
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return True
        return any(has_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return has_aggregate(expr.left) or has_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return has_aggregate(expr.operand)
    if isinstance(expr, Between):
        return any(has_aggregate(e) for e in (expr.expr, expr.low, expr.high))
    if isinstance(expr, InList):
        return has_aggregate(expr.expr) or any(has_aggregate(e) for e in expr.items)
    if isinstance(expr, (InSubquery, Like, IsNull)):
        return has_aggregate(expr.expr)
    return False
