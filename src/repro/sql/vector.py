"""Columnar vectorized execution kernels for the compiled plan engine.

The row-compiled engine of :mod:`repro.sql.plan` evaluates one Python
tuple at a time through chains of per-row closures.  This module provides
the columnar alternative: a :class:`ColumnBatch` holds one Python list per
column (built lazily from a :class:`~repro.data.database.Table` and cached
on it, stamped with :meth:`Table.cache_token`), and *kernels* — closures
over whole column arrays — evaluate filter predicates, group keys, and
aggregates in tight list comprehensions instead of per-row call chains.

Three kernel families:

- **predicate kernels** (:func:`compile_predicate`) take a batch, a
  selection vector (row indices) and the plan's bound parameters, and
  return the subset of indices where the predicate is TRUE under
  three-valued logic.  A kernel over a parameter specializes on its
  class at compile time and reads its value once per call.  Only
  *statically safe* expressions compile — the same subset
  :func:`repro.sql.plan._analyze_safe` admits for filter pushdown
  (comparisons, AND/OR/NOT, BETWEEN, IN-lists, LIKE, IS NULL over plain
  columns, literals and parameters) — so a kernel can never raise and
  short-circuit selection is invisible except in speed;
- **value kernels** (:func:`compile_value`) return one value per selected
  row with the reference engine's exact three-valued semantics; they back
  the generic predicate paths (NOT, column-to-column comparisons);
- **aggregation kernels** (:func:`grouped_rows` / :func:`aggregate_column`)
  bucket rows by packed group-key tuples and fold each aggregate over a
  member bucket, mirroring the interpreter's NULL-skipping, DISTINCT, and
  non-numeric error behaviour bit for bit.

Every fast path is an exact specialization of
:func:`repro.data.values.compare_values` / the executor's helpers for the
value families this library admits (None, bool, int, float, str); the
three-way differential tests in ``tests/test_sql_vector.py`` enforce
agreement with both the row-compiled engine and the reference interpreter
over the generated corpora.

``compile_query(..., vectorize=False)`` compiles one plan without any
of these kernels: the row plans that the differential tests compare
against and that the execute ladder's degradation rung runs.  The
``repro.sql.vector.batches`` counter tallies vectorized batch executions
and ``repro.sql.vector.fallbacks`` tallies operators that were eligible
but fell back to row-at-a-time at compile time.
"""

from __future__ import annotations

import weakref
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.data.database import Table
from repro.data.values import (
    Value,
    compare_values,
    max_value,
    min_value,
    sum_operands,
)
from repro.errors import ExecutionError
from repro.obs import metrics as _obs_metrics
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    UnaryOp,
)
from repro.sql.executor import (
    _bool3,
    _distinct_values,
    _eval_in,
    _like_match,
    _truthy,
)

__all__ = [
    "ColumnBatch",
    "column_batch",
    "compile_predicate",
    "compile_value",
    "grouped_rows",
    "aggregate_column",
]


_registry = _obs_metrics.get_registry()
#: One increment per vectorized batch executed (a scan's filter pass, a
#: grouped aggregation, a hash-join build+probe).
BATCHES = _registry.counter("repro.sql.vector.batches")
#: One increment per operator of a vectorized plan that was eligible for
#: vectorization but fell back to the row engine at compile time.
FALLBACKS = _registry.counter("repro.sql.vector.fallbacks")


# ----------------------------------------------------------------------
# columnar batch representation
# ----------------------------------------------------------------------
class ColumnBatch:
    """One Python list per column over a snapshot of a table's rows.

    Columns materialize lazily — a predicate over two of ten columns only
    ever transposes those two — and are shared by every kernel run against
    the same table contents via the :func:`column_batch` cache.
    """

    __slots__ = ("rows", "_columns", "__weakref__")

    def __init__(self, rows: list[tuple[Value, ...]], width: int) -> None:
        self.rows = rows
        self._columns: list[list[Value] | None] = [None] * width

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, slot: int) -> list[Value]:
        """The column array for *slot*, transposed on first access."""
        col = self._columns[slot]
        if col is None:
            col = self._columns[slot] = [row[slot] for row in self.rows]
        return col

    def materialized_columns(self) -> int:
        """How many columns have been transposed so far (for the gauges)."""
        return sum(1 for col in self._columns if col is not None)


#: Every live batch, tracked weakly: a batch stays alive exactly as long
#: as some table's ``_column_batch`` slot (or a kernel mid-flight) holds
#: it, so the set's size *is* the batch-cache occupancy.
_LIVE_BATCHES: "weakref.WeakSet[ColumnBatch]" = weakref.WeakSet()


def column_batch(table: Table) -> ColumnBatch:
    """The cached :class:`ColumnBatch` for *table*'s current contents.

    Keyed by :meth:`Table.cache_token`, so any mutation — ``append``,
    ``replace_rows``, or a raw swap of the ``rows`` list — retires the
    batch exactly like the statistics and index caches.
    """
    token = table.cache_token()
    cached = getattr(table, "_column_batch", None)
    if cached is not None and cached[0] == token:
        return cached[1]
    batch = ColumnBatch(table.rows, len(table.schema.columns))
    _LIVE_BATCHES.add(batch)
    table._column_batch = (token, batch)
    return batch


def batch_cache_stats() -> dict[str, int]:
    """Occupancy of the per-table batch cache (live batches / columns)."""
    batches = list(_LIVE_BATCHES)
    return {
        "entries": len(batches),
        "materialized_columns": sum(
            b.materialized_columns() for b in batches
        ),
    }


_registry.gauge(
    "repro.sql.vector.batch_cache.entries",
    fn=lambda: len(_LIVE_BATCHES),
)
_registry.gauge(
    "repro.sql.vector.batch_cache.materialized_columns",
    fn=lambda: sum(b.materialized_columns() for b in list(_LIVE_BATCHES)),
)


# ----------------------------------------------------------------------
# predicate kernels
# ----------------------------------------------------------------------
#: ``fn(batch, sel, params) -> list[int]``: indices of *sel* where the
#: predicate is TRUE (three-valued: FALSE and UNKNOWN rows are dropped
#: alike).  *params* is the plan's bound parameter tuple; a kernel over a
#: :class:`~repro.sql.ast.Param` reads its value once per call.
PredicateKernel = Callable[[ColumnBatch, Iterable[int], tuple], list[int]]
#: ``fn(batch, sel, params) -> list[Value]``: one value per selected row.
ValueKernel = Callable[[ColumnBatch, Iterable[int], tuple], list[Value]]

_SlotOf = Callable[[ColumnRef], "int | None"]

_CMP_TESTS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_NUM = (int, float)  # includes bool, matching compare_values' number family
_NULL = type(None)


def _empty(batch: ColumnBatch, sel, params) -> list[int]:
    return []


def _slot(expr: Expr, slot_of: _SlotOf) -> int | None:
    if isinstance(expr, ColumnRef):
        return slot_of(expr)
    return None


def _operand(expr: Expr):
    """``(kind, read, fixed)`` for a literal or parameter operand.

    ``kind`` is the value's exact class and ``read(params)`` returns the
    value: a literal's own (``fixed``), or the bound parameter's.
    Anything else gives ``None``.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return value.__class__, (lambda params: value), True
    if isinstance(expr, Param):
        return expr.kind, itemgetter(expr.index), False
    return None


def _as_number(value: Value) -> Value:
    return int(value) if value.__class__ is bool else value


def _bind_column(rows_fn, slot: int, read, fixed: bool) -> PredicateKernel:
    """Kernel ``rows_fn(column, sel, read(params))`` over column *slot*.

    The argument is read once per call, or once here when *fixed*.
    """
    if fixed:
        arg = read(())
        return lambda b, sel, params: (
            rows_fn(b.column(slot), sel, arg) if sel else []
        )
    return lambda b, sel, params: (
        rows_fn(b.column(slot), sel, read(params)) if sel else []
    )


def compile_predicate(expr: Expr, slot_of: _SlotOf) -> PredicateKernel | None:
    """Compile *expr* to a selection-filtering kernel, or ``None``.

    ``None`` means the expression shape is not kernelizable (the caller
    falls back to the row engine).  A returned kernel is guaranteed to
    agree with ``_truthy(reference_eval(expr, row))`` for every row.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is not None and _truthy(value):
            return lambda batch, sel, params: list(sel)
        return _empty
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op == "and":
            left = compile_predicate(expr.left, slot_of)
            right = compile_predicate(expr.right, slot_of)
            if left is None or right is None:
                return None
            # TRUE(a AND b) == TRUE(a) ∩ TRUE(b) even with unknowns, and
            # safe conjuncts are side-effect-free, so sequential
            # application is exact
            return lambda batch, sel, params: right(
                batch, left(batch, sel, params), params
            )
        if op == "or":
            left = compile_predicate(expr.left, slot_of)
            right = compile_predicate(expr.right, slot_of)
            if left is None or right is None:
                return None

            def or_kernel(batch, sel, params):
                sel = list(sel)
                hits = set(left(batch, sel, params))
                if len(hits) == len(sel):
                    return sel
                hits.update(right(batch, sel, params))
                return [i for i in sel if i in hits]

            return or_kernel
        if op in _CMP_TESTS:
            return _compile_cmp(expr, slot_of)
        return None  # arithmetic can raise: never kernelized
    if isinstance(expr, UnaryOp) and expr.op == "not":
        inner = compile_value(expr.operand, slot_of)
        if inner is None:
            return None

        def not_kernel(batch, sel, params):
            sel = list(sel)
            values = inner(batch, sel, params)
            return [
                i for i, v in zip(sel, values)
                if v is not None and not _truthy(v)
            ]

        return not_kernel
    if isinstance(expr, Between):
        return _compile_between(expr, slot_of)
    if isinstance(expr, InList):
        return _compile_in_list(expr, slot_of)
    if isinstance(expr, Like):
        return _compile_like(expr, slot_of)
    if isinstance(expr, IsNull):
        return _compile_is_null(expr, slot_of)
    return None


def _compile_cmp(expr: BinaryOp, slot_of: _SlotOf) -> PredicateKernel | None:
    op = expr.op
    lslot = _slot(expr.left, slot_of)
    rslot = _slot(expr.right, slot_of)
    if lslot is not None and (operand := _operand(expr.right)) is not None:
        return _cmp_col_lit(lslot, op, operand, False)
    if rslot is not None and (operand := _operand(expr.left)) is not None:
        return _cmp_col_lit(rslot, op, operand, True)
    if lslot is not None and rslot is not None:
        test = _CMP_TESTS[op]

        def col_col_kernel(batch, sel, params):
            lcol = batch.column(lslot)
            rcol = batch.column(rslot)
            out = []
            for i in sel:
                cmp = compare_values(lcol[i], rcol[i])
                if cmp is not None and test(cmp):
                    out.append(i)
            return out

        return col_col_kernel
    left_k = compile_value(expr.left, slot_of)
    right_k = compile_value(expr.right, slot_of)
    if left_k is None or right_k is None:
        return None
    test = _CMP_TESTS[op]

    def generic_cmp_kernel(batch, sel, params):
        sel = list(sel)
        lvals = left_k(batch, sel, params)
        rvals = right_k(batch, sel, params)
        out = []
        for i, lv, rv in zip(sel, lvals, rvals):
            cmp = compare_values(lv, rv)
            if cmp is not None and test(cmp):
                out.append(i)
        return out

    return generic_cmp_kernel


# ``column <op> value`` row filters, one per (family, op).  Each inlines
# :func:`compare_values` for its family: numbers (bools included)
# compare numerically, strings lexicographically, and the cross-family
# cases resolve statically from the rank order *number < text* — e.g.
# every string is ``>`` any numeric value.
def _num_eq(col, sel, lit):
    return [i for i in sel if isinstance((v := col[i]), _NUM) and v == lit]


def _num_ne(col, sel, lit):
    return [
        i for i in sel
        if (isinstance((v := col[i]), _NUM) and v != lit) or isinstance(v, str)
    ]


def _num_lt(col, sel, lit):
    return [i for i in sel if isinstance((v := col[i]), _NUM) and v < lit]


def _num_le(col, sel, lit):
    return [i for i in sel if isinstance((v := col[i]), _NUM) and v <= lit]


def _num_gt(col, sel, lit):
    return [
        i for i in sel
        if (isinstance((v := col[i]), _NUM) and v > lit) or isinstance(v, str)
    ]


def _num_ge(col, sel, lit):
    return [
        i for i in sel
        if (isinstance((v := col[i]), _NUM) and v >= lit) or isinstance(v, str)
    ]


def _str_eq(col, sel, lit):
    return [i for i in sel if isinstance((v := col[i]), str) and v == lit]


def _str_ne(col, sel, lit):
    return [
        i for i in sel
        if (isinstance((v := col[i]), str) and v != lit)
        or (v is not None and not isinstance(v, str))
    ]


def _str_lt(col, sel, lit):
    return [
        i for i in sel
        if (isinstance((v := col[i]), str) and v < lit)
        or (v is not None and not isinstance(v, str))
    ]


def _str_le(col, sel, lit):
    return [
        i for i in sel
        if (isinstance((v := col[i]), str) and v <= lit)
        or (v is not None and not isinstance(v, str))
    ]


def _str_gt(col, sel, lit):
    return [i for i in sel if isinstance((v := col[i]), str) and v > lit]


def _str_ge(col, sel, lit):
    return [i for i in sel if isinstance((v := col[i]), str) and v >= lit]


_COLUMN_VS_VALUE = {
    (True, "="): _num_eq, (True, "<>"): _num_ne, (True, "<"): _num_lt,
    (True, "<="): _num_le, (True, ">"): _num_gt, (True, ">="): _num_ge,
    (False, "="): _str_eq, (False, "<>"): _str_ne, (False, "<"): _str_lt,
    (False, "<="): _str_le, (False, ">"): _str_gt, (False, ">="): _str_ge,
}


def _compare_rows(op: str, value_first: bool):
    """``column <op> value`` (or ``value <op> column``) row filter through
    :func:`compare_values` itself, in the written operand order."""
    test = _CMP_TESTS[op]
    if value_first:
        return lambda col, sel, lit: [
            i for i in sel
            if (cmp := compare_values(lit, col[i])) is not None and test(cmp)
        ]
    return lambda col, sel, lit: [
        i for i in sel
        if (cmp := compare_values(col[i], lit)) is not None and test(cmp)
    ]


def _cmp_col_lit(slot: int, op: str, operand, value_first: bool) -> PredicateKernel:
    """``column <op> value`` specialized per the value's type family,
    which a literal and a parameter both fix at compile time.

    *value_first* when the value is written on the left.  A NaN value
    takes :func:`compare_values` row by row: it is neither equal to nor
    ordered against any number, and ``compare_values`` answers such pairs
    by operand position, which no flipped fast path reproduces.
    """
    kind, read, fixed = operand
    if kind is _NULL:
        return _empty  # comparison with NULL is unknown for every row
    fast_op = _FLIP[op] if value_first else op
    if issubclass(kind, _NUM):
        rows_fn = _COLUMN_VS_VALUE[True, fast_op]
        if kind is bool:
            read = (lambda params, bool_read=read: int(bool_read(params)))
        elif kind is float:
            fast, exact = rows_fn, _compare_rows(op, value_first)

            def rows_fn(col, sel, lit):
                return fast(col, sel, lit) if lit == lit else exact(col, sel, lit)

        return _bind_column(rows_fn, slot, read, fixed)
    if issubclass(kind, str):
        return _bind_column(_COLUMN_VS_VALUE[False, fast_op], slot, read, fixed)
    return _bind_column(  # pragma: no cover - no other literal families
        _compare_rows(op, value_first), slot, read, fixed
    )


def _num_between(col, sel, bounds):
    low, high = bounds
    return [
        i for i in sel
        if isinstance((v := col[i]), _NUM) and low <= v <= high
    ]


def _num_not_between(col, sel, bounds):
    # a non-NULL string compares above both numeric bounds, so
    # cmp_low/cmp_high are known and the range test is False
    low, high = bounds
    return [
        i for i in sel
        if (v := col[i]) is not None
        and not (isinstance(v, _NUM) and low <= v <= high)
    ]


def _str_between(col, sel, bounds):
    low, high = bounds
    return [
        i for i in sel
        if isinstance((v := col[i]), str) and low <= v <= high
    ]


def _str_not_between(col, sel, bounds):
    low, high = bounds
    return [
        i for i in sel
        if (v := col[i]) is not None
        and not (isinstance(v, str) and low <= v <= high)
    ]


def _between_rows(negated: bool):
    """``column [NOT] BETWEEN low AND high`` row filter through
    :func:`compare_values` itself (for NaN bounds, which are not ordered
    against any number)."""

    def rows(col, sel, bounds):
        low, high = bounds
        out = []
        for i in sel:
            v = col[i]
            cmp_low = compare_values(v, low)
            cmp_high = compare_values(v, high)
            if cmp_low is None or cmp_high is None:
                continue
            result = cmp_low >= 0 and cmp_high <= 0
            if (not result) if negated else result:
                out.append(i)
        return out

    return rows


def _compile_between(expr: Between, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    low_op, high_op = _operand(expr.low), _operand(expr.high)
    if slot is not None and low_op is not None and high_op is not None:
        low_kind, high_kind = low_op[0], high_op[0]
        if low_kind is _NULL or high_kind is _NULL:
            return _empty  # either bound NULL: unknown for every row
        read_low, read_high = low_op[1], high_op[1]
        fixed = low_op[2] and high_op[2]
        if issubclass(low_kind, _NUM) and issubclass(high_kind, _NUM):
            rows_fn = _num_not_between if negated else _num_between
            if low_kind is float or high_kind is float:
                fast, exact = rows_fn, _between_rows(negated)

                def rows_fn(col, sel, bounds):
                    low, high = bounds
                    if low == low and high == high:
                        return fast(col, sel, bounds)
                    return exact(col, sel, bounds)  # a NaN bound

            return _bind_column(
                rows_fn, slot,
                lambda params: (
                    _as_number(read_low(params)), _as_number(read_high(params))
                ),
                fixed,
            )
        if issubclass(low_kind, str) and issubclass(high_kind, str):
            return _bind_column(
                _str_not_between if negated else _str_between, slot,
                lambda params: (read_low(params), read_high(params)),
                fixed,
            )
        # mixed-family bounds: rare enough to take the generic path below
    value_k = compile_value(expr.expr, slot_of)
    low_k = compile_value(expr.low, slot_of)
    high_k = compile_value(expr.high, slot_of)
    if value_k is None or low_k is None or high_k is None:
        return None

    def between_kernel(batch, sel, params):
        sel = list(sel)
        values = value_k(batch, sel, params)
        lows = low_k(batch, sel, params)
        highs = high_k(batch, sel, params)
        out = []
        for i, v, lo, hi in zip(sel, values, lows, highs):
            cmp_low = compare_values(v, lo)
            cmp_high = compare_values(v, hi)
            if cmp_low is None or cmp_high is None:
                continue
            result = cmp_low >= 0 and cmp_high <= 0
            if (not result) if negated else result:
                out.append(i)
        return out

    return between_kernel


def _in_rows(col, sel, members):
    return [i for i in sel if (v := col[i]) is not None and v in members]


def _not_in_rows(col, sel, members):
    return [i for i in sel if (v := col[i]) is not None and v not in members]


def _compile_in_list(expr: InList, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    operands = [_operand(item) for item in expr.items]
    if slot is not None and all(op is not None for op in operands):
        # Python set membership agrees with SQL equality for this value
        # domain: 1 == 1.0 == True share hash buckets, numbers never
        # equal strings, and compare_values' rank comparison returns
        # non-zero exactly where Python ``==`` is False
        if negated and any(op[0] is _NULL for op in operands):
            return _empty  # NOT IN (..., NULL) is never TRUE
        reads = [op[1] for op in operands if op[0] is not _NULL]
        return _bind_column(
            _not_in_rows if negated else _in_rows, slot,
            lambda params: {read(params) for read in reads},
            all(op[2] for op in operands),
        )
    value_k = compile_value(expr.expr, slot_of)
    item_ks = [compile_value(item, slot_of) for item in expr.items]
    if value_k is None or any(k is None for k in item_ks):
        return None

    def in_kernel(batch, sel, params):
        sel = list(sel)
        values = value_k(batch, sel, params)
        item_cols = [k(batch, sel, params) for k in item_ks]
        out = []
        for pos, i in enumerate(sel):
            verdict = _eval_in(
                values[pos], [col[pos] for col in item_cols], negated
            )
            if _truthy(verdict):
                out.append(i)
        return out

    return in_kernel


def _like_rows(col, sel, pattern):
    return [
        i for i in sel
        if (v := col[i]) is not None and _like_match(str(v), pattern)
    ]


def _not_like_rows(col, sel, pattern):
    return [
        i for i in sel
        if (v := col[i]) is not None and not _like_match(str(v), pattern)
    ]


def _compile_like(expr: Like, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    operand = _operand(expr.pattern)
    if slot is not None and operand is not None:
        kind, read, fixed = operand
        if kind is _NULL:
            return _empty
        return _bind_column(
            _not_like_rows if negated else _like_rows, slot,
            lambda params: str(read(params)), fixed,
        )
    value_k = compile_value(expr.expr, slot_of)
    pattern_k = compile_value(expr.pattern, slot_of)
    if value_k is None or pattern_k is None:
        return None

    def like_kernel(batch, sel, params):
        sel = list(sel)
        values = value_k(batch, sel, params)
        patterns = pattern_k(batch, sel, params)
        out = []
        for i, v, p in zip(sel, values, patterns):
            if v is None or p is None:
                continue
            matched = _like_match(str(v), str(p))
            if (not matched) if negated else matched:
                out.append(i)
        return out

    return like_kernel


def _compile_is_null(expr: IsNull, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    if slot is not None:
        if negated:
            return lambda b, sel, params, c=slot: [
                i for i in sel if b.column(c)[i] is not None
            ]
        return lambda b, sel, params, c=slot: [
            i for i in sel if b.column(c)[i] is None
        ]
    value_k = compile_value(expr.expr, slot_of)
    if value_k is None:
        return None

    def is_null_kernel(batch, sel, params):
        sel = list(sel)
        values = value_k(batch, sel, params)
        if negated:
            return [i for i, v in zip(sel, values) if v is not None]
        return [i for i, v in zip(sel, values) if v is None]

    return is_null_kernel


# ----------------------------------------------------------------------
# value kernels (three-valued, never-raising)
# ----------------------------------------------------------------------
def compile_value(expr: Expr, slot_of: _SlotOf) -> ValueKernel | None:
    """Compile *expr* to a batch value kernel, or ``None``.

    Covers exactly the statically safe expression subset — the shapes
    that cannot raise at run time — with the reference engine's
    three-valued results (comparisons and logic yield True/False/None).
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch, sel, params: [value] * len(sel)
    if isinstance(expr, Param):
        index = expr.index
        return lambda batch, sel, params: [params[index]] * len(sel)
    if isinstance(expr, ColumnRef):
        slot = slot_of(expr)
        if slot is None:
            return None
        return lambda batch, sel, params, c=slot: [
            batch.column(c)[i] for i in sel
        ]
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op in ("and", "or"):
            left_k = compile_value(expr.left, slot_of)
            right_k = compile_value(expr.right, slot_of)
            if left_k is None or right_k is None:
                return None

            def bool_kernel(batch, sel, params):
                sel = list(sel)
                lvals = left_k(batch, sel, params)
                rvals = right_k(batch, sel, params)
                return [_bool3(op, lv, rv) for lv, rv in zip(lvals, rvals)]

            return bool_kernel
        if op in _CMP_TESTS:
            left_k = compile_value(expr.left, slot_of)
            right_k = compile_value(expr.right, slot_of)
            if left_k is None or right_k is None:
                return None
            test = _CMP_TESTS[op]

            def cmp_kernel(batch, sel, params):
                sel = list(sel)
                lvals = left_k(batch, sel, params)
                rvals = right_k(batch, sel, params)
                out = []
                for lv, rv in zip(lvals, rvals):
                    cmp = compare_values(lv, rv)
                    out.append(None if cmp is None else test(cmp))
                return out

            return cmp_kernel
        return None
    if isinstance(expr, UnaryOp) and expr.op == "not":
        inner = compile_value(expr.operand, slot_of)
        if inner is None:
            return None
        return lambda batch, sel, params: [
            None if v is None else not _truthy(v)
            for v in inner(batch, list(sel), params)
        ]
    if isinstance(expr, Between):
        value_k = compile_value(expr.expr, slot_of)
        low_k = compile_value(expr.low, slot_of)
        high_k = compile_value(expr.high, slot_of)
        if value_k is None or low_k is None or high_k is None:
            return None
        negated = expr.negated

        def between_vkernel(batch, sel, params):
            sel = list(sel)
            out = []
            for v, lo, hi in zip(
                value_k(batch, sel, params),
                low_k(batch, sel, params),
                high_k(batch, sel, params),
            ):
                cmp_low = compare_values(v, lo)
                cmp_high = compare_values(v, hi)
                if cmp_low is None or cmp_high is None:
                    out.append(None)
                else:
                    result = cmp_low >= 0 and cmp_high <= 0
                    out.append((not result) if negated else result)
            return out

        return between_vkernel
    if isinstance(expr, InList):
        value_k = compile_value(expr.expr, slot_of)
        item_ks = [compile_value(item, slot_of) for item in expr.items]
        if value_k is None or any(k is None for k in item_ks):
            return None
        negated = expr.negated

        def in_vkernel(batch, sel, params):
            sel = list(sel)
            values = value_k(batch, sel, params)
            item_cols = [k(batch, sel, params) for k in item_ks]
            return [
                _eval_in(values[pos], [col[pos] for col in item_cols], negated)
                for pos in range(len(sel))
            ]

        return in_vkernel
    if isinstance(expr, Like):
        value_k = compile_value(expr.expr, slot_of)
        pattern_k = compile_value(expr.pattern, slot_of)
        if value_k is None or pattern_k is None:
            return None
        negated = expr.negated

        def like_vkernel(batch, sel, params):
            sel = list(sel)
            out = []
            for v, p in zip(
                value_k(batch, sel, params), pattern_k(batch, sel, params)
            ):
                if v is None or p is None:
                    out.append(None)
                else:
                    matched = _like_match(str(v), str(p))
                    out.append((not matched) if negated else matched)
            return out

        return like_vkernel
    if isinstance(expr, IsNull):
        value_k = compile_value(expr.expr, slot_of)
        if value_k is None:
            return None
        negated = expr.negated
        return lambda batch, sel, params: [
            (v is not None) if negated else (v is None)
            for v in value_k(batch, list(sel), params)
        ]
    return None


# ----------------------------------------------------------------------
# grouped aggregation kernels
# ----------------------------------------------------------------------
def grouped_rows(
    rows: list[tuple[Value, ...]], key_slots: tuple[int, ...]
) -> list[list[tuple[Value, ...]]]:
    """Bucket *rows* by packed group-key tuples, in first-seen key order.

    Partitioning matches the row engine's dict-of-first-seen-order
    grouping exactly: keys are the raw slot values (Python equality
    unifies ``1``/``1.0``/``True`` just as SQL grouping does there).
    """
    groups: dict[Any, list[tuple[Value, ...]]] = {}
    # one slot gives the bare value as the key, several a tuple
    for key, row in zip(map(itemgetter(*key_slots), rows), rows):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [row]
        else:
            bucket.append(row)
    # dicts keep insertion order: buckets come out in first-seen key order
    return list(groups.values())


def aggregate_column(
    kind: str,
    slot: int,
    distinct: bool,
    members: list[tuple[Value, ...]],
) -> Value:
    """Fold aggregate *kind* over one column of a group's member rows.

    Semantics mirror the interpreter's ``_eval_function`` exactly: NULLs
    are skipped, DISTINCT dedupes on first-seen order, COUNT of no values
    is 0 while the others are NULL, MIN/MAX use the executor's sort-key
    order (through the typed folds of :mod:`repro.data.values`), and
    SUM/AVG raise the interpreter's non-numeric error verbatim.
    """
    values = [v for row in members if (v := row[slot]) is not None]
    if distinct:
        values = _distinct_values(values)
    if kind == "count":
        return len(values)
    if not values:
        return None
    if kind == "min":
        return min_value(values)
    if kind == "max":
        return max_value(values)
    numbers = sum_operands(values)
    if numbers is None:
        raise ExecutionError(
            f"aggregate {kind.upper()} over non-numeric values"
        )
    total = sum(numbers)
    if kind == "sum":
        return total
    return total / len(numbers)  # avg; the parser admits no other aggregate
