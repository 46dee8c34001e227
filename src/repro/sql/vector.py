"""Columnar vectorized execution kernels for the compiled plan engine.

The row-compiled engine of :mod:`repro.sql.plan` evaluates one Python
tuple at a time through chains of per-row closures.  This module provides
the columnar alternative: a :class:`ColumnBatch` holds one Python list per
column (built lazily from a :class:`~repro.data.database.Table` and cached
on it, stamped with :meth:`Table.cache_token`), and *kernels* — closures
over whole column arrays — evaluate filter predicates, group keys, and
aggregates in tight list comprehensions instead of per-row call chains.

Three kernel families:

- **predicate kernels** (:func:`compile_predicate`) take a batch plus a
  selection vector (row indices) and return the subset of indices where
  the predicate is TRUE under three-valued logic.  Only *statically safe*
  expressions compile — the same subset :func:`repro.sql.plan._analyze_safe`
  admits for filter pushdown (comparisons, AND/OR/NOT, BETWEEN, IN-lists,
  LIKE, IS NULL over plain columns and literals) — so a kernel can never
  raise and short-circuit selection is invisible except in speed;
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

``REPRO_SQL_VECTOR=0`` (or :func:`set_vector_enabled`) disables the whole
subsystem; plans compiled while it is off are exactly the prior row plans
(the plan cache is keyed by the toggle, so both coexist).  The
``repro.sql.vector.batches`` counter tallies vectorized batch executions
and ``repro.sql.vector.fallbacks`` tallies operators that were eligible
but fell back to row-at-a-time at compile time.
"""

from __future__ import annotations

import os
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
    "vector_enabled",
    "set_vector_enabled",
]

#: Master switch; plans compiled while it is off contain no vectorized
#: operators (same closures, same counters as before this module existed).
_VECTOR_ENABLED = os.environ.get("REPRO_SQL_VECTOR", "1") != "0"


def vector_enabled() -> bool:
    """Whether newly compiled plans may use vectorized operators."""
    return _VECTOR_ENABLED


def set_vector_enabled(enabled: bool) -> bool:
    """Toggle vectorization for future compilations; returns the old value.

    Cached plans compiled under the other setting are not invalidated —
    the plan-cache key includes this flag, so both variants coexist (the
    differential tests exercise exactly that).
    """
    global _VECTOR_ENABLED
    previous = _VECTOR_ENABLED
    _VECTOR_ENABLED = bool(enabled)
    return previous


_registry = _obs_metrics.get_registry()
#: One increment per vectorized batch executed (a scan's filter pass, a
#: grouped aggregation, a hash-join build+probe).
BATCHES = _registry.counter("repro.sql.vector.batches")
#: One increment per operator that was eligible for vectorization while
#: the toggle was on but fell back to the row engine at compile time.
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
#: ``fn(batch, sel) -> list[int]``: indices of *sel* where the predicate
#: is TRUE (three-valued: FALSE and UNKNOWN rows are dropped alike).
PredicateKernel = Callable[[ColumnBatch, Iterable[int]], list[int]]
#: ``fn(batch, sel) -> list[Value]``: one value per selected row.
ValueKernel = Callable[[ColumnBatch, Iterable[int]], list[Value]]

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


def _empty(batch: ColumnBatch, sel) -> list[int]:
    return []


def _slot(expr: Expr, slot_of: _SlotOf) -> int | None:
    if isinstance(expr, ColumnRef):
        return slot_of(expr)
    return None


def compile_predicate(expr: Expr, slot_of: _SlotOf) -> PredicateKernel | None:
    """Compile *expr* to a selection-filtering kernel, or ``None``.

    ``None`` means the expression shape is not kernelizable (the caller
    falls back to the row engine).  A returned kernel is guaranteed to
    agree with ``_truthy(reference_eval(expr, row))`` for every row.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is not None and _truthy(value):
            return lambda batch, sel: list(sel)
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
            return lambda batch, sel: right(batch, left(batch, sel))
        if op == "or":
            left = compile_predicate(expr.left, slot_of)
            right = compile_predicate(expr.right, slot_of)
            if left is None or right is None:
                return None

            def or_kernel(batch, sel):
                sel = list(sel)
                hits = set(left(batch, sel))
                if len(hits) == len(sel):
                    return sel
                hits.update(right(batch, sel))
                return [i for i in sel if i in hits]

            return or_kernel
        if op in _CMP_TESTS:
            return _compile_cmp(expr, slot_of)
        return None  # arithmetic can raise: never kernelized
    if isinstance(expr, UnaryOp) and expr.op == "not":
        inner = compile_value(expr.operand, slot_of)
        if inner is None:
            return None

        def not_kernel(batch, sel):
            sel = list(sel)
            values = inner(batch, sel)
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
    if lslot is not None and isinstance(expr.right, Literal):
        return _cmp_col_lit(lslot, op, expr.right.value)
    if rslot is not None and isinstance(expr.left, Literal):
        return _cmp_col_lit(rslot, _FLIP[op], expr.left.value)
    if lslot is not None and rslot is not None:
        test = _CMP_TESTS[op]

        def col_col_kernel(batch, sel):
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

    def generic_cmp_kernel(batch, sel):
        sel = list(sel)
        lvals = left_k(batch, sel)
        rvals = right_k(batch, sel)
        out = []
        for i, lv, rv in zip(sel, lvals, rvals):
            cmp = compare_values(lv, rv)
            if cmp is not None and test(cmp):
                out.append(i)
        return out

    return generic_cmp_kernel


def _cmp_col_lit(slot: int, op: str, lit: Value) -> PredicateKernel:
    """``column <op> literal`` specialized per the literal's type family.

    Each branch inlines :func:`compare_values` for that family: numbers
    (bools included) compare numerically, strings lexicographically, and
    the cross-family cases resolve statically from the rank order
    *number < text* — e.g. every string is ``>`` any numeric literal.
    """
    if lit is None:
        return _empty  # comparison with NULL is unknown for every row
    if isinstance(lit, _NUM):
        lit = int(lit) if isinstance(lit, bool) else lit
        if op == "=":
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), _NUM) and v == lit
            ]
        if op == "<>":
            return lambda b, sel, c=slot: [
                i for i in sel
                if (isinstance((v := b.column(c)[i]), _NUM) and v != lit)
                or isinstance(v, str)
            ]
        if op == "<":
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), _NUM) and v < lit
            ]
        if op == "<=":
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), _NUM) and v <= lit
            ]
        if op == ">":
            return lambda b, sel, c=slot: [
                i for i in sel
                if (isinstance((v := b.column(c)[i]), _NUM) and v > lit)
                or isinstance(v, str)
            ]
        return lambda b, sel, c=slot: [  # >=
            i for i in sel
            if (isinstance((v := b.column(c)[i]), _NUM) and v >= lit)
            or isinstance(v, str)
        ]
    if isinstance(lit, str):
        if op == "=":
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), str) and v == lit
            ]
        if op == "<>":
            return lambda b, sel, c=slot: [
                i for i in sel
                if (isinstance((v := b.column(c)[i]), str) and v != lit)
                or (v is not None and not isinstance(v, str))
            ]
        if op == "<":
            return lambda b, sel, c=slot: [
                i for i in sel
                if (isinstance((v := b.column(c)[i]), str) and v < lit)
                or (v is not None and not isinstance(v, str))
            ]
        if op == "<=":
            return lambda b, sel, c=slot: [
                i for i in sel
                if (isinstance((v := b.column(c)[i]), str) and v <= lit)
                or (v is not None and not isinstance(v, str))
            ]
        if op == ">":
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), str) and v > lit
            ]
        return lambda b, sel, c=slot: [  # >=
            i for i in sel
            if isinstance((v := b.column(c)[i]), str) and v >= lit
        ]
    test = _CMP_TESTS[op]  # pragma: no cover - no other literal families

    def fallback_kernel(batch, sel):  # pragma: no cover
        col = batch.column(slot)
        out = []
        for i in sel:
            cmp = compare_values(col[i], lit)
            if cmp is not None and test(cmp):
                out.append(i)
        return out

    return fallback_kernel


def _compile_between(expr: Between, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    if (
        slot is not None
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        low, high = expr.low.value, expr.high.value
        if low is None or high is None:
            return _empty  # either bound NULL: unknown for every row
        low = int(low) if isinstance(low, bool) else low
        high = int(high) if isinstance(high, bool) else high
        if isinstance(low, _NUM) and isinstance(high, _NUM):
            if negated:
                # a non-NULL string compares above both numeric bounds, so
                # cmp_low/cmp_high are known and the range test is False
                return lambda b, sel, c=slot: [
                    i for i in sel
                    if (v := b.column(c)[i]) is not None
                    and not (isinstance(v, _NUM) and low <= v <= high)
                ]
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), _NUM) and low <= v <= high
            ]
        if isinstance(low, str) and isinstance(high, str):
            if negated:
                return lambda b, sel, c=slot: [
                    i for i in sel
                    if (v := b.column(c)[i]) is not None
                    and not (isinstance(v, str) and low <= v <= high)
                ]
            return lambda b, sel, c=slot: [
                i for i in sel
                if isinstance((v := b.column(c)[i]), str) and low <= v <= high
            ]
        # mixed-family bounds: rare enough to take the generic path below
    value_k = compile_value(expr.expr, slot_of)
    low_k = compile_value(expr.low, slot_of)
    high_k = compile_value(expr.high, slot_of)
    if value_k is None or low_k is None or high_k is None:
        return None

    def between_kernel(batch, sel):
        sel = list(sel)
        values = value_k(batch, sel)
        lows = low_k(batch, sel)
        highs = high_k(batch, sel)
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


def _compile_in_list(expr: InList, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    if slot is not None and all(isinstance(it, Literal) for it in expr.items):
        # Python set membership agrees with SQL equality for this value
        # domain: 1 == 1.0 == True share hash buckets, numbers never
        # equal strings, and compare_values' rank comparison returns
        # non-zero exactly where Python ``==`` is False
        members = {it.value for it in expr.items if it.value is not None}
        has_null = any(it.value is None for it in expr.items)
        if negated:
            if has_null:
                return _empty  # NOT IN (..., NULL) is never TRUE
            return lambda b, sel, c=slot: [
                i for i in sel
                if (v := b.column(c)[i]) is not None and v not in members
            ]
        return lambda b, sel, c=slot: [
            i for i in sel
            if (v := b.column(c)[i]) is not None and v in members
        ]
    value_k = compile_value(expr.expr, slot_of)
    item_ks = [compile_value(item, slot_of) for item in expr.items]
    if value_k is None or any(k is None for k in item_ks):
        return None

    def in_kernel(batch, sel):
        sel = list(sel)
        values = value_k(batch, sel)
        item_cols = [k(batch, sel) for k in item_ks]
        out = []
        for pos, i in enumerate(sel):
            verdict = _eval_in(
                values[pos], [col[pos] for col in item_cols], negated
            )
            if _truthy(verdict):
                out.append(i)
        return out

    return in_kernel


def _compile_like(expr: Like, slot_of: _SlotOf) -> PredicateKernel | None:
    slot = _slot(expr.expr, slot_of)
    negated = expr.negated
    if slot is not None and isinstance(expr.pattern, Literal):
        pattern = expr.pattern.value
        if pattern is None:
            return _empty
        pattern = str(pattern)
        if negated:
            return lambda b, sel, c=slot: [
                i for i in sel
                if (v := b.column(c)[i]) is not None
                and not _like_match(str(v), pattern)
            ]
        return lambda b, sel, c=slot: [
            i for i in sel
            if (v := b.column(c)[i]) is not None
            and _like_match(str(v), pattern)
        ]
    value_k = compile_value(expr.expr, slot_of)
    pattern_k = compile_value(expr.pattern, slot_of)
    if value_k is None or pattern_k is None:
        return None

    def like_kernel(batch, sel):
        sel = list(sel)
        values = value_k(batch, sel)
        patterns = pattern_k(batch, sel)
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
            return lambda b, sel, c=slot: [
                i for i in sel if b.column(c)[i] is not None
            ]
        return lambda b, sel, c=slot: [
            i for i in sel if b.column(c)[i] is None
        ]
    value_k = compile_value(expr.expr, slot_of)
    if value_k is None:
        return None

    def is_null_kernel(batch, sel):
        sel = list(sel)
        values = value_k(batch, sel)
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
        return lambda batch, sel: [value] * len(sel)
    if isinstance(expr, ColumnRef):
        slot = slot_of(expr)
        if slot is None:
            return None
        return lambda batch, sel, c=slot: [batch.column(c)[i] for i in sel]
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op in ("and", "or"):
            left_k = compile_value(expr.left, slot_of)
            right_k = compile_value(expr.right, slot_of)
            if left_k is None or right_k is None:
                return None

            def bool_kernel(batch, sel):
                sel = list(sel)
                lvals = left_k(batch, sel)
                rvals = right_k(batch, sel)
                return [_bool3(op, lv, rv) for lv, rv in zip(lvals, rvals)]

            return bool_kernel
        if op in _CMP_TESTS:
            left_k = compile_value(expr.left, slot_of)
            right_k = compile_value(expr.right, slot_of)
            if left_k is None or right_k is None:
                return None
            test = _CMP_TESTS[op]

            def cmp_kernel(batch, sel):
                sel = list(sel)
                lvals = left_k(batch, sel)
                rvals = right_k(batch, sel)
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
        return lambda batch, sel: [
            None if v is None else not _truthy(v)
            for v in inner(batch, list(sel))
        ]
    if isinstance(expr, Between):
        value_k = compile_value(expr.expr, slot_of)
        low_k = compile_value(expr.low, slot_of)
        high_k = compile_value(expr.high, slot_of)
        if value_k is None or low_k is None or high_k is None:
            return None
        negated = expr.negated

        def between_vkernel(batch, sel):
            sel = list(sel)
            out = []
            for v, lo, hi in zip(
                value_k(batch, sel), low_k(batch, sel), high_k(batch, sel)
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

        def in_vkernel(batch, sel):
            sel = list(sel)
            values = value_k(batch, sel)
            item_cols = [k(batch, sel) for k in item_ks]
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

        def like_vkernel(batch, sel):
            sel = list(sel)
            out = []
            for v, p in zip(value_k(batch, sel), pattern_k(batch, sel)):
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
        return lambda batch, sel: [
            (v is not None) if negated else (v is None)
            for v in value_k(batch, list(sel))
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
