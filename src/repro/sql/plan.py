"""Compiled query plans: the physical-operator execution engine.

:func:`compile_query` lowers a parsed :class:`~repro.sql.ast.Select` /
:class:`~repro.sql.ast.SetOperation` AST *once* into a tree of closures over
flat row tuples — the physical plan — which :meth:`CompiledPlan.run` then
executes against any database sharing the schema the plan was compiled for:

- **table scan** — base tables are already lists of aligned tuples, so a
  scan is the row list itself (zero copies), with safe single-table WHERE
  conjuncts pushed down into the scan;
- **slot resolution** — every column reference is resolved at compile time
  to ``(depth, slot)`` candidates into the chain of flat row tuples,
  replacing the interpreter's per-row ``{binding: {column: value}}`` dict
  scopes and string lookups;
- **hash equi-join** — join conditions whose conjuncts are statically
  error-free and split into ``left = right`` keys build a hash table over
  the right side (NULL keys never match, mirroring three-valued logic) and
  probe it in left-row order; everything else falls back to the
  interpreter-faithful nested loop;
- **hash aggregation** — GROUP BY keys to first-seen-order dict buckets of
  member row tuples;
- **subquery hoisting** — a subquery whose compiled expressions never
  escape its own scope boundary executes once per query execution;
  correlated subqueries are memoized per outer row chain.  A reference is
  correlated only if it can reach an outer scope at runtime: a name is
  resolved outward only past scopes whose row may be ``None`` (the empty
  whole-table group of an ungrouped aggregate, while its items, HAVING
  and ORDER BY run), so a subquery column that shadows an outer name
  stays local and ``pk IN (SELECT pk FROM t ...)`` is hoisted.  EXPLAIN
  names the outer references of each correlated subquery
  (``s1 correlated on p.id``).

Parity with :func:`repro.sql.executor.execute_reference` is exact and
enforced by differential tests: same results, same ``ordered`` flags, same
error types *and messages*, including deferred runtime errors (an unknown
column in a subquery only raises when the subquery actually runs).  The
compiler therefore never raises while building a plan — unresolvable
references, missing tables, and type errors all compile into closures that
raise at the moment the interpreter would.

On top, :func:`plan_for` keeps a bounded plan cache keyed by (query
shape, schema structure) and :func:`compile_sql` adds a parse cache.  A
query's *shape* swaps its predicate comparands for typed parameters
(:class:`~repro.sql.shape.Shaper`), and a schema's *structure* is its
fingerprint of names, types and keys
(:attr:`~repro.data.schema.Schema.structure`), so queries that differ
only in predicate values, over databases of one structure, share one
compile: the operators read the values from the execution's bound
``params``.  The metric hot path (N
candidates evaluated against one gold over many database variants)
parses and plans each distinct query at most once.

**The cost-based optimizer** (PR 3) layers on top of the compiled engine,
using :mod:`repro.sql.stats` (row counts, NDV, histograms) and
:mod:`repro.sql.index` (hash + sorted indexes cached per table):

- pushed-down scan conjuncts are ordered most-selective-first and, when a
  conjunct is an equality/IN/range over a plain column against literals,
  the scan *drives* off the matching index instead of filtering every row;
- uncorrelated ``col IN (SELECT ...)`` over a single table lowers to a
  semi-join: safe conjuncts still push down and the subquery's value set
  is fetched once instead of per surviving row;
- inner-join chains of three or more tables are re-ordered greedily
  (smallest estimated intermediate first over the equi-join graph); output
  order is restored exactly by tracking per-table row positions and
  sorting by the written-order position tuple;
- the build side of a hash join probes a cached table index when the join
  keys are plain columns over an unfiltered scan;
- a bare single-column ``ORDER BY ... LIMIT k`` (a *top-k*) reads the
  first *k* positions straight off the sorted index.

Every optimization preserves the reference engine's results bit-for-bit —
rows, order, ``ordered`` flags, and error behaviour — because each is
gated on the same static safety analysis the PR 2 engine already used for
pushdown.  ``compile_query(..., optimize=False)`` compiles without any
of it, giving the PR 2 plans.  :class:`PlanNode` trees
carry per-operator row estimates; :meth:`CompiledPlan.explain` renders
them next to actual row counts.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from itertools import count
from operator import itemgetter
from typing import Any, Callable

from repro.data.database import Database
from repro.data.schema import Schema
from repro.data.values import (
    Value,
    compare_values,
    max_value,
    min_value,
    order_positions,
    sum_operands,
)
from repro.errors import AnalysisError, ExecutionError
from repro.resilience import deadline as _deadline
from repro.sql.ast import (
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
from repro.sql.executor import (
    Result,
    _bool3,
    _distinct,
    _distinct_values,
    _eval_in,
    _like_match,
    _select_uses_aggregates,
    _truthy,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.sql import index as _index
from repro.sql import stats as _stats
from repro.sql import vector as _vector
from repro.sql.parser import parse_sql
from repro.sql.shape import QueryEntry, Shaper, clear_query_entries, query_entry
from repro.sql.unparser import to_sql

__all__ = [
    "CompiledPlan",
    "PlanNode",
    "attach_operator_spans",
    "compile_query",
    "compile_sql",
    "explain",
    "plan_for",
    "plan_cache_stats",
    "parse_cache_stats",
    "configure_caches",
    "clear_plan_caches",
]

#: Compiled expression: ``fn(state, rows, group, proj) -> Value`` where
#: ``rows`` is the chain of flat row tuples (innermost frame first; an entry
#: is ``None`` for the empty-group representative), ``group`` is the list of
#: member row tuples of the current aggregation group (``None`` outside an
#: aggregated context), and ``proj`` is the already-projected output row
#: (ORDER BY alias resolution only).
_ExprFn = Callable[..., Value]

_MISSING = object()
_NO_FROM_ROWS: list[tuple[Value, ...]] = [()]

_CMP_TESTS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}
_COMPARISONS = frozenset(_CMP_TESTS)


# ----------------------------------------------------------------------
# compile-time scaffolding
# ----------------------------------------------------------------------
class _Frame:
    """Compile-time layout of one SELECT scope's flat row tuple.

    ``bindings`` maps a visible binding name to ``{column -> slot}`` into
    the frame's row tuple; ``order`` preserves first-seen binding order for
    star expansion (a re-used binding name keeps its original position but
    points at the newer table's slots, mirroring ``{**left, **right}``).
    """

    __slots__ = ("order", "bindings", "width")

    def __init__(self) -> None:
        self.order: list[str] = []
        self.bindings: dict[str, dict[str, int]] = {}
        self.width = 0

    def extended(self, binding: str, columns: list[str]) -> "_Frame":
        frame = _Frame()
        frame.order = list(self.order)
        frame.bindings = dict(self.bindings)
        frame.width = self.width
        slots = {col: frame.width + i for i, col in enumerate(columns)}
        if binding not in frame.bindings:
            frame.order.append(binding)
        frame.bindings[binding] = slots
        frame.width += len(columns)
        return frame


class PlanNode:
    """One physical operator in the plan tree, with row/cost estimates.

    ``est_rows``/``est_cost`` are compile-time guesses from table
    statistics (``None`` when the plan was compiled without a database);
    actual per-execution row counts land in ``_ExecState.actuals`` keyed
    by ``nid`` and are rendered next to the estimates by ``explain``.
    """

    __slots__ = ("nid", "op", "detail", "est_rows", "est_cost", "children",
                 "vectorized", "bound_detail")

    def __init__(self, nid, op, detail="", est_rows=None, est_cost=None,
                 children=()):
        self.nid = nid
        self.op = op
        self.detail = detail
        self.est_rows = est_rows
        self.est_cost = est_cost
        self.children = list(children)
        #: ``True``/``False`` when the vectorizer considered this operator
        #: (rendered as ``vectorized=yes/no``); ``None`` when it never did
        #: (``vectorize=False``, or an operator kind with no columnar form).
        self.vectorized: bool | None = None
        #: ``fn(params) -> str`` for a detail that shows predicate values
        #: (an index driver's); ``None`` when ``detail`` is fixed
        self.bound_detail = None

    def detail_for(self, params: tuple) -> str:
        """The detail text with the plan's bound parameter values."""
        if self.bound_detail is None:
            return self.detail
        return self.bound_detail(params)

    def render(self, actuals=None, indent="", into=None, timings=None,
               params=()) -> str:
        lines = [] if into is None else into
        parts = [self.op]
        detail = self.detail_for(params)
        if detail:
            parts.append(detail)
        annot = []
        if self.est_rows is not None:
            annot.append(f"est_rows={self.est_rows:.1f}")
        if self.est_cost is not None:
            annot.append(f"est_cost={self.est_cost:.1f}")
        if self.vectorized is not None:
            annot.append("vectorized=" + ("yes" if self.vectorized else "no"))
        if actuals is not None and self.nid in actuals:
            annot.append(f"actual_rows={actuals[self.nid]}")
        if timings is not None and self.nid in timings:
            annot.append(f"time_ms={timings[self.nid] * 1000:.2f}")
        if annot:
            parts.append("[" + " ".join(annot) + "]")
        lines.append(indent + " ".join(parts))
        for child in self.children:
            child.render(actuals, indent + "  ", lines, timings, params)
        if into is None:
            return "\n".join(lines)
        return ""


class _Ctx:
    """Per-compilation state: schema, subquery boundaries, plan metadata."""

    __slots__ = ("schema", "boundaries", "meta", "sids", "db", "optimize",
                 "vectorize", "nids", "subplans", "nullable", "params")

    def __init__(self, schema: Schema, db: Database | None = None,
                 optimize: bool = False, vectorize: bool = False,
                 params: tuple = ()) -> None:
        self.schema = schema
        self.db = db
        self.optimize = optimize
        self.vectorize = vectorize
        #: the compiling query's parameter values: they feed selectivity
        #: estimates only, never the compiled operators
        self.params = params
        self.boundaries: list[dict[str, Any]] = []
        #: frames whose runtime row may be ``None`` where the expression
        #: being compiled runs: the empty-group representative of an
        #: ungrouped aggregate, while its items, HAVING and ORDER BY compile
        self.nullable: set[_Frame] = set()
        self.sids = count()
        self.nids = count(1)
        self.subplans: list[tuple[int, PlanNode]] = []
        self.meta: dict[str, int] = {
            "table_scans": 0,
            "hash_joins": 0,
            "nested_loop_joins": 0,
            "pushed_filters": 0,
            "hoisted_subqueries": 0,
            "correlated_subqueries": 0,
            "index_scans": 0,
            "indexed_joins": 0,
            "join_reorders": 0,
            "semi_joins": 0,
            "topk_sorts": 0,
            "vector_ops": 0,
            "vector_fallbacks": 0,
        }

    @contextmanager
    def row_may_be_none(self, frame: _Frame, nullable: bool):
        """Compile the enclosed expressions with *frame*'s row possibly
        ``None`` (*nullable*) or never ``None``; restores the old state."""
        saved = self.nullable
        self.nullable = saved | {frame} if nullable else saved - {frame}
        try:
            yield
        finally:
            self.nullable = saved

    def node(self, op, detail="", est_rows=None, est_cost=None,
             children=()) -> PlanNode:
        return PlanNode(next(self.nids), op, detail, est_rows, est_cost,
                        children)

    def table_stats(self, name: str):
        """Compile-time statistics for *name*, or ``None`` when unknown."""
        if self.db is None:
            return None
        table = self.db.tables.get(name.lower())
        if table is None:
            return None
        return _stats.table_stats(table)


class _ExecState:
    """Per-execution state: database, bound parameters, subquery memo,
    actual row counts.

    ``timings`` is ``None`` on the normal path (operator runners test it
    with a single attribute load); :meth:`CompiledPlan.run_traced` swaps
    in a dict keyed by ``PlanNode.nid``, into which the separable
    execution units (the root runner, each subquery plan) accumulate
    wall seconds for ``explain()`` and the span tree.
    """

    __slots__ = ("db", "params", "memo", "actuals", "timings")

    def __init__(self, db: Database, params: tuple = ()) -> None:
        self.db = db
        self.params = params
        self.memo: dict[Any, Any] = {}
        self.actuals: dict[int, int] = {}
        self.timings: dict[int, float] | None = None


def _resolve(
    chain: list[_Frame], ctx: _Ctx, table: str | None, column: str
) -> list[tuple[int, int]]:
    """Candidate ``(depth, slot)`` pairs for a column reference.

    One candidate per chain depth where the reference would resolve, up to
    and including the first depth whose row can never be ``None``; slot
    ``-1`` marks depth-level ambiguity.  At runtime candidates are tried in
    order, skipping depths whose row is ``None`` (the empty-group
    representative), which reproduces the interpreter's scope walk through
    its empty ``_Scope``.  Only the candidates kept can be reached, so only
    they mark a subquery boundary as escaped: a reference is correlated
    exactly when it can reach an outer scope at runtime.
    """
    column_l = column.lower()
    table_l = table.lower() if table is not None else None
    nullable = ctx.nullable
    cands: list[tuple[int, int]] = []
    for depth, frame in enumerate(chain):
        if table_l is not None:
            slots = frame.bindings.get(table_l)
            if slots is None or column_l not in slots:
                continue
            cands.append((depth, slots[column_l]))
        else:
            hits = [s[column_l] for s in frame.bindings.values() if column_l in s]
            if not hits:
                continue
            cands.append((depth, hits[0] if len(hits) == 1 else -1))
        if frame not in nullable:
            break
    if cands and ctx.boundaries:
        length = len(chain)
        for depth, slot in cands:
            for boundary in ctx.boundaries:
                if length - depth <= boundary["size"]:
                    boundary["refs"][_ref_name(chain[depth], table_l,
                                               column_l, slot)] = None
    return cands


def _ref_name(frame: _Frame, table_l: str | None, column_l: str,
              slot: int) -> str:
    """``binding.column`` for a resolved reference (bare when ambiguous)."""
    if table_l is not None:
        return f"{table_l}.{column_l}"
    for binding, slots in frame.bindings.items():
        if slots.get(column_l) == slot:
            return f"{binding}.{column_l}"
    return column_l


def _analyze_safe(
    expr: Expr, chain: list[_Frame], ctx: _Ctx, slots: set[int]
) -> bool:
    """Whether *expr* is statically error-free over depth-0 columns only.

    Accumulates the depth-0 slots it reads into *slots*.  Used to gate hash
    joins and filter pushdown: a safe expression can be re-ordered or
    evaluated on fewer rows without hiding a data-dependent error the
    interpreter would have raised.
    """
    if isinstance(expr, (Literal, Param)):
        return True
    if isinstance(expr, ColumnRef):
        cands = _resolve(chain, ctx, expr.table, expr.column)
        if len(cands) == 1 and cands[0][0] == 0 and cands[0][1] >= 0:
            slots.add(cands[0][1])
            return True
        return False
    if isinstance(expr, BinaryOp):
        if expr.op in _COMPARISONS or expr.op in ("and", "or"):
            return _analyze_safe(expr.left, chain, ctx, slots) and _analyze_safe(
                expr.right, chain, ctx, slots
            )
        return False  # arithmetic can raise on non-numeric values
    if isinstance(expr, UnaryOp):
        return expr.op == "not" and _analyze_safe(expr.operand, chain, ctx, slots)
    if isinstance(expr, Between):
        return (
            _analyze_safe(expr.expr, chain, ctx, slots)
            and _analyze_safe(expr.low, chain, ctx, slots)
            and _analyze_safe(expr.high, chain, ctx, slots)
        )
    if isinstance(expr, InList):
        return _analyze_safe(expr.expr, chain, ctx, slots) and all(
            _analyze_safe(item, chain, ctx, slots) for item in expr.items
        )
    if isinstance(expr, Like):
        return _analyze_safe(expr.expr, chain, ctx, slots) and _analyze_safe(
            expr.pattern, chain, ctx, slots
        )
    if isinstance(expr, IsNull):
        return _analyze_safe(expr.expr, chain, ctx, slots)
    return False


def _compile_local(expr: Expr, local: _Frame, ctx: _Ctx):
    """Compile *expr* against a single-table frame with no outer chain.

    Only valid for expressions `_analyze_safe` approved against the full
    chain (depth-0 slots only), so the subquery-escape detector — which
    assumes chains extend the whole outer chain — is suspended: a pushed
    filter inside a subquery is not a correlation.
    """
    saved = ctx.boundaries
    ctx.boundaries = []
    try:
        return _compile_expr(expr, [local], ctx, None)
    finally:
        ctx.boundaries = saved


def _split_conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _side(slots: set[int], left_width: int) -> str:
    if not slots:
        return "none"
    if all(s < left_width for s in slots):
        return "left"
    if all(s >= left_width for s in slots):
        return "right"
    return "mixed"


def _chain_key(rows: tuple) -> tuple:
    """Memo key for a row chain; type-tagged so ``1``/``1.0``/``True`` —
    equal and hash-equal in Python but distinguishable by SQL functions —
    never share a correlated-subquery memo entry."""
    return tuple(
        None if row is None else tuple((v.__class__, v) for v in row)
        for row in rows
    )


class _SubPlan:
    """A compiled subquery with hoisting/memoization.

    Uncorrelated subqueries (no compiled reference escapes their scope
    boundary) are keyed by plan-unique ``sid`` alone: one execution per
    query execution.  Correlated ones add the outer row chain to the key,
    collapsing repeated outer values to a single child execution.
    """

    __slots__ = ("sid", "correlated", "runner", "transform", "nid")

    def __init__(self, sid, correlated, runner, transform, nid=-1) -> None:
        self.sid = sid
        self.correlated = correlated
        self.runner = runner
        self.transform = transform
        self.nid = nid

    def fetch(self, state: _ExecState, rows: tuple):
        key = (self.sid, _chain_key(rows)) if self.correlated else self.sid
        memo = state.memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            timings = state.timings
            if timings is None:
                value = self.transform(self.runner(state, rows))
            else:  # traced run: accumulate per-subplan wall time
                start = _obs_trace.now()
                value = self.transform(self.runner(state, rows))
                timings[self.nid] = (
                    timings.get(self.nid, 0.0) + _obs_trace.now() - start
                )
            memo[key] = value
        return value


def _as_in_set(result: Result) -> tuple[set, bool]:
    values: set = set()
    saw_null = False
    for row in result.rows:
        v = row[0] if row else None
        if v is None:
            saw_null = True
        else:
            values.add(v)
    return values, saw_null


def _as_exists(result: Result) -> bool:
    return bool(result.rows)


def _as_scalar(result: Result) -> Value:
    return result.rows[0][0] if result.rows and result.rows[0] else None


# ----------------------------------------------------------------------
# expression compiler
# ----------------------------------------------------------------------
def _compile_expr(
    expr: Expr,
    chain: list[_Frame],
    ctx: _Ctx,
    aliases: dict[str, int] | None = None,
) -> _ExprFn:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda state, rows, group, proj: value
    if isinstance(expr, Param):
        index = expr.index
        return lambda state, rows, group, proj: state.params[index]
    if isinstance(expr, ColumnRef):
        return _compile_colref(expr, chain, ctx, aliases)
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return _compile_aggregate(expr, chain, ctx)
        return _compile_scalar_func(expr, chain, ctx)
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, chain, ctx, aliases)
    if isinstance(expr, UnaryOp):
        operand_fn = _compile_expr(expr.operand, chain, ctx, aliases)
        if expr.op == "not":

            def not_fn(state, rows, group, proj):
                inner = operand_fn(state, rows, group, proj)
                if inner is None:
                    return None
                return not _truthy(inner)

            return not_fn

        def neg_fn(state, rows, group, proj):
            operand = operand_fn(state, rows, group, proj)
            if operand is None:
                return None
            if not isinstance(operand, (int, float)):
                raise ExecutionError(f"cannot negate non-numeric value {operand!r}")
            return -operand

        return neg_fn
    if isinstance(expr, Between):
        value_fn = _compile_expr(expr.expr, chain, ctx, aliases)
        low_fn = _compile_expr(expr.low, chain, ctx, aliases)
        high_fn = _compile_expr(expr.high, chain, ctx, aliases)
        negated = expr.negated

        def between_fn(state, rows, group, proj):
            value = value_fn(state, rows, group, proj)
            low = low_fn(state, rows, group, proj)
            high = high_fn(state, rows, group, proj)
            cmp_low = compare_values(value, low)
            cmp_high = compare_values(value, high)
            if cmp_low is None or cmp_high is None:
                return None
            result = cmp_low >= 0 and cmp_high <= 0
            return (not result) if negated else result

        return between_fn
    if isinstance(expr, InList):
        value_fn = _compile_expr(expr.expr, chain, ctx, aliases)
        item_fns = [_compile_expr(item, chain, ctx, aliases) for item in expr.items]
        negated = expr.negated

        def in_list_fn(state, rows, group, proj):
            return _eval_in(
                value_fn(state, rows, group, proj),
                [fn(state, rows, group, proj) for fn in item_fns],
                negated,
            )

        return in_list_fn
    if isinstance(expr, InSubquery):
        value_fn = _compile_expr(expr.expr, chain, ctx, aliases)
        sub = _compile_subplan(expr.query, chain, ctx, _as_in_set)
        negated = expr.negated

        def in_sub_fn(state, rows, group, proj):
            value = value_fn(state, rows, group, proj)
            values, saw_null = sub.fetch(state, rows)
            if value is None:
                return None
            if value in values:
                return not negated
            if saw_null:
                return None
            return negated

        return in_sub_fn
    if isinstance(expr, Like):
        value_fn = _compile_expr(expr.expr, chain, ctx, aliases)
        pattern_fn = _compile_expr(expr.pattern, chain, ctx, aliases)
        negated = expr.negated

        def like_fn(state, rows, group, proj):
            value = value_fn(state, rows, group, proj)
            pattern = pattern_fn(state, rows, group, proj)
            if value is None or pattern is None:
                return None
            result = _like_match(str(value), str(pattern))
            return (not result) if negated else result

        return like_fn
    if isinstance(expr, IsNull):
        value_fn = _compile_expr(expr.expr, chain, ctx, aliases)
        negated = expr.negated

        def is_null_fn(state, rows, group, proj):
            result = value_fn(state, rows, group, proj) is None
            return (not result) if negated else result

        return is_null_fn
    if isinstance(expr, Exists):
        sub = _compile_subplan(expr.query, chain, ctx, _as_exists)
        negated = expr.negated

        def exists_fn(state, rows, group, proj):
            result = sub.fetch(state, rows)
            return (not result) if negated else result

        return exists_fn
    if isinstance(expr, ScalarSubquery):
        sub = _compile_subplan(expr.query, chain, ctx, _as_scalar)
        return lambda state, rows, group, proj: sub.fetch(state, rows)
    if isinstance(expr, Star):

        def star_fn(state, rows, group, proj):
            raise ExecutionError("'*' is only valid in projections and COUNT(*)")

        return star_fn
    message = f"cannot evaluate expression {expr!r}"

    def unknown_fn(state, rows, group, proj):  # pragma: no cover - defensive
        raise ExecutionError(message)

    return unknown_fn


def _compile_colref(
    expr: ColumnRef, chain: list[_Frame], ctx: _Ctx, aliases: dict[str, int] | None
) -> _ExprFn:
    column_l = expr.column.lower()
    if aliases and expr.table is None and column_l in aliases:
        index = aliases[column_l]
        return lambda state, rows, group, proj: proj[index]
    cands = _resolve(chain, ctx, expr.table, expr.column)
    qualified = f"{expr.table}.{column_l}" if expr.table else column_l
    unknown = f"unknown column reference {qualified!r}"
    ambiguous = f"ambiguous column reference {column_l!r}"
    fallback = aliases.get(column_l) if aliases else None

    if fallback is None and len(cands) == 1 and cands[0][1] >= 0:
        depth, slot = cands[0]

        def fast_fn(state, rows, group, proj):
            row = rows[depth]
            if row is None:
                raise ExecutionError(unknown)
            return row[slot]

        return fast_fn

    def lookup_fn(state, rows, group, proj):
        for depth, slot in cands:
            row = rows[depth]
            if row is None:
                continue
            if slot < 0:
                if fallback is not None:
                    return proj[fallback]
                raise ExecutionError(ambiguous)
            return row[slot]
        if fallback is not None:
            return proj[fallback]
        raise ExecutionError(unknown)

    return lookup_fn


def _compile_binary(
    expr: BinaryOp, chain: list[_Frame], ctx: _Ctx, aliases: dict[str, int] | None
) -> _ExprFn:
    op = expr.op
    left_fn = _compile_expr(expr.left, chain, ctx, aliases)
    right_fn = _compile_expr(expr.right, chain, ctx, aliases)
    if op in ("and", "or"):
        # both sides always evaluate — no short-circuit — so data-dependent
        # errors surface exactly as in the reference interpreter
        def bool_fn(state, rows, group, proj):
            left = left_fn(state, rows, group, proj)
            right = right_fn(state, rows, group, proj)
            return _bool3(op, left, right)

        return bool_fn
    if op in _COMPARISONS:
        test = _CMP_TESTS[op]

        def cmp_fn(state, rows, group, proj):
            cmp = compare_values(
                left_fn(state, rows, group, proj),
                right_fn(state, rows, group, proj),
            )
            if cmp is None:
                return None
            return test(cmp)

        return cmp_fn

    def arith_fn(state, rows, group, proj):
        left = left_fn(state, rows, group, proj)
        right = right_fn(state, rows, group, proj)
        if left is None or right is None:
            return None
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            if op == "+" and isinstance(left, str) and isinstance(right, str):
                return left + right
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
                return None
            return left / right
        if op == "%":
            if right == 0:
                return None
            return left % right
        raise ExecutionError(f"unknown operator {op!r}")  # pragma: no cover

    return arith_fn


def _compile_scalar_func(expr: FuncCall, chain: list[_Frame], ctx: _Ctx) -> _ExprFn:
    # scalar function arguments never see the alias environment, matching
    # the interpreter's _eval_function; the group does pass through so
    # e.g. ABS(SUM(x)) works inside aggregated selects
    arg_fns = [_compile_expr(arg, chain, ctx, None) for arg in expr.args]
    name = expr.name.lower()
    nargs = len(arg_fns)
    if name == "abs" and nargs == 1:
        arg_fn = arg_fns[0]

        def abs_fn(state, rows, group, proj):
            value = arg_fn(state, rows, group, proj)
            return None if value is None else abs(value)

        return abs_fn
    if name in ("upper", "lower") and nargs == 1:
        arg_fn = arg_fns[0]
        upper = name == "upper"

        def case_fn(state, rows, group, proj):
            value = arg_fn(state, rows, group, proj)
            if value is None:
                return None
            text = str(value)
            return text.upper() if upper else text.lower()

        return case_fn
    if name == "length" and nargs == 1:
        arg_fn = arg_fns[0]

        def length_fn(state, rows, group, proj):
            value = arg_fn(state, rows, group, proj)
            return None if value is None else len(str(value))

        return length_fn
    if name == "round":

        def round_fn(state, rows, group, proj):
            args = [fn(state, rows, group, proj) for fn in arg_fns]
            if not args or args[0] is None:
                return None
            digits = int(args[1]) if len(args) > 1 and args[1] is not None else 0
            return round(float(args[0]), digits)

        return round_fn
    message = f"unknown function {expr.name!r}"

    def unknown_fn(state, rows, group, proj):
        # arguments still evaluate first, exactly like the interpreter
        for fn in arg_fns:
            fn(state, rows, group, proj)
        raise ExecutionError(message)

    return unknown_fn


def _compile_aggregate(expr: FuncCall, chain: list[_Frame], ctx: _Ctx) -> _ExprFn:
    name = expr.name.lower()
    outside = f"aggregate {name.upper()} used outside an aggregated context"
    if name == "count" and (not expr.args or isinstance(expr.args[0], Star)):

        def count_star_fn(state, rows, group, proj):
            if group is None:
                raise ExecutionError(outside)
            return len(group)

        return count_star_fn
    if not expr.args:
        required = f"aggregate {name.upper()} requires an argument"

        def no_arg_fn(state, rows, group, proj):
            if group is None:
                raise ExecutionError(outside)
            raise ExecutionError(required)

        return no_arg_fn
    # the argument runs on member rows, which are never None
    with ctx.row_may_be_none(chain[0], False):
        arg_fn = _compile_expr(expr.args[0], chain, ctx, None)
    distinct = expr.distinct
    non_numeric = f"aggregate {name.upper()} over non-numeric values"

    def aggregate_fn(state, rows, group, proj):
        if group is None:
            raise ExecutionError(outside)
        outer = rows[1:]
        values = []
        for member in group:
            value = arg_fn(state, (member,) + outer, None, None)
            if value is not None:
                values.append(value)
        if distinct:
            values = _distinct_values(values)
        if name == "count":
            return len(values)
        if not values:
            return None
        if name == "min":
            return min_value(values)
        if name == "max":
            return max_value(values)
        numbers = sum_operands(values)
        if numbers is None:
            raise ExecutionError(non_numeric)
        total = sum(numbers)
        if name == "sum":
            return total
        return total / len(numbers)  # avg; parser admits no other aggregate

    return aggregate_fn


def _compile_subplan(query: Query, chain: list[_Frame], ctx: _Ctx, transform):
    # refs: outer references (binding.column, in first-seen order) that
    # escape this boundary; any one makes the subquery correlated
    boundary = {"size": len(chain), "refs": {}}
    ctx.boundaries.append(boundary)
    runner, node = _compile_query_runner(query, chain, ctx)
    ctx.boundaries.pop()
    refs = list(boundary["refs"])
    correlated = bool(refs)
    if correlated:
        ctx.meta["correlated_subqueries"] += 1
        detail = "correlated on " + ", ".join(refs)
    else:
        ctx.meta["hoisted_subqueries"] += 1
        detail = "hoisted"
    sid = next(ctx.sids)
    sub_node = ctx.node("subquery", f"s{sid} {detail}", children=[node])
    ctx.subplans.append(sub_node)
    return _SubPlan(sid, correlated, runner, transform, sub_node.nid)


# ----------------------------------------------------------------------
# FROM clause: scans and joins
# ----------------------------------------------------------------------
def _linearize(clause) -> tuple[TableRef, list[Join]]:
    joins: list[Join] = []
    while isinstance(clause, Join):
        joins.append(clause)
        clause = clause.left
    joins.reverse()
    return clause, joins


def _make_scan(name: str, filters, nid: int = -1):
    if not filters:
        def scan(state):
            rows = state.db.table(name).rows
            state.actuals[nid] = len(rows)
            return rows

        return scan

    def filtered_scan(state):
        rows = state.db.table(name).rows
        for fn in filters:
            rows = [row for row in rows if _truthy(fn(state, (row,), None, None))]
        state.actuals[nid] = len(rows)
        return rows

    return filtered_scan


def _make_missing_scan(name: str):
    def scan(state):
        state.db.table(name)  # raises the database's own AnalysisError
        raise AnalysisError(  # pragma: no cover - schema/db mismatch only
            f"database {state.db.db_id!r} has no table {name!r}"
        )

    return scan


# ----------------------------------------------------------------------
# optimizer: scan predicate analysis and index-driven scans
# ----------------------------------------------------------------------
_RANGE_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _plain_column(expr, frame: _Frame) -> str | None:
    """Lowercased column name when *expr* is a plain column of *frame*."""
    if not isinstance(expr, ColumnRef):
        return None
    column_l = expr.column.lower()
    if expr.table is not None:
        slots = frame.bindings.get(expr.table.lower())
        if slots is not None and column_l in slots:
            return column_l
        return None
    hits = [b for b, s in frame.bindings.items() if column_l in s]
    return column_l if len(hits) == 1 else None


def _analyze_pred(conjunct: Expr, frame: _Frame, stats, params: tuple):
    """(index driver, estimated selectivity) for a safe scan conjunct.

    The driver describes how the scan can *produce* exactly the rows this
    conjunct admits straight from an index — equality and ``IN`` against
    parameters use the hash index, comparisons and ``BETWEEN`` the sorted
    index; everything else only contributes a selectivity estimate used to
    order the residual filters most-selective-first.  A driver holds its
    operands as nodes, and a parameter's value is looked up by each
    execution (:func:`_driver_values`); *params* (the compiling query's
    values) feed the estimates.
    Index lookups and the compiled predicate agree exactly: Python dict
    equality matches ``compare_values(...) == 0`` for every value type,
    bisect over sort keys matches the comparison total order, and NULL
    keys match nothing.  A parameter's class is part of the plan's key,
    so a NULL parameter is NULL for every execution of the plan.
    """

    def col_stats(name):
        if stats is None or name is None:
            return None
        return stats.column(name)

    if isinstance(conjunct, BinaryOp):
        op = conjunct.op
        if op in _COMPARISONS:
            left_col = _plain_column(conjunct.left, frame)
            right_col = _plain_column(conjunct.right, frame)
            col = ref = None
            if left_col is not None and _is_value(conjunct.right):
                col, ref = left_col, conjunct.right
            elif right_col is not None and _is_value(conjunct.left):
                col, ref = right_col, conjunct.left
                op = _RANGE_FLIP.get(op, op)
            if col is not None:
                lit = _value_of(ref, params)
                cs = col_stats(col)
                if op == "=":
                    sel = (cs.eq_selectivity(lit) if cs is not None
                           else _stats.DEFAULT_EQ_SELECTIVITY)
                    return ("eq", col, ref), sel
                if op == "<>":
                    eq = (cs.eq_selectivity(lit) if cs is not None
                          else _stats.DEFAULT_EQ_SELECTIVITY)
                    return None, max(0.0, 1.0 - eq)
                if lit is None:  # NULL bound: three-valued, matches nothing
                    return None, 0.0
                sel = (cs.range_selectivity(op, lit) if cs is not None
                       else _stats.DEFAULT_RANGE_SELECTIVITY)
                if op in ("<", "<="):
                    return ("range", col, None, True, ref, op == "<="), sel
                return ("range", col, ref, op == ">=", None, True), sel
            if op == "=":
                return None, _stats.DEFAULT_EQ_SELECTIVITY
            return None, _stats.DEFAULT_RANGE_SELECTIVITY
        if op == "and":
            _d1, s1 = _analyze_pred(conjunct.left, frame, stats, params)
            _d2, s2 = _analyze_pred(conjunct.right, frame, stats, params)
            return None, s1 * s2
        if op == "or":
            _d1, s1 = _analyze_pred(conjunct.left, frame, stats, params)
            _d2, s2 = _analyze_pred(conjunct.right, frame, stats, params)
            return None, min(1.0, s1 + s2)
        return None, 0.25
    if isinstance(conjunct, Between) and not conjunct.negated:
        col = _plain_column(conjunct.expr, frame)
        if (
            col is not None
            and _is_value(conjunct.low)
            and _is_value(conjunct.high)
        ):
            low_ref, high_ref = conjunct.low, conjunct.high
            low, high = _value_of(low_ref, params), _value_of(high_ref, params)
            if low is None or high is None:
                return None, 0.0
            cs = col_stats(col)
            sel = (cs.between_selectivity(low, high) if cs is not None
                   else _stats.DEFAULT_RANGE_SELECTIVITY)
            return ("range", col, low_ref, True, high_ref, True), sel
        return None, _stats.DEFAULT_RANGE_SELECTIVITY
    if isinstance(conjunct, InList) and not conjunct.negated:
        col = _plain_column(conjunct.expr, frame)
        if col is not None and all(_is_value(item) for item in conjunct.items):
            refs = conjunct.items
            values = tuple(_value_of(ref, params) for ref in refs)
            cs = col_stats(col)
            sel = (cs.in_selectivity(values) if cs is not None
                   else min(1.0, _stats.DEFAULT_EQ_SELECTIVITY * len(values)))
            return ("in", col, refs), sel
        return None, min(1.0, 0.1 * max(len(conjunct.items), 1))
    if isinstance(conjunct, IsNull):
        col = _plain_column(conjunct.expr, frame)
        cs = col_stats(col)
        if cs is not None:
            return None, cs.null_selectivity(conjunct.negated)
        return None, 0.9 if conjunct.negated else 0.1
    if isinstance(conjunct, UnaryOp) and conjunct.op == "not":
        _d, sel = _analyze_pred(conjunct.operand, frame, stats, params)
        return None, max(0.0, 1.0 - sel)
    if isinstance(conjunct, Like):
        return None, 0.25
    return None, 0.25


def _is_value(expr: Expr) -> bool:
    return expr.__class__ is Param or expr.__class__ is Literal


def _value_of(ref: Expr, params: tuple) -> Value:
    """The value of a literal, or of a parameter bound to *params*."""
    return ref.value if ref.__class__ is Literal else params[ref.index]


def _driver_values(driver, params: tuple) -> tuple:
    """*driver* with its operand nodes replaced by their values."""
    kind = driver[0]
    if kind == "eq":
        return (kind, driver[1], _value_of(driver[2], params))
    if kind == "in":
        return (kind, driver[1],
                tuple(_value_of(ref, params) for ref in driver[2]))
    low, high = driver[2], driver[4]
    return (
        kind, driver[1],
        None if low is None else _value_of(low, params), driver[3],
        None if high is None else _value_of(high, params), driver[5],
    )


def _indexable(bound) -> bool:
    """Whether an index answers the bound driver exactly: a NaN is not
    ordered against any number, and no index order reproduces how
    ``compare_values`` answers those pairs."""
    values = bound[2] if bound[0] == "in" else bound[2::2]
    return not any(v.__class__ is float and v != v for v in values)


def _driver_detail(driver, params: tuple) -> str:
    kind, column, *rest = _driver_values(driver, params)
    if kind == "eq":
        return f"{column} = {rest[0]!r}"
    if kind == "in":
        return f"{column} IN {rest[0]!r}"
    low, low_incl, high, high_incl = rest
    low = "" if low is None else f"{low!r} <{'=' if low_incl else ''} "
    high = "" if high is None else f" <{'=' if high_incl else ''} {high!r}"
    return f"{low}{column}{high}"


def _make_opt_scan(name: str, fns_all, rest_fns, driver, nid: int, semi=None):
    """Index-aware scan: drive off an index when the table is big enough,
    apply remaining filters most-selective-first with per-row short-circuit
    (valid because every pushed conjunct is statically safe), then apply
    the optional semi-join stage.

    The semi-join gate runs whenever the *raw* table is non-empty — the
    reference engine evaluates the whole WHERE (including the subquery,
    AND does not short-circuit) for every source row, so a subquery error
    must surface iff the table has at least one row, even when the pushed
    filters leave none.
    """
    scan_label = f"scan {name}"

    def scan(state):
        table = state.db.table(name)
        raw = table.rows
        rows = raw
        bound = None
        if driver is not None and len(raw) >= _index.MIN_INDEX_ROWS:
            bound = _driver_values(driver, state.params)
            if not _indexable(bound):
                bound = None
        if bound is not None:
            kind = bound[0]
            if kind == "eq":
                rows = _index.hash_index(table, (bound[1],)).lookup(bound[2])
            elif kind == "in":
                rows = _index.hash_index(table, (bound[1],)).lookup_many(
                    raw, bound[2]
                )
            else:
                idx = _index.sorted_index(table, bound[1])
                positions = idx.range_positions(
                    bound[2], bound[4], bound[3], bound[5]
                )
                rows = [raw[p] for p in positions]
            fns = rest_fns
        else:
            fns = fns_all
        if fns:
            out = []
            for row in _deadline.guard_rows(rows, scan_label):
                chain = (row,)
                for fn in fns:
                    if not _truthy(fn(state, chain, None, None)):
                        break
                else:
                    out.append(row)
            rows = out
        if semi is not None and raw:
            value_fn, sub = semi
            values, _saw_null = sub.fetch(state, ())
            rows = [
                row for row in rows
                if value_fn(state, (row,), None, None) in values
            ]
        state.actuals[nid] = len(rows)
        return rows

    return scan


# ----------------------------------------------------------------------
# vectorized operators (columnar kernels over repro.sql.vector batches)
# ----------------------------------------------------------------------
def _local_slot_of(local: _Frame):
    """``slot_of`` callback for kernels over a single-table local frame.

    Resolution mirrors ``_compile_local``'s name lookup exactly: a
    qualified reference must name the frame's binding, an unqualified one
    must be unambiguous across bindings (a local frame has exactly one).
    """

    def slot_of(ref: ColumnRef) -> int | None:
        column_l = ref.column.lower()
        if ref.table is not None:
            slots = local.bindings.get(ref.table.lower())
            if slots is not None and column_l in slots:
                return slots[column_l]
            return None
        hits = [s[column_l] for s in local.bindings.values() if column_l in s]
        return hits[0] if len(hits) == 1 else None

    return slot_of


def _compile_kernels(conjuncts, local: _Frame):
    """Batch kernels for pushed scan conjuncts, or ``None`` on any miss.

    All-or-nothing: mixing kernels with row closures inside one scan would
    complicate the runner for no gain (the row path already handles every
    conjunct), so one unkernelizable conjunct fails the whole scan over to
    the row engine.
    """
    slot_of = _local_slot_of(local)
    kernels = []
    for conjunct in conjuncts:
        kernel = _vector.compile_predicate(conjunct, slot_of)
        if kernel is None:
            return None
        kernels.append(kernel)
    return kernels


def _make_vector_scan(name: str, kernels, semi, nid: int):
    """Columnar scan: filter the cached column batch, then gather rows.

    Kernels run in the same (selectivity) order as the row path's filter
    closures over a shrinking selection vector, with an early exit once
    it empties — legal because every pushed conjunct is statically safe,
    so skipped evaluations cannot hide errors.  The optional semi-join
    stage is identical to ``_make_opt_scan``'s (the subquery must run —
    and surface its errors — whenever the raw table is non-empty).
    """
    scan_label = f"vector scan {name}"

    def scan(state):
        table = state.db.table(name)
        batch = _vector.column_batch(table)
        raw = batch.rows
        rows = raw
        if raw:
            _vector.BATCHES.inc()
            sel = range(len(raw))
            params = state.params
            for kernel in kernels:
                if _deadline._ACTIVE:
                    _deadline.checkpoint(scan_label)
                sel = kernel(batch, sel, params)
                if not sel:
                    break
            rows = [raw[i] for i in sel]
        if semi is not None and raw:
            value_fn, sub = semi
            values, _saw_null = sub.fetch(state, ())
            rows = [
                row for row in rows
                if value_fn(state, (row,), None, None) in values
            ]
        state.actuals[nid] = len(rows)
        return rows

    return scan


def _make_vector_hash_join(
    prev, right_scan, kind: str, left_slots, right_slots, right_width: int,
    nid: int, index_info=None,
):
    """Hash join with both key sides resolved to plain depth-0 slots.

    Build and probe index columns directly instead of calling compiled
    key closures per row; the bucket layout (raw single values / tuples,
    NULL keys skipped) is shared with :func:`repro.sql.index.build_hash_buckets`,
    so the cached-table-index path and the inline build agree exactly.
    Residual join conjuncts are never present here (they fail the join
    over to the row engine), which keeps the probe loop branch-free.
    """
    pad = (None,) * right_width
    left_join = kind == "left"
    single = len(left_slots) == 1
    lslot = left_slots[0] if single else None
    lget = None if single else itemgetter(*left_slots)

    def run(state, outer):
        right_rows = right_scan(state)
        if index_info is not None and len(right_rows) >= _index.MIN_INDEX_ROWS:
            # unfiltered base-table build side: the cached table index
            # holds exactly the buckets the inline build would produce
            buckets = _index.hash_index(
                state.db.table(index_info[0]), index_info[1]
            ).buckets
        else:
            buckets = _index.build_hash_buckets(right_rows, right_slots)
        _vector.BATCHES.inc()
        out = []
        append = out.append
        probe = _deadline.guard_rows(prev(state, outer), "hash join probe")
        for left in probe:
            if single:
                key = left[lslot]
                bucket = buckets.get(key) if key is not None else None
            else:
                key = lget(left)
                bucket = (
                    buckets.get(key)
                    if not any(v is None for v in key)
                    else None
                )
            if bucket:
                for right in bucket:
                    append(left + right)
            elif left_join:
                append(left + pad)
        state.actuals[nid] = len(out)
        return out

    return run


def _make_nested_join(
    prev, right_scan, kind: str, cond_fn, right_width: int, nid: int = -1
):
    pad = (None,) * right_width
    left_join = kind == "left"

    def run(state, outer):
        left_rows = prev(state, outer)
        right_rows = right_scan(state)
        out = []
        if cond_fn is None:
            for left in left_rows:
                if right_rows:
                    for right in right_rows:
                        out.append(left + right)
                elif left_join:
                    out.append(left + pad)
            state.actuals[nid] = len(out)
            return out
        for left in left_rows:
            matched = False
            for right in right_rows:
                combined = left + right
                if _truthy(cond_fn(state, (combined,) + outer, None, None)):
                    matched = True
                    out.append(combined)
            if left_join and not matched:
                out.append(left + pad)
        state.actuals[nid] = len(out)
        return out

    return run


def _make_hash_join(
    prev,
    right_scan,
    kind: str,
    left_keys,
    right_keys,
    residuals,
    right_width: int,
    nid: int = -1,
    index_info=None,
):
    pad = (None,) * right_width
    left_join = kind == "left"
    single_key = len(left_keys) == 1
    lkey = left_keys[0] if single_key else None
    rkey = right_keys[0] if single_key else None

    def run(state, outer):
        right_rows = right_scan(state)
        if index_info is not None and len(right_rows) >= _index.MIN_INDEX_ROWS:
            # the scan is the unfiltered base table and every key is a
            # plain column, so the cached table index holds exactly the
            # buckets the inline build below would produce
            buckets = _index.hash_index(
                state.db.table(index_info[0]), index_info[1]
            ).buckets
        else:
            buckets = {}
            for right in right_rows:
                chain = (right,) + outer
                if single_key:
                    key = rkey(state, chain, None, None)
                    if key is None:
                        continue
                else:
                    key = tuple(fn(state, chain, None, None) for fn in right_keys)
                    if any(v is None for v in key):
                        continue
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [right]
                else:
                    bucket.append(right)
        out = []
        for left in prev(state, outer):
            chain = (left,) + outer
            matched = False
            if single_key:
                key = lkey(state, chain, None, None)
                bucket = buckets.get(key) if key is not None else None
            else:
                key = tuple(fn(state, chain, None, None) for fn in left_keys)
                bucket = (
                    buckets.get(key)
                    if not any(v is None for v in key)
                    else None
                )
            if bucket:
                if residuals:
                    for right in bucket:
                        combined = left + right
                        cchain = (combined,) + outer
                        for fn in residuals:
                            if not _truthy(fn(state, cchain, None, None)):
                                break
                        else:
                            matched = True
                            out.append(combined)
                else:
                    matched = True
                    for right in bucket:
                        out.append(left + right)
            if left_join and not matched:
                out.append(left + pad)
        state.actuals[nid] = len(out)
        return out

    return run


def _make_reordered_join(
    scans, ranges, total_width, order, steps, init_res, inv_positions, nid
):
    """Execute inner equi-joins in *order* and restore written-order output.

    Every intermediate row is a full-width tuple padded with ``None`` for
    not-yet-joined tables (safe conjuncts only read their own slots, so
    the padding is invisible), paired with the tuple of per-table filtered
    scan positions in execution order.  Written-order hash joins enumerate
    output lexicographically by written-order positions, so one final sort
    by the permuted position tuple restores the exact reference order.
    """
    n = len(order)
    position_key = itemgetter(*inv_positions)

    def run(state, outer):
        per_table = [scan(state) for scan in scans]
        first = order[0]
        start0, width0 = ranges[first]
        pre0 = (None,) * start0
        post0 = (None,) * (total_width - start0 - width0)
        inter = [
            (pre0 + row + post0, (pos,))
            for pos, row in enumerate(per_table[first])
        ]
        if init_res:
            inter = [
                item for item in inter
                if all(
                    _truthy(fn(state, (item[0],) + outer, None, None))
                    for fn in init_res
                )
            ]
        for t, build_fns, probe_fns, res_fns, index_info in steps:
            if not inter:
                break  # all conjuncts safe: nothing left can match or raise
            start, width = ranges[t]
            end = start + width
            single = len(build_fns) == 1
            pfn = probe_fns[0] if single else None
            if (
                index_info is not None
                and len(per_table[t]) >= _index.MIN_INDEX_ROWS
            ):
                buckets = _index.hash_index(
                    state.db.table(index_info[0]), index_info[1]
                ).pairs
            else:
                bfn = build_fns[0] if single else None
                buckets = {}
                for pos, row in enumerate(per_table[t]):
                    chain = (row,) + outer
                    if single:
                        key = bfn(state, chain, None, None)
                        if key is None:
                            continue
                    else:
                        key = tuple(
                            fn(state, chain, None, None) for fn in build_fns
                        )
                        if any(v is None for v in key):
                            continue
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [(pos, row)]
                    else:
                        bucket.append((pos, row))
            out = []
            for padded, positions in inter:
                chain = (padded,) + outer
                if single:
                    key = pfn(state, chain, None, None)
                    if key is None:
                        continue
                else:
                    key = tuple(fn(state, chain, None, None) for fn in probe_fns)
                    if any(v is None for v in key):
                        continue
                bucket = buckets.get(key)
                if bucket is None:
                    continue
                head = padded[:start]
                tail = padded[end:]
                for pos, row in bucket:
                    combined = head + row + tail
                    if res_fns:
                        cchain = (combined,) + outer
                        ok = True
                        for fn in res_fns:
                            if not _truthy(fn(state, cchain, None, None)):
                                ok = False
                                break
                        if not ok:
                            continue
                    out.append((combined, positions + (pos,)))
            inter = out
        if len(inter) > 1:
            inter.sort(key=lambda item: position_key(item[1]))
        rows = [padded for padded, _positions in inter]
        state.actuals[nid] = len(rows)
        return rows

    return run


class _FromInfo:
    """Compile-time facts about a FROM clause the runners can exploit."""

    __slots__ = ("node", "table", "unfiltered")

    def __init__(self, node, table=None, unfiltered=False):
        self.node = node
        self.table = table
        self.unfiltered = unfiltered


def _build_opt_scan(ctx: _Ctx, name: str, local: _Frame, preds, semi):
    """Optimizer scan: pick an index driver, order filters by selectivity."""
    stats = ctx.table_stats(name)
    base = float(stats.row_count) if stats is not None else None
    analyzed = []
    for conjunct, fn in preds:
        driver, sel = _analyze_pred(conjunct, local, stats, ctx.params)
        analyzed.append((sel, driver, conjunct, fn))
    analyzed.sort(key=lambda item: item[0])
    driver = None
    driver_at = -1
    for i, (sel, candidate, _conjunct, _fn) in enumerate(analyzed):
        if candidate is not None and sel <= 0.5:
            driver, driver_at = candidate, i
            break
    fns_all = tuple(item[3] for item in analyzed)
    rest_fns = tuple(
        item[3] for i, item in enumerate(analyzed) if i != driver_at
    )
    est = base
    if est is not None:
        for sel, _driver, _conjunct, _fn in analyzed:
            est *= sel
        if semi is not None:
            est *= 0.5
    suffix = " semi-join" if semi is not None else ""
    if driver is None:
        node = ctx.node("scan", name + suffix, est_rows=est, est_cost=base)
    else:
        ctx.meta["index_scans"] += 1
        node = ctx.node("index-scan", est_rows=est, est_cost=base)
        node.bound_detail = (
            lambda params: f"{name} [{_driver_detail(driver, params)}]{suffix}"
        )
    # ---- vectorized filter scan: only when the cost model picked no
    # index driver (an index already skips non-matching rows; a kernel
    # sweep over the full batch would be strictly more work) ----
    if ctx.vectorize and driver is None and analyzed:
        kernels = _compile_kernels([item[2] for item in analyzed], local)
        if kernels is not None:
            node.vectorized = True
            ctx.meta["vector_ops"] += 1
            scan = _make_vector_scan(name, kernels, semi, node.nid)
            return scan, node, est
        node.vectorized = False
        ctx.meta["vector_fallbacks"] += 1
        _vector.FALLBACKS.inc()
    elif ctx.vectorize:
        node.vectorized = False
    scan = _make_opt_scan(name, fns_all, rest_fns, driver, node.nid, semi)
    return scan, node, est


def _edge_selectivity(ctx: _Ctx, specs, locals_, conjunct, a: int, b: int):
    """Equi-join selectivity: ``1 / max(ndv)`` over plain key columns."""
    ndvs = []
    for expr, t in ((conjunct.left, a), (conjunct.right, b)):
        col = _plain_column(expr, locals_[t])
        if col is None:
            continue
        stats = ctx.table_stats(specs[t][0].name)
        if stats is None:
            continue
        ndvs.append(stats.column(col).ndv)
    if ndvs:
        return 1.0 / max(max(ndvs), 1)
    return _stats.DEFAULT_EQ_SELECTIVITY


def _try_join_reorder(
    ctx: _Ctx,
    joins,
    specs,
    frames,
    ranges,
    locals_,
    scans,
    scan_nodes,
    scan_ests,
    total_width: int,
    outer_chain,
    pushed,
):
    """Greedy smallest-intermediate-first join order, or ``None``.

    Eligibility: three or more distinct-binding tables, all INNER joins,
    every join conjunct statically safe against its written-order prefix
    frame (so a reference to a later table still errors exactly like the
    interpreter — such plans are ineligible), and the equi-join graph
    connects every table.  Non-equi safe conjuncts ride along as residual
    filters applied at the first step where all their tables are joined.
    """
    n = len(specs)
    if any(est is None for est in scan_ests):
        return None

    starts = [start for start, _width in ranges]

    def owner_of(slot: int) -> int:
        for i in range(n - 1, -1, -1):
            if slot >= starts[i]:
                return i
        return 0

    edges: dict = {}
    residuals: list[tuple[frozenset, Any]] = []
    for join_index, join in enumerate(joins):
        if join.condition is None:
            continue
        prefix_chain = [frames[join_index + 1]] + outer_chain
        for conjunct in _split_conjuncts(join.condition):
            slots: set[int] = set()
            if not _analyze_safe(conjunct, prefix_chain, ctx, slots):
                return None
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                lslots: set[int] = set()
                rslots: set[int] = set()
                _analyze_safe(conjunct.left, prefix_chain, ctx, lslots)
                _analyze_safe(conjunct.right, prefix_chain, ctx, rslots)
                lown = {owner_of(s) for s in lslots}
                rown = {owner_of(s) for s in rslots}
                if len(lown) == 1 and len(rown) == 1 and lown != rown:
                    a, b = lown.pop(), rown.pop()
                    sel = _edge_selectivity(ctx, specs, locals_, conjunct, a, b)
                    entry = (
                        a,
                        _compile_expr(conjunct.left, prefix_chain, ctx, None),
                        _compile_expr(
                            conjunct.left, [locals_[a]] + outer_chain, ctx, None
                        ),
                        b,
                        _compile_expr(conjunct.right, prefix_chain, ctx, None),
                        _compile_expr(
                            conjunct.right, [locals_[b]] + outer_chain, ctx, None
                        ),
                        sel,
                        _plain_column(conjunct.left, locals_[a]),
                        _plain_column(conjunct.right, locals_[b]),
                    )
                    edges.setdefault(frozenset((a, b)), []).append(entry)
                    continue
            owners = frozenset(owner_of(s) for s in slots)
            residuals.append(
                (owners, _compile_expr(conjunct, prefix_chain, ctx, None))
            )
    if not edges:
        return None

    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for pair in edges:
        a, b = tuple(pair)
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != n:
        return None

    start = min(range(n), key=lambda i: scan_ests[i])
    order = [start]
    joined = {start}
    cur_est = scan_ests[start]
    while len(joined) < n:
        best = best_est = None
        for t in range(n):
            if t in joined or not (adj[t] & joined):
                continue
            sel = 1.0
            for other in adj[t] & joined:
                for entry in edges[frozenset((t, other))]:
                    sel *= entry[6]
            est = cur_est * scan_ests[t] * sel
            if best is None or est < best_est:
                best, best_est = t, est
        order.append(best)
        joined.add(best)
        cur_est = best_est
    if order == list(range(n)):
        return None  # written order already optimal: skip the bookkeeping

    steps = []
    joined = {order[0]}
    remaining = list(residuals)
    init_res = tuple(fn for owners, fn in remaining if owners <= joined)
    remaining = [r for r in remaining if not (r[0] <= joined)]
    for t in order[1:]:
        build_fns = []
        probe_fns = []
        build_cols: list[str] | None = []
        for other in adj[t] & joined:
            for entry in edges[frozenset((t, other))]:
                if entry[0] == t:
                    build_fns.append(entry[2])
                    probe_fns.append(entry[4])
                    col = entry[7]
                else:
                    build_fns.append(entry[5])
                    probe_fns.append(entry[1])
                    col = entry[8]
                if build_cols is not None:
                    build_cols = build_cols + [col] if col is not None else None
        joined.add(t)
        res_fns = tuple(fn for owners, fn in remaining if owners <= joined)
        remaining = [r for r in remaining if not (r[0] <= joined)]
        # plain-column build keys over an unfiltered scan can reuse the
        # cached hash index instead of re-bucketing the table per execution
        index_info = None
        if build_cols and not pushed[t]:
            index_info = (specs[t][0].name, tuple(build_cols))
            ctx.meta["indexed_joins"] += 1
        steps.append(
            (t, tuple(build_fns), tuple(probe_fns), res_fns, index_info)
        )
        ctx.meta["hash_joins"] += 1
    ctx.meta["join_reorders"] += 1

    inv_positions = [order.index(j) for j in range(n)]
    node = ctx.node(
        "reorder-join",
        "exec order: " + " -> ".join(specs[i][0].binding for i in order),
        est_rows=cur_est,
        children=[scan_nodes[i] for i in order],
    )
    source = _make_reordered_join(
        scans, ranges, total_width, order, steps, init_res, inv_positions,
        node.nid,
    )
    return source, node


def _compile_from(select: Select, outer_chain: list[_Frame], ctx: _Ctx):
    """Compile the FROM clause plus any pushed-down WHERE conjuncts.

    Returns ``(frame, source, filter_fn, info)`` where ``source(state,
    outer)`` yields the list of flat joined row tuples, ``filter_fn`` is
    the residual WHERE predicate (``None`` when fully pushed down or
    absent), and ``info`` is a :class:`_FromInfo` with the plan subtree.
    """
    schema = ctx.schema
    if select.from_ is None:
        frame = _Frame()
        filter_fn = _compile_where([], select.where, [frame] + outer_chain, ctx)
        node = ctx.node("values", est_rows=1.0)
        nid = node.nid

        def no_from(state, outer):
            state.actuals[nid] = 1
            return _NO_FROM_ROWS

        return frame, no_from, filter_fn, _FromInfo(node)

    first, joins = _linearize(select.from_)
    refs = [first] + [join.right for join in joins]
    specs: list[tuple[TableRef, list[str] | None]] = []
    for ref in refs:
        if schema.has_table(ref.name):
            cols = [c.name.lower() for c in schema.table(ref.name).columns]
        else:
            cols = None  # scan raises at run time, like the interpreter
        specs.append((ref, cols))

    frames: list[_Frame] = []
    ranges: list[tuple[int, int]] = []  # (start, width) per table
    frame = _Frame()
    for ref, cols in specs:
        start = frame.width
        frame = frame.extended(ref.binding, cols or [])
        frames.append(frame)
        ranges.append((start, len(cols or ())))
    frame = frames[-1]
    complete = all(cols is not None for _, cols in specs)
    total_width = frame.width
    optimize = ctx.optimize

    locals_: list[_Frame | None] = [
        _Frame().extended(ref.binding, cols) if cols is not None else None
        for ref, cols in specs
    ]

    # ---- WHERE pushdown: only when every conjunct is statically safe ----
    # (the optimizer extends pushdown to single-table FROMs, and allows one
    # uncorrelated non-negated `col IN (subquery)` to lower to a semi-join)
    where_chain = [frame] + outer_chain
    pushed: list[list] = [[] for _ in specs]
    residual_where: list[Expr] | None = None
    semi = None
    if select.where is not None and complete and (len(specs) > 1 or optimize):
        conjuncts = _split_conjuncts(select.where)
        analyzed = []
        unsafe: list[Expr] = []
        for conjunct in conjuncts:
            slots: set[int] = set()
            if _analyze_safe(conjunct, where_chain, ctx, slots):
                analyzed.append((conjunct, slots))
            else:
                unsafe.append(conjunct)
        eligible = not unsafe
        if (
            not eligible
            and optimize
            and len(specs) == 1
            and len(unsafe) == 1
            and isinstance(unsafe[0], InSubquery)
            and not unsafe[0].negated
        ):
            value_slots: set[int] = set()
            if _analyze_safe(unsafe[0].expr, where_chain, ctx, value_slots):
                snapshot = dict(ctx.meta)
                subplans_len = len(ctx.subplans)
                sub = _compile_subplan(
                    unsafe[0].query, where_chain, ctx, _as_in_set
                )
                if sub.correlated:
                    # a correlated subquery must run per source row; fall
                    # back to the whole-WHERE plan (counters restored)
                    ctx.meta.clear()
                    ctx.meta.update(snapshot)
                    del ctx.subplans[subplans_len:]
                else:
                    value_fn = _compile_local(unsafe[0].expr, locals_[0], ctx)
                    semi = (value_fn, sub)
                    ctx.meta["semi_joins"] += 1
                    eligible = True
        if eligible:
            # the first table and inner-join right sides are pushable; the
            # right side of a LEFT join is not (pre-filtering it would turn
            # matched rows into null-padded ones)
            pushable = [True] + [join.kind != "left" for join in joins]
            residual_where = []
            for conjunct, slots in analyzed:
                owner = None
                if slots:
                    for index, (start, width) in enumerate(ranges):
                        if all(start <= s < start + width for s in slots):
                            owner = index
                            break
                if owner is not None and pushable[owner]:
                    pushed[owner].append(
                        (conjunct, _compile_local(conjunct, locals_[owner], ctx))
                    )
                    ctx.meta["pushed_filters"] += 1
                else:
                    residual_where.append(conjunct)

    scans = []
    scan_nodes: list[PlanNode] = []
    scan_ests: list[float | None] = []
    for index, (ref, cols) in enumerate(specs):
        ctx.meta["table_scans"] += 1
        if cols is None:
            scans.append(_make_missing_scan(ref.name))
            scan_nodes.append(ctx.node("scan", ref.name))
            scan_ests.append(None)
            continue
        preds = pushed[index]
        table_semi = semi if index == 0 else None
        if optimize and (preds or table_semi is not None):
            scan, node, est = _build_opt_scan(
                ctx, ref.name, locals_[index], preds, table_semi
            )
        else:
            stats = ctx.table_stats(ref.name)
            est = float(stats.row_count) if stats is not None else None
            node = ctx.node("scan", ref.name, est_rows=est, est_cost=est)
            scan = None
            if ctx.vectorize and preds:
                kernels = _compile_kernels(
                    [c for c, _fn in preds], locals_[index]
                )
                if kernels is not None:
                    node.vectorized = True
                    ctx.meta["vector_ops"] += 1
                    scan = _make_vector_scan(ref.name, kernels, None, node.nid)
                else:
                    node.vectorized = False
                    ctx.meta["vector_fallbacks"] += 1
                    _vector.FALLBACKS.inc()
            if scan is None:
                scan = _make_scan(ref.name, [fn for _c, fn in preds], node.nid)
        scans.append(scan)
        scan_nodes.append(node)
        scan_ests.append(est)

    # ---- join order selection (optimizer, 3+ inner-joined tables) ----
    reordered = None
    if (
        optimize
        and ctx.db is not None
        and len(specs) >= 3
        and complete
        and all(join.kind == "inner" for join in joins)
    ):
        bindings = [ref.binding for ref, _cols in specs]
        if len(set(bindings)) == len(bindings):
            reordered = _try_join_reorder(
                ctx, joins, specs, frames, ranges, locals_, scans,
                scan_nodes, scan_ests, total_width, outer_chain, pushed,
            )

    if reordered is not None:
        source, source_node = reordered
    else:
        first_scan = scans[0]
        source = lambda state, outer, _scan=first_scan: _scan(state)  # noqa: E731
        source_node = scan_nodes[0]

        for join_index, join in enumerate(joins):
            index = join_index + 1
            right_ref, right_cols = specs[index]
            right_width = len(right_cols or ())
            prefix_frame = frames[index - 1]
            combined_frame = frames[index]
            combined_chain = [combined_frame] + outer_chain
            condition = join.condition
            left_est = source_node.est_rows
            right_est = scan_ests[index]
            hash_built = False
            if (
                condition is not None
                and complete
                and right_ref.binding not in prefix_frame.bindings
            ):
                conjuncts = _split_conjuncts(condition)
                safe_all = True
                for conjunct in conjuncts:
                    probe: set[int] = set()
                    if not _analyze_safe(conjunct, combined_chain, ctx, probe):
                        safe_all = False
                        break
                if safe_all:
                    left_width = prefix_frame.width
                    prefix_chain = [prefix_frame] + outer_chain
                    right_local = locals_[index]
                    right_chain = [right_local] + outer_chain
                    left_keys, right_keys, residuals = [], [], []
                    right_key_cols: list[str] | None = []
                    left_key_slots: list[int] | None = []
                    right_key_slots: list[int] | None = []

                    def _key_slot(expr, slots):
                        # a plain column key reads exactly one slot; any
                        # other key shape disables the columnar probe
                        if isinstance(expr, ColumnRef) and len(slots) == 1:
                            return next(iter(slots))
                        return None

                    for conjunct in conjuncts:
                        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                            lslots: set[int] = set()
                            rslots: set[int] = set()
                            _analyze_safe(conjunct.left, combined_chain, ctx, lslots)
                            _analyze_safe(conjunct.right, combined_chain, ctx, rslots)
                            sides = (
                                _side(lslots, left_width),
                                _side(rslots, left_width),
                            )
                            if sides == ("left", "right"):
                                left_keys.append(
                                    _compile_expr(conjunct.left, prefix_chain, ctx, None)
                                )
                                right_keys.append(
                                    _compile_expr(conjunct.right, right_chain, ctx, None)
                                )
                                if right_key_cols is not None:
                                    col = _plain_column(conjunct.right, right_local)
                                    right_key_cols = (
                                        right_key_cols + [col]
                                        if col is not None else None
                                    )
                                if left_key_slots is not None:
                                    lslot = _key_slot(conjunct.left, lslots)
                                    rslot = _key_slot(conjunct.right, rslots)
                                    if lslot is None or rslot is None:
                                        left_key_slots = right_key_slots = None
                                    else:
                                        left_key_slots.append(lslot)
                                        right_key_slots.append(
                                            rslot - left_width
                                        )
                                continue
                            if sides == ("right", "left"):
                                left_keys.append(
                                    _compile_expr(conjunct.right, prefix_chain, ctx, None)
                                )
                                right_keys.append(
                                    _compile_expr(conjunct.left, right_chain, ctx, None)
                                )
                                if right_key_cols is not None:
                                    col = _plain_column(conjunct.left, right_local)
                                    right_key_cols = (
                                        right_key_cols + [col]
                                        if col is not None else None
                                    )
                                if left_key_slots is not None:
                                    lslot = _key_slot(conjunct.right, rslots)
                                    rslot = _key_slot(conjunct.left, lslots)
                                    if lslot is None or rslot is None:
                                        left_key_slots = right_key_slots = None
                                    else:
                                        left_key_slots.append(lslot)
                                        right_key_slots.append(
                                            rslot - left_width
                                        )
                                continue
                        residuals.append(
                            _compile_expr(conjunct, combined_chain, ctx, None)
                        )
                    if left_keys:
                        index_info = None
                        if (
                            optimize
                            and right_key_cols
                            and not pushed[index]
                        ):
                            index_info = (right_ref.name, tuple(right_key_cols))
                            ctx.meta["indexed_joins"] += 1
                        est = None
                        if left_est is not None and right_est is not None:
                            est = (
                                left_est * right_est
                                * _stats.DEFAULT_EQ_SELECTIVITY
                            )
                        join_node = ctx.node(
                            "hash-join",
                            f"{join.kind} {right_ref.binding}"
                            + (" [indexed]" if index_info else ""),
                            est_rows=est,
                            children=[source_node, scan_nodes[index]],
                        )
                        if (
                            ctx.vectorize
                            and not residuals
                            and left_key_slots is not None
                        ):
                            join_node.vectorized = True
                            ctx.meta["vector_ops"] += 1
                            source = _make_vector_hash_join(
                                source,
                                scans[index],
                                join.kind,
                                tuple(left_key_slots),
                                tuple(right_key_slots),
                                right_width,
                                join_node.nid,
                                index_info,
                            )
                        else:
                            if ctx.vectorize:
                                join_node.vectorized = False
                                ctx.meta["vector_fallbacks"] += 1
                                _vector.FALLBACKS.inc()
                            source = _make_hash_join(
                                source,
                                scans[index],
                                join.kind,
                                left_keys,
                                right_keys,
                                residuals,
                                right_width,
                                join_node.nid,
                                index_info,
                            )
                        source_node = join_node
                        ctx.meta["hash_joins"] += 1
                        hash_built = True
            if not hash_built:
                cond_fn = (
                    _compile_expr(condition, combined_chain, ctx, None)
                    if condition is not None
                    else None
                )
                est = None
                if left_est is not None and right_est is not None:
                    est = left_est * right_est * (
                        1.0 if condition is None else 0.25
                    )
                join_node = ctx.node(
                    "nested-loop-join",
                    f"{join.kind} {right_ref.binding}",
                    est_rows=est,
                    children=[source_node, scan_nodes[index]],
                )
                source = _make_nested_join(
                    source, scans[index], join.kind, cond_fn, right_width,
                    join_node.nid,
                )
                source_node = join_node
                ctx.meta["nested_loop_joins"] += 1

    filter_fn = _compile_where(
        residual_where, select.where, where_chain, ctx
    )
    single = len(specs) == 1 and specs[0][1] is not None
    info = _FromInfo(
        source_node,
        table=specs[0][0].name if single else None,
        unfiltered=single and not pushed[0] and semi is None,
    )
    return frame, source, filter_fn, info


def _compile_where(residual, where, chain, ctx):
    """Residual WHERE predicate: ``fn(state, chain) -> bool`` or ``None``.

    ``residual`` is the conjunct list left after pushdown (``None`` when no
    pushdown was attempted, in which case the whole WHERE compiles as one
    expression — preserving the interpreter's evaluation order exactly).
    """
    if residual is not None:
        if not residual:
            return None
        fns = tuple(_compile_expr(c, chain, ctx, None) for c in residual)

        def conj_filter(state, rows_chain):
            for fn in fns:
                if not _truthy(fn(state, rows_chain, None, None)):
                    return False
            return True

        return conj_filter
    if where is None:
        return None
    where_fn = _compile_expr(where, chain, ctx, None)

    def where_filter(state, rows_chain):
        return _truthy(where_fn(state, rows_chain, None, None))

    return where_filter


# ----------------------------------------------------------------------
# SELECT compilation
# ----------------------------------------------------------------------
def _star_pairs(frame: _Frame, table: str | None) -> list[tuple[str, str, int]]:
    table_l = table.lower() if table is not None else None
    pairs: list[tuple[str, str, int]] = []
    for binding in frame.order:
        if table_l is None or binding == table_l:
            pairs.extend(
                (binding, column, slot)
                for column, slot in frame.bindings[binding].items()
            )
    return pairs


def _alias_map(select: Select, row_len: int) -> dict[str, int] | None:
    """Static alias -> projected-row offset map for ORDER BY resolution.

    Mirrors the interpreter's ``_alias_env`` exactly, including its quirk
    that a star counts as one position even though it expands to many
    columns — the compiled engine reproduces behaviour, not intent.
    """
    env: dict[str, int] = {}
    offset = 0
    for item in select.items:
        if isinstance(item.expr, Star):
            offset += 1
            continue
        if item.alias and offset < row_len:
            env[item.alias.lower()] = offset
        offset += 1
    return env or None


def _compile_projection(select: Select, frame: _Frame, chain, ctx):
    """Compile the projection: output columns + per-row projector.

    Returns ``(columns_fn, project, row_len, batch)``.
    ``columns_fn(had_rows)`` reproduces the interpreter's output-column
    rules: stars expand to ``binding.column`` names only when rows survived
    the WHERE filter, an unexpandable star raises only then, and otherwise
    renders as ``"*"``.  ``batch`` is set when the projection is the
    identity or copies plain depth-0 slots: it projects a whole list of
    source rows at once with no per-row closure call, cannot raise, and is
    a prerequisite for the fused index top-k, which projects only the rows
    it returns.
    """
    cols_with: list[str] = []
    cols_empty: list[str] = []
    star_error: str | None = None
    parts: list = []  # int-list for star slots, callable for expressions
    row_len = 0
    for item in select.items:
        if isinstance(item.expr, Star):
            pairs = _star_pairs(frame, item.expr.table)
            cols_empty.append("*")
            if pairs:
                if star_error is None:
                    cols_with.extend(f"{b}.{c}" for b, c, _s in pairs)
                parts.append([slot for _b, _c, slot in pairs])
                row_len += len(pairs)
            elif star_error is None:
                star_error = f"cannot expand star for table {item.expr.table!r}"
        else:
            name = item.alias if item.alias else to_sql(item.expr).lower()
            cols_with.append(name)
            cols_empty.append(name)
            parts.append(_compile_expr(item.expr, chain, ctx, None))
            row_len += 1

    def columns_fn(had_rows: bool) -> list[str]:
        if had_rows:
            if star_error is not None:
                raise ExecutionError(star_error)
            return list(cols_with)
        return list(cols_empty)

    # fast paths: identity (lone SELECT *) and all-slot projections
    if (
        star_error is None
        and len(parts) == 1
        and isinstance(parts[0], list)
        and parts[0] == list(range(frame.width))
    ):
        return columns_fn, (
            lambda state, rows_chain: rows_chain[0]
        ), row_len, list
    slot_parts: list[int] | None = []
    for item in select.items:
        if isinstance(item.expr, ColumnRef):
            cands = _resolve(chain, ctx, item.expr.table, item.expr.column)
            if len(cands) == 1 and cands[0][0] == 0 and cands[0][1] >= 0:
                slot_parts.append(cands[0][1])
                continue
        slot_parts = None
        break
    if slot_parts is not None and star_error is None:
        if len(slot_parts) == 1:
            slot = slot_parts[0]
            return columns_fn, (
                lambda state, rows_chain: (rows_chain[0][slot],)
            ), row_len, (lambda rows: [(r[slot],) for r in rows])
        getter = itemgetter(*slot_parts)
        return columns_fn, (
            lambda state, rows_chain: getter(rows_chain[0])
        ), row_len, (lambda rows: list(map(getter, rows)))

    def project(state, rows_chain):
        row0 = rows_chain[0]
        values: list[Value] = []
        for part in parts:
            if part.__class__ is list:
                for slot in part:
                    values.append(row0[slot])
            else:
                values.append(part(state, rows_chain, None, None))
        return tuple(values)

    return columns_fn, project, row_len, None


def _order_rows(rows: list, key_columns, order_by) -> list:
    """*rows* in the reference's ORDER BY order: one stable pass per key,
    last key first, each through :func:`~repro.data.values.order_positions`.

    ``key_columns[i]`` holds ORDER BY key ``i`` of every row, aligned
    with *rows*.
    """
    perm = None
    for index in range(len(order_by) - 1, -1, -1):
        column = key_columns[index]
        if perm is not None:
            column = [column[p] for p in perm]
        positions = order_positions(column, order_by[index].descending)
        perm = positions if perm is None else [perm[p] for p in positions]
    return [rows[p] for p in perm]


def _order_keyed(keyed: list, order_by) -> list:
    """The rows of ``(keys, row)`` pairs in ORDER BY order."""
    if not keyed:
        return []
    key_lists, rows = zip(*keyed)
    return _order_rows(rows, list(zip(*key_lists)), order_by)


def _compile_select(select: Select, outer_chain: list[_Frame], ctx: _Ctx):
    frame, source, filter_fn, info = _compile_from(select, outer_chain, ctx)
    chain = [frame] + outer_chain
    if bool(select.group_by) or _select_uses_aggregates(select):
        return _compile_aggregated_runner(
            select, chain, ctx, source, filter_fn, info
        )
    return _compile_plain_runner(select, chain, ctx, source, filter_fn, info)


def _order_detail(select: Select) -> str:
    parts = []
    if select.distinct:
        parts.append("distinct")
    if select.order_by:
        parts.append(
            "order by "
            + ", ".join(
                to_sql(item.expr) + (" desc" if item.descending else "")
                for item in select.order_by
            )
        )
    if select.limit is not None:
        parts.append(f"limit {select.limit}")
    return " ".join(parts)


def _use_topk(select: Select, ctx: _Ctx, order_fns) -> bool:
    return bool(
        ctx.optimize
        and order_fns
        and select.limit is not None
        and select.limit >= 0
        and not select.distinct
        and len({item.descending for item in select.order_by}) == 1
    )


def _compile_plain_runner(select: Select, chain, ctx, source, filter_fn, info):
    columns_fn, project, row_len, batch = _compile_projection(
        select, chain[0], chain, ctx
    )
    aliases = _alias_map(select, row_len) if select.order_by else None
    order_fns = [
        _compile_expr(item.expr, chain, ctx, aliases) for item in select.order_by
    ]
    order_by = select.order_by
    distinct = select.distinct
    limit = select.limit
    ordered = bool(order_by)

    # fused sorted-index top-k: a bare single-table ORDER BY <column>
    # LIMIT k with a statically safe projection reads the first k
    # positions straight off the sorted index — every skipped row would
    # have been processed by closures that cannot raise, so skipping them
    # is invisible except in speed
    fused_col = None
    if (
        _use_topk(select, ctx, order_fns)
        and limit > 0
        and len(order_by) == 1
        and info.table is not None
        and info.unfiltered
        and filter_fn is None
        and batch is not None
    ):
        oexpr = order_by[0].expr
        if isinstance(oexpr, ColumnRef) and (
            oexpr.table is not None
            or aliases is None
            or oexpr.column.lower() not in aliases
        ):
            cands = _resolve(chain, ctx, oexpr.table, oexpr.column)
            if len(cands) == 1 and cands[0][0] == 0 and cands[0][1] >= 0:
                fused_col = (
                    ctx.schema.table(info.table)
                    .columns[cands[0][1]]
                    .name.lower()
                )
    if fused_col is not None:
        ctx.meta["topk_sorts"] += 1

    # ---- vectorized ORDER BY keys: every sort key resolves statically
    # to either a depth-0 source slot or a projected-row offset (the
    # alias case), so the per-row key closures are skipped entirely ----
    order_spec = None
    if ctx.vectorize and order_fns:
        order_spec = []
        for item in order_by:
            oexpr = item.expr
            if isinstance(oexpr, ColumnRef):
                col_l = oexpr.column.lower()
                if aliases and oexpr.table is None and col_l in aliases:
                    order_spec.append((True, aliases[col_l]))
                    continue
                cands = _resolve(chain, ctx, oexpr.table, oexpr.column)
                if len(cands) == 1 and cands[0][0] == 0 and cands[0][1] >= 0:
                    order_spec.append((False, cands[0][1]))
                    continue
            order_spec = None
            break
        if order_spec is not None:
            ctx.meta["vector_ops"] += 1
        else:
            ctx.meta["vector_fallbacks"] += 1
            _vector.FALLBACKS.inc()

    top_node = info.node
    filter_nid = -1
    if filter_fn is not None:
        top_node = ctx.node("filter", "where", children=[top_node])
        filter_nid = top_node.nid
    child_est = top_node.est_rows
    est = child_est
    if limit is not None and limit >= 0 and (est is None or est > limit):
        est = float(limit)
    detail = _order_detail(select)
    if fused_col is not None:
        detail = f"index top-k on {fused_col} " + detail
    node = ctx.node("project", detail.strip(), est_rows=est,
                    children=[top_node])
    if ctx.vectorize and order_fns:
        node.vectorized = order_spec is not None
    nid = node.nid

    def run(state, outer):
        rows0 = source(state, outer)
        if filter_fn is not None:
            rows0 = [r for r in rows0 if filter_fn(state, (r,) + outer)]
            state.actuals[filter_nid] = len(rows0)
        columns = columns_fn(bool(rows0))
        if order_spec is not None:
            # the keys read slots and cannot raise: project every row,
            # then gather each key column at once
            _vector.BATCHES.inc()
            if batch is not None:
                projected = batch(rows0)
            else:
                projected = [project(state, (r,) + outer) for r in rows0]
            key_columns = [
                [row[ix] for row in projected] if is_proj
                else [r[ix] for r in rows0]
                for is_proj, ix in order_spec
            ]
            projected = _order_rows(projected, key_columns, order_by)
        elif order_fns:
            keyed = []
            for r in rows0:
                rows_chain = (r,) + outer
                row = project(state, rows_chain)
                keys = [fn(state, rows_chain, None, row) for fn in order_fns]
                keyed.append((keys, row))
            projected = _order_keyed(keyed, order_by)
        elif batch is not None:
            projected = batch(rows0)
        else:
            projected = [project(state, (r,) + outer) for r in rows0]
        if distinct:
            projected = _distinct(projected)
        if limit is not None:
            projected = projected[:limit]
        state.actuals[nid] = len(projected)
        return Result(columns=columns, rows=projected, ordered=ordered)

    if fused_col is not None:
        generic_run = run
        table_name = info.table
        descending = order_by[0].descending
        column = fused_col

        def run(state, outer):
            table = state.db.table(table_name)
            raw = table.rows
            if len(raw) < _index.MIN_INDEX_ROWS:
                return generic_run(state, outer)
            idx = _index.sorted_index(table, column)
            positions = idx.desc if descending else idx.asc
            projected = batch([raw[p] for p in positions[:limit]])
            state.actuals[nid] = len(projected)
            return Result(
                columns=columns_fn(bool(raw)), rows=projected, ordered=True
            )

    return run, node


def _vector_agg_slot(expr, chain, ctx) -> int | None:
    """Unique depth-0 slot of a plain column reference, or ``None``."""
    if not isinstance(expr, ColumnRef):
        return None
    cands = _resolve(chain, ctx, expr.table, expr.column)
    if len(cands) == 1 and cands[0][0] == 0 and cands[0][1] >= 0:
        return cands[0][1]
    return None


def _unknown_column_message(expr: ColumnRef) -> str:
    column_l = expr.column.lower()
    qualified = f"{expr.table}.{column_l}" if expr.table else column_l
    return f"unknown column reference {qualified!r}"


def _analyze_vector_agg(select: Select, chain, ctx, aliases):
    """Static plan for a vectorized grouped aggregation, or ``None``.

    Eligible when every GROUP BY key and aggregate argument is a plain
    depth-0 column, every output item is a plain column / ``COUNT(*)`` /
    a single-column aggregate, and every ORDER BY key maps to a projected
    offset, a representative-row slot, or an aggregate recomputation.
    Returns ``(group_slots, item_specs, order_spec)``; each spec
    reproduces the row engine's behaviour exactly, including the
    unknown-column error a plain column raises for the empty whole-table
    group.  HAVING, whatever its shape, does not affect eligibility: the
    vectorized runner evaluates the row engine's compiled HAVING closure
    on each group before its items, as the row engine does.
    """

    def agg_spec(expr):
        # ("count*",) or ("agg", name, slot, distinct) for a vectorizable
        # aggregate call; None for every other shape
        if not (isinstance(expr, FuncCall) and expr.is_aggregate):
            return None
        name = expr.name.lower()
        if name == "count" and (
            not expr.args or isinstance(expr.args[0], Star)
        ):
            return ("count*",)
        if len(expr.args) == 1:
            with ctx.row_may_be_none(chain[0], False):
                slot = _vector_agg_slot(expr.args[0], chain, ctx)
            if slot is not None:
                return ("agg", name, slot, expr.distinct)
        return None

    group_slots = []
    for expr in select.group_by:
        slot = _vector_agg_slot(expr, chain, ctx)
        if slot is None:
            return None
        group_slots.append(slot)

    item_specs = []
    for item in select.items:
        spec = agg_spec(item.expr)
        if spec is None and isinstance(item.expr, ColumnRef):
            slot = _vector_agg_slot(item.expr, chain, ctx)
            if slot is not None:
                spec = ("col", slot, _unknown_column_message(item.expr))
        if spec is None:
            return None
        item_specs.append(spec)

    order_spec = None
    if select.order_by:
        order_spec = []
        for oitem in select.order_by:
            oexpr = oitem.expr
            if isinstance(oexpr, ColumnRef):
                col_l = oexpr.column.lower()
                if aliases and col_l in aliases:
                    if oexpr.table is None:
                        order_spec.append(("proj", aliases[col_l], None))
                        continue
                    # qualified ref whose column name is also an alias:
                    # the row engine falls back to the alias for the
                    # empty group instead of raising — not worth modeling
                    return None
                slot = _vector_agg_slot(oexpr, chain, ctx)
                if slot is None:
                    return None
                order_spec.append(
                    ("rep", slot, _unknown_column_message(oexpr))
                )
                continue
            # an expression equal to a select item reads the projected
            # value (both computations are pure over the same group);
            # with aliases in play only aggregates are exact, because
            # their arguments always compile alias-blind
            matched = None
            if aliases is None or (
                isinstance(oexpr, FuncCall) and oexpr.is_aggregate
            ):
                for j, item in enumerate(select.items):
                    if item.expr == oexpr:
                        matched = j
                        break
            if matched is not None:
                order_spec.append(("proj", matched, None))
                continue
            spec = agg_spec(oexpr)
            if spec is None:
                return None
            order_spec.append(spec)

    return tuple(group_slots), item_specs, order_spec


def _compile_aggregated_runner(select: Select, chain, ctx, source, filter_fn,
                               info):
    group_fns = [_compile_expr(e, chain, ctx, None) for e in select.group_by]
    agg_columns = [
        item.alias if item.alias else to_sql(item.expr).lower()
        for item in select.items
    ]
    aliases = _alias_map(select, len(select.items)) if select.order_by else None
    # without GROUP BY the one whole-table group may be empty, and then its
    # items, HAVING and ORDER BY see a None representative row
    with ctx.row_may_be_none(chain[0], not select.group_by):
        having_fn = (
            _compile_expr(select.having, chain, ctx, None)
            if select.having is not None
            else None
        )
        item_fns = [
            _compile_expr(item.expr, chain, ctx, None) for item in select.items
        ]
        order_fns = [
            _compile_expr(item.expr, chain, ctx, aliases)
            for item in select.order_by
        ]
        vec = None
        if ctx.vectorize:
            vec = _analyze_vector_agg(select, chain, ctx, aliases)
    order_by = select.order_by
    distinct = select.distinct
    limit = select.limit
    ordered = bool(order_by)

    if ctx.vectorize:
        if vec is not None:
            ctx.meta["vector_ops"] += 1
        else:
            ctx.meta["vector_fallbacks"] += 1
            _vector.FALLBACKS.inc()

    top_node = info.node
    filter_nid = -1
    if filter_fn is not None:
        top_node = ctx.node("filter", "where", children=[top_node])
        filter_nid = top_node.nid
    detail = (
        ("group by " + ", ".join(to_sql(e) for e in select.group_by) + " "
         if select.group_by else "")
        + ("having " if select.having is not None else "")
        + _order_detail(select)
    )
    node = ctx.node("aggregate", detail.strip(), children=[top_node])
    if ctx.vectorize:
        node.vectorized = vec is not None
    nid = node.nid

    def run(state, outer):
        rows0 = source(state, outer)
        if filter_fn is not None:
            rows0 = [r for r in rows0 if filter_fn(state, (r,) + outer)]
            state.actuals[filter_nid] = len(rows0)
        out_rows = []
        keyed = []
        if vec is not None:
            group_slots, item_specs, order_spec = vec
            _vector.BATCHES.inc()
            if group_slots:
                groups = _vector.grouped_rows(rows0, group_slots)
            else:
                groups = [rows0]  # one whole-table group, even when empty
            for members in groups:
                if having_fn is not None and not _truthy(having_fn(
                    state, (members[0] if members else None,) + outer,
                    members, None,
                )):
                    continue
                values = []
                for spec in item_specs:
                    tag = spec[0]
                    if tag == "agg":
                        values.append(_vector.aggregate_column(
                            spec[1], spec[2], spec[3], members
                        ))
                    elif tag == "count*":
                        values.append(len(members))
                    elif members:  # plain column off the representative
                        values.append(members[0][spec[1]])
                    else:
                        raise ExecutionError(spec[2])
                row = tuple(values)
                if order_spec is not None:
                    keys = []
                    for sp in order_spec:
                        tag = sp[0]
                        if tag == "proj":
                            keys.append(row[sp[1]])
                        elif tag == "rep":
                            if not members:
                                raise ExecutionError(sp[2])
                            keys.append(members[0][sp[1]])
                        elif tag == "count*":
                            keys.append(len(members))
                        else:  # recomputed aggregate key
                            keys.append(_vector.aggregate_column(
                                sp[1], sp[2], sp[3], members
                            ))
                    keyed.append((keys, row))
                else:
                    out_rows.append(row)
            if order_fns:
                out_rows = _order_keyed(keyed, order_by)
            if distinct:
                out_rows = _distinct(out_rows)
            if limit is not None:
                out_rows = out_rows[:limit]
            state.actuals[nid] = len(out_rows)
            return Result(
                columns=list(agg_columns), rows=out_rows, ordered=ordered
            )
        if group_fns:
            keyed_groups: dict = {}
            order: list = []
            for r in rows0:
                rows_chain = (r,) + outer
                key = tuple(fn(state, rows_chain, None, None) for fn in group_fns)
                bucket = keyed_groups.get(key, _MISSING)
                if bucket is _MISSING:
                    keyed_groups[key] = [r]
                    order.append(key)
                else:
                    bucket.append(r)
            groups = [keyed_groups[key] for key in order]
        else:
            groups = [rows0]  # one whole-table group, even when empty
        for group in groups:
            rep = group[0] if group else None
            rows_chain = (rep,) + outer
            if having_fn is not None:
                if not _truthy(having_fn(state, rows_chain, group, None)):
                    continue
            row = tuple(fn(state, rows_chain, group, None) for fn in item_fns)
            if order_fns:
                keys = [fn(state, rows_chain, group, row) for fn in order_fns]
                keyed.append((keys, row))
            else:
                out_rows.append(row)
        if order_fns:
            out_rows = _order_keyed(keyed, order_by)
        if distinct:
            out_rows = _distinct(out_rows)
        if limit is not None:
            out_rows = out_rows[:limit]
        state.actuals[nid] = len(out_rows)
        return Result(columns=list(agg_columns), rows=out_rows, ordered=ordered)

    return run, node


def _compile_setop(query: SetOperation, outer_chain: list[_Frame], ctx: _Ctx):
    left_run, left_node = _compile_query_runner(query.left, outer_chain, ctx)
    right_run, right_node = _compile_query_runner(query.right, outer_chain, ctx)
    op = query.op
    node = ctx.node("set-op", op, children=[left_node, right_node])
    nid = node.nid

    def run(state, outer):
        left = left_run(state, outer)
        right = right_run(state, outer)
        if left.columns and right.columns and len(left.columns) != len(right.columns):
            raise ExecutionError(
                f"set operation arity mismatch: {len(left.columns)} vs "
                f"{len(right.columns)}"
            )
        if op == "union all":
            rows = left.rows + right.rows
        elif op == "union":
            rows = _distinct(left.rows + right.rows)
        elif op == "intersect":
            right_set = set(right.rows)
            rows = _distinct([row for row in left.rows if row in right_set])
        elif op == "except":
            right_set = set(right.rows)
            rows = _distinct([row for row in left.rows if row not in right_set])
        else:  # pragma: no cover - parser only produces the four ops
            raise ExecutionError(f"unknown set operation {op!r}")
        state.actuals[nid] = len(rows)
        return Result(columns=left.columns, rows=rows, ordered=False)

    return run, node


def _compile_query_runner(query: Query, outer_chain: list[_Frame], ctx: _Ctx):
    if isinstance(query, SetOperation):
        return _compile_setop(query, outer_chain, ctx)
    return _compile_select(query, outer_chain, ctx)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
class CompiledPlan:
    """A query lowered to physical operators, reusable across executions.

    Valid for any :class:`Database` whose schema has the structure of the
    one the plan was compiled against (the test-suite metric runs one
    plan over all fuzzed database variants).  The operators are compiled
    from the query's shape (:class:`~repro.sql.shape.Shaper`) and read
    the predicate values from ``params``; :meth:`bind` shares them with
    another query of the same shape.  A plan compiled with a database
    borrows that database's statistics, and the compiling query's values,
    for its estimates; running it against another schema-compatible
    database, or bound to other values, still returns identical results —
    the estimates just stop being representative.
    """

    __slots__ = ("query", "schema", "params", "meta", "_runner", "root",
                 "subplans", "optimized", "vectorized", "_shared")

    def __init__(self, query: Query, schema: Schema, meta, runner,
                 root=None, subplans=(), optimized: bool = False,
                 vectorized: bool = False, params: tuple = ()) -> None:
        self.query = query
        self.schema = schema
        #: the predicate values this plan runs with, by parameter index
        self.params = params
        self.meta = meta
        self._runner = runner
        self.root = root
        self.subplans = list(subplans)
        self.optimized = optimized
        #: compiled with the vectorizer enabled (``meta["vector_ops"]``
        #: tells how many operators actually took a columnar kernel)
        self.vectorized = vectorized
        #: the compiled plan whose operators this one runs (``None``
        #: when they are its own)
        self._shared: CompiledPlan | None = None

    def bind(self, query: Query, schema: Schema, params: tuple) -> "CompiledPlan":
        """This plan's operators, run for *query* on *schema* with *params*.

        *query* must have this plan's shape and *schema* its structure;
        :func:`plan_for` guarantees both.
        """
        plan = CompiledPlan(query, schema, self.meta, self._runner, self.root,
                            (), self.optimized, self.vectorized, params)
        plan.subplans = self.subplans
        plan._shared = self._shared or self
        return plan

    def run(self, db: Database) -> Result:
        """Execute against *db* and return the :class:`Result`."""
        if _deadline._ACTIVE:
            _deadline.checkpoint("plan run")
        return self._runner(_ExecState(db, self.params), ())

    def run_traced(self, db: Database) -> tuple[Result, _ExecState]:
        """Execute with profiling on: returns (result, execution state).

        The state carries ``actuals`` (rows produced per ``PlanNode.nid``)
        and ``timings`` (wall seconds for the separable execution units:
        the whole plan under the root nid, plus each subquery plan).
        Results are identical to :meth:`run` — the differential test in
        ``tests/test_obs.py`` enforces it.
        """
        state = _ExecState(db, self.params)
        state.timings = {}
        start = _obs_trace.now()
        try:
            result = self._runner(state, ())
        finally:
            state.timings[self.root.nid] = _obs_trace.now() - start
        return result, state

    def describe(self) -> dict[str, int]:
        """Operator counts chosen at compile time (scans, join kinds, ...)."""
        return dict(self.meta)

    def explain(self, db: Database | None = None) -> str:
        """Render the physical plan tree with row/cost estimates.

        With *db*, the plan executes once (traced) so each operator line
        also shows the actual row count it produced — and wall time for
        the units that are timed separately (root, subqueries); execution
        errors are reported inline rather than raised (EXPLAIN should
        never fail on a query whose *execution* fails — that is the
        answer being asked for).  Details show this plan's own predicate
        values; estimates come from the database and values that compiled
        the operators.
        """
        actuals = None
        timings = None
        error = None
        params = self.params
        if db is not None:
            state = _ExecState(db, params)
            state.timings = {}
            start = _obs_trace.now()
            try:
                self._runner(state, ())
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            state.timings[self.root.nid] = _obs_trace.now() - start
            actuals = state.actuals
            timings = state.timings
        header = "optimized" if self.optimized else "unoptimized"
        lines = [
            f"-- plan ({header})",
            self.root.render(actuals, timings=timings, params=params),
        ]
        for subplan in self.subplans:
            lines.append(subplan.render(actuals, timings=timings, params=params))
        if error is not None:
            lines.append(f"-- execution failed: {error}")
        return "\n".join(lines)


def compile_query(
    query: Query,
    schema: Schema,
    db: Database | None = None,
    optimize: bool = True,
    vectorize: bool = True,
) -> CompiledPlan:
    """Lower *query* into a :class:`CompiledPlan` for *schema* (uncached).

    The operators are compiled from the query's shape, with its predicate
    values as the plan's ``params`` (:class:`~repro.sql.shape.Shaper`).
    With the optimizer on, *db* supplies table statistics for selectivity
    and join-order estimation; without it the stats-free optimizations
    (index drivers, predicate ordering, top-k sorts) still apply.  With
    the vectorizer on (independent of the optimizer), eligible operators
    swap their row closures for the columnar kernels of
    :mod:`repro.sql.vector`.
    """
    shaper = Shaper(build=True)
    shape = shaper.query(query, False)
    params = tuple(shaper.params)
    ctx = _Ctx(schema, db if optimize else None, optimize, vectorize, params)
    runner, root = _compile_query_runner(shape, [], ctx)
    return CompiledPlan(query, schema, ctx.meta, runner, root, ctx.subplans,
                        optimize, vectorize, params)


def explain(sql: str, db: Database) -> str:
    """EXPLAIN *sql* on *db*: the physical tree, estimates vs. actuals."""
    return compile_query(parse_sql_cached(sql), db.schema, db).explain(db)


def _env_size(name: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(name, default)))
    except ValueError:
        return default


#: (shape, schema structure) -> the compiled plan whose operators every
#: query of that key shares
_PLAN_CACHE: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
_PLAN_CACHE_MAX = _env_size("REPRO_SQL_PLAN_CACHE_SIZE", 512)
_plan_hits = 0
_plan_misses = 0
_template_hits = 0

_PARSE_CACHE: "OrderedDict[str, Query]" = OrderedDict()
_PARSE_CACHE_MAX = _env_size("REPRO_SQL_PARSE_CACHE_SIZE", 2048)
_parse_hits = 0
_parse_misses = 0

#: Guards the plan/parse LRUs (and their counters): the parallel
#: evaluation driver's thread-pool fallback and the serving workers share
#: this module, and an unguarded ``move_to_end``/``popitem`` pair racing a
#: concurrent eviction corrupts the OrderedDict.  It is held only to look
#: up, to insert and to read the statistics, never across a parse or a
#: compile, so a hit never waits behind another thread's miss.  Uncontended acquisition is tens of nanoseconds — noise
#: next to even a cached-plan execution.
_CACHE_LOCK = threading.RLock()


def plan_for(
    query: Query, schema: Schema, db: Database | None = None
) -> CompiledPlan:
    """Compile-or-fetch the plan for (*query*, *schema*).

    Plans are compiled once per query shape and schema structure: the
    bounded LRU is keyed by the query's :class:`QueryEntry` shape and the
    schema's :attr:`~repro.data.schema.Schema.structure`, and its plans
    are optimized and vectorized.  Queries that differ only in
    predicate values, run on databases of one structure, share the
    compiled operators; the returned plan binds them to *query*'s values
    and *schema*, and an exact repeat returns the same object.  *db* only
    feeds statistics into the first compile.  The compile runs outside
    the cache lock; when two threads miss on one key at once, both compile
    and the first insert wins (plans are immutable, so the loser's copy is
    simply dropped).
    """
    return plan_for_entry(query_entry(query), schema, db)


def plan_for_entry(
    entry: QueryEntry, schema: Schema, db: Database | None = None
) -> CompiledPlan:
    """:func:`plan_for` for a query whose :class:`QueryEntry` is known."""
    global _plan_hits, _plan_misses, _template_hits
    key = (entry.shape, schema.structure)
    bound = entry.bound
    with _CACHE_LOCK:
        template = _PLAN_CACHE.get(key)
        if template is not None:
            _PLAN_CACHE.move_to_end(key)
            _plan_hits += 1
            if (
                bound is not None
                and (bound._shared or bound) is template
                and bound.schema is schema
            ):
                return bound
            _template_hits += 1
        else:
            _plan_misses += 1
    if template is None:
        if _obs_trace._ENABLED:  # compile misses only; hits stay span-free
            with _obs_trace.span("repro.sql.plan.compile"):
                template = compile_query(entry.query, schema, db)
        else:
            template = compile_query(entry.query, schema, db)
        template = _insert(_PLAN_CACHE, key, template, _PLAN_CACHE_MAX)
    if template.query is entry.query and template.schema is schema:
        bound = template
    else:
        bound = template.bind(entry.query, schema, entry.params)
    entry.bound = bound
    return bound


def parse_sql_cached(sql: str) -> Query:
    """Parse *sql* through the bounded parse LRU.

    The one parse cache of the engine: SQL text and the SQL part of
    every VQL program go through it.  Parse errors are not cached — bad
    text raises on every call.  The parse runs outside the cache lock;
    racing misses on one text both parse and share the first insert.
    """
    global _parse_hits, _parse_misses
    with _CACHE_LOCK:
        query = _PARSE_CACHE.get(sql)
        if query is not None:
            _PARSE_CACHE.move_to_end(sql)
            _parse_hits += 1
            return query
        _parse_misses += 1
    if _obs_trace._ENABLED:
        with _obs_trace.span("repro.sql.parse"):
            query = parse_sql(sql)
    else:
        query = parse_sql(sql)
    return _insert(_PARSE_CACHE, sql, query, _PARSE_CACHE_MAX)


def _insert(cache: OrderedDict, key, value, max_size: int):
    """Store *value* unless a racing miss stored one first; return the
    stored one.  The oldest entries go first, before the insert, so the
    cache never holds more than *max_size*."""
    with _CACHE_LOCK:
        stored = cache.get(key)
        if stored is not None:
            return stored
        while len(cache) >= max_size:
            cache.popitem(last=False)
        cache[key] = value
        return value


def compile_sql(
    sql: str, schema: Schema, db: Database | None = None
) -> CompiledPlan:
    """Parse (cached) and plan (cached) *sql* for *schema*."""
    return plan_for(parse_sql_cached(sql), schema, db)


def plan_cache_stats() -> dict[str, int]:
    """Plan-cache effectiveness counters, read as one snapshot.

    ``hits`` counts the compiles avoided and ``misses`` the compiles run;
    ``template_hits`` counts the hits that bound the cached operators to
    another query or schema than the caller's plan last returned (the
    other hits returned that very plan again).
    """
    with _CACHE_LOCK:
        return {
            "size": len(_PLAN_CACHE),
            "max_size": _PLAN_CACHE_MAX,
            "hits": _plan_hits,
            "misses": _plan_misses,
            "template_hits": _template_hits,
        }


def parse_cache_stats() -> dict[str, int]:
    """Parse-cache effectiveness counters (size / hits / misses), read as
    one snapshot."""
    with _CACHE_LOCK:
        return {
            "size": len(_PARSE_CACHE),
            "max_size": _PARSE_CACHE_MAX,
            "hits": _parse_hits,
            "misses": _parse_misses,
        }


def configure_caches(
    plan_size: int | None = None,
    parse_size: int | None = None,
    result_bytes: int | None = None,
) -> None:
    """Resize every SQL-layer cache, evicting oldest entries to fit.

    ``None`` leaves a cache unchanged; plan/parse sizes clamp to at least
    1 entry, the result-cache budget to at least 0 bytes.  Defaults (512
    plans, 2048 parses, 32 MiB of results) come from
    ``REPRO_SQL_PLAN_CACHE_SIZE`` / ``REPRO_SQL_PARSE_CACHE_SIZE`` /
    ``REPRO_SQL_RESCACHE_BYTES`` at import time; this function overrides
    them at runtime.  Current occupancy and effectiveness are reported by
    :func:`plan_cache_stats` / :func:`parse_cache_stats` /
    :func:`repro.sql.rescache.rescache_stats` and mirrored into the
    metrics registry as the ``repro.sql.{plan,parse}.cache.*`` and
    ``repro.sql.rescache.*`` gauges.
    """
    global _PLAN_CACHE_MAX, _PARSE_CACHE_MAX
    with _CACHE_LOCK:
        if plan_size is not None:
            _PLAN_CACHE_MAX = max(1, plan_size)
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.popitem(last=False)
        if parse_size is not None:
            _PARSE_CACHE_MAX = max(1, parse_size)
            while len(_PARSE_CACHE) > _PARSE_CACHE_MAX:
                _PARSE_CACHE.popitem(last=False)
    if result_bytes is not None:
        from repro.sql import rescache as _rescache

        _rescache.configure_result_cache(result_bytes)


def clear_plan_caches() -> None:
    """Drop every SQL-layer cache: plans, parses, and cached results.

    One entry point for tests and benchmarks that need a cold engine;
    the result cache (:mod:`repro.sql.rescache`) is cleared through its
    own :func:`~repro.sql.rescache.clear_result_cache`.
    """
    global _plan_hits, _plan_misses, _template_hits, _parse_hits, _parse_misses
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()
        _PARSE_CACHE.clear()
        clear_query_entries()
        _plan_hits = 0
        _plan_misses = 0
        _template_hits = 0
        _parse_hits = 0
        _parse_misses = 0
    from repro.sql import rescache as _rescache

    _rescache.clear_result_cache()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def attach_operator_spans(span, plan: CompiledPlan, state: _ExecState) -> None:
    """Mirror *plan*'s operator tree as child spans of *span*.

    Each :class:`PlanNode` becomes a synthetic ``sql.op.<op>`` span
    carrying the node's detail, compile-time row estimate, the actual row
    count from *state* (the same numbers ``explain()`` renders), and —
    for the separately timed units — its wall time.  No-op when tracing
    is disabled (*span* is the null span).
    """
    if span is _obs_trace.NULL_SPAN or span is None:
        return
    actuals = state.actuals
    timings = state.timings or {}
    params = state.params

    def build(node: PlanNode) -> _obs_trace.Span:
        child = _obs_trace.Span("sql.op." + node.op)
        detail = node.detail_for(params)
        if detail:
            child.attrs["detail"] = detail
        if node.est_rows is not None:
            child.attrs["est_rows"] = round(node.est_rows, 1)
        if node.nid in actuals:
            child.attrs["actual_rows"] = actuals[node.nid]
        elapsed = timings.get(node.nid)
        if elapsed is not None:
            child.start_time, child.end_time = 0.0, elapsed
        child.children = [build(c) for c in node.children]
        return child

    span.children.append(build(plan.root))
    for subplan in plan.subplans:
        span.children.append(build(subplan))


#: The cache counters re-registered as callback gauges: the registry reads
#: the module globals lazily at snapshot time, so the cache hot paths pay
#: nothing for being observable.
_registry = _obs_metrics.get_registry()
_registry.gauge("repro.sql.plan.cache.hits", fn=lambda: _plan_hits)
_registry.gauge("repro.sql.plan.cache.misses", fn=lambda: _plan_misses)
_registry.gauge("repro.sql.plan.cache.size", fn=lambda: len(_PLAN_CACHE))
_registry.gauge(
    "repro.sql.plan.cache.template_hits", fn=lambda: _template_hits
)
_registry.gauge("repro.sql.parse.cache.hits", fn=lambda: _parse_hits)
_registry.gauge("repro.sql.parse.cache.misses", fn=lambda: _parse_misses)
_registry.gauge("repro.sql.parse.cache.size", fn=lambda: len(_PARSE_CACHE))
