"""Table statistics for the cost-based optimizer.

Statistics are collected lazily per :class:`~repro.data.database.Table` and
cached on the table object itself, stamped with
:meth:`Table.cache_token` so any mutation (``Table.append``,
``Database.insert``, ``Table.replace_rows``) retires them.  Each column
gets a :class:`ColumnStats` with:

- ``count`` / ``nulls`` / ``null_fraction`` — exact;
- ``ndv`` — exact number of distinct non-null values;
- ``min_key`` / ``max_key`` — :func:`~repro.data.values.sort_key` bounds,
  so numbers and text share one total order with the executor;
- an equi-depth histogram (``bounds``) over the sorted non-null keys.

On top sit the selectivity estimators the planner uses to order predicates,
choose index scans, and cost join orders:
:meth:`ColumnStats.eq_selectivity`, :meth:`ColumnStats.range_selectivity`,
and :meth:`ColumnStats.null_selectivity`.  Estimates are heuristics — the
plan's differential oracle guarantees they can only ever change speed,
never results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.data.database import Table
from repro.data.values import Value, sort_key, sorted_families

__all__ = [
    "ColumnStats",
    "TableStats",
    "table_stats",
    "stats_cache_stats",
    "reset_stats_counters",
]

#: Number of equi-depth histogram buckets (fewer when NDV is small).
HISTOGRAM_BUCKETS = 16

#: Selectivity fallbacks used when a column has no statistics.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

_COUNTERS = {"collections": 0, "hits": 0, "invalidations": 0}

_SortKey = tuple  # (type-rank, float | str) pairs from values.sort_key


@dataclass(frozen=True)
class ColumnStats:
    """Distribution summary of one column."""

    count: int
    nulls: int
    ndv: int
    min_key: _SortKey | None
    max_key: _SortKey | None
    #: Equi-depth histogram: ``bounds[i]`` is the sort key at quantile
    #: ``i / (len(bounds) - 1)`` of the non-null values (empty when the
    #: column holds no values).
    bounds: tuple[_SortKey, ...] = ()

    @property
    def null_fraction(self) -> float:
        return self.nulls / self.count if self.count else 0.0

    @property
    def non_null(self) -> int:
        return self.count - self.nulls

    # ------------------------------------------------------------------
    # selectivity estimators (fractions of *all* rows, nulls included)
    # ------------------------------------------------------------------
    def eq_selectivity(self, value: Value = None) -> float:
        """Estimated fraction of rows with ``column = value``.

        The classic NDV uniform-frequency estimate, zeroed when *value*
        falls outside the observed min/max bounds.
        """
        if self.count == 0 or self.non_null == 0:
            return 0.0
        if value is not None and self.min_key is not None:
            key = sort_key(value)
            if key < self.min_key or key > self.max_key:
                return 0.0
        per_value = self.non_null / max(self.ndv, 1)
        return min(1.0, per_value / self.count)

    def range_selectivity(self, op: str, value: Value) -> float:
        """Estimated fraction of rows satisfying ``column <op> value``.

        Interpolates inside the equi-depth histogram; each bucket holds
        ``1 / (len(bounds) - 1)`` of the non-null mass.
        """
        if self.count == 0 or self.non_null == 0 or value is None:
            return 0.0
        frac_le = self._fraction_le(sort_key(value))
        eq = self.eq_selectivity(value) * self.count / max(self.non_null, 1)
        if op == "<=":
            frac = frac_le
        elif op == "<":
            frac = frac_le - eq
        elif op == ">":
            frac = 1.0 - frac_le
        else:  # ">="
            frac = 1.0 - frac_le + eq
        frac = min(1.0, max(0.0, frac))
        return frac * self.non_null / self.count

    def between_selectivity(self, low: Value, high: Value) -> float:
        """Estimated fraction of rows with ``low <= column <= high``."""
        if low is None or high is None:
            return 0.0
        ge = self.range_selectivity(">=", low)
        gt_high = self.range_selectivity(">", high)
        return max(0.0, ge - gt_high)

    def null_selectivity(self, negated: bool = False) -> float:
        """Estimated fraction of rows passing ``IS [NOT] NULL``."""
        return 1.0 - self.null_fraction if negated else self.null_fraction

    def in_selectivity(self, values: tuple[Value, ...]) -> float:
        """Estimated fraction of rows matching ``column IN (values...)``."""
        distinct = {v for v in values if v is not None}
        return min(1.0, sum(self.eq_selectivity(v) for v in distinct))

    def _fraction_le(self, key: _SortKey) -> float:
        """Fraction of *non-null* values with sort key <= *key*."""
        bounds = self.bounds
        if not bounds:
            return 0.5
        if key < bounds[0]:
            return 0.0
        if key >= bounds[-1]:
            return 1.0
        buckets = len(bounds) - 1
        right = bisect_right(bounds, key)
        left = bisect_left(bounds, key)
        if right > left:
            # key sits on one or more bucket boundaries: a heavy value
            # whose mass runs through those buckets and ends somewhere
            # inside the next one — credit it half that next bucket
            return min(1.0, (right - 0.5) / buckets)
        # bucket containing key: bounds[i] <= key < bounds[i + 1]
        i = min(right - 1, buckets - 1)
        lo, hi = bounds[i], bounds[i + 1]
        within = 0.5
        if lo[0] == hi[0] == 1:  # numeric bucket: linear interpolation
            lo_v, hi_v = lo[1], hi[1]
            if key[0] == 1 and hi_v > lo_v:
                within = (key[1] - lo_v) / (hi_v - lo_v)
        return min(1.0, (i + within) / buckets)


@dataclass
class TableStats:
    """Lazily-built per-column statistics for one table snapshot."""

    row_count: int
    _table: Table = field(repr=False)
    _columns: dict[str, ColumnStats] = field(default_factory=dict, repr=False)

    def column(self, name: str) -> ColumnStats:
        """Statistics for *name* (case-insensitive), built on first use."""
        key = name.lower()
        stats = self._columns.get(key)
        if stats is None:
            values = self._table.column_values(key)
            stats = collect_column_stats(values)
            self._columns[key] = stats
        return stats


def collect_column_stats(values: list[Value]) -> ColumnStats:
    """Build :class:`ColumnStats` from a column's values.

    The values come sorted family by family from
    :func:`~repro.data.values.sorted_families` -- numbers as plain
    floats, text as plain strings -- and sort-key tuples are formed only
    for the bounds.  The result equals :func:`_collect_by_sort_key`'s,
    which sorts one key tuple per value and is the fallback for the
    values the typed order does not take (NaN, foreign types).
    """
    families = sorted_families(values)
    if families is None:
        return _collect_by_sort_key(values)
    nulls, numbers, texts = families
    count = len(values)
    n = count - nulls
    if not n:
        return ColumnStats(count=count, nulls=count, ndv=0,
                           min_key=None, max_key=None)
    split = len(numbers)
    made: dict[int, _SortKey] = {}

    def key(index: int) -> _SortKey:
        # one tuple per index, shared by the bounds and min/max that
        # land on it, as the reference's sorted key list shares them
        bound = made.get(index)
        if bound is None:
            if index < split:
                bound = (1, numbers[index])
            else:
                bound = (2, texts[index - split])
            made[index] = bound
        return bound

    ndv = len(set(numbers)) + len(set(texts))
    buckets = min(HISTOGRAM_BUCKETS, max(1, ndv))
    bounds = tuple(
        key(min(n - 1, (i * n) // buckets)) for i in range(buckets)
    ) + (key(n - 1),)
    return ColumnStats(
        count=count,
        nulls=nulls,
        ndv=ndv,
        min_key=key(0),
        max_key=key(n - 1),
        bounds=bounds,
    )


def _collect_by_sort_key(values: list[Value]) -> ColumnStats:
    """:func:`collect_column_stats` by sorting one sort key per value: the
    reference the fast path is tested against, and its fallback."""
    count = len(values)
    non_null = [v for v in values if v is not None]
    nulls = count - len(non_null)
    if not non_null:
        return ColumnStats(count=count, nulls=nulls, ndv=0,
                           min_key=None, max_key=None)
    keys = sorted(sort_key(v) for v in non_null)
    ndv = 1
    for prev, cur in zip(keys, keys[1:]):
        if cur != prev:
            ndv += 1
    buckets = min(HISTOGRAM_BUCKETS, max(1, ndv))
    n = len(keys)
    bounds = tuple(
        keys[min(n - 1, (i * n) // buckets)] for i in range(buckets)
    ) + (keys[-1],)
    return ColumnStats(
        count=count,
        nulls=nulls,
        ndv=ndv,
        min_key=keys[0],
        max_key=keys[-1],
        bounds=bounds,
    )


def table_stats(table: Table) -> TableStats:
    """Statistics for *table*, cached on the table and version-stamped."""
    token = table.cache_token()
    cached = getattr(table, "_stats_cache", None)
    if cached is not None:
        if cached[0] == token:
            _COUNTERS["hits"] += 1
            return cached[1]
        _COUNTERS["invalidations"] += 1
    _COUNTERS["collections"] += 1
    stats = TableStats(row_count=len(table.rows), _table=table)
    table._stats_cache = (token, stats)
    return stats


def stats_cache_stats() -> dict[str, int]:
    """Statistics-cache effectiveness counters (collections/hits/...)."""
    return dict(_COUNTERS)


def reset_stats_counters() -> None:
    for key in _COUNTERS:
        _COUNTERS[key] = 0
