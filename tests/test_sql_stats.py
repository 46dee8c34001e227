"""Unit tests for table statistics, selectivity estimation, and indexes.

Selectivity estimates feed the cost-based optimizer in ``repro.sql.plan``;
they only influence plan shape, never results, so these tests pin the
estimators to sane error bounds on generated data rather than exact
values.  The index tests pin the semantics the planner relies on: NULL
keys never match, and scans come back in base row order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database, Table
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.sql import index as sqlindex
from repro.sql import stats as sqlstats
from repro.sql.stats import collect_column_stats, table_stats

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT


def _table(values, name="t", column="x"):
    schema = TableSchema(name, (Column(column, NUM),))
    return Table(schema=schema, rows=[(v,) for v in values])


def _actual_fraction(values, predicate):
    if not values:
        return 0.0
    return sum(1 for v in values if v is not None and predicate(v)) / len(values)


class TestColumnStats:
    def test_exact_counts_and_bounds(self):
        stats = collect_column_stats([3, 1, None, 2, 2, None])
        assert stats.count == 6
        assert stats.nulls == 2
        assert stats.ndv == 3
        assert stats.null_fraction == pytest.approx(2 / 6)
        assert stats.min_key == sqlstats.sort_key(1)
        assert stats.max_key == sqlstats.sort_key(3)

    def test_empty_and_all_null_columns(self):
        empty = collect_column_stats([])
        assert empty.ndv == 0 and empty.eq_selectivity(1) == 0.0
        nulls = collect_column_stats([None, None])
        assert nulls.ndv == 0
        assert nulls.null_fraction == 1.0
        assert nulls.eq_selectivity(1) == 0.0
        assert nulls.range_selectivity("<", 5) == 0.0
        assert nulls.null_selectivity() == 1.0

    def test_histogram_bounds_are_sorted_quantiles(self):
        stats = collect_column_stats(list(range(100)))
        assert list(stats.bounds) == sorted(stats.bounds)
        assert stats.bounds[0] == stats.min_key
        assert stats.bounds[-1] == stats.max_key
        assert len(stats.bounds) == sqlstats.HISTOGRAM_BUCKETS + 1

    def test_ndv_equality_estimate_uniform(self):
        # 10 distinct values, 100 rows: a point lookup should estimate ~10%
        values = [i % 10 for i in range(100)]
        stats = collect_column_stats(values)
        assert stats.ndv == 10
        assert stats.eq_selectivity(3) == pytest.approx(0.1)

    def test_equality_outside_bounds_is_zero(self):
        stats = collect_column_stats([5, 6, 7, 8])
        assert stats.eq_selectivity(100) == 0.0
        assert stats.eq_selectivity(-1) == 0.0
        assert stats.eq_selectivity(6) > 0.0

    def test_range_estimates_within_bounds_on_uniform_data(self):
        rng = random.Random(42)
        values = [rng.randrange(0, 1000) for _ in range(2000)]
        stats = collect_column_stats(values)
        for op, pred in (
            ("<", lambda v, c: v < c),
            ("<=", lambda v, c: v <= c),
            (">", lambda v, c: v > c),
            (">=", lambda v, c: v >= c),
        ):
            for cut in (100, 250, 500, 900):
                est = stats.range_selectivity(op, cut)
                actual = _actual_fraction(values, lambda v: pred(v, cut))
                assert abs(est - actual) < 0.1, (op, cut, est, actual)

    def test_range_estimates_with_nulls_and_skew(self):
        rng = random.Random(7)
        values = [rng.choice((None, 1, 1, 1, 50, 100)) for _ in range(1000)]
        stats = collect_column_stats(values)
        est = stats.range_selectivity("<=", 1)
        actual = _actual_fraction(values, lambda v: v <= 1)
        assert abs(est - actual) < 0.15

    def test_between_selectivity(self):
        values = list(range(100))
        stats = collect_column_stats(values)
        est = stats.between_selectivity(20, 39)
        assert abs(est - 0.2) < 0.1
        assert stats.between_selectivity(None, 5) == 0.0

    def test_in_selectivity_dedupes_and_caps(self):
        values = [i % 4 for i in range(40)]
        stats = collect_column_stats(values)
        single = stats.eq_selectivity(1)
        assert stats.in_selectivity((1, 1, None)) == pytest.approx(single)
        assert stats.in_selectivity(tuple(range(100))) <= 1.0


#: column values drawn to stress the split numbers/text sort: NULLs,
#: bools, ints equal to floats (1 == 1.0 == True), signed zeros,
#: infinities and duplicates
_COLUMN_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, float("inf"), -float("inf")]),
    st.floats(allow_nan=False, width=32),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.sampled_from(["", "a", "B", "b", "1", "1.0", "None", "zz"]),
    st.text(max_size=3),
)


class TestCollectColumnStatsReference:
    """The split sort equals the one-key-per-value reference exactly."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_COLUMN_VALUES, max_size=60))
    def test_matches_reference(self, values):
        fast = collect_column_stats(values)
        # repr as well as ==: (1, 1) == (1, 1.0), but a key must hold
        # the float the reference's sort_key produces
        assert fast == sqlstats._collect_by_sort_key(values)
        assert repr(fast) == repr(sqlstats._collect_by_sort_key(values))

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, float("nan"), None, 2],
            [1, "a", float("nan")],
            [1, (2,), None],
            [True, 1, 1.0, b"x"],
        ],
    )
    def test_nan_and_foreign_values_use_the_reference(self, values):
        assert repr(collect_column_stats(values)) == repr(
            sqlstats._collect_by_sort_key(values)
        )

    def test_leaves_its_input_unchanged(self):
        values = [3, None, "b", 1.5, "a", True]
        collect_column_stats(values)
        assert values == [3, None, "b", 1.5, "a", True]


class TestStatsCache:
    def test_cached_until_mutation(self):
        table = _table([1, 2, 3])
        first = table_stats(table)
        assert table_stats(table) is first
        table.append((4,))
        second = table_stats(table)
        assert second is not first
        assert second.row_count == 4

    def test_replace_rows_invalidates(self):
        table = _table([1, 2, 3])
        before = table_stats(table).column("x")
        table.replace_rows([(9,)] * 5)
        after = table_stats(table).column("x")
        assert before.count == 3 and after.count == 5


class TestHashIndex:
    def test_null_keys_never_match(self):
        rows = [(1, "a"), (None, "b"), (1, "c"), (2, "d")]
        idx = sqlindex.HashIndex(rows, (0,))
        assert idx.lookup(None) == []
        assert idx.lookup(1) == [(1, "a"), (1, "c")]
        assert None not in idx.buckets

    def test_numeric_unification(self):
        # SQL equality unifies 1, 1.0 and TRUE; Python hashing agrees
        rows = [(1,), (1.0,), (True,), (2,)]
        idx = sqlindex.HashIndex(rows, (0,))
        assert len(idx.lookup(1)) == 3

    def test_lookup_many_preserves_row_order_and_dedupes(self):
        rows = [(3,), (1,), (2,), (1,)]
        idx = sqlindex.HashIndex(rows, (0,))
        got = idx.lookup_many(rows, (2, 1, 1, None))
        assert got == [(1,), (2,), (1,)]  # base row order, no duplicates

    def test_multi_column_keys_skip_partial_nulls(self):
        rows = [(1, 2), (1, None), (1, 2)]
        idx = sqlindex.HashIndex(rows, (0, 1))
        assert idx.lookup((1, 2)) == [(1, 2), (1, 2)]
        assert (1, None) not in idx.buckets


class TestSortedIndex:
    def test_range_positions_exclude_nulls(self):
        rows = [(5,), (None,), (1,), (3,), (None,)]
        idx = sqlindex.SortedIndex(rows, 0)
        assert idx.null_count == 2
        assert idx.range_positions(1, 5, True, True) == [0, 2, 3]
        assert idx.range_positions(None, None, True, True) == [0, 2, 3]
        assert idx.range_positions(2, None, True, True) == [0, 3]
        assert idx.range_positions(1, 3, False, False) == []
        assert idx.range_positions(10, 1, True, True) == []

    def test_desc_is_stable_not_reversed(self):
        rows = [(1,), (2,), (1,), (2,)]
        idx = sqlindex.SortedIndex(rows, 0)
        # equal keys must keep base row order in BOTH directions,
        # matching the executor's stable sorts
        assert idx.asc == [0, 2, 1, 3]
        assert idx.desc == [1, 3, 0, 2]

    def test_mixed_types_follow_sort_key_order(self):
        rows = [("b",), (2,), ("a",), (1,), (None,)]
        idx = sqlindex.SortedIndex(rows, 0)
        # numbers sort before text, NULLs first
        assert idx.asc == [4, 3, 1, 2, 0]
        assert idx.range_positions("a", "b", True, True) == [0, 2]


class TestIndexCache:
    def test_cached_until_mutation(self):
        schema = Schema(
            db_id="d",
            tables=(TableSchema("t", (Column("x", NUM),), primary_key="x"),),
        )
        db = Database(schema=schema)
        for i in range(5):
            db.insert("t", (i,))
        table = db.table("t")
        first = sqlindex.hash_index(table, ("x",))
        assert sqlindex.hash_index(table, ("x",)) is first
        db.insert("t", (99,))
        second = sqlindex.hash_index(table, ("x",))
        assert second is not first
        assert second.lookup(99) == [(99,)]
