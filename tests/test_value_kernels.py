"""The typed value kernels of :mod:`repro.data.values` against the plain
``sort_key`` order they replace.

Every ordering, fold and index build of the compiled engines goes through
``order_positions`` / ``index_order`` / ``min_value`` / ``max_value`` /
``sum_operands``; each must equal what sorting or folding by one
``sort_key`` tuple per value gives, for every value the library admits
(NULL, bool, int beyond float precision, float including NaN, signed
zeros and infinities, str) and for mixtures of them.  The grouped-query
differential at the end runs HAVING and MIN/MAX/SUM/AVG over NULL, mixed
and NaN columns through ``execute_reference``, the row engine and the
vectorized engine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.data.values import (
    compare_values,
    index_order,
    max_value,
    min_value,
    order_positions,
    sort_key,
    sum_operands,
)
from repro.errors import SQLError
from repro.sql import index as sqlindex
from repro.sql.ast import Literal, OrderItem
from repro.sql.executor import _sort_rows, execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import _order_keyed, _order_rows, compile_query


# ----------------------------------------------------------------------
# the bodies the fast paths replaced, kept as references
# ----------------------------------------------------------------------
_TYPE_RANK = {"null": 0, "number": 1, "text": 2}


def _family(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "number"
    if isinstance(value, (int, float)):
        return "number"
    return "text"


def old_sort_key(value):
    family = _family(value)
    if family == "null":
        return (0, 0.0)
    if family == "number":
        return (1, float(value))
    return (2, str(value))


def old_compare_values(left, right):
    if left is None or right is None:
        return None
    lrank = _TYPE_RANK[_family(left)]
    rrank = _TYPE_RANK[_family(right)]
    if lrank != rrank:
        return -1 if lrank < rrank else 1
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if left == right:
        return 0
    return -1 if left < right else 1


def old_sum_operands(values):
    numbers = [float(v) if isinstance(v, bool) else v for v in values]
    if not all(isinstance(v, (int, float)) for v in numbers):
        return None
    return numbers


class _Text(str):
    """A str subclass: outside the exact types, so it takes the fallback."""


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1]),
    st.sampled_from(
        [0.0, -0.0, 1.0, 2.5, -1.0, float("inf"), -float("inf"),
         float("nan")]
    ),
    st.floats(allow_nan=True, width=32),
    st.sampled_from(["", "a", "B", "b", "1", "1.0", "None", "zz"]),
    st.text(max_size=2),
)

#: lists that hit each typed branch (one family, NULLs, mixtures) and the
#: fallback (NaN, a str subclass)
_VALUE_LISTS = st.one_of(
    st.lists(_SCALARS, max_size=40),
    st.lists(st.integers(min_value=-(2 ** 60), max_value=2 ** 60)
             | st.sampled_from([2 ** 53, 2 ** 53 + 1]), max_size=40),
    st.lists(st.floats(allow_nan=False) | st.integers(-3, 3), max_size=40),
    st.lists(st.sampled_from(["a", "b", "B", ""]) | st.none(), max_size=40),
    st.lists(st.integers(-3, 3) | st.booleans() | st.none(), max_size=40),
    st.lists(st.sampled_from([1, "1", None, 1.0, True, "a"]), max_size=40),
    st.lists(_SCALARS | st.builds(_Text, st.text(max_size=2)), max_size=20),
)


def same(left, right) -> bool:
    """Equal down to type and float sign (repr tells 1, 1.0, True and
    -0.0 apart; NaN reprs as nan)."""
    return repr(left) == repr(right)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    @settings(max_examples=400, deadline=None)
    @given(_SCALARS | st.builds(_Text, st.text(max_size=2)))
    def test_sort_key_equals_the_old_body(self, value):
        assert same(sort_key(value), old_sort_key(value))

    @settings(max_examples=600, deadline=None)
    @given(_SCALARS | st.builds(_Text, st.text(max_size=2)),
           _SCALARS | st.builds(_Text, st.text(max_size=2)))
    def test_compare_values_equals_the_old_body(self, left, right):
        assert compare_values(left, right) == old_compare_values(left, right)

    @settings(max_examples=300, deadline=None)
    @given(_VALUE_LISTS)
    def test_sum_operands_equal_the_old_check(self, values):
        values = [v for v in values if v is not None]
        assert same(sum_operands(values), old_sum_operands(values))


# ----------------------------------------------------------------------
# the typed order helper
# ----------------------------------------------------------------------
def reference_positions(values, descending):
    return sorted(
        range(len(values)),
        key=lambda i: old_sort_key(values[i]),
        reverse=descending,
    )


class TestTypedOrder:
    @settings(max_examples=500, deadline=None)
    @given(_VALUE_LISTS, st.booleans())
    def test_positions_equal_the_sort_key_order(self, values, descending):
        assert order_positions(values, descending) == reference_positions(
            values, descending
        )

    @settings(max_examples=300, deadline=None)
    @given(_VALUE_LISTS)
    def test_positions_accept_tuples(self, values):
        assert order_positions(tuple(values), True) == reference_positions(
            values, True
        )

    @settings(max_examples=500, deadline=None)
    @given(_VALUE_LISTS.filter(bool))
    def test_min_max_equal_the_keyed_folds(self, values):
        assert same(min_value(values), min(values, key=old_sort_key))
        assert same(max_value(values), max(values, key=old_sort_key))

    def test_min_max_return_the_first_of_equal_keys(self):
        # 1, 1.0 and True share a key; beyond 2**53 ints share floats
        assert same(min_value([True, 1, 1.0]), True)
        assert same(max_value([1.0, True, 1]), 1.0)
        assert same(min_value([2 ** 53 + 1, 2 ** 53]), 2 ** 53 + 1)
        assert same(max_value([-0.0, 0.0, 0]), -0.0)
        assert same(min_value(["b", 3, "a", 2.5]), 2.5)
        assert same(max_value(["b", 3, "a", 2.5]), "b")

    @settings(max_examples=300, deadline=None)
    @given(_VALUE_LISTS)
    def test_index_order_equals_the_decorated_sort(self, values):
        decorated = sorted(
            (old_sort_key(v), pos) for pos, v in enumerate(values)
        )
        positions, keys = index_order(values)
        assert positions == [pos for _key, pos in decorated]
        assert same(keys, [key for key, _pos in decorated])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_SCALARS, _SCALARS, _SCALARS), max_size=30),
        st.lists(st.booleans(), min_size=1, max_size=3),
    )
    def test_multi_key_order_by_equals_the_reference_sort(self, keys,
                                                           directions):
        order_by = tuple(
            OrderItem(Literal(i), descending=d)
            for i, d in enumerate(directions)
        )
        keyed = [
            (list(k[: len(directions)]), (n,)) for n, k in enumerate(keys)
        ]
        expected = _sort_rows([(list(k), r) for k, r in keyed], order_by)
        assert _order_keyed(keyed, order_by) == expected
        columns = [[k[i] for k, _r in keyed] for i in range(len(order_by))]
        assert _order_rows([r for _k, r in keyed], columns,
                           order_by) == expected


# ----------------------------------------------------------------------
# sorted indexes
# ----------------------------------------------------------------------
class _OldIndex:
    """The decorated-sort construction and insert-based catch-up the
    typed index replaced."""

    def __init__(self, values):
        decorated = sorted(
            (old_sort_key(v), pos) for pos, v in enumerate(values)
        )
        self.length = len(values)
        self.keys = [key for key, _pos in decorated]
        self.asc = [pos for _key, pos in decorated]

    def desc(self):
        keys, asc = self.keys, self.asc
        order = sorted(range(len(asc)), key=lambda i: keys[i], reverse=True)
        return [asc[i] for i in order]

    def extend(self, values, desc):
        for pos in range(self.length, len(values)):
            key = old_sort_key(values[pos])
            if desc is not None:
                desc.insert(len(self.keys) - bisect_left(self.keys, key), pos)
            at = bisect_right(self.keys, key)
            self.keys.insert(at, key)
            self.asc.insert(at, pos)
        self.length = len(values)
        return desc


def _assert_index_equal(index, old, old_desc):
    assert index.asc == old.asc
    assert same(index.keys, old.keys)
    assert index.desc == old_desc
    assert index.null_count == sum(1 for key in old.keys if key[0] == 0)


class TestSortedIndex:
    @settings(max_examples=300, deadline=None)
    @given(_VALUE_LISTS)
    def test_built_index_equals_the_decorated_sort(self, values):
        rows = [(v,) for v in values]
        old = _OldIndex(values)
        _assert_index_equal(sqlindex.SortedIndex(rows, 0), old, old.desc())

    @settings(max_examples=300, deadline=None)
    @given(_VALUE_LISTS, st.integers(0, 40), st.booleans())
    def test_extended_index_equals_the_old_catch_up(self, values, cut,
                                                    desc_first):
        cut = min(cut, len(values))
        rows = [(v,) for v in values]
        index = sqlindex.SortedIndex(rows[:cut], 0)
        old = _OldIndex(values[:cut])
        old_desc = old.desc() if desc_first else None
        if desc_first:
            assert index.desc == old_desc
        grown = index.extended(rows)
        old_desc = old.extend(values, old_desc)
        _assert_index_equal(
            grown, old, old_desc if desc_first else old.desc()
        )
        if all(v == v for v in values):
            # without NaN the catch-up is indistinguishable from a rebuild
            fresh = sqlindex.SortedIndex(rows, 0)
            assert grown.asc == fresh.asc and grown.desc == fresh.desc


# ----------------------------------------------------------------------
# grouped HAVING / MIN / MAX / SUM / AVG differential
# ----------------------------------------------------------------------
_SCHEMA = Schema(
    db_id="kernels",
    tables=(
        TableSchema(
            "t",
            (
                Column("g", ColumnType.TEXT),
                Column("k", ColumnType.NUMBER),
                Column("x", ColumnType.NUMBER),
                Column("m", ColumnType.TEXT),
            ),
        ),
    ),
)

_GROUPED = (
    "SELECT g, MIN(x), MAX(x), COUNT(*) FROM t GROUP BY g "
    "HAVING COUNT(*) >= 2",
    "SELECT g, SUM(k), AVG(k) FROM t GROUP BY g HAVING MAX(x) > 0 "
    "ORDER BY g DESC",
    "SELECT g, MIN(m), MAX(m) FROM t GROUP BY g HAVING MIN(k) < 3 "
    "ORDER BY MAX(m), g",
    "SELECT MIN(x), MAX(x), SUM(k), AVG(k) FROM t",
    "SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(x) > 1",
    "SELECT g, SUM(m) FROM t GROUP BY g HAVING COUNT(*) > 100",
    "SELECT g, AVG(x) FROM t GROUP BY g HAVING AVG(k) >= 0 ORDER BY g",
    "SELECT g, MAX(x) FROM t GROUP BY g ORDER BY MAX(x) DESC, g LIMIT 3",
    "SELECT g, MIN(DISTINCT k), COUNT(DISTINCT m) FROM t GROUP BY g "
    "HAVING MAX(k) IS NOT NULL",
)
_PLAIN = (
    "SELECT k, x FROM t ORDER BY x, k DESC",
    "SELECT * FROM t ORDER BY m DESC LIMIT 4",
    "SELECT g FROM t ORDER BY k LIMIT 2",
    "SELECT x AS v, g FROM t ORDER BY v DESC, g",
)
_MODES = ((False, False), (True, False), (True, True), (False, True))

_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2 ** 53 + 1, 0.0, -0.0, 1.5, float("nan"),
                     float("inf")]),
    st.sampled_from(["a", "b", "Z", ""]),
)
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["p", "q", "r", None]),
        st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([0.5, True])),
        _CELLS,
        st.sampled_from(["a", "b", "Z", None]),
    ),
    max_size=14,
)


def _outcome(run):
    try:
        result = run()
    except SQLError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (result.columns, repr(result.rows), result.ordered)


def _aggregate_line(plan, db) -> str:
    return next(
        line for line in plan.explain(db).splitlines()
        if line.lstrip().startswith("aggregate")
    )


class TestGroupedDifferential:
    @settings(max_examples=120, deadline=None)
    @given(_ROWS)
    def test_engines_agree_with_the_reference(self, rows):
        db = Database(schema=_SCHEMA)
        for row in rows:
            db.insert("t", row)
        for sql in _GROUPED + _PLAIN:
            query = parse_sql(sql)
            expected = _outcome(lambda: execute_reference(query, db))
            for optimize, vectorize in _MODES:
                plan = compile_query(query, _SCHEMA, db, optimize=optimize,
                                     vectorize=vectorize)
                assert _outcome(lambda: plan.run(db)) == expected, (
                    sql, optimize, vectorize, rows
                )
                if vectorize and sql in _GROUPED:
                    assert "vectorized=yes" in _aggregate_line(plan, db), sql

    def test_an_item_error_in_a_filtered_group_never_raises(self):
        db = Database(schema=_SCHEMA)
        for row in (("p", 1, 1, "a"), ("q", 2, 2, "b"), ("q", 3, 3, "c")):
            db.insert("t", row)
        query = parse_sql(
            "SELECT g, SUM(m) FROM t GROUP BY g HAVING COUNT(*) > 5"
        )
        for optimize, vectorize in _MODES:
            plan = compile_query(query, _SCHEMA, db, optimize=optimize,
                                 vectorize=vectorize)
            assert plan.run(db).rows == ()
