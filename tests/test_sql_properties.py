"""Property-based tests (hypothesis) for the SQL substrate.

A random-query strategy over the shop schema drives invariants that must
hold for *every* query the grammar can produce: parse/unparse round-trips,
normalizer idempotence, decomposition self-match, and executor laws
(filtering only removes rows, LIMIT bounds, DISTINCT de-duplicates,
UNION ALL concatenates, determinism).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    SetOperation,
    Star,
    TableRef,
)
from repro.sql.components import classify_hardness, decompose
from repro.sql.executor import execute
from repro.sql.normalize import normalize_sql
from repro.sql.parser import parse_sql
from repro.sql.unparser import to_sql

SCHEMA = Schema(
    db_id="prop",
    tables=(
        TableSchema(
            "items",
            (
                Column("id", ColumnType.NUMBER),
                Column("label", ColumnType.TEXT),
                Column("price", ColumnType.NUMBER),
                Column("kind", ColumnType.TEXT),
            ),
            primary_key="id",
        ),
    ),
)


def _make_db(rows: list[tuple]) -> Database:
    db = Database(schema=SCHEMA)
    for row in rows:
        db.insert("items", row)
    return db


row_strategy = st.tuples(
    st.integers(0, 50),
    st.sampled_from(["ant", "bee", "cow", "dog", None]),
    st.one_of(st.none(), st.integers(0, 100), st.floats(0, 100, width=16)),
    st.sampled_from(["x", "y", "z"]),
)
rows_strategy = st.lists(row_strategy, max_size=12)

NUM_COLS = ("id", "price")
TEXT_COLS = ("label", "kind")

column_ref = st.sampled_from(
    [ColumnRef(c) for c in NUM_COLS + TEXT_COLS]
)
num_ref = st.sampled_from([ColumnRef(c) for c in NUM_COLS])
literal = st.one_of(
    st.integers(-5, 60).map(Literal),
    st.sampled_from(["ant", "bee", "x", "z"]).map(Literal),
)

comparison = st.builds(
    BinaryOp,
    op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    left=column_ref,
    right=literal,
)
condition = st.recursive(
    comparison,
    lambda children: st.builds(
        BinaryOp,
        op=st.sampled_from(["and", "or"]),
        left=children,
        right=children,
    ),
    max_leaves=4,
)

projection = st.one_of(
    st.just((SelectItem(expr=Star()),)),
    st.lists(
        column_ref.map(lambda r: SelectItem(expr=r)),
        min_size=1,
        max_size=3,
        unique_by=lambda i: i.expr.column,
    ).map(tuple),
)

aggregate_items = st.one_of(
    st.just((SelectItem(expr=FuncCall(name="count", args=(Star(),))),)),
    num_ref.map(
        lambda r: (
            SelectItem(expr=FuncCall(name="avg", args=(r,))),
        )
    ),
)


@st.composite
def select_query(draw) -> Select:
    aggregated = draw(st.booleans())
    if aggregated:
        items = draw(aggregate_items)
        group = draw(
            st.one_of(
                st.none(),
                st.sampled_from([ColumnRef(c) for c in TEXT_COLS]),
            )
        )
        if group is not None:
            items = (SelectItem(expr=group),) + items
        order_by = ()
    else:
        items = draw(projection)
        group = None
        order_by = draw(
            st.one_of(
                st.just(()),
                st.tuples(
                    st.builds(
                        OrderItem,
                        expr=column_ref,
                        descending=st.booleans(),
                    )
                ),
            )
        )
    where = draw(st.one_of(st.none(), condition))
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    distinct = draw(st.booleans()) if not aggregated else False
    return Select(
        items=items,
        from_=TableRef(name="items"),
        where=where,
        group_by=(group,) if group is not None else (),
        order_by=order_by,
        limit=limit,
        distinct=distinct,
    )


@settings(max_examples=120, deadline=None)
@given(query=select_query())
def test_parse_unparse_roundtrip(query):
    rendered = to_sql(query)
    assert parse_sql(rendered) == query


@settings(max_examples=80, deadline=None)
@given(query=select_query())
def test_normalize_idempotent(query):
    once = normalize_sql(to_sql(query))
    assert normalize_sql(once) == once


@settings(max_examples=80, deadline=None)
@given(query=select_query())
def test_decompose_self_match_and_hardness(query):
    components = decompose(query)
    assert components.matches(decompose(query))
    assert classify_hardness(query) in ("easy", "medium", "hard", "extra")


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, query=select_query())
def test_executor_is_deterministic(rows, query):
    db = _make_db(rows)
    first = execute(query, db)
    second = execute(query, db)
    assert first.rows == second.rows
    assert first.columns == second.columns


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, query=select_query())
def test_limit_bounds_row_count(rows, query):
    db = _make_db(rows)
    result = execute(query, db)
    if query.limit is not None:
        assert len(result.rows) <= query.limit


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, where=condition)
def test_where_only_removes_rows(rows, where):
    db = _make_db(rows)
    base = Select(items=(SelectItem(expr=Star()),), from_=TableRef("items"))
    filtered = Select(
        items=(SelectItem(expr=Star()),),
        from_=TableRef("items"),
        where=where,
    )
    all_rows = execute(base, db).rows
    kept = execute(filtered, db).rows
    assert len(kept) <= len(all_rows)
    counts: dict[tuple, int] = {}
    for row in all_rows:
        counts[row] = counts.get(row, 0) + 1
    for row in kept:
        counts[row] -= 1
        assert counts[row] >= 0  # kept rows are a sub-multiset


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_distinct_deduplicates(rows):
    db = _make_db(rows)
    plain = execute(parse_sql("SELECT kind FROM items"), db).rows
    distinct = execute(parse_sql("SELECT DISTINCT kind FROM items"), db).rows
    assert len(distinct) == len(set(plain))
    assert set(distinct) == set(plain)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, where=comparison)
def test_union_all_concatenates(rows, where):
    db = _make_db(rows)
    left = Select(
        items=(SelectItem(expr=ColumnRef("label")),),
        from_=TableRef("items"),
        where=where,
    )
    right = Select(
        items=(SelectItem(expr=ColumnRef("label")),),
        from_=TableRef("items"),
    )
    union_all = SetOperation(op="union all", left=left, right=right)
    assert len(execute(union_all, db).rows) == (
        len(execute(left, db).rows) + len(execute(right, db).rows)
    )


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_count_star_equals_row_count(rows):
    db = _make_db(rows)
    result = execute(parse_sql("SELECT COUNT(*) FROM items"), db)
    assert result.rows == ((len(rows),),)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, query=select_query())
def test_exact_match_implies_execution_match(rows, query):
    from repro.metrics import exact_string_match, execution_match

    db = _make_db(rows)
    sql = to_sql(query)
    assert exact_string_match(sql, sql)
    assert execution_match(sql, sql, db)
