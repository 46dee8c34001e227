"""Differential and regression tests for the cost-based optimizer.

Three-way property testing is the backbone: every seeded random query
(reusing ``test_sql_plan``'s generator) must produce identical results
with the optimizer on, the optimizer off, and the reference interpreter —
including on empty tables and all-NULL join keys, and with the index-build
threshold forced to 1 so even four-row fixtures exercise the index paths.
"""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.errors import SQLError
from repro.sql import index as sqlindex
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import (
    clear_plan_caches,
    compile_query,
    compile_sql,
    configure_caches,
    explain,
    parse_cache_stats,
    plan_cache_stats,
)
from tests.test_sql_plan import _AGGS, _CMPS, _COLS, _NUM_COLS, _random_query

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT


@pytest.fixture(autouse=True)
def tiny_index_threshold():
    """Force index builds even on tiny fixtures; restore afterwards."""
    previous = sqlindex.set_min_index_rows(1)
    yield
    sqlindex.set_min_index_rows(previous)


def assert_three_way(sql: str, db: Database, vectorize: bool = True) -> None:
    """Reference, optimizer-off, and optimizer-on must agree exactly."""
    query = parse_sql(sql)
    try:
        expected = execute_reference(query, db)
    except SQLError as exc:
        for optimize in (False, True):
            with pytest.raises(type(exc)) as info:
                compile_query(query, db.schema, db, optimize=optimize,
                              vectorize=vectorize).run(db)
            assert str(info.value) == str(exc), (sql, optimize)
        return
    for optimize in (False, True):
        got = compile_query(query, db.schema, db, optimize=optimize,
                            vectorize=vectorize).run(db)
        assert got.columns == expected.columns, (sql, optimize)
        assert got.rows == expected.rows, (sql, optimize)
        assert got.ordered == expected.ordered, (sql, optimize)


@pytest.fixture
def empty_db(shop_schema) -> Database:
    return Database(schema=shop_schema)


@pytest.fixture
def null_join_db(shop_schema) -> Database:
    db = Database(schema=shop_schema)
    for row in (
        (1, "widget", "tools", 9.5),
        (2, "gadget", None, 19.0),
        (3, None, "food", None),
    ):
        db.insert("products", row)
    for i in range(1, 7):  # every join key NULL
        db.insert("sales", (i, None, i, "Q1" if i % 2 else None))
    return db


class TestThreeWayProperty:
    def test_random_queries_shop(self, shop_db):
        rng = random.Random(4321)
        for _ in range(150):
            assert_three_way(_random_query(rng), shop_db)

    def test_random_queries_empty_tables(self, empty_db):
        rng = random.Random(99)
        for _ in range(100):
            assert_three_way(_random_query(rng), empty_db)

    def test_random_queries_all_null_join_keys(self, null_join_db):
        rng = random.Random(7)
        for _ in range(100):
            assert_three_way(_random_query(rng), null_join_db)

    def test_semi_join_lowering(self, shop_db):
        sql = (
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales WHERE quantity > 2)"
        )
        assert_three_way(sql, shop_db)
        plan = compile_query(parse_sql(sql), shop_db.schema, shop_db,
                             optimize=True)
        assert plan.describe()["semi_joins"] == 1

    def test_semi_join_on_empty_source(self, empty_db):
        assert_three_way(
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales)",
            empty_db,
        )


# ----------------------------------------------------------------------
# Subqueries whose column names shadow outer ones: a reference is
# correlated only if it can reach an outer scope at runtime.
_SHADOWED_KEY_IN = (
    "SELECT name FROM products WHERE id IN "
    "(SELECT id FROM sales WHERE quantity > 2)"
)
_SAME_TABLE_SCALAR = (
    "SELECT name FROM products WHERE price > (SELECT AVG(price) FROM products)"
)
_EMPTY_GROUP_FALLTHROUGH = [
    "SELECT name, (SELECT AVG(price) + price FROM products WHERE price < 0) "
    "FROM products",
    "SELECT name, (SELECT COUNT(*) + price FROM products WHERE price < 0) "
    "FROM products",
]


def _subquery_meta(sql: str, db: Database) -> dict[str, int]:
    return compile_query(parse_sql(sql), db.schema, db, optimize=True).describe()


class TestShadowedSubqueries:
    @pytest.mark.parametrize("db_name", ["shop_db", "empty_db"])
    def test_shadowed_key_in_is_hoisted_semi_join(self, db_name, request):
        db = request.getfixturevalue(db_name)
        assert_three_way(_SHADOWED_KEY_IN, db)
        meta = _subquery_meta(_SHADOWED_KEY_IN, db)
        assert meta["hoisted_subqueries"] == 1
        assert meta["correlated_subqueries"] == 0
        assert meta["semi_joins"] == 1

    @pytest.mark.parametrize("db_name", ["shop_db", "empty_db"])
    def test_same_table_scalar_is_hoisted(self, db_name, request):
        db = request.getfixturevalue(db_name)
        assert_three_way(_SAME_TABLE_SCALAR, db)
        meta = _subquery_meta(_SAME_TABLE_SCALAR, db)
        assert meta["hoisted_subqueries"] == 1
        assert meta["correlated_subqueries"] == 0

    @pytest.mark.parametrize("db_name", ["shop_db", "empty_db"])
    @pytest.mark.parametrize("sql", _EMPTY_GROUP_FALLTHROUGH)
    def test_empty_group_fallthrough_stays_correlated(self, sql, db_name,
                                                       request):
        db = request.getfixturevalue(db_name)
        assert_three_way(sql, db)
        meta = _subquery_meta(sql, db)
        assert meta["correlated_subqueries"] == 1
        assert meta["hoisted_subqueries"] == 0

    @pytest.mark.parametrize("db_name", ["shop_db", "empty_db"])
    @pytest.mark.parametrize(
        "sql",
        [
            # `id` is ambiguous inside the join, before any outer scope
            "SELECT name FROM products WHERE id IN (SELECT id FROM sales "
            "JOIN products ON sales.product_id = products.id)",
            "SELECT name FROM products WHERE EXISTS (SELECT 1 FROM sales "
            "JOIN products ON sales.product_id = products.id WHERE id > 1)",
            # unknown in every scope, raised only if the subquery runs
            "SELECT name FROM products WHERE id IN (SELECT nope FROM sales)",
            "SELECT name FROM products WHERE price > "
            "(SELECT MAX(nope) FROM products)",
            "SELECT (SELECT COUNT(*) + nope FROM sales WHERE id < 0) "
            "FROM products",
        ],
    )
    def test_subquery_name_errors_match_reference(self, sql, db_name,
                                                  request):
        assert_three_way(sql, request.getfixturevalue(db_name))


def _random_subquery_query(rng: random.Random) -> str:
    """A query with one IN / EXISTS / scalar subquery whose column names
    shadow the outer scope's.

    Inner and outer tables share ``id`` (or are the same table), inner
    references are mostly unqualified, inner WHERE clauses are often
    unsatisfiable (empty inner input), and scalar subqueries are ungrouped
    aggregates whose bare columns fall through to the outer row when the
    group is empty.  Some references name the outer alias or no table at
    all, so correlated, uncorrelated and erroring subqueries all occur.
    """
    outer = rng.choice(["products", "sales"])
    inner = rng.choice(["products", "sales"])
    alias = rng.choice(["", "o"])
    outer_from = f"FROM {outer}" + (f" AS {alias}" if alias else "")
    prefix = f"{alias}." if alias else ""

    def inner_ref(numeric: bool = False) -> str:
        if rng.random() < 0.03:
            return "nope"  # unknown in every scope
        cols = _NUM_COLS if numeric else _COLS
        col = rng.choice(cols[outer] + cols[inner])
        if alias and col in _COLS[outer] and rng.random() < 0.25:
            return f"o.{col}"  # an explicit outer reference
        return col

    def inner_where() -> str:
        roll = rng.random()
        if roll < 0.3:
            return f" WHERE {inner_ref(True)} < 0"  # usually empty input
        if roll < 0.7:
            return (
                f" WHERE {inner_ref(True)} {rng.choice(_CMPS)} "
                f"{rng.randrange(0, 6)}"
            )
        if roll < 0.85:
            return f" WHERE {inner_ref()} = {inner_ref()}"
        return ""

    def scalar_item() -> str:
        agg = rng.choice(_AGGS)
        arg = "*" if agg == "COUNT" else inner_ref(True)
        item = f"{agg}({arg})"
        if rng.random() < 0.4:
            item += f" + {inner_ref(True)}"  # bare column beside aggregate
        tail = ""
        roll = rng.random()
        if roll < 0.15:
            tail = f" ORDER BY {inner_ref()}"  # on the representative row
        elif roll < 0.3:
            tail = f" GROUP BY {inner_ref()}"
            if rng.random() < 0.5:
                tail += f" HAVING {inner_ref(True)} > 1"
        return f"(SELECT {item} FROM {inner}{inner_where()}{tail})"

    kind = rng.randrange(4)
    outer_col = f"{prefix}{rng.choice(_COLS[outer])}"
    outer_num = f"{prefix}{rng.choice(_NUM_COLS[outer])}"
    not_ = "NOT " if rng.random() < 0.3 else ""
    if kind == 0:
        where = (
            f" WHERE {outer_col} {not_}IN "
            f"(SELECT {inner_ref()} FROM {inner}{inner_where()})"
        )
    elif kind == 1:
        where = (
            f" WHERE {not_}EXISTS "
            f"(SELECT {inner_ref()} FROM {inner}{inner_where()})"
        )
    elif kind == 2:
        where = f" WHERE {outer_num} {rng.choice(_CMPS)} {scalar_item()}"
    else:
        where = ""
    if rng.random() < 0.25:
        # ungrouped outer aggregate: the subquery may see its empty-group
        # representative as the outer row
        select = f"SELECT COUNT(*), {scalar_item()}"
    else:
        items = [f"{prefix}{rng.choice(_COLS[outer])}"]
        if kind == 3 or rng.random() < 0.3:
            items.append(scalar_item())
        select = "SELECT " + ", ".join(items)
    return f"{select} {outer_from}{where}"


class TestShadowedSubqueryProperty:
    @pytest.mark.parametrize("vectorize", [True, False])
    @pytest.mark.parametrize(
        "db_name, seed", [("shop_db", 13), ("empty_db", 17),
                          ("null_join_db", 19)]
    )
    def test_random_shadowed_subqueries(self, db_name, seed, vectorize,
                                        request):
        db = request.getfixturevalue(db_name)
        rng = random.Random(seed)
        for _ in range(150):
            assert_three_way(_random_subquery_query(rng), db, vectorize)


# ----------------------------------------------------------------------
@pytest.fixture
def mart_db() -> Database:
    """Three joinable tables with skewed sizes, for join reordering."""
    schema = Schema(
        db_id="mart",
        tables=(
            TableSchema(
                "customers",
                (Column("id", NUM), Column("name", TXT), Column("city", TXT)),
                primary_key="id",
            ),
            TableSchema(
                "orders",
                (
                    Column("id", NUM),
                    Column("customer_id", NUM),
                    Column("product_id", NUM),
                    Column("quantity", NUM),
                ),
                primary_key="id",
            ),
            TableSchema(
                "products",
                (Column("id", NUM), Column("name", TXT), Column("price", NUM)),
                primary_key="id",
            ),
        ),
        foreign_keys=(
            ForeignKey("orders", "customer_id", "customers", "id"),
            ForeignKey("orders", "product_id", "products", "id"),
        ),
    )
    db = Database(schema=schema)
    rng = random.Random(5)
    cities = ("east", "west", None)
    for i in range(40):
        db.insert("customers", (i, f"c{i}", rng.choice(cities)))
    for i in range(25):
        db.insert("products", (i, f"p{i}", rng.randrange(5, 200)))
    for i in range(300):
        db.insert(
            "orders",
            (
                i,
                rng.choice((rng.randrange(40), None)),
                rng.randrange(25),
                rng.randrange(1, 9),
            ),
        )
    return db


_MART_JOIN = (
    "FROM orders AS o JOIN customers AS c ON c.id = o.customer_id "
    "JOIN products AS p ON p.id = o.product_id"
)


class TestJoinReordering:
    def test_reorder_fires_and_agrees(self, mart_db):
        sql = (
            f"SELECT c.name, p.name {_MART_JOIN} "
            "WHERE p.price > 150 ORDER BY c.name, p.name"
        )
        assert_three_way(sql, mart_db)
        plan = compile_query(parse_sql(sql), mart_db.schema, mart_db,
                             optimize=True)
        assert plan.describe()["join_reorders"] == 1

    def test_reorder_preserves_written_order_rows(self, mart_db):
        # no ORDER BY: row order must still match written-order enumeration
        assert_three_way(
            f"SELECT o.id, c.name, p.price {_MART_JOIN} "
            "WHERE p.price <= 60",
            mart_db,
        )

    def test_reorder_with_aggregation(self, mart_db):
        assert_three_way(
            f"SELECT c.city, COUNT(*), SUM(o.quantity) {_MART_JOIN} "
            "WHERE p.price BETWEEN 20 AND 120 GROUP BY c.city",
            mart_db,
        )

    def test_left_join_never_reordered(self, mart_db):
        sql = (
            "SELECT c.name, p.name FROM orders AS o "
            "LEFT JOIN customers AS c ON c.id = o.customer_id "
            "JOIN products AS p ON p.id = o.product_id WHERE p.price > 100"
        )
        assert_three_way(sql, mart_db)
        plan = compile_query(parse_sql(sql), mart_db.schema, mart_db,
                             optimize=True)
        assert plan.describe()["join_reorders"] == 0

    def test_topk_order_by_limit(self, mart_db):
        sql = "SELECT name, price FROM products ORDER BY price DESC LIMIT 3"
        assert_three_way(sql, mart_db)
        plan = compile_query(parse_sql(sql), mart_db.schema, mart_db,
                             optimize=True)
        assert plan.describe()["topk_sorts"] == 1


# ----------------------------------------------------------------------
class TestStalePlanHazard:
    def test_insert_between_cached_executions(self, shop_db):
        """A cached plan must see rows inserted after its first execution."""
        clear_plan_caches()
        sql = "SELECT name FROM products WHERE id = 99"
        first = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert first.rows == ()
        shop_db.insert("products", (99, "late", "tools", 1.0))
        second = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert second.rows == (("late",),)
        assert plan_cache_stats()["hits"] >= 1  # same plan object both times

    def test_insert_invalidates_sorted_index_topk(self, shop_db):
        clear_plan_caches()
        sql = "SELECT name FROM products ORDER BY price DESC LIMIT 1"
        first = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert first.rows == (("gadget",),)
        shop_db.insert("products", (50, "deluxe", "tools", 500.0))
        second = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert second.rows == (("deluxe",),)

    def test_stats_refresh_across_variants(self, shop_db):
        # one cached plan, executed against a structurally different copy
        clear_plan_caches()
        sql = "SELECT COUNT(*) FROM sales WHERE quantity >= 3"
        plan = compile_sql(sql, shop_db.schema, shop_db)
        assert plan.run(shop_db).rows == ((3,),)
        variant = shop_db.copy()
        variant.table("sales").replace_rows([(1, 1, 9, "Q9")])
        assert plan.run(variant).rows == ((1,),)


# ----------------------------------------------------------------------
class TestExplainAndCaches:
    def test_explain_estimates_and_actuals(self, mart_db):
        text = explain(
            f"SELECT c.name {_MART_JOIN} WHERE p.price > 150", mart_db
        )
        assert "est_rows=" in text
        assert "actual_rows=" in text
        assert "scan" in text
        assert "-- plan (optimized)" in text

    def test_explain_reports_execution_errors(self, shop_db):
        text = explain("SELECT name + 1 FROM products", shop_db)
        assert "-- execution failed:" in text

    def test_explain_names_correlating_references(self, shop_db):
        text = explain(
            "SELECT name FROM products AS p WHERE EXISTS (SELECT 1 FROM "
            "sales AS s WHERE s.product_id = p.id AND quantity > price)",
            shop_db,
        )
        assert "subquery s0 correlated on p.id, p.price" in text
        hoisted = explain(_SHADOWED_KEY_IN, shop_db)
        assert "subquery s0 hoisted" in hoisted
        assert "correlated" not in hoisted

    def test_explain_cli_names_correlating_references(self, capsys):
        from repro.sql.explain_cli import main as explain_main

        rc = explain_main([
            "SELECT name FROM customers AS c WHERE EXISTS (SELECT 1 FROM "
            "orders AS o WHERE o.customer_id = c.customer_id)"
        ])
        assert rc == 0
        assert "correlated on c.customer_id" in capsys.readouterr().out

    def test_configurable_cache_sizes(self, shop_db):
        clear_plan_caches()
        configure_caches(plan_size=2, parse_size=2)
        try:
            for i in range(5):
                compile_sql(
                    f"SELECT name FROM products WHERE id = {i}",
                    shop_db.schema,
                )
            assert plan_cache_stats()["size"] <= 2
            assert plan_cache_stats()["max_size"] == 2
            assert parse_cache_stats()["size"] <= 2
            assert parse_cache_stats()["misses"] >= 5
        finally:
            configure_caches(plan_size=512, parse_size=2048)
            clear_plan_caches()
