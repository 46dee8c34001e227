"""Executor semantics tests: SQL behaviour on the shop database.

Every query here runs on BOTH engines — the compiled plan engine behind
``execute`` and the reference interpreter ``execute_reference`` — and the
helper asserts they agree (same result, or same error type and message)
before handing the compiled result to the test.  Each assertion below is
therefore also a differential test.
"""

import pytest

from repro.errors import ExecutionError, SQLError
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql


def run(db, sql):
    query = parse_sql(sql)
    try:
        compiled = execute(query, db)
    except SQLError as exc:
        with pytest.raises(type(exc)) as ref_info:
            execute_reference(query, db)
        assert str(ref_info.value) == str(exc)
        raise
    reference = execute_reference(query, db)
    assert compiled.columns == reference.columns
    assert compiled.rows == reference.rows
    assert compiled.ordered == reference.ordered
    return compiled


class TestProjectionAndFilter:
    def test_select_column(self, shop_db):
        result = run(shop_db, "SELECT name FROM products")
        assert result.rows == (
            ("widget",), ("gadget",), ("apple",), ("bread",),
        )

    def test_select_star_expands(self, shop_db):
        result = run(shop_db, "SELECT * FROM products")
        assert len(result.columns) == 4
        assert result.rows[0] == (1, "widget", "tools", 9.5)

    def test_where_filters(self, shop_db):
        result = run(shop_db, "SELECT name FROM products WHERE price > 5")
        assert result.rows == (("widget",), ("gadget",))

    def test_where_string_equality(self, shop_db):
        result = run(
            shop_db, "SELECT name FROM products WHERE category = 'food'"
        )
        assert result.rows == (("apple",), ("bread",))

    def test_like_case_insensitive(self, shop_db):
        result = run(shop_db, "SELECT name FROM products WHERE name LIKE '%GET%'")
        assert result.rows == (("widget",), ("gadget",))

    def test_between(self, shop_db):
        result = run(
            shop_db, "SELECT name FROM products WHERE price BETWEEN 1 AND 10"
        )
        assert result.rows == (("widget",), ("apple",))

    def test_in_list(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products WHERE category IN ('tools', 'toys')",
        )
        assert result.rows == (("widget",), ("gadget",))

    def test_arithmetic_in_projection(self, shop_db):
        result = run(shop_db, "SELECT price * 2 FROM products WHERE id = 1")
        assert result.rows == ((19.0,),)

    def test_distinct(self, shop_db):
        result = run(shop_db, "SELECT DISTINCT category FROM products")
        assert result.rows == (("tools",), ("food",))

    def test_limit(self, shop_db):
        result = run(shop_db, "SELECT name FROM products LIMIT 2")
        assert len(result.rows) == 2


class TestNullSemantics:
    def test_null_comparison_filters_out(self, shop_db):
        # bread has NULL price: excluded by both > and <=
        above = run(shop_db, "SELECT name FROM products WHERE price > 0")
        below = run(shop_db, "SELECT name FROM products WHERE price <= 0")
        names = {r[0] for r in above.rows} | {r[0] for r in below.rows}
        assert "bread" not in names

    def test_is_null(self, shop_db):
        result = run(shop_db, "SELECT name FROM products WHERE price IS NULL")
        assert result.rows == (("bread",),)

    def test_is_not_null(self, shop_db):
        result = run(
            shop_db, "SELECT COUNT(*) FROM products WHERE price IS NOT NULL"
        )
        assert result.rows == ((3,),)

    def test_count_column_skips_nulls(self, shop_db):
        result = run(shop_db, "SELECT COUNT(price), COUNT(*) FROM products")
        assert result.rows == ((3, 4),)

    def test_aggregate_skips_nulls(self, shop_db):
        result = run(shop_db, "SELECT AVG(price) FROM products")
        assert result.rows[0][0] == pytest.approx((9.5 + 19.0 + 1.0) / 3)

    def test_sum_of_empty_group_is_null(self, shop_db):
        result = run(
            shop_db, "SELECT SUM(price) FROM products WHERE id > 100"
        )
        assert result.rows == ((None,),)

    def test_count_of_empty_group_is_zero(self, shop_db):
        result = run(shop_db, "SELECT COUNT(*) FROM products WHERE id > 100")
        assert result.rows == ((0,),)

    def test_nulls_sort_first_ascending(self, shop_db):
        result = run(shop_db, "SELECT name, price FROM products ORDER BY price")
        assert result.rows[0] == ("bread", None)

    def test_division_by_zero_is_null(self, shop_db):
        result = run(shop_db, "SELECT 1 / 0")
        assert result.rows == ((None,),)

    def test_not_null_is_null(self, shop_db):
        result = run(
            shop_db, "SELECT name FROM products WHERE NOT price > 0"
        )
        assert result.rows == ()  # NULL stays NULL under NOT


class TestAggregation:
    def test_group_by_count(self, shop_db):
        result = run(
            shop_db,
            "SELECT category, COUNT(*) FROM products GROUP BY category",
        )
        assert result.rows == (("tools", 2), ("food", 2))

    def test_group_by_preserves_first_seen_order(self, shop_db):
        result = run(
            shop_db, "SELECT quarter, COUNT(*) FROM sales GROUP BY quarter"
        )
        assert result.rows == (("Q1", 2), ("Q2", 3))

    def test_having(self, shop_db):
        result = run(
            shop_db,
            "SELECT quarter, COUNT(*) FROM sales GROUP BY quarter "
            "HAVING COUNT(*) > 2",
        )
        assert result.rows == (("Q2", 3),)

    def test_min_max(self, shop_db):
        result = run(shop_db, "SELECT MIN(price), MAX(price) FROM products")
        assert result.rows == ((1.0, 19.0),)

    def test_count_distinct(self, shop_db):
        result = run(shop_db, "SELECT COUNT(DISTINCT category) FROM products")
        assert result.rows == ((2,),)

    def test_aggregate_without_group_on_whole_table(self, shop_db):
        result = run(shop_db, "SELECT SUM(quantity) FROM sales")
        assert result.rows == ((21,),)

    def test_group_ordering_by_aggregate_alias(self, shop_db):
        result = run(
            shop_db,
            "SELECT quarter, COUNT(*) AS n FROM sales GROUP BY quarter "
            "ORDER BY n DESC",
        )
        assert result.rows == (("Q2", 3), ("Q1", 2))


class TestJoins:
    def test_inner_join(self, shop_db):
        result = run(
            shop_db,
            "SELECT p.name, s.quantity FROM sales AS s JOIN products AS p "
            "ON s.product_id = p.id WHERE s.quarter = 'Q1'",
        )
        assert result.rows == (("widget", 3), ("gadget", 1))

    def test_left_join_keeps_unmatched(self, shop_schema):
        from repro.data.database import Database

        db = Database(schema=shop_schema)
        db.insert("products", (1, "lonely", "misc", 5.0))
        result = run(
            db,
            "SELECT p.name, s.quantity FROM products AS p LEFT JOIN sales "
            "AS s ON s.product_id = p.id",
        )
        assert result.rows == (("lonely", None),)

    def test_left_join_empty_right_table_null_pads_full_schema(
        self, shop_schema
    ):
        # Regression: the null pad must come from the right table's schema,
        # not from a sample row — an empty right table has no sample row.
        from repro.data.database import Database

        db = Database(schema=shop_schema)
        db.insert("products", (1, "lonely", "misc", 5.0))
        db.insert("products", (2, "solo", "misc", 7.0))
        result = run(
            db,
            "SELECT * FROM products AS p LEFT JOIN sales AS s "
            "ON s.product_id = p.id",
        )
        sales_width = len(shop_schema.table("sales").columns)
        products_width = len(shop_schema.table("products").columns)
        assert result.columns[products_width:] == tuple(
            f"s.{c.name}" for c in shop_schema.table("sales").columns
        )
        assert result.rows == (
            (1, "lonely", "misc", 5.0) + (None,) * sales_width,
            (2, "solo", "misc", 7.0) + (None,) * sales_width,
        )

    def test_join_aggregate(self, shop_db):
        result = run(
            shop_db,
            "SELECT p.category, SUM(s.quantity) FROM sales AS s JOIN "
            "products AS p ON s.product_id = p.id GROUP BY p.category",
        )
        assert dict(result.rows) == {"tools": 6, "food": 15}

    def test_ambiguous_column_raises(self, shop_db):
        with pytest.raises(ExecutionError):
            run(
                shop_db,
                "SELECT id FROM sales JOIN products ON "
                "sales.product_id = products.id",
            )


class TestSubqueries:
    def test_in_subquery(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales WHERE quantity > 4)",
        )
        assert result.rows == (("apple",), ("bread",))

    def test_correlated_exists(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products AS p WHERE EXISTS "
            "(SELECT * FROM sales AS s WHERE s.product_id = p.id "
            "AND s.quantity > 4)",
        )
        assert result.rows == (("apple",), ("bread",))

    def test_scalar_subquery_average(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products WHERE price > "
            "(SELECT AVG(price) FROM products)",
        )
        assert result.rows == (("gadget",),)

    def test_in_subquery_with_null_no_match_is_unknown(self, shop_schema):
        from repro.data.database import Database

        db = Database(schema=shop_schema)
        db.insert("products", (1, "a", "x", 1.0))
        db.insert("sales", (1, None, 2, "Q1"))
        result = run(
            db,
            "SELECT name FROM products WHERE id NOT IN "
            "(SELECT product_id FROM sales)",
        )
        assert result.rows == ()  # NOT IN over a NULL-containing set


class TestSetOperations:
    def test_union_distinct(self, shop_db):
        result = run(
            shop_db,
            "SELECT category FROM products UNION SELECT category "
            "FROM products",
        )
        assert result.rows == (("tools",), ("food",))

    def test_union_all_keeps_duplicates(self, shop_db):
        result = run(
            shop_db,
            "SELECT category FROM products UNION ALL SELECT category "
            "FROM products",
        )
        assert len(result.rows) == 8

    def test_intersect(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products WHERE price > 5 INTERSECT "
            "SELECT name FROM products WHERE category = 'tools'",
        )
        assert result.rows == (("widget",), ("gadget",))

    def test_except(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products EXCEPT SELECT name FROM products "
            "WHERE category = 'food'",
        )
        assert result.rows == (("widget",), ("gadget",))

    def test_arity_mismatch_raises(self, shop_db):
        with pytest.raises(ExecutionError):
            run(shop_db, "SELECT a, b FROM products UNION SELECT name FROM products")


class TestOrdering:
    def test_order_desc_limit(self, shop_db):
        result = run(
            shop_db, "SELECT name FROM products ORDER BY price DESC LIMIT 2"
        )
        assert result.rows == (("gadget",), ("widget",))

    def test_multi_key_sort_stable(self, shop_db):
        result = run(
            shop_db,
            "SELECT category, name FROM products ORDER BY category ASC, "
            "name ASC",
        )
        assert result.rows == (
            ("food", "apple"), ("food", "bread"),
            ("tools", "gadget"), ("tools", "widget"),
        )

    def test_result_ordered_flag(self, shop_db):
        assert run(shop_db, "SELECT name FROM products ORDER BY name").ordered
        assert not run(shop_db, "SELECT name FROM products").ordered


class TestScalarFunctions:
    def test_upper_lower_length(self, shop_db):
        result = run(
            shop_db,
            "SELECT upper(name), lower(category), length(name) "
            "FROM products WHERE id = 1",
        )
        assert result.rows == (("WIDGET", "tools", 6),)

    def test_abs_round(self, shop_db):
        result = run(shop_db, "SELECT abs(-3), round(2.567, 1)")
        assert result.rows == ((3, 2.6),)

    def test_unknown_function_raises(self, shop_db):
        with pytest.raises(ExecutionError):
            run(shop_db, "SELECT frobnicate(name) FROM products")


class TestErrors:
    def test_unknown_table(self, shop_db):
        from repro.errors import SQLError

        with pytest.raises(SQLError):
            run(shop_db, "SELECT a FROM missing")

    def test_unknown_column(self, shop_db):
        with pytest.raises(ExecutionError):
            run(shop_db, "SELECT missing FROM products")

    def test_aggregate_in_where_raises(self, shop_db):
        with pytest.raises(ExecutionError):
            run(shop_db, "SELECT name FROM products WHERE COUNT(*) > 1")
