"""Edge-case tests across the substrates."""

import pytest

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.sql.executor import execute
from repro.sql.parser import parse_sql


def run(db, sql):
    return execute(parse_sql(sql), db)


class TestExecutorEdges:
    def test_like_underscore_wildcard(self, shop_db):
        result = run(
            shop_db, "SELECT name FROM products WHERE name LIKE 'g_dget'"
        )
        assert result.rows == (("gadget",),)

    def test_like_escaping_of_regex_chars(self, shop_schema):
        db = Database(schema=shop_schema)
        db.insert("products", (1, "a.b", "x", 1.0))
        db.insert("products", (2, "acb", "x", 1.0))
        result = run(db, "SELECT name FROM products WHERE name LIKE 'a.b'")
        assert result.rows == (("a.b",),)  # dot is literal, not regex

    def test_mixed_int_float_arithmetic(self, shop_db):
        result = run(shop_db, "SELECT 3 + 2.5")
        assert result.rows == ((5.5,),)

    def test_string_concatenation_via_plus(self, shop_db):
        result = run(shop_db, "SELECT 'a' + 'b'")
        assert result.rows == (("ab",),)

    def test_modulo_and_zero(self, shop_db):
        assert run(shop_db, "SELECT 7 % 3").rows == ((1,),)
        assert run(shop_db, "SELECT 7 % 0").rows == ((None,),)

    def test_alias_shadowing_in_correlated_subquery(self, shop_db):
        # inner binding 'p' shadows any outer name; correlation still works
        result = run(
            shop_db,
            "SELECT name FROM products AS p WHERE EXISTS "
            "(SELECT * FROM sales AS p2 WHERE p2.product_id = p.id)",
        )
        assert len(result.rows) == 4

    def test_count_distinct_with_nulls(self, shop_db):
        result = run(shop_db, "SELECT COUNT(DISTINCT price) FROM products")
        assert result.rows == ((3,),)  # NULL excluded

    def test_order_by_expression(self, shop_db):
        result = run(
            shop_db,
            "SELECT name FROM products WHERE price IS NOT NULL "
            "ORDER BY price * -1 ASC",
        )
        assert result.rows[0] == ("gadget",)

    def test_limit_zero(self, shop_db):
        assert run(shop_db, "SELECT name FROM products LIMIT 0").rows == ()

    def test_empty_table_aggregates(self, shop_schema):
        db = Database(schema=shop_schema)
        result = run(
            db, "SELECT COUNT(*), SUM(price), MIN(price) FROM products"
        )
        assert result.rows == ((0, None, None),)

    def test_group_by_null_key(self, shop_schema):
        db = Database(schema=shop_schema)
        db.insert("products", (1, "a", None, 1.0))
        db.insert("products", (2, "b", None, 2.0))
        db.insert("products", (3, "c", "x", 3.0))
        result = run(
            db, "SELECT category, COUNT(*) FROM products GROUP BY category"
        )
        assert (None, 2) in result.rows and ("x", 1) in result.rows

    def test_between_reversed_bounds_empty(self, shop_db):
        result = run(
            shop_db, "SELECT name FROM products WHERE price BETWEEN 10 AND 1"
        )
        assert result.rows == ()

    def test_scalar_subquery_empty_is_null(self, shop_db):
        result = run(
            shop_db,
            "SELECT (SELECT price FROM products WHERE id = 999)",
        )
        assert result.rows == ((None,),)

    def test_union_of_aggregates(self, shop_db):
        result = run(
            shop_db,
            "SELECT COUNT(*) FROM products UNION SELECT COUNT(*) FROM sales",
        )
        assert set(result.rows) == {(4,), (5,)}

    def test_self_join_with_aliases(self, shop_db):
        result = run(
            shop_db,
            "SELECT a.name, b.name FROM products AS a JOIN products AS b "
            "ON a.category = b.category WHERE a.id < b.id",
        )
        assert ("widget", "gadget") in result.rows
        assert ("apple", "bread") in result.rows
        assert len(result.rows) == 2


class TestParserEdges:
    def test_deeply_nested_subqueries(self):
        query = parse_sql(
            "SELECT a FROM t WHERE i IN (SELECT j FROM u WHERE k IN "
            "(SELECT m FROM v WHERE x = 1))"
        )
        from repro.sql.ast import InSubquery

        inner = query.where
        assert isinstance(inner, InSubquery)
        assert isinstance(inner.query.where, InSubquery)

    def test_case_insensitive_keywords_everywhere(self):
        query = parse_sql(
            "sElEcT DiStInCt a FrOm t WhErE a iS nOt NuLl oRdEr By a dEsC"
        )
        assert query.distinct
        assert query.order_by[0].descending

    def test_keyword_like_identifier_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_sql("SELECT select FROM from")

    def test_very_long_in_list(self):
        values = ", ".join(str(i) for i in range(200))
        query = parse_sql(f"SELECT a FROM t WHERE a IN ({values})")
        assert len(query.where.items) == 200

    def test_unicode_string_literal(self):
        query = parse_sql("SELECT a FROM t WHERE b = '北京'")
        assert query.where.right.value == "北京"


class TestSchemaEdges:
    def test_empty_schema_graph(self):
        schema = Schema(db_id="empty", tables=())
        assert schema.graph().number_of_nodes() == 0

    def test_single_column_table(self):
        schema = Schema(
            db_id="tiny",
            tables=(TableSchema("t", (Column("only"),)),),
        )
        schema.validate()
        db = Database(schema=schema)
        db.insert("t", ("v",))
        assert run(db, "SELECT only FROM t").rows == (("v",),)


class TestVQLEdges:
    def test_vql_with_set_operation_sql(self):
        from repro.vis.vql import parse_vql, to_vql

        text = (
            "VISUALIZE BAR SELECT a, COUNT(*) FROM t GROUP BY a UNION "
            "SELECT b, COUNT(*) FROM u GROUP BY b"
        )
        assert to_vql(parse_vql(text)) == text

    def test_vql_trailing_semicolon(self):
        from repro.vis.vql import parse_vql

        vql = parse_vql("VISUALIZE PIE SELECT a, b FROM t;")
        assert vql.chart_type == "pie"


class TestPromptEdges:
    def test_prompt_with_quotes_in_question(self):
        from repro.data.domains import domain_by_name
        from repro.llm.prompts import PromptBuilder, parse_prompt

        schema = domain_by_name("sales").schema
        prompt = PromptBuilder().build(
            "Show products whose name includes 'it''s'?", schema
        )
        parsed = parse_prompt(prompt)
        assert "it''s" in parsed.question

    def test_empty_demonstration_list_omitted(self):
        from repro.data.domains import domain_by_name
        from repro.llm.prompts import PromptBuilder

        schema = domain_by_name("sales").schema
        prompt = PromptBuilder().build("q?", schema, demonstrations=None)
        assert "### Examples:" not in prompt


class TestSystemsEdges:
    def test_knowledge_flows_through_system(self, sales_db):
        from repro.systems import ParsingBasedSystem

        response = ParsingBasedSystem().answer(
            "Display the name of premium products?",
            sales_db,
            knowledge=(
                "Premium products are products whose price is greater "
                "than 500."
            ),
        )
        assert response.kind == "data"
        assert "price > 500" in response.sql

    def test_empty_database_answers_gracefully(self, shop_schema):
        from repro.systems import ParsingBasedSystem

        db = Database(schema=shop_schema)
        response = ParsingBasedSystem().answer(
            "How many products?", db
        )
        assert response.kind == "data"
        assert response.result.rows == ((0,),)
