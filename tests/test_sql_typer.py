"""Static output-schema typer tests: units plus the runtime differential."""

from __future__ import annotations

import gc

import pytest

from repro.sql.executor import execute
from repro.sql.parser import parse_sql
from repro.sql.typer import ColType, infer_output_schema
from repro.sql.unparser import to_sql
from repro.vis.spec import field_type


def infer(sql: str, schema):
    return infer_output_schema(parse_sql(sql), schema)


class TestNames:
    def test_plain_columns(self, shop_schema):
        out = infer("SELECT name, price FROM products", shop_schema)
        assert out.names() == ("name", "price")

    def test_alias_kept_verbatim(self, shop_schema):
        out = infer("SELECT price AS Cost FROM products", shop_schema)
        assert out.names() == ("Cost",)

    def test_expression_name_is_lowered_sql(self, shop_schema):
        out = infer("SELECT Price * 2 FROM products", shop_schema)
        assert out.names() == ("price * 2",)

    def test_star_expands_to_binding_column(self, shop_schema):
        out = infer("SELECT * FROM products", shop_schema)
        assert out.names() == (
            "products.id",
            "products.name",
            "products.category",
            "products.price",
        )
        assert not out.incomplete

    def test_unknown_table_star_is_incomplete(self, shop_schema):
        out = infer("SELECT * FROM mystery", shop_schema)
        assert out.incomplete
        assert out.arity == 0

    def test_set_operation_takes_left_names(self, shop_schema):
        out = infer(
            "SELECT name FROM products UNION "
            "SELECT quarter FROM sales",
            shop_schema,
        )
        assert out.names() == ("name",)


class TestTypes:
    def test_column_types(self, shop_schema):
        out = infer("SELECT name, price FROM products", shop_schema)
        assert out.columns[0].type is ColType.TEXT
        assert out.columns[1].type is ColType.NUMBER

    def test_primary_key_not_nullable(self, shop_schema):
        out = infer("SELECT id, price FROM products", shop_schema)
        assert not out.columns[0].nullable
        assert out.columns[1].nullable

    def test_count_is_non_null_number(self, shop_schema):
        out = infer("SELECT COUNT(*) FROM products", shop_schema)
        assert out.columns[0].type is ColType.NUMBER
        assert not out.columns[0].nullable

    def test_sum_and_avg_are_nullable(self, shop_schema):
        out = infer("SELECT SUM(price), AVG(price) FROM products", shop_schema)
        assert all(c.type is ColType.NUMBER for c in out.columns)
        assert all(c.nullable for c in out.columns)

    def test_min_max_propagate_argument_type(self, shop_schema):
        out = infer("SELECT MIN(name), MAX(price) FROM products", shop_schema)
        assert out.columns[0].type is ColType.TEXT
        assert out.columns[1].type is ColType.NUMBER

    def test_arithmetic_is_number(self, shop_schema):
        out = infer("SELECT price + 1 FROM products", shop_schema)
        assert out.columns[0].type is ColType.NUMBER

    def test_literal_types(self, shop_schema):
        out = infer(
            "SELECT 1, 'word', '2024-03-01', NULL FROM products",
            shop_schema,
        )
        assert [c.type for c in out.columns] == [
            ColType.NUMBER,
            ColType.TEXT,
            ColType.TEMPORAL,
            ColType.NULL,
        ]

    def test_left_join_pads_right_side_nullable(self, shop_schema):
        out = infer(
            "SELECT products.id, sales.id FROM products "
            "LEFT JOIN sales ON products.id = sales.product_id",
            shop_schema,
        )
        # both are primary keys, but the padded side can surface NULL
        assert not out.columns[0].nullable
        assert out.columns[1].nullable

    def test_scalar_subquery_takes_inner_type(self, shop_schema):
        out = infer(
            "SELECT (SELECT MAX(price) FROM products) FROM sales",
            shop_schema,
        )
        assert out.columns[0].type is ColType.NUMBER
        assert out.columns[0].nullable

    def test_set_operation_unifies_types(self, shop_schema):
        same = infer(
            "SELECT name FROM products UNION SELECT category FROM products",
            shop_schema,
        )
        assert same.columns[0].type is ColType.TEXT
        mixed = infer(
            "SELECT price FROM products UNION SELECT name FROM products",
            shop_schema,
        )
        assert mixed.columns[0].type is ColType.UNKNOWN

    def test_set_operation_null_branch_defers(self, shop_schema):
        out = infer(
            "SELECT NULL FROM products UNION SELECT price FROM products",
            shop_schema,
        )
        assert out.columns[0].type is ColType.NUMBER

    def test_unresolvable_column_is_unknown(self, shop_schema):
        out = infer("SELECT mystery FROM products", shop_schema)
        assert out.columns[0].type is ColType.UNKNOWN

    def test_vega_mapping(self):
        assert ColType.NUMBER.vega == "quantitative"
        assert ColType.TEMPORAL.vega == "temporal"
        assert ColType.TEXT.vega == "nominal"
        assert ColType.BOOL.vega == "nominal"
        assert ColType.NULL.vega == "nominal"
        assert ColType.UNKNOWN.vega is None


class TestRuntimeDifferential:
    """Static inference must agree with what execution actually produces.

    For every gold query of the generated corpora: output-column names
    must match the executor's exactly; every statically typed column must
    classify to the same Vega-Lite field type the runtime
    :func:`repro.vis.spec.field_type` assigns (skipping UNKNOWN columns
    and columns with no non-null values, where the runtime defaults to
    nominal without evidence); and a column inferred non-nullable must
    never contain NULL.
    """

    def check(self, query, db) -> None:
        inferred = infer_output_schema(query, db.schema)
        result = execute(query, db)
        if inferred.incomplete:
            return
        assert list(result.columns) == list(inferred.names()), to_sql(query)
        for index, column in enumerate(inferred.columns):
            values = [row[index] for row in result.rows]
            if column.type.vega is None:
                continue
            if not column.nullable:
                assert all(v is not None for v in values), to_sql(query)
            if not any(v is not None for v in values):
                continue
            assert field_type(values) == column.type.vega, (
                to_sql(query),
                column,
            )

    def test_spider_corpus(self, tiny_spider):
        for example in tiny_spider.examples:
            db = tiny_spider.database(example.db_id)
            self.check(parse_sql(example.sql), db)

    def test_wikisql_corpus(self, tiny_wikisql):
        for example in tiny_wikisql.examples:
            db = tiny_wikisql.database(example.db_id)
            self.check(parse_sql(example.sql), db)

    def test_nvbench_corpus(self, tiny_nvbench):
        from repro.vis.vql import parse_vql

        assert tiny_nvbench.examples
        for example in tiny_nvbench.examples:
            db = tiny_nvbench.database(example.db_id)
            self.check(parse_vql(example.vql).query, db)


def test_typing_a_join_leaves_no_cyclic_garbage(shop_schema):
    # every chart turn types its query; a cycle per call would leave
    # the collector to free what reference counting could
    query = parse_sql(
        "SELECT p.name, s.quantity FROM products AS p "
        "LEFT JOIN sales AS s ON p.id = s.product_id"
    )
    gc.collect()
    gc.disable()
    try:
        out = infer_output_schema(query, shop_schema)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out.names() == ("p.name", "s.quantity")
    assert [c.nullable for c in out.columns] == [True, True]
