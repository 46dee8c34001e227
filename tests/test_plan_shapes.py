"""Plans compiled once per query shape and schema structure.

``plan_for`` keys compiled plans by the query's shape (predicate
comparands swapped for typed parameters) and the schema's structural
fingerprint, so queries that differ only in those values, run on
databases of one structure, share one compile.  These tests pin the
fingerprint, what the shape keeps and what it parameterizes, the
per-caller EXPLAIN and span details, and — the oracle — that a plan
compiled on one database with one set of values answers another
database with other values exactly like ``execute_reference``.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.errors import SQLError
from repro.obs import trace as obs_trace
from repro.sql import index as sqlindex
from repro.sql.ast import Literal
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import (
    clear_plan_caches,
    compile_query,
    plan_cache_stats,
    plan_for,
)
from repro.sql.shape import query_entry

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT
NULL = type(None)


def _with_table(schema: Schema, index: int, **changes) -> Schema:
    tables = list(schema.tables)
    tables[index] = dataclasses.replace(tables[index], **changes)
    return dataclasses.replace(schema, tables=tuple(tables))


def _with_column(schema: Schema, table: int, column: int, **changes) -> Schema:
    columns = list(schema.tables[table].columns)
    columns[column] = dataclasses.replace(columns[column], **changes)
    return _with_table(schema, table, columns=tuple(columns))


def _fill(node, values: dict):
    """*node* with each ``'$k'`` string literal replaced by ``values[k]``."""
    if isinstance(node, Literal):
        value = node.value
        if isinstance(value, str) and value.startswith("$"):
            return Literal(values[int(value[1:])])
        return node
    if isinstance(node, tuple):
        return tuple(_fill(item, values) for item in node)
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{
            field.name: _fill(getattr(node, field.name), values)
            for field in dataclasses.fields(node)
        })
    return node


def _outcome(run):
    """A run's result, compared type-exactly, or its error."""
    try:
        result = run()
    except SQLError as exc:
        return ("error", type(exc), str(exc))
    rows = [tuple((type(v), v) for v in row) for row in result.rows]
    return ("ok", tuple(result.columns), rows, result.ordered)


def engine_plan(templates: dict, query, db: Database, optimize: bool,
                vectorize: bool):
    """``plan_for`` under per-call engine flags: the template
    ``compile_query`` built for *query*'s shape and *db*'s structure under
    these flags (compiled on first use and kept in *templates*), bound
    through ``CompiledPlan.bind`` to *query*'s values and *db*'s schema."""
    entry = query_entry(query)
    key = (entry.shape, db.schema.structure, optimize, vectorize)
    template = templates.get(key)
    if template is None:
        template = templates[key] = compile_query(
            query, db.schema, db, optimize, vectorize
        )
    return template.bind(query, db.schema, entry.params)


# ----------------------------------------------------------------------
# the schema structure fingerprint
# ----------------------------------------------------------------------
class TestStructureFingerprint:
    def test_computed_once_and_interned(self, shop_schema):
        assert shop_schema.structure is shop_schema.structure
        twin = dataclasses.replace(shop_schema)
        assert twin is not shop_schema
        assert twin.structure is shop_schema.structure

    def test_equal_across_ids_domains_and_synonyms(self, shop_schema):
        renamed = dataclasses.replace(shop_schema, db_id="other_shop")
        domain = dataclasses.replace(shop_schema, domain="retail")
        table_synonyms = _with_table(shop_schema, 0, synonyms=("items",))
        column_synonyms = _with_column(
            shop_schema, 0, 3, synonyms=("cost", "amount")
        )
        for schema in (renamed, domain, table_synonyms, column_synonyms):
            assert schema.structure is shop_schema.structure

    def test_differs_on_every_structural_change(self, shop_schema):
        products = shop_schema.tables[0]
        swapped = (products.columns[1], products.columns[0]) + products.columns[2:]
        variants = {
            "column type": _with_column(shop_schema, 0, 3, type=TXT),
            "column order": _with_table(shop_schema, 0, columns=swapped),
            "table name": _with_table(shop_schema, 0, name="Products"),
            "column name": _with_column(shop_schema, 0, 1, name="title"),
            "primary key": _with_table(shop_schema, 0, primary_key="name"),
            "no primary key": _with_table(shop_schema, 0, primary_key=None),
            "foreign key": dataclasses.replace(
                shop_schema,
                foreign_keys=(ForeignKey("sales", "id", "products", "id"),),
            ),
            "no foreign key": dataclasses.replace(shop_schema, foreign_keys=()),
        }
        seen = {shop_schema.structure}
        for change, schema in variants.items():
            assert schema.structure is not shop_schema.structure, change
            seen.add(schema.structure)
        assert len(seen) == len(variants) + 1

    def test_structure_keys_the_plan_cache(self, shop_db, shop_schema):
        clear_plan_caches()
        sql = "SELECT name FROM products WHERE price > 3"
        plan_for(parse_sql(sql), shop_schema)
        plan_for(parse_sql(sql), dataclasses.replace(shop_schema, db_id="b"))
        assert plan_cache_stats()["misses"] == 1
        plan_for(parse_sql(sql), _with_column(shop_schema, 0, 3, type=TXT))
        assert plan_cache_stats()["misses"] == 2


# ----------------------------------------------------------------------
# what the shape parameterizes and what it keeps
# ----------------------------------------------------------------------
def _compiles(sqls, schema) -> int:
    clear_plan_caches()
    for sql in sqls:
        plan_for(parse_sql(sql), schema)
    return plan_cache_stats()["misses"]


class TestShapes:
    def test_predicate_values_share_one_compile(self, shop_db):
        clear_plan_caches()
        first = plan_for(parse_sql("SELECT name FROM products WHERE price > 3"),
                         shop_db.schema, shop_db)
        second = plan_for(parse_sql("SELECT name FROM products WHERE price > 9"),
                          shop_db.schema, shop_db)
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["template_hits"]) == (1, 1, 1)
        assert first is not second
        assert (first.params, second.params) == ((3,), (9,))
        assert second.query == parse_sql("SELECT name FROM products WHERE price > 9")
        assert first.run(shop_db).rows == (("widget",), ("gadget",))
        assert second.run(shop_db).rows == (("widget",), ("gadget",))
        assert plan_for(parse_sql("SELECT name FROM products WHERE price > 9"),
                        shop_db.schema, shop_db) is second

    @pytest.mark.parametrize("sqls", [
        # the value's class is part of the shape
        ["SELECT name FROM products WHERE price > 3",
         "SELECT name FROM products WHERE price > 3.0",
         "SELECT name FROM products WHERE price > TRUE",
         "SELECT name FROM products WHERE price > NULL",
         "SELECT name FROM products WHERE price > 'a'"],
        # IN lists of different lengths
        ["SELECT name FROM products WHERE id IN (1, 2)",
         "SELECT name FROM products WHERE id IN (1, 2, 3)"],
        # projection literals, LIMIT and ORDER BY stay in the shape
        ["SELECT name, 1 FROM products", "SELECT name, 2 FROM products"],
        ["SELECT name FROM products LIMIT 1", "SELECT name FROM products LIMIT 2"],
        ["SELECT name FROM products ORDER BY price + 1",
         "SELECT name FROM products ORDER BY price + 2"],
        # arithmetic operands and function arguments in a predicate
        ["SELECT name FROM products WHERE price + 1 > 3",
         "SELECT name FROM products WHERE price + 2 > 3"],
        ["SELECT name FROM products WHERE ROUND(price, 1) > 3",
         "SELECT name FROM products WHERE ROUND(price, 2) > 3"],
        # a bare literal predicate: the compiler folds its truthiness
        ["SELECT name FROM products WHERE 1", "SELECT name FROM products WHERE 0"],
        # a subquery in the projection names a column with its text
        ["SELECT (SELECT COUNT(*) FROM sales WHERE quantity > 2) FROM products",
         "SELECT (SELECT COUNT(*) FROM sales WHERE quantity > 3) FROM products"],
    ])
    def test_kept_literals_split_the_shape(self, sqls, shop_db):
        assert _compiles(sqls, shop_db.schema) == len(sqls)

    @pytest.mark.parametrize("sqls", [
        ["SELECT name FROM products WHERE id IN (1, 2)",
         "SELECT name FROM products WHERE id IN (7, 7)"],
        ["SELECT id FROM products WHERE price BETWEEN 1 AND 5",
         "SELECT id FROM products WHERE price BETWEEN 2 AND 9"],
        ["SELECT name FROM products WHERE name LIKE 'w%'",
         "SELECT name FROM products WHERE name LIKE '%E_'"],
        ["SELECT category FROM products GROUP BY category HAVING COUNT(*) > 1",
         "SELECT category FROM products GROUP BY category HAVING COUNT(*) > 5"],
        ["SELECT p.name FROM products AS p JOIN sales AS s "
         "ON p.id = s.product_id AND s.quantity > 1",
         "SELECT p.name FROM products AS p JOIN sales AS s "
         "ON p.id = s.product_id AND s.quantity > 4"],
        ["SELECT name FROM products WHERE id IN "
         "(SELECT product_id FROM sales WHERE quantity > 2)",
         "SELECT name FROM products WHERE id IN "
         "(SELECT product_id FROM sales WHERE quantity > 3)"],
    ])
    def test_parameterized_values_share_the_shape(self, sqls, shop_db):
        assert _compiles(sqls, shop_db.schema) == 1
        for sql in sqls:
            query = parse_sql(sql)
            got = plan_for(query, shop_db.schema, shop_db).run(shop_db)
            expected = execute_reference(query, shop_db)
            assert (got.columns, got.rows, got.ordered) == (
                expected.columns, expected.rows, expected.ordered
            ), sql

    def test_one_walk_gives_tables_shape_and_values(self):
        entry = query_entry(parse_sql(
            "SELECT p.name, 'x' FROM products AS p JOIN Sales AS s "
            "ON p.id = s.product_id WHERE s.quantity BETWEEN 2 AND 4.5 "
            "AND p.name IN ('a', NULL) ORDER BY 1"
        ))
        assert entry.tables == ("products", "sales")
        assert entry.params == (2, 4.5, "a", None)
        assert query_entry(entry.query) is entry


# ----------------------------------------------------------------------
# EXPLAIN and operator spans show the caller's values
# ----------------------------------------------------------------------
@pytest.fixture
def people_db() -> Database:
    schema = Schema(
        db_id="people",
        tables=(TableSchema(
            "people",
            (Column("id", NUM), Column("name", TXT), Column("age", NUM)),
            primary_key="id",
        ),),
    )
    db = Database(schema=schema)
    for i in range(40):
        db.insert("people", (i, f"p{i}", 20 + i % 30))
    return db


def test_explain_shows_each_callers_values(people_db):
    clear_plan_caches()
    plans = {}
    for age in (30, 40):
        query = parse_sql(f"SELECT name FROM people WHERE age = {age}")
        plans[age] = plan_for(query, people_db.schema, people_db)
    assert plan_cache_stats()["misses"] == 1
    for age, plan in plans.items():
        text = plan.explain(people_db)
        assert f"age = {age}" in text, text
        other = 70 - age
        assert f"age = {other}" not in text, text
        expected = execute_reference(plan.query, people_db)
        assert plan.run(people_db).rows == expected.rows


def test_operator_spans_show_each_callers_values(people_db):
    clear_plan_caches()
    details = {}
    for age in (30, 40):
        query = parse_sql(f"SELECT name FROM people WHERE age = {age}")
        with obs_trace.tracing() as roots:
            execute(query, people_db)
        details[age] = [
            span.attrs.get("detail", "")
            for root in roots
            for span in root.walk()
            if span.name == "sql.op.index-scan"
        ]
    assert plan_cache_stats()["misses"] == 1
    assert details[30] == ["people [age = 30]"]
    assert details[40] == ["people [age = 40]"]


# ----------------------------------------------------------------------
# the shared-plan oracle
# ----------------------------------------------------------------------
KINDS = (NULL, int, float, bool, str)

_STRINGS = ("widget", "Widget", "WIDGET", "food", "Food", "tools", "a", "",
            "zzz", "9", "w%", "W%", "%e%", "_pple", "%", "%O%", "g_d%")


def _values_of(kind):
    if kind is NULL:
        return st.just(None)
    if kind is int:
        return st.integers(-3, 12)
    if kind is float:
        return st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 9.5, math.nan, math.inf]),
            st.floats(-3, 12, allow_nan=False),
        )
    if kind is bool:
        return st.booleans()
    return st.sampled_from(_STRINGS)


#: SQL with '$k' marker slots
TEMPLATES = (
    "SELECT name FROM products WHERE price > '$0'",
    "SELECT name, price FROM products WHERE price = '$0'",
    "SELECT id FROM products WHERE '$0' < price",
    "SELECT id FROM products WHERE '$0' >= price OR name = '$1'",
    "SELECT id FROM products WHERE price <> '$0' AND name < '$1'",
    "SELECT id FROM products WHERE price BETWEEN '$0' AND '$1'",
    "SELECT id FROM products WHERE price NOT BETWEEN '$0' AND '$1'",
    "SELECT name FROM products WHERE price IN ('$0', '$1', '$2')",
    "SELECT name FROM products WHERE name NOT IN ('$0', '$1')",
    "SELECT name FROM products WHERE name LIKE '$0'",
    "SELECT name FROM products WHERE name NOT LIKE '$0' OR price < '$1'",
    "SELECT category, COUNT(*) FROM products GROUP BY category "
    "HAVING COUNT(*) > '$0'",
    "SELECT category, MAX(price) FROM products WHERE price <> '$0' "
    "GROUP BY category ORDER BY category",
    "SELECT p.name, s.quantity FROM products AS p JOIN sales AS s "
    "ON p.id = s.product_id AND s.quantity > '$0'",
    "SELECT p.name FROM products AS p JOIN sales AS s "
    "ON p.id = s.product_id WHERE s.quarter = '$0' ORDER BY p.name",
    "SELECT name FROM products WHERE id IN "
    "(SELECT product_id FROM sales WHERE quantity >= '$0')",
    "SELECT name FROM products AS p WHERE EXISTS (SELECT 1 FROM sales AS s "
    "WHERE s.product_id = p.id AND s.quarter = '$0')",
    "SELECT name FROM products WHERE price > "
    "(SELECT AVG(quantity) FROM sales WHERE quantity < '$0')",
)

_CELLS = st.one_of(
    st.none(), st.integers(-3, 12), st.floats(-3, 12, allow_nan=False),
    st.sampled_from([0.0, -0.0, True, False]), st.sampled_from(_STRINGS),
)


@st.composite
def _database(draw, schema: Schema) -> Database:
    db = Database(schema=schema)
    for i in range(draw(st.integers(0, 40))):
        db.insert("products", (
            draw(st.sampled_from([i, i, None, float(i)])),
            draw(st.sampled_from(_STRINGS + (None,))),
            draw(st.sampled_from(("tools", "food", "Food", None))),
            draw(_CELLS),
        ))
    for i in range(draw(st.integers(0, 12))):
        db.insert("sales", (
            i,
            draw(st.integers(0, 12)),
            draw(st.one_of(st.integers(0, 12), st.just(None), st.just("x"))),
            draw(st.sampled_from(("Q1", "q1", "Q2", None))),
        ))
    return db


@st.composite
def _case(draw):
    sql = draw(st.sampled_from(TEMPLATES))
    slots = sql.count("'$")
    first, second = {}, {}
    same_shape = draw(st.integers(0, 4)) > 0
    for slot in range(slots):
        kind = draw(st.sampled_from(KINDS))
        first[slot] = draw(_values_of(kind))
        if not same_shape:
            kind = draw(st.sampled_from(KINDS))
        second[slot] = draw(_values_of(kind))
    return parse_sql(sql), first, second


def _schema_b(schema: Schema) -> Schema:
    schema = dataclasses.replace(schema, db_id="shop_b", domain="retail")
    return _with_column(schema, 0, 3, synonyms=("cost",))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(), case=_case(),
       engine=st.sampled_from([(True, True), (True, False),
                               (False, True), (False, False)]),
       index_rows=st.sampled_from([1, 32]))
def test_shared_plan_matches_reference(shop_schema, data, case, engine,
                                       index_rows):
    template, first, second = case
    q1, q2 = _fill(template, first), _fill(template, second)
    db_a = data.draw(_database(shop_schema), label="db_a")
    db_b = data.draw(_database(_schema_b(shop_schema)), label="db_b")
    previous = sqlindex.set_min_index_rows(index_rows)
    try:
        clear_plan_caches()
        shared = query_entry(q1).shape == query_entry(q2).shape
        # cold: compile on A with the first values
        plan_a = plan_for(q1, db_a.schema, db_a)
        assert _outcome(lambda: plan_a.run(db_a)) == _outcome(
            lambda: execute_reference(q1, db_a))
        # B, other rows and values: the compile is shared when shapes match
        expected = _outcome(lambda: execute_reference(q2, db_b))
        plan_b = plan_for(q2, db_b.schema, db_b)
        assert plan_cache_stats()["misses"] == (1 if shared else 2)
        assert _outcome(lambda: plan_b.run(db_b)) == expected
        assert _outcome(lambda: plan_b.run_traced(db_b)[0]) == expected
        # warm: the same plan again, then twice through the result cache
        assert plan_for(q2, db_b.schema, db_b) is plan_b
        assert _outcome(lambda: plan_b.run(db_b)) == expected
        assert _outcome(lambda: execute(q2, db_b)) == expected
        assert _outcome(lambda: execute(q2, db_b)) == expected
        # the per-call engine flags: a template compiled on A answers A
        # and, bound to B's schema and values, B
        templates: dict = {}
        flagged_a = engine_plan(templates, q1, db_a, *engine)
        assert _outcome(lambda: flagged_a.run(db_a)) == _outcome(
            lambda: execute_reference(q1, db_a))
        flagged_b = engine_plan(templates, q2, db_b, *engine)
        assert len(templates) == (1 if shared else 2)
        assert _outcome(lambda: flagged_b.run(db_b)) == expected
        assert _outcome(lambda: flagged_b.run_traced(db_b)[0]) == expected
    finally:
        sqlindex.set_min_index_rows(previous)


def test_nan_comparands_follow_the_reference(shop_db):
    # NaN is neither equal to nor ordered against any number; every
    # engine must answer like compare_values, operand order included
    for optimize, vectorize in ((True, True), (True, False), (False, True)):
        templates: dict = {}
        previous = sqlindex.set_min_index_rows(1)
        try:
            for sql in (
                "SELECT id FROM products WHERE price > '$0'",
                "SELECT id FROM products WHERE price >= '$0'",
                "SELECT id FROM products WHERE '$0' > price",
                "SELECT id FROM products WHERE '$0' < price",
                "SELECT id FROM products WHERE price BETWEEN '$0' AND 50",
            ):
                for value in (5.0, math.nan):
                    query = _fill(parse_sql(sql), {0: value})
                    got = engine_plan(templates, query, shop_db, optimize,
                                      vectorize).run(shop_db)
                    expected = execute_reference(query, shop_db)
                    assert got.rows == expected.rows, (sql, value, optimize,
                                                       vectorize)
        finally:
            sqlindex.set_min_index_rows(previous)


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_patterns_stay_apart(order):
    # 0.0 == -0.0 in Python, but LIKE matches the pattern's text, so
    # every AST-keyed cache must keep the two programs apart
    schema = Schema(
        db_id="zeros",
        tables=(TableSchema("t", (Column("n", TXT),)),),
    )
    db = Database(schema=schema)
    for name in ("0.0", "-0.0"):
        db.insert("t", (name,))
    template = parse_sql("SELECT n FROM t WHERE n LIKE '$0'")
    queries = [_fill(template, {0: value}) for value in order]
    assert queries[0] != queries[1]
    assert hash(queries[0]) != hash(queries[1])
    clear_plan_caches()
    templates: dict = {}
    for _ in ("cold", "warm"):
        for query in queries:
            expected = _outcome(lambda: execute_reference(query, db))
            assert _outcome(lambda: execute(query, db)) == expected
            plan = plan_for(query, db.schema, db)
            assert _outcome(lambda: plan.run(db)) == expected
            plan = engine_plan(templates, query, db, False, False)
            assert _outcome(lambda: plan.run(db)) == expected


def test_signed_zero_literals_split_the_kept_shape():
    # a projected literal names its column with its text
    zero = parse_sql("SELECT 0.0 FROM t")
    negative = _fill(parse_sql("SELECT '$0' FROM t"), {0: -0.0})
    assert query_entry(zero).shape != query_entry(negative).shape


def test_shared_plans_under_eight_threads(shop_db, shop_schema):
    # eight threads bind one cached shape to many values and two
    # databases at once, with a plan cache smaller than the shapes in
    # play: every answer must be the reference's, the cache must stay
    # within its bound, and every call counts one hit or one miss
    import sys
    import threading

    from repro.sql.plan import configure_caches

    other = Database(schema=_schema_b(shop_schema))
    for row in ((1, "Widget", "tools", 3), (2, "kiwi", "food", 12.5)):
        other.insert("products", row)
    templates = [
        "SELECT name FROM products WHERE price > {}",
        "SELECT name FROM products WHERE id IN ({}, 2, 4)",
        "SELECT category, COUNT(*) FROM products GROUP BY category "
        "HAVING COUNT(*) >= {}",
    ]
    cases = [
        (parse_sql(template.format(n)), db)
        for template in templates for n in range(6)
        for db in (shop_db, other)
    ]
    expected = {
        id(query): {id(db): execute_reference(query, db).rows
                    for _q, db in cases}
        for query, _db in cases
    }
    rounds, threads = 60, 8
    failures: list = []
    before = plan_cache_stats()["max_size"]
    interval = sys.getswitchinterval()
    configure_caches(plan_size=2)
    clear_plan_caches()
    sys.setswitchinterval(1e-5)

    def work(seed: int) -> None:
        try:
            for step in range(rounds):
                query, db = cases[(seed * 5 + step) % len(cases)]
                plan = plan_for(query, db.schema, db)
                assert plan.run(db).rows == expected[id(query)][id(db)]
                assert plan_cache_stats()["size"] <= 2
        except Exception as exc:  # reported below
            failures.append(exc)

    try:
        workers = [threading.Thread(target=work, args=(seed,))
                   for seed in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        configure_caches(plan_size=before)
    stats = plan_cache_stats()
    clear_plan_caches()
    assert failures == []
    assert stats["hits"] + stats["misses"] == rounds * threads
    assert stats["size"] <= 2
