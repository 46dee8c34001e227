"""Differential tests for the compiled plan engine (repro.sql.plan).

The tree-walking interpreter ``execute_reference`` is the oracle: on every
query the compiled engine must produce an identical result (columns, rows,
ordered-ness) or fail with an identical error.  Coverage comes from three
directions — every gold query emitted by the dataset builders, targeted
operator tests (hash join vs nested loop on NULL join keys), and a seeded
random query generator.
"""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.errors import SQLError
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import (
    clear_plan_caches,
    compile_sql,
    plan_cache_stats,
    plan_for,
)

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT


def assert_engines_agree(sql: str, db: Database):
    """Run *sql* on both engines; assert identical results or errors."""
    query = parse_sql(sql)
    try:
        expected = execute_reference(query, db)
    except SQLError as exc:
        with pytest.raises(type(exc)) as info:
            plan_for(query, db.schema).run(db)
        assert str(info.value) == str(exc), sql
        return None
    got = plan_for(query, db.schema).run(db)
    assert got.columns == expected.columns, sql
    assert got.rows == expected.rows, sql
    assert got.ordered == expected.ordered, sql
    return got


def _dataset_differential(dataset) -> int:
    checked = 0
    for split in dataset.splits.values():
        for example in split.examples:
            db = dataset.database(example.db_id)
            assert_engines_agree(example.sql, db)
            checked += 1
    return checked


# ----------------------------------------------------------------------
# Gold queries from every dataset builder.
class TestGoldQueryDifferential:
    def test_cross_domain_golds(self, tiny_spider):
        assert _dataset_differential(tiny_spider) >= 100

    def test_wikisql_golds(self, tiny_wikisql):
        assert _dataset_differential(tiny_wikisql) >= 100

    def test_nvbench_golds(self, tiny_nvbench):
        assert _dataset_differential(tiny_nvbench) >= 100

    def test_multiturn_golds(self):
        from repro.datasets.multiturn import build_sparc_like

        dataset = build_sparc_like(num_dialogues=25, seed=11)
        assert _dataset_differential(dataset) >= 25

    def test_compositional_golds(self):
        from repro.datasets.composition import build_spider_cg_like

        dataset = build_spider_cg_like(num_examples=60, seed=11)
        assert _dataset_differential(dataset) >= 60

    def test_knowledge_golds(self):
        from repro.datasets.knowledge import build_bird_like

        dataset = build_bird_like(num_examples=60, seed=11)
        assert _dataset_differential(dataset) >= 60


# ----------------------------------------------------------------------
# Hash join vs nested loop on NULL join keys.
@pytest.fixture
def null_key_db() -> Database:
    schema = Schema(
        db_id="nulljoin",
        tables=(
            TableSchema(
                "left_t",
                (Column("id", NUM), Column("k", NUM), Column("tag", TXT)),
                primary_key="id",
            ),
            TableSchema(
                "right_t",
                (Column("id", NUM), Column("k", NUM), Column("val", TXT)),
                primary_key="id",
            ),
        ),
    )
    db = Database(schema=schema)
    for row in ((1, 1, "a"), (2, None, "b"), (3, 2, "c"), (4, None, "d")):
        db.insert("left_t", row)
    for row in ((1, 1, "x"), (2, None, "y"), (3, 3, "z"), (4, None, "w")):
        db.insert("right_t", row)
    return db


class TestJoinStrategies:
    def test_equi_join_uses_hash_join(self, null_key_db):
        plan = compile_sql(
            "SELECT l.tag, r.val FROM left_t AS l JOIN right_t AS r "
            "ON l.k = r.k",
            null_key_db.schema,
        )
        assert plan.describe()["hash_joins"] == 1

    def test_non_equi_join_uses_nested_loop(self, null_key_db):
        plan = compile_sql(
            "SELECT l.tag, r.val FROM left_t AS l JOIN right_t AS r "
            "ON l.k < r.k",
            null_key_db.schema,
        )
        assert plan.describe()["nested_loop_joins"] == 1
        assert plan.describe()["hash_joins"] == 0

    def test_null_keys_never_match_inner(self, null_key_db):
        # SQL three-valued logic: NULL = NULL is unknown, so the two NULL
        # rows on each side must not pair up under the hash join.
        result = assert_engines_agree(
            "SELECT l.tag, r.val FROM left_t AS l JOIN right_t AS r "
            "ON l.k = r.k",
            null_key_db,
        )
        assert result.rows == (("a", "x"),)

    def test_null_keys_left_join_pads(self, null_key_db):
        result = assert_engines_agree(
            "SELECT l.tag, r.val FROM left_t AS l LEFT JOIN right_t AS r "
            "ON l.k = r.k ORDER BY l.id",
            null_key_db,
        )
        assert result.rows == (
            ("a", "x"), ("b", None), ("c", None), ("d", None),
        )

    def test_hash_and_nested_loop_agree_on_same_equi_join(self, null_key_db):
        # The same logical join answered by both physical strategies: the
        # hash path via the plain ON, the nested-loop path by phrasing the
        # equality so the planner cannot classify it as an equi-join.
        hash_result = assert_engines_agree(
            "SELECT l.tag, r.val FROM left_t AS l JOIN right_t AS r "
            "ON l.k = r.k",
            null_key_db,
        )
        nested = compile_sql(
            "SELECT l.tag, r.val FROM left_t AS l JOIN right_t AS r "
            "ON l.k <= r.k AND l.k >= r.k",
            null_key_db.schema,
        )
        assert nested.describe()["hash_joins"] == 0
        assert nested.run(null_key_db).rows == hash_result.rows


# ----------------------------------------------------------------------
# Plan caching and compile-time metadata.
class TestPlanCache:
    def test_same_sql_same_schema_hits(self, shop_db):
        clear_plan_caches()
        sql = "SELECT name FROM products WHERE price > 3"
        first = compile_sql(sql, shop_db.schema)
        second = compile_sql(sql, shop_db.schema)
        assert first is second
        stats = plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_different_schema_misses(self, shop_db, null_key_db):
        clear_plan_caches()
        sql = "SELECT COUNT(*) FROM left_t"
        compile_sql(sql, null_key_db.schema)
        with pytest.raises(SQLError):
            compile_sql(sql, shop_db.schema).run(shop_db)
        assert plan_cache_stats()["misses"] == 2

    def test_execute_routes_through_plan_cache(self, shop_db):
        # an exact repeat is served by the result cache above the planner;
        # two predicate values of one shape each miss it and share a plan
        clear_plan_caches()
        for quantity in (1, 2):
            query = parse_sql(
                f"SELECT COUNT(*) FROM sales WHERE quantity > {quantity}"
            )
            assert execute(query, shop_db) == execute_reference(query, shop_db)
        stats = plan_cache_stats()
        assert stats["hits"] >= 1

    def test_subquery_hoisting_metadata(self, shop_db):
        uncorrelated = compile_sql(
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales WHERE quantity > 2)",
            shop_db.schema,
        )
        assert uncorrelated.describe()["hoisted_subqueries"] == 1
        assert uncorrelated.describe()["correlated_subqueries"] == 0
        correlated = compile_sql(
            "SELECT name FROM products AS p WHERE EXISTS "
            "(SELECT 1 FROM sales AS s WHERE s.product_id = p.id)",
            shop_db.schema,
        )
        assert correlated.describe()["correlated_subqueries"] == 1
        # names the subquery shares with the outer scope resolve inside it
        # (`id` is sales.id; `price` the inner products row) and never
        # reach the outer row
        for sql in (
            "SELECT name FROM products WHERE id IN "
            "(SELECT id FROM sales WHERE quantity > 2)",
            "SELECT name FROM products WHERE price > "
            "(SELECT AVG(price) FROM products)",
        ):
            shadowed = compile_sql(sql, shop_db.schema).describe()
            assert shadowed["hoisted_subqueries"] == 1, sql
            assert shadowed["correlated_subqueries"] == 0, sql

    @pytest.mark.parametrize(
        "item, values",
        [
            ("AVG(price) + price", [None, None, None, None]),  # NULL + x
            ("COUNT(*) + price", [9.5, 19.0, 1.0, None]),  # 0 + outer price
        ],
    )
    def test_empty_group_representative_stays_correlated(
        self, shop_db, item, values
    ):
        # the ungrouped aggregate's group is empty, so the bare `price`
        # falls through to the outer row: a real correlation
        sql = (
            f"SELECT name, (SELECT {item} FROM products WHERE price < 0) "
            "FROM products"
        )
        plan = compile_sql(sql, shop_db.schema)
        assert plan.describe()["correlated_subqueries"] == 1
        assert plan.describe()["hoisted_subqueries"] == 0
        rows = assert_engines_agree(sql, shop_db).rows
        assert [row[1] for row in rows] == values

    def test_filter_pushdown_metadata(self, shop_db):
        plan = compile_sql(
            "SELECT p.name FROM sales AS s JOIN products AS p "
            "ON s.product_id = p.id WHERE p.price > 2 AND s.quantity > 1",
            shop_db.schema,
        )
        assert plan.describe()["pushed_filters"] >= 1


# ----------------------------------------------------------------------
# Corpus-level pin: no generator gold subquery is correlated.
def test_gold_corpus_subqueries_never_correlated():
    """Every subquery the dataset generators emit resolves its column names
    inside its own scope, so each one must compile hoisted (run once per
    query, not once per outer row).  A resolver change that lets a shadowed
    name escape to an outer scope again fails here."""
    from repro.datasets import build_dataset
    from repro.datasets.sql import build_cross_domain
    from repro.sql.plan import compile_query

    corpora = [
        build_dataset("spider_like", scale=0.06, seed=11),
        build_dataset("wikisql_like", scale=0.03, seed=11),
        build_dataset("nvbench_like", scale=0.06, seed=11),
        build_cross_domain(num_examples=400, seed=11),
    ]
    hoisted = 0
    correlated = []
    for dataset in corpora:
        for db_id, sql in sorted({(e.db_id, e.sql) for e in dataset.examples}):
            db = dataset.database(db_id)
            meta = compile_query(parse_sql(sql), db.schema, db).describe()
            hoisted += meta["hoisted_subqueries"]
            if meta["correlated_subqueries"]:
                correlated.append(sql)
    assert correlated == []
    assert hoisted >= 40  # the pin is not vacuous


# ----------------------------------------------------------------------
# Seeded random query generator (hypothesis-style differential fuzzing).
_COLS = {
    "products": ["id", "name", "category", "price"],
    "sales": ["id", "product_id", "quantity", "quarter"],
}
_NUM_COLS = {
    "products": ["id", "price"],
    "sales": ["id", "product_id", "quantity"],
}
_AGGS = ["COUNT", "SUM", "AVG", "MIN", "MAX"]
_CMPS = ["=", "<>", "<", "<=", ">", ">="]


def _random_predicate(rng: random.Random, table: str, prefix: str) -> str:
    kind = rng.randrange(5)
    col = f"{prefix}{rng.choice(_COLS[table])}"
    num_col = f"{prefix}{rng.choice(_NUM_COLS[table])}"
    if kind == 0:
        return f"{num_col} {rng.choice(_CMPS)} {rng.randrange(-2, 12)}"
    if kind == 1:
        return f"{col} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if kind == 2:
        return f"{num_col} BETWEEN {rng.randrange(0, 4)} AND {rng.randrange(4, 12)}"
    if kind == 3:
        return f"{num_col} IN ({rng.randrange(0, 4)}, {rng.randrange(0, 8)}, NULL)"
    return f"{prefix}{'name' if table == 'products' else 'quarter'} LIKE '%{rng.choice('aeq12')}%'"


def _random_query(rng: random.Random) -> str:
    use_join = rng.random() < 0.4
    if use_join:
        join_kind = rng.choice(["JOIN", "LEFT JOIN"])
        from_clause = (
            f"FROM products AS p {join_kind} sales AS s ON s.product_id = p.id"
        )
        table, prefix = rng.choice([("products", "p."), ("sales", "s.")])
    else:
        table = rng.choice(["products", "sales"])
        from_clause, prefix = f"FROM {table}", ""
    group_by = rng.random() < 0.3
    if group_by:
        group_col = f"{prefix}{rng.choice(_COLS[table])}"
        agg = rng.choice(_AGGS)
        agg_arg = "*" if agg == "COUNT" else f"{prefix}{rng.choice(_NUM_COLS[table])}"
        select = f"SELECT {group_col}, {agg}({agg_arg}) AS m"
        tail = f" GROUP BY {group_col}"
        if rng.random() < 0.5:
            tail += f" HAVING {agg}({agg_arg}) {rng.choice(_CMPS)} {rng.randrange(0, 6)}"
        if rng.random() < 0.5:
            tail += f" ORDER BY m {rng.choice(['ASC', 'DESC'])}"
    else:
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        cols = rng.sample(_COLS[table], k=rng.randrange(1, 3))
        select = f"SELECT {distinct}" + ", ".join(f"{prefix}{c}" for c in cols)
        tail = ""
        if rng.random() < 0.5:
            tail += f" ORDER BY {prefix}{rng.choice(_COLS[table])} {rng.choice(['ASC', 'DESC'])}"
    where = ""
    if rng.random() < 0.7:
        preds = [
            _random_predicate(rng, table, prefix)
            for _ in range(rng.randrange(1, 3))
        ]
        where = " WHERE " + f" {rng.choice(['AND', 'OR'])} ".join(preds)
    limit = f" LIMIT {rng.randrange(1, 5)}" if rng.random() < 0.3 else ""
    return f"{select} {from_clause}{where}{tail}{limit}"


def test_seeded_random_queries_differential(shop_db):
    rng = random.Random(1234)
    for _ in range(250):
        assert_engines_agree(_random_query(rng), shop_db)


def test_random_queries_on_generated_database(sales_db):
    # Same generator, bigger generated database: exercise result sizes the
    # four-row shop fixture cannot.
    table = next(iter(sales_db.tables))
    assert_engines_agree(f"SELECT COUNT(*) FROM {table}", sales_db)
    assert_engines_agree(f"SELECT * FROM {table} LIMIT 7", sales_db)
