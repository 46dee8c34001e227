"""Three-way differential tests for the vectorized backend (repro.sql.vector).

The tree-walking interpreter ``execute_reference`` is the oracle; the
row-compiled plan and the vectorized plan must both agree with it — same
columns, rows, ordered-ness, and on failing queries the same error type
and message.  Coverage mirrors ``test_sql_plan``: every gold query from
the generated spider/wikisql/nvbench corpora, a seeded random-query
sweep, plus targeted tests for the batch cache, the explain annotations
and the obs counters.
"""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.errors import SQLError
from repro.sql import vector as vec
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, compile_query, plan_for
from tests.test_plan_shapes import engine_plan

#: (optimize, vectorize) settings every query is checked under
_ENGINE_MODES = ((True, False), (True, True), (False, True))


def assert_three_way_agree(sql: str, db: Database) -> None:
    """Reference vs row-compiled vs vectorized: identical results or errors."""
    query = parse_sql(sql)
    try:
        expected = execute_reference(query, db)
    except SQLError as exc:
        for optimize, vectorize in _ENGINE_MODES:
            plan = compile_query(
                query, db.schema, db, optimize=optimize, vectorize=vectorize
            )
            with pytest.raises(type(exc)) as info:
                plan.run(db)
            assert str(info.value) == str(exc), (sql, optimize, vectorize)
        return
    for optimize, vectorize in _ENGINE_MODES:
        plan = compile_query(
            query, db.schema, db, optimize=optimize, vectorize=vectorize
        )
        got = plan.run(db)
        assert got.columns == expected.columns, (sql, optimize, vectorize)
        assert got.rows == expected.rows, (sql, optimize, vectorize)
        assert got.ordered == expected.ordered, (sql, optimize, vectorize)


def _dataset_differential(dataset) -> int:
    checked = 0
    for split in dataset.splits.values():
        for example in split.examples:
            db = dataset.database(example.db_id)
            assert_three_way_agree(example.sql, db)
            checked += 1
    return checked


# ----------------------------------------------------------------------
# Gold queries from the generated corpora.
class TestGoldQueryDifferential:
    def test_cross_domain_golds(self, tiny_spider):
        assert _dataset_differential(tiny_spider) >= 100

    def test_wikisql_golds(self, tiny_wikisql):
        assert _dataset_differential(tiny_wikisql) >= 100

    def test_nvbench_golds(self, tiny_nvbench):
        assert _dataset_differential(tiny_nvbench) >= 100


# ----------------------------------------------------------------------
# Seeded random queries over the shared shop fixture.
def test_seeded_random_queries_differential(shop_db):
    from tests.test_sql_plan import _random_query

    rng = random.Random(4321)
    for _ in range(250):
        assert_three_way_agree(_random_query(rng), shop_db)


def _typed(rows: list) -> list:
    """Rows with every value tagged by its exact type (``1 == 1.0 == True``
    in Python, but not in a result)."""
    return [tuple((type(v), v) for v in row) for row in rows]


def assert_cached_paths_agree(sql: str, db: Database,
                              row_templates: dict) -> None:
    """Reference vs the *cached* vector plan (``plan_for``) and the row
    plan bound from a shared template (*row_templates*, filled by
    :func:`engine_plan`), compared type-exactly: a plan compiled for one
    query must never answer a different one."""
    query = parse_sql(sql)
    try:
        expected = execute_reference(query, db)
    except SQLError as exc:
        expected = exc
    for vectorize in (False, True):
        if vectorize:
            plan = plan_for(query, db.schema, db)
        else:
            plan = engine_plan(row_templates, query, db, True, False)
        if isinstance(expected, SQLError):
            with pytest.raises(type(expected)) as info:
                plan.run(db)
            assert str(info.value) == str(expected), (sql, vectorize)
            continue
        got = plan.run(db)
        assert got.columns == expected.columns, (sql, vectorize)
        assert _typed(got.rows) == _typed(expected.rows), (sql, vectorize)
        assert got.ordered == expected.ordered, (sql, vectorize)


#: literals Python considers equal but SQL results do not (column name
#: and value type differ)
_TYPED_TWINS = (("1", "1.0", "TRUE"), ("0", "0.0", "FALSE"))


def _with_twin(sql: str, literal: str) -> str:
    """*sql* with *literal* prepended as an unaliased projection item."""
    for prefix in ("SELECT DISTINCT ", "SELECT "):
        if sql.startswith(prefix):
            return prefix + literal + ", " + sql[len(prefix):]
    raise AssertionError(sql)


def test_seeded_typed_literal_twins_differential(shop_db):
    # every random query runs as three typed twins, in a seeded order,
    # through the uncached three-way check and the cached plan path of
    # this one process: a value-keyed cache that conflates 1 / 1.0 / TRUE
    # answers the second twin with the first twin's plan
    from tests.test_sql_plan import _random_query

    clear_plan_caches()
    row_templates: dict = {}
    rng = random.Random(8642)
    for _ in range(60):
        base = _random_query(rng)
        twins = list(rng.choice(_TYPED_TWINS))
        rng.shuffle(twins)
        for literal in twins:
            sql = _with_twin(base, literal)
            assert_three_way_agree(sql, shop_db)
            assert_cached_paths_agree(sql, shop_db, row_templates)


@pytest.mark.parametrize("twins", _TYPED_TWINS)
def test_typed_literals_never_share_a_cached_plan(twins, shop_db):
    # SELECT 1.0 first, then SELECT 1 and SELECT TRUE, all in one process
    # and through the production entry point (plan cache + result cache)
    from repro.sql.executor import execute

    clear_plan_caches()
    row_templates: dict = {}
    for literal in (twins[1], twins[0], twins[2]):
        sql = f"SELECT {literal} FROM products"
        expected = execute_reference(parse_sql(sql), shop_db)
        got = execute(parse_sql(sql), shop_db)
        assert got.columns == expected.columns == (literal.lower(),), sql
        assert _typed(got.rows) == _typed(expected.rows), sql
        assert_cached_paths_agree(sql, shop_db, row_templates)


def test_random_queries_on_generated_database(sales_db):
    table = next(iter(sales_db.tables))
    assert_three_way_agree(f"SELECT COUNT(*) FROM {table}", sales_db)
    assert_three_way_agree(f"SELECT * FROM {table} LIMIT 7", sales_db)


# ----------------------------------------------------------------------
# Targeted semantics the kernels must not get wrong.
class TestKernelSemantics:
    @pytest.mark.parametrize(
        "sql",
        [
            # numeric comparison over a column holding NULL
            "SELECT name FROM products WHERE price > 5",
            # string ranks above numbers in the total order
            "SELECT name FROM products WHERE price < 'zzz'",
            # NOT IN with a NULL member is never TRUE
            "SELECT name FROM products WHERE price NOT IN (1.0, NULL)",
            # BETWEEN with NULL bound
            "SELECT name FROM products WHERE price BETWEEN NULL AND 10",
            "SELECT name FROM products WHERE NOT price BETWEEN 2 AND 10",
            "SELECT name FROM products WHERE name LIKE '%a%' OR price >= 9.5",
            "SELECT category FROM products WHERE price IS NULL",
            # empty-group plain column must raise identically
            "SELECT name, COUNT(*) FROM products WHERE price > 999 "
            "GROUP BY category",
            # aggregate over non-numeric text must raise identically
            "SELECT SUM(name) FROM products",
            # ORDER BY output alias vs recomputed aggregate
            "SELECT category, COUNT(*) AS n FROM products GROUP BY category "
            "ORDER BY n DESC",
            "SELECT category, MIN(price) FROM products GROUP BY category "
            "ORDER BY MIN(price)",
            # DISTINCT aggregate
            "SELECT COUNT(DISTINCT category) FROM products",
            "SELECT AVG(quantity) FROM sales WHERE quarter = 'Q2'",
        ],
    )
    def test_targeted(self, sql, shop_db):
        assert_three_way_agree(sql, shop_db)

    def test_join_with_filter(self, shop_db):
        assert_three_way_agree(
            "SELECT p.name, s.quantity FROM products AS p "
            "JOIN sales AS s ON s.product_id = p.id WHERE p.price > 1",
            shop_db,
        )
        assert_three_way_agree(
            "SELECT p.name, s.quantity FROM products AS p "
            "LEFT JOIN sales AS s ON s.product_id = p.id",
            shop_db,
        )


# ----------------------------------------------------------------------
# Batch cache, explain annotations, counters, toggle.
class TestVectorMachinery:
    def test_column_batch_cached_until_mutation(self, shop_db):
        table = shop_db.table("products")
        original_len = len(table.rows)
        first = vec.column_batch(table)
        names_before = list(first.column(1))
        assert vec.column_batch(table) is first
        table.append((9, "new", "tools", 3.0))
        second = vec.column_batch(table)
        assert second is not first
        assert len(second.rows) == original_len + 1
        assert second.column(1) == names_before + ["new"]

    def test_explain_annotates_vectorized_nodes(self, shop_db):
        plan = compile_query(
            parse_sql("SELECT name FROM products WHERE price > 5"),
            shop_db.schema,
            shop_db,
            optimize=True,
            vectorize=True,
        )
        text = plan.explain(shop_db)
        assert "vectorized=yes" in text
        assert "-- plan (optimized)" in text
        row = compile_query(plan.query, shop_db.schema, shop_db,
                            vectorize=False)
        assert plan.vectorized and not row.vectorized
        assert "vectorized" not in row.explain(shop_db)

    def test_fallback_annotated_and_counted(self, shop_db):
        # arithmetic inside the aggregate is outside the safe kernel subset
        before = vec.FALLBACKS.value
        plan = compile_query(
            parse_sql(
                "SELECT category, SUM(price * 2) FROM products "
                "GROUP BY category"
            ),
            shop_db.schema,
            shop_db,
            optimize=True,
            vectorize=True,
        )
        assert "vectorized=no" in plan.explain(shop_db)
        assert vec.FALLBACKS.value > before

    def test_batches_counter_ticks(self, shop_db):
        before = vec.BATCHES.value
        plan = compile_query(
            parse_sql("SELECT name FROM products WHERE price > 5"),
            shop_db.schema,
            shop_db,
            optimize=True,
            vectorize=True,
        )
        plan.run(shop_db)
        assert vec.BATCHES.value > before
