"""Versioned result cache tests.

Three layers: equivalent spellings as a metamorphic oracle (each pair
agrees on every engine, cold and warm, with one entry per distinct AST),
the cache proper (exact AST keys, hits, version-stamped invalidation,
cost-aware eviction, error caching, shared immutable results), and
the consumers that ride it (metric gold caches, pipeline turn memo,
interactive sessions).  The staleness property test interleaves mutations
with cached reads across all three engines against the uncached reference
oracle.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.errors import SQLError
from repro.sql import shape as sql_shape
from repro.sql import rescache
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import (
    clear_plan_caches,
    compile_query,
    configure_caches,
    explain,
)
from repro.sql.unparser import to_sql
from tests.test_plan_shapes import engine_plan


def _snap(result):
    return (tuple(result.columns), tuple(result.rows), result.ordered)


@pytest.fixture
def small_budget():
    """Shrink the cache budget for a test; restore afterwards."""
    before = rescache.rescache_stats()["max_bytes"]

    def set_budget(n: int) -> None:
        rescache.configure_result_cache(n)

    yield set_budget
    rescache.configure_result_cache(before)
    rescache.clear_result_cache()


# ----------------------------------------------------------------------
# equivalent spellings (metamorphic oracle)
# ----------------------------------------------------------------------
EQUIVALENT_PAIRS = [
    # whitespace / keyword case
    ("select name from products", "SELECT   name\nFROM products"),
    # commuted equality and flipped comparison
    (
        "SELECT name FROM products WHERE price > 5",
        "SELECT name FROM products WHERE 5 < price",
    ),
    # reordered AND operands
    (
        "SELECT name FROM products WHERE price > 5 AND category = 'tools'",
        "SELECT name FROM products WHERE category = 'tools' AND price > 5",
    ),
    # reordered IN-list with a duplicate item
    (
        "SELECT name FROM products WHERE category IN ('tools', 'food')",
        "SELECT name FROM products WHERE category IN ('food', 'tools', 'food')",
    ),
    # alias renaming (output name pinned: an unaliased qualified ref
    # keeps the qualifier in the result's column name)
    (
        "SELECT p.name AS name FROM products AS p WHERE p.price > 5",
        "SELECT q.name AS name FROM products AS q WHERE q.price > 5",
    ),
    # alias renaming in a join, plus commuted join condition
    (
        "SELECT a.name AS name FROM products AS a JOIN sales AS b "
        "ON a.id = b.product_id",
        "SELECT x.name AS name FROM products AS x JOIN sales "
        "ON sales.product_id = x.id",
    ),
]


def _mask_timings(text: str) -> str:
    return re.sub(r"time_ms=[0-9.]+", "time_ms=*", text)


class TestEquivalentSpellings:
    """Each pair spells one query two ways.  The cache key is the exact
    AST, so the spellings share an entry only when they parse to one
    AST, yet they must agree on every engine, cold and warm."""

    @pytest.mark.parametrize("a,b", EQUIVALENT_PAIRS)
    def test_pair_agrees_on_every_engine_cold_and_warm(self, a, b, shop_db):
        qa, qb = parse_sql(a), parse_sql(b)
        expected = _snap(execute_reference(qa, shop_db))
        assert _snap(execute_reference(qb, shop_db)) == expected
        rescache.clear_result_cache()
        for _ in range(2):  # cold, then warm
            for query in (qa, qb):
                assert _snap(execute(query, shop_db)) == expected
        stats = rescache.rescache_stats()
        # one entry per distinct AST: keyword case and whitespace
        # parse to one AST, every other pair makes two entries
        distinct = len({qa, qb})
        assert stats["entries"] == distinct
        assert stats["misses"] == distinct
        assert stats["hits"] == 4 - distinct
        for optimize in (False, True):
            for vectorize in (False, True):
                for query in (qa, qb):
                    plan = compile_query(query, shop_db.schema, shop_db,
                                         optimize, vectorize)
                    assert _snap(plan.run(shop_db)) == expected, (
                        query, optimize, vectorize)


class TestExplain:
    def test_explain_has_no_cache_key_footer(self, shop_db):
        sql = "SELECT p.name FROM products AS p WHERE 5 < p.price"
        text = explain(sql, shop_db)
        assert "result cache" not in text
        plan = compile_query(parse_sql(sql), shop_db.schema, shop_db)
        assert _mask_timings(text) == _mask_timings(plan.explain(shop_db))
        assert "scan products" in text.splitlines()[-1]


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
class TestResultCache:
    def test_repeat_hits(self, shop_db):
        q = parse_sql("SELECT name FROM products WHERE price > 5")
        first = execute(q, shop_db)
        second = execute(q, shop_db)
        assert _snap(first) == _snap(second)
        stats = rescache.rescache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_two_spellings_are_two_entries(self, shop_db):
        # a commuted predicate and a renamed alias: same rows, own entries
        results = [
            execute(parse_sql(sql), shop_db)
            for sql in (
                "SELECT p.name AS name FROM products AS p "
                "WHERE p.price > 5 AND p.category = 'tools'",
                "SELECT q.name AS name FROM products AS q "
                "WHERE q.category = 'tools' AND 5 < q.price",
            )
        ]
        assert results[0].rows
        assert _snap(results[0]) == _snap(results[1])
        stats = rescache.rescache_stats()
        assert stats["entries"] == 2
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_fresh_equal_ast_hits_the_interned_key(self, shop_db):
        sql = (
            "SELECT category, COUNT(*) FROM products GROUP BY category "
            "ORDER BY COUNT(*) DESC LIMIT 2"
        )
        first, second = parse_sql(sql), parse_sql(sql)
        assert first is not second
        stored = execute(first, shop_db)
        assert execute(second, shop_db) is stored
        assert rescache.rescache_stats()["hits"] == 1
        # the stored key and the query entry both hold the first AST, so a
        # probe with a fresh AST compares keys by identity, not tree by tree
        (key,) = rescache._CACHE
        assert key[0] is first
        assert sql_shape._QUERY_ENTRIES[second].query is first

    def test_peek_never_serves_a_cached_error(self, shop_db):
        q = parse_sql("SELECT id + name FROM products")
        with pytest.raises(SQLError) as first:
            execute(q, shop_db)
        assert rescache.rescache_stats()["entries"] == 1
        assert rescache.peek(q, shop_db) is None
        with pytest.raises(type(first.value)) as again:
            rescache.cached_execute(q, shop_db)
        assert str(again.value) == str(first.value)
        assert rescache.rescache_stats()["hits"] == 1

    def test_hit_returns_shared_immutable_result(self, shop_db):
        q = parse_sql("SELECT name FROM products")
        first = execute(q, shop_db)
        with pytest.raises(AttributeError):
            first.rows.clear()
        with pytest.raises(AttributeError):
            first.columns.append("junk")
        with pytest.raises(AttributeError):
            first.rows = ()
        second = execute(q, shop_db)
        assert second is first
        assert second.rows and second.columns == ("name",)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda db: db.table("products").append((9, "new", "tools", 2.0)),
            lambda db: db.table("products").replace_rows(
                list(db.table("products").rows[:-1])
            ),
            lambda db: db.table("products").invalidate_caches(),
        ],
        ids=["append", "replace_rows", "invalidate_caches"],
    )
    def test_mutation_misses(self, shop_db, mutate):
        q = parse_sql("SELECT COUNT(*) FROM products")
        execute(q, shop_db)
        mutate(shop_db)
        fresh = execute(q, shop_db)
        stats = rescache.rescache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert _snap(fresh) == _snap(execute_reference(q, shop_db))

    def test_distinct_databases_do_not_share(self, shop_db):
        twin = shop_db.copy()
        q = parse_sql("SELECT name FROM products")
        execute(q, shop_db)
        execute(q, twin)
        stats = rescache.rescache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_errors_cache_and_reraise(self, shop_db):
        q = parse_sql("SELECT id + name FROM products")
        with pytest.raises(SQLError) as first:
            execute(q, shop_db)
        with pytest.raises(SQLError) as second:
            execute(q, shop_db)
        assert str(first.value) == str(second.value)
        stats = rescache.rescache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_missing_table_bypasses_cache(self, shop_db):
        q = parse_sql("SELECT x FROM nonexistent")
        for _ in range(2):
            with pytest.raises(SQLError):
                execute(q, shop_db)
        stats = rescache.rescache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_missing_table_returns_error_value(self, shop_db):
        # execute_or_error must never raise — the metric gold paths rely
        # on failures (including missing-table analysis errors, which
        # bypass the cache) coming back as values
        q = parse_sql("SELECT x FROM nonexistent")
        value, hit = rescache.execute_or_error(q, shop_db)
        assert isinstance(value, SQLError) and not hit
        assert rescache.rescache_stats()["entries"] == 0

    def test_cached_errors_are_distinct_instances(self, shop_db):
        # every hit re-raises a fresh clone: raising a shared instance
        # would rewrite its __traceback__ across threads and pin the
        # original execution frames in the cache
        q = parse_sql("SELECT id + name FROM products")
        with pytest.raises(SQLError) as first:
            execute(q, shop_db)
        with pytest.raises(SQLError) as second:
            execute(q, shop_db)
        with pytest.raises(SQLError) as third:
            execute(q, shop_db)
        assert second.value is not first.value
        assert third.value is not second.value
        assert type(second.value) is type(first.value)
        assert second.value.args == first.value.args

    def test_tracing_bypasses_cache(self, shop_db):
        from repro.obs import trace as obs_trace

        q = parse_sql("SELECT name FROM products")
        with obs_trace.tracing():
            execute(q, shop_db)
            execute(q, shop_db)
        stats = rescache.rescache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_eviction_under_budget(self, shop_db, small_budget):
        small_budget(2000)
        for i in range(20):
            execute(
                parse_sql(f"SELECT name, price FROM products WHERE id <> {i}"),
                shop_db,
            )
        stats = rescache.rescache_stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["evictions"] > 0
        assert 0 < stats["entries"] < 20

    def test_oversize_result_returned_not_stored(self, shop_db, small_budget):
        small_budget(32)
        result = execute(parse_sql("SELECT * FROM products"), shop_db)
        assert result.rows
        stats = rescache.rescache_stats()
        assert stats["oversize"] == 1 and stats["entries"] == 0

    def test_clear_plan_caches_covers_result_cache(self, shop_db):
        execute(parse_sql("SELECT name FROM products"), shop_db)
        assert rescache.rescache_stats()["entries"] == 1
        clear_plan_caches()
        assert rescache.rescache_stats()["entries"] == 0

    def test_configure_caches_routes_budget(self, shop_db, small_budget):
        small_budget(10_000)  # register restore
        configure_caches(result_bytes=4321)
        assert rescache.rescache_stats()["max_bytes"] == 4321


class TestKeyMemo:
    """The per-query entries that result keys and plan lookups share are
    keyed by AST value, bounded, clearable."""

    def test_equal_asts_share_one_entry(self, shop_db):
        sql = "SELECT name FROM products WHERE price > 5"
        first, second = parse_sql(sql), parse_sql(sql)
        assert first is not second
        execute(first, shop_db)
        execute(second, shop_db)
        entries = sql_shape._QUERY_ENTRIES
        assert len(entries) == 1
        # the fresh AST found the entry keyed by the first one
        assert first in entries and second in entries
        assert entries[second].tables == ("products",)

    def test_typed_literals_get_their_own_keys(self, shop_db):
        for literal in ("1", "1.0", "TRUE"):
            execute(parse_sql(f"SELECT {literal} FROM products"), shop_db)
        assert len(sql_shape._QUERY_ENTRIES) == 3

    def test_clear_result_cache_empties_memo(self, shop_db):
        execute(parse_sql("SELECT name FROM products"), shop_db)
        assert sql_shape._QUERY_ENTRIES
        rescache.clear_result_cache()
        assert not sql_shape._QUERY_ENTRIES
        execute(parse_sql("SELECT name FROM products"), shop_db)
        clear_plan_caches()
        assert not sql_shape._QUERY_ENTRIES

    def test_bound_holds_under_long_replay(self, shop_db):
        entries = sql_shape._QUERY_ENTRIES
        bound = sql_shape._QUERY_ENTRIES_MAX
        for _ in range(2):
            for i in range(bound + 200):
                execute(
                    parse_sql(f"SELECT name FROM products WHERE id > {i}"),
                    shop_db,
                )
                assert len(entries) <= bound
        assert len(entries) == bound
        # oldest-first eviction: the newest query is resident, the
        # oldest is not
        newest = parse_sql(f"SELECT name FROM products WHERE id > {bound + 199}")
        oldest = parse_sql("SELECT name FROM products WHERE id > 0")
        assert newest in entries
        assert oldest not in entries


# ----------------------------------------------------------------------
# consumers
# ----------------------------------------------------------------------
class TestConsumers:
    def test_gold_cache_rides_rescache(self, shop_db):
        from repro.metrics.execution import execution_match

        gold = "SELECT name FROM products WHERE price > 5"
        for predicted in (
            "SELECT name FROM products WHERE 5 < price",
            "SELECT name FROM products WHERE price > 5.0",
            gold,
        ):
            assert execution_match(predicted, gold, shop_db)
        from repro.obs import metrics as obs_metrics

        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot["repro.metrics.execution.gold_cache.hits"] >= 2
        assert rescache.rescache_stats()["hits"] >= 2

    def test_test_suite_match_still_correct(self, shop_db):
        from repro.metrics.test_suite import test_suite_match

        gold = "SELECT name FROM products WHERE price > 5"
        assert test_suite_match(gold, gold, shop_db, num_variants=4)
        assert not test_suite_match(
            "SELECT name FROM products WHERE price > 500", gold, shop_db,
            num_variants=4,
        )

    def test_pipeline_turn_memo(self, shop_db):
        from repro import NaturalLanguageInterface

        pipeline = NaturalLanguageInterface(shop_db).pipeline
        question = "Show the name of products?"
        first = pipeline.run(question, shop_db)
        second = pipeline.run(question, shop_db)
        assert first.succeeded and second.succeeded
        assert not first.cached and second.cached
        assert _snap(second.result) == _snap(first.result)
        # caller mutation cannot poison the memo: the replay is immutable
        # and shares the leader's result
        assert second.result is first.result
        with pytest.raises(AttributeError):
            second.result.rows.clear()
        with pytest.raises(AttributeError):
            second.result = None
        third = pipeline.run(question, shop_db)
        assert third is second and third.cached and third.result.rows
        # a mutation retires the memo entry
        shop_db.table("products").append((9, "new", "tools", 2.0))
        fourth = pipeline.run(question, shop_db)
        assert not fourth.cached

    def test_pipeline_memo_off_under_tracing(self, shop_db):
        from repro import NaturalLanguageInterface
        from repro.obs import trace as obs_trace

        pipeline = NaturalLanguageInterface(shop_db).pipeline
        with obs_trace.tracing():
            first = pipeline.run("Show the name of products?", shop_db)
            second = pipeline.run("Show the name of products?", shop_db)
        assert not first.cached and not second.cached

    def test_session_replays_after_reset(self, sales_db):
        from repro.obs import metrics as obs_metrics
        from repro.systems import PipelineSystem
        from repro.systems.session import InteractiveSession

        session = InteractiveSession(system=PipelineSystem(), db=sales_db)
        question = "Show the name of products?"
        first = session.ask(question)
        session.reset()
        second = session.ask(question)
        assert first.answered and second.answered
        assert second.sql == first.sql
        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot["repro.pipeline.turn_cache.hits"] == 1
        assert len(session.transcript) == 1 and len(session.history) == 1

    def test_session_does_not_replay_a_turn_run_under_faults(self, sales_db):
        # a chart turn whose translation was corrupted by a fault plan
        # errors; once the plan is cleared the same session must draw the
        # chart rather than replay the incident's error
        from repro.resilience import clear_faults, install_faults
        from repro.systems import PipelineSystem
        from repro.systems.session import InteractiveSession

        session = InteractiveSession(system=PipelineSystem(), db=sales_db)
        question = "Draw a bar chart of the number of orders per quarter?"
        install_faults("translate:corrupt:every=1", seed=1)
        try:
            broken = session.ask(question)
        finally:
            clear_faults()
        assert not broken.answered
        healed = session.ask(question)
        assert healed.kind == "chart" and healed.chart.points

    @pytest.mark.parametrize("mode", ["tracing", "cached"])
    def test_gold_sees_same_size_replace_rows(self, shop_db, mode):
        # the gold result must follow a mutation that keeps the row count
        from repro.metrics.execution import execution_match
        from repro.obs import trace as obs_trace

        gold = "SELECT name FROM products WHERE price > 5"
        products = shop_db.table("products")
        if mode == "tracing":
            obs_trace.enable()
        try:
            assert execution_match(gold, gold, shop_db)
            products.replace_rows(
                [(i, f"item{i}", "tools", 50.0) for i in range(1, 5)]
            )
            predicted = (
                "SELECT name FROM products WHERE name IN "
                "('item1', 'item2', 'item3', 'item4')"
            )
            assert execution_match(predicted, gold, shop_db)
        finally:
            obs_trace.disable()

    def test_gold_missing_table_scores_false(self, shop_db):
        # a gold referencing an absent table used to crash evaluation
        # through the rescache path; it must score False, never raise
        from repro.metrics.execution import execution_match

        gold = "SELECT x FROM nonexistent"
        predicted = "SELECT name FROM products"
        assert execution_match(predicted, gold, shop_db) is False
        assert execution_match(predicted, gold, shop_db) is False

    def test_pipeline_chart_memo_not_poisoned(self, sales_db):
        from repro import NaturalLanguageInterface

        pipeline = NaturalLanguageInterface(sales_db).pipeline
        question = "Draw a bar chart of the number of orders per quarter?"
        first = pipeline.run(question, sales_db)
        second = pipeline.run(question, sales_db)
        assert first.succeeded and second.cached and second.chart is not None
        # a replayed chart or stage record cannot be mutated, and the
        # spec is a fresh dict per read, so nothing leaks into the memo
        # or other replays
        for mutate in (
            lambda t: t.chart.points.clear(),
            lambda t: setattr(t.chart, "points", ()),
            lambda t: setattr(t.stages[0], "output", "tampered"),
            lambda t: t.stages.append(None),
        ):
            with pytest.raises(AttributeError):
                mutate(second)
        second.chart.spec.clear()
        third = pipeline.run(question, sales_db)
        assert third.cached and third.chart.points and third.chart.spec
        assert third.stages[0].output != "tampered"
        assert third is second and third.chart is first.chart

    def test_session_memo_not_poisoned(self, sales_db):
        from repro.systems import PipelineSystem
        from repro.systems.session import InteractiveSession

        session = InteractiveSession(system=PipelineSystem(), db=sales_db)
        question = "Show the name of products?"
        first = session.ask(question)
        session.reset()
        second = session.ask(question)
        assert second.result is not None
        # the replay is a fresh per-caller response that shares the one
        # immutable result with the memo entry and the first transcript
        # entry
        assert second is not first and second.result is first.result
        with pytest.raises(AttributeError):
            second.result.rows.clear()
        session.reset()
        third = session.ask(question)
        assert third.result.rows and first.result.rows

    def test_session_chart_memo_not_poisoned(self, sales_db):
        from repro.systems import PipelineSystem
        from repro.systems.session import InteractiveSession

        session = InteractiveSession(system=PipelineSystem(), db=sales_db)
        question = "Draw a bar chart of the number of orders per quarter?"
        first = session.ask(question)
        assert first.chart is not None
        session.reset()
        second = session.ask(question)
        assert second is not first and second.chart is first.chart
        with pytest.raises(AttributeError):
            second.chart.points.clear()
        session.reset()
        third = session.ask(question)
        assert third.chart.points

    def test_session_memo_respects_history(self, sales_db):
        from repro.obs import metrics as obs_metrics
        from repro.systems import PipelineSystem
        from repro.systems.session import InteractiveSession

        session = InteractiveSession(system=PipelineSystem(), db=sales_db)
        question = "Show the name of products?"
        session.ask(question)
        session.ask(question)  # history grew: different conversation state
        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot["repro.pipeline.turn_cache.hits"] == 0
        assert snapshot["repro.pipeline.turn_cache.misses"] == 2


# ----------------------------------------------------------------------
# staleness property test (the mutation-storm differential)
# ----------------------------------------------------------------------
STORM_QUERIES = [
    "SELECT name FROM products WHERE price > 5",
    "SELECT name FROM products WHERE 5 < price",
    "SELECT COUNT(*) FROM products",
    "SELECT category, COUNT(*) FROM products GROUP BY category",
    "SELECT p.name, s.quantity FROM products AS p "
    "JOIN sales AS s ON p.id = s.product_id WHERE s.quantity > 1",
    "SELECT name FROM products ORDER BY price DESC LIMIT 3",
    "SELECT DISTINCT quarter FROM sales",
]


class TestStalenessProperty:
    @pytest.mark.parametrize("vector", [False, True], ids=["row", "vector"])
    def test_interleaved_mutations_never_serve_stale(self, shop_db, vector):
        """Random mutation/read interleaving: every cached read, and every
        read through a plan of this engine compiled before the mutations,
        must be byte-identical to the uncached reference oracle."""
        rng = random.Random(20260808 + vector)
        queries = [parse_sql(sql) for sql in STORM_QUERIES]
        templates: dict = {}
        for step in range(120):
            roll = rng.random()
            if roll < 0.15:
                db_table = shop_db.table("products")
                db_table.append(
                    (100 + step, f"p{step}", "tools", float(step % 7))
                )
            elif roll < 0.25:
                table = shop_db.table(rng.choice(("products", "sales")))
                rows = list(table.rows)
                rng.shuffle(rows)
                table.replace_rows(rows[: max(1, len(rows) - 1)])
            elif roll < 0.3:
                shop_db.table("sales").invalidate_caches()
            query = rng.choice(queries)
            cached = execute(query, shop_db)
            planned = engine_plan(templates, query, shop_db, True, vector)
            oracle = _snap(execute_reference(query, shop_db))
            stale = f"stale result at step {step} for {to_sql(query)}"
            assert _snap(cached) == oracle, stale
            assert _snap(planned.run(shop_db)) == oracle, stale
        stats = rescache.rescache_stats()
        assert stats["hits"] > 0  # the storm actually exercised the cache


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCacheCLI:
    def test_stats_json(self, capsys, shop_db):
        import json

        from repro.sql.cache_cli import main

        clear_plan_caches()
        execute(parse_sql("SELECT name FROM products"), shop_db)
        execute(parse_sql("SELECT name FROM products WHERE id = 1"), shop_db)
        execute(parse_sql("SELECT name FROM products WHERE id = 2"), shop_db)
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 3 and "enabled" not in payload
        plans = payload["plan_cache"]
        assert (plans["size"], plans["hits"], plans["misses"]) == (2, 1, 2)
        assert plans["template_hits"] == 1
        assert plans["max_size"] >= plans["size"]

    def test_stats_text_prints_the_plan_cache(self, capsys, shop_db):
        from repro.sql.cache_cli import main

        clear_plan_caches()
        execute(parse_sql("SELECT name FROM products"), shop_db)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "result cache" and "plan cache" in lines
        for field in ("max_size", "misses: 1", "template_hits: 0"):
            assert field in out

    def test_clear(self, capsys, shop_db):
        from repro.sql.cache_cli import main

        execute(parse_sql("SELECT name FROM products"), shop_db)
        assert main(["clear"]) == 0
        assert rescache.rescache_stats()["entries"] == 0

    def test_budget(self, capsys, small_budget):
        from repro.sql.cache_cli import main

        small_budget(10_000)  # register restore
        assert main(["budget", "12345"]) == 0
        assert rescache.rescache_stats()["max_bytes"] == 12345
        assert main(["budget", "-1"]) == 1

    def test_dispatch_from_main_module(self, capsys):
        from repro.__main__ import main

        assert main(["cache", "stats"]) == 0
        assert "result cache" in capsys.readouterr().out


class TestObservabilityGauges:
    def test_rescache_gauges_in_snapshot(self, shop_db):
        from repro.obs import metrics as obs_metrics

        execute(parse_sql("SELECT name FROM products"), shop_db)
        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot["repro.sql.rescache.entries"] == 1
        assert snapshot["repro.sql.rescache.bytes"] > 0

    def test_like_and_batch_gauges_registered(self):
        from repro.obs import metrics as obs_metrics

        snapshot = obs_metrics.get_registry().snapshot()
        assert "repro.sql.like_cache.size" in snapshot
        assert "repro.sql.vector.batch_cache.entries" in snapshot


# ----------------------------------------------------------------------
# concurrent access (the serving layer's workers share one cache)
# ----------------------------------------------------------------------
class TestConcurrentAccess:
    """N threads racing hit / store / invalidate on the same key: no
    reader may ever observe a stale or partially-stored result.

    The database flips between exactly two states (4 products and 5),
    so every COUNT(*) a reader gets back must be 4 or 5 — a torn store,
    a result served across an invalidation boundary, or a row-level data
    race would surface as any other value (or an exception)."""

    THREADS = 6
    ITERATIONS = 300

    def test_racing_hit_store_invalidate_never_serves_stale(self, shop_db):
        import threading

        query = parse_sql("SELECT COUNT(*) FROM products")
        table = shop_db.table("products")
        base_rows = list(table.rows)
        valid = {len(base_rows), len(base_rows) + 1}
        extra = (99, "extra", "tools", 1.0)

        errors: list[str] = []
        barrier = threading.Barrier(self.THREADS + 2)
        stop = threading.Event()

        def reader():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                result = rescache.cached_execute(query, shop_db)
                count = result.rows[0][0]
                if count not in valid:
                    errors.append(f"stale/torn count {count!r}")
                peeked = rescache.peek(query, shop_db)
                if peeked is not None and not isinstance(peeked, Exception):
                    if peeked.rows[0][0] not in valid:
                        errors.append(f"stale peek {peeked.rows[0][0]!r}")

        def writer():
            barrier.wait()
            while not stop.is_set():
                table.append(extra)
                table.replace_rows(list(base_rows))

        def invalidator():
            barrier.wait()
            while not stop.is_set():
                rescache.clear_result_cache()

        threads = [
            threading.Thread(target=reader) for _ in range(self.THREADS)
        ]
        threads.append(threading.Thread(target=writer))
        threads.append(threading.Thread(target=invalidator))
        for t in threads:
            t.start()
        for t in threads[: self.THREADS]:
            t.join(timeout=120)
        stop.set()
        for t in threads[self.THREADS :]:
            t.join(timeout=30)

        assert errors == []
        # quiescent: the cache must agree with the settled database state
        final = rescache.cached_execute(query, shop_db)
        assert final.rows[0][0] == len(table.rows)

    def test_racing_fresh_asts_intern_one_object(self, shop_db):
        """Cold racing misses with fresh, equal ASTs: every thread gets
        the same rows, and the one stored key holds the AST the memo
        interned, so later fresh-AST hits compare keys by identity."""
        import sys
        import threading

        sql = "SELECT category, COUNT(*) FROM products GROUP BY category"
        per_thread = 50
        results: list = []
        barrier = threading.Barrier(self.THREADS)

        def worker():
            asts = [parse_sql(sql) for _ in range(per_thread)]
            barrier.wait()
            for query in asts:
                results.append(rescache.cached_execute(query, shop_db))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker) for _ in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == self.THREADS * per_thread
        assert len({result.rows for result in results}) == 1
        (key,) = rescache._CACHE
        assert key[0] is sql_shape._QUERY_ENTRIES[parse_sql(sql)].query

    def test_racing_hits_share_one_store(self, shop_db):
        """Pure read contention: every thread gets the right rows, all
        from the one stored (immutable) result."""
        import threading

        query = parse_sql("SELECT name FROM products ORDER BY name")
        expected = tuple(
            rescache.cached_execute(query, shop_db).rows
        )
        out: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.THREADS)

        def reader():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                result = rescache.cached_execute(query, shop_db)
                if tuple(result.rows) != expected:
                    with lock:
                        out.append(("wrong", result.rows))
            with lock:
                out.append(("obj", result))  # keep alive for the id check

        threads = [
            threading.Thread(target=reader) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        wrong = [entry for entry in out if entry[0] == "wrong"]
        finals = [entry[1] for entry in out if entry[0] == "obj"]
        assert wrong == []
        # one shared immutable result, never a copy per caller
        assert len(finals) == self.THREADS
        assert all(result is finals[0] for result in finals)


# ----------------------------------------------------------------------
def _old_row_bytes(row: tuple) -> int:
    """The isinstance chain the exact-type dispatch replaced."""
    total = 64
    for value in row:
        if value is None or isinstance(value, bool):
            total += 16
        elif isinstance(value, int):
            total += 32
        elif isinstance(value, float):
            total += 24
        elif isinstance(value, str):
            total += 56 + len(value)
        else:
            total += 64
    return total


class _Int(int):
    pass


class _Text(str):
    pass


class TestSizeEstimate:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(),
            st.text(max_size=20), st.builds(_Int, st.integers()),
            st.builds(_Text, st.text(max_size=5)), st.just(b"raw"),
            st.just((1, 2)),
        ),
        max_size=12,
    ).map(tuple))
    def test_row_bytes_equal_the_old_chain(self, row):
        assert rescache._row_bytes(row) == _old_row_bytes(row)
