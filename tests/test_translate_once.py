"""Translate-path work that depends only on the grammar, the schema or the
text is done once.

- The grammar parser's patterns are compiled at import and its schema
  linker is built once per schema, so a warm parser asks ``re`` to
  compile nothing per question.
- ``parse_vql`` parses the SQL part of a program through the engine's
  bounded parse cache: a repeated text shares one frozen AST, bad text
  raises every time, and ``clear_plan_caches()`` empties it.
- The plan and parse caches take their lock only to look up and to
  insert; the thread hammer checks they stay bounded and consistent
  with compiles and parses running concurrently outside it.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro.errors import VQLParseError
from repro.parsers.base import ParseRequest
from repro.parsers.semantic import GrammarSemanticParser
from repro.sql.parser import parse_sql
from repro.sql.plan import (
    clear_plan_caches,
    compile_query,
    compile_sql,
    configure_caches,
    parse_cache_stats,
    plan_cache_stats,
)
from repro.vis.vql import parse_vql


# ----------------------------------------------------------------------
# the grammar compiles nothing per question
@pytest.mark.parametrize(
    "corpus", ["tiny_spider", "tiny_wikisql", "tiny_nvbench"]
)
def test_warm_grammar_parser_compiles_no_pattern(corpus, request,
                                                 monkeypatch):
    dataset = request.getfixturevalue(corpus)
    parser = GrammarSemanticParser()

    def ask(example):
        db = dataset.databases[example.db_id]
        return parser.parse(
            ParseRequest(question=example.question, schema=db.schema, db=db)
        )

    warmed: set = set()
    for example in dataset.examples:  # one warm-up question per schema
        if example.db_id not in warmed:
            warmed.add(example.db_id)
            ask(example)

    compiles = []
    compile_ = re._compile

    def counting(pattern, flags):
        compiles.append(pattern)
        return compile_(pattern, flags)

    monkeypatch.setattr(re, "_compile", counting)
    answered = sum(not ask(example).failed for example in dataset.examples)
    monkeypatch.undo()
    assert compiles == []
    assert answered >= len(dataset.examples) // 2


# ----------------------------------------------------------------------
# parse_vql shares the SQL parse cache
_VQL = (
    "VISUALIZE BAR SELECT category, COUNT(*) FROM products GROUP BY category"
)


def test_repeated_vql_text_shares_one_query():
    clear_plan_caches()
    first = parse_vql(_VQL)
    second = parse_vql(_VQL)
    assert second.query is first.query
    assert second == first
    stats = parse_cache_stats()
    assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)


def test_vql_parse_errors_are_never_cached():
    clear_plan_caches()
    bad = "VISUALIZE BAR SELECT FROM WHERE"
    for _ in range(3):
        with pytest.raises(VQLParseError):
            parse_vql(bad)
    stats = parse_cache_stats()
    assert (stats["misses"], stats["hits"], stats["size"]) == (3, 0, 0)


def test_clear_plan_caches_drops_vql_entries():
    clear_plan_caches()
    first = parse_vql(_VQL)
    assert parse_cache_stats()["size"] == 1
    clear_plan_caches()
    assert parse_cache_stats()["size"] == 0
    again = parse_vql(_VQL)
    assert again.query is not first.query
    assert again.query == first.query
    assert parse_cache_stats()["misses"] == 1


# ----------------------------------------------------------------------
# the caches under concurrent misses
_HAMMER_SQL = [
    f"SELECT name FROM products WHERE price > {n}" for n in range(12)
] + [
    f"SELECT quarter, SUM(quantity) FROM sales WHERE quantity > {n} "
    "GROUP BY quarter" for n in range(12)
]


def test_parse_and_plan_caches_under_eight_threads(shop_db):
    expected = {
        sql: (parse_sql(sql),
              compile_query(parse_sql(sql), shop_db.schema).run(shop_db).rows)
        for sql in _HAMMER_SQL
    }
    before = parse_cache_stats()["max_size"], plan_cache_stats()["max_size"]
    rounds, threads = 40, 8
    failures: list = []
    interval = sys.getswitchinterval()
    # smaller than the 24 distinct texts, so the run evicts all the time
    configure_caches(plan_size=7, parse_size=9)
    clear_plan_caches()
    sys.setswitchinterval(1e-5)

    def work(seed: int) -> None:
        try:
            for step in range(rounds):
                sql = _HAMMER_SQL[(seed * 7 + step) % len(_HAMMER_SQL)]
                query, rows = expected[sql]
                if (seed + step) % 2:
                    plan = compile_sql(sql, shop_db.schema)
                    assert plan.query == query, sql
                    assert plan.run(shop_db).rows == rows, sql
                else:
                    assert parse_vql("VISUALIZE BAR " + sql).query == query
                assert parse_cache_stats()["size"] <= 9
                assert plan_cache_stats()["size"] <= 7
        except Exception as exc:  # reported below
            failures.append(exc)

    try:
        workers = [
            threading.Thread(target=work, args=(seed,))
            for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        configure_caches(plan_size=before[1], parse_size=before[0])
    parse_stats, plan_stats = parse_cache_stats(), plan_cache_stats()
    clear_plan_caches()
    assert failures == []
    compiles = threads * rounds // 2
    # every compile_sql parses once; every parse_vql parses once
    assert parse_stats["hits"] + parse_stats["misses"] == threads * rounds
    assert plan_stats["hits"] + plan_stats["misses"] == compiles
    assert parse_stats["size"] <= 9 and plan_stats["size"] <= 7
