"""The grammar parser's parse memo answers exactly as a fresh parser.

A memoized parse is reused only while every database lookup it made
(value linking) still answers the same, so after any write the memo and
a fresh parser instance must agree on every question: the corpora asked
twice, value lookups whose answer an append, a ``replace_rows`` or a
second database changes, failures, every key field, the bound, and a
thread hammer over one instance.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.datasets import build_dataset
from repro.obs import metrics as obs_metrics
from repro.parsers import semantic
from repro.parsers.base import ParseRequest
from repro.parsers.llm import MultiStageLLMParser
from repro.parsers.semantic import GrammarSemanticParser
from repro.sql import index as sqlindex

#: the default pipeline parser and the quickstart facade's parser
CONFIGS = {
    "pipeline": dict(use_history=True, use_knowledge=True),
    "facade": dict(
        world_knowledge=True, fuzzy=True, use_history=True, use_knowledge=True
    ),
}

GARDEN_Q = "show the name of products whose category is garden"


def _outcome(result):
    return (result.query, result.notes, result.candidates, result.confidence)


def _fresh(config: dict, request: ParseRequest):
    return _outcome(GrammarSemanticParser(**config).parse(request))


def _memo_counts() -> dict[str, int]:
    registry = obs_metrics.get_registry()
    return {
        name: registry.counter(f"repro.parsers.memo.{name}").value
        for name in ("hits", "misses", "stale")
    }


def _requests(dataset) -> list[ParseRequest]:
    return [
        ParseRequest(
            question=example.question,
            schema=dataset.databases[example.db_id].schema,
            db=dataset.databases[example.db_id],
            knowledge=example.knowledge,
            language=example.language,
        )
        for example in dataset.examples
    ]


# ----------------------------------------------------------------------
# the corpora, each asked twice
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize(
    "corpus", ["spider_like", "wikisql_like", "nvbench_like", "cross_domain"]
)
def test_memoized_parses_equal_fresh_ones(corpus, config, tiny_spider):
    if corpus == "cross_domain":
        dataset = tiny_spider
    else:
        dataset = build_dataset(corpus, scale=0.01, seed=3)
    parser = GrammarSemanticParser(**CONFIGS[config])
    requests = _requests(dataset)
    first = [parser.parse(request) for request in requests]
    before = _memo_counts()
    second = [parser.parse(request) for request in requests]
    after = _memo_counts()
    for request, one, two in zip(requests, first, second):
        expected = _fresh(CONFIGS[config], request)
        assert _outcome(one) == expected, request.question
        assert _outcome(two) == expected, request.question
        # a hit hands out the memoized AST itself, in a fresh result
        assert two.query is one.query and two is not one
    # nothing was written between the passes: every second ask hits
    assert after["hits"] - before["hits"] == len(requests)
    assert after["misses"] == before["misses"]
    assert after["stale"] == before["stale"]


# ----------------------------------------------------------------------
# value lookups that writes change
@pytest.fixture
def shop() -> Schema:
    num, txt = ColumnType.NUMBER, ColumnType.TEXT
    return Schema(
        db_id="shop",
        tables=(
            TableSchema(
                "products",
                (
                    Column("id", num),
                    Column("name", txt),
                    Column("category", txt),
                    Column("price", num),
                ),
                primary_key="id",
            ),
        ),
    )


def _shop_db(schema: Schema, rows) -> Database:
    db = Database(schema=schema)
    for row in rows:
        db.insert("products", row)
    return db


def _literal(result):
    return result.query.where.right.value


def test_an_append_that_changes_a_lookup_reparses(shop):
    db = _shop_db(shop, [(1, "widget", "tools", 9.5)])
    parser = GrammarSemanticParser()
    ask = ParseRequest(GARDEN_Q, shop, db)
    assert _literal(parser.parse(ask)) == "garden"

    db.insert("products", (2, "hose", "Garden", 3.0))
    before = _memo_counts()
    result = parser.parse(ask)
    assert _memo_counts()["stale"] == before["stale"] + 1
    assert _literal(result) == "Garden"
    assert _outcome(result) == _fresh({}, ask)

    # a later casing changes no answer (the first match wins): a hit
    db.insert("products", (3, "rake", "GARDEN", 2.0))
    before = _memo_counts()
    assert parser.parse(ask).query is result.query
    assert _memo_counts()["hits"] == before["hits"] + 1

    db.table("products").replace_rows([(4, "pot", "GARDEN", 5.0)])
    assert _literal(parser.parse(ask)) == "GARDEN"
    assert _outcome(parser.parse(ask)) == _fresh({}, ask)


def test_databases_sharing_a_schema_get_their_own_literals(shop):
    lower = _shop_db(shop, [(1, "hose", "garden", 3.0)])
    upper = _shop_db(shop, [(1, "hose", "GARDEN", 3.0)])
    parser = GrammarSemanticParser()
    for _ in range(2):
        for db, expected in (
            (lower, "garden"), (upper, "GARDEN"), (None, "garden")
        ):
            ask = ParseRequest(GARDEN_Q, shop, db)
            assert _literal(parser.parse(ask)) == expected
            assert _outcome(parser.parse(ask)) == _fresh({}, ask)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_writes_never_serve_a_stale_parse(shop, seed):
    rng = random.Random(seed)
    casings = ("garden", "Garden", "GARDEN", "tools", "Tools", "TOOLS")
    questions = (
        GARDEN_Q,
        "show the name of products whose category is tools",
        "show the name of products whose category is garden and name is HOSE",
        "list the name of products whose name is hose or category is TOOLS",
        "how many products are there",
    )
    dbs = [_shop_db(shop, []), _shop_db(shop, [(1, "Hose", "tools", 1.0)])]
    parser = GrammarSemanticParser()
    for step in range(40):
        db = rng.choice(dbs)
        op = rng.random()
        if op < 0.6:
            db.insert("products", (
                step, rng.choice(("hose", "Hose", "HOSE", "rake")),
                rng.choice(casings), float(step),
            ))
        elif op < 0.8:
            rows = list(db.table("products").rows)
            rng.shuffle(rows)
            db.table("products").replace_rows(rows[: len(rows) // 2])
        else:
            db.table("products").invalidate_caches()
        for target in dbs:
            for question in questions:
                ask = ParseRequest(question, shop, target)
                assert _outcome(parser.parse(ask)) == _fresh({}, ask), (
                    step, question
                )


def _first_matches(table, column) -> dict:
    """The value-linking map by a full scan: lowered -> first stored."""
    slot = table.column_index(column)
    out: dict = {}
    for row in table.rows:
        if isinstance(row[slot], str):
            out.setdefault(row[slot].lower(), row[slot])
    return out


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_case_maps_equal_a_fresh_scan_after_random_writes(shop, seed):
    rng = random.Random(seed)
    casings = ("garden", "Garden", "GARDEN", "tools", "Tools", "TOOLS")
    db = _shop_db(shop, [(1, "Hose", "tools", 1.0)])
    table = db.table("products")
    parser = GrammarSemanticParser()
    ask = ParseRequest(
        "show the name of products whose category is garden and name is HOSE",
        shop, db,
    )
    published = []
    for step in range(60):
        op = rng.random()
        if op < 0.55:
            db.insert("products", (
                step, rng.choice(("hose", "Hose", "HOSE", "rake", None)),
                rng.choice(casings), float(step),
            ))
        elif op < 0.7:
            rows = list(table.rows)
            rng.shuffle(rows)
            table.replace_rows(rows[: len(rows) // 2])
        elif op < 0.85:
            rows = list(table.rows)
            rng.shuffle(rows)
            table.rows = rows  # a raw swap, seen only by cache_token
        else:
            table.invalidate_caches()
        assert _outcome(parser.parse(ask)) == _fresh({}, ask), step
        for column in ("name", "category"):
            current = sqlindex.first_match_map(table, column)
            assert current == _first_matches(table, column), (step, column)
            published.append((current, dict(current)))
    # a catch-up copies: no map handed out earlier was changed afterwards
    assert all(current == snapshot for current, snapshot in published)


def test_value_linking_misses_only_on_missing_names(shop, monkeypatch):
    db = _shop_db(shop, [(1, "Hose", "tools", 1.0)])
    restore = semantic._restore_value_case
    assert restore("hose", "products", "name", db) == "Hose"
    assert restore("hose", "nowhere", "name", db) == "hose"
    assert restore("hose", "products", "nothing", db) == "hose"

    def broken(self, rows, start):
        raise RuntimeError("map fault")

    # a fault in the map code is not mistaken for a missing name
    monkeypatch.setattr(sqlindex.FirstMatchIndex, "_add", broken)
    with pytest.raises(RuntimeError):
        restore("hose", "products", "category", db)


# ----------------------------------------------------------------------
# the simulated LLM's solver
def _counting_linkers(monkeypatch) -> list:
    built = []

    class CountingLinker(semantic.SchemaLinker):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(semantic, "SchemaLinker", CountingLinker)
    return built


def test_the_simulated_llm_keeps_its_solver(monkeypatch):
    dataset = build_dataset("spider_like", scale=0.01, seed=3)
    requests = _requests(dataset)[:2]
    built = _counting_linkers(monkeypatch)
    parser = MultiStageLLMParser()
    for step in range(10):
        parser.parse(requests[step % 2])
    assert parser.llm.calls >= 10
    assert len(built) <= 2


def test_llm_outputs_equal_fresh_solver_outputs():
    dataset = build_dataset("spider_like", scale=0.01, seed=3)
    examples = list(dataset.examples)
    kept = MultiStageLLMParser()
    kept.train(examples[:8], dataset.databases)
    for _round in range(2):
        for request in _requests(dataset):
            fresh = MultiStageLLMParser()
            fresh.train(examples[:8], dataset.databases)
            assert _outcome(kept.parse(request)) == _outcome(
                fresh.parse(request)
            ), request.question


# ----------------------------------------------------------------------
# failures
def test_failures_are_memoized_and_revalidated(shop):
    db = _shop_db(shop, [(1, "widget", "tools", 9.5)])
    parser = GrammarSemanticParser(guess_unlinked=False)
    # the failure comes after a value lookup, so the entry records one
    ask = ParseRequest(
        "show the name of products whose category is garden and zorb is 3",
        shop, db,
    )
    first = parser.parse(ask)
    assert first.failed and "zorb" in first.notes
    before = _memo_counts()
    assert _outcome(parser.parse(ask)) == _outcome(first)
    assert _memo_counts()["hits"] == before["hits"] + 1

    db.insert("products", (2, "hose", "Garden", 3.0))
    before = _memo_counts()
    again = parser.parse(ask)
    assert _memo_counts()["stale"] == before["stale"] + 1
    assert _outcome(again) == _outcome(first)
    assert _outcome(again) == _fresh(dict(guess_unlinked=False), ask)


# ----------------------------------------------------------------------
# every field of the key
def test_history_is_part_of_the_key(shop):
    db = _shop_db(shop, [(1, "widget", "tools", 9.5)])
    parser = GrammarSemanticParser(use_history=True)
    tools = parser.parse(ParseRequest(
        "show the name of products whose category is tools", shop, db
    )).query
    cheap = parser.parse(ParseRequest(
        "show the name of products whose price is below 5", shop, db
    )).query
    answers = set()
    for _ in range(2):
        for history in ([], [("q", tools)], [("q", cheap)]):
            ask = ParseRequest("count them", shop, db, history=list(history))
            result = parser.parse(ask)
            assert _outcome(result) == _fresh(dict(use_history=True), ask)
            answers.add(result.query)
    assert len(answers) == 3  # the failure (None) and two counts


def test_knowledge_is_part_of_the_key(shop):
    db = _shop_db(shop, [(1, "widget", "tools", 9.5)])
    parser = GrammarSemanticParser(use_knowledge=True)
    answers = set()
    for _ in range(2):
        for knowledge in (
            None,
            "premium products are products whose price is greater than 10",
            "premium products are products whose category is TOOLS",
        ):
            ask = ParseRequest(
                "show the name of premium products", shop, db,
                knowledge=knowledge,
            )
            result = parser.parse(ask)
            assert _outcome(result) == _fresh(dict(use_knowledge=True), ask)
            answers.add(result.query)
    assert len(answers) == 3


def test_language_is_part_of_the_key(shop):
    db = _shop_db(shop, [(1, "widget", "tools", 9.5)])
    parser = GrammarSemanticParser()
    for _ in range(2):
        english = parser.parse(
            ParseRequest("show the name of products", shop, db)
        )
        german = parser.parse(
            ParseRequest("show the name of products", shop, db, language="de")
        )
        assert not english.failed
        assert german.failed and "not supported" in german.notes


# ----------------------------------------------------------------------
# one linker per schema object
def test_schemas_sharing_a_db_id_get_their_own_linker():
    txt = ColumnType.TEXT
    products = Schema(db_id="shared", tables=(
        TableSchema("products", (Column("name", txt), Column("price"))),
    ))
    employees = Schema(db_id="shared", tables=(
        TableSchema("employees", (Column("name", txt), Column("title", txt))),
    ))
    parser = GrammarSemanticParser()
    parser.parse(ParseRequest("show the name of all products", products))
    ask = ParseRequest("show the title of all employees", employees)
    result = parser.parse(ask)
    assert not result.failed, result.notes
    assert _outcome(result) == _fresh({}, ask)
    # and the memo keys on the schema object, not its db_id
    for schema in (products, employees):
        ask = ParseRequest("show the name of all products", schema)
        assert _outcome(parser.parse(ask)) == _fresh({}, ask)


# ----------------------------------------------------------------------
# the bound
def test_the_memo_keeps_at_most_its_bound_oldest_first(shop, monkeypatch):
    monkeypatch.setattr(semantic, "_MEMO_SIZE", 8)
    db = _shop_db(shop, [(1, "widget", "tools", 9.5)])
    parser = GrammarSemanticParser()
    questions = [
        f"show the name of products whose price is above {n}"
        for n in range(20)
    ]
    for question in questions:
        parser.parse(ParseRequest(question, shop, db))
        assert len(parser._memo) <= 8
    assert [key[0] for key in parser._memo] == questions[-8:]


# ----------------------------------------------------------------------
# one instance, four threads
def test_threads_sharing_one_parser_agree_with_fresh_parses(monkeypatch):
    # a small bound keeps eviction racing the lookups
    monkeypatch.setattr(semantic, "_MEMO_SIZE", 16)
    dataset = build_dataset("wikisql_like", scale=0.01, seed=3)
    requests = _requests(dataset)[:120]
    config = CONFIGS["pipeline"]
    expected = [_fresh(config, request) for request in requests]
    parser = GrammarSemanticParser(**config)
    errors: list = []
    start = threading.Barrier(4)

    def hammer(seed: int) -> None:
        rng = random.Random(seed)
        order = list(range(len(requests))) * 3
        rng.shuffle(order)
        start.wait(timeout=30)
        try:
            for index in order:
                got = _outcome(parser.parse(requests[index]))
                if got != expected[index]:
                    errors.append((requests[index].question, got))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(parser._memo) <= 16
