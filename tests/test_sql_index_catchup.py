"""Append catch-up of cached table indexes.

Within one table generation rows only grow, so a cached index extends
itself over appended rows instead of being rebuilt.  The state machine
below is the oracle: after any interleaving of appends (NULL and
duplicate keys included), ``replace_rows``, raw ``rows`` swaps and
``invalidate_caches``, every cached index, caught up to the table, must
equal a fresh build — and no index a caller was handed may change.
"""

from __future__ import annotations

import copy
import sys
import threading
import time

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.data.database import Database, Table
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.sql import index as sqlindex

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT

SCHEMA = TableSchema(
    "t", (Column("a", NUM), Column("b", TXT), Column("c", NUM))
)
HASH_KEYS = (("a",), ("b",), ("c",), ("a", "b"), ("b", "c"))
SORTED_COLUMNS = ("a", "b", "c")

_a = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([0.5, 2.0]))
_b = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]))
_c = st.one_of(st.none(), st.integers(0, 2), st.sampled_from(["p", "q"]))
ROW = st.tuples(_a, _b, _c)
ROWS = st.lists(ROW, max_size=12)


def _slots(table: Table, columns) -> tuple[int, ...]:
    return tuple(table.column_index(c) for c in columns)


def _assert_hash_equal(got: sqlindex.HashIndex, fresh: sqlindex.HashIndex):
    assert got.length == fresh.length
    assert got.buckets == fresh.buckets
    assert got.positions == fresh.positions
    if got._pairs is not None:
        assert got._pairs == fresh.pairs


def _assert_sorted_equal(
    got: sqlindex.SortedIndex, fresh: sqlindex.SortedIndex
):
    assert got.length == fresh.length
    assert got.keys == fresh.keys
    assert got.asc == fresh.asc
    assert got.null_count == fresh.null_count
    if got._desc is not None:
        assert got._desc == fresh.desc


def _contents(index):
    """Every container a caller of *index* can reach."""
    if isinstance(index, sqlindex.HashIndex):
        return (index.buckets, index.positions, index._pairs)
    return (index.keys, index.asc, index._desc)


class IndexCatchUpMachine(RuleBasedStateMachine):
    @initialize(rows=ROWS)
    def make_table(self, rows):
        self.table = Table(schema=SCHEMA, rows=list(rows))
        self.handed_out: list = []

    def _remember(self, index):
        if len(self.handed_out) < 40:
            self.handed_out.append((index, copy.deepcopy(_contents(index))))

    @rule(row=ROW, copies=st.integers(1, 3))
    def append(self, row, copies):
        for _ in range(copies):  # duplicate keys
            self.table.append(row)

    @rule(rows=ROWS)
    def replace_rows(self, rows):
        self.table.replace_rows(list(rows))

    @rule(rows=ROWS)
    def raw_swap(self, rows):
        self.table.rows = list(rows)

    @rule()
    def invalidate(self):
        self.table.invalidate_caches()

    @rule(columns=st.sampled_from(HASH_KEYS), with_pairs=st.booleans())
    def read_hash(self, columns, with_pairs):
        index = sqlindex.hash_index(self.table, columns)
        fresh = sqlindex.HashIndex(
            self.table.rows, _slots(self.table, columns)
        )
        if with_pairs:
            assert index.pairs == fresh.pairs
        _assert_hash_equal(index, fresh)
        self._remember(index)

    @rule(column=st.sampled_from(SORTED_COLUMNS), with_desc=st.booleans())
    def read_sorted(self, column, with_desc):
        index = sqlindex.sorted_index(self.table, column)
        fresh = sqlindex.SortedIndex(
            self.table.rows, self.table.column_index(column)
        )
        if with_desc:
            assert index.desc == fresh.desc
        _assert_sorted_equal(index, fresh)
        self._remember(index)

    @invariant()
    def cached_indexes_match_fresh_builds(self):
        cached = getattr(self.table, "_index_cache", None)
        if cached is None or cached[0] != self.table.cache_token()[0]:
            return  # retired: the next read starts a new cache
        rows = self.table.rows
        for (kind, columns), index in cached[1].items():
            assert index.length <= len(rows)
            # catch up a private copy: the cache keeps its gap, so later
            # steps still exercise multi-append catch-ups
            current = index
            if index.length < len(rows):
                current = index.extended(rows)
            if kind == "hash":
                slots = _slots(self.table, columns)
                _assert_hash_equal(
                    index, sqlindex.HashIndex(rows[: index.length], slots)
                )
                _assert_hash_equal(current, sqlindex.HashIndex(rows, slots))
            else:
                slot = self.table.column_index(columns)
                _assert_sorted_equal(
                    index, sqlindex.SortedIndex(rows[: index.length], slot)
                )
                _assert_sorted_equal(current, sqlindex.SortedIndex(rows, slot))

    @invariant()
    def handed_out_indexes_never_change(self):
        for index, snapshot in self.handed_out:
            for now, then in zip(_contents(index), snapshot):
                if then is not None:  # lazily materialized later is fine
                    assert now == then


TestIndexCatchUpMachine = IndexCatchUpMachine.TestCase
TestIndexCatchUpMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def _db(n: int) -> Database:
    schema = Schema(db_id="d", tables=(SCHEMA,))
    db = Database(schema=schema)
    for i in range(n):
        db.insert("t", (i % 7, "xyz"[i % 3], None if i % 5 == 0 else i))
    return db


class TestCatchUpCounters:
    def test_insert_then_read_catches_up_without_a_build(self):
        db = _db(40)
        table = db.table("t")
        sqlindex.hash_index(table, ("a",))
        before = sqlindex.index_cache_stats()
        db.insert("t", (99, "x", 1))
        index = sqlindex.hash_index(table, ("a",))
        after = sqlindex.index_cache_stats()
        assert after["hash_builds"] == before["hash_builds"]
        assert after["catchups"] == before["catchups"] + 1
        assert after["invalidations"] == before["invalidations"]
        assert index.lookup(99) == [(99, "x", 1)]

    def test_generation_change_counts_one_invalidation_and_rebuilds(self):
        db = _db(40)
        table = db.table("t")
        sqlindex.sorted_index(table, "c")
        before = sqlindex.index_cache_stats()
        table.replace_rows(list(table.rows))
        sqlindex.sorted_index(table, "c")
        after = sqlindex.index_cache_stats()
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["sorted_builds"] == before["sorted_builds"] + 1
        assert after["catchups"] == before["catchups"]

    def test_in_place_shrink_outside_the_contract_rebuilds(self):
        db = _db(40)
        table = db.table("t")
        sqlindex.hash_index(table, ("a",))
        del table.rows[-5:]
        before = sqlindex.index_cache_stats()
        index = sqlindex.hash_index(table, ("a",))
        after = sqlindex.index_cache_stats()
        assert after["hash_builds"] == before["hash_builds"] + 1
        _assert_hash_equal(index, sqlindex.HashIndex(table.rows, (0,)))

    def test_append_keeps_the_generation_and_moves_the_token(self):
        table = _db(3).table("t")
        generation, length = table.cache_token()
        table.append((1, "x", 1))
        assert table.cache_token() == (generation, length + 1)
        assert table.version == generation


class TestPublishedIndexesAreImmutable:
    def test_lists_handed_out_before_an_append_are_unchanged(self):
        db = _db(40)
        table = db.table("t")
        hashed = sqlindex.hash_index(table, ("a",))
        bucket = hashed.lookup(3)
        positions = hashed.positions[3]
        pairs = hashed.pairs[3]
        ordered = sqlindex.sorted_index(table, "c")
        asc, desc = ordered.asc, ordered.desc
        saved = [list(x) for x in (bucket, positions, pairs, asc, desc)]

        db.insert("t", (3, "y", 100))
        db.insert("t", (3, None, None))
        caught_hash = sqlindex.hash_index(table, ("a",))
        caught_sorted = sqlindex.sorted_index(table, "c")

        assert caught_hash is not hashed and caught_sorted is not ordered
        assert [bucket, positions, pairs, asc, desc] == saved
        assert caught_hash.lookup(3)[-2:] == [(3, "y", 100), (3, None, None)]
        assert caught_sorted.desc[0] == 40  # the new largest key
        # the new NULL goes last among the NULLs, which sort first
        assert caught_sorted.null_count == ordered.null_count + 1
        assert caught_sorted.asc[caught_sorted.null_count - 1] == 41


def test_concurrent_appends_and_reads_see_consistent_indexes():
    # readers race one appender on a shared table; every index a reader
    # gets must equal a fresh build over the rows it says it covers
    db = _db(40)
    table = db.table("t")
    errors: list = []
    done = threading.Event()

    def appender():
        try:
            for i in range(600):
                db.insert("t", (i % 11, "xyz"[i % 3], None if i % 4 else i))
                if i % 3 == 0:
                    time.sleep(0)  # let the readers in between appends
        finally:
            done.set()

    def reader(k: int):
        try:
            while not done.is_set():
                if k % 2:
                    got = sqlindex.hash_index(table, ("a", "b"))
                    prefix = table.rows[: got.length]
                    fresh = sqlindex.HashIndex(prefix, (0, 1))
                    _assert_hash_equal(got, fresh)
                else:
                    got = sqlindex.sorted_index(table, "c")
                    got.desc  # materialized while appends race
                    fresh = sqlindex.SortedIndex(table.rows[: got.length], 2)
                    _assert_sorted_equal(got, fresh)
        except AssertionError as exc:
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(k,)) for k in range(6)
        ]
        threads.append(threading.Thread(target=appender))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert not errors, errors[0]
    assert sqlindex.hash_index(table, ("a", "b")).length == len(table.rows)
