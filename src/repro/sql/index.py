"""On-demand table indexes for the cost-based optimizer and value linking.

Three index kinds, all built lazily the first time a plan (or the
semantic parser) asks for them and cached on the
:class:`~repro.data.database.Table` object:

- :class:`HashIndex` — buckets over one or more columns' values, used for
  equality and ``IN`` scan predicates and as the persistent build side of
  hash joins (an index-nested-loop join: probe the cached buckets instead
  of rebuilding them every execution);
- :class:`SortedIndex` — row positions ordered by the executor's
  :func:`~repro.data.values.sort_key`, used for range predicates (bisect)
  and ``ORDER BY ... LIMIT`` top-k short-circuits;
- :class:`FirstMatchIndex` — each lower-cased string of one column mapped
  to its first stored spelling, used by the semantic parser to restore a
  question's literal to the database's case.

The cache is keyed by the table's *generation* (:attr:`Table.version`).
Within a generation rows only grow, so each index records the row count
it covers and, once ``append`` / ``insert`` have grown the table past it,
catches up by folding in just the new rows.  ``replace_rows``,
``invalidate_caches`` and a raw swap of the ``rows`` list start a new
generation, which retires every index of that table.

A published index is never mutated: ``lookup`` hands out its internal
bucket lists and serve workers share tables across threads, so a
catch-up returns a new index that copies the containers it changes.

Key semantics exactly mirror the executor's three-valued logic: rows whose
key is NULL never enter a hash bucket (``NULL = x`` is unknown), and range
lookups exclude NULLs by construction because NULL sort keys precede every
non-null bound.  Bucket and position lists preserve base-table row order,
so an index scan emits rows in the same order a filtered full scan would —
a hard requirement for matching the reference interpreter row-for-row.

``MIN_INDEX_ROWS`` gates building: below it a full scan is cheaper than
the bucket/bisect bookkeeping, so plans fall back to plain filtering.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from repro.data.database import Table
from repro.data.values import Value, index_order, order_positions, sort_key

__all__ = [
    "FirstMatchIndex",
    "HashIndex",
    "SortedIndex",
    "first_match_map",
    "hash_index",
    "sorted_index",
    "build_hash_buckets",
    "index_cache_stats",
    "reset_index_counters",
    "MIN_INDEX_ROWS",
    "set_min_index_rows",
]

#: Tables smaller than this are scanned directly; index build overhead
#: only amortizes above it.  Tests lower it to force the index paths.
MIN_INDEX_ROWS = 32

#: ``sort_key(None)``: every NULL key sorts at or below it.
_NULL_KEY = sort_key(None)

_COUNTERS = {
    "hash_builds": 0,  # from-scratch builds only
    "sorted_builds": 0,
    "first_match_builds": 0,
    "catchups": 0,  # cached indexes extended over appended rows
    "hits": 0,
    "invalidations": 0,  # generation changes that retired a table's indexes
}


def set_min_index_rows(n: int) -> int:
    """Set the index-build row threshold; returns the previous value."""
    global MIN_INDEX_ROWS
    previous = MIN_INDEX_ROWS
    MIN_INDEX_ROWS = n
    return previous


def build_hash_buckets(
    rows: list[tuple[Value, ...]], slots: tuple[int, ...]
) -> dict:
    """Bucket *rows* by the values in *slots*, skipping NULL keys.

    Single-slot keys are the raw value (so ``1``, ``1.0`` and ``True``
    share a bucket exactly as SQL equality unifies them); multi-slot keys
    are value tuples.  Shared by :class:`HashIndex` and the per-execution
    hash-join build so both agree on key identity.
    """
    buckets: dict = {}
    if len(slots) == 1:
        slot = slots[0]
        for row in rows:
            key = row[slot]
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        return buckets
    for row in rows:
        key = tuple(row[s] for s in slots)
        if any(v is None for v in key):
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


class HashIndex:
    """Equality buckets over one or more columns.

    ``buckets`` maps key -> rows (in base row order); ``positions`` maps
    key -> base row positions, used to restore row order when a scan has
    to merge several buckets (``IN`` predicates).  ``length`` is the
    number of leading table rows the index covers.
    """

    __slots__ = ("slots", "length", "buckets", "positions", "_pairs")

    def __init__(self, rows: list[tuple[Value, ...]], slots: tuple[int, ...]):
        self.slots = slots
        self.length = len(rows)
        self._pairs: dict | None = None
        self.buckets = build_hash_buckets(rows, slots)
        positions: dict = {}
        if len(slots) == 1:
            slot = slots[0]
            for pos, row in enumerate(rows):
                key = row[slot]
                if key is None:
                    continue
                bucket = positions.get(key)
                if bucket is None:
                    positions[key] = [pos]
                else:
                    bucket.append(pos)
        else:
            for pos, row in enumerate(rows):
                key = tuple(row[s] for s in slots)
                if any(v is None for v in key):
                    continue
                bucket = positions.get(key)
                if bucket is None:
                    positions[key] = [pos]
                else:
                    bucket.append(pos)
        self.positions = positions

    def extended(self, rows: list[tuple[Value, ...]]) -> "HashIndex":
        """A new index over all of *rows*, whose first ``self.length``
        rows this index already covers; ``self`` is left untouched.

        Only the lists of keys the new rows touch are copied; the other
        keys share their (never mutated) lists with ``self``.
        """
        slots = self.slots
        single = slots[0] if len(slots) == 1 else None
        buckets = dict(self.buckets)
        positions = dict(self.positions)
        touched: set = set()
        end = len(rows)
        for pos in range(self.length, end):
            row = rows[pos]
            if single is not None:
                key = row[single]
                if key is None:
                    continue
            else:
                key = tuple(row[s] for s in slots)
                if any(v is None for v in key):
                    continue
            if key in touched:
                buckets[key].append(row)
                positions[key].append(pos)
            else:
                touched.add(key)
                buckets[key] = buckets.get(key, []) + [row]
                positions[key] = positions.get(key, []) + [pos]
        out = HashIndex.__new__(HashIndex)
        out.slots = slots
        out.length = end
        out.buckets = buckets
        out.positions = positions
        out._pairs = None
        if self._pairs is not None:
            pairs = dict(self._pairs)
            for key in touched:
                pairs[key] = list(zip(positions[key], buckets[key]))
            out._pairs = pairs
        return out

    @property
    def pairs(self) -> dict:
        """``key -> [(base position, row), ...]`` — the hash-join build
        shape, materialized once per index and cached with it."""
        if self._pairs is None:
            positions = self.positions
            self._pairs = {
                key: list(zip(positions[key], rows))
                for key, rows in self.buckets.items()
            }
        return self._pairs

    def lookup(self, value: Value) -> list[tuple[Value, ...]]:
        """Rows with key == *value* in base row order (NULL matches none)."""
        if value is None:
            return []
        return self.buckets.get(value, [])

    def lookup_many(
        self, rows: list[tuple[Value, ...]], values
    ) -> list[tuple[Value, ...]]:
        """Rows matching any of *values*, restored to base row order."""
        merged: list[int] = []
        seen: set = set()
        for value in values:
            if value is None or value in seen:
                continue
            seen.add(value)
            merged.extend(self.positions.get(value, ()))
        if not merged:
            return []
        merged.sort()
        return [rows[p] for p in merged]


class SortedIndex:
    """Row positions ordered by sort key; NULLs first, ties in row order.

    ``length`` is the number of leading table rows the index covers.
    """

    __slots__ = ("slot", "length", "keys", "asc", "_desc", "null_count")

    def __init__(self, rows: list[tuple[Value, ...]], slot: int):
        self.slot = slot
        self.length = len(rows)
        self.asc, self.keys = index_order([row[slot] for row in rows])
        self._desc: list[int] | None = None
        self.null_count = bisect_right(self.keys, _NULL_KEY)

    def extended(self, rows: list[tuple[Value, ...]]) -> "SortedIndex":
        """A new index over all of *rows*, whose first ``self.length``
        rows this index already covers; ``self`` is left untouched.

        Each new position is larger than every covered one, so it goes
        last among its equal keys: at ``bisect_right`` in ascending
        order and, in a materialized ``desc``, at ``len(keys) -
        bisect_left`` — no re-sort either way.
        """
        slot = self.slot
        keys = list(self.keys)
        asc = list(self.asc)
        desc = None if self._desc is None else list(self._desc)
        end = len(rows)
        for pos in range(self.length, end):
            key = sort_key(rows[pos][slot])
            if desc is not None:
                desc.insert(len(keys) - bisect_left(keys, key), pos)
            at = bisect_right(keys, key)
            keys.insert(at, key)
            asc.insert(at, pos)
        out = SortedIndex.__new__(SortedIndex)
        out.slot = slot
        out.length = end
        out.keys = keys
        out.asc = asc
        out._desc = desc
        out.null_count = bisect_right(keys, _NULL_KEY)
        return out

    @property
    def desc(self) -> list[int]:
        """Positions in descending key order, ties in base row order.

        Not ``reversed(asc)``: a stable descending sort keeps equal keys
        in original row order, which is what the executor's stable
        ``reverse=True`` sort produces.
        """
        if self._desc is None:
            # the NULLs lead ``asc`` in row order and trail ``desc`` in
            # it; past them each key's float or string orders exactly as
            # the key does
            asc, nulls = self.asc, self.null_count
            order = order_positions(
                list(map(itemgetter(1), self.keys[nulls:])), descending=True
            )
            self._desc = [asc[nulls + i] for i in order] + asc[:nulls]
        return self._desc

    def range_positions(
        self,
        low: Value = None,
        high: Value = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Base-row-order positions with key in the given (non-null) range.

        ``None`` bounds are open ends — but NULLs themselves never match,
        mirroring three-valued comparisons.
        """
        keys = self.keys
        start = self.null_count
        end = len(keys)
        if low is not None:
            key = sort_key(low)
            start = max(
                start,
                bisect_left(keys, key) if low_inclusive
                else bisect_right(keys, key),
            )
        if high is not None:
            key = sort_key(high)
            end = min(
                end,
                bisect_right(keys, key) if high_inclusive
                else bisect_left(keys, key),
            )
        if end <= start:
            return []
        positions = self.asc[start:end]
        positions.sort()
        return positions


class FirstMatchIndex:
    """``stored.lower() -> stored`` for the first of each string value of
    one column, in row order.

    ``first`` is handed out to callers and never mutated; ``length`` is
    the number of leading table rows the map covers.
    """

    __slots__ = ("slot", "length", "first")

    def __init__(self, rows: list[tuple[Value, ...]], slot: int):
        self.slot = slot
        self.length = len(rows)
        self.first: dict[str, str] = {}
        self._add(rows, 0)

    def _add(self, rows: list[tuple[Value, ...]], start: int) -> None:
        add = self.first.setdefault
        slot = self.slot
        for row in rows[start:]:
            stored = row[slot]
            if isinstance(stored, str):
                add(stored.lower(), stored)

    def extended(self, rows: list[tuple[Value, ...]]) -> "FirstMatchIndex":
        """A new map over all of *rows*, whose first ``self.length`` rows
        this map already covers; ``self`` is left untouched.

        Appended rows only add keys that are not present yet, which
        keeps each key's first match; ``first`` is copied only when a
        new key appears, and shared with ``self`` otherwise.
        """
        out = FirstMatchIndex.__new__(FirstMatchIndex)
        out.slot = slot = self.slot
        out.length = len(rows)
        first = out.first = self.first
        if not all(
            stored.lower() in first for row in rows[self.length:]
            if isinstance(stored := row[slot], str)
        ):
            out.first = dict(first)
            out._add(rows, self.length)
        return out


def _cached(table: Table, key: tuple):
    """The index cached under *key* for *table*'s current generation:
    built on a miss, extended over rows appended since it was built."""
    generation = table.cache_token()[0]
    cached = getattr(table, "_index_cache", None)
    if cached is None or cached[0] != generation:
        if cached is not None:
            _COUNTERS["invalidations"] += 1
        cached = (generation, {})
        table._index_cache = cached
    cache = cached[1]
    index = cache.get(key)
    rows = table.rows
    length = len(rows)
    if index is None or index.length > length:
        # an index longer than the table means rows shrank in place, which
        # the append-only contract rules out; rebuilding is still correct
        kind, columns = key
        if kind == "hash":
            slots = tuple(table.column_index(c) for c in columns)
            index = HashIndex(rows, slots)
        elif kind == "sorted":
            index = SortedIndex(rows, table.column_index(columns))
        else:
            index = FirstMatchIndex(rows, table.column_index(columns))
        cache[key] = index
        _COUNTERS[kind + "_builds"] += 1
    elif index.length < length:
        index = cache[key] = index.extended(rows)
        _COUNTERS["catchups"] += 1
    else:
        _COUNTERS["hits"] += 1
    return index


def hash_index(table: Table, columns: tuple[str, ...]) -> HashIndex:
    """Hash index over *columns* (lowercased names), cached per generation."""
    return _cached(table, ("hash", columns))


def sorted_index(table: Table, column: str) -> SortedIndex:
    """Sorted index over *column*, cached per generation."""
    return _cached(table, ("sorted", column))


def first_match_map(table: Table, column: str) -> dict[str, str]:
    """*column*'s lower-cased strings mapped to their first stored
    spelling (see :class:`FirstMatchIndex`), cached per generation.

    The returned dict is shared and must not be mutated."""
    return _cached(table, ("first_match", column.lower())).first


def index_cache_stats() -> dict[str, int]:
    """Index-cache counters: from-scratch builds, catch-ups, hits and
    invalidations."""
    return dict(_COUNTERS)


def reset_index_counters() -> None:
    for key in _COUNTERS:
        _COUNTERS[key] = 0
