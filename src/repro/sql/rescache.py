"""Versioned, memory-bounded query-*result* cache.

The plan cache (:mod:`repro.sql.plan`) amortizes parsing and compilation;
this module amortizes *execution* — the dominant remaining cost once the
same questions recur over slowly-changing tables, which is exactly the
interactive-NLI traffic shape the survey describes.  It sits between
:func:`repro.sql.executor.execute` / ``CompiledPlan.run`` and callers:

- **Keys** are ``(query AST, db identity token, per-table cache
  tokens)``.  AST equality is structural and type-exact and each
  query node caches its hash, so the query itself is the key: a repeated
  question, parsed afresh, hits; any other spelling (a commuted
  predicate, a renamed alias) is its own entry.  Per-table tokens are
  :meth:`repro.data.database.Table.cache_token` stamps, so any
  ``append`` / ``replace_rows`` / ``invalidate_caches`` / raw ``rows``
  swap naturally misses; stale rows are never served.
- **Interned ASTs.** Each AST value has one
  :class:`~repro.sql.shape.QueryEntry`, made by one walk and shared with
  the plan cache: it holds the first equal AST seen, the table names the
  query reads, and the shape :func:`~repro.sql.plan.plan_for` compiles.
  Keys hold that interned AST, so a probe with a fresh, equal AST builds
  a key whose first field *is* the stored key's, and the dict compare
  stops at the identity check instead of walking two trees field by
  field.  A miss hands the same entry to the plan cache: one lookup
  serves both.
- **Eviction** is cost-aware LRU: each entry carries an estimated result
  byte size and the cache holds at most ``REPRO_SQL_RESCACHE_BYTES``
  (default 32 MiB, resizable via :func:`configure_result_cache` or
  ``repro.sql.plan.configure_caches(result_bytes=...)``).  A single
  result larger than the whole budget is returned but never stored.
- **Errors** cache too (the metric paths evaluate many failing
  candidates), in the same entry a result would take: a hit re-raises a
  traceback-free copy of the stored error.
- **Hits share the stored result**: a ``Result`` is frozen, so hits,
  misses and :func:`peek` return the one stored object, uncopied.

``execute()`` always routes through the cache, except while tracing
(:mod:`repro.obs.trace`) is enabled: then it bypasses the cache entirely
so span trees keep reflecting real per-operator work.

Observability: ``repro.sql.rescache.hits`` / ``.misses`` / ``.evictions``
/ ``.oversize`` counters and ``repro.sql.rescache.bytes`` / ``.entries``
gauges, all visible in ``python -m repro trace --metrics`` and the
``python -m repro cache stats`` CLI (:mod:`repro.sql.cache_cli`).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Union

from repro.data.database import Database
from repro.data.identity import identity_token
from repro.errors import SQLError
from repro.obs import metrics as _obs_metrics
from repro.sql import plan as _plan
from repro.sql.ast import Query
from repro.sql.shape import QueryEntry, clear_query_entries, query_entry
from repro.sql.executor import Result

__all__ = [
    "cached_execute",
    "clear_result_cache",
    "configure_result_cache",
    "database_state_token",
    "execute_or_error",
    "peek",
    "rescache_stats",
]


def _env_bytes(name: str, default: int) -> int:
    try:
        return max(0, int(os.environ.get(name, default)))
    except ValueError:
        return default


_MAX_BYTES = _env_bytes("REPRO_SQL_RESCACHE_BYTES", 32 * 1024 * 1024)

#: Same discipline as the plan/parse LRUs: the parallel driver's
#: thread-pool fallback shares this module across workers.
_LOCK = threading.RLock()

#: key -> (Result | SQLError, estimated bytes); insertion order is LRU.
_CACHE: "OrderedDict[tuple, tuple[Union[Result, SQLError], int]]" = OrderedDict()
_BYTES = 0

_registry = _obs_metrics.get_registry()
_HITS = _registry.counter("repro.sql.rescache.hits")
_MISSES = _registry.counter("repro.sql.rescache.misses")
_EVICTIONS = _registry.counter("repro.sql.rescache.evictions")
_OVERSIZE = _registry.counter("repro.sql.rescache.oversize")
_PEEK_HITS = _registry.counter("repro.sql.rescache.peek.hits")
_PEEK_MISSES = _registry.counter("repro.sql.rescache.peek.misses")
_registry.gauge("repro.sql.rescache.bytes", fn=lambda: _BYTES)
_registry.gauge("repro.sql.rescache.entries", fn=lambda: len(_CACHE))


# ----------------------------------------------------------------------
# result size estimation (deterministic fixed per-value costs; long rows
# are sampled, never fully walked)
# ----------------------------------------------------------------------
_SAMPLE_ROWS = 32


#: per-value cost by exact type; str adds its length, and other types
#: (subclasses included) take :func:`_value_bytes`
_FIXED_BYTES = {type(None): 16, bool: 16, int: 32, float: 24}


def _value_bytes(value) -> int:
    if value is None or isinstance(value, bool):
        return 16  # shared singletons
    if isinstance(value, int):
        return 32
    if isinstance(value, float):
        return 24
    if isinstance(value, str):
        return 56 + len(value)
    return 64  # pragma: no cover - engine values are the four above


def _row_bytes(row: tuple) -> int:
    total = 64  # tuple header + slots
    fixed = _FIXED_BYTES.get
    for value in row:
        cost = fixed(type(value))
        if cost is None:
            if type(value) is str:
                cost = 56 + len(value)
            else:
                cost = _value_bytes(value)
        total += cost
    return total


def _estimate_bytes(result: Result) -> int:
    base = 160 + 64 * len(result.columns) + sum(
        len(c) for c in result.columns
    )
    n = len(result.rows)
    if n == 0:
        return base
    if n <= _SAMPLE_ROWS:
        sample = result.rows
    else:
        step = n // _SAMPLE_ROWS
        sample = result.rows[::step][:_SAMPLE_ROWS]
    per_row = sum(_row_bytes(row) for row in sample) / len(sample)
    return int(base + n * per_row)


_ERROR_BYTES = 256  # flat charge per cached failure


def _copy_error(exc: SQLError) -> SQLError:
    """A traceback-free clone of *exc*.

    Cached errors are re-raised on every hit, possibly from several
    threads; raising a shared instance would rewrite its
    ``__traceback__`` concurrently and pin the original execution frames
    in the cache for the entry's lifetime.  ``__new__`` + attribute copy
    sidesteps subclass ``__init__`` signatures that reformat ``args``
    (e.g. :class:`~repro.errors.LexError`).
    """
    clone = type(exc).__new__(type(exc))
    clone.args = exc.args
    clone.__dict__.update(exc.__dict__)
    return clone


def database_state_token(db: Database) -> tuple:
    """Identity + full per-table version stamp of *db*, for turn keys.

    Used by the pipeline turn cache (:mod:`repro.core.turn_cache`): any
    mutation of any table (or swapping in a different database object)
    changes the token.  Flat: the database's identity token, then each
    table's name, generation and length.
    """
    token = [identity_token(db)]
    for name, table in db.tables.items():
        token.append(name)
        token.extend(table.cache_token())
    return tuple(token)


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
def _result_key(entry: QueryEntry, db: Database) -> tuple | None:
    """The cache key of *entry*'s query on *db*, led by the interned AST;
    None when a table is missing (the query must then execute uncached —
    the analysis error travels back as a value, like any other failure)."""
    tokens = []
    for name in entry.tables:
        table = db.tables.get(name)
        if table is None:
            return None
        tokens.append((name,) + table.cache_token())
    return entry.query, identity_token(db), tuple(tokens)


def _lookup_or_run(query: Query, db: Database) -> tuple:
    """Core probe: returns ``(Result | SQLError, hit)``.

    Execution happens outside the lock; a racing duplicate store is
    idempotent.
    """
    entry = query_entry(query)
    key = _result_key(entry, db)
    if key is None:
        # missing table: execute uncached (no token to stamp an entry
        # with), but keep the execute_or_error contract — failures come
        # back as values here and only cached_execute re-raises them
        try:
            return _plan.plan_for_entry(entry, db.schema, db).run(db), False
        except SQLError as exc:
            return exc, False
    with _LOCK:
        stored = _CACHE.get(key)
        if stored is not None:
            _CACHE.move_to_end(key)
            _HITS.inc()
            value = stored[0]
            if isinstance(value, SQLError):
                return _copy_error(value), True
            return value, True
        _MISSES.inc()
    try:
        result = _plan.plan_for_entry(entry, db.schema, db).run(db)
    except SQLError as exc:
        # store a traceback-free clone; the shared entry must neither
        # pin this frame stack nor have hits mutate its __traceback__
        _store(key, _copy_error(exc), _ERROR_BYTES)
        return exc, False
    _store(key, result, _estimate_bytes(result))
    return result, False


def _store(key: tuple, value, nbytes: int) -> None:
    global _BYTES
    with _LOCK:
        if nbytes > _MAX_BYTES:
            _OVERSIZE.inc()
            return
        old = _CACHE.pop(key, None)
        if old is not None:
            _BYTES -= old[1]
        _CACHE[key] = (value, nbytes)
        _BYTES += nbytes
        while _BYTES > _MAX_BYTES and _CACHE:
            _, (_, evicted_bytes) = _CACHE.popitem(last=False)
            _BYTES -= evicted_bytes
            _EVICTIONS.inc()


def cached_execute(query: Query, db: Database) -> Result:
    """Execute *query* on *db* through the result cache.

    Semantics are identical to :func:`repro.sql.executor.execute`: the
    same :class:`Result` (the stored object — it is immutable), or the
    same :class:`~repro.errors.SQLError` raised.  Callers normally reach this
    via ``execute()``, which routes here whenever tracing is off.
    """
    value, _ = _lookup_or_run(query, db)
    if isinstance(value, SQLError):
        raise value
    return value


def execute_or_error(query: Query, db: Database) -> tuple:
    """Like :func:`cached_execute` but returns failures as values.

    Returns ``(Result | SQLError, hit)`` — the shape the metric gold
    paths want (they treat a failing gold as an ordinary outcome and
    need the hit flag for their own counters).
    """
    return _lookup_or_run(query, db)


def peek(query: Query, db: Database):
    """Probe the cache for *query* without executing anything.

    Returns the cached :class:`Result` itself on a hit, or
    ``None`` on a miss (including cached *errors* — a stored failure is
    not a servable answer).  The probe uses the same key and *current*
    table/database version tokens as :func:`cached_execute`, so a hit is
    exactly what executing now would return — never stale.
    That soundness is what lets :mod:`repro.core.pipeline` use this as
    the last rung of its execute degradation ladder: when the executor
    times out or faults, a peeked result is a correct answer, and a miss
    simply means the ladder is exhausted.
    """
    key = _result_key(query_entry(query), db)
    if key is None:
        return None
    with _LOCK:
        entry = _CACHE.get(key)
        if entry is not None and not isinstance(entry[0], SQLError):
            _CACHE.move_to_end(key)
            _PEEK_HITS.inc()
            return entry[0]
    _PEEK_MISSES.inc()
    return None


# ----------------------------------------------------------------------
# control surface
# ----------------------------------------------------------------------
def rescache_stats() -> dict:
    """Occupancy and effectiveness counters, ``plan_cache_stats``-style."""
    with _LOCK:
        return {
            "entries": len(_CACHE),
            "bytes": _BYTES,
            "max_bytes": _MAX_BYTES,
            "hits": _HITS.value,
            "misses": _MISSES.value,
            "evictions": _EVICTIONS.value,
            "oversize": _OVERSIZE.value,
        }


def configure_result_cache(max_bytes: int | None = None) -> None:
    """Set the byte budget (evicting LRU-first to fit); ``None`` keeps it."""
    global _MAX_BYTES, _BYTES
    if max_bytes is None:
        return
    with _LOCK:
        _MAX_BYTES = max(0, int(max_bytes))
        while _BYTES > _MAX_BYTES and _CACHE:
            _, (_, evicted_bytes) = _CACHE.popitem(last=False)
            _BYTES -= evicted_bytes
            _EVICTIONS.inc()


def clear_result_cache() -> None:
    """Drop every entry (and the query entries whose interned ASTs the
    keys hold) and zero the counters."""
    global _BYTES
    clear_query_entries()
    with _LOCK:
        _CACHE.clear()
        _BYTES = 0
        _HITS.reset()
        _MISSES.reset()
        _EVICTIONS.reset()
        _OVERSIZE.reset()
