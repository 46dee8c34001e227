"""Execution-based matching (survey Section 5.1.2, "Execution Match").

A prediction is correct when executing it returns the same result as the
gold query — regardless of how differently the two are written.  Result
comparison is order-sensitive only when the gold query imposes an ORDER
BY; otherwise multisets are compared, following the Spider/test-suite
convention.

The survey's caveat — naive execution match is "prone to false positives"
when different queries coincidentally return equal results on one database
— is what :mod:`repro.metrics.test_suite` addresses.

Evaluating N candidates against one gold used to parse and execute the gold
N times; gold and prediction results now both flow through the shared
version-stamped result cache (:mod:`repro.sql.rescache`), keyed by the
query AST, on top of the parse/plan caches of :mod:`repro.sql.plan`.  With
tracing on, the gold simply executes every time.
"""

from __future__ import annotations

from typing import Union

from repro.data.database import Database
from repro.errors import SQLError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.sql import rescache as _rescache
from repro.sql.executor import Result, execute
from repro.sql import parse_sql_cached

_registry = _obs_metrics.get_registry()
_GOLD_HITS = _registry.counter("repro.metrics.execution.gold_cache.hits")
_GOLD_MISSES = _registry.counter("repro.metrics.execution.gold_cache.misses")
_EXEC_MATCHES = _registry.counter("repro.metrics.execution.matches")
_EXEC_MISMATCHES = _registry.counter("repro.metrics.execution.mismatches")


def _gold_result_cached(
    gold: str, db: Database, query=None
) -> Union[Result, SQLError]:
    """Execute-or-fetch the gold result on *db*; failures return the error.

    Delegates to the shared result cache (:mod:`repro.sql.rescache`):
    keyed by query AST + per-table version stamps, shared with
    every other ``execute()`` caller, and invalidated by *any* table
    mutation.  With tracing on, the gold executes every time (each call
    counts as a gold-cache miss).
    *query* optionally supplies an already parsed AST to skip the parse.
    """
    try:
        gold_query = query if query is not None else parse_sql_cached(gold)
    except SQLError as exc:
        _GOLD_MISSES.inc()
        return exc
    if not _obs_trace._ENABLED:
        value, hit = _rescache.execute_or_error(gold_query, db)
        (_GOLD_HITS if hit else _GOLD_MISSES).inc()
        return value
    _GOLD_MISSES.inc()
    try:
        return execute(gold_query, db)
    except SQLError as exc:
        return exc


def execution_match(predicted: str, gold: str, db: Database) -> bool:
    """Compare execution results of *predicted* and *gold* on *db*.

    Returns ``False`` (never raises) when either query fails to parse or
    execute; outcome tallies land on the
    ``repro.metrics.execution.matches`` / ``.mismatches`` counters.
    """
    matched = _execution_match(predicted, gold, db)
    (_EXEC_MATCHES if matched else _EXEC_MISMATCHES).inc()
    return matched


def _execution_match(predicted: str, gold: str, db: Database) -> bool:
    gold_result = _gold_result_cached(gold, db)
    if isinstance(gold_result, SQLError):
        return False
    try:
        # execute() (rather than a raw plan run) so predictions share the
        # result cache too — candidate lists are full of repeats
        pred_result = execute(parse_sql_cached(predicted), db)
    except SQLError:
        return False
    return results_equal(pred_result, gold_result)


def _execution_job(job: tuple[str, str, Database]) -> bool:
    """Module-level worker for :func:`execution_match_many` (picklable)."""
    predicted, gold, db = job
    return execution_match(predicted, gold, db)


def execution_match_many(
    jobs: "list[tuple[str, str, Database]]",
    *,
    max_workers: int | None = None,
    chunk_size: int | None = None,
) -> list[bool]:
    """Batch :func:`execution_match` over ``(predicted, gold, db)`` triples.

    Fans out across a process pool via :func:`repro.eval.parallel
    .parallel_map`; verdicts come back in input order, identical to the
    serial loop.  Each worker process warms its own plan cache and
    per-database gold-result caches.  Note the match/mismatch obs
    counters tick inside the workers and are not visible to the parent
    when ``max_workers > 1``.
    """
    from repro.eval.parallel import parallel_map

    return parallel_map(
        _execution_job,
        list(jobs),
        max_workers=max_workers,
        chunk_size=chunk_size,
    )


def results_equal(predicted: Result, gold: Result) -> bool:
    """Result equality with the gold's ordered-ness deciding order sensitivity."""
    pred_rows = [_normalize_row(r) for r in predicted.rows]
    gold_rows = [_normalize_row(r) for r in gold.rows]
    if gold.ordered:
        return pred_rows == gold_rows
    return _multiset(pred_rows) == _multiset(gold_rows)


def _normalize_row(row: tuple) -> tuple:
    """Round floats so 10.0 == 10 and float noise does not break equality."""
    out = []
    for value in row:
        if isinstance(value, bool):
            out.append(int(value))
        elif isinstance(value, float):
            out.append(round(value, 6))
        else:
            out.append(value)
    return tuple(out)


def _multiset(rows: list[tuple]) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return counts
