"""Distilled test-suite matching (survey Section 5.1.2, Zhong et al. 2020).

Test-suite accuracy reduces execution match's false positives by executing
both queries on *many database variants*: a prediction is accepted only if
it agrees with the gold on every variant.  Variants are generated by
content fuzzing — row dropping, row duplication, numeric jitter, and
fresh-value injection — which preserves the schema while decorrelating
coincidental result collisions.

Hot-path caching: :func:`test_suite_match` reuses parsed ASTs (LRU), the
fuzzed variant list (cached on the base database, keyed by count/seed/probe
values and stamped with the base row count), and per-variant gold results
(via :func:`repro.metrics.execution._gold_result_cached`, which rides the
shared version-stamped result cache of :mod:`repro.sql.rescache`; each
variant database gets its own identity-keyed entries).  Prediction
executions go through ``execute()`` and therefore share that same result
cache — a candidate repeated across an evaluation run executes once per
variant, not once per occurrence.  Because every variant shares the base
database's schema object, the plan cache in :mod:`repro.sql.plan`
compiles each query once for all variants.
:func:`make_database_variants` itself still builds fresh databases on every
call, so external callers can mutate its output freely.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from repro.data.database import Database, Table
from repro.data.values import Value
from repro.errors import SQLError
from repro.metrics.execution import _gold_result_cached, results_equal
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.sql.executor import execute
from repro.sql import parse_sql_cached

_VARIANT_CACHE_MAX = 8

_registry = _obs_metrics.get_registry()
_TS_ACCEPTED = _registry.counter("repro.metrics.test_suite.accepted")
_TS_REJECTED = _registry.counter("repro.metrics.test_suite.rejected")


def make_database_variants(
    db: Database,
    count: int = 8,
    seed: int = 0,
    probe_values: tuple[Value, ...] = (),
) -> list[Database]:
    """Build *count* content-fuzzed variants of *db*.

    The original is kept as variant zero, matching the distilled-test-suite
    construction.  ``probe_values`` are literals taken from the queries
    under comparison; injecting them as cell values probes comparison
    boundaries (``>= 100`` vs ``> 100`` only differ on a row that *equals*
    100), which is the query-aware distillation step of Zhong et al.
    """
    rng = random.Random(seed)
    variants = [db]
    numeric_probes = tuple(
        v for v in probe_values
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )
    for _ in range(max(0, count - 1)):
        variants.append(_fuzz(db, rng, numeric_probes))
    return variants


def test_suite_match(
    predicted: str,
    gold: str,
    db: Database,
    num_variants: int = 8,
    seed: int = 0,
) -> bool:
    """Accept only when predicted and gold agree on every database variant.

    Verdicts tally on the ``repro.metrics.test_suite.accepted`` /
    ``.rejected`` counters; with tracing enabled each comparison emits a
    ``repro.metrics.test_suite.match`` span annotated with the variant
    count and verdict.
    """
    if _obs_trace._ENABLED:
        with _obs_trace.span(
            "repro.metrics.test_suite.match", variants=num_variants
        ) as match_span:
            matched = _test_suite_match_impl(
                predicted, gold, db, num_variants, seed
            )
            match_span.set_attr("accepted", matched)
    else:
        matched = _test_suite_match_impl(predicted, gold, db, num_variants, seed)
    (_TS_ACCEPTED if matched else _TS_REJECTED).inc()
    return matched


def _test_suite_match_impl(
    predicted: str,
    gold: str,
    db: Database,
    num_variants: int,
    seed: int,
) -> bool:
    try:
        gold_query = parse_sql_cached(gold)
        pred_query = parse_sql_cached(predicted)
    except SQLError:
        return False
    probes = tuple(_literal_values(gold_query) | _literal_values(pred_query))
    for variant in _cached_variants(db, num_variants, seed, probes):
        gold_result = _gold_result_cached(gold, variant, gold_query)
        if isinstance(gold_result, SQLError):
            continue  # a variant the gold cannot run on distinguishes nothing
        try:
            pred_result = execute(pred_query, variant)
        except SQLError:
            return False
        if not results_equal(pred_result, gold_result):
            return False
    return True


def _test_suite_job(job: tuple[str, str, Database, int, int]) -> bool:
    """Module-level worker for :func:`test_suite_match_many` (picklable)."""
    predicted, gold, db, num_variants, seed = job
    return test_suite_match(predicted, gold, db, num_variants, seed)


def test_suite_match_many(
    jobs: "list[tuple[str, str, Database]]",
    num_variants: int = 8,
    seed: int = 0,
    *,
    max_workers: int | None = None,
    chunk_size: int | None = None,
) -> list[bool]:
    """Batch :func:`test_suite_match` over ``(predicted, gold, db)`` triples.

    The expensive part — fuzzing variants and executing both queries on
    each — fans out across a process pool (:func:`repro.eval.parallel
    .parallel_map`); verdicts return in input order.  Variant and
    gold-result caches attach to each worker's unpickled database copies,
    so triples sharing a database still amortize within a worker.  The
    accepted/rejected obs counters tick inside the workers and are not
    visible to the parent when ``max_workers > 1``.
    """
    from repro.eval.parallel import parallel_map

    expanded = [(p, g, db, num_variants, seed) for p, g, db in jobs]
    return parallel_map(
        _test_suite_job,
        expanded,
        max_workers=max_workers,
        chunk_size=chunk_size,
    )


# ----------------------------------------------------------------------
def _cached_variants(
    db: Database, count: int, seed: int, probes: tuple[Value, ...]
) -> list[Database]:
    """Variant list cached on the base database, stamped by its row count.

    The cached variants (and the gold-result caches that accumulate on
    them) survive across candidates evaluated against the same base
    database, which is the N-candidates-one-gold hot path.
    """
    stamp = db.row_count()
    cache = getattr(db, "_variant_cache", None)
    if cache is None or cache[0] != stamp:
        cache = (stamp, OrderedDict())
        db._variant_cache = cache
    store: OrderedDict = cache[1]
    key = (count, seed, probes)
    variants = store.get(key)
    if variants is None:
        variants = make_database_variants(db, count, seed, probes)
        store[key] = variants
        if len(store) > _VARIANT_CACHE_MAX:
            store.popitem(last=False)
    else:
        store.move_to_end(key)
    return variants
def _literal_values(query) -> set:
    from repro.sql.ast import Literal, walk

    return {
        node.value
        for node in walk(query)
        if isinstance(node, Literal) and node.value is not None
    }


def _fuzz(
    db: Database, rng: random.Random, probes: tuple[Value, ...] = ()
) -> Database:
    variant = db.copy()
    for table in variant.tables.values():
        _fuzz_table(table, rng, probes)
    return variant


def _fuzz_table(
    table: Table, rng: random.Random, probes: tuple[Value, ...] = ()
) -> None:
    rows = list(table.rows)
    if not rows:
        return
    # drop up to 25% of rows, but never below a quarter of the table: a
    # variant fuzzed down to (near) zero rows makes most query pairs
    # vacuously agree on it, weakening the suite instead of tightening it
    keep = [row for row in rows if rng.random() > 0.25]
    floor = max(1, len(rows) // 4)
    while len(keep) < floor:
        keep.append(rng.choice(rows))
    # duplicate a few rows (stresses DISTINCT/COUNT differences)
    for _ in range(max(1, len(keep) // 8)):
        keep.append(rng.choice(keep))
    # jitter non-key numeric values (stresses aggregates and comparisons)
    pk_index = (
        table.column_index(table.schema.primary_key)
        if table.schema.primary_key
        else -1
    )
    jittered = []
    for row in keep:
        new_row = list(row)
        for i, value in enumerate(new_row):
            if i == pk_index or value is None:
                continue
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)) and rng.random() < 0.3:
                if probes and rng.random() < 0.4:
                    new_row[i] = rng.choice(probes)  # boundary probing
                else:
                    new_row[i] = _jitter_number(value, rng)
        jittered.append(tuple(new_row))
    table.replace_rows(jittered)


def _jitter_number(value: Value, rng: random.Random) -> Value:
    delta = rng.choice((-3, -2, -1, 1, 2, 3))
    if isinstance(value, int):
        return max(0, value + delta)
    return round(float(value) + delta * 0.5, 2)
