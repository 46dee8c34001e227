"""Cost-based optimizer throughput: optimized plans vs the PR 2 engine.

Times the same compiled-plan engine with the cost-based optimizer on and
off (off is exactly the prior written-order, full-scan engine) on:

1. ``selective_filter`` — a point lookup on a large table (hash-index
   scan vs full scan);
2. ``three_table_join`` — a 3-table equi-join written in the worst order
   with a selective predicate on the last table (join reordering +
   cached hash-join build sides);
3. ``order_by_limit`` — top-k over a large table (sorted-index
   short-circuit vs full sort);
4. ``test_suite_evaluation`` — end-to-end test-suite metric runs over
   fuzzed database variants, against the same variant loop run directly
   on unoptimized plans (``compile_query(..., optimize=False)``);
5. ``append_then_read`` — inserts interleaved with indexed point, ``IN``,
   range and ``ORDER BY ... DESC LIMIT`` reads.  Every read must equal
   ``execute_reference``, and after the first reads no index may be built
   from scratch again: appends extend the cached indexes.  Both are
   counts, so the section gates on them; the µs per read of catch-up vs
   a forced rebuild (``invalidate_caches`` before each read) is reported
   only.

Every workload first asserts the optimized result is identical to
``execute_reference`` — the differential oracle the optimizer can never
be allowed to diverge from — and a seeded random-query sweep re-checks
agreement across the query space.  Results print as a table and are
written to ``BENCH_optimizer.json`` at the repository root.  ``--smoke``
(alias ``--quick``) shrinks sizes for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import (
    add_trace_arg,
    add_workers_arg,
    dataset,
    print_table,
    traced_run,
)

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.errors import SQLError
from repro.metrics.execution import results_equal
from repro.metrics.test_suite import (
    _cached_variants,
    _literal_values,
    test_suite_match,
    test_suite_match_many,
)
from repro.sql import index as sqlindex
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, compile_query

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT

REGIONS = ("north", "south", "east", "west")
SEGMENTS = ("retail", "corporate", "public")


def _bench_db(num_customers: int, num_orders: int, num_products: int) -> Database:
    schema = Schema(
        db_id="optbench",
        tables=(
            TableSchema(
                "customers",
                (
                    Column("id", NUM),
                    Column("name", TXT),
                    Column("region", TXT),
                    Column("score", NUM),
                ),
                primary_key="id",
            ),
            TableSchema(
                "products",
                (
                    Column("id", NUM),
                    Column("name", TXT),
                    Column("segment", TXT),
                    Column("price", NUM),
                ),
                primary_key="id",
            ),
            TableSchema(
                "orders",
                (
                    Column("id", NUM),
                    Column("customer_id", NUM),
                    Column("product_id", NUM),
                    Column("amount", NUM),
                ),
                primary_key="id",
            ),
        ),
    )
    rng = random.Random(42)
    db = Database(schema=schema)
    for i in range(num_customers):
        db.insert(
            "customers",
            (i, f"customer_{i}", rng.choice(REGIONS), rng.randrange(1000)),
        )
    for i in range(num_products):
        db.insert(
            "products",
            (i, f"product_{i}", rng.choice(SEGMENTS), rng.randrange(5, 2000)),
        )
    for i in range(num_orders):
        db.insert(
            "orders",
            (
                i,
                rng.randrange(num_customers),
                rng.randrange(num_products),
                round(rng.random() * 500, 2),
            ),
        )
    return db


def _workloads(db: Database) -> list[tuple[str, str]]:
    target = len(db.table("customers").rows) // 2
    return [
        (
            "selective_filter",
            f"SELECT name, score FROM customers WHERE id = {target}",
        ),
        (
            "three_table_join",
            "SELECT c.name, p.name FROM orders AS o "
            "JOIN customers AS c ON c.id = o.customer_id "
            "JOIN products AS p ON p.id = o.product_id "
            "WHERE p.price > 1900",
        ),
        (
            "order_by_limit",
            "SELECT name, score FROM customers ORDER BY score DESC LIMIT 10",
        ),
    ]


def _time(fn, iters: int, repeat: int = 3) -> float:
    """Best queries-per-second over *repeat* rounds of *iters* calls."""
    best = 0.0
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        elapsed = time.perf_counter() - start
        best = max(best, iters / elapsed)
    return best


def _micro_workloads(db: Database, iters: int) -> dict[str, dict[str, float]]:
    results = {}
    for name, sql in _workloads(db):
        query = parse_sql(sql)
        baseline = compile_query(query, db.schema, optimize=False)
        optimized = compile_query(query, db.schema, db, optimize=True)
        ref = execute_reference(query, db)
        for plan in (baseline, optimized):
            got = plan.run(db)
            assert got.columns == ref.columns, name
            assert got.rows == ref.rows, name
            assert got.ordered == ref.ordered, name
        optimized.run(db)  # warm the stats/index caches out of the timing
        slow = _time(lambda: baseline.run(db), iters)
        fast = _time(lambda: optimized.run(db), iters)
        results[name] = {
            "baseline_qps": round(slow, 2),
            "optimized_qps": round(fast, 2),
            "speedup": round(fast / slow, 2),
        }
    return results


def _differential_sweep(db: Database, count: int, seed: int = 2024) -> int:
    """Seeded random queries: optimized results must match the reference."""
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "tests"))
    from test_sql_plan import _random_query  # reuses the fuzzing grammar

    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        sql = _random_query(rng).replace("products", "customers").replace(
            "sales", "orders"
        )
        sql = (
            sql.replace("price", "score")
            .replace("category", "region")
            .replace("quarter", "region")
            .replace("quantity", "amount")
        )
        try:
            query = parse_sql(sql)
            expected = execute_reference(query, db)
        except SQLError:
            continue
        got = compile_query(query, db.schema, db, optimize=True).run(db)
        assert got.rows == expected.rows, sql
        assert got.ordered == expected.ordered, sql
        checked += 1
    return checked


def _append_then_read(appends: int) -> dict[str, float]:
    """Interleave inserts into ``customers`` with indexed reads.

    The appended rows repeat the point-lookup key, reuse regions, carry
    NULLs and keep raising the top score, so a stale or wrongly extended
    index changes an answer.  Runs on its own database: it grows tables
    the other sections time.
    """
    db = _bench_db(num_customers=300, num_orders=0, num_products=0)
    table = db.table("customers")
    assert len(table.rows) >= sqlindex.MIN_INDEX_ROWS
    target = len(table.rows) // 2
    plans = []
    for sql in (
        f"SELECT name FROM customers WHERE id = {target}",
        "SELECT id FROM customers WHERE region IN ('north', 'west')",
        "SELECT id, score FROM customers WHERE score BETWEEN 100 AND 200",
        "SELECT name, score FROM customers ORDER BY score DESC LIMIT 5",
    ):
        query = parse_sql(sql)
        plans.append((sql, query, compile_query(query, db.schema, db)))

    def read_all(check: bool) -> None:
        for sql, query, plan in plans:
            got = plan.run(db)
            if check:
                ref = execute_reference(query, db)
                assert got.columns == ref.columns, sql
                assert got.rows == ref.rows, sql
                assert got.ordered == ref.ordered, sql

    def append(i: int) -> None:
        n = len(table.rows)
        table.append((
            target if i % 2 else n,
            f"customer_{n}",
            None if i % 5 == 0 else REGIONS[i % len(REGIONS)],
            None if i % 7 == 0 else 1000 + i,
        ))

    read_all(check=True)  # first reads build every index once
    before = sqlindex.index_cache_stats()
    catch_up_s = 0.0
    for i in range(appends):
        append(i)
        start = time.perf_counter()
        read_all(check=False)
        catch_up_s += time.perf_counter() - start
        read_all(check=True)
    after = sqlindex.index_cache_stats()
    builds = sum(
        after[k] - before[k] for k in ("hash_builds", "sorted_builds")
    )
    catchups = after["catchups"] - before["catchups"]
    assert builds == 0, f"{builds} index builds across appends"
    assert catchups >= appends, f"only {catchups} catch-ups"

    rebuild_s = 0.0
    for i in range(appends):
        append(appends + i)
        table.invalidate_caches()
        start = time.perf_counter()
        read_all(check=False)
        rebuild_s += time.perf_counter() - start
    reads = appends * len(plans)
    return {
        "appends": appends,
        "reads_checked": (appends + 1) * len(plans),
        "index_builds_after_first_read": builds,
        "catchups": catchups,
        "catch_up_us_per_read": round(catch_up_s / reads * 1e6, 1),
        "rebuild_us_per_read": round(rebuild_s / reads * 1e6, 1),
    }


def _drop_metric_caches(dbs) -> None:
    clear_plan_caches()
    for db in dbs:
        if hasattr(db, "_variant_cache"):
            del db._variant_cache


def _test_suite_workload(
    num_examples: int,
    candidates_per_gold: int,
    num_variants: int,
    workers: int | None = None,
) -> dict[str, float]:
    spider = dataset("spider_like")
    pairs = []
    for example in spider.examples:
        if example.is_vis:
            continue
        pairs.append((example.sql, spider.database(example.db_id)))
        if len(pairs) >= num_examples:
            break
    evaluations = len(pairs) * candidates_per_gold
    jobs = [
        (gold, gold, db)
        for gold, db in pairs
        for _ in range(candidates_per_gold)
    ]

    def optimized() -> None:
        if workers is not None and workers > 1:
            assert all(
                test_suite_match_many(jobs, num_variants, max_workers=workers)
            )
        else:
            for gold, db in pairs:
                for _ in range(candidates_per_gold):
                    assert test_suite_match(gold, gold, db, num_variants)

    def unoptimized() -> None:
        # the metric's variant loop on one unoptimized plan per gold, run
        # directly: no plan cache, no result cache, one worker
        for gold, db in pairs:
            query = parse_sql(gold)
            plan = compile_query(query, db.schema, db, optimize=False)
            probes = tuple(_literal_values(query))
            variants = _cached_variants(db, num_variants, 0, probes)
            for _ in range(candidates_per_gold):
                for variant in variants:
                    try:
                        expected = plan.run(variant)
                    except SQLError:
                        continue
                    assert results_equal(plan.run(variant), expected)

    def run(evaluate) -> float:
        best = 0.0
        for _ in range(2):
            _drop_metric_caches(db for _, db in pairs)
            start = time.perf_counter()
            evaluate()
            best = max(best, evaluations / (time.perf_counter() - start))
        return best

    slow = run(unoptimized)
    fast = run(optimized)
    stats = {
        "baseline_qps": round(slow, 2),
        "optimized_qps": round(fast, 2),
        "speedup": round(fast / slow, 2),
        "evaluations": evaluations,
        "num_variants": num_variants,
    }
    if workers is not None:
        stats["workers"] = workers
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="small sizes for a CI smoke run",
    )
    add_trace_arg(parser)
    add_workers_arg(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        db = _bench_db(num_customers=300, num_orders=600, num_products=80)
        iters, sweep, examples, candidates, variants = 20, 40, 4, 3, 4
        appends = 40
    else:
        db = _bench_db(num_customers=4000, num_orders=12000, num_products=500)
        iters, sweep, examples, candidates, variants = 30, 150, 20, 8, 8
        appends = 200

    # the sweep is a correctness gate, not a timing: the reference
    # interpreter it compares against needs a small database to be feasible
    sweep_db = (
        db if args.smoke
        else _bench_db(num_customers=300, num_orders=600, num_products=80)
    )
    checked = _differential_sweep(sweep_db, sweep)
    print(f"differential sweep: {checked} random queries agree with the "
          "reference interpreter")

    appended = _append_then_read(appends)
    print(
        f"append_then_read: {appended['reads_checked']} reads match the "
        f"reference across {appended['appends']} appends; "
        f"{appended['index_builds_after_first_read']} index builds, "
        f"{appended['catchups']} catch-ups; "
        f"{appended['catch_up_us_per_read']} us/read caught up vs "
        f"{appended['rebuild_us_per_read']} us/read rebuilt"
    )

    results = _micro_workloads(db, iters)
    results["test_suite_evaluation"] = _test_suite_workload(
        examples, candidates, variants, workers=args.workers
    )

    print_table(
        "Optimizer throughput: cost-based plans vs written-order plans"
        + (" [smoke]" if args.smoke else ""),
        ["workload", "baseline q/s", "optimized q/s", "speedup"],
        [
            (
                name,
                f"{stats['baseline_qps']:,.1f}",
                f"{stats['optimized_qps']:,.1f}",
                f"{stats['speedup']:,.1f}x",
            )
            for name, stats in results.items()
        ],
    )

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_optimizer.json",
    )
    payload = {
        "smoke": args.smoke,
        "differential_queries_checked": checked,
        "append_then_read": appended,
        "workloads": results,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.normpath(out_path)}")

    if args.trace:
        for name, sql in _workloads(db):
            with traced_run(name):
                execute(parse_sql(sql), db)
    return results


if __name__ == "__main__":
    main()
