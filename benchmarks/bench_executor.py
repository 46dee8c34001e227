"""Executor throughput: reference interpreter vs compiled query plans.

Candidate-heavy LLM strategies (self-consistency, retrieval-revision)
multiply executions per example, so executor throughput bounds evaluation
scale.  This benchmark times the tree-walking reference interpreter
(``execute_reference``) against the compiled plan engine (``execute``,
which routes through :mod:`repro.sql.plan`) on:

1. micro workloads — scan/filter, hash join, group-by aggregation, a
   correlated EXISTS subquery, and an uncorrelated ``IN`` subquery whose
   key column shadows the outer table's (hoisted: it runs once, not once
   per outer row) over a synthetic two-table database;
2. an end-to-end test-suite evaluation — N candidates scored against one
   gold over fuzzed database variants, comparing the pre-caching
   interpreter loop with the cached :func:`test_suite_match` hot path.

Results print as a table and are written to ``BENCH_executor.json`` at the
repository root.  ``--quick`` shrinks sizes for a CI smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import add_workers_arg, dataset, print_table

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.errors import SQLError
from repro.metrics.execution import results_equal
from repro.metrics.test_suite import (
    _literal_values,
    make_database_variants,
    test_suite_match,
    test_suite_match_many,
)
from repro.sql.executor import execute, execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, plan_for

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT

REGIONS = ("north", "south", "east", "west")
STATUSES = ("open", "paid", "void")


def _bench_db(num_customers: int, num_orders: int) -> Database:
    schema = Schema(
        db_id="bench",
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
                "orders",
                (
                    Column("id", NUM),
                    Column("customer_id", NUM),
                    Column("amount", NUM),
                    Column("status", TXT),
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
            (i, f"customer_{i}", rng.choice(REGIONS), rng.randrange(100)),
        )
    for i in range(num_orders):
        db.insert(
            "orders",
            (
                i,
                rng.randrange(num_customers),
                round(rng.random() * 500, 2),
                rng.choice(STATUSES),
            ),
        )
    return db


WORKLOADS = [
    (
        "scan_filter",
        "SELECT name, score FROM customers "
        "WHERE score > 50 AND region = 'west'",
    ),
    (
        "join",
        "SELECT c.name, o.amount FROM orders AS o JOIN customers AS c "
        "ON o.customer_id = c.id WHERE o.amount > 100",
    ),
    (
        "group_by",
        "SELECT c.region, COUNT(*), AVG(o.amount) FROM orders AS o "
        "JOIN customers AS c ON o.customer_id = c.id GROUP BY c.region",
    ),
    (
        "correlated_subquery",
        "SELECT name FROM customers AS c WHERE EXISTS "
        "(SELECT 1 FROM orders AS o "
        "WHERE o.customer_id = c.id AND o.amount > 400)",
    ),
    (
        "uncorrelated_in_subquery",
        "SELECT name FROM customers WHERE id IN "
        "(SELECT id FROM orders WHERE amount > 400)",
    ),
]


def _time(fn, iters: int, repeat: int = 2) -> float:
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
    # plan_for().run() skips the result cache: every compiled execution
    # runs its plan instead of replaying the first run's rows
    results = {}
    for name, sql in WORKLOADS:
        query = parse_sql(sql)
        ref = execute_reference(query, db)
        compiled = execute(query, db)
        assert compiled.columns == ref.columns and compiled.rows == ref.rows
        interp = _time(lambda: execute_reference(query, db), iters)
        fast = _time(lambda: plan_for(query, db.schema, db).run(db), iters * 10)
        results[name] = {
            "interpreter_qps": round(interp, 2),
            "compiled_qps": round(fast, 2),
            "speedup": round(fast / interp, 2),
        }
    return results


def _reference_test_suite_match(
    predicted: str, gold: str, db: Database, num_variants: int, seed: int = 0
) -> bool:
    """The pre-caching test-suite loop: parse and execute per candidate."""
    try:
        gold_query = parse_sql(gold)
        pred_query = parse_sql(predicted)
    except SQLError:
        return False
    probes = tuple(_literal_values(gold_query) | _literal_values(pred_query))
    for variant in make_database_variants(db, num_variants, seed, probes):
        try:
            gold_result = execute_reference(gold_query, variant)
        except SQLError:
            continue
        try:
            pred_result = execute_reference(pred_query, variant)
        except SQLError:
            return False
        if not results_equal(pred_result, gold_result):
            return False
    return True


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

    def run(match_fn):
        for gold, db in pairs:
            for _ in range(candidates_per_gold):
                assert match_fn(gold, gold, db, num_variants)

    start = time.perf_counter()
    run(_reference_test_suite_match)
    interp = evaluations / (time.perf_counter() - start)

    jobs = [
        (gold, gold, db)
        for gold, db in pairs
        for _ in range(candidates_per_gold)
    ]
    best = 0.0
    for _ in range(2):
        _drop_metric_caches(db for _, db in pairs)
        start = time.perf_counter()
        if workers is not None and workers > 1:
            assert all(
                test_suite_match_many(jobs, num_variants, max_workers=workers)
            )
        else:
            run(test_suite_match)
        best = max(best, evaluations / (time.perf_counter() - start))
    stats = {
        "interpreter_qps": round(interp, 2),
        "compiled_qps": round(best, 2),
        "speedup": round(best / interp, 2),
        "evaluations": evaluations,
        "num_variants": num_variants,
    }
    if workers is not None:
        stats["workers"] = workers
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for a CI smoke run",
    )
    add_workers_arg(parser)
    args = parser.parse_args(argv)

    if args.quick:
        db = _bench_db(num_customers=60, num_orders=90)
        iters, examples, candidates, variants = 3, 4, 3, 4
    else:
        db = _bench_db(num_customers=400, num_orders=600)
        iters, examples, candidates, variants = 5, 20, 8, 8

    results = _micro_workloads(db, iters)
    results["test_suite_evaluation"] = _test_suite_workload(
        examples, candidates, variants, workers=args.workers
    )

    print_table(
        "Executor throughput: interpreter vs compiled plans"
        + (" [quick]" if args.quick else ""),
        ["workload", "interpreter q/s", "compiled q/s", "speedup"],
        [
            (
                name,
                f"{stats['interpreter_qps']:,.1f}",
                f"{stats['compiled_qps']:,.1f}",
                f"{stats['speedup']:,.1f}x",
            )
            for name, stats in results.items()
        ],
    )

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_executor.json"
    )
    payload = {"quick": args.quick, "workloads": results}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.normpath(out_path)}")
    return results


if __name__ == "__main__":
    main()
