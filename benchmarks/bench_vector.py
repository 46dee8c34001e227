"""Vectorized executor throughput: columnar kernels vs row-at-a-time plans.

Times the compiled plan engine with the vectorized backend
(:mod:`repro.sql.vector`) on and off — both sides run the same cost-based
optimizer, so the delta isolates the columnar kernels — on:

1. ``scan_filter`` — a multi-predicate filter over a large table
   (column-wise predicate kernels + selection vectors vs per-row
   closures);
2. ``hash_join`` — an equi-join with a selective probe-side filter
   (columnar build/probe vs row hash join);
3. ``group_aggregate`` — grouped COUNT/AVG over a large table
   (dict-of-buckets grouping + column aggregation);
4. ``order_by_limit`` — top-k with statically resolved sort keys;
5. ``group_having_minmax`` — grouped MIN/MAX over number and text
   columns behind a HAVING filter, ordered by an aggregate (the typed
   MIN/MAX folds and ORDER BY of :mod:`repro.data.values`).

Every workload first asserts the vectorized result is identical to
``execute_reference``, and each grouped one that its aggregate operator
ran vectorized.  A second section times the parallel evaluation
driver (:mod:`repro.eval.parallel`) on the test-suite metric at 1/2/4/8
workers — the recorded ``cpus`` field says how many cores the numbers
were collected on, since worker scaling is physically bounded by it.

Results print as tables and are written to ``BENCH_vector.json`` at the
repository root.  ``--smoke`` (alias ``--quick``) shrinks sizes for CI.
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
from repro.metrics.test_suite import test_suite_match_many
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, compile_query

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT

REGIONS = ("north", "south", "east", "west")
SEGMENTS = ("retail", "corporate", "public")


def _bench_db(num_customers: int, num_orders: int, num_products: int) -> Database:
    schema = Schema(
        db_id="vecbench",
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
    rng = random.Random(99)
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
    return [
        (
            # low-selectivity predicates: the cost model keeps the full
            # scan (no index driver), which is where kernels matter most
            "scan_filter",
            "SELECT name, score FROM customers "
            "WHERE region <> 'north' AND score > 100 AND score < 950",
        ),
        (
            "hash_join",
            "SELECT c.name, o.amount FROM orders AS o "
            "JOIN customers AS c ON c.id = o.customer_id "
            "WHERE o.amount > 100",
        ),
        (
            "group_aggregate",
            "SELECT region, COUNT(*), AVG(score) FROM customers "
            "GROUP BY region",
        ),
        (
            "order_by_limit",
            "SELECT name, score FROM customers "
            "WHERE score > 100 ORDER BY score DESC LIMIT 10",
        ),
        (
            "group_having_minmax",
            "SELECT region, MIN(score), MAX(name), COUNT(*) FROM customers "
            "GROUP BY region HAVING COUNT(*) >= 2 AND MAX(score) > 10 "
            "ORDER BY MIN(score), region",
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


def _micro_workloads(
    db: Database, parity_db: Database, iters: int
) -> dict[str, dict[str, float]]:
    results = {}
    for name, sql in _workloads(db):
        query = parse_sql(sql)
        row_plan = compile_query(
            query, db.schema, db, optimize=True, vectorize=False
        )
        vec_plan = compile_query(
            query, db.schema, db, optimize=True, vectorize=True
        )
        # reference parity on the small database (the interpreter's
        # nested-loop joins cannot face the full-size one), then row vs
        # vector parity at full size
        ref = execute_reference(query, parity_db)
        for plan in (row_plan, vec_plan):
            got = plan.run(parity_db)
            assert got.columns == ref.columns, name
            assert got.rows == ref.rows, name
            assert got.ordered == ref.ordered, name
        row_result = row_plan.run(db)
        vec_result = vec_plan.run(db)
        assert vec_result.rows == row_result.rows, name
        assert vec_result.ordered == row_result.ordered, name
        explain = vec_plan.explain(db)
        assert "vectorized=yes" in explain, name
        if "GROUP BY" in sql:
            aggregate = next(
                line for line in explain.splitlines()
                if line.lstrip().startswith("aggregate")
            )
            assert "vectorized=yes" in aggregate, name
        row = _time(lambda: row_plan.run(db), iters)
        fast = _time(lambda: vec_plan.run(db), iters)
        results[name] = {
            "row_qps": round(row, 2),
            "vector_qps": round(fast, 2),
            "speedup": round(fast / row, 2),
        }
    return results


def _drop_metric_caches(dbs) -> None:
    clear_plan_caches()
    for db in dbs:
        if hasattr(db, "_variant_cache"):
            del db._variant_cache


def _eval_scaling(
    num_examples: int,
    candidates_per_gold: int,
    num_variants: int,
    worker_counts: tuple[int, ...],
) -> dict[str, dict[str, float]]:
    """Test-suite evaluation QPS at each worker count (same workload)."""
    spider = dataset("spider_like")
    pairs = []
    for example in spider.examples:
        if example.is_vis:
            continue
        pairs.append((example.sql, spider.database(example.db_id)))
        if len(pairs) >= num_examples:
            break
    jobs = [
        (gold, gold, db)
        for gold, db in pairs
        for _ in range(candidates_per_gold)
    ]

    results = {}
    for workers in worker_counts:
        best = 0.0
        for _ in range(2):
            _drop_metric_caches(db for _, db in pairs)
            start = time.perf_counter()
            verdicts = test_suite_match_many(
                jobs, num_variants, max_workers=workers
            )
            assert all(verdicts)
            best = max(best, len(jobs) / (time.perf_counter() - start))
        results[str(workers)] = {"qps": round(best, 2)}
    base = results[str(worker_counts[0])]["qps"]
    for stats in results.values():
        stats["scaling"] = round(stats["qps"] / base, 2)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="small sizes for a CI smoke run",
    )
    add_workers_arg(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        db = _bench_db(num_customers=2000, num_orders=3000, num_products=100)
        iters, examples, candidates, variants = 10, 4, 3, 4
        worker_counts = (1, 2)
    else:
        db = _bench_db(num_customers=20000, num_orders=40000, num_products=500)
        iters, examples, candidates, variants = 15, 16, 6, 8
        worker_counts = (1, 2, 4, 8)
    if args.workers is not None:
        worker_counts = tuple(
            sorted({1, max(1, args.workers)} | set(worker_counts))
        )
    parity_db = (
        db if args.smoke
        else _bench_db(num_customers=400, num_orders=800, num_products=60)
    )

    micro = _micro_workloads(db, parity_db, iters)
    scaling = _eval_scaling(examples, candidates, variants, worker_counts)

    print_table(
        "Vectorized kernels vs row-at-a-time plans"
        + (" [smoke]" if args.smoke else ""),
        ["workload", "row q/s", "vector q/s", "speedup"],
        [
            (
                name,
                f"{stats['row_qps']:,.1f}",
                f"{stats['vector_qps']:,.1f}",
                f"{stats['speedup']:,.1f}x",
            )
            for name, stats in micro.items()
        ],
    )
    print_table(
        "Test-suite evaluation scaling by worker count "
        f"({os.cpu_count()} cpu(s) available)",
        ["workers", "eval q/s", "scaling"],
        [
            (workers, f"{stats['qps']:,.1f}", f"{stats['scaling']:,.2f}x")
            for workers, stats in scaling.items()
        ],
    )

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_vector.json"
    )
    payload = {
        "smoke": args.smoke,
        "cpus": os.cpu_count(),
        "workloads": micro,
        "test_suite_evaluation_by_workers": scaling,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")
    return payload


if __name__ == "__main__":
    main()
