"""Result-cache throughput and invalidation correctness.

Measures the versioned result cache (:mod:`repro.sql.rescache`) the way
the interactive-NLI traffic shape exercises it:

1. ``corpus_warm_hits`` — gold queries from the spider/wikisql/nvbench
   corpora executed repeatedly: uncached QPS (``plan_for().run()`` with
   plans warm, so the delta isolates *result* caching) vs warm-hit QPS,
   asserting the >= 5x acceptance floor per corpus;
2. ``mutation_storm`` — randomly interleaved ``append`` /
   ``replace_rows`` / ``invalidate_caches`` mutations with cached reads,
   every read compared byte-identical against a direct uncached plan run
   (the invalidation-correctness differential: zero stale serves).

Results print as tables and are written to ``BENCH_result_cache.json``
at the repository root.  ``--smoke`` (alias ``--quick``) shrinks sizes
for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import print_table

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.errors import SQLError
from repro.sql import rescache
from repro.sql.executor import execute
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, plan_for
from repro.sql.unparser import to_sql

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT

CORPORA = ("spider_like", "wikisql_like", "nvbench_like")


def _bench_db(num_products: int, num_sales: int) -> Database:
    schema = Schema(
        db_id="cachebench",
        tables=(
            TableSchema(
                "products",
                (
                    Column("id", NUM),
                    Column("name", TXT),
                    Column("category", TXT),
                    Column("price", NUM),
                ),
                primary_key="id",
            ),
            TableSchema(
                "sales",
                (
                    Column("id", NUM),
                    Column("product_id", NUM),
                    Column("quantity", NUM),
                    Column("region", TXT),
                ),
                primary_key="id",
            ),
        ),
    )
    rng = random.Random(42)
    db = Database(schema=schema)
    categories = ("tools", "food", "toys", "books")
    regions = ("north", "south", "east", "west")
    for i in range(num_products):
        db.insert(
            "products",
            (i, f"product_{i}", rng.choice(categories), rng.randrange(5, 500)),
        )
    for i in range(num_sales):
        db.insert(
            "sales",
            (i, rng.randrange(num_products), rng.randrange(1, 20),
             rng.choice(regions)),
        )
    return db


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


# ----------------------------------------------------------------------
# 1. corpus warm-hit throughput
# ----------------------------------------------------------------------
def _build_corpus(name: str, limit: int):
    """Build the named corpus at interactive-workload table sizes.

    The harness-scaled datasets keep tables tiny so metric benchmarks
    finish fast; here execution cost is the thing under test, so tables
    get the builders' documented row counts scaled up to something an
    interactive database actually holds.
    """
    from repro.datasets.sql import build_cross_domain, build_wikisql_like
    from repro.datasets.vis import build_nvbench_like

    if name == "spider_like":
        return build_cross_domain(
            num_examples=2 * limit, rows_per_table=64, seed=11
        )
    if name == "wikisql_like":
        return build_wikisql_like(
            num_examples=2 * limit, num_databases=max(10, limit // 3),
            rows_per_table=128, seed=11,
        )
    return build_nvbench_like(
        num_examples=2 * limit, rows_per_table=64, seed=11
    )


def _corpus_jobs(name: str, limit: int) -> list:
    """Parsed ``(query, db)`` pairs for the first runnable gold queries."""
    corpus = _build_corpus(name, limit)
    jobs = []
    for example in corpus.examples:
        db = corpus.database(example.db_id)
        try:
            query = parse_sql(example.sql)
            execute(query, db)  # skip golds that cannot run
        except SQLError:
            continue
        jobs.append((query, db))
        if len(jobs) >= limit:
            break
    return jobs


def _corpus_warm_hits(limit: int, floor: float) -> dict:
    results = {}
    for name in CORPORA:
        jobs = _corpus_jobs(name, limit)

        def run_all() -> None:
            for query, db in jobs:
                execute(query, db)

        def run_uncached() -> None:
            for query, db in jobs:
                plan_for(query, db.schema, db).run(db)

        run_uncached()  # warm the plan cache so the delta is result caching
        cold = _time(run_uncached, iters=1, repeat=3) * len(jobs)
        rescache.clear_result_cache()
        run_all()  # populate
        warm = _time(run_all, iters=1, repeat=3) * len(jobs)
        stats = rescache.rescache_stats()
        # repeated golds in a corpus share one entry, so misses can
        # undershoot the job count but never exceed it
        assert 0 < stats["misses"] <= len(jobs), name
        assert stats["hits"] >= 3 * len(jobs), name
        speedup = warm / cold
        assert speedup >= floor, (
            f"{name}: warm-hit speedup {speedup:.1f}x below the "
            f"{floor:.0f}x acceptance floor"
        )
        results[name] = {
            "queries": len(jobs),
            "cold_qps": round(cold, 1),
            "warm_qps": round(warm, 1),
            "speedup": round(speedup, 1),
        }
        rescache.clear_result_cache()
    return results


# ----------------------------------------------------------------------
# 2. mutation storm (invalidation-correctness differential)
# ----------------------------------------------------------------------
STORM_SQL = [
    "SELECT name FROM products WHERE price > 100",
    "SELECT COUNT(*) FROM sales",
    "SELECT category, COUNT(*), AVG(price) FROM products GROUP BY category",
    "SELECT p.name, s.quantity FROM products AS p "
    "JOIN sales AS s ON p.id = s.product_id WHERE s.quantity > 15",
    "SELECT region, SUM(quantity) FROM sales GROUP BY region "
    "ORDER BY SUM(quantity) DESC",
]


def _mutation_storm(db: Database, steps: int) -> dict:
    rescache.clear_result_cache()
    rng = random.Random(7)
    queries = [parse_sql(sql) for sql in STORM_SQL]
    mutations = reads = 0
    for step in range(steps):
        roll = rng.random()
        if roll < 0.2:
            db.table("products").append(
                (10_000 + step, f"storm_{step}", "tools", rng.randrange(5, 500))
            )
            mutations += 1
        elif roll < 0.3:
            table = db.table(rng.choice(("products", "sales")))
            rows = list(table.rows)
            rng.shuffle(rows)
            table.replace_rows(rows)
            mutations += 1
        elif roll < 0.35:
            db.table("sales").invalidate_caches()
            mutations += 1
        query = rng.choice(queries)
        cached = execute(query, db)
        oracle = plan_for(query, db.schema, db).run(db)
        assert cached.columns == oracle.columns, to_sql(query)
        assert cached.rows == oracle.rows, (
            f"stale result served at step {step}: {to_sql(query)}"
        )
        assert cached.ordered == oracle.ordered, to_sql(query)
        reads += 1
    stats = rescache.rescache_stats()
    assert stats["hits"] > 0, "the storm never hit the cache"
    out = {
        "reads": reads,
        "mutations": mutations,
        "hits": stats["hits"],
        "stale_serves": 0,
    }
    rescache.clear_result_cache()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="small sizes for a CI smoke run",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        db = _bench_db(num_products=500, num_sales=1000)
        limit, steps = 30, 60
    else:
        db = _bench_db(num_products=5000, num_sales=10000)
        limit, steps = 120, 300

    clear_plan_caches()
    corpus = _corpus_warm_hits(limit, floor=5.0)
    storm = _mutation_storm(db, steps)

    print_table(
        "Warm-hit throughput on corpus gold queries"
        + (" [smoke]" if args.smoke else ""),
        ["corpus", "queries", "cold q/s", "warm q/s", "speedup"],
        [
            (
                name,
                stats["queries"],
                f"{stats['cold_qps']:,.1f}",
                f"{stats['warm_qps']:,.1f}",
                f"{stats['speedup']:,.1f}x",
            )
            for name, stats in corpus.items()
        ],
    )
    print_table(
        "Mutation storm (cached reads vs uncached oracle)",
        ["reads", "mutations", "cache hits", "stale serves"],
        [(storm["reads"], storm["mutations"], storm["hits"],
          storm["stale_serves"])],
    )

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_result_cache.json",
    )
    payload = {
        "smoke": args.smoke,
        "cpus": os.cpu_count(),
        "corpus_warm_hits": corpus,
        "mutation_storm": storm,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")
    return payload


if __name__ == "__main__":
    main()
