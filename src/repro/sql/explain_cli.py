"""``python -m repro explain`` — physical-plan inspection CLI.

Compiles a SQL query against a generated domain database with the
cost-based optimizer, executes it once, and prints the physical operator
tree annotated with estimated vs. actual row counts, e.g.::

    python -m repro explain "SELECT name FROM products WHERE price > 500"
    python -m repro explain --domain healthcare --no-optimizer "SELECT ..."

``--counters`` additionally dumps the plan/parse LRU cache counters and
the statistics/index cache counters, which is how cache behaviour is
inspected during benchmark runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.data.domains import domain_by_name, domain_names
from repro.data.generator import DatabaseGenerator
from repro.errors import SQLError
from repro.sql import index as _index
from repro.sql import stats as _stats
from repro.sql.plan import (
    compile_query,
    parse_cache_stats,
    parse_sql_cached,
    plan_cache_stats,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="print the physical plan for a SQL query "
        "(estimates vs. actuals)",
    )
    parser.add_argument("sql", help="the SQL query to explain")
    parser.add_argument(
        "--domain",
        default="sales",
        choices=domain_names(),
        help="curated domain schema/database to plan against",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--rows", type=int, default=200, help="rows per generated table"
    )
    parser.add_argument(
        "--no-optimizer",
        action="store_true",
        help="show the unoptimized (written-order, full-scan) plan",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="also print plan/parse/stats/index cache counters",
    )
    args = parser.parse_args(argv)

    db = DatabaseGenerator(seed=args.seed).populate(
        domain_by_name(args.domain), rows_per_table=args.rows
    )
    try:
        plan = compile_query(
            parse_sql_cached(args.sql), db.schema, db,
            optimize=not args.no_optimizer,
        )
    except SQLError as exc:
        print(f"explain: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(plan.explain(db))
    meta = {k: v for k, v in plan.describe().items() if v}
    if meta:
        print("-- operators: " + ", ".join(
            f"{key}={value}" for key, value in sorted(meta.items())
        ))

    if args.counters:
        _print_counters()
    return 0


def _print_counters() -> None:
    sections = (
        ("plan cache", plan_cache_stats()),
        ("parse cache", parse_cache_stats()),
        ("stats cache", _stats.stats_cache_stats()),
        ("index cache", _index.index_cache_stats()),
    )
    print("-- caches")
    for label, counters in sections:
        rendered = ", ".join(
            f"{key}={value}" for key, value in counters.items()
        )
        print(f"   {label}: {rendered}")


if __name__ == "__main__":
    sys.exit(main())
