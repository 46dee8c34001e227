"""``python -m repro trace`` — run one query and print its span tree.

Runs a SQL query through the full engine path — parse, lint, plan,
execute — with tracing enabled, and prints the resulting hierarchical
span tree: wall time per phase, per-operator actual row counts (the same
numbers ``explain()`` reports), and subquery timings, e.g.::

    python -m repro trace "SELECT name FROM products WHERE price > 500"
    python -m repro trace --domain healthcare --json "SELECT ..."

``--json`` additionally dumps the tree as JSON (one object per root
span) for machine consumption; ``--metrics`` dumps the process metrics
registry snapshot after the run.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.data.domains import domain_by_name, domain_names
from repro.data.generator import DatabaseGenerator
from repro.errors import SQLError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.sql.lint import lint_query
from repro.sql.parser import parse_sql
from repro.sql.plan import attach_operator_spans, compile_query


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="run a SQL query with tracing on and print the span tree",
    )
    parser.add_argument("sql", help="the SQL query to trace")
    parser.add_argument(
        "--domain",
        default="sales",
        choices=domain_names(),
        help="curated domain schema/database to run against",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--rows", type=int, default=200, help="rows per generated table"
    )
    parser.add_argument(
        "--no-optimizer",
        action="store_true",
        help="trace the unoptimized (written-order, full-scan) plan",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also dump the span tree as JSON",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="also dump the metrics-registry snapshot after the run",
    )
    args = parser.parse_args(argv)

    db = DatabaseGenerator(seed=args.seed).populate(
        domain_by_name(args.domain), rows_per_table=args.rows
    )
    with _obs_trace.tracing() as roots:
        error = _trace_one(args.sql, db, optimize=not args.no_optimizer)

    for root in roots:
        print(root.render().rstrip())
    if args.json:
        print(json.dumps([root.to_dict() for root in roots], indent=2))
    if args.metrics:
        snapshot = _obs_metrics.get_registry().snapshot()
        print("-- metrics")
        for name in sorted(snapshot):
            print(f"   {name}: {snapshot[name]}")
    if error is not None:
        print(f"trace: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    return 0


def _trace_one(sql: str, db, optimize: bool = True) -> SQLError | None:
    """Run *sql* under a ``repro.sql.query`` root span; return any SQLError.

    Each engine phase gets its own child span; the plan phase compiles a
    fresh plan (with the cost-based optimizer unless *optimize* is
    false), bypassing the plan cache, and the execute span grows the
    per-operator subtree via :func:`repro.sql.plan.attach_operator_spans`,
    so its ``actual_rows`` attributes match ``explain()`` actuals exactly.
    """
    with _obs_trace.span("repro.sql.query", sql=sql) as root:
        try:
            with _obs_trace.span("repro.sql.parse.phase"):
                query = parse_sql(sql)
            with _obs_trace.span("repro.sql.lint.phase") as lint_span:
                report = lint_query(query, db.schema)
                lint_span.set_attr("diagnostics", len(report.diagnostics))
            with _obs_trace.span("repro.sql.plan.phase") as plan_span:
                plan = compile_query(query, db.schema, db, optimize)
                plan_span.set_attr("optimized", plan.optimized)
            with _obs_trace.span("repro.sql.execute") as exec_span:
                result, state = plan.run_traced(db)
                exec_span.set_attr("rows", len(result.rows))
                attach_operator_spans(exec_span, plan, state)
        except SQLError as exc:
            root.set_attr("error", str(exc))
            return exc
        root.set_attr("rows", len(result.rows))
    return None


if __name__ == "__main__":
    sys.exit(main())
