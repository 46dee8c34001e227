"""Lint-gate throughput: static analysis vs execution as a candidate filter.

The survey's execution-guided decoding (LGESQL-like stack) filters
candidate SQL by *running* it; the lint gate filters by *analysing* it.
This benchmark quantifies the trade:

1. **throughput** — queries/second for scope-only validation, the full
   multi-pass lint, and actual execution, over every gold query of a
   Spider-like sample;
2. **gate effect** — how often the lint gate's candidate ranking changes
   the chosen query, and what fraction of corrupted candidates each
   severity threshold prunes.  At the error threshold it asserts that the
   gate prunes exactly the injected corruptions and that each prune
   changes the choice.
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import dataset, print_table

from repro.core.pipeline import LintGate
from repro.sql.executor import execute
from repro.sql.lint import Severity, lint_query
from repro.sql.parser import parse_sql


def _gold(ds):
    out = []
    for example in ds.examples:
        if example.is_vis:
            continue
        db = ds.database(example.db_id)
        out.append((parse_sql(example.sql), db))
    return out


def _rate(label, queries, fn, repeat=3):
    best = 0.0
    for _ in range(repeat):
        start = time.perf_counter()
        for query, db in queries:
            fn(query, db)
        elapsed = time.perf_counter() - start
        best = max(best, len(queries) / elapsed)
    return (label, f"{best:,.0f} q/s")


def _throughput():
    spider = dataset("spider_like")
    queries = _gold(spider)
    rows = [
        _rate(
            "scope-only lint (is_valid path)",
            queries,
            lambda q, db: lint_query(q, db.schema, scope_only=True),
        ),
        _rate(
            "full lint (types + rules + lineage)",
            queries,
            lambda q, db: lint_query(q, db.schema),
        ),
        _rate("execute against the database", queries,
              lambda q, db: execute(q, db)),
    ]
    print_table(
        f"Lint vs execution throughput ({len(queries)} gold queries)",
        ["filter", "throughput"],
        rows,
    )


def _corrupt(query):
    """Derive a plausibly-wrong candidate: break one column reference."""
    from dataclasses import replace

    from repro.sql.ast import ColumnRef, Select

    select = query
    while not isinstance(select, Select):
        select = select.left
    items = list(select.items)
    for index, item in enumerate(items):
        if isinstance(item.expr, ColumnRef):
            broken = replace(
                item, expr=replace(item.expr, column="nonexistent_col")
            )
            items[index] = broken
            return replace(select, items=tuple(items))
    return None


def _gate_effect():
    spider = dataset("spider_like")
    queries = _gold(spider)
    rows = []
    for threshold in (Severity.ERROR, Severity.WARNING):
        gate = LintGate(prune_at=threshold)
        pruned = examined = changed = injected = 0
        start = time.perf_counter()
        for query, db in queries:
            bad = _corrupt(query)
            injected += bad is not None
            candidates = [bad, query] if bad is not None else [query]
            decision = gate.decide(candidates, db.schema)
            examined += decision.examined
            pruned += len(decision.pruned)
            if decision.chosen is not None and decision.chosen != candidates[0]:
                changed += 1
        elapsed = time.perf_counter() - start
        if threshold is Severity.ERROR:
            assert pruned == changed == injected, (
                f"error-threshold gate pruned {pruned} and changed "
                f"{changed} choices for {injected} injected corruptions"
            )
        rows.append(
            (
                f"prune at >= {threshold.value}",
                f"{pruned}/{examined}",
                changed,
                f"{len(queries) / elapsed:,.0f} decisions/s",
            )
        )
    print_table(
        "Gate effect (1 corrupted candidate injected per query)",
        ["threshold", "pruned/examined", "choice changed", "rate"],
        rows,
    )


def main():
    _throughput()
    _gate_effect()


if __name__ == "__main__":
    main()
