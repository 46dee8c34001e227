"""Correctness gate and answer accuracy, run after timing.

Both go through ``execute`` and so through the result cache, which is
why they run only after a run's timings and counters have been read.

A *record* is ``(turn, response, db)``: the question with its gold
programs, what the system answered (``None`` when it raised), and the
database state the turn ran against.
"""

from __future__ import annotations

from repro.data.database import Database, Table
from repro.errors import ReproError
from repro.metrics import execution_match, vis_component_match
from repro.metrics.execution import results_equal
from repro.sql.executor import execute_reference
from repro.sql.plan import compile_query
from repro.sql.parser import parse_sql


def state_of(db: Database) -> tuple:
    """The state of an append-only database: every table's row count."""
    return tuple(len(table.rows) for table in db.tables.values())


def view_at(db: Database, state: tuple) -> Database:
    """*db* as it was at *state*, rebuilt from row-list prefixes.

    Writes only ever append, so the first ``n`` rows of each table are
    exactly the rows it held when the count was ``n``.
    """
    return Database(
        schema=db.schema,
        tables={
            name: Table(schema=table.schema, rows=table.rows[:count])
            for (name, table), count in zip(db.tables.items(), state)
        },
    )


def answered(response) -> bool:
    """Whether a system or serve response carries an answer."""
    return response is not None and response.kind in ("data", "chart")


def _same(result, expected) -> bool:
    return expected.columns == result.columns and results_equal(
        result, expected
    )


def _recompute(sql: str, db: Database, reference: bool):
    """*sql* on *db* from scratch: the reference interpreter, or a plan
    compiled without the plan cache, the optimizer or the vector kernels
    and run without the result cache."""
    query = parse_sql(sql)
    if reference:
        return execute_reference(query, db)
    return compile_query(query, db.schema, db, optimize=False,
                         vectorize=False).run(db)


def reference_violations(records) -> list[str]:
    """Answered SQL turns whose rows differ from a from-scratch run of
    their SQL on the database state they ran against.

    The last (largest) state each (SQL, database) pair is answered on is
    checked against ``execute_reference``.  An earlier state of the same
    pair (only ``write_mix`` has them: its writes grow the tables) is
    checked against a plan compiled without the plan cache, the optimizer
    and the vector kernels, on a fresh copy of that state that no plan,
    result, statistics, index or batch cache has seen.  A stale answer
    therefore fails either way; the reference interpreter's nested-loop
    joins, too slow to rerun on every grown state, still vouch for every
    distinct query on the grown data, and the unoptimized plans share
    neither the optimizer nor the vector path with the answers they
    check.
    """
    last_state: dict = {}
    for turn, response, db in records:
        if response is not None and response.kind == "data" and response.sql:
            last_state[response.sql, turn.db_key] = id(db)
    verdicts: dict = {}
    violations: list[str] = []
    for turn, response, db in records:
        if response is None or response.kind != "data" or not response.sql:
            continue
        key = (response.sql, id(db))
        if key not in verdicts:
            reference = last_state[response.sql, turn.db_key] == id(db)
            try:
                expected = _recompute(response.sql, db, reference)
            except ReproError:
                expected = None
            verdicts[key] = expected
        expected = verdicts[key]
        if expected is None or not _same(response.result, expected):
            violations.append(
                f"{turn.db_key}: {response.sql!r} answered rows that "
                f"differ from a from-scratch run on the same state"
            )
    return violations


def is_correct(turn, response, db: Database, memo: dict) -> bool:
    """Whether *response* matches *turn*'s gold answer on *db*."""
    if response is None:
        return False
    if turn.gold_vql is not None:
        if response.kind != "chart" or not response.vql:
            return False
        key = ("vis", response.vql, turn.gold_vql, id(db))
        if key not in memo:
            flags = vis_component_match(response.vql, turn.gold_vql, db)
            memo[key] = all(flags.values())
        return memo[key]
    if response.kind != "data" or not response.sql:
        return False
    key = ("sql", response.sql, turn.gold_sql, id(db))
    if key not in memo:
        memo[key] = execution_match(response.sql, turn.gold_sql, db)
    return memo[key]


def accuracy(records) -> float:
    """Share of records answered correctly (a failed turn is a miss)."""
    records = list(records)
    if not records:
        return 0.0
    memo: dict = {}
    hits = sum(is_correct(turn, resp, db, memo) for turn, resp, db in records)
    return hits / len(records)


def same_answers(first, other) -> bool:
    """Whether two passes over the same inputs answered identically."""
    if len(first) != len(other):
        return False
    for (_, a, _), (_, b, _) in zip(first, other):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if (a.kind, a.sql, a.vql) != (b.kind, b.sql, b.vql):
            return False
        if a.result is not None and not (
            b.result is not None and _same(b.result, a.result)
        ):
            return False
        if a.chart is not None and (
            b.chart is None or a.chart.points != b.chart.points
        ):
            return False
    return True
