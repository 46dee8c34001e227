"""The vis diagnostic engine: SQL lint + static typing + the V-rule pass.

Reuses the SQL lint substrate (:class:`~repro.sql.lint.diagnostics.
Diagnostic`, :class:`~repro.sql.lint.diagnostics.LintReport`,
:class:`~repro.sql.lint.diagnostics.Severity`) so vis and SQL findings
share one severity order, one rendering, and one gate-scoring scheme.
Every diagnostic the engine emits also increments the per-code
``repro.vis.lint.diag.<code>`` counter in the process metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import VQLParseError
from repro.obs import metrics as _obs_metrics
from repro.sql.ast import Query
from repro.sql.lint.diagnostics import LintReport, Severity
from repro.sql.lint.engine import lint_query
from repro.sql.typer import ResultSchema, infer_output_schema
from repro.vis.vql import VQLQuery, parse_vql

_registry = _obs_metrics.get_registry()
_LINTED = _registry.counter("repro.vis.lint.runs")


def _count_diag(code: str) -> None:
    _registry.counter(f"repro.vis.lint.diag.{code}").inc()


@dataclass
class VisLintReport(LintReport):
    """One vis lint run: SQL + vis diagnostics plus the inferred schema.

    Extends :class:`~repro.sql.lint.diagnostics.LintReport` with the VQL
    source text, the parsed program that was judged and the static
    :class:`~repro.sql.typer.ResultSchema` the V-rules inferred (both None
    when the VQL itself did not parse).  Carrying ``program`` lets the
    vis gate hand the chosen candidate to the renderer without a
    reparse.  The inherited views (``errors``, ``ok``, ``counts``,
    ``render``) work unchanged over the combined diagnostic list.
    """

    vql: str | None = None
    output: ResultSchema | None = None
    program: VQLQuery | None = None

    @property
    def vis_diagnostics(self) -> list:
        """Only the V-code findings (the SQL engine's are pass-through)."""
        return [d for d in self.diagnostics if d.code.startswith("V")]


def lint_vis_query(query: Query, schema: Schema) -> VisLintReport:
    """The query-level half of :func:`lint_vis`: SQL diagnostics and the
    static output schema.

    Both depend only on the data query, never on the chart drawn over
    it, so one result serves every chart type tried on the same query
    (chart repair) through :func:`lint_vis_chart`.
    """
    sql_report = lint_query(query, schema)
    return VisLintReport(
        diagnostics=sql_report.diagnostics,
        analysis=sql_report.analysis,
        lineage=sql_report.lineage,
        output=infer_output_schema(query, schema),
    )


def lint_vis_chart(
    vql: VQLQuery,
    query_report: VisLintReport,
    schema: Schema,
    db: Database | None = None,
) -> VisLintReport:
    """The chart-level half of :func:`lint_vis`: the ``V``-rule pass.

    *query_report* is :func:`lint_vis_query` of ``vql.query``; its
    findings open the returned report, followed by the V-rule findings
    for *vql*'s chart.
    """
    from repro.vis.lint.rules import run_vis_rules

    _LINTED.inc()
    report = VisLintReport(
        diagnostics=list(query_report.diagnostics),
        analysis=query_report.analysis,
        lineage=query_report.lineage,
        output=query_report.output,
        program=vql,
    )
    vis_start = len(report.diagnostics)
    run_vis_rules(vql, report.output, schema, report, db=db)
    for diag in report.diagnostics[vis_start:]:
        _count_diag(diag.code)
    return report


def lint_vis(
    vql: VQLQuery, schema: Schema, db: Database | None = None
) -> VisLintReport:
    """Run every vis analysis pass over a parsed *vql* program.

    *db* is optional: when given, cardinality rules (pie slice count) use
    :mod:`repro.sql.stats` NDV estimates; without it those rules stay
    silent.  SQL diagnostics from the inner query are folded into the same
    report, so a vis report is a strict superset of the SQL one.
    """
    return lint_vis_chart(vql, lint_vis_query(vql.query, schema), schema, db)


def lint_vql_text(
    text: str, schema: Schema, db: Database | None = None
) -> VisLintReport:
    """Lint a VQL *string*: parse failures become a fatal ``V001``."""
    try:
        vql = parse_vql(text)
    except VQLParseError as exc:
        report = VisLintReport(vql=text)
        report.add(
            "V001", Severity.ERROR, str(exc), clause="parse", fatal=True
        )
        _LINTED.inc()
        _count_diag("V001")
        return report
    report = lint_vis(vql, schema, db=db)
    report.vql = text
    return report
