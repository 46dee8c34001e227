"""The vis lint gate: prune and rank candidate VQL programs statically.

The Text-to-Vis counterpart of :class:`repro.core.pipeline.LintGate`.
Candidates arrive as VQL *strings* (that is what vis parsers emit); each
is linted end to end — parse, SQL diagnostics, output-schema typing, the
``V``-rule catalog — and pruned when it carries a diagnostic at or above
the gate's severity threshold.  Survivors are ranked by the same weighted
penalty the SQL gate uses, ties broken by the parser's original order.

One extra move the SQL gate has no analogue for: **chart repair**.  When a
candidate is pruned *only* by chart/encoding mismatches (``V1xx`` type
errors), the data query itself is fine — only the chart choice is wrong —
so the gate retries the same query under the other chart types and keeps
the cleanest repaired variant.  ``VisGateDecision.repaired`` records when
the chosen candidate came from that path.

Defined here (not in :mod:`repro.core.pipeline`) so vis parsers can use
the gate without importing the pipeline module — that import would cycle
through :mod:`repro.core`'s registry back into the parsers package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.database import Database
from repro.data.schema import Schema
from repro.obs import metrics as _obs_metrics
from repro.resilience import deadline as _deadline
from repro.errors import VQLParseError
from repro.sql.lint.diagnostics import LintReport, Severity
from repro.sql.typer import infer_output_schema
from repro.vis.lint.engine import (
    VisLintReport,
    lint_vis,
    lint_vis_chart,
    lint_vis_query,
    lint_vql_text,
)
from repro.vis.lint.rules import run_vis_rules
from repro.vis.vql import CHART_TYPES, VQLQuery, parse_vql, to_vql

_registry = _obs_metrics.get_registry()
_DECISIONS = _registry.counter("repro.vis.gate.decisions")
_PRUNED = _registry.counter("repro.vis.gate.pruned")
_REPAIRED = _registry.counter("repro.vis.gate.repaired")
_FALLBACKS = _registry.counter("repro.vis.gate.fallbacks")

#: error codes that indict only the chart choice, not the data query —
#: candidates pruned solely by these are eligible for chart repair
_CHART_ONLY_CODES = frozenset({"V101", "V102", "V103", "V105"})


@dataclass
class VisGateDecision:
    """What the :class:`VisLintGate` did with one candidate list.

    ``chosen`` is the candidate the gate ranked best (None when every
    candidate was pruned and no repair succeeded — callers should fall
    back to the parser's own best, so the gate can only help);
    ``kept``/``pruned`` partition the linted candidates, each paired with
    its :class:`~repro.vis.lint.engine.VisLintReport`, and ``unjudged``
    holds a lone candidate the gate passed through without a full lint
    because nothing could replace it.  ``repaired`` is True when
    ``chosen`` is a chart-repaired rewrite rather than one of the
    original candidates.  ``program`` is the parsed form of ``chosen`` —
    or, when nothing was chosen, of the first candidate the caller falls
    back to (None if that did not parse) — so the caller can render it
    without parsing the text again.
    """

    chosen: str | None
    kept: list[tuple[str, VisLintReport]] = field(default_factory=list)
    pruned: list[tuple[str, VisLintReport]] = field(default_factory=list)
    repaired: bool = False
    program: VQLQuery | None = None
    unjudged: list[str] = field(default_factory=list)

    @property
    def examined(self) -> int:
        """Distinct candidates seen, whether or not they were linted."""
        return len(self.kept) + len(self.pruned) + len(self.unjudged)

    def describe(self) -> str:
        if self.unjudged:
            return "1 candidate, nothing to choose"
        text = (
            f"kept {len(self.kept)}/{self.examined} candidate(s), "
            f"pruned {len(self.pruned)}"
        )
        if self.repaired:
            text += ", chart repaired"
        return text


class VisLintGate:
    """Score and prune candidate VQL programs by static-diagnostic severity.

    Mirrors the SQL :class:`~repro.core.pipeline.LintGate` contract —
    ``decide`` never raises and ``chosen=None`` tells the caller to fall
    back — but works on VQL text and consults the full vis diagnostic
    stack, so a syntactically perfect query charting text on a scatter
    axis is pruned before it costs an execution.

    A lone candidate has no rival, so only chart repair can change the
    answer.  The gate then parses it, types its output and runs just the
    chart-only ``V``-rules; the full lint (SQL diagnostics, every
    ``V``-rule, pruning and repair) runs only when one of those rules
    blocks the chart.
    """

    #: penalty weights per severity for candidate ranking
    WEIGHTS = {Severity.ERROR: 100.0, Severity.WARNING: 3.0, Severity.INFO: 1.0}

    def __init__(
        self,
        prune_at: Severity = Severity.ERROR,
        repair_chart: bool = True,
    ) -> None:
        self.prune_at = prune_at
        self.repair_chart = repair_chart

    def report(
        self, vql_text: str, schema: Schema, db: Database | None = None
    ) -> VisLintReport:
        return lint_vql_text(vql_text, schema, db=db)

    def score(self, report: VisLintReport) -> float:
        """Weighted badness of a report; 0.0 means lint-clean."""
        return sum(self.WEIGHTS[d.severity] for d in report.diagnostics)

    def decide(
        self,
        candidates: list[str],
        schema: Schema,
        db: Database | None = None,
    ) -> VisGateDecision:
        """Pick the cleanest distinct candidate, or repair a lone one."""
        _DECISIONS.inc()
        distinct: list[str] = []
        for candidate in candidates:
            if candidate is not None and candidate not in distinct:
                distinct.append(candidate)
        programs: dict[str, VQLQuery | None] = {}
        if len(distinct) == 1:
            lone = distinct[0]
            if _deadline._ACTIVE:
                _deadline.checkpoint("vis lint gate")
            try:
                program = parse_vql(lone)
            except VQLParseError:
                program = None
            if (
                program is None
                or not self.repair_chart
                or not self._chart_blocked(program, schema)
            ):
                # nothing to choose and nothing to repair: the parser's
                # best stands, whatever the rest of the lint would say
                return VisGateDecision(
                    chosen=None, unjudged=[lone], program=program
                )
            programs[lone] = program
        kept: list[tuple[str, VisLintReport]] = []
        pruned: list[tuple[str, VisLintReport]] = []
        best: str | None = None
        best_score = float("inf")
        for candidate in distinct:
            if _deadline._ACTIVE:
                _deadline.checkpoint("vis lint gate")
            program = programs.get(candidate)
            if program is None:
                report = self.report(candidate, schema, db=db)
                programs[candidate] = report.program
            else:
                report = lint_vis(program, schema, db=db)
                report.vql = candidate
            if any(
                self.prune_at <= d.severity for d in report.diagnostics
            ):
                pruned.append((candidate, report))
                _PRUNED.inc()
                continue
            kept.append((candidate, report))
            score = self.score(report)
            if score < best_score:
                best, best_score = candidate, score

        repaired = False
        program = programs.get(best) if best is not None else None
        if best is None and self.repair_chart:
            best, program = self._repair(pruned, schema, db)
            repaired = best is not None
            if repaired:
                _REPAIRED.inc()
        if best is None:
            _FALLBACKS.inc()
            if distinct:
                program = programs[distinct[0]]
        return VisGateDecision(
            chosen=best,
            kept=kept,
            pruned=pruned,
            repaired=repaired,
            program=program,
        )

    # ------------------------------------------------------------------
    def _chart_blocked(self, vql: VQLQuery, schema: Schema) -> bool:
        """Whether a chart-only rule blocks *vql* at the gate's threshold.

        That is the one way a lone candidate's answer can change: the
        full path repairs a candidate only when every blocker is in
        :data:`_CHART_ONLY_CODES`, so without one of them the lone
        candidate stands whether or not its full lint is clean.
        """
        findings = LintReport()
        run_vis_rules(
            vql,
            infer_output_schema(vql.query, schema),
            schema,
            findings,
            codes=_CHART_ONLY_CODES,
        )
        return any(self.prune_at <= d.severity for d in findings.diagnostics)

    def _repair(
        self,
        pruned: list[tuple[str, VisLintReport]],
        schema: Schema,
        db: Database | None,
    ) -> tuple[str | None, VQLQuery | None]:
        """Retry chart-mismatch-only rejects under the other chart types.

        The query-level lint (SQL diagnostics, output schema) is computed
        once per candidate and shared by every chart type tried on it.
        Returns the cleanest rewrite's text and parsed program, or
        ``(None, None)`` when no rewrite lints clean.
        """
        best: str | None = None
        best_program: VQLQuery | None = None
        best_score = float("inf")
        for candidate, report in pruned:
            blockers = {
                d.code
                for d in report.diagnostics
                if self.prune_at <= d.severity
            }
            if not blockers or not blockers <= _CHART_ONLY_CODES:
                continue
            vql = report.program  # linted above, so it parsed
            query_report = lint_vis_query(vql.query, schema)
            for chart in CHART_TYPES:
                if chart == vql.chart_type:
                    continue
                rewritten = vql.with_chart(chart)
                retry = lint_vis_chart(rewritten, query_report, schema, db)
                if any(
                    self.prune_at <= d.severity for d in retry.diagnostics
                ):
                    continue
                score = self.score(retry)
                if score < best_score:
                    best, best_score = to_vql(rewritten), score
                    best_program = rewritten
        return best, best_program
