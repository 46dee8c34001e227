"""The Fig. 1 pipeline, with an inspectable trace.

The survey's workflow has five stages: (1) the user's natural-language
input, (2) preprocessing, (3) translation into a functional representation
(SQL or a visualization specification), (4) execution against the
database, and (5) presentation of data or visuals back to the user, who
may then give feedback.  ``Pipeline.run`` executes those stages and
records a :class:`PipelineTrace` so examples and tests can observe each
one — the observable counterpart of the figure.

Between translation and execution an optional :class:`LintGate` stage
scores the candidate queries with the static-analysis engine
(:mod:`repro.sql.lint`) and prunes the ones carrying error-severity
diagnostics — the survey's execution-guided decoding idea applied *before*
execution, where rejecting a bad candidate costs microseconds instead of
a database round-trip.  The visualization branch has the analogous
:class:`~repro.vis.lint.VisLintGate` (re-exported here), which addition-
ally consults the static output-schema typer and the ``V``-rule catalog,
so a chart that could never render is rejected before its SQL even runs.
Both gates skip analysis that cannot change the answer: with one
distinct candidate the SQL gate does not lint at all, and the vis gate
runs only the chart checks that could trigger chart repair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.turn_cache import TurnCache, turn_key
from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import (
    CircuitOpenError,
    InjectedFault,
    ReproError,
    ResilienceError,
    SQLError,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.parsers.base import ParseRequest, Parser, ParseResult
from repro.parsers.vis.base import VisParser
from repro.resilience import ResiliencePolicy, Retry, breaker_for
from repro.resilience import deadline as _deadline
from repro.resilience.breaker import CLOSED as _BREAKER_CLOSED
from repro.resilience import faults as _faults
from repro.sql import rescache as _rescache
from repro.sql import vector as _vector
from repro.sql.ast import Query
from repro.sql.executor import Result, execute
from repro.sql.lint import LintReport, Severity, lint_query
from repro.sql.unparser import to_sql
from repro.systems.base import wants_visualization
from repro.vis.charts import Chart, render_chart
from repro.vis.lint.gate import VisGateDecision, VisLintGate
from repro.vis.vql import VQLQuery, parse_vql

_registry = _obs_metrics.get_registry()
_RUNS = _registry.counter("repro.pipeline.runs")
_ERRORS = _registry.counter("repro.pipeline.errors")
_DEGRADED_TURNS = _registry.counter("repro.pipeline.degraded.turns")
_DEGRADES = _registry.counter("repro.resilience.degrades")


#: the per-stage latency histograms, bound once rather than looked up by
#: a formatted name on every stage of every turn
_STAGE_SECONDS = {
    name: _registry.histogram(f"repro.pipeline.stage.{name}.seconds")
    for name in ("preprocess", "translate", "lint", "execute", "present")
}


@dataclass(frozen=True, slots=True)
class StageRecord:
    """One pipeline stage's outcome."""

    stage: str
    output: str
    seconds: float


@dataclass(frozen=True, slots=True)
class PipelineTrace:
    """The observable record of one request's path through Fig. 1.

    ``stages`` is always recorded; ``span`` is additionally set to the
    ``repro.pipeline.run`` root span (with one child per stage) when
    :mod:`repro.obs.trace` tracing is enabled, so the same request shows
    up in span trees next to the SQL engine's per-operator spans.

    Frozen, like all it holds, so the turn cache shares it uncopied.
    """

    question: str
    stages: tuple[StageRecord, ...] = ()
    functional_expression: str | None = None
    #: a query turn's chosen SQL as an AST (``functional_expression`` is
    #: its text), so consumers such as session history never parse the
    #: text back; None on chart turns and when translation failed
    query: Query | None = None
    result: Result | None = None
    chart: Chart | None = None
    error: str | None = None
    span: object | None = None
    #: True when this trace was replayed from the pipeline's turn cache
    #: rather than re-running the stages (same question, same history,
    #: same database state — see :meth:`Pipeline.run`).
    cached: bool = False
    #: Degradation-ladder rungs taken this turn (``stage:rung`` strings,
    #: e.g. ``translate:rule-fallback``); empty on a healthy turn.  Only
    #: populated when the pipeline runs with a :class:`ResiliencePolicy`.
    degraded: tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.error is None and (
            self.result is not None or self.chart is not None
        )

    def describe(self) -> str:
        lines = [f"question: {self.question}"]
        for record in self.stages:
            lines.append(
                f"  [{record.stage}] {record.output}"
                f" ({record.seconds * 1000:.1f} ms)"
            )
        if self.degraded:
            lines.append(f"  degraded: {', '.join(self.degraded)}")
        if self.error:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)


@dataclass(slots=True)
class _TurnBuilder:
    """The mutable turn the stages and ladders write; frozen once."""

    question: str
    stages: list[StageRecord] = field(default_factory=list)
    functional_expression: str | None = None
    query: Query | None = None
    result: Result | None = None
    chart: Chart | None = None
    error: str | None = None
    span: object | None = None
    degraded: list[str] = field(default_factory=list)

    def freeze(self) -> PipelineTrace:
        return PipelineTrace(
            self.question, tuple(self.stages), self.functional_expression,
            self.query, self.result, self.chart, self.error, self.span,
            degraded=tuple(self.degraded),
        )


@dataclass
class GateDecision:
    """What the :class:`LintGate` did with one candidate list.

    ``chosen`` is the candidate the gate ranked best (None when every
    candidate was pruned, or when there was only one — callers should
    fall back to the parser's own best, so the gate can only help);
    ``kept``/``pruned`` partition the linted candidates, each paired with
    its lint report, and ``unjudged`` holds a lone candidate the gate
    passed through without linting because there was nothing to choose.
    """

    chosen: Query | None
    kept: list[tuple[Query, LintReport]]
    pruned: list[tuple[Query, LintReport]]
    unjudged: list[Query] = field(default_factory=list)

    @property
    def examined(self) -> int:
        """Distinct candidates seen, whether or not they were linted."""
        return len(self.kept) + len(self.pruned) + len(self.unjudged)

    def describe(self) -> str:
        if self.unjudged:
            return "1 candidate, nothing to choose"
        return (
            f"kept {len(self.kept)}/{self.examined} candidate(s), "
            f"pruned {len(self.pruned)}"
        )


class LintGate:
    """Score and prune candidate queries by static-diagnostic severity.

    The execution-guided decoders the survey describes verify candidates
    by *running* them; the gate applies the cheap static subset of that
    check first.  A candidate is pruned when its lint report carries a
    diagnostic at or above ``prune_at`` severity; survivors are ranked by
    a weighted penalty (errors ≫ warnings ≫ infos), ties broken by the
    parser's original ranking.

    With at most one distinct candidate there is nothing to choose: the
    parser's best stands whatever its lint report says, so the gate
    returns ``chosen=None`` without linting.
    """

    #: penalty weights per severity for candidate ranking
    WEIGHTS = {Severity.ERROR: 100.0, Severity.WARNING: 3.0, Severity.INFO: 1.0}

    def __init__(self, prune_at: Severity = Severity.ERROR) -> None:
        self.prune_at = prune_at

    def report(self, query: Query, schema: Schema) -> LintReport:
        return lint_query(query, schema)

    def score(self, report: LintReport) -> float:
        """Weighted badness of a report; 0.0 means lint-clean."""
        return sum(self.WEIGHTS[d.severity] for d in report.diagnostics)

    def decide(self, candidates: list[Query], schema: Schema) -> GateDecision:
        """Lint two or more distinct candidates; pick the cleanest survivor."""
        distinct: list[Query] = []
        for candidate in candidates:
            if candidate not in distinct:
                distinct.append(candidate)
        if len(distinct) <= 1:
            if distinct and _deadline._ACTIVE:
                _deadline.checkpoint("lint gate")
            return GateDecision(
                chosen=None, kept=[], pruned=[], unjudged=distinct
            )
        kept: list[tuple[Query, LintReport]] = []
        pruned: list[tuple[Query, LintReport]] = []
        best: Query | None = None
        best_score = float("inf")
        for candidate in distinct:
            if _deadline._ACTIVE:
                _deadline.checkpoint("lint gate")
            report = self.report(candidate, schema)
            if any(
                self.prune_at <= d.severity for d in report.diagnostics
            ):
                pruned.append((candidate, report))
                continue
            kept.append((candidate, report))
            score = self.score(report)
            if score < best_score:
                best, best_score = candidate, score
        return GateDecision(chosen=best, kept=kept, pruned=pruned)


class Pipeline:
    """Preprocess → translate → [lint] → execute → present, with tracing.

    Pass a :class:`~repro.resilience.ResiliencePolicy` to run the turn
    fault-tolerantly: stages get deadline budgets, flaky stages get
    retries and per-component circuit breakers, and a stage that still
    fails drops onto its degradation ladder (LLM parser → rule parser,
    vector engine → row engine, cached result on executor timeout, chart
    → data-only) instead of failing the turn — see DESIGN.md §Resilience.
    With no faults injected and budgets unexpired, a resilient run takes
    exactly the same code paths as a plain one, so outputs are identical
    (``tests/test_resilience.py`` runs that differential).
    """

    def __init__(
        self,
        sql_parser: Parser,
        vis_parser: VisParser,
        lint_gate: LintGate | None = None,
        vis_lint_gate: VisLintGate | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.sql_parser = sql_parser
        self.vis_parser = vis_parser
        self.lint_gate = lint_gate
        self.vis_lint_gate = vis_lint_gate
        self.resilience = resilience
        #: the one whole-turn cache (repro.core.turn_cache): sessions and
        #: serve workers sharing this pipeline share it, so concurrent
        #: identical turns run once
        self.turn_cache = TurnCache()
        # lazy rule-based fallback parsers for the translate ladder, and
        # one Retry per retried stage (its jitter RNG advances
        # deterministically across the pipeline's lifetime)
        self._sql_fallback: Parser | None = None
        self._vis_fallback: VisParser | None = None
        self._retries: dict[str, Retry] = {}
        # per-component (breaker, retry-or-None) pairs resolved once —
        # the guarded stage wrappers run on every turn and must not pay
        # registry and policy lookups each time — and the stage-budget
        # table flattened to one dict.get per stage
        self._guard_plans: dict[str, tuple] = {}
        self._stage_budgets: dict[str, float] = (
            dict(resilience.stage_deadlines) if resilience is not None else {}
        )

    def run(
        self,
        question: str,
        db: Database,
        knowledge: str | None = None,
        history: list | None = None,
    ) -> PipelineTrace:
        """Run one natural-language request through the Fig. 1 pipeline.

        Stages: *preprocess* (query/visualization intent), *translate*
        (the configured SQL or Vis parser), optional *lint* (the
        :class:`LintGate` candidate filter, when configured), *execute*
        (SQL engine or chart renderer), and *present*.  Never raises on a
        failed request: the returned :class:`PipelineTrace` records every
        stage that ran, its rendered output and wall time, plus ``error``
        when a stage failed.  *knowledge* is an optional external-
        knowledge string (BIRD-style); *history* is the list of prior
        ``(question, Query)`` turns for conversational follow-ups.

        Observability: every run increments ``repro.pipeline.runs`` (and
        ``repro.pipeline.errors`` on failure) and feeds the per-stage
        ``repro.pipeline.stage.<name>.seconds`` latency histograms; with
        tracing enabled the run also emits a ``repro.pipeline.run`` span
        tree, attached to the trace as ``trace.span``.

        Repeated turns are cached end-to-end: when the result cache is
        enabled, tracing is off and no fault plan is active, an identical
        ``(question, knowledge, history)`` against an unmutated database
        replays the finished :class:`PipelineTrace` (marked
        ``cached=True``) from :attr:`turn_cache` instead of re-running the
        stages, and a concurrent identical turn waits for the one in
        flight — see :mod:`repro.core.turn_cache`.
        """
        _RUNS.inc()
        trace = self.turn_cache.get_or_compute(
            turn_key(question, db, knowledge, history),
            lambda: self._compute_turn(question, db, knowledge, history),
        )
        if trace.error is not None:
            _ERRORS.inc()
        return trace

    def _compute_turn(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> PipelineTrace:
        if self.resilience is not None:
            turn = self._run_turn_resilient(question, db, knowledge, history)
        else:
            turn = self._run_turn(question, db, knowledge, history)
        if turn.degraded:
            _DEGRADED_TURNS.inc()
        return turn.freeze()

    def _run_turn(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> _TurnBuilder:
        if _obs_trace._ENABLED:
            with _obs_trace.span(
                "repro.pipeline.run", question=question
            ) as span:
                turn = self._run_stages(question, db, knowledge, history)
                span.set_attr("error", turn.error)
                turn.span = span
        else:
            turn = self._run_stages(question, db, knowledge, history)
        return turn

    def _run_turn_resilient(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> _TurnBuilder:
        """One turn under the policy's deadline, guaranteed not to raise.

        The turn budget becomes the ambient deadline for every stage;
        stage-level faults are handled by the per-stage ladders, and
        anything that still escapes (an expired budget between stages, a
        fault in un-laddered glue) is converted into an errored-but-
        returned turn here — a resilient pipeline's contract is that
        ``run`` never raises.
        """
        policy = self.resilience
        bounded = policy.turn_deadline is not None
        if bounded:
            token = _deadline.push_budget(policy.turn_deadline, policy.clock)
        try:
            turn = self._run_turn(question, db, knowledge, history)
        except Exception as exc:  # belt and braces: never raise
            turn = _TurnBuilder(question)
            turn.error = f"turn aborted: {exc}"
            self._mark_degraded(turn, "turn:aborted")
        finally:
            if bounded:
                _deadline.pop_budget(token)
        if turn.degraded and turn.span is not None:
            turn.span.set_attr("degraded", ",".join(turn.degraded))
        return turn

    def _run_stages(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> _TurnBuilder:
        turn = _TurnBuilder(question)

        is_vis = self._stage(
            turn,
            "preprocess",
            lambda: wants_visualization(question),
            render=lambda v: "intent: visualization" if v else "intent: query",
        )

        request = ParseRequest(
            question=question,
            schema=db.schema,
            db=db,
            knowledge=knowledge,
            history=list(history or []),
        )

        if is_vis:
            vql = self._stage(
                turn,
                "translate",
                lambda: self._translate_vis(request, turn),
                render=lambda v: v or "(no translation)",
            )
            if vql is None:
                turn.error = "translation failed"
                return turn
            # the program the gate parsed, so render does not parse again
            program = None
            if self.vis_lint_gate is not None:
                decision = self._stage(
                    turn,
                    "lint",
                    lambda: self.vis_lint_gate.decide([vql], db.schema, db=db),
                    render=lambda d: d.describe(),
                )
                if decision.chosen is not None:
                    vql = decision.chosen
                program = decision.program
            turn.functional_expression = vql
            chart = self._stage(
                turn,
                "execute",
                lambda: self._render_chart(
                    vql if program is None else program, db, turn
                ),
                render=lambda c: (
                    f"chart with {len(c.points)} points"
                    if c is not None
                    else (
                        "degraded to data-only result"
                        if turn.result is not None
                        else "(render failed)"
                    )
                ),
            )
            if chart is None:
                if turn.result is not None:
                    # render ladder degraded to data-only: present the
                    # underlying rows like a query turn
                    data = turn.result
                    self._stage(
                        turn,
                        "present",
                        lambda: ", ".join(data.columns),
                        render=lambda c: f"columns: {c}",
                    )
                    return turn
                turn.error = "chart rendering failed"
                return turn
            turn.chart = chart
            self._stage(turn, "present", chart.title_line, render=str)
            return turn

        parse_result = self._stage(
            turn,
            "translate",
            lambda: self._translate_sql(request, turn),
            render=lambda r: (
                to_sql(r.query) if r.query is not None else "(no translation)"
            ),
        )
        if parse_result.query is None:
            turn.error = "translation failed"
            return turn
        query = parse_result.query
        # the translate stage's output is already this query's SQL text
        translated_sql = turn.stages[-1].output
        if self.lint_gate is not None:
            candidates = [query] + [
                c for c in parse_result.candidates if c != query
            ]
            decision = self._stage(
                turn,
                "lint",
                lambda: self.lint_gate.decide(candidates, db.schema),
                render=lambda d: d.describe(),
            )
            if decision.chosen is not None:
                query = decision.chosen
        turn.functional_expression = (
            translated_sql if query is parse_result.query else to_sql(query)
        )
        turn.query = query
        result = self._stage(
            turn,
            "execute",
            lambda: self._execute(query, db, turn),
            render=lambda r: (
                f"{len(r.rows)} row(s)" if r is not None else "(failed)"
            ),
        )
        if result is None:
            turn.error = "execution failed"
            return turn
        turn.result = result
        self._stage(
            turn,
            "present",
            lambda: ", ".join(result.columns),
            render=lambda c: f"columns: {c}",
        )
        return turn

    # ------------------------------------------------------------------
    def _stage(self, turn: _TurnBuilder, name: str, fn, render):
        budget = self._stage_budgets.get(name)
        traced = _obs_trace._ENABLED
        start = time.perf_counter()
        if budget is not None:
            token = _deadline.push_budget(budget, self.resilience.clock)
        try:
            if traced:
                with _obs_trace.span(f"repro.pipeline.stage.{name}") as span:
                    value = fn()
                    output = render(value)
                    span.set_attr("output", output)
            else:
                value = fn()
        finally:
            if budget is not None:
                _deadline.pop_budget(token)
        seconds = time.perf_counter() - start
        _STAGE_SECONDS[name].observe(seconds)
        if not traced:
            output = render(value)
        turn.stages.append(
            StageRecord(stage=name, output=output, seconds=seconds)
        )
        return value

    # ------------------------------------------------------------------
    # resilient stage wrappers and degradation ladders
    # ------------------------------------------------------------------
    def _mark_degraded(self, turn: _TurnBuilder, rung: str) -> None:
        turn.degraded.append(rung)
        _DEGRADES.inc()
        _registry.counter(f"repro.resilience.degrade.{rung}").inc()

    def _retry_for(self, stage: str) -> Retry:
        retry = self._retries.get(stage)
        if retry is None:
            policy = self.resilience
            retry = self._retries[stage] = Retry(
                policy.retry,
                name=stage,
                clock=policy.clock,
                sleep=policy.sleep,
            )
        return retry

    def _guarded(self, component: str, stage: str, fn, organic: tuple = ()):
        """Run one primary stage attempt under its breaker (and retries).

        Raises :class:`CircuitOpenError` without calling *fn* when the
        component's breaker is open; otherwise runs *fn* (through the
        stage's :class:`Retry` when the policy retries this stage) and
        feeds the outcome back to the breaker.  Callers catch what this
        raises and take the stage's degradation ladder.

        *organic* lists exception types that are normal domain outcomes
        (an invalid query raising :class:`SQLError`, say) rather than
        component failures — they propagate without counting against the
        breaker, so a streak of bad *inputs* can never trip the circuit
        and degrade good ones.  :class:`ResilienceError`\\ s always count,
        even when an organic base class would match them.
        """
        plan = self._guard_plans.get(component)
        if plan is None:
            policy = self.resilience
            plan = self._guard_plans[component] = (
                breaker_for(
                    component,
                    failure_threshold=policy.breaker_failure_threshold,
                    recovery_timeout=policy.breaker_recovery_timeout,
                    success_threshold=policy.breaker_success_threshold,
                    clock=policy.clock,
                ),
                self._retry_for(stage)
                if stage in policy.retry_stages
                else None,
            )
        breaker, retry = plan
        # inline the closed-state fast paths of allow()/record_success():
        # this wrapper is on every serving turn and the breaker is almost
        # always closed and quiet, so skip the method calls entirely then
        if breaker._state is not _BREAKER_CLOSED and not breaker.allow():
            raise CircuitOpenError(component)
        try:
            if retry is not None:
                result = retry.call(fn)
            else:
                result = fn()
        except Exception as exc:
            if isinstance(exc, ResilienceError) or not isinstance(
                exc, organic
            ):
                breaker.record_failure()
            raise
        if (
            breaker._state is not _BREAKER_CLOSED
            or breaker._consecutive_failures
        ):
            breaker.record_success()
        return result

    def _translate_sql(
        self, request: ParseRequest, turn: _TurnBuilder
    ) -> ParseResult:
        if self.resilience is None:
            return self.sql_parser.parse(request)

        def attempt():
            _faults.fire("translate")
            return self.sql_parser.parse(request)

        try:
            return self._guarded("parser.sql", "translate", attempt)
        except Exception:
            # ladder: LLM/neural parser -> keyword rule parser.  The
            # fallback is deterministic and model-free; if even it fails,
            # the stage reports "no translation" like any parser miss.
            self._mark_degraded(turn, "translate:rule-fallback")
            if self._sql_fallback is None:
                from repro.parsers.rule import KeywordRuleParser

                self._sql_fallback = KeywordRuleParser()
            try:
                return self._sql_fallback.parse(request)
            except Exception:
                return ParseResult(query=None, notes="fallback parser failed")

    def _translate_vis(
        self, request: ParseRequest, turn: _TurnBuilder
    ) -> str | None:
        if self.resilience is None:
            return self.vis_parser.parse_vis(request)

        def attempt():
            _faults.fire("translate")
            out = self.vis_parser.parse_vis(request)
            if out is not None:
                out = _faults.corrupt_text("translate", out)
            return out

        try:
            return self._guarded("parser.vis", "translate", attempt)
        except Exception:
            self._mark_degraded(turn, "translate:rule-fallback")
            if self._vis_fallback is None:
                from repro.parsers.vis.rule import DataToneVisParser

                self._vis_fallback = DataToneVisParser()
            try:
                return self._vis_fallback.parse_vis(request)
            except Exception:
                return None

    def _execute(
        self, query, db: Database, turn: _TurnBuilder
    ) -> Result | None:
        if self.resilience is None:
            try:
                return execute(query, db)
            except SQLError:
                return None

        def attempt():
            if _vector._VECTOR_ENABLED:
                _faults.fire("engine.vector")
            _faults.fire("execute")
            return execute(query, db)

        try:
            return self._guarded(
                "executor", "execute", attempt, organic=(SQLError,)
            )
        except SQLError:
            # organic query failure: same outcome as the plain pipeline
            return None
        except Exception as exc:
            return self._execute_ladder(query, db, turn, exc)

    def _execute_ladder(
        self, query, db: Database, turn: _TurnBuilder, exc: Exception
    ) -> Result | None:
        """The execute degradation ladder, rung by rung.

        Rung 1 (vector-engine faults only): re-run on the row engine —
        both engines are differentially tested identical, so this costs
        latency, not correctness.  Rung 2: serve a result-cache ``peek``
        — sound because the probe is stamped with current version tokens.
        Exhausted: report execution failure (the stage records it; the
        turn still completes).
        """
        if isinstance(exc, InjectedFault) and exc.site == "engine.vector":
            previous = _vector.set_vector_enabled(False)
            try:
                self._mark_degraded(turn, "execute:vector-off")
                try:
                    return execute(query, db)
                except SQLError:
                    return None
                except ResilienceError:
                    pass  # keep descending
            finally:
                _vector.set_vector_enabled(previous)
        cached = _rescache.peek(query, db)
        if cached is not None:
            self._mark_degraded(turn, "execute:cached-result")
            return cached
        self._mark_degraded(turn, "execute:failed")
        return None

    def _render_chart(
        self, vql: VQLQuery | str, db: Database, turn: _TurnBuilder
    ) -> Chart | None:
        if self.resilience is None:
            try:
                return render_chart(vql, db)
            except ReproError:
                return None

        def attempt():
            _faults.fire("render")
            return render_chart(vql, db)

        try:
            return self._guarded(
                "renderer", "render", attempt, organic=(ReproError,)
            )
        except ResilienceError:
            # ladder: chart -> data-only answer.  Execute the VQL's
            # underlying SQL and surface the rows without the chart; the
            # caller presents them like a query turn.
            try:
                program = parse_vql(vql) if isinstance(vql, str) else vql
                result = execute(program.query, db)
            except ReproError:
                self._mark_degraded(turn, "render:failed")
                return None
            self._mark_degraded(turn, "render:data-only")
            turn.result = result
            return None
        except ReproError:
            # organic render failure: same outcome as the plain pipeline
            return None
