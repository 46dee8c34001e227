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

from dataclasses import dataclass, field, fields
from time import perf_counter

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
from repro.sql import plan as _plan
from repro.sql import rescache as _rescache
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


#: the per-stage latency histograms, fed together once per computed turn
#: (one lock round-trip for the turn's stages, see Pipeline._compute_turn)
_STAGE_SECONDS = _obs_metrics.HistogramGroup({
    name: _registry.histogram(f"repro.pipeline.stage.{name}.seconds")
    for name in ("preprocess", "translate", "lint", "execute", "present")
})


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
    #: The preprocess stage's decision: True when the question asked for
    #: a chart, so the turn took the visualization branch — also when it
    #: ended data-only (render ladder) or failed.  False on a turn aborted
    #: before preprocessing finished.
    vis_intent: bool = False

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


def _slot_constructor(cls):
    """A positional constructor for the frozen, slotted dataclass *cls*.

    ``build(*values)`` returns the same object as ``cls(*values)`` with
    every field given.  The generated frozen ``__init__`` stores each
    field through ``object.__setattr__``; writing each slot through its
    descriptor takes about half the time, and the per-turn path builds
    every record.  *cls* must have no ``__post_init__``.
    """
    names = [f.name for f in fields(cls)]
    namespace = {"new": object.__new__, "cls": cls}
    for name in names:
        namespace[f"set_{name}"] = getattr(cls, name).__set__
    body = "".join(f"    set_{name}(obj, {name})\n" for name in names)
    exec(
        f"def build({', '.join(names)}):\n"
        f"    obj = new(cls)\n{body}    return obj\n",
        namespace,
    )
    return namespace["build"]


_new_stage_record = _slot_constructor(StageRecord)
_new_trace = _slot_constructor(PipelineTrace)


# Each stage's output text, rendered from the stage's value.  Module
# functions rather than per-turn closures: Pipeline._stage takes the
# stage's work and its renderer as plain callables plus arguments.
def _intent_output(is_vis: bool) -> str:
    return "intent: visualization" if is_vis else "intent: query"


def _vql_output(vql: str | None) -> str:
    return vql or "(no translation)"


def _translation_output(parse_result: ParseResult) -> str:
    if parse_result.query is None:
        return "(no translation)"
    return to_sql(parse_result.query)


def _decision_output(decision) -> str:
    return decision.describe()


def _rows_output(result: Result | None) -> str:
    return f"{len(result.rows)} row(s)" if result is not None else "(failed)"


def _rendered_output(rendered: Chart | Result | None) -> str:
    if rendered is None:
        return "(render failed)"
    if isinstance(rendered, Chart):
        return f"chart with {len(rendered.points)} points"
    return "degraded to data-only result"


def _columns_output(columns: str) -> str:
    return f"columns: {columns}"


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
        ``repro.pipeline.errors`` on failure); every computed turn feeds
        the per-stage ``repro.pipeline.stage.<name>.seconds`` latency
        histograms once, one observation per stage that ran, when it
        finishes (a replayed turn feeds none).  With tracing enabled the
        run also emits a ``repro.pipeline.run`` span tree, attached to
        the trace as ``trace.span``.

        Repeated turns are cached end-to-end: when the result cache is
        enabled, tracing is off and no fault plan is active, an identical
        ``(question, knowledge, history)`` against an unmutated database
        replays the finished :class:`PipelineTrace` (marked
        ``cached=True``) from :attr:`turn_cache` instead of re-running the
        stages, and a concurrent identical turn waits for the one in
        flight — see :mod:`repro.core.turn_cache`.  Under the same
        conditions a chart turn whose VQL translation was already linted
        and rendered on this database state replays those stages.
        """
        _RUNS.inc()
        key = turn_key(question, db, knowledge, history)
        trace = self.turn_cache.get_or_compute(
            key,
            self._compute_turn,
            question,
            db,
            knowledge,
            history,
            None if key is None else key[-1],
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
        state: tuple | None,
    ) -> PipelineTrace:
        """Run the stages once and build the turn's frozen trace.

        *state* is the turn key's database-state token, None when the
        turn bypasses the turn cache (and so the stored chart stages).

        With a resilience policy the turn budget is the ambient deadline
        for every stage, and anything that escapes the stage ladders (an
        expired budget between stages, a fault in un-laddered glue) is
        converted into an errored-but-returned turn — a resilient
        pipeline's contract is that ``run`` never raises.  Either way
        the stages that finished feed their latency histograms here,
        once, even when the turn raised or was aborted.
        """
        stages: list[StageRecord] = []
        degraded: list[str] = []
        policy = self.resilience
        bounded = policy is not None and policy.turn_deadline is not None
        if bounded:
            token = _deadline.push_budget(policy.turn_deadline, policy.clock)
        try:
            if _obs_trace._ENABLED:
                trace = self._run_traced(
                    question, db, knowledge, history, stages, degraded
                )
            else:
                trace = self._run_stages(
                    question, db, knowledge, history, stages, degraded, None,
                    state,
                )
        except Exception as exc:
            if policy is None:
                raise
            # belt and braces: the aborted turn reports only its abort
            degraded = []
            self._mark_degraded(degraded, "turn:aborted")
            trace = PipelineTrace(
                question,
                error=f"turn aborted: {exc}",
                degraded=tuple(degraded),
            )
        finally:
            if bounded:
                _deadline.pop_budget(token)
            _STAGE_SECONDS.observe_many(
                [(record.stage, record.seconds) for record in stages]
            )
        if degraded:
            _DEGRADED_TURNS.inc()
        return trace

    def _run_traced(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
        stages: list[StageRecord],
        degraded: list[str],
    ) -> PipelineTrace:
        """:meth:`_run_stages` inside a ``repro.pipeline.run`` span."""
        with _obs_trace.span("repro.pipeline.run", question=question) as span:
            trace = self._run_stages(
                question, db, knowledge, history, stages, degraded, span,
                None,
            )
            span.set_attr("error", trace.error)
        if degraded:
            span.set_attr("degraded", ",".join(degraded))
        return trace

    def _run_stages(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
        stages: list[StageRecord],
        degraded: list[str],
        span,
        state: tuple | None,
    ) -> PipelineTrace:
        is_vis = self._stage(
            stages, "preprocess", _intent_output,
            wants_visualization, question,
        )
        request = ParseRequest(
            question, db.schema, db, knowledge, list(history or [])
        )
        if is_vis:
            outcome = self._vis_stages(request, db, stages, degraded, state)
        else:
            outcome = self._sql_stages(request, db, stages, degraded)
        expression, query, result, chart, error = outcome
        return _new_trace(
            question, tuple(stages), expression, query, result, chart,
            error, span, False, tuple(degraded), is_vis,
        )

    def _vis_stages(
        self,
        request: ParseRequest,
        db: Database,
        stages: list[StageRecord],
        degraded: list[str],
        state: tuple | None,
    ) -> tuple:
        """Translate → [lint] → render → present for a chart request.

        With a database-state token *state*, the stages after translate
        replay from the turn cache's stored chart stages when this VQL
        was rendered on this state before (fresh timings, stored
        outputs), and a healthy rendered chart is stored for the next.

        Returns ``(functional_expression, query, result, chart, error)``.
        """
        vql = self._stage(
            stages, "translate", _vql_output,
            self._translate_vis, request, degraded,
        )
        if vql is None:
            return None, None, None, None, "translation failed"
        if state is not None:
            start = perf_counter()
            stored = self.turn_cache.chart_stages(vql, state)
            if stored is not None:
                chosen, chart, outputs = stored
                for name, output in outputs:
                    now = perf_counter()
                    stages.append(_new_stage_record(name, output, now - start))
                    start = now
                return chosen, None, None, chart, None
            translated, first = vql, len(stages)
        # the program the gate parsed, so render does not parse again
        program = None
        if self.vis_lint_gate is not None:
            decision = self._stage(
                stages, "lint", _decision_output,
                self.vis_lint_gate.decide, [vql], db.schema, db,
            )
            if decision.chosen is not None:
                vql = decision.chosen
            program = decision.program
        rendered = self._stage(
            stages, "execute", _rendered_output,
            self._render_chart, vql if program is None else program, db,
            degraded,
        )
        if rendered is None:
            return vql, None, None, None, "chart rendering failed"
        if isinstance(rendered, Chart):
            self._stage(stages, "present", str, rendered.title_line)
            if state is not None and not degraded:
                self.turn_cache.store_chart_stages(translated, state, (
                    vql, rendered,
                    tuple([(r.stage, r.output) for r in stages[first:]]),
                ))
            return vql, None, None, rendered, None
        # render ladder degraded to data-only: present the underlying
        # rows like a query turn
        self._stage(
            stages, "present", _columns_output, ", ".join, rendered.columns
        )
        return vql, None, rendered, None, None

    def _sql_stages(
        self,
        request: ParseRequest,
        db: Database,
        stages: list[StageRecord],
        degraded: list[str],
    ) -> tuple:
        """Translate → [lint] → execute → present for a data question.

        Returns ``(functional_expression, query, result, chart, error)``.
        """
        parse_result = self._stage(
            stages, "translate", _translation_output,
            self._translate_sql, request, degraded,
        )
        query = parse_result.query
        if query is None:
            return None, None, None, None, "translation failed"
        # the translate stage's output is already this query's SQL text
        expression = stages[-1].output
        if self.lint_gate is not None:
            # identity first: the parser's best is usually also its
            # first candidate, and a dataclass == builds two field tuples
            candidates = [query] + [
                c for c in parse_result.candidates
                if c is not query and c != query
            ]
            decision = self._stage(
                stages, "lint", _decision_output,
                self.lint_gate.decide, candidates, db.schema,
            )
            if decision.chosen is not None and decision.chosen is not query:
                query = decision.chosen
                expression = to_sql(query)
        result = self._stage(
            stages, "execute", _rows_output,
            self._execute, query, db, degraded,
        )
        if result is None:
            return expression, query, None, None, "execution failed"
        self._stage(
            stages, "present", _columns_output, ", ".join, result.columns
        )
        return expression, query, result, None, None

    # ------------------------------------------------------------------
    def _stage(self, stages: list[StageRecord], name: str, render, fn, *args):
        """Run ``fn(*args)`` as stage *name* and record its outcome.

        Times the call (under the stage's deadline budget, if the policy
        sets one), appends a :class:`StageRecord` holding ``render`` of
        the value, and returns the value.  A raising stage records
        nothing.  The latency histograms are fed later, once per turn.
        """
        budget = self._stage_budgets.get(name)
        if _obs_trace._ENABLED:
            return self._traced_stage(stages, name, budget, render, fn, args)
        start = perf_counter()
        if budget is None:
            value = fn(*args)
        else:
            token = _deadline.push_budget(budget, self.resilience.clock)
            try:
                value = fn(*args)
            finally:
                _deadline.pop_budget(token)
        seconds = perf_counter() - start
        stages.append(_new_stage_record(name, render(value), seconds))
        return value

    def _traced_stage(self, stages, name, budget, render, fn, args):
        """:meth:`_stage` under tracing: the work and its rendering run
        in a ``repro.pipeline.stage.<name>`` span carrying ``output``."""
        start = perf_counter()
        if budget is not None:
            token = _deadline.push_budget(budget, self.resilience.clock)
        try:
            with _obs_trace.span(f"repro.pipeline.stage.{name}") as span:
                value = fn(*args)
                output = render(value)
                span.set_attr("output", output)
        finally:
            if budget is not None:
                _deadline.pop_budget(token)
        stages.append(_new_stage_record(name, output, perf_counter() - start))
        return value

    # ------------------------------------------------------------------
    # resilient stage wrappers and degradation ladders
    # ------------------------------------------------------------------
    def _mark_degraded(self, degraded: list[str], rung: str) -> None:
        degraded.append(rung)
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

    def _guarded(
        self, component: str, stage: str, organic: tuple, fn, *args
    ):
        """Run one primary stage attempt ``fn(*args)`` under its breaker
        (and retries).

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
                result = retry.call(fn, *args)
            else:
                result = fn(*args)
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

    # The attempts test ``_faults._ACTIVE`` before calling a fault hook:
    # ``turn_key`` has already run ``_faults.active()`` this turn, which
    # reads ``REPRO_CHAOS`` once, so the flag alone says whether a plan
    # is installed.
    def _parse_attempt(self, request: ParseRequest) -> ParseResult:
        if _faults._ACTIVE:
            _faults.fire("translate")
        return self.sql_parser.parse(request)

    def _translate_sql(
        self, request: ParseRequest, degraded: list[str]
    ) -> ParseResult:
        if self.resilience is None:
            return self.sql_parser.parse(request)
        try:
            return self._guarded(
                "parser.sql", "translate", (), self._parse_attempt, request
            )
        except Exception:
            # ladder: LLM/neural parser -> keyword rule parser.  The
            # fallback is deterministic and model-free; if even it fails,
            # the stage reports "no translation" like any parser miss.
            self._mark_degraded(degraded, "translate:rule-fallback")
            if self._sql_fallback is None:
                from repro.parsers.rule import KeywordRuleParser

                self._sql_fallback = KeywordRuleParser()
            try:
                return self._sql_fallback.parse(request)
            except Exception:
                return ParseResult(query=None, notes="fallback parser failed")

    def _parse_vis_attempt(self, request: ParseRequest) -> str | None:
        if not _faults._ACTIVE:
            return self.vis_parser.parse_vis(request)
        _faults.fire("translate")
        out = self.vis_parser.parse_vis(request)
        if out is not None:
            out = _faults.corrupt_text("translate", out)
        return out

    def _translate_vis(
        self, request: ParseRequest, degraded: list[str]
    ) -> str | None:
        if self.resilience is None:
            return self.vis_parser.parse_vis(request)
        try:
            return self._guarded(
                "parser.vis", "translate", (), self._parse_vis_attempt,
                request,
            )
        except Exception:
            self._mark_degraded(degraded, "translate:rule-fallback")
            if self._vis_fallback is None:
                from repro.parsers.vis.rule import DataToneVisParser

                self._vis_fallback = DataToneVisParser()
            try:
                return self._vis_fallback.parse_vis(request)
            except Exception:
                return None

    @staticmethod
    def _execute_attempt(query, db: Database) -> Result:
        if _faults._ACTIVE:
            _faults.fire("engine.vector")
            _faults.fire("execute")
        return execute(query, db)

    def _execute(
        self, query, db: Database, degraded: list[str]
    ) -> Result | None:
        if self.resilience is None:
            try:
                return execute(query, db)
            except SQLError:
                return None
        try:
            return self._guarded(
                "executor", "execute", (SQLError,),
                self._execute_attempt, query, db,
            )
        except SQLError:
            # organic query failure: same outcome as the plain pipeline
            return None
        except Exception as exc:
            return self._execute_ladder(query, db, degraded, exc)

    def _execute_ladder(
        self, query, db: Database, degraded: list[str], exc: Exception
    ) -> Result | None:
        """The execute degradation ladder, rung by rung.

        Rung 1 (vector-engine faults only): re-run on a row-engine plan
        compiled for this call alone, bypassing the plan and result
        caches — both engines are differentially tested identical, so
        this costs latency, not correctness, and changes no shared
        state.  Rung 2: serve a result-cache ``peek``
        — sound because the probe is stamped with current version tokens.
        Exhausted: report execution failure (the stage records it; the
        turn still completes).
        """
        if isinstance(exc, InjectedFault) and exc.site == "engine.vector":
            self._mark_degraded(degraded, "execute:vector-off")
            try:
                return _plan.compile_query(
                    query, db.schema, db, vectorize=False
                ).run(db)
            except SQLError:
                return None
            except ResilienceError:
                pass  # keep descending
        cached = _rescache.peek(query, db)
        if cached is not None:
            self._mark_degraded(degraded, "execute:cached-result")
            return cached
        self._mark_degraded(degraded, "execute:failed")
        return None

    @staticmethod
    def _render_attempt(vql: VQLQuery | str, db: Database) -> Chart:
        if _faults._ACTIVE:
            _faults.fire("render")
        return render_chart(vql, db)

    def _render_chart(
        self, vql: VQLQuery | str, db: Database, degraded: list[str]
    ) -> Chart | Result | None:
        """The chart, the underlying rows when the render ladder degraded
        to data-only, or None when rendering failed."""
        if self.resilience is None:
            try:
                return render_chart(vql, db)
            except ReproError:
                return None
        try:
            return self._guarded(
                "renderer", "render", (ReproError,),
                self._render_attempt, vql, db,
            )
        except ResilienceError:
            # ladder: chart -> data-only answer.  Execute the VQL's
            # underlying SQL and surface the rows without the chart; the
            # caller presents them like a query turn.
            try:
                program = parse_vql(vql) if isinstance(vql, str) else vql
                result = execute(program.query, db)
            except ReproError:
                self._mark_degraded(degraded, "render:failed")
                return None
            self._mark_degraded(degraded, "render:data-only")
            return result
        except ReproError:
            # organic render failure: same outcome as the plain pipeline
            return None
