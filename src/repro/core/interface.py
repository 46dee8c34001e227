"""The unified NLI facade.

``NaturalLanguageInterface`` is the library's quickstart object: point it
at a database, ask questions in natural language, get executed data or
rendered charts back, and keep asking follow-ups — the complete Fig. 1
loop in one class.  The default translation stack is the grammar semantic
parser (fast, deterministic); pass ``model=`` to run on the simulated LLM
stack instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.database import Database
from repro.core.pipeline import LintGate, Pipeline, PipelineTrace, VisLintGate
from repro.parsers.base import Parser
from repro.parsers.llm.strategies import MultiStageLLMParser
from repro.parsers.semantic import GrammarSemanticParser
from repro.parsers.vis.base import VisParser, detect_chart_type
from repro.parsers.vis.llm import Chat2VisParser
from repro.resilience import ResiliencePolicy
from repro.sql.ast import Query


@dataclass
class Answer:
    """A user-level answer: either data rows or a chart."""

    trace: PipelineTrace

    @property
    def ok(self) -> bool:
        return self.trace.succeeded

    @property
    def sql(self) -> str | None:
        # a chart turn carries VQL, also when its chart failed to render
        # or the render ladder degraded it to data-only
        if self.trace.vis_intent:
            return None
        return self.trace.functional_expression

    @property
    def vql(self) -> str | None:
        if not self.trace.vis_intent:
            return None
        return self.trace.functional_expression

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self.trace.result.rows if self.trace.result else ()

    @property
    def columns(self) -> tuple[str, ...]:
        return self.trace.result.columns if self.trace.result else ()

    @property
    def chart(self):
        return self.trace.chart

    @property
    def degraded(self) -> tuple[str, ...]:
        """Degradation-ladder rungs taken this turn (empty when healthy)."""
        return self.trace.degraded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.trace.chart is not None:
            return f"<Answer chart {self.trace.chart.chart_type}>"
        if self.trace.result is not None:
            return f"<Answer {len(self.rows)} row(s)>"
        return f"<Answer error={self.trace.error!r}>"


class _DefaultVisParser(VisParser):
    """Semantic parser + chart-cue detection, the default Vis stack."""

    name = "default vis parser"

    def __init__(self, sql_parser: GrammarSemanticParser) -> None:
        self._parser = sql_parser

    def parse_vis(self, request):
        result = self._parser.parse(request)
        if result.query is None:
            return None
        return self.assemble_vql(
            detect_chart_type(request.question), result.query
        )


class NaturalLanguageInterface:
    """Ask a database questions in natural language; see module docstring."""

    def __init__(
        self,
        db: Database,
        model: str | None = None,
        knowledge: str | None = None,
        lint: bool = False,
        resilience: "ResiliencePolicy | bool | None" = None,
    ) -> None:
        self.db = db
        self.knowledge = knowledge
        if model is None:
            sql_parser: Parser = GrammarSemanticParser(
                world_knowledge=True,
                fuzzy=True,
                use_history=True,
                use_knowledge=True,
            )
            vis_parser: VisParser = _DefaultVisParser(sql_parser)
        else:
            sql_parser = MultiStageLLMParser(model=model)
            vis_parser = Chat2VisParser(model=model)
        # ``lint=True`` inserts both gate stages: SQL candidates carrying
        # error-severity static diagnostics are pruned before execution,
        # and VQL candidates additionally pass the vis rule catalog
        gate = LintGate() if lint else None
        vis_gate = VisLintGate() if lint else None
        # ``resilience=True`` runs turns fault-tolerantly under the stock
        # policy (deadlines, retries, breakers, degradation ladders); pass
        # a ResiliencePolicy to tune the budgets — see DESIGN.md §Resilience
        if resilience is True:
            resilience = ResiliencePolicy.default()
        elif resilience is False:
            resilience = None
        self.pipeline = Pipeline(
            sql_parser,
            vis_parser,
            lint_gate=gate,
            vis_lint_gate=vis_gate,
            resilience=resilience,
        )
        self.history: list[tuple[str, Query]] = []

    def ask(self, question: str) -> Answer:
        """One turn: data question or chart request, context-aware."""
        trace = self.pipeline.run(
            question,
            self.db,
            knowledge=self.knowledge,
            history=list(self.history),
        )
        answer = Answer(trace=trace)
        if trace.succeeded and trace.query is not None:
            self.history.append((question, trace.query))
        return answer

    def reset(self) -> None:
        """Forget the conversation so far."""
        self.history.clear()
