"""The four system architectures of the survey's Table 4."""

from __future__ import annotations

from time import perf_counter

from repro.data.database import Database
from repro.errors import ReproError, SQLError
from repro.parsers.base import ParseRequest, Parser
from repro.parsers.llm.strategies import MultiStageLLMParser, ZeroShotLLMParser
from repro.parsers.rule import KeywordRuleParser
from repro.parsers.semantic import GrammarSemanticParser
from repro.parsers.vis.base import VisParser, detect_chart_type
from repro.parsers.vis.llm import Chat2VisParser
from repro.parsers.vis.rule import DataToneVisParser
from repro.sql.executor import execute
from repro.sql.unparser import to_sql
from repro.systems.base import NLISystem, SystemResponse, wants_visualization
from repro.vis.charts import render_chart
from repro.vis.recommend import recommend_charts
from repro.vis.vql import parse_vql


class _ParserBackedSystem(NLISystem):
    """Shared execute/render plumbing for parser-driven systems."""

    def __init__(self, sql_parser: Parser, vis_parser: VisParser) -> None:
        self.sql_parser = sql_parser
        self.vis_parser = vis_parser

    def answer(
        self,
        question: str,
        db: Database,
        knowledge: str | None = None,
        history: list | None = None,
    ) -> SystemResponse:
        return self._timed(
            question,
            lambda: self._answer(question, db, knowledge, history or []),
        )

    def _answer(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list,
    ) -> SystemResponse:
        request = ParseRequest(
            question=question,
            schema=db.schema,
            db=db,
            knowledge=knowledge,
            history=history,
        )
        if wants_visualization(question):
            return self._answer_vis(request, db)
        return self._answer_sql(request, db)

    def _answer_sql(
        self, request: ParseRequest, db: Database
    ) -> SystemResponse:
        result = self.sql_parser.parse(request)
        if result.query is None:
            return SystemResponse(
                question=request.question,
                kind="clarification",
                message=(
                    "I could not translate that question; could you "
                    f"rephrase it? ({result.notes})"
                ),
            )
        query = result.query
        sql = to_sql(query)
        try:
            rows = execute(query, db)
        except SQLError as exc:
            return SystemResponse(
                question=request.question,
                kind="error",
                sql=sql,
                query=query,
                message=f"the translated query failed: {exc}",
            )
        return SystemResponse(
            question=request.question,
            kind="data",
            sql=sql,
            query=query,
            result=rows,
        )

    def _answer_vis(
        self, request: ParseRequest, db: Database
    ) -> SystemResponse:
        vql_text = self.vis_parser.parse_vis(request)
        if vql_text is None:
            return SystemResponse(
                question=request.question,
                kind="clarification",
                message=(
                    "I could not build a visualization for that request; "
                    "could you name the fields to chart?"
                ),
            )
        try:
            program = parse_vql(vql_text)
            chart = render_chart(program, db)
        except ReproError as exc:
            return SystemResponse(
                question=request.question,
                kind="error",
                vql=vql_text,
                message=f"the visualization failed to render: {exc}",
            )
        return SystemResponse(
            question=request.question,
            kind="chart",
            vql=vql_text,
            sql=to_sql(program.query),
            query=program.query,
            chart=chart,
        )


class RuleBasedSystem(_ParserBackedSystem):
    """Rule templates front to back (NaLIR / PRECISE / DataTone)."""

    name = "rule-based system"
    architecture = "rule-based"

    def __init__(self) -> None:
        super().__init__(KeywordRuleParser(), DataToneVisParser())


class ParsingBasedSystem(_ParserBackedSystem):
    """A semantic parser front end (SQLova / Seq2Tree / ncNet)."""

    name = "parsing-based system"
    architecture = "parsing-based"

    def __init__(self, sql_parser: Parser | None = None) -> None:
        super().__init__(
            sql_parser
            or GrammarSemanticParser(use_history=True, use_knowledge=True),
            _SemanticVisParser(),
        )


class _SemanticVisParser(VisParser):
    """Vis front end of the parsing-based system: parser + chart cues."""

    name = "semantic vis parser"
    stage = "traditional"
    year = 2021

    def __init__(self) -> None:
        self.parser = GrammarSemanticParser(use_knowledge=True)

    def parse_vis(self, request: ParseRequest) -> str | None:
        result = self.parser.parse(request)
        if result.query is None:
            return None
        return self.assemble_vql(
            detect_chart_type(request.question), result.query
        )


class MultiStageSystem(_ParserBackedSystem):
    """Sequenced stages with self-correction and chart ranking.

    Stage 1 routes the request (query vs. visualization).  Stage 2 parses
    with the decomposed, self-correcting LLM parser (DIN-SQL).  Stage 3
    executes/validates.  Stage 4, for visualization requests the parser
    cannot ground, falls back to DeepEye-style chart recommendation over
    the most relevant table.
    """

    name = "multi-stage system"
    architecture = "multi-stage"

    def __init__(self, model: str = "chatgpt-like") -> None:
        super().__init__(
            MultiStageLLMParser(model=model),
            _MultiStageVisParser(model=model),
        )

    def _answer_vis(
        self, request: ParseRequest, db: Database
    ) -> SystemResponse:
        response = super()._answer_vis(request, db)
        if response.kind not in ("clarification", "error"):
            return response
        # DeepEye-style recovery: rank candidate charts over the best table
        table = self._guess_table(request)
        if table is None:
            return response
        ranked = recommend_charts(db, table, top_k=1)
        if not ranked:
            return response
        best = ranked[0]
        return SystemResponse(
            question=request.question,
            kind="chart",
            vql=best.vql,
            chart=best.chart,
            message="recommended visualization (DeepEye fallback)",
        )

    def _guess_table(self, request: ParseRequest) -> str | None:
        lowered = request.question.lower()
        for table in request.schema.tables:
            if table.name.lower().rstrip("s") in lowered:
                return table.name
        return request.schema.tables[0].name if request.schema.tables else None


class _MultiStageVisParser(Chat2VisParser):
    """Vis stage of the multi-stage system: LLM prompting + repair."""

    def __init__(self, model: str = "chatgpt-like") -> None:
        super().__init__(model=model)


class EndToEndSystem(_ParserBackedSystem):
    """One model call to an executed answer (Photon / Sevi).

    Photon's core strength is its confusion detection: rather than return
    a low-confidence wrong answer, the system asks the user to rephrase.
    Confusion fires when the model's answer fails to execute or returns an
    implausible (empty) result for a non-aggregate question.
    """

    name = "end-to-end system"
    architecture = "end-to-end"

    def __init__(self, model: str = "chatgpt-like") -> None:
        super().__init__(
            ZeroShotLLMParser(model=model),
            Chat2VisParser(model=model),
        )

    def _answer_sql(
        self, request: ParseRequest, db: Database
    ) -> SystemResponse:
        response = super()._answer_sql(request, db)
        if response.kind == "error":
            return SystemResponse(
                question=request.question,
                kind="clarification",
                sql=response.sql,
                query=response.query,
                message=(
                    "I am not confident in my translation; could you "
                    "rephrase the question?"
                ),
            )
        return response


class PipelineSystem(NLISystem):
    """An :class:`NLISystem` served by the full fault-tolerant pipeline.

    Wraps :class:`repro.core.Pipeline` — lint gates and all — behind the
    systems interface, so sessions and the evaluation harness can run the
    production serving path like any other architecture.  With a
    :class:`~repro.resilience.ResiliencePolicy` (the default), ``answer``
    never raises: stage faults are absorbed by the pipeline's degradation
    ladders and surface on ``SystemResponse.degraded`` instead, which
    :class:`repro.systems.session.InteractiveSession` reports honestly in
    the transcript.
    """

    name = "pipeline system"
    architecture = "multi-stage"

    def __init__(
        self,
        sql_parser: Parser | None = None,
        vis_parser: VisParser | None = None,
        resilience: "ResiliencePolicy | None | bool" = True,
        lint: bool = True,
    ) -> None:
        from repro.core.pipeline import LintGate, Pipeline, VisLintGate
        from repro.resilience import ResiliencePolicy

        if resilience is True:
            resilience = ResiliencePolicy.default()
        elif resilience is False:
            resilience = None
        self.pipeline = Pipeline(
            sql_parser or GrammarSemanticParser(
                use_history=True, use_knowledge=True
            ),
            vis_parser or DataToneVisParser(),
            lint_gate=LintGate() if lint else None,
            vis_lint_gate=VisLintGate() if lint else None,
            resilience=resilience,
        )

    def answer(
        self,
        question: str,
        db: Database,
        knowledge: str | None = None,
        history: list | None = None,
    ) -> SystemResponse:
        # NLISystem._timed inlined: this is every served turn's entry
        start = perf_counter()
        response = self._answer(question, db, knowledge, history or [])
        response.latency_seconds = perf_counter() - start
        return response

    def _answer(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list,
    ) -> SystemResponse:
        trace = self.pipeline.run(
            question, db, knowledge=knowledge, history=history
        )
        if trace.chart is not None:
            return SystemResponse(
                question=question,
                kind="chart",
                vql=trace.functional_expression,
                chart=trace.chart,
                degraded=trace.degraded,
            )
        # a chart turn that failed, or that the render ladder degraded to
        # data-only, still carries its VQL, not SQL
        is_vis_turn = trace.vis_intent
        sql = None if is_vis_turn else trace.functional_expression
        vql = trace.functional_expression if is_vis_turn else None
        if trace.result is not None and trace.error is None:
            return SystemResponse(
                question=question,
                kind="data",
                sql=sql,
                vql=vql,
                query=trace.query,
                result=trace.result,
                degraded=trace.degraded,
            )
        return SystemResponse(
            question=question,
            kind="error",
            sql=sql,
            vql=vql,
            query=trace.query,
            message=trace.error or "the pipeline produced no answer",
            degraded=trace.degraded,
        )
