"""A turn's program is parsed at most once and carried as an AST.

The pipeline records the executed query on ``PipelineTrace.query``,
systems hand it on as ``SystemResponse.query``, and sessions append that
object to history instead of parsing ``response.sql`` back.  The
differential here replays the sparc/cosql/chartdialogs dialogue corpora
through direct calls, ``InteractiveSession`` and ``repro.serve`` and
checks, for every answered turn, that the carried AST equals what parsing
the turn's SQL text would have produced — so history, turn keys and every
follow-up translation are exactly what the text round-trip gave.  The
parse-count tests pin the saving itself: no ``parse_sql`` on a SQL turn,
one on a cold chart turn (the vis lint gate's, reused by the renderer),
and none on a chart turn whose VQL text the parse cache already holds.
"""

from __future__ import annotations

import pytest

import repro.core.pipeline as pipeline_module
import repro.sql.parser as parser_module
from repro.datasets import build_dataset
from repro.serve import Server
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches
from repro.sql.unparser import to_sql
from repro.systems import PipelineSystem
from repro.systems.architectures import ParsingBasedSystem, RuleBasedSystem
from repro.systems.session import InteractiveSession

_CORPORA = ("sparc_like", "cosql_like", "chartdialogs_like")


@pytest.fixture(scope="module")
def dialogue_corpora():
    return {
        name: build_dataset(name, scale=0.06, seed=11) for name in _CORPORA
    }


def _dialogues(corpora):
    for name in _CORPORA:
        dataset = corpora[name]
        for dialogue in dataset.dialogues:
            yield dataset.databases[dialogue.db_id], dialogue


def _assert_carried(response) -> bool:
    """The carried AST is exactly the parse of the turn's SQL text;
    returns whether the turn carried one."""
    if not (response.answered and response.sql):
        return False
    assert response.query is not None, response.question
    assert response.query == parse_sql(response.sql), response.sql
    assert to_sql(response.query) == response.sql
    return True


def test_direct_calls_carry_the_executed_query(dialogue_corpora):
    system = PipelineSystem()
    carried = 0
    for db, dialogue in _dialogues(dialogue_corpora):
        history: list = []
        for turn in dialogue.turns:
            response = system.answer(
                turn.question, db, knowledge=turn.knowledge,
                history=list(history),
            )
            if _assert_carried(response):
                history.append((turn.question, response.query))
                carried += 1
    assert carried >= 600


@pytest.mark.parametrize(
    "make_system", [PipelineSystem, RuleBasedSystem, ParsingBasedSystem],
    ids=["pipeline", "rule", "parsing"],
)
def test_session_history_is_the_carried_query(make_system, dialogue_corpora):
    system = make_system()
    carried = 0
    for db, dialogue in _dialogues(dialogue_corpora):
        session = InteractiveSession(system, db)
        for turn in dialogue.turns:
            before = len(session.history)
            response = session.ask(turn.question)
            if _assert_carried(response):
                question, query = session.history[-1]
                assert question == turn.question
                assert query is response.query
                carried += 1
            else:
                assert len(session.history) == before
    assert carried >= 300


def test_served_session_history_is_the_carried_query(dialogue_corpora):
    databases = {}
    dialogues = []
    for name in _CORPORA:
        dataset = dialogue_corpora[name]
        for db_id, db in dataset.databases.items():
            databases[f"{name}/{db_id}"] = db
        for dialogue in dataset.dialogues:
            dialogues.append((f"{name}/{dialogue.db_id}", dialogue))
    carried = 0
    with Server(databases) as server:
        for number, (db_id, dialogue) in enumerate(dialogues):
            session_id = f"s{number}"
            tickets = [
                server.submit(turn.question, session_id=session_id,
                              db_id=db_id)
                for turn in dialogue.turns
            ]
            responses = [ticket.result(timeout=60) for ticket in tickets]
            history = server.sessions.get(session_id).interactive.history
            answered = [
                r for r in responses
                if r.status == "ok" and r.kind in ("data", "chart") and r.sql
            ]
            assert len(history) == len(answered)
            for (question, query), response in zip(history, answered):
                assert query == parse_sql(response.sql), response.sql
                carried += 1
    assert carried >= 600


# ----------------------------------------------------------------------
# per-turn parse and unparse counts
@pytest.fixture
def parse_counter(monkeypatch):
    """Counts every ``parse_sql`` call, whichever module imported it."""
    calls = []
    tokenize = parser_module.tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser_module, "tokenize", counting)
    return calls


def _first_turns(corpora, name, kind, limit=8):
    dataset = corpora[name]
    system = PipelineSystem()
    found = []
    for dialogue in dataset.dialogues:
        db = dataset.databases[dialogue.db_id]
        question = dialogue.turns[0].question
        if system.answer(question, db).kind == kind:
            found.append((db, question))
        if len(found) == limit:
            break
    assert found, (name, kind)
    return found


def test_sql_turn_parses_nothing(dialogue_corpora, parse_counter):
    for db, question in _first_turns(dialogue_corpora, "sparc_like", "data"):
        session = InteractiveSession(PipelineSystem(), db)
        del parse_counter[:]
        response = session.ask(question)
        assert response.kind == "data"
        assert parse_counter == [], question
        assert session.history[-1][1] is response.query


def test_chart_turn_parses_once(dialogue_corpora, parse_counter):
    turns = _first_turns(dialogue_corpora, "chartdialogs_like", "chart")
    for db, question in turns:
        session = InteractiveSession(PipelineSystem(), db)
        clear_plan_caches()  # cold: the VQL text is not in the parse cache
        del parse_counter[:]
        response = session.ask(question)
        assert response.kind == "chart"
        assert len(parse_counter) == 1, (question, parse_counter)


def test_repeated_chart_turn_lexes_nothing(dialogue_corpora, parse_counter):
    """A fresh system (empty turn cache) asking a chart question whose VQL
    was parsed before shares the cached AST instead of lexing again."""
    turns = _first_turns(dialogue_corpora, "chartdialogs_like", "chart")
    for db, question in turns:
        assert PipelineSystem().answer(question, db).kind == "chart"
        session = InteractiveSession(PipelineSystem(), db)
        del parse_counter[:]
        response = session.ask(question)
        assert response.kind == "chart"
        assert parse_counter == [], question


def test_sql_turn_unparses_once(dialogue_corpora, monkeypatch):
    calls = []

    def counting(query):
        calls.append(query)
        return to_sql(query)

    monkeypatch.setattr(pipeline_module, "to_sql", counting)
    for db, question in _first_turns(dialogue_corpora, "cosql_like", "data"):
        del calls[:]
        trace = PipelineSystem().pipeline.run(question, db)
        assert len(calls) == 1, question
        # stage outputs are exactly what unparsing at each stage gave
        translate = next(r for r in trace.stages if r.stage == "translate")
        assert translate.output == trace.functional_expression
        assert trace.functional_expression == to_sql(trace.query)


def test_chart_present_stage_reports_the_title_line(dialogue_corpora):
    for db, question in _first_turns(
        dialogue_corpora, "chartdialogs_like", "chart"
    ):
        trace = PipelineSystem().pipeline.run(question, db)
        present = trace.stages[-1]
        assert present.stage == "present"
        assert present.output == trace.chart.to_ascii(width=24).splitlines()[0]
        assert trace.query is None  # chart turns carry their VQL as text
