"""Interactive multi-turn sessions (the feedback loop of Fig. 1).

``InteractiveSession`` wraps any system with conversation state: each
answered query's (question, query AST) pair becomes history for the next
turn — the AST the system executed, carried on ``SystemResponse.query``,
so a turn's program is never parsed back from its SQL text — and
follow-ups ("now only the ones whose ...") resolve against context —
the SParC/CoSQL interaction pattern.  ``refine`` implements the Fig. 1
feedback edge: the user reacts to an answer, and the reaction is treated
as the next turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.database import Database
from repro.errors import SQLError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.sql.ast import Query
from repro.sql.parser import parse_sql
from repro.systems.base import NLISystem, SystemResponse

_registry = _obs_metrics.get_registry()
_TURNS = _registry.counter("repro.session.turns")
_DEGRADED_TURNS = _registry.counter("repro.session.degraded.turns")


@dataclass
class InteractiveSession:
    """Conversation state over one database for one system."""

    system: NLISystem
    db: Database
    knowledge: str | None = None
    history: list[tuple[str, Query]] = field(default_factory=list)
    transcript: list[SystemResponse] = field(default_factory=list)
    _closed: bool = field(default=False, repr=False)

    def ask(self, question: str) -> SystemResponse:
        """One conversational turn.

        Increments ``repro.session.turns``; with tracing enabled the turn
        runs inside a ``repro.session.turn`` span annotated with the turn
        index and whether the system answered.

        The session caches nothing itself: a system backed by
        :class:`~repro.core.pipeline.Pipeline` replays repeated turns
        from the pipeline's shared turn cache (so a session re-asking a
        question under the same conversation state against an unmutated
        database gets the stored answer), and every system's SQL hits
        :mod:`repro.sql.rescache`.  Either way the turn is appended to
        the transcript and history exactly like a fresh one.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        _TURNS.inc()
        if _obs_trace._ENABLED:
            with _obs_trace.span(
                "repro.session.turn", turn=len(self.transcript)
            ) as turn_span:
                response = self._ask_impl(question)
                turn_span.set_attr("answered", response.answered)
            return response
        return self._ask_impl(question)

    def _ask_impl(self, question: str) -> SystemResponse:
        response = self.system.answer(
            question,
            self.db,
            knowledge=self.knowledge,
            history=list(self.history),
        )
        if response.is_degraded:
            # surface the degradation honestly in the transcript — the
            # answer stands, but the user is told how it was made
            _DEGRADED_TURNS.inc()
            note = f"[degraded: {', '.join(response.degraded)}]"
            response.message = (
                f"{response.message} {note}".strip()
                if response.message
                else note
            )
        self.transcript.append(response)
        if response.answered and response.sql:
            query = response.query
            if query is None:
                # a system that returns text only
                try:
                    query = parse_sql(response.sql)
                except SQLError:
                    return response
            self.history.append((question, query))
        return response

    def refine(self, feedback: str) -> SystemResponse:
        """The Fig. 1 feedback edge: refine the previous answer."""
        return self.ask(feedback)

    def reset(self) -> None:
        self.history.clear()
        self.transcript.clear()

    def close(self) -> None:
        """End the session's lifetime: release history and transcript.

        ``reset`` starts the *conversation* over; ``close`` additionally
        refuses further questions.  The serving layer's idle-eviction
        sweep (:meth:`repro.serve.sessions.SessionRegistry.evict_idle`)
        calls it so evicted sessions keep no conversation state.
        """
        self.reset()
        self._closed = True
