"""The server-side session table: per-session FIFO state + idle eviction.

Each :class:`ServeSession` owns one conversation: a bounded FIFO queue of
not-yet-dispatched requests, the wrapped
:class:`~repro.systems.session.InteractiveSession` holding its history
and transcript, and the scheduler bookkeeping (fair-queuing finish tag,
``running`` flag).  The registry enforces the two per-session serving
invariants:

- **FIFO within a session** — only the queue head is ever handed to the
  scheduler, and only while no other request of the same session is
  running, so multi-turn context can never interleave;
- **bounded lifetime** — sessions idle longer than ``ttl`` seconds are
  LRU-swept (:meth:`SessionRegistry.evict_idle`), closing their
  ``InteractiveSession`` so a long-running server does not accumulate
  per-session histories and transcripts forever.

All methods expect the server's lock to be held by the caller; the
registry itself owns no lock (one lock per server, not two).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Iterator

from repro.obs import metrics as _obs_metrics
from repro.systems.session import InteractiveSession

__all__ = ["ServeSession", "SessionRegistry"]

_registry = _obs_metrics.get_registry()
_OPENED = _registry.counter("repro.serve.sessions.opened")
_CLOSED = _registry.counter("repro.serve.sessions.closed")
_EVICTED = _registry.counter("repro.serve.sessions.evicted")


class ServeSession:
    """One conversation's serving state (see module docstring)."""

    __slots__ = (
        "session_id",
        "db_id",
        "interactive",
        "weight",
        "queue",
        "running",
        "finish_tag",
        "last_active",
        "closed",
        "submitted",
        "completed",
    )

    def __init__(
        self,
        session_id: str,
        db_id: str,
        interactive: InteractiveSession,
        weight: float,
        now: float,
    ) -> None:
        self.session_id = session_id
        self.db_id = db_id
        self.interactive = interactive
        self.weight = max(1e-6, float(weight))
        #: pending server-side entries (``repro.serve.server._Pending``)
        #: in strict arrival order
        self.queue: deque = deque()
        #: True while a worker is executing this session's head request
        self.running = False
        #: fair-queuing virtual finish tag (see repro.serve.scheduler)
        self.finish_tag = 0.0
        self.last_active = now
        self.closed = False
        #: per-session FIFO sequence counters (1-based)
        self.submitted = 0
        self.completed = 0

    @property
    def idle(self) -> bool:
        """No queued work and no request currently executing."""
        return not self.running and not self.queue

    @property
    def schedulable(self) -> bool:
        """Has a dispatchable head: queued work, nothing running."""
        return bool(self.queue) and not self.running and not self.closed


class SessionRegistry:
    """session_id → :class:`ServeSession`, in LRU (least-recently-active
    first) iteration order for the idle sweep."""

    def __init__(
        self,
        make_interactive: Callable[[str], InteractiveSession],
        default_weight: float = 1.0,
        ttl: float | None = None,
        max_sessions: int | None = None,
    ) -> None:
        self._make_interactive = make_interactive
        self._default_weight = default_weight
        self.ttl = ttl
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, ServeSession]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[ServeSession]:
        return iter(self._sessions.values())

    def get(self, session_id: str) -> ServeSession | None:
        return self._sessions.get(session_id)

    def open(
        self,
        session_id: str,
        db_id: str,
        weight: float | None,
        now: float,
    ) -> ServeSession:
        """Fetch or create the session.  Touches LRU recency."""
        session = self._sessions.get(session_id)
        if session is None:
            session = ServeSession(
                session_id,
                db_id,
                self._make_interactive(db_id),
                weight if weight is not None else self._default_weight,
                now,
            )
            self._sessions[session_id] = session
            _OPENED.inc()
        else:
            self._sessions.move_to_end(session_id)
        return session

    def touch(self, session: ServeSession, now: float) -> None:
        """Record activity (completion) for LRU ordering and the TTL."""
        session.last_active = now
        if session.session_id in self._sessions:
            self._sessions.move_to_end(session.session_id)

    def close(self, session_id: str) -> ServeSession | None:
        """Remove the session; returns it (with any still-queued work) so
        the server can shed the leftovers.  The wrapped interactive
        session is closed — its history and transcript are freed —
        unless a turn is executing right now, in which case the worker
        that finishes it performs the close (the ``closed`` flag tells
        it to)."""
        session = self._sessions.pop(session_id, None)
        if session is None:
            return None
        session.closed = True
        if not session.running:
            session.interactive.close()
        _CLOSED.inc()
        return session

    def evict_idle(self, now: float) -> list[ServeSession]:
        """LRU sweep: close sessions idle past the TTL (never ones with
        queued or running work).  Returns the evicted sessions."""
        if self.ttl is None:
            return []
        evicted: list[ServeSession] = []
        # oldest-activity first; stop at the first young-enough session
        for session_id in list(self._sessions):
            session = self._sessions[session_id]
            if now - session.last_active < self.ttl:
                break
            if not session.idle:
                continue
            self._sessions.pop(session_id)
            session.closed = True
            session.interactive.close()
            _EVICTED.inc()
            evicted.append(session)
        return evicted

    def evict_one_idle(self) -> ServeSession | None:
        """Evict the least-recently-active fully idle session regardless
        of TTL — the pressure valve when the table is at ``max_sessions``
        and a new conversation arrives."""
        for session_id in list(self._sessions):
            session = self._sessions[session_id]
            if session.idle:
                self._sessions.pop(session_id)
                session.closed = True
                session.interactive.close()
                _EVICTED.inc()
                return session
        return None
