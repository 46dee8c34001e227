"""Typed request/response envelopes for :mod:`repro.serve`.

A :class:`Request` is what a client hands the server: the question, the
conversation (session) it belongs to, which registered database it
targets, and the per-request serving knobs (fair-share weight, total
latency budget).  A :class:`Response` is everything the server can say
about how the request fared: the answer payload mirrored from the
underlying :class:`~repro.systems.base.SystemResponse`, a typed
``status``/``shed_reason`` pair for load-shedding, the queue/service
latency split, and the ordering evidence (``session_seq``,
``completion_index``) the FIFO-violation checks in
``benchmarks/bench_serve.py`` rely on.

:class:`Ticket` is the client-side handle: ``submit`` returns one
immediately, and the response materializes on it when a worker finishes
the turn (or at submit time, for requests shed at admission).
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.sql.executor import Result
from repro.vis.charts import Chart

__all__ = ["Request", "Response", "ShedReason", "Ticket"]

_request_ids = itertools.count(1)


class ShedReason(enum.Enum):
    """Why the server refused (or abandoned) a request — the typed half
    of admission control.  Every shed :class:`Response` carries exactly
    one of these; clients never have to parse a message string to tell
    "back off" from "session gone" from "too late"."""

    #: the global pending queue is at ``max_pending``
    QUEUE_FULL = "queue-full"
    #: this session's own FIFO queue is at ``max_session_pending``
    SESSION_QUEUE_FULL = "session-queue-full"
    #: the session table is at ``max_sessions`` and nothing is evictable
    SESSION_LIMIT = "session-limit"
    #: the server is draining: finishing admitted work, admitting nothing
    DRAINING = "draining"
    #: the server was shut down with this request still queued
    SHUTDOWN = "shutdown"
    #: the session was closed with this request still queued
    SESSION_CLOSED = "session-closed"
    #: the request's latency budget expired before/while serving it
    DEADLINE = "deadline"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Request:
    """One natural-language request addressed to the serving layer.

    ``deadline`` is a *total* latency budget in seconds, measured from
    submit: time spent queued counts against it, and whatever remains at
    dispatch becomes the ambient :mod:`repro.resilience` deadline for
    the turn.  ``weight`` sets the session's fair share the first time
    the session is seen (relative, default 1.0).
    """

    question: str
    session_id: str = "default"
    db_id: str | None = None
    knowledge: str | None = None
    weight: float = 1.0
    deadline: float | None = None
    request_id: int = field(default_factory=lambda: next(_request_ids))


@dataclass
class Response:
    """Everything the server reports back about one request.

    ``status`` is ``"ok"`` (answered, possibly degraded), ``"error"``
    (the turn ran but failed — untranslatable question, failed SQL, or
    an unexpected worker exception), or ``"shed"`` (never fully served;
    ``shed_reason`` says why).  ``session_seq`` is the request's
    1-based FIFO position within its session and ``completion_index``
    the global completion order — together they make per-session
    ordering externally checkable.
    """

    request_id: int
    session_id: str
    status: str = "ok"
    shed_reason: ShedReason | None = None
    kind: str | None = None
    sql: str | None = None
    vql: str | None = None
    result: Result | None = None
    chart: Chart | None = None
    message: str = ""
    error: str | None = None
    degraded: tuple[str, ...] = ()
    session_seq: int = 0
    completion_index: int = 0
    worker: int | None = None
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    backpressure: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        return self.status == "shed"

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self.result.rows if self.result is not None else ()

    @property
    def columns(self) -> tuple[str, ...]:
        return self.result.columns if self.result is not None else ()

    @property
    def total_seconds(self) -> float:
        return self.queue_seconds + self.service_seconds

    def describe(self) -> str:
        """One transcript line, for the ``serve`` CLI and logs."""
        head = f"#{self.request_id} [{self.session_id}]"
        if self.shed:
            return f"{head} shed ({self.shed_reason})"
        if self.status == "error":
            return f"{head} error: {self.error}"
        if self.kind == "chart":
            return f"{head} chart {self.vql}"
        if self.kind == "data":
            return f"{head} {len(self.rows)} row(s) {self.sql}"
        return f"{head} {self.kind}: {self.message}"


class Ticket:
    """A client-side handle on one submitted request.

    Thread-safe: the server resolves it exactly once, from whichever
    worker finishes (or sheds) the request; any number of client threads
    may ``result()`` or poll ``done()``.  ``add_done_callback`` runs the
    callback on the resolving thread (immediately, if already resolved).
    """

    __slots__ = ("request", "_event", "_response", "_callbacks", "_lock")

    def __init__(self, request: Request) -> None:
        self.request = request
        self._event = threading.Event()
        self._response: Response | None = None
        self._callbacks: list[Callable[[Response], None]] = []
        self._lock = threading.Lock()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Response:
        """Block until the response is available (raises ``TimeoutError``
        if *timeout* elapses first)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request #{self.request.request_id} not finished within "
                f"{timeout}s"
            )
        assert self._response is not None
        return self._response

    def add_done_callback(self, fn: Callable[[Response], None]) -> None:
        with self._lock:
            if self._response is None:
                self._callbacks.append(fn)
                return
        fn(self._response)

    def _resolve(self, response: Response) -> None:
        with self._lock:
            if self._response is not None:  # pragma: no cover - guarded
                return
            self._response = response
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            fn(response)
