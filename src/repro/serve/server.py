"""The concurrent serving layer: ``Server`` = admission + fair scheduling
+ worker pool + sessions + drain.

One :class:`Server` multiplexes many concurrent conversations over one
shared NLI system and a registry of databases.  The life of a request::

    submit ──► admission control ──► per-session FIFO queue
                  │ (typed shed)          │ head-of-session
                  ▼                       ▼
             resolved ticket      weighted-fair scheduler (SFQ)
                                          │ dispatch
                                          ▼
                               worker thread: deadline push,
                               InteractiveSession.ask
                                          │
                                          ▼
                               Response on the ticket

Guarantees, in order of importance:

- **never raises, never loses a ticket** — every admitted request's
  ticket resolves exactly once, with an answer, a typed error, or a
  typed shed; worker exceptions are converted, and any exception that
  still reaches a worker's top level is recorded in
  :meth:`Server.unhandled_errors` (asserted empty by the chaos gate in
  ``benchmarks/bench_serve.py``);
- **per-session FIFO** — turns of one session never interleave or
  reorder: the scheduler only ever sees a session's queue head, and only
  while no turn of that session is running;
- **weighted fairness across sessions** — start-time fair queuing, see
  :mod:`repro.serve.scheduler`;
- **bounded memory** — bounded queues (typed shedding, see
  :mod:`repro.serve.admission`), bounded session table (LRU idle
  eviction + TTL sweep), a bounded turn cache (owned by the shared
  pipeline, see :mod:`repro.core.turn_cache`).

Identical concurrent turns run once without any serving machinery: every
session calls the one shared system, and a pipeline-backed system's turn
cache makes a duplicate of an in-flight turn wait for its leader.

Observability: ``repro.serve.*`` counters (admitted, sheds by reason,
responses, errors), callback gauges
(``queue.depth``, ``sessions.active``, ``workers.active``,
``backpressure``) and latency histograms (``queue.seconds``,
``service.seconds``, ``turn.seconds``).  Resilience: a request's
remaining latency budget becomes the ambient
:mod:`repro.resilience.deadline` for its turn — queue wait burns budget,
so a resilient system degrades instead of overrunning — and breaker
states are surfaced through :meth:`Server.stats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.data.database import Database
from repro.errors import DeadlineExceeded, ReproError
from repro.obs import metrics as _obs_metrics
from repro.resilience import all_breakers
from repro.resilience import deadline as _deadline
from repro.serve.admission import AdmissionController, count_shed
from repro.serve.envelope import Request, Response, ShedReason, Ticket
from repro.serve.scheduler import FairScheduler
from repro.serve.sessions import ServeSession, SessionRegistry
from repro.systems.base import NLISystem, SystemResponse
from repro.systems.session import InteractiveSession

__all__ = ["ServeConfig", "Server"]

_registry = _obs_metrics.get_registry()
_RESPONSES = _registry.counter("repro.serve.responses")
_ERRORS = _registry.counter("repro.serve.errors")
_UNHANDLED = _registry.counter("repro.serve.unhandled")
_QUEUE_SECONDS = _registry.histogram("repro.serve.queue.seconds")
_SERVICE_SECONDS = _registry.histogram("repro.serve.service.seconds")
_TURN_SECONDS = _registry.histogram("repro.serve.turn.seconds")


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob in one frozen object (pipeline-policy style)."""

    #: worker threads executing turns
    workers: int = 4
    #: global bound on admitted-but-undispatched requests
    max_pending: int = 256
    #: per-session bound on queued requests
    max_session_pending: int = 32
    #: session-table bound (None = unbounded); LRU idle eviction makes room
    max_sessions: int | None = 1024
    #: idle-session TTL in seconds (None = never sweep)
    session_ttl: float | None = 600.0
    #: how many submits between opportunistic TTL sweeps
    sweep_every: int = 64
    #: default fair-share weight for new sessions
    default_weight: float = 1.0
    #: default per-request latency budget in seconds (None = unbounded)
    default_deadline: float | None = None
    #: injectable clock (monotonic seconds), threaded everywhere
    clock: Callable[[], float] = field(default=time.monotonic)


class _Pending:
    """One admitted request while it waits in its session's queue."""

    __slots__ = ("request", "ticket", "enqueued_at", "session_seq")

    def __init__(
        self,
        request: Request,
        ticket: Ticket,
        enqueued_at: float,
        session_seq: int,
    ) -> None:
        self.request = request
        self.ticket = ticket
        self.enqueued_at = enqueued_at
        self.session_seq = session_seq


class Server:
    """See module docstring.  Construct, ``submit``, ``shutdown`` (or use
    as a context manager).  *databases* is one :class:`Database` or a
    ``{db_id: Database}`` registry; *system* is the shared
    :class:`NLISystem` every session runs on (default: the resilient
    :class:`~repro.systems.architectures.PipelineSystem`)."""

    def __init__(
        self,
        databases: "Database | dict[str, Database]",
        system: NLISystem | None = None,
        config: ServeConfig | None = None,
        knowledge: str | None = None,
        start: bool = True,
    ) -> None:
        if isinstance(databases, Database):
            databases = {databases.db_id: databases}
        if not databases:
            raise ValueError("a server needs at least one database")
        self.databases = dict(databases)
        self._default_db_id = next(iter(self.databases))
        self.config = config or ServeConfig()
        self._knowledge = knowledge
        if system is None:
            from repro.systems.architectures import PipelineSystem

            system = PipelineSystem()
        #: the shared system every session's InteractiveSession calls
        self.system = system

        self._clock = self.config.clock
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self.sessions = SessionRegistry(
            self._make_interactive,
            default_weight=self.config.default_weight,
            ttl=self.config.session_ttl,
            max_sessions=self.config.max_sessions,
        )
        self.scheduler = FairScheduler()
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            max_session_pending=self.config.max_session_pending,
        )
        self._draining = False
        self._stopping = False
        self._stopped = False
        self._running_turns = 0
        self._active_workers = 0
        self._completions = 0
        self._submits = 0
        self._unhandled: list[str] = []
        self._threads: list[threading.Thread] = []

        # callback gauges re-bind on every construction, so the newest
        # server wins the shared names (tests build many short-lived ones)
        _registry.gauge(
            "repro.serve.queue.depth", fn=lambda: self.admission.pending
        )
        _registry.gauge(
            "repro.serve.sessions.active", fn=lambda: len(self.sessions)
        )
        _registry.gauge(
            "repro.serve.workers.active", fn=lambda: self._active_workers
        )
        _registry.gauge("repro.serve.backpressure", fn=self.admission.pressure)

        if start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._threads:
            return
        for index in range(max(1, self.config.workers)):
            thread = threading.Thread(
                target=self._worker,
                args=(index,),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish everything already admitted.

        Returns True once the server is quiescent (no queued or running
        work), False if *timeout* elapsed first.  The server stays
        drained — subsequent submits shed with ``DRAINING`` — until
        :meth:`resume`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._draining = True
            while self.admission.pending or self._running_turns:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
            return True

    def resume(self) -> None:
        """Re-open admission after a :meth:`drain`."""
        with self._lock:
            self._draining = False

    def shutdown(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Graceful stop: optionally drain, then stop workers and flush.

        With ``drain=True`` (default) admitted work finishes first; any
        request still queued afterwards (drain timeout, or
        ``drain=False``) is shed with ``SHUTDOWN``, so no ticket is ever
        left unresolved.  Idempotent.
        """
        if drain and not self._stopped:
            self.drain(timeout=timeout)
        with self._lock:
            already = self._stopped
            self._stopping = True
            self._work_ready.notify_all()
        if already:
            return
        for thread in self._threads:
            thread.join(timeout=timeout)
        leftovers: list[_Pending] = []
        with self._lock:
            self._stopped = True
            for session in self.sessions:
                while session.queue:
                    leftovers.append(session.queue.popleft())
            self.admission.release(len(leftovers))
            self.scheduler.clear()
            self._idle.notify_all()
        for pending in leftovers:
            self._shed_pending(pending, ShedReason.SHUTDOWN)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        question: "str | Request",
        session_id: str = "default",
        db_id: str | None = None,
        knowledge: str | None = None,
        weight: float | None = None,
        deadline: float | None = None,
    ) -> Ticket:
        """Submit one request; returns its :class:`Ticket` immediately.

        Never raises for load reasons: a request the server will not
        queue comes back as an already-resolved ticket whose response is
        ``status="shed"`` with a typed :class:`ShedReason`.  Raises
        ``KeyError`` only for an unknown ``db_id`` (a caller bug, not a
        load condition).
        """
        if isinstance(question, Request):
            request = question
            session_weight: float | None = request.weight
        else:
            request = Request(
                question=question,
                session_id=session_id,
                db_id=db_id,
                knowledge=knowledge,
                weight=weight if weight is not None else 1.0,
                deadline=(
                    deadline
                    if deadline is not None
                    else self.config.default_deadline
                ),
            )
            # only an explicit weight overrides the registry default
            session_weight = weight
        if request.db_id is not None and request.db_id not in self.databases:
            raise KeyError(f"unknown db_id {request.db_id!r}")
        ticket = Ticket(request)
        now = self._clock()
        pressure = 0.0
        with self._lock:
            self._submits += 1
            if (
                self.config.session_ttl is not None
                and self._submits % self.config.sweep_every == 0
            ):
                self.sessions.evict_idle(now)
            session = self.sessions.get(request.session_id)
            reason = self.admission.admit(
                session=session,
                sessions=self.sessions,
                draining=self._draining,
                stopped=self._stopping or self._stopped,
            )
            if reason is not None:
                pressure = self.admission.pressure()
            else:
                if session is None:
                    session = self.sessions.open(
                        request.session_id,
                        request.db_id or self._default_db_id,
                        session_weight,
                        now,
                    )
                session.submitted += 1
                was_schedulable = session.schedulable
                session.queue.append(
                    _Pending(request, ticket, now, session.submitted)
                )
                if not was_schedulable and session.schedulable:
                    self.scheduler.push(session)
                    self._work_ready.notify()
        if reason is not None:
            ticket._resolve(
                Response(
                    request_id=request.request_id,
                    session_id=request.session_id,
                    status="shed",
                    shed_reason=reason,
                    backpressure=pressure,
                )
            )
        return ticket

    def ask(self, question: str, **kwargs) -> Response:
        """Convenience: submit and wait."""
        return self.submit(question, **kwargs).result()

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def close_session(self, session_id: str) -> int:
        """Close one session; queued requests shed ``SESSION_CLOSED``.

        Returns how many queued requests were flushed.  A turn already
        running finishes normally (its response was already owed); the
        wrapped interactive session is released as soon as it does.
        """
        with self._lock:
            session = self.sessions.close(session_id)
            flushed: list[_Pending] = []
            if session is not None:
                while session.queue:
                    flushed.append(session.queue.popleft())
                self.admission.release(len(flushed))
                if flushed:
                    self._idle.notify_all()
        for pending in flushed:
            self._shed_pending(pending, ShedReason.SESSION_CLOSED)
        return len(flushed)

    def sweep_idle_sessions(self) -> int:
        """Run the TTL sweep now; returns how many sessions were evicted."""
        with self._lock:
            return len(self.sessions.evict_idle(self._clock()))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def backpressure(self) -> float:
        """Global queue occupancy in [0, 1]."""
        return self.admission.pressure()

    def unhandled_errors(self) -> list[str]:
        """Worker-loop exceptions that escaped request handling (should
        always be empty; the chaos gate asserts on it)."""
        with self._lock:
            return list(self._unhandled)

    def stats(self) -> dict:
        """A JSON-safe snapshot for the ``serve`` CLI and the benches."""
        with self._lock:
            sessions = [
                {
                    "session_id": s.session_id,
                    "db_id": s.db_id,
                    "weight": s.weight,
                    "queued": len(s.queue),
                    "running": s.running,
                    "submitted": s.submitted,
                    "completed": s.completed,
                }
                for s in self.sessions
            ]
            return {
                "workers": len(self._threads),
                "active_workers": self._active_workers,
                "pending": self.admission.pending,
                "running": self._running_turns,
                "backpressure": round(self.admission.pressure(), 4),
                "draining": self._draining,
                "completions": self._completions,
                "sessions": sessions,
                "breakers": {
                    name: breaker.state
                    for name, breaker in sorted(all_breakers().items())
                },
            }

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _make_interactive(self, db_id: str) -> InteractiveSession:
        return InteractiveSession(
            system=self.system,
            db=self.databases[db_id],
            knowledge=self._knowledge,
        )

    def _worker(self, index: int) -> None:
        while True:
            with self._lock:
                while not self._stopping and not self.scheduler.peek_ready():
                    self._work_ready.wait()
                if self._stopping:
                    # shutdown() flushes whatever is still queued
                    return
                session = self.scheduler.pop()
                if session is None:  # pragma: no cover - raced stale heap
                    continue
                pending = session.queue.popleft()
                session.running = True
                self.admission.release()
                self._running_turns += 1
                self._active_workers += 1
                pressure = self.admission.pressure()
            try:
                response = self._serve_one(pending, session, index, pressure)
            except BaseException as exc:  # the never-raise backstop
                _UNHANDLED.inc()
                response = Response(
                    request_id=pending.request.request_id,
                    session_id=session.session_id,
                    status="error",
                    error=f"unhandled worker error: {exc!r}",
                    session_seq=pending.session_seq,
                    worker=index,
                )
                with self._lock:
                    self._unhandled.append(repr(exc))
            with self._lock:
                now = self._clock()
                session.running = False
                session.completed += 1
                self.sessions.touch(session, now)
                if session.closed:
                    # close_session() ran mid-turn and deferred releasing
                    # the interactive session to us (see
                    # SessionRegistry.close)
                    session.interactive.close()
                self._running_turns -= 1
                self._active_workers -= 1
                self._completions += 1
                response.completion_index = self._completions
                if session.schedulable:
                    self.scheduler.push(session)
                    self._work_ready.notify()
                if not self.admission.pending and not self._running_turns:
                    self._idle.notify_all()
            _RESPONSES.inc()
            if response.status == "error":
                _ERRORS.inc()
            pending.ticket._resolve(response)

    def _serve_one(
        self,
        pending: _Pending,
        session: ServeSession,
        worker: int,
        pressure: float,
    ) -> Response:
        request = pending.request
        started = self._clock()
        queue_seconds = max(0.0, started - pending.enqueued_at)
        _QUEUE_SECONDS.observe(queue_seconds)
        base = Response(
            request_id=request.request_id,
            session_id=session.session_id,
            session_seq=pending.session_seq,
            worker=worker,
            queue_seconds=queue_seconds,
            backpressure=pressure,
        )

        remaining: float | None = None
        if request.deadline is not None:
            remaining = request.deadline - queue_seconds
            if remaining <= 0:
                # expired while queued: shed before burning a turn on an
                # answer the client has already given up on
                count_shed(ShedReason.DEADLINE)
                base.status = "shed"
                base.shed_reason = ShedReason.DEADLINE
                return base

        token = None
        if remaining is not None:
            token = _deadline.push_budget(remaining, self._clock)
        try:
            system_response = session.interactive.ask(request.question)
        except DeadlineExceeded:
            # a non-resilient system let the budget expiry escape the
            # turn; surface it as the typed deadline shed it is
            count_shed(ShedReason.DEADLINE)
            base.status = "shed"
            base.shed_reason = ShedReason.DEADLINE
            base.service_seconds = self._clock() - started
            return base
        except ReproError as exc:
            base.status = "error"
            base.error = str(exc)
            base.service_seconds = self._clock() - started
            return base
        finally:
            if token is not None:
                _deadline.pop_budget(token)

        service_seconds = self._clock() - started
        _SERVICE_SECONDS.observe(service_seconds)
        _TURN_SECONDS.observe(queue_seconds + service_seconds)
        return self._fill(base, system_response, service_seconds)

    def _fill(
        self,
        base: Response,
        system_response: SystemResponse,
        service_seconds: float,
    ) -> Response:
        base.service_seconds = service_seconds
        base.kind = system_response.kind
        base.sql = system_response.sql
        base.vql = system_response.vql
        base.result = system_response.result
        base.chart = system_response.chart
        base.message = system_response.message
        base.degraded = system_response.degraded
        if system_response.answered:
            base.status = "ok"
        else:
            base.status = "error"
            base.error = system_response.message or (
                f"system returned {system_response.kind!r}"
            )
        return base

    def _shed_pending(self, pending: _Pending, reason: ShedReason) -> None:
        count_shed(reason)
        pending.ticket._resolve(
            Response(
                request_id=pending.request.request_id,
                session_id=pending.request.session_id,
                status="shed",
                shed_reason=reason,
                session_seq=pending.session_seq,
            )
        )
