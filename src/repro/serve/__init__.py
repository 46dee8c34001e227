"""Concurrent serving for NLI systems — the "many users, one process"
layer the ROADMAP's heavy-traffic north star asks for.

Everything under :mod:`repro.serve` is zero-dependency and built from
the repo's own substrates: sessions wrap
:class:`~repro.systems.session.InteractiveSession`, identical concurrent
turns collapse in the shared pipeline's :mod:`repro.core.turn_cache`
(keyed off :mod:`repro.sql.rescache` state tokens), deadlines ride
:mod:`repro.resilience.deadline`, and every component reports through
:mod:`repro.obs.metrics` under ``repro.serve.*``.

Pieces (one module each, composed by :class:`Server`):

- :mod:`repro.serve.envelope` — typed :class:`Request` /
  :class:`Response` / :class:`Ticket` and the :class:`ShedReason` enum;
- :mod:`repro.serve.sessions` — the per-session FIFO state table with
  LRU idle eviction;
- :mod:`repro.serve.scheduler` — start-time fair queuing across
  sessions;
- :mod:`repro.serve.admission` — bounded queues, typed load shedding,
  backpressure;
- :mod:`repro.serve.server` — the worker pool tying it all together;
- :mod:`repro.serve.cli` / :mod:`repro.serve.loadgen` — ``python -m
  repro serve`` and ``python -m repro loadgen``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.envelope import Request, Response, ShedReason, Ticket
from repro.serve.scheduler import FairScheduler
from repro.serve.server import ServeConfig, Server
from repro.serve.sessions import ServeSession, SessionRegistry

__all__ = [
    "AdmissionController",
    "FairScheduler",
    "Request",
    "Response",
    "ServeConfig",
    "ServeSession",
    "Server",
    "SessionRegistry",
    "ShedReason",
    "Ticket",
]
