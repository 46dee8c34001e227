"""One cache for whole NL turns, with singleflight.

Every pipeline stage is deterministic given ``(question, knowledge,
history, database state)``, so a finished :class:`~repro.core.pipeline
.PipelineTrace` can answer any later turn with the same four inputs.
:class:`TurnCache` is the one place that reuse happens — sessions and
serve workers over a shared pipeline all go through it:

- a stored turn is **replayed** (``repro.pipeline.turn_cache.hits``);
- an identical turn already in flight is **waited on**: the follower
  blocks on the leader and replays its trace
  (``repro.pipeline.turn_cache.followers``), so concurrent duplicates
  run once;
- otherwise the caller **computes** the turn as leader
  (``repro.pipeline.turn_cache.misses``).

Nothing is copied: a finished trace is frozen all the way down, so the
leader keeps its own and the cache stores one ``cached=True`` view of
it (same stages, result and chart) for every hit and follower.
Degraded turns are neither stored nor shared — a fallback answer must
not outlive the incident that caused it — and a leader that raises or
degrades wakes its followers, each of which then computes its own turn.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Callable

from repro.data.database import Database
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.resilience import faults as _faults
from repro.sql import rescache as _rescache

__all__ = ["TurnCache", "turn_key"]

_registry = _obs_metrics.get_registry()
_HITS = _registry.counter("repro.pipeline.turn_cache.hits")
_MISSES = _registry.counter("repro.pipeline.turn_cache.misses")
_FOLLOWERS = _registry.counter("repro.pipeline.turn_cache.followers")


def turn_key(
    question: str,
    db: Database,
    knowledge: str | None,
    history: list | None,
) -> tuple | None:
    """The cache key for one turn, or None when the turn must bypass.

    Bypasses when the result cache is disabled (one switch governs all
    result-level reuse), when tracing is on (span trees must reflect
    real stage work), under any active fault plan (a turn's outcome is
    then no longer a pure function of its inputs), and when the history
    holds unhashable entries.  The database-state token carries every
    table's version stamp, so any mutation misses.
    """
    if (
        _obs_trace._ENABLED
        or _faults.active()
        or not _rescache.rescache_enabled()
    ):
        return None
    key = (
        question,
        knowledge,
        tuple(history or ()),
        _rescache.database_state_token(db),
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


class _Flight:
    """One in-flight leader; followers wait on ``latch``."""

    __slots__ = ("latch", "trace")

    def __init__(self) -> None:
        # held from creation until the leader finishes (a bare Lock is a
        # cheaper latch than an Event, and every miss creates one)
        self.latch = threading.Lock()
        self.latch.acquire()
        #: the leader's stored view, or None (raised or degraded leader)
        self.trace = None


class TurnCache:
    """A bounded LRU of finished turns plus the map of turns in flight."""

    #: bound on stored turns
    maxsize = 128

    def __init__(self) -> None:
        self._stored: "OrderedDict[tuple, object]" = OrderedDict()
        self._inflight: dict[tuple, _Flight] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._stored)

    def clear(self) -> None:
        """Drop every stored turn (turns in flight finish normally)."""
        with self._lock:
            self._stored.clear()

    def get_or_compute(self, key: tuple | None, compute: Callable[[], object]):
        """Replay, wait on a leader, or run *compute*; see module docstring.

        A None *key* always runs *compute* and touches nothing.
        """
        if key is None:
            return compute()
        with self._lock:
            stored = self._stored.get(key)
            if stored is not None:
                self._stored.move_to_end(key)
            else:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = _Flight()
        if stored is not None:
            _HITS.inc()
            return stored
        if not leader:
            _FOLLOWERS.inc()
            with flight.latch:
                pass
            if flight.trace is None:
                return compute()
            return flight.trace
        _MISSES.inc()
        view = None
        try:
            trace = compute()
            if not trace.degraded:
                view = replace(trace, cached=True, span=None)
        finally:
            with self._lock:
                del self._inflight[key]
                if view is not None:
                    self._stored[key] = view
                    while len(self._stored) > self.maxsize:
                        self._stored.popitem(last=False)
            flight.trace = view
            flight.latch.release()
        return trace
