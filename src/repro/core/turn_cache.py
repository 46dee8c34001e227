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
cache stores the leader's own trace as is.  The one ``cached=True``
view of it (same stages, result and chart, no span) that every hit and
follower shares is made on first reuse, so a turn nobody replays pays
nothing for it.  Degraded turns are neither stored nor shared — a
fallback answer must not outlive the incident that caused it — and a
leader that raises or degrades wakes its followers, each of which then
computes its own turn.

Next to the stored turns sit the stored *chart stages*: paraphrased
chart questions miss the turn key but translate to one VQL program, and
the vis lint gate and the renderer are deterministic given the program
text and the database state.  :meth:`TurnCache.chart_stages` looks up
``(VQL text, database-state token)`` — the token taken from the turn's
key, so the same bypasses apply — and the pipeline replays the stored
``lint``/``execute``/``present`` outputs and frozen chart
(``repro.pipeline.chart_reuse.hits``) instead of linting and rendering
again (``repro.pipeline.chart_reuse.misses``).
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
_CHART_HITS = _registry.counter("repro.pipeline.chart_reuse.hits")
_CHART_MISSES = _registry.counter("repro.pipeline.chart_reuse.misses")


def turn_key(
    question: str,
    db: Database,
    knowledge: str | None,
    history: list | None,
) -> tuple | None:
    """The cache key for one turn, or None when the turn must bypass.

    Bypasses when tracing is on (span trees must reflect real stage
    work), under any active fault plan (a turn's outcome is
    then no longer a pure function of its inputs), and when the history
    holds unhashable entries.  The database-state token, the key's last
    element, carries every table's version stamp, so any mutation
    misses; the pipeline keys its stored chart stages on it too.

    ``_faults.active()`` is asked first, on every turn: it reads
    ``REPRO_CHAOS`` once, after which the pipeline's stages test the
    fault flag directly.
    """
    if _faults.active() or _obs_trace._ENABLED:
        return None
    if history:
        history = tuple(history)
        try:
            hash(history)
        except TypeError:
            return None
    else:
        history = ()
    return (question, knowledge, history, _rescache.database_state_token(db))


class _Flight:
    """One computed turn: in flight until ``latch`` opens, then stored.

    Followers wait on ``latch``; once it opens, ``trace`` is the
    leader's trace (None when the leader raised or degraded), and
    ``view`` the shared ``cached=True`` replay of it, made on first
    reuse.
    """

    __slots__ = ("latch", "trace", "view")

    def __init__(self) -> None:
        # held from creation until the leader finishes (a bare Lock is a
        # cheaper latch than an Event, and every miss creates one)
        self.latch = threading.Lock()
        self.latch.acquire()
        self.trace = None
        self.view = None


class TurnCache:
    """A bounded LRU of finished turns plus the map of turns in flight,
    and the bounded map of finished chart stages."""

    #: bound on stored turns, and on stored chart stages
    maxsize = 128

    def __init__(self) -> None:
        self._stored: "OrderedDict[tuple, _Flight]" = OrderedDict()
        self._inflight: dict[tuple, _Flight] = {}
        # an LRU read without the lock: a hit's move to the end is one
        # atomic call, and only inserts and evictions take the lock
        self._charts: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._stored)

    def clear(self) -> None:
        """Drop every stored turn and chart (turns in flight finish
        normally)."""
        with self._lock:
            self._stored.clear()
            self._charts.clear()

    def chart_stages(self, vql: str, state: tuple) -> tuple | None:
        """The stored ``(chosen VQL, chart, ((stage, output), ...))`` of
        the chart stages after translating to *vql* on the database in
        *state* (a :func:`turn_key`'s token), or None."""
        key = (vql, state)
        charts = self._charts
        entry = charts.get(key)
        if entry is None:
            _CHART_MISSES.inc()
            return None
        _CHART_HITS.inc()
        try:
            charts.move_to_end(key)
        except KeyError:  # evicted since the read
            pass
        return entry

    def store_chart_stages(self, vql: str, state: tuple, entry: tuple) -> None:
        """Store *entry* for :meth:`chart_stages`, dropping the least
        recently used past :attr:`maxsize`."""
        with self._lock:
            charts = self._charts
            charts[(vql, state)] = entry
            while len(charts) > self.maxsize:
                charts.popitem(last=False)

    def get_or_compute(
        self, key: tuple | None, compute: Callable[..., object], *args
    ):
        """Replay, wait on a leader, or run ``compute(*args)``; see the
        module docstring.

        A None *key* always runs *compute* and touches nothing.
        """
        if key is None:
            return compute(*args)
        # acquire/release rather than ``with`` on the two sections every
        # turn takes: the context-manager protocol costs about as much as
        # the lock itself
        lock = self._lock
        lock.acquire()
        try:
            stored = self._stored.get(key)
            if stored is not None:
                self._stored.move_to_end(key)
                view = stored.view
                if view is None:
                    view = stored.view = _replay_view(stored.trace)
            else:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = _Flight()
        finally:
            lock.release()
        if stored is not None:
            _HITS.inc()
            return view
        if not leader:
            _FOLLOWERS.inc()
            with flight.latch:
                pass
            if flight.trace is None:
                return compute(*args)
            view = flight.view
            if view is None:
                with lock:
                    view = flight.view
                    if view is None:
                        view = flight.view = _replay_view(flight.trace)
            return view
        _MISSES.inc()
        trace = None
        try:
            trace = compute(*args)
        finally:
            lock.acquire()
            try:
                del self._inflight[key]
                if trace is not None and not trace.degraded:
                    flight.trace = trace
                    stored = self._stored
                    stored[key] = flight
                    while len(stored) > self.maxsize:
                        stored.popitem(last=False)
            finally:
                lock.release()
            flight.latch.release()
        return trace


def _replay_view(trace):
    """The shared replay of a stored leader trace: same stages, result
    and chart, marked cached, without the leader's span."""
    return replace(trace, cached=True, span=None)
