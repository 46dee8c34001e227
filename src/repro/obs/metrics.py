"""Process-wide metrics registry — the aggregation half of :mod:`repro.obs`.

Where spans (:mod:`repro.obs.trace`) answer "where did *this* request's
time go", metrics answer "what has the process done so far": monotonically
increasing :class:`Counter`\\ s, point-in-time :class:`Gauge`\\ s (plain or
callback-backed, so existing counters like the plan-cache hit totals in
:mod:`repro.sql.plan` re-register here without any hot-path cost), and
fixed-boundary :class:`Histogram`\\ s for latency distributions.

Naming scheme (documented in DESIGN.md): dot-separated
``repro.<area>.<object>.<measure>`` — e.g. ``repro.sql.plan.cache.hits``,
``repro.pipeline.stage.execute.seconds``, ``repro.session.turns``.  The
default :class:`MetricsRegistry` is a process singleton
(:func:`get_registry`); tests get a clean slate from the autouse
``_obs_reset`` fixture in ``tests/conftest.py``, which calls
:meth:`MetricsRegistry.reset` after every test.

Instruments are created on first use and returned on every subsequent
request for the same name; asking for an existing name as a different
instrument kind raises ``TypeError`` (a name can only ever mean one
thing).  Creation is lock-protected, and so are the increment/observe
hot paths: ``value += amount`` is a read-modify-write, and with the
serving layer (:mod:`repro.serve`) incrementing the same counters from
many worker threads, relying on the GIL to never preempt between the
read and the write would silently drop updates.  Each instrument carries
its own small lock, so contention stays per-instrument, exactly like
collectors in production metrics clients.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramGroup",
    "MetricsRegistry",
    "get_registry",
]

#: Seconds-denominated boundaries spanning 100µs–5s, the range the
#: pipeline and SQL engine actually occupy (see BENCH_*.json).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing count (requests served, cache probes)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter.  Thread-safe: the
        += is a read-modify-write, so concurrent workers would lose
        increments without the lock."""
        # acquire/release rather than ``with``: this runs several times
        # per turn, and the context-manager protocol costs about as much
        # again as the lock itself
        lock = self._lock
        lock.acquire()
        try:
            self.value += amount
        finally:
            lock.release()

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value: either set explicitly or callback-backed.

    A callback gauge (``fn=...``) reads its source of truth lazily at
    snapshot time — the pattern used to mirror the plan/parse cache
    counters of :mod:`repro.sql.plan` into the registry with zero cost on
    the cache hot path.
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Callable[[], float] | None = None) -> None:
        self.name = name
        self._value: float = 0
        self._fn = fn

    def set(self, value: float) -> None:
        """Set the gauge (and detach any callback)."""
        # value first: a concurrent snapshot sees either the callback's
        # reading or the new value, never a stale explicit one
        self._value = value
        self._fn = None

    def set_function(self, fn: Callable[[], float] | None) -> None:
        """Back the gauge by *fn*, read at every snapshot."""
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def reset(self) -> None:
        """Zero an explicit gauge; callback gauges keep their source."""
        if self._fn is None:
            self._value = 0

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-boundary histogram with Prometheus ``le`` bucket semantics.

    ``boundaries`` are inclusive upper bounds in ascending order; an
    observation lands in the first bucket whose boundary is >= the value
    (so a value exactly on an edge belongs to that edge's bucket), with a
    final implicit ``+Inf`` overflow bucket.  Tracks count and sum, so
    mean latency falls out for free.
    """

    __slots__ = (
        "name", "boundaries", "bucket_counts", "count", "total", "_lock"
    )

    def __init__(
        self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.name = name
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation.  Thread-safe: the three updates are
        read-modify-writes and must also stay mutually consistent
        (``count`` equals the bucket sum) for snapshot readers."""
        index = bisect_left(self.boundaries, value)
        lock = self._lock  # acquire/release: see Counter.inc
        lock.acquire()
        try:
            self.bucket_counts[index] += 1
            self.count += 1
            self.total += value
        finally:
            lock.release()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.boundaries) + 1)
            self.count = 0
            self.total = 0.0

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self.bucket_counts)
            count = self.count
            total = self.total
        buckets = {
            f"le_{bound:g}": n
            for bound, n in zip(self.boundaries, counts)
        }
        buckets["le_inf"] = counts[-1]
        return {
            "count": count,
            "sum": round(total, 9),
            "mean": round(total / count if count else 0.0, 9),
            "buckets": buckets,
        }


class HistogramGroup:
    """Histograms that receive their observations together, under one lock.

    For instruments always fed as a batch — the pipeline's per-stage
    latencies arrive once per computed turn — one lock round-trip per
    batch replaces one per observation.  Every member histogram is
    rebound to the group's lock, so its own ``observe``, ``snapshot``
    and ``reset`` stay consistent with :meth:`observe_many`.  Build a
    group at import time, before the histograms are in use, and put a
    histogram in at most one group.
    """

    __slots__ = ("_by_name", "_lock")

    def __init__(self, histograms: dict[str, Histogram]) -> None:
        self._by_name = dict(histograms)
        self._lock = threading.Lock()
        for histogram in self._by_name.values():
            histogram._lock = self._lock

    def observe_many(self, observations) -> None:
        """Record ``(key, value)`` pairs, each into the histogram under
        *key*, holding the group's lock once."""
        by_name = self._by_name
        lock = self._lock  # acquire/release: see Counter.inc
        lock.acquire()
        try:
            for key, value in observations:
                histogram = by_name[key]
                histogram.bucket_counts[
                    bisect_left(histogram.boundaries, value)
                ] += 1
                histogram.count += 1
                histogram.total += value
        finally:
            lock.release()


class MetricsRegistry:
    """Name → instrument map with fetch-or-create semantics."""

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, factory):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Fetch or create the counter *name*."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        """Fetch or create the gauge *name*; *fn* (re)binds its callback."""
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name))
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Fetch or create the histogram *name* (boundaries fixed at birth)."""
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, boundaries)
        )

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, Any]:
        """All instruments' current values, sorted by name (JSON-safe)."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def reset(self) -> None:
        """Zero every instrument (callback gauges keep their callbacks)."""
        for instrument in self._instruments.values():
            instrument.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrumented module uses."""
    return _REGISTRY
