"""Cooperative deadlines — the time half of :mod:`repro.resilience`.

A :class:`Deadline` is a token carrying an absolute expiry instant on an
injectable clock.  Nothing preempts: code *cooperates* by calling
:meth:`Deadline.check` (or the module-level :func:`checkpoint`) at safe
points — the executor's row and vector loops, the lint gates' candidate
loops, the LLM parsers' completion loops — and a check past the expiry
raises :class:`~repro.errors.DeadlineExceeded`, which the resilient
pipeline catches and routes onto a degradation ladder.

Propagation is ambient: :func:`deadline_scope` (or the pipeline's
:func:`push_budget`/:func:`pop_budget` fast path) makes a deadline
ambient for the dynamic extent of a block, and a nested scope always
becomes the *tighter* of its own expiry and the enclosing one, so an
inner per-stage budget can only shrink the outer per-turn budget, never
extend it.  The ambient state is flat per-thread data — one expiry
float, one clock, one open-scope count — rather than a stack of
objects: each enclosing scope keeps the expiry it displaced in its own
frame and restores it on exit, so opening a scope allocates nothing on
the serving path.  Instrumented loops read one module global
(``_ACTIVE``, the count of open scopes across all threads) before doing
any work, so the disabled path costs a single integer truth test — the
same discipline as ``repro.obs.trace._ENABLED``, and held to the same
<5% budget by ``benchmarks/bench_resilience.py``.

The clock is injectable per deadline (tests pass a counter-backed clock
for exact, deterministic expiry), defaulting to ``time.monotonic``.
Scopes nested on one thread must share a clock lineage — the pipeline
threads its policy clock through every scope it opens — because the
tightening rule compares expiry instants across scopes.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Iterator

from repro.errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "checkpoint",
    "current_deadline",
    "deadline_scope",
    "guard_rows",
]

#: Count of deadline scopes currently open, process-wide.  Hot loops test
#: this single global before touching the thread-local state; zero means
#: the per-iteration cost of deadline support is one integer truth test.
_ACTIVE = 0

#: Per-thread ambient state, one list per thread (see :func:`_state`):
#: ``[open, expires_at, clock]`` — the scopes open on this thread, the
#: innermost effective expiry (float | None) and the innermost scope's
#: clock.  One thread-local lookup per operation, then list indexing:
#: each attribute of a ``threading.local`` costs a per-thread dict
#: lookup, and a push and pop touched seven of them.
_local = threading.local()

_OPEN, _EXPIRES_AT, _CLOCK = 0, 1, 2

#: Sentinel marking "no enclosing scope" in a saved previous expiry.
_NO_SCOPE = object()

#: Row-loop polling stride: :func:`guard_rows` consults the clock once
#: every this many rows, bounding both the overshoot past an expiry and
#: the clock-call overhead while a deadline is active.
CHECK_STRIDE = 1024


class Deadline:
    """An absolute expiry instant on an injectable monotonic clock.

    Create with :meth:`after` (relative) or the constructor (absolute).
    ``None`` seconds means "no limit" — a deadline that never expires,
    which lets policy code treat "unbounded" uniformly.
    """

    __slots__ = ("expires_at", "clock")

    def __init__(
        self,
        expires_at: float | None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.expires_at = expires_at
        self.clock = clock if clock is not None else time.monotonic

    @classmethod
    def after(
        cls,
        seconds: float | None,
        clock: Callable[[], float] | None = None,
    ) -> "Deadline":
        """A deadline *seconds* from now on *clock* (``None`` = unbounded)."""
        clk = clock if clock is not None else time.monotonic
        expiry = None if seconds is None else clk() + seconds
        return cls(expiry, clk)

    def remaining(self) -> float | None:
        """Seconds until expiry (may be negative), ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return self.expires_at - self.clock()

    def expired(self) -> bool:
        """Whether the expiry instant has passed."""
        return (
            self.expires_at is not None and self.clock() >= self.expires_at
        )

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if expired; otherwise a no-op."""
        if self.expired():
            raise DeadlineExceeded(f"deadline exceeded during {what}")

    def tightened(self, seconds: float | None) -> "Deadline":
        """A child deadline: min(this expiry, now + *seconds*).

        This is the propagation rule — a stage budget can only shrink the
        enclosing turn budget.  ``None`` seconds inherits this deadline's
        expiry unchanged (sharing the clock).
        """
        if seconds is None:
            return Deadline(self.expires_at, self.clock)
        child = self.clock() + seconds
        if self.expires_at is not None:
            child = min(child, self.expires_at)
        return Deadline(child, self.clock)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.expires_at is None:
            return "<Deadline unbounded>"
        return f"<Deadline remaining={self.remaining():.4f}s>"


def _state() -> list:
    """This thread's ``[open, expires_at, clock]`` list, created on first
    use."""
    try:
        return _local.state
    except AttributeError:
        state = _local.state = [0, None, None]
        return state


def current_deadline() -> Deadline | None:
    """A snapshot of the innermost ambient deadline, or ``None``.

    The returned :class:`Deadline` is a value view of the ambient state
    at the moment of the call — hold it, check it, but do not expect it
    to track scopes opened or closed afterwards.
    """
    state = _state()
    if state[_OPEN]:
        return Deadline(state[_EXPIRES_AT], state[_CLOCK])
    return None


def push_budget(seconds: float, clock: Callable[[], float]):
    """Open a deadline scope ``seconds`` from now without the ceremony.

    The allocation-free fast path of ``deadline_scope(Deadline.after())``
    for the pipeline's per-stage and per-turn budgets: one clock read,
    one min against the enclosing expiry, three attribute writes.
    Returns an opaque token that MUST be handed back to
    :func:`pop_budget` in a ``finally``.  The clock must belong to the
    same lineage as any enclosing scope's (see the module docstring).
    """
    global _ACTIVE
    try:
        state = _local.state
    except AttributeError:
        state = _state()
    open_count = state[_OPEN]
    expiry = clock() + seconds
    if open_count:
        prev = state[_EXPIRES_AT]
        if prev is not None and prev < expiry:
            expiry = prev
    else:
        prev = _NO_SCOPE
    state[_OPEN] = open_count + 1
    state[_EXPIRES_AT] = expiry
    state[_CLOCK] = clock
    _ACTIVE += 1
    return prev


def pop_budget(prev) -> None:
    """Close the innermost scope opened by :func:`push_budget`.

    *prev* is the token :func:`push_budget` returned for that scope.
    """
    global _ACTIVE
    state = _local.state
    if prev is _NO_SCOPE:
        state[_OPEN] = 0
    else:
        state[_OPEN] -= 1
        state[_EXPIRES_AT] = prev
    _ACTIVE -= 1


class deadline_scope:
    """Make a deadline ambient for the block (tightened by any outer scope).

    The effective deadline is ``min(deadline, enclosing)`` — see
    :meth:`Deadline.tightened` — so nested scopes monotonically shrink
    the budget.  ``__enter__`` returns the effective (possibly
    tightened) deadline.

    A hand-rolled context manager rather than ``@contextmanager``: the
    resilient pipeline opens several scopes per turn, and the
    generator-based protocol costs a few microseconds each that this
    class does not.  Unlike :func:`push_budget`, a scope saves and
    restores the enclosing clock too, so it composes with any clock
    mix.
    """

    __slots__ = ("deadline", "_prev_expires", "_prev_clock")

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self._prev_expires = _NO_SCOPE
        self._prev_clock = None

    def __enter__(self) -> Deadline:
        global _ACTIVE
        state = _state()
        open_count = state[_OPEN]
        effective = self.deadline
        if open_count:
            outer_expires = self._prev_expires = state[_EXPIRES_AT]
            outer_clock = self._prev_clock = state[_CLOCK]
            if outer_expires is not None and (
                effective.expires_at is None
                or outer_expires < effective.expires_at
            ):
                effective = Deadline(outer_expires, outer_clock)
        else:
            self._prev_expires = _NO_SCOPE
        state[_OPEN] = open_count + 1
        state[_EXPIRES_AT] = effective.expires_at
        state[_CLOCK] = effective.clock
        _ACTIVE += 1
        return effective

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        state = _local.state
        if self._prev_expires is _NO_SCOPE:
            state[_OPEN] = 0
        else:
            state[_OPEN] -= 1
            state[_EXPIRES_AT] = self._prev_expires
            state[_CLOCK] = self._prev_clock
        _ACTIVE -= 1


def checkpoint(what: str = "operation") -> None:
    """Cooperative check against the ambient deadline, if any.

    Near-free when no deadline scope is open (one global truth test);
    instrumented call sites may additionally guard with
    ``if deadline._ACTIVE:`` to skip even the function call.
    """
    if not _ACTIVE:
        return
    try:
        state = _local.state
    except AttributeError:  # no scope was ever opened on this thread
        return
    if not state[_OPEN]:
        return
    expires_at = state[_EXPIRES_AT]
    if expires_at is not None and state[_CLOCK]() >= expires_at:
        raise DeadlineExceeded(f"deadline exceeded during {what}")


def guard_rows(rows: Iterable, what: str = "row scan") -> Iterable:
    """Guard a row iterable with strided deadline polls when one is active.

    Returns *rows* unchanged when no deadline scope is open — the
    executor's loops call this once per operator invocation, so the
    disabled path pays one global test and no per-row cost.  While a
    deadline is active, the clock is consulted every :data:`CHECK_STRIDE`
    rows, bounding overshoot without a per-row clock call.

    Sized sequences no longer than :data:`CHECK_STRIDE` are returned
    as-is after one upfront expiry check: the strided poll could never
    fire mid-scan for them, so wrapping would add per-row generator
    overhead without adding any safety.  Longer sequences are guarded in
    stride-sized slices; unsized iterators keep a lazy per-row wrapper
    (eager chunking could compute rows a short-circuiting consumer never
    asks for).
    """
    if not _ACTIVE:
        return rows
    try:
        state = _local.state
    except AttributeError:  # no scope was ever opened on this thread
        return rows
    if not state[_OPEN]:
        return rows
    expires_at = state[_EXPIRES_AT]
    if expires_at is None:
        return rows
    clock = state[_CLOCK]
    if clock() >= expires_at:
        raise DeadlineExceeded(f"deadline exceeded during {what}")
    try:
        length = len(rows)  # type: ignore[arg-type]
    except TypeError:
        return _checked_iter(rows, expires_at, clock, what)
    if length <= CHECK_STRIDE:
        return rows
    return _checked_seq(rows, expires_at, clock, what)


def _checked_seq(rows, expires_at: float, clock, what: str) -> Iterator:
    for start in range(0, len(rows), CHECK_STRIDE):
        if start and clock() >= expires_at:
            raise DeadlineExceeded(f"deadline exceeded during {what}")
        yield from rows[start : start + CHECK_STRIDE]


def _checked_iter(
    rows: Iterable, expires_at: float, clock, what: str
) -> Iterator:
    countdown = CHECK_STRIDE
    for row in rows:
        countdown -= 1
        if countdown <= 0:
            countdown = CHECK_STRIDE
            if clock() >= expires_at:
                raise DeadlineExceeded(f"deadline exceeded during {what}")
        yield row
