"""How fast the machine runs right now, measured by a fixed kernel.

On a shared virtual machine the same Python code can run at different
speeds from one minute to the next (another tenant on the core or its
cache), by up to ~1.7x on a 2-vCPU VM.  That moves every timing of a run
together, far more than most changes to the program do.  So each run
times a fixed calibration kernel between turns (or between chunks of a
served pass), and scales its timings to the speed at which the kernel
takes its reference time.  The kernels are the benchmark's own code,
never the program's, so a change to the program cannot move them; the
raw timings stay in the run detail.

A direct loop runs on one thread, and ``kernel`` tracks it.  A served
pass spends its time handing requests between client and worker
threads, whose speed can change while one thread's does not (another
tenant on the second vCPU), so it is scaled by ``handoff_kernel``.
"""

from __future__ import annotations

import gc
import threading
from statistics import median
from time import perf_counter

#: what one call of each kernel takes on the reference machine, seconds;
#: timings are reported as if the kernel had taken exactly this long
REFERENCE_S = 0.0035
HANDOFF_REFERENCE_S = 0.008
#: round trips per handoff_kernel call
HANDOFF_ROUNDS = 200

_KEYS = tuple(f"k{i}" for i in range(4096))


def _reversed_key(row: tuple) -> str:
    return row[0][::-1]


def kernel() -> float:
    """One timed call of a fixed interpreter-bound mix (arithmetic,
    dict inserts, tuple allocation, a keyed sort, string joins), with the
    collector off so the program's heap cannot change its cost.
    Returns the seconds it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(10000):
            total += i * i % 7
        table = {}
        for key in _KEYS:
            table[key] = (key, len(key))
        rows = sorted(table.values(), key=_reversed_key)
        total += len("|".join(row[0] for row in rows[:1000]))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def handoff_kernel() -> float:
    """One timed run of ``HANDOFF_ROUNDS`` round trips of a token between
    two threads through events, with the collector off.  Returns the
    seconds the round trips took."""
    ping, pong = threading.Event(), threading.Event()

    def partner() -> None:
        for _ in range(HANDOFF_ROUNDS):
            ping.wait()
            ping.clear()
            pong.set()

    enabled = gc.isenabled()
    gc.disable()
    thread = threading.Thread(target=partner, name="turnbench-handoff")
    thread.start()
    try:
        start = perf_counter()
        for _ in range(HANDOFF_ROUNDS):
            ping.set()
            pong.wait()
            pong.clear()
        return perf_counter() - start
    finally:
        thread.join()
        if enabled:
            gc.enable()


class Speed:
    """Kernel samples taken during one pass, on the pass's own clock."""

    def __init__(self, threaded: bool = False):
        self.kernel = handoff_kernel if threaded else kernel
        self.reference = HANDOFF_REFERENCE_S if threaded else REFERENCE_S
        #: (pass clock when taken, or None between passes; kernel seconds)
        self.samples: list[tuple[float | None, float]] = []

    def sample(self, at: float | None = None) -> float:
        """Time the kernel once; returns how long the sample took."""
        start = perf_counter()
        self.samples.append((at, self.kernel()))
        return perf_counter() - start

    def factor(self, begin: float | None = None,
               end: float | None = None) -> float:
        """Reference over measured kernel time (< 1 on a slow machine).

        Uses the samples taken between *begin* and *end* when there are
        any, else every sample of the pass.
        """
        inside = [s for t, s in self.samples
                  if t is not None and begin is not None and begin <= t <= end]
        measured = median(inside or [s for _, s in self.samples])
        return self.reference / measured
