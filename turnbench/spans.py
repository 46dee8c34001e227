"""Spans around the calls into each layer, recorded from outside the program.

:class:`SpanRecorder` replaces each layer's public entry point *at the
binding its caller uses* (``repro.core.pipeline.execute``, not only
``repro.sql.executor.execute``) with a wrapper that records one span:
layer name, start, end, the span that caused it, and the turn it belongs
to.  Spans stay in memory; self times (duration minus the part covered
by child spans) are computed as spans close, and the whole list is
written out when the run ends.

This deliberately does not use :mod:`repro.obs.trace`: enabling that
switches off the pipeline and session turn memos and bypasses the result
cache, so it would measure a different program.
"""

from __future__ import annotations

import itertools
import json
import threading
import weakref
from contextlib import contextmanager
from time import perf_counter

import repro.core.pipeline as _pipeline
import repro.sql.index as _index
import repro.sql.plan as _plan
import repro.sql.stats as _stats
import repro.sql.vector as _vector
import repro.vis.charts as _charts
from repro.systems.session import InteractiveSession

#: layers whose spans count toward ``sql.rebuild_ms.total``
REBUILD_LAYERS = ("sql.stats", "sql.index", "sql.vector")


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self._tl = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._turns = itertools.count(1)
        #: one list per thread of (id, parent, turn, thread, layer,
        #: start, end, self_seconds) tuples
        self._per_thread: list[list] = []
        self._patches: list[tuple] = []
        #: counts taken at the same boundaries as the spans
        self.counts: dict[str, int] = {}
        self._batches: "weakref.WeakSet" = weakref.WeakSet()

    # -- spans ----------------------------------------------------------
    def _local(self):
        local = self._tl
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.thread = threading.current_thread().name
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    @contextmanager
    def span(self, layer: str):
        """Record one span around the block (used for the turn root)."""
        local = self._local()
        frame = self._open(local, layer)
        try:
            yield
        finally:
            self._close(local, frame)

    def _open(self, local, layer: str) -> list:
        stack = local.stack
        if stack:
            parent, turn = stack[-1][0], stack[-1][2]
        else:
            parent, turn = 0, next(self._turns)
        # [id, parent, turn, layer, start, child seconds]
        frame = [next(self._ids), parent, turn, layer, 0.0, 0.0]
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _close(self, local, frame: list) -> None:
        end = perf_counter()
        stack = local.stack
        stack.pop()
        duration = end - frame[4]
        if stack:
            stack[-1][5] += duration
        local.spans.append((
            frame[0], frame[1], frame[2], local.thread, frame[3],
            frame[4], end, duration - frame[5],
        ))

    def wrap(self, layer: str, fn, on_result=None):
        """*fn* with a span of *layer* around every call."""

        def wrapper(*args, **kwargs):
            local = self._local()
            frame = self._open(local, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(local, frame)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Wrap ``owner.attr`` until :meth:`restore` (instance attributes
        shadow their class's method and are deleted again on restore)."""
        had_own = attr in vars(owner)
        raw = vars(owner).get(attr)
        setattr(owner, attr, self.wrap(layer, getattr(owner, attr), on_result))
        self._patches.append((owner, attr, had_own, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, system, session: bool = False):
        """Wrap every layer entry point the turn path of *system* (a
        ``PipelineSystem``) calls; with *session*, also
        ``InteractiveSession.ask``."""
        pipeline = system.pipeline
        try:
            if session:
                self.patch(InteractiveSession, "ask", "session")
            self.patch(pipeline, "run", "pipeline")
            self.patch(pipeline.sql_parser, "parse", "parsers",
                       self._on_parse)
            self.patch(pipeline.vis_parser, "parse_vis", "parsers",
                       self._on_parse_vis)
            if pipeline.lint_gate is not None:
                self.patch(pipeline.lint_gate, "decide", "sql.lint",
                           self._gate_counter("sql.lint"))
            if pipeline.vis_lint_gate is not None:
                self.patch(pipeline.vis_lint_gate, "decide", "vis.lint",
                           self._gate_counter("vis.lint"))
            self.patch(_pipeline, "execute", "sql.execute")
            self.patch(_charts, "execute", "sql.execute")
            self.patch(_pipeline, "render_chart", "vis.charts")
            self.patch(_plan, "compile_query", "sql.plan", self._on_compile)
            self.patch(_stats, "table_stats", "sql.stats")
            self.patch(_stats, "collect_column_stats", "sql.stats")
            self.patch(_index, "hash_index", "sql.index")
            self.patch(_index, "sorted_index", "sql.index")
            self.patch(_vector, "column_batch", "sql.vector", self._on_batch)
            yield self
        finally:
            self.restore()

    # -- counts at the span boundaries ----------------------------------
    def _on_parse(self, result) -> None:
        self.count("parsers.calls")
        self.count("parsers.candidates", len(result.candidates))

    def _on_parse_vis(self, vql) -> None:
        self.count("parsers.calls")
        self.count("parsers.candidates", int(vql is not None))

    def _gate_counter(self, layer: str):
        def on_decision(decision) -> None:
            self.count(f"{layer}.examined", decision.examined)
            self.count(f"{layer}.pruned", len(decision.pruned))

        return on_decision

    def _on_compile(self, plan) -> None:
        self.count("sql.vector.ops", plan.meta.get("vector_ops", 0))

    def _on_batch(self, batch) -> None:
        with self._lock:
            if batch in self._batches:
                return
            self._batches.add(batch)
        self.count("sql.vector.batch_builds")

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        fields = ("id", "parent", "turn", "thread", "layer", "start", "end",
                  "self")
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans()):
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")
