"""System interface: what every NLI architecture exposes to users.

A system takes a natural-language request against a database and returns a
:class:`SystemResponse` — executed rows for a query, a rendered chart for
a visualization request, or a clarification request when the system
detects it cannot answer confidently (Photon's "confusion detection").
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

from repro.data.database import Database
from repro.sql.ast import Query
from repro.sql.executor import Result
from repro.vis.charts import Chart


@dataclass
class SystemResponse:
    """The user-facing outcome of one request."""

    question: str
    kind: str  # "data" | "chart" | "clarification" | "error"
    sql: str | None = None
    vql: str | None = None
    #: ``sql`` as the AST that ran — what a session appends to history,
    #: so an answered turn's program is never parsed back from text.
    #: None for systems that only return text (the session then parses
    #: ``sql`` itself) and whenever ``sql`` is None.
    query: Query | None = None
    result: Result | None = None
    chart: Chart | None = None
    message: str = ""
    latency_seconds: float = 0.0
    #: degradation-ladder rungs taken while producing this answer
    #: (``stage:rung`` strings from :class:`repro.core.PipelineTrace`);
    #: empty for a healthy turn or a system without resilience.  Sessions
    #: surface non-empty values in the transcript — a degraded answer is
    #: still an answer, but the user is told so.
    degraded: tuple[str, ...] = ()

    @property
    def answered(self) -> bool:
        return self.kind in ("data", "chart")

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded)


#: chart-request cue words shared by the intent classifiers
_VIS_CUES = (
    "chart", "graph", "plot", "visualize", "visualization", "bars",
    "pie", "scatter", "trend line", "proportion breakdown",
)


def wants_visualization(question: str) -> bool:
    """Classify a request as visualization vs. data query by surface cues."""
    lowered = question.lower()
    # a plain loop: no generator frame, and ten substring scans beat one
    # alternation regex over the same cues
    for cue in _VIS_CUES:
        if cue in lowered:
            return True
    return False


class NLISystem(abc.ABC):
    """Base class for the four architecture paradigms."""

    name: str = "nli system"
    architecture: str = "rule-based"

    @abc.abstractmethod
    def answer(
        self,
        question: str,
        db: Database,
        knowledge: str | None = None,
        history: list | None = None,
    ) -> SystemResponse:
        """Answer one request against *db*."""

    def _timed(self, question: str, fn) -> SystemResponse:
        """Run *fn* and stamp the latency onto its response."""
        start = time.perf_counter()
        response = fn()
        response.latency_seconds = time.perf_counter() - start
        response.question = question
        return response
