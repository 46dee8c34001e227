"""What a computed turn records, and what it feeds the instruments.

The pipeline's per-turn bookkeeping (stage records, the frozen trace,
the stage histograms, the turn cache's shared replay view) is pure
overhead around the Fig. 1 layers, so it is kept lean — and these tests
pin every observable it produces:

- the *stage lock*: a checked-in digest of every computed turn's
  ``(stage, output)`` sequence plus ``error``, ``degraded`` and
  ``functional_expression`` over three corpora (regenerate with
  ``python tests/data/update_stage_lock.py``);
- the instrument contract: one observation per stage per computed turn,
  none for a replay, and the run/turn-cache/retry counters;
- the span tree under tracing, and the typed chart intent that splits a
  response's ``sql`` from its ``vql``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.interface import NaturalLanguageInterface
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parsers.vis.base import VisParser
from repro.resilience import clear_faults, install_faults
from repro.systems import PipelineSystem
from tests.data.update_stage_lock import (
    LOCK_PATH,
    record_digest,
    turn_records,
)
from tests.test_serve import slow_translate

STAGES = ("preprocess", "translate", "lint", "execute", "present")

DATA_Q = "how many products are there"
CHART_Q = "show a bar chart of price by name for products"
FAILED_Q = "plot the zorbs of every quux"


def _counter(name: str) -> int:
    return obs_metrics.get_registry().counter(name).value


def _histogram(stage: str):
    return obs_metrics.get_registry().histogram(
        f"repro.pipeline.stage.{stage}.seconds"
    )


def _stage_counts() -> dict[str, int]:
    return {stage: _histogram(stage).count for stage in STAGES}


# ----------------------------------------------------------------------
# the stage lock
# ----------------------------------------------------------------------
def test_stage_lock():
    lock = json.loads(LOCK_PATH.read_text())
    records, replayed = turn_records()
    digests = [record_digest(record) for _, record in records]
    for index, (expected, actual) in enumerate(zip(lock["turns"], digests)):
        if expected != actual:
            label, record = records[index]
            pytest.fail(
                f"turn {index} ({label}) changed; it now records\n"
                + json.dumps(record, indent=1, ensure_ascii=False)
            )
    assert len(digests) == lock["turn_count"]
    # every kind of turn is covered: chart, data and failed
    outcomes = {
        (record[0][0][1], record[1] is None) for _, record in records
    }
    assert outcomes == {
        ("intent: visualization", True),
        ("intent: visualization", False),
        ("intent: query", True),
    }
    # and chart turns that replayed stored chart stages
    assert replayed > 0


# ----------------------------------------------------------------------
# the instrument contract
# ----------------------------------------------------------------------
def test_each_stage_that_ran_is_observed_once_per_computed_turn(shop_db):
    pipeline = PipelineSystem().pipeline
    traces = [
        pipeline.run(q, shop_db) for q in (DATA_Q, CHART_Q, FAILED_Q)
    ]
    assert [t.cached for t in traces] == [False, False, False]
    assert traces[2].error == "translation failed"
    expected_counts = dict.fromkeys(STAGES, 0)
    expected_sums = dict.fromkeys(STAGES, 0.0)
    for trace in traces:
        for record in trace.stages:
            expected_counts[record.stage] += 1
            expected_sums[record.stage] += record.seconds
    assert _stage_counts() == expected_counts
    assert expected_counts == {
        "preprocess": 3, "translate": 3, "lint": 2, "execute": 2,
        "present": 2,
    }
    for stage in STAGES:
        assert _histogram(stage).total == expected_sums[stage]


def test_a_turn_cache_hit_adds_no_observation(shop_db):
    pipeline = PipelineSystem().pipeline
    first = pipeline.run(DATA_Q, shop_db)
    counts = _stage_counts()
    runs = _counter("repro.pipeline.runs")
    attempts = _counter("repro.resilience.retry.attempts")
    replay = pipeline.run(DATA_Q, shop_db)
    assert replay.cached and replay.stages is first.stages
    assert _stage_counts() == counts
    assert _counter("repro.pipeline.runs") == runs + 1
    assert _counter("repro.pipeline.turn_cache.hits") == 1
    assert _counter("repro.pipeline.turn_cache.misses") == 1
    assert _counter("repro.resilience.retry.attempts") == attempts


def test_followers_add_no_observation(shop_db):
    system = PipelineSystem()
    calls = slow_translate(system, 0.2)
    out: list = []
    threads = [
        threading.Thread(
            target=lambda: out.append(system.pipeline.run(DATA_Q, shop_db))
        )
        for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(out) == 3 and len(calls) == 1
    assert _counter("repro.pipeline.runs") == 3
    assert _counter("repro.pipeline.turn_cache.misses") == 1
    assert _counter("repro.pipeline.turn_cache.followers") == 2
    assert _counter("repro.resilience.retry.attempts") == 1
    assert _stage_counts() == {stage: 1 for stage in STAGES}
    followers = [t for t in out if t.cached]
    assert len(followers) == 2 and followers[0] is followers[1]


def test_counters_count_runs_misses_and_attempts(shop_db):
    pipeline = PipelineSystem().pipeline
    for question in (DATA_Q, CHART_Q, DATA_Q, FAILED_Q, CHART_Q):
        pipeline.run(question, shop_db)
    assert _counter("repro.pipeline.runs") == 5
    assert _counter("repro.pipeline.turn_cache.misses") == 3
    assert _counter("repro.pipeline.turn_cache.hits") == 2
    assert _counter("repro.pipeline.turn_cache.followers") == 0
    assert _counter("repro.pipeline.errors") == 1
    # one translate attempt per computed turn; retries add attempts
    assert _counter("repro.resilience.retry.attempts") == 3
    # under a fault plan turns bypass the cache; the second turn's first
    # attempt is the plan's second translate call, which fails once
    install_faults("translate:error:every=2", seed=1)
    try:
        traces = [pipeline.run(DATA_Q, shop_db) for _ in range(2)]
    finally:
        clear_faults()
    assert [(t.cached, t.degraded) for t in traces] == [(False, ())] * 2
    assert _counter("repro.resilience.retry.attempts") == 6
    assert _counter("repro.resilience.retry.retries") == 1


def test_tracing_keeps_one_child_span_per_stage(shop_db):
    pipeline = PipelineSystem().pipeline
    with obs_trace.tracing() as roots:
        traces = [pipeline.run(q, shop_db) for q in (DATA_Q, CHART_Q)]
    assert [root.name for root in roots] == ["repro.pipeline.run"] * 2
    for root, trace in zip(roots, traces):
        assert trace.span is root and not trace.cached
        children = [
            c for c in root.children
            if c.name.startswith("repro.pipeline.stage.")
        ]
        assert [c.name.rsplit(".", 1)[1] for c in children] == [
            r.stage for r in trace.stages
        ]
        assert [c.attrs["output"] for c in children] == [
            r.output for r in trace.stages
        ]
    assert _stage_counts() == {stage: 2 for stage in STAGES}


def test_the_shared_view_is_made_on_first_reuse(shop_db):
    pipeline = PipelineSystem().pipeline
    cache = pipeline.turn_cache
    leader = pipeline.run(DATA_Q, shop_db)
    (entry,) = cache._stored.values()
    assert entry.trace is leader and entry.view is None
    first = pipeline.run(DATA_Q, shop_db)
    assert first.cached and first.span is None
    assert entry.view is first and pipeline.run(DATA_Q, shop_db) is first
    assert first.stages is leader.stages and first.result is leader.result


# ----------------------------------------------------------------------
# the typed chart intent
# ----------------------------------------------------------------------
def _split(response) -> tuple:
    return (response.kind, response.sql, response.vql)


@pytest.mark.parametrize("question", [DATA_Q, CHART_Q])
def test_fresh_and_replayed_answers_split_sql_and_vql_alike(
    shop_db, question
):
    system = PipelineSystem()
    fresh = system.answer(question, shop_db)
    replayed = system.answer(question, shop_db)
    assert _counter("repro.pipeline.turn_cache.hits") == 1
    assert _split(fresh) == _split(replayed)
    if question == DATA_Q:
        assert fresh.kind == "data" and fresh.sql and fresh.vql is None
    else:
        assert fresh.kind == "chart" and fresh.vql and fresh.sql is None


def test_degraded_chart_turn_still_reports_vql(shop_db):
    system = PipelineSystem()
    install_faults("render:error", seed=1)
    try:
        response = system.answer(CHART_Q, shop_db)
        trace = system.pipeline.run(CHART_Q, shop_db)
    finally:
        clear_faults()
    assert response.degraded == ("render:data-only",)
    assert response.kind == "data" and response.result.rows
    assert response.sql is None
    assert response.vql == trace.functional_expression
    assert response.vql.lower().startswith("visualize")
    assert trace.vis_intent and trace.chart is None


#: a chart program the renderer rejects (a bar chart needs two columns)
BAD_VQL = "VISUALIZE BAR SELECT name FROM products"


class _FixedVisParser(VisParser):
    name = "fixed vis parser"

    def parse_vis(self, request):
        return BAD_VQL


def test_failed_chart_turn_reports_vql_not_sql(shop_db):
    response = PipelineSystem(vis_parser=_FixedVisParser()).answer(
        CHART_Q, shop_db
    )
    assert response.kind == "error"
    assert response.message == "chart rendering failed"
    assert response.sql is None and response.vql == BAD_VQL


def test_answer_splits_sql_and_vql_by_chart_intent(shop_db):
    nli = NaturalLanguageInterface(shop_db, resilience=True)
    failed = nli.ask("plot a bar chart of price by name for products")
    assert failed.trace.error == "chart rendering failed"
    assert failed.sql is None
    assert failed.vql.startswith("VISUALIZE BAR")

    install_faults("render:error", seed=1)
    try:
        degraded = nli.ask(CHART_Q)
    finally:
        clear_faults()
    assert degraded.degraded == ("render:data-only",) and degraded.rows
    assert degraded.sql is None
    assert degraded.vql == degraded.trace.functional_expression

    data = nli.ask(DATA_Q)
    assert data.vql is None and data.sql.startswith("SELECT")
