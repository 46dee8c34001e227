"""Chart stages replayed across paraphrased chart questions.

Paraphrases of one chart question miss the turn cache (its key is the
question text) but translate to one VQL program, and the vis lint gate
and the renderer are deterministic given that text and the database
state.  The pipeline therefore stores a healthy rendered chart's stages
next to the stored turns, keyed by ``(VQL text, database-state
token)``, and replays them.  These tests pin that a replay answers
exactly like a fresh computation, that a write, a degraded or failed
render, and every turn-cache bypass keep it out, and that it is bounded.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.datasets import build_dataset
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parsers.vis.base import VisParser
from repro.resilience import breaker_for, clear_faults, install_faults
from repro.serve import ServeConfig, Server
from repro.systems import PipelineSystem

#: paraphrases of one chart request: one VQL program on the shop database
CHART_QS = (
    "show a bar chart of price by name for products",
    "draw a bar chart of price by name for products",
    "plot a bar chart of price by name for products",
)


def _counter(name: str) -> int:
    return obs_metrics.get_registry().counter(name).value


def _hits() -> int:
    return _counter("repro.pipeline.chart_reuse.hits")


def _misses() -> int:
    return _counter("repro.pipeline.chart_reuse.misses")


def _observed(trace) -> tuple:
    """What a chart turn answers: stage names and outputs, chart, VQL
    and error (timings excluded)."""
    return (
        tuple((r.stage, r.output) for r in trace.stages),
        trace.chart,
        trace.result,
        trace.functional_expression,
        trace.error,
        trace.degraded,
    )


def _fresh(question, db, knowledge=None):
    """*question* computed with nothing stored: a new pipeline's turn
    cache (and so its chart stages) cleared before the turn."""
    pipeline = PipelineSystem().pipeline
    pipeline.turn_cache.clear()
    return pipeline.run(question, db, knowledge=knowledge)


@pytest.fixture(scope="module")
def nvbench():
    return build_dataset("nvbench_like", scale=0.01, seed=11)


def _paraphrase_groups(dataset) -> list[list]:
    """The chart examples grouped by ``(database, gold VQL)``."""
    groups = defaultdict(list)
    for example in dataset.examples:
        if example.vql is not None:
            groups[(example.db_id, example.vql)].append(example)
    return list(groups.values())


def test_replay_matches_fresh_over_every_paraphrase_group(nvbench):
    groups = _paraphrase_groups(nvbench)
    assert sum(len(group) > 1 for group in groups) >= 10
    reused = PipelineSystem().pipeline
    bypassed = PipelineSystem().pipeline
    replayed = 0
    for group in groups:
        for example in group:
            db = nvbench.databases[example.db_id]
            hits = _hits()
            got = reused.run(example.question, db, knowledge=example.knowledge)
            replayed += _hits() - hits
            bypassed.turn_cache.clear()
            want = bypassed.run(
                example.question, db, knowledge=example.knowledge
            )
            assert not want.cached
            assert _observed(got) == _observed(want), example.question
    assert replayed >= 40


def test_paraphrase_replays_the_stored_chart(shop_db):
    pipeline = PipelineSystem().pipeline
    first = pipeline.run(CHART_QS[0], shop_db)
    assert (_hits(), _misses()) == (0, 1)
    second = pipeline.run(CHART_QS[1], shop_db)
    assert (_hits(), _misses()) == (1, 1)
    assert not second.cached and second.chart is first.chart
    assert [r.stage for r in second.stages] == [
        "preprocess", "translate", "lint", "execute", "present",
    ]
    assert _observed(second)[0][2:] == _observed(first)[0][2:]
    assert _observed(second) == _observed(_fresh(CHART_QS[1], shop_db))


def test_a_write_to_a_read_table_misses(shop_db):
    pipeline = PipelineSystem().pipeline
    before = pipeline.run(CHART_QS[0], shop_db)
    shop_db.insert("products", (5, "kettle", "tools", 30.0))
    after = pipeline.run(CHART_QS[1], shop_db)
    assert (_hits(), _misses()) == (0, 2)
    assert len(after.chart.points) == len(before.chart.points) + 1
    assert _observed(after) == _observed(_fresh(CHART_QS[1], shop_db))


#: a chart program the renderer rejects (a bar chart needs two columns)
BAD_VQL = "VISUALIZE BAR SELECT name FROM products"


class _FixedVisParser(VisParser):
    name = "fixed vis parser"

    def parse_vis(self, request):
        return BAD_VQL


def test_a_failed_render_is_not_stored(shop_db):
    pipeline = PipelineSystem(vis_parser=_FixedVisParser()).pipeline
    for question in CHART_QS[:2]:
        assert pipeline.run(question, shop_db).error == "chart rendering failed"
    assert (_hits(), _misses()) == (0, 2)
    assert not pipeline.turn_cache._charts


def test_a_data_only_render_is_not_stored(shop_db):
    pipeline = PipelineSystem().pipeline
    renderer = breaker_for("renderer")
    for _ in range(renderer.failure_threshold):
        renderer.record_failure()
    for question in CHART_QS[:2]:
        trace = pipeline.run(question, shop_db)
        assert trace.degraded == ("render:data-only",) and trace.chart is None
    assert (_hits(), _misses()) == (0, 2)
    assert not pipeline.turn_cache._charts


def test_a_degraded_turn_is_not_stored(shop_db):
    # the translate ladder's rule fallback still renders a chart, but a
    # fallback answer must not outlive the incident that caused it
    pipeline = PipelineSystem().pipeline
    parser = breaker_for("parser.vis")
    for _ in range(parser.failure_threshold):
        parser.record_failure()
    for question in CHART_QS[:2]:
        trace = pipeline.run(question, shop_db)
        assert trace.degraded == ("translate:rule-fallback",)
        assert trace.chart is not None
    assert (_hits(), _misses()) == (0, 2)
    assert not pipeline.turn_cache._charts


@pytest.mark.parametrize("bypass", ["fault plan", "tracing"])
def test_bypassed_with_the_turn_cache(shop_db, bypass):
    pipeline = PipelineSystem().pipeline
    if bypass == "fault plan":
        # a plan on a site no chart turn reaches: active, never firing
        install_faults("execute:error", seed=1)
    else:
        obs_trace.enable()
    try:
        traces = [pipeline.run(q, shop_db) for q in CHART_QS * 2]
    finally:
        clear_faults()
        obs_trace.disable()
    assert (_hits(), _misses()) == (0, 0)
    assert not pipeline.turn_cache._charts
    assert not any(trace.cached or trace.degraded for trace in traces)
    assert len({trace.chart for trace in traces}) == 1


def test_the_bound_holds_and_clear_drops_the_charts(shop_db):
    pipeline = PipelineSystem().pipeline
    cache = pipeline.turn_cache
    cache.maxsize = 2
    bar, pie, line = (
        f"show a {kind} chart of price by name for products"
        for kind in ("bar", "pie", "line")
    )

    def paraphrase(question, verb):
        # a new question text: the turn cache misses, the chart may hit
        return pipeline.run(question.replace("show", verb), shop_db)

    pipeline.run(bar, shop_db)
    pipeline.run(pie, shop_db)
    paraphrase(bar, "draw")  # a hit makes the bar chart the most recent
    pipeline.run(line, shop_db)  # so the pie chart goes
    assert (_hits(), _misses()) == (1, 3)
    assert len(cache._charts) == 2
    paraphrase(bar, "plot")
    paraphrase(pie, "draw")
    assert (_hits(), _misses()) == (2, 4)
    assert len(cache._charts) == 2
    assert len({vql for vql, _ in cache._charts}) == 2
    cache.clear()
    assert not cache._charts and len(cache) == 0


def test_four_workers_replaying_chart_turns_equal_fresh(nvbench):
    groups = [g for g in _paraphrase_groups(nvbench) if len(g) > 1]
    db_id = max(
        {g[0].db_id for g in groups},
        key=lambda name: sum(g[0].db_id == name for g in groups),
    )
    db = nvbench.databases[db_id]
    examples = [e for g in groups if g[0].db_id == db_id for e in g]
    assert len(examples) >= 4
    server = Server(
        db, system=PipelineSystem(),
        config=ServeConfig(workers=4, session_ttl=None),
    )
    try:
        tickets = [
            (example, server.submit(
                example.question, session_id=f"s{round_}-{i}",
                knowledge=example.knowledge,
            ))
            for round_ in range(3)
            for i, example in enumerate(examples)
        ]
        responses = [(e, t.result(timeout=60)) for e, t in tickets]
    finally:
        server.shutdown()
    assert server.unhandled_errors() == []
    assert _hits() > 0
    for example, response in responses:
        want = _fresh(example.question, db, example.knowledge)
        assert response.status == ("ok" if want.error is None else "error")
        assert (response.vql, response.chart, response.error) == (
            want.functional_expression, want.chart, want.error
        ), example.question
