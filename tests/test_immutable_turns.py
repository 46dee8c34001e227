"""A finished turn is immutable all the way down, so it is shared, not copied.

The turn cache hands one :class:`~repro.core.pipeline.PipelineTrace` to
its leader, its hits and its followers, and the result cache hands one
:class:`~repro.sql.executor.Result` to every caller.  That is only sound
if nothing reachable from a returned turn can be changed in place; the
reachability test walks every object a trace or a system response shares
and requires each to be a frozen dataclass, a tuple or a scalar.  The
differential pins the lazily compiled ``Chart.spec`` to the eager
:func:`~repro.vis.spec.build_spec` it replaced, and the pickle test keeps
the frozen, slotted types shippable to worker processes.
"""

from __future__ import annotations

import dataclasses
import pickle
import re

import pytest

from repro.core.pipeline import PipelineTrace
from repro.datasets import build_dataset
from repro.errors import ChartError, SQLError
from repro.resilience import clear_faults, install_faults
from repro.sql.executor import Result, execute
from repro.systems import PipelineSystem
from repro.systems.base import SystemResponse
from repro.vis.charts import Chart, _execute_binned, render_chart
from repro.vis.spec import build_spec, field_type
from repro.vis.vql import BIN_UNITS, CHART_TYPES, parse_vql

_SCALARS = (str, int, float, bool, type(None))


def _assert_deeply_immutable(obj, path: str = "turn") -> None:
    """Every object reachable from *obj* is a scalar, a tuple or a frozen
    dataclass (whose fields refuse assignment)."""
    if isinstance(obj, _SCALARS):
        return
    if isinstance(obj, tuple):
        for index, item in enumerate(obj):
            _assert_deeply_immutable(item, f"{path}[{index}]")
        return
    assert dataclasses.is_dataclass(obj), f"{path}: {type(obj).__name__}"
    assert type(obj).__dataclass_params__.frozen, path
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
        _assert_deeply_immutable(getattr(obj, f.name), f"{path}.{f.name}")


def _assert_turn_immutable(trace: PipelineTrace) -> None:
    assert trace.span is None  # only set under tracing
    _assert_deeply_immutable(trace)


def _assert_response_shares_immutable(response: SystemResponse) -> None:
    # the response is a per-caller envelope; what it shares must be frozen
    for name in ("result", "chart", "query", "degraded"):
        _assert_deeply_immutable(getattr(response, name), f"response.{name}")


@pytest.fixture(scope="module")
def corpora():
    return [
        build_dataset(name, scale=0.03, seed=11)
        for name in ("spider_like", "nvbench_like", "chartdialogs_like")
    ]


def test_nothing_reachable_from_a_turn_is_mutable(corpora):
    system = PipelineSystem()
    pipeline = system.pipeline
    kinds: set[str] = set()
    for dataset in corpora:
        for example in dataset.examples[:25]:
            db = dataset.database(example.db_id)
            first = pipeline.run(example.question, db)
            replay = pipeline.run(example.question, db)
            response = system.answer(example.question, db)
            for trace in (first, replay):
                _assert_turn_immutable(trace)
            _assert_response_shares_immutable(response)
            if first.chart is not None:
                kinds.add("chart")
            elif first.result is not None:
                kinds.add("data")
            if replay.cached:
                kinds.add("cached")
    assert kinds == {"chart", "data", "cached"}  # not vacuous


@pytest.mark.parametrize(
    "spec, corpus",
    [
        ("translate:error:every=1", 0),
        ("execute:error:every=1", 0),
        ("render:error:every=1", 1),  # nvbench: chart turns
    ],
)
def test_degraded_turns_are_immutable(corpora, spec, corpus):
    system = PipelineSystem()
    dataset = corpora[corpus]
    install_faults(spec, seed=1)
    try:
        traces = [
            system.pipeline.run(e.question, dataset.database(e.db_id))
            for e in dataset.examples[:10]
        ]
    finally:
        clear_faults()
    assert any(trace.degraded for trace in traces)
    for trace in traces:
        _assert_turn_immutable(trace)


def _render_outcome(vql, db):
    try:
        return render_chart(vql, db), None
    except ChartError as exc:
        return None, exc


def _reference_spec(vql, result) -> dict:
    """The spec as it was compiled eagerly at render time, kept verbatim
    as the oracle for the lazily compiled ``Chart.spec``."""
    if len(result.columns) < 2:
        raise ChartError(
            f"a {vql.chart_type} chart needs two result columns, got "
            f"{len(result.columns)}"
        )
    x_field, y_field = result.columns[0], result.columns[1]
    values = [{x_field: row[0], y_field: row[1]} for row in result.rows]
    x_type = field_type([row[0] for row in result.rows])
    y_type = field_type([row[1] for row in result.rows])
    if result.rows:
        if vql.chart_type == "scatter" and (
            x_type != "quantitative" or y_type != "quantitative"
        ):
            raise ChartError("scatter plots need numeric x and y columns")
        if vql.chart_type in ("bar", "pie") and y_type != "quantitative":
            raise ChartError(
                f"{vql.chart_type} charts need a numeric y column"
            )
    if vql.chart_type == "pie":
        encoding = {
            "theta": {"field": y_field, "type": "quantitative"},
            "color": {"field": x_field, "type": "nominal"},
        }
    else:
        encoding = {
            "x": {"field": x_field, "type": x_type},
            "y": {"field": y_field, "type": y_type},
        }
        if vql.bin_column and vql.bin_unit:
            encoding["x"]["timeUnit"] = vql.bin_unit
    marks = {"bar": "bar", "pie": "arc", "line": "line", "scatter": "point"}
    return {
        "mark": marks[vql.chart_type],
        "encoding": encoding,
        "data": {"values": values},
    }


def _build_outcome(vql, db):
    if vql.bin_column and vql.bin_unit:
        result = _execute_binned(vql, db)
    else:
        result = execute(vql.query, db)
    try:
        expected = _reference_spec(vql, result)
    except ChartError as exc:
        with pytest.raises(ChartError, match=f"^{re.escape(str(exc))}$"):
            build_spec(vql, result)
        return None, exc, result
    assert build_spec(vql, result) == expected, vql
    return expected, None, result


def test_lazy_spec_matches_eager_build_spec(corpora):
    """``render_chart(v, db).spec`` equals ``build_spec(v, result)`` and
    the eager reference on every gold chart, as given and binned (the
    corpora carry no BIN clause), drawn as every chart type, and all
    three refuse the same charts with the same :class:`ChartError`."""
    agreed = refused = 0
    golds = sorted(
        {
            (dataset.name, e.db_id, e.vql): dataset
            for dataset in corpora[1:]
            for e in dataset.examples
            if e.vql
        }.items()
    )
    for index, ((_, db_id, gold), dataset) in enumerate(golds):
        db = dataset.database(db_id)
        plain = parse_vql(gold)
        binned = dataclasses.replace(
            plain, bin_column="x", bin_unit=BIN_UNITS[index % len(BIN_UNITS)]
        )
        for program in (plain, binned):
            for chart_type in CHART_TYPES:
                vql = program.with_chart(chart_type)
                try:
                    expected, expected_exc, result = _build_outcome(vql, db)
                except SQLError as exc:
                    with pytest.raises(type(exc)):
                        render_chart(vql, db)
                    continue
                chart, exc = _render_outcome(vql, db)
                if expected_exc is None:
                    assert exc is None, (vql, exc)
                    assert chart.spec == expected, vql
                    agreed += 1
                    continue
                assert isinstance(exc, ChartError), vql
                if len(result.columns) >= 2:
                    # same encoding-type check, same message
                    assert str(exc) == str(expected_exc), vql
                refused += 1
    assert agreed > 100 and refused > 10  # both branches exercised


def test_spec_is_fresh_per_read():
    chart = Chart("bar", "x", "y", [("a", 1)], time_unit="year")
    spec = chart.spec
    spec["encoding"]["x"].clear()
    assert chart.spec["encoding"]["x"] == {
        "field": "x",
        "type": "nominal",
        "timeUnit": "year",
    }
    assert chart.spec is not chart.spec


def test_system_response_round_trips_through_pickle():
    response = SystemResponse(
        question="q",
        kind="chart",
        result=Result(columns=["a", "b"], rows=[("x", 1), ("y", 2.5)]),
        chart=Chart("line", "a", "b", [("x", 1), ("y", 2.5)], vql="v",
                    time_unit="month"),
        degraded=("render:data-only",),
    )
    clone = pickle.loads(pickle.dumps(response, pickle.HIGHEST_PROTOCOL))
    assert clone == response and clone is not response
    assert clone.result.rows == (("x", 1), ("y", 2.5))
    assert clone.chart.spec == response.chart.spec
    _assert_response_shares_immutable(clone)
