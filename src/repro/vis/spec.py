"""Compile an executed VQL query into a Vega-Lite-like specification.

The spec is a plain dictionary mirroring Vega-Lite's core shape — ``mark``,
``encoding`` with ``x``/``y`` channels (field + type), and inline
``data.values`` — which is what surveyed Text-to-Vis systems emit as the
final visualization specification.  Keeping it a dictionary makes specs
comparable, serializable, and renderer-agnostic without a plotting
dependency.
"""

from __future__ import annotations

from repro.data.values import Value, looks_temporal
from repro.errors import ChartError
from repro.sql.executor import Result
from repro.vis.vql import VQLQuery

#: VQL chart type -> Vega-Lite mark
_MARKS = {"bar": "bar", "pie": "arc", "line": "line", "scatter": "point"}


def build_spec(vql: VQLQuery, result: Result) -> dict:
    """Build the Vega-Lite-like spec for *result* charted as *vql* asks.

    The first result column is the x (or theta category) channel and the
    second is the y (or theta value) channel.  Raises
    :class:`~repro.errors.ChartError` when the result shape does not
    support the chart type.

    The arity and encoding-type checks here are runtime *backstops*: the
    static vis linter (:mod:`repro.vis.lint`) performs the same checks
    from the AST alone before execution, using the output-schema typer
    (:mod:`repro.sql.typer`) whose :meth:`~repro.sql.typer.ColType.vega`
    classification is differentially tested against :func:`field_type`.
    """
    if len(result.columns) < 2:
        raise ChartError(
            f"a {vql.chart_type} chart needs two result columns, got "
            f"{len(result.columns)}"
        )
    points = [(row[0], row[1]) for row in result.rows]
    check_points(vql.chart_type, points)
    return compile_spec(
        vql.chart_type, result.columns[0], result.columns[1], points,
        vql.bin_unit if vql.bin_column else None,
    )


def check_points(chart_type: str, points) -> None:
    """Raise :class:`~repro.errors.ChartError` when the ``(x, y)`` *points*
    cannot be drawn as *chart_type*: :func:`build_spec`'s encoding-type
    backstop, which :func:`~repro.vis.charts.render_chart` runs alone."""
    # an empty result is a valid (empty) chart; type checks need data
    if not points:
        return
    y_type = field_type([y for _, y in points])
    if chart_type == "scatter" and (
        field_type([x for x, _ in points]) != "quantitative"
        or y_type != "quantitative"
    ):
        raise ChartError("scatter plots need numeric x and y columns")
    if chart_type in ("bar", "pie") and y_type != "quantitative":
        raise ChartError(f"{chart_type} charts need a numeric y column")


def compile_spec(
    chart_type: str, x_field: str, y_field: str, points, time_unit=None
) -> dict:
    """A fresh spec dict for already-checked ``(x, y)`` *points*."""
    if chart_type == "pie":
        encoding = {
            "theta": {"field": y_field, "type": "quantitative"},
            "color": {"field": x_field, "type": "nominal"},
        }
    else:
        x_type = field_type([x for x, _ in points])
        y_type = field_type([y for _, y in points])
        encoding = {
            "x": {"field": x_field, "type": x_type},
            "y": {"field": y_field, "type": y_type},
        }
        if time_unit:
            encoding["x"]["timeUnit"] = time_unit
    return {
        "mark": _MARKS[chart_type],
        "encoding": encoding,
        "data": {"values": [{x_field: x, y_field: y} for x, y in points]},
    }


def field_type(values: list[Value]) -> str:
    """Infer a Vega-Lite field type from result values.

    The runtime counterpart of the static typer's
    :meth:`repro.sql.typer.ColType.vega`; both use
    :func:`repro.data.values.looks_temporal` so temporal classification
    cannot drift between the two.
    """
    non_null = [v for v in values if v is not None]
    if non_null and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in non_null
    ):
        return "quantitative"
    if non_null and all(looks_temporal(v) for v in non_null):
        return "temporal"
    return "nominal"
