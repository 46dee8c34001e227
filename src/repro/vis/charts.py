"""Chart execution and rendering.

``render_chart`` is the Text-to-Vis execution engine ``E(e, D) -> r``: it
runs a VQL program's SQL against a database (applying the BIN clause as a
pre-aggregation rewrite), checks its points against the chart type, and
returns a :class:`Chart` — the graphical result object, whose Vega-Lite
``spec`` is compiled when read.  ``Chart.to_ascii`` draws a terminal
rendering so examples can show actual charts without a plotting library.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.database import Database
from repro.data.values import Value
from repro.errors import ChartError
from repro.sql.executor import Result, execute
from repro.vis.spec import check_points, compile_spec
from repro.vis.vql import VQLQuery, parse_vql, to_vql


@dataclass(frozen=True, slots=True)
class Chart:
    """The rendered result of a visualization query (frozen, so shared)."""

    chart_type: str
    x_label: str
    y_label: str
    points: tuple[tuple[Value, Value], ...]
    vql: str = ""
    #: the BIN clause's calendar unit (``year``, ``month``, ...), or None
    time_unit: str | None = None

    def __post_init__(self) -> None:
        if type(self.points) is not tuple:
            object.__setattr__(self, "points", tuple(self.points))

    @property
    def spec(self) -> dict:
        """The Vega-Lite-like spec, compiled afresh on every read."""
        return compile_spec(
            self.chart_type, self.x_label, self.y_label, self.points,
            self.time_unit,
        )

    def to_ascii(self, width: int = 40) -> str:
        """Draw the chart with unicode block characters."""
        if not self.points:
            return f"[{self.chart_type} chart: no data]"
        if self.chart_type == "scatter":
            return self._ascii_scatter(width)
        return self._ascii_bars(width)

    def title_line(self) -> str:
        """The first line of :meth:`to_ascii` (at any width), undrawn.

        The pipeline's present stage reports this one line per chart turn;
        it needs no bars or grid, only which header the drawing would
        start with.
        """
        if not self.points:
            header = f"[{self.chart_type} chart: no data]"
        elif self.chart_type == "scatter":
            header = (
                f"{self.y_label} vs {self.x_label} (scatter)"
                if any(
                    _is_number(x) and _is_number(y) for x, y in self.points
                )
                else "[scatter chart: no numeric points]"
            )
        elif any(_is_number(y) for _, y in self.points):
            header = f"{self.y_label} by {self.x_label} ({self.chart_type})"
        else:
            header = f"[{self.chart_type} chart: no numeric values]"
        return header.splitlines()[0]

    def _ascii_bars(self, width: int) -> str:
        numeric = [
            (str(x), float(y)) for x, y in self.points if _is_number(y)
        ]
        if not numeric:
            return f"[{self.chart_type} chart: no numeric values]"
        top = max(abs(y) for _, y in numeric) or 1.0
        label_width = max(len(label) for label, _ in numeric)
        lines = [f"{self.y_label} by {self.x_label} ({self.chart_type})"]
        for label, y in numeric:
            bar = "█" * max(1, int(round(width * abs(y) / top)))
            lines.append(f"{label.rjust(label_width)} | {bar} {y:g}")
        return "\n".join(lines)

    def _ascii_scatter(self, width: int) -> str:
        numeric = [
            (float(x), float(y))
            for x, y in self.points
            if _is_number(x) and _is_number(y)
        ]
        if not numeric:
            return "[scatter chart: no numeric points]"
        height = 12
        xs = [x for x, _ in numeric]
        ys = [y for _, y in numeric]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        grid = [[" "] * width for _ in range(height)]
        for x, y in numeric:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = "•"
        lines = [f"{self.y_label} vs {self.x_label} (scatter)"]
        lines.extend("".join(row) for row in grid)
        return "\n".join(lines)


def _is_number(value: Value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def render_chart(vql: VQLQuery | str, db: Database) -> Chart:
    """Execute a VQL program against *db* and build its :class:`Chart`.

    Pass the parsed :class:`VQLQuery` when the caller already has it (the
    vis lint gate does): text is parsed here, a program is used as is.
    """
    if isinstance(vql, str):
        vql = parse_vql(vql)
    query = vql.query
    if vql.bin_column and vql.bin_unit:
        result = _execute_binned(vql, db)
    else:
        result = execute(query, db)
    if len(result.columns) < 2:
        raise ChartError(
            "visualization queries must return at least two columns"
        )
    points = [(row[0], row[1]) for row in result.rows]
    check_points(vql.chart_type, points)
    return Chart(
        chart_type=vql.chart_type,
        x_label=result.columns[0],
        y_label=result.columns[1],
        points=points,
        vql=to_vql(vql),
        time_unit=vql.bin_unit if vql.bin_column else None,
    )


def _execute_binned(vql: VQLQuery, db: Database) -> Result:
    """Apply the BIN clause: post-process the x column into calendar bins.

    The SQL part is executed as-is, then x values that look like ISO dates
    are collapsed into the requested unit and the y values aggregated by
    sum (counts and sums re-aggregate correctly; averages are approximated,
    matching nvBench's binning semantics over pre-aggregated queries).
    """
    result = execute(vql.query, db)
    bins: dict[str, float] = {}
    order: list[str] = []
    for row in result.rows:
        key = _bin_key(row[0], vql.bin_unit or "year")
        y = row[1]
        if not isinstance(y, (int, float)) or isinstance(y, bool):
            continue
        if key not in bins:
            bins[key] = 0.0
            order.append(key)
        bins[key] += float(y)
    rows = [(key, bins[key]) for key in sorted(order)]
    return Result(columns=list(result.columns[:2]), rows=rows, ordered=True)


def _bin_key(value: Value, unit: str) -> str:
    text = str(value)
    if len(text) >= 10 and text[4] == "-" and text[7] == "-":
        year, month, day = text[:4], text[5:7], text[8:10]
        if unit == "year":
            return year
        if unit == "quarter":
            quarter = (int(month) - 1) // 3 + 1
            return f"{year}-Q{quarter}"
        if unit == "month":
            return f"{year}-{month}"
        if unit == "weekday":
            return _weekday(int(year), int(month), int(day))
    return text


def _weekday(year: int, month: int, day: int) -> str:
    import datetime

    names = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
    return names[datetime.date(year, month, day).weekday()]
