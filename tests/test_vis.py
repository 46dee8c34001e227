"""Visualization substrate tests: VQL, specs, charts, recommendation."""

import pytest

from repro.errors import ChartError, VQLParseError
from repro.sql.parser import parse_sql
from repro.vis.charts import Chart, render_chart
from repro.vis.recommend import recommend_charts
from repro.vis.spec import build_spec
from repro.vis.vql import (
    CHART_TYPES,
    VQLQuery,
    normalize_vql,
    parse_vql,
    to_vql,
)


class TestVQL:
    def test_parse_basic(self):
        vql = parse_vql("VISUALIZE BAR SELECT a, COUNT(*) FROM t GROUP BY a")
        assert vql.chart_type == "bar"
        assert vql.query == parse_sql("SELECT a, COUNT(*) FROM t GROUP BY a")

    @pytest.mark.parametrize("chart", CHART_TYPES)
    def test_all_chart_types(self, chart):
        vql = parse_vql(f"VISUALIZE {chart.upper()} SELECT a, b FROM t")
        assert vql.chart_type == chart

    def test_parse_bin_clause(self):
        vql = parse_vql(
            "VISUALIZE LINE SELECT order_date, COUNT(*) FROM t "
            "GROUP BY order_date BIN order_date BY MONTH"
        )
        assert vql.bin_column == "order_date"
        assert vql.bin_unit == "month"

    def test_round_trip(self):
        text = "VISUALIZE PIE SELECT a, COUNT(*) FROM t GROUP BY a"
        assert to_vql(parse_vql(text)) == text

    def test_round_trip_with_bin(self):
        text = (
            "VISUALIZE LINE SELECT d, SUM(x) FROM t GROUP BY d "
            "BIN d BY YEAR"
        )
        assert to_vql(parse_vql(text)) == text

    def test_normalize(self):
        assert normalize_vql(
            "visualize bar select A from T t1 where t1.A > 1 "
        ).startswith("VISUALIZE BAR SELECT a FROM t")

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT a FROM t",
            "VISUALIZE",
            "VISUALIZE HISTOGRAM SELECT a FROM t",
            "VISUALIZE BAR NOT SQL AT ALL",
            "VISUALIZE BAR SELECT a FROM t BIN a BY decade",
        ],
    )
    def test_bad_vql_raises(self, bad):
        with pytest.raises(VQLParseError):
            parse_vql(bad)

    def test_with_chart(self):
        vql = parse_vql("VISUALIZE BAR SELECT a, b FROM t")
        assert vql.with_chart("pie").chart_type == "pie"

    def test_bin_inside_string_literal_is_not_a_clause(self):
        vql = parse_vql(
            "VISUALIZE BAR SELECT name, price FROM products "
            "WHERE name = 'x bin y'"
        )
        assert vql.bin_column is None and vql.bin_unit is None
        assert vql.query == parse_sql(
            "SELECT name, price FROM products WHERE name = 'x bin y'"
        )

    def test_bin_like_literal_at_end_is_not_a_clause(self):
        # ends in a quote, so the trailing-clause grammar cannot match
        vql = parse_vql(
            "VISUALIZE BAR SELECT a, b FROM t WHERE c = 'group bin d by e'"
        )
        assert vql.bin_column is None

    def test_bin_clause_after_string_literal_still_parses(self):
        vql = parse_vql(
            "VISUALIZE LINE SELECT d, COUNT(*) FROM t "
            "WHERE kind = 'x bin y' GROUP BY d BIN d BY YEAR"
        )
        assert vql.bin_column == "d" and vql.bin_unit == "year"


class TestSpec:
    def test_bar_spec(self, shop_db):
        vql = parse_vql(
            "VISUALIZE BAR SELECT category, COUNT(*) FROM products "
            "GROUP BY category"
        )
        from repro.sql.executor import execute

        spec = build_spec(vql, execute(vql.query, shop_db))
        assert spec["mark"] == "bar"
        assert spec["encoding"]["x"]["type"] == "nominal"
        assert spec["encoding"]["y"]["type"] == "quantitative"
        assert len(spec["data"]["values"]) == 2

    def test_pie_uses_theta(self, shop_db):
        vql = parse_vql(
            "VISUALIZE PIE SELECT category, COUNT(*) FROM products "
            "GROUP BY category"
        )
        from repro.sql.executor import execute

        spec = build_spec(vql, execute(vql.query, shop_db))
        assert spec["mark"] == "arc"
        assert "theta" in spec["encoding"]

    def test_scatter_requires_numeric(self, shop_db):
        vql = parse_vql("VISUALIZE SCATTER SELECT name, category FROM products")
        from repro.sql.executor import execute

        with pytest.raises(ChartError):
            build_spec(vql, execute(vql.query, shop_db))

    def test_single_column_rejected(self, shop_db):
        vql = VQLQuery(
            chart_type="bar", query=parse_sql("SELECT name FROM products")
        )
        from repro.sql.executor import execute

        with pytest.raises(ChartError):
            build_spec(vql, execute(vql.query, shop_db))

    def test_empty_result_allowed(self, shop_db):
        vql = parse_vql(
            "VISUALIZE BAR SELECT category, COUNT(*) FROM products "
            "WHERE id > 99 GROUP BY category"
        )
        from repro.sql.executor import execute

        spec = build_spec(vql, execute(vql.query, shop_db))
        assert spec["data"]["values"] == []


class TestCharts:
    def test_render_bar(self, shop_db):
        chart = render_chart(
            "VISUALIZE BAR SELECT category, COUNT(*) FROM products "
            "GROUP BY category",
            shop_db,
        )
        assert chart.chart_type == "bar"
        assert chart.points == (("tools", 2), ("food", 2))
        ascii_art = chart.to_ascii()
        assert "tools" in ascii_art and "█" in ascii_art

    def test_render_scatter_ascii(self, shop_db):
        chart = render_chart(
            "VISUALIZE SCATTER SELECT price, id FROM products "
            "WHERE price IS NOT NULL",
            shop_db,
        )
        assert "•" in chart.to_ascii()

    def test_binning_by_quarter(self, shop_schema):
        from repro.data.database import Database

        db = Database(schema=shop_schema)
        db.insert("products", (1, "a", "x", 1.0))
        db.insert("sales", (1, 1, 3, "2024-01-10"))
        db.insert("sales", (2, 1, 2, "2024-02-20"))
        db.insert("sales", (3, 1, 5, "2024-07-01"))
        chart = render_chart(
            "VISUALIZE LINE SELECT quarter, SUM(quantity) FROM sales "
            "GROUP BY quarter BIN quarter BY QUARTER",
            db,
        )
        assert dict(chart.points) == {"2024-Q1": 5.0, "2024-Q3": 5.0}

    def test_binning_by_year_and_weekday(self):
        from repro.vis.charts import _bin_key

        assert _bin_key("2024-03-15", "year") == "2024"
        assert _bin_key("2024-03-15", "month") == "2024-03"
        assert _bin_key("2024-03-15", "weekday") == "Fri"
        assert _bin_key("not a date", "year") == "not a date"

    def test_empty_chart_ascii(self):
        chart = Chart(chart_type="bar", x_label="x", y_label="y", points=[])
        assert "no data" in chart.to_ascii()

    @pytest.mark.parametrize("chart_type", ["bar", "pie", "line", "scatter"])
    @pytest.mark.parametrize(
        "points",
        [
            [],  # no data
            [("a", "x"), ("b", None), ("c", True)],  # no numeric y
            [("a", 3), ("b", 1.5), ("c", None)],  # numeric y, text x
            [(1, 2), (2.5, -4), (3, 0)],  # numeric both axes
            [(True, 1), (None, 2)],  # scatter: no numeric x
        ],
        ids=["no-data", "no-numeric", "text-x", "numeric", "bool-x"],
    )
    @pytest.mark.parametrize("labels", [("x", "y"), ("a\nb", "c\rd")])
    def test_title_line_is_first_ascii_line(self, chart_type, points, labels):
        chart = Chart(
            chart_type=chart_type,
            x_label=labels[0],
            y_label=labels[1],
            points=points,
        )
        for width in (24, 40):
            assert chart.title_line() == (
                chart.to_ascii(width=width).splitlines()[0]
            )


class TestRecommend:
    def test_recommends_ranked_charts(self, sales_db):
        ranked = recommend_charts(sales_db, "products", top_k=3)
        assert ranked
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)
        for entry in ranked:
            assert entry.vql.startswith("VISUALIZE")
            assert entry.chart.points

    def test_prefers_readable_category_counts(self, sales_db):
        ranked = recommend_charts(sales_db, "products", top_k=5)
        assert any("GROUP BY" in r.vql for r in ranked)

    def test_quality_penalizes_many_slices(self):
        from repro.vis.recommend import _quality

        few = Chart("pie", "x", "y", [(str(i), 1) for i in range(5)])
        many = Chart("pie", "x", "y", [(str(i), 1) for i in range(18)])
        assert _quality(few) > _quality(many)
