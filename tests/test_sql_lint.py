"""Lint subsystem tests: diagnostics, types, rules, lineage, gate, CLI."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError
from repro.sql.analyzer import analyze
from repro.sql.ast import Select, SelectItem, ColumnRef, FuncCall, Star
from repro.sql.lint import (
    RULES,
    Severity,
    build_lineage,
    lint_query,
    lint_sql,
)
from repro.sql.parser import parse_sql


def lint(schema, sql):
    return lint_sql(sql, schema)


def codes(report):
    return [d.code for d in report.diagnostics]


# ----------------------------------------------------------------------
# multi-diagnostic engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_collects_multiple_diagnostics_in_one_run(self, shop_schema):
        # fail-fast analyzer would stop at the first unknown column; the
        # engine reports every problem: two unknown columns, a type error,
        # and an ungrouped projection
        report = lint(
            shop_schema,
            "SELECT missing1, missing2, SUM(quarter) FROM sales "
            "WHERE quantity = 'many'",
        )
        assert len(report.errors) >= 2
        assert len(set(codes(report))) >= 2
        assert report.counts()["E102"] == 2

    def test_clean_query_empty_report(self, shop_schema):
        report = lint(shop_schema, "SELECT name FROM products")
        assert report.diagnostics == []
        assert report.ok
        assert report.max_severity() is None

    def test_scope_diagnostics_precede_type_and_rule_findings(
        self, shop_schema
    ):
        report = lint(
            shop_schema,
            "SELECT missing FROM products WHERE price = 'cheap'",
        )
        assert codes(report)[0] == "E102"  # scope pass runs first
        assert "E201" in codes(report)
        scope_index = codes(report).index("E102")
        type_index = codes(report).index("E201")
        assert scope_index < type_index

    def test_first_fatal_matches_analyzer_exception(self, shop_schema):
        sql = "SELECT name, missing FROM products WHERE nope = 1"
        report = lint(shop_schema, sql)
        with pytest.raises(AnalysisError) as exc:
            analyze(parse_sql(sql), shop_schema)
        assert report.first_fatal is not None
        assert report.first_fatal.message == str(exc.value)

    def test_analysis_collected_despite_errors(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name, missing FROM products"
        )
        assert ("products", "name") in report.analysis.columns

    def test_lex_error_becomes_e001_with_position(self, shop_schema):
        sql = "SELECT name FROM products WHERE a ~ 1"
        report = lint(shop_schema, sql)
        assert codes(report) == ["E001"]
        assert report.diagnostics[0].position == sql.index("~")

    def test_parse_error_becomes_e002_with_char_position(self, shop_schema):
        sql = "SELECT name FROM"
        report = lint(shop_schema, sql)
        assert codes(report) == ["E002"]
        assert report.diagnostics[0].position == len(sql)

    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert max([Severity.INFO, Severity.ERROR]) is Severity.ERROR

    def test_render_mentions_code_and_severity(self, shop_schema):
        report = lint(shop_schema, "SELECT missing FROM products")
        text = report.render(source="q1")
        assert "q1" in text and "E102" in text and "error" in text


# ----------------------------------------------------------------------
# type inference pass
# ----------------------------------------------------------------------
class TestTypeInference:
    def test_text_compared_with_number(self, shop_schema):
        report = lint(shop_schema, "SELECT name FROM products WHERE name < 3")
        assert "E201" in codes(report)

    def test_sum_over_text_column(self, shop_schema):
        report = lint(shop_schema, "SELECT SUM(quarter) FROM sales")
        assert "E202" in codes(report)

    def test_avg_over_text_column(self, shop_schema):
        report = lint(shop_schema, "SELECT AVG(name) FROM products")
        assert "E202" in codes(report)

    def test_between_mixed_families(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name FROM products WHERE price BETWEEN 1 AND 'ten'",
        )
        assert "E203" in codes(report)

    def test_boolean_scalar_confusion_in_and(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name FROM products WHERE price AND category = 'food'",
        )
        assert "E204" in codes(report)

    def test_non_boolean_where_condition(self, shop_schema):
        report = lint(shop_schema, "SELECT name FROM products WHERE price + 2")
        assert "W205" in codes(report)

    def test_like_on_numeric_column(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name FROM products WHERE price LIKE 'x%'"
        )
        assert "W206" in codes(report)

    def test_arithmetic_on_text(self, shop_schema):
        report = lint(shop_schema, "SELECT name + 1 FROM products")
        assert "E207" in codes(report)

    def test_in_list_family_mismatch(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name FROM products WHERE price IN ('a', 'b')"
        )
        assert "E201" in codes(report)

    def test_compatible_types_are_silent(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name FROM products WHERE price BETWEEN 1 AND 10 "
            "AND category = 'food' AND name LIKE 'w%'",
        )
        assert report.diagnostics == []

    def test_min_max_carry_argument_type(self, shop_schema):
        # MIN over a text column is legal; comparing its result with a
        # number is not
        report = lint(
            shop_schema,
            "SELECT name FROM products GROUP BY name HAVING MIN(category) > 4",
        )
        assert "E201" in codes(report)

    def test_null_comparisons_are_silent(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name FROM products WHERE price = NULL"
        )
        assert "E201" not in codes(report)


# ----------------------------------------------------------------------
# semantic rules — one test per rule
# ----------------------------------------------------------------------
class TestRules:
    def test_registry_has_full_catalog(self):
        assert {
            "E301", "W302", "W303", "W304", "W305",
            "I306", "W307", "W308", "E309", "E310",
        } <= set(RULES)

    def test_e301_ungrouped_column(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT quarter, COUNT(*) FROM sales GROUP BY product_id",
        )
        assert "E301" in codes(report)

    def test_e301_bare_column_next_to_aggregate(self, shop_schema):
        report = lint(shop_schema, "SELECT name, MAX(price) FROM products")
        assert "E301" in codes(report)

    def test_e301_silent_when_properly_grouped(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT quarter, COUNT(*) FROM sales GROUP BY quarter",
        )
        assert "E301" not in codes(report)

    def test_w302_having_without_group_by(self, shop_schema):
        # the parser only accepts HAVING after GROUP BY, so build the AST
        query = parse_sql("SELECT COUNT(*) FROM sales")
        from dataclasses import replace

        bad = replace(
            query,
            having=parse_sql(
                "SELECT name FROM products WHERE price > 1"
            ).where,
        )
        report = lint_query(bad, shop_schema)
        assert "W302" in codes(report)

    def test_w303_cartesian_join(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name, quarter FROM products, sales"
        )
        assert "W303" in codes(report)

    def test_w303_silent_when_joined(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name, quarter FROM products JOIN sales "
            "ON sales.product_id = products.id",
        )
        assert "W303" not in codes(report)

    def test_w303_silent_when_filtered_in_where(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name, quarter FROM products, sales "
            "WHERE sales.product_id = products.id",
        )
        assert "W303" not in codes(report)

    def test_w304_contradictory_equalities(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name FROM products WHERE category = 'food' "
            "AND category = 'tools'",
        )
        assert "W304" in codes(report)

    def test_w304_inverted_between_bounds(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name FROM products WHERE price BETWEEN 10 AND 1",
        )
        assert "W304" in codes(report)

    def test_w305_constant_true_predicate(self, shop_schema):
        report = lint(shop_schema, "SELECT name FROM products WHERE 1 = 1")
        assert "W305" in codes(report)

    def test_w305_self_comparison(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name FROM products WHERE price = price"
        )
        assert "W305" in codes(report)

    def test_i306_order_limit_ties(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT name FROM products ORDER BY price DESC LIMIT 1",
        )
        assert "I306" in codes(report)
        assert report.ok  # info severity: not an error

    def test_i306_silent_with_primary_key_sort(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name FROM products ORDER BY id LIMIT 3"
        )
        assert "I306" not in codes(report)

    def test_w307_redundant_distinct(self, shop_schema):
        report = lint(shop_schema, "SELECT DISTINCT COUNT(*) FROM sales")
        assert "W307" in codes(report)

    def test_w307_distinct_inside_min(self, shop_schema):
        report = lint(
            shop_schema, "SELECT MIN(DISTINCT price) FROM products"
        )
        assert "W307" in codes(report)

    def test_w308_unused_joined_table(self, shop_schema):
        report = lint(
            shop_schema,
            "SELECT products.name FROM products JOIN sales "
            "ON sales.product_id = products.id WHERE products.price > 1",
        )
        # 'sales' is referenced in the join condition, so it is used
        assert "W308" not in codes(report)
        query = parse_sql(
            "SELECT products.name FROM products JOIN sales "
            "ON products.id = products.id"
        )
        report = lint_query(query, shop_schema)
        assert "W308" in codes(report)

    def test_e309_nested_aggregate(self, shop_schema):
        report = lint(shop_schema, "SELECT SUM(MAX(price)) FROM products")
        assert "E309" in codes(report)

    def test_e310_aggregate_in_where(self, shop_schema):
        report = lint(
            shop_schema, "SELECT name FROM products WHERE SUM(price) > 10"
        )
        assert "E310" in codes(report)

    def test_rules_scoped_per_select_block(self, shop_schema):
        # the subquery's aggregate is fine; no rule should leak across
        # SELECT boundaries
        report = lint(
            shop_schema,
            "SELECT name FROM products WHERE price > "
            "(SELECT AVG(price) FROM products)",
        )
        assert report.diagnostics == []


# ----------------------------------------------------------------------
# column-level lineage
# ----------------------------------------------------------------------
class TestLineage:
    def lineage(self, schema, sql):
        return build_lineage(parse_sql(sql), schema)

    def test_simple_projection(self, shop_schema):
        graph = self.lineage(
            shop_schema, "SELECT name, price FROM products"
        )
        assert graph.to_dict() == {
            "name": ["products.name"],
            "price": ["products.price"],
        }

    def test_alias_and_expression(self, shop_schema):
        graph = self.lineage(
            shop_schema,
            "SELECT price * quantity AS revenue FROM products JOIN sales "
            "ON sales.product_id = products.id",
        )
        assert graph.to_dict() == {
            "revenue": ["products.price", "sales.quantity"],
        }

    def test_aggregate_output_name(self, shop_schema):
        graph = self.lineage(shop_schema, "SELECT COUNT(*) FROM sales")
        (output,) = graph.outputs
        assert output.name == "count(*)"
        assert output.sources == frozenset(
            {
                "sales.id", "sales.product_id",
                "sales.quantity", "sales.quarter",
            }
        )

    def test_lineage_through_scalar_subquery(self, shop_schema):
        graph = self.lineage(
            shop_schema,
            "SELECT quarter, (SELECT MAX(price) FROM products) AS top "
            "FROM sales",
        )
        assert graph.to_dict()["top"] == ["products.price"]

    def test_lineage_through_set_operation(self, shop_schema):
        graph = self.lineage(
            shop_schema,
            "SELECT name FROM products UNION SELECT quarter FROM sales",
        )
        (output,) = graph.outputs
        assert output.sources == frozenset(
            {"products.name", "sales.quarter"}
        )

    def test_star_expansion(self, shop_schema):
        graph = self.lineage(shop_schema, "SELECT * FROM sales")
        assert [o.name for o in graph.outputs] == [
            "id", "product_id", "quantity", "quarter",
        ]

    def test_edges_and_source_columns(self, shop_schema):
        graph = self.lineage(shop_schema, "SELECT name FROM products")
        assert graph.edges() == [("name", "products.name")]
        assert graph.source_columns() == frozenset({"products.name"})

    def test_report_carries_lineage_only_without_fatal_errors(
        self, shop_schema
    ):
        good = lint(shop_schema, "SELECT name FROM products")
        assert good.lineage is not None
        bad = lint(shop_schema, "SELECT name FROM missing_table")
        assert bad.lineage is None


# ----------------------------------------------------------------------
# lineage metric
# ----------------------------------------------------------------------
class TestLineageMetric:
    def test_match_and_f1(self, shop_schema):
        from repro.metrics import lineage_f1, lineage_match

        gold = "SELECT name, price FROM products"
        assert lineage_match("SELECT name, price FROM products", gold,
                             shop_schema)
        assert not lineage_match("SELECT name FROM products", gold,
                                 shop_schema)
        assert lineage_f1("SELECT name FROM products", gold,
                          shop_schema) == pytest.approx(2 / 3)
        assert lineage_f1("not sql", gold, shop_schema) == 0.0

    def test_registered_in_metric_registry(self):
        from repro.core.registry import metric_registry

        assert "lineage_match" in metric_registry()


# ----------------------------------------------------------------------
# gold-SQL audit: every generator's output must lint clean of errors
# ----------------------------------------------------------------------
#: codes generators are allowed to emit (asserted stable; anything new
#: must be triaged before joining this list)
ALLOWED_GOLD_CODES = {"I306"}


def _audit(dataset):
    flagged = {}
    for example in dataset.examples:
        if example.is_vis:
            continue
        schema = dataset.database(example.db_id).schema
        report = lint_sql(example.sql, schema)
        unexpected = [
            d for d in report.diagnostics if d.code not in ALLOWED_GOLD_CODES
        ]
        if unexpected:
            flagged[example.sql] = [d.code for d in unexpected]
    return flagged


class TestGoldAudit:
    def test_cross_domain_gold_is_clean(self, tiny_spider):
        assert _audit(tiny_spider) == {}

    def test_wikisql_gold_is_clean(self, tiny_wikisql):
        assert _audit(tiny_wikisql) == {}

    def test_multiturn_gold_is_clean(self):
        from repro.datasets.multiturn import build_sparc_like

        # regression: _edit_add_order used to append a bare sort column to
        # a COUNT(*) projection, an ungrouped-column error (E301)
        dataset = build_sparc_like(num_dialogues=40, seed=5)
        assert _audit(dataset) == {}


# ----------------------------------------------------------------------
# LintGate: candidate pruning before execution
# ----------------------------------------------------------------------
class TestLintGate:
    def test_decide_prunes_invalid_candidates(self, shop_schema):
        from repro.core.pipeline import LintGate

        bad = parse_sql("SELECT missing FROM products")
        worse = parse_sql("SELECT name FROM nowhere")
        good = parse_sql("SELECT name FROM products")
        decision = LintGate().decide([bad, worse, good], shop_schema)
        assert decision.chosen == good
        assert len(decision.pruned) == 2
        assert len(decision.kept) == 1
        assert all(report.errors for _, report in decision.pruned)

    def test_decide_prefers_fewer_warnings(self, shop_schema):
        from repro.core.pipeline import LintGate

        noisy = parse_sql(
            "SELECT name FROM products WHERE 1 = 1 AND price > 2"
        )
        clean = parse_sql("SELECT name FROM products WHERE price > 2")
        decision = LintGate().decide([noisy, clean], shop_schema)
        assert decision.chosen == clean

    def test_decide_keeps_nothing_when_all_bad(self, shop_schema):
        from repro.core.pipeline import LintGate

        bad = parse_sql("SELECT missing FROM products")
        decision = LintGate().decide([bad], shop_schema)
        assert decision.chosen is None
        assert decision.kept == []

    def test_lone_candidate_is_not_linted(self, shop_schema, monkeypatch):
        import repro.core.pipeline as pipeline_module
        from repro.core.pipeline import LintGate

        def no_lint(*args, **kwargs):
            raise AssertionError("a lone candidate must not be linted")

        monkeypatch.setattr(pipeline_module, "lint_query", no_lint)
        sql = "SELECT missing FROM products"
        # an equal re-parse is the same candidate, not a second one
        for candidates in ([parse_sql(sql)], [parse_sql(sql), parse_sql(sql)]):
            decision = LintGate().decide(candidates, shop_schema)
            assert decision.chosen is None
            assert decision.kept == [] and decision.pruned == []
            assert decision.examined == 1
            assert decision.describe() == "1 candidate, nothing to choose"

    def test_lone_candidate_checkpoints_expired_budget(self, shop_schema):
        from repro.core.pipeline import LintGate
        from repro.errors import DeadlineExceeded
        from repro.resilience import deadline

        query = parse_sql("SELECT name FROM products")
        token = deadline.push_budget(0.0, lambda: 0.0)
        try:
            with pytest.raises(DeadlineExceeded, match="lint gate"):
                LintGate().decide([query], shop_schema)
        finally:
            deadline.pop_budget(token)

    def test_pipeline_prunes_before_execution(self, shop_db):
        from repro.core.pipeline import LintGate, Pipeline
        from repro.parsers.base import ParseResult, Parser
        from repro.parsers.vis.base import VisParser

        bad = parse_sql("SELECT wrong_column FROM products")
        good = parse_sql("SELECT name FROM products")

        class StubParser(Parser):
            name = "stub"

            def parse(self, request):
                return ParseResult(query=bad, candidates=[bad, good])

        class StubVis(VisParser):
            def parse_vis(self, request):
                return None

        gated = Pipeline(StubParser(), StubVis(), lint_gate=LintGate())
        trace = gated.run("list the product names", shop_db)
        assert trace.succeeded
        assert trace.functional_expression == "SELECT name FROM products"
        lint_stage = [s for s in trace.stages if s.stage == "lint"]
        assert len(lint_stage) == 1
        assert "pruned 1" in lint_stage[0].output

        # without the gate the bad best candidate reaches the executor
        ungated = Pipeline(StubParser(), StubVis())
        trace = ungated.run("list the product names", shop_db)
        assert not trace.succeeded

    def test_gate_falls_back_to_parser_best(self, shop_db):
        from repro.core.pipeline import LintGate, Pipeline
        from repro.parsers.base import ParseResult, Parser
        from repro.parsers.vis.base import VisParser

        bad = parse_sql("SELECT wrong_column FROM products")

        class StubParser(Parser):
            name = "stub"

            def parse(self, request):
                return ParseResult(query=bad, candidates=[bad])

        class StubVis(VisParser):
            def parse_vis(self, request):
                return None

        pipeline = Pipeline(StubParser(), StubVis(), lint_gate=LintGate())
        trace = pipeline.run("list the product names", shop_db)
        # every candidate pruned: the gate keeps the parser's best, which
        # then fails at execution exactly as before
        assert trace.functional_expression == (
            "SELECT wrong_column FROM products"
        )
        assert not trace.succeeded

    def test_interface_lint_flag(self, shop_db):
        from repro.core.interface import NaturalLanguageInterface

        nli = NaturalLanguageInterface(shop_db, lint=True)
        assert nli.pipeline.lint_gate is not None
        answer = nli.ask("Show the name of products whose price is above 2?")
        assert answer.ok
        assert any(s.stage == "lint" for s in answer.trace.stages)


# ----------------------------------------------------------------------
# CLI and packaging
# ----------------------------------------------------------------------
class TestCLI:
    def test_lint_sql_reports_multiple_diagnostics(self, capsys):
        from repro.sql.lint.cli import main

        status = main(
            [
                "--sql",
                "SELECT name, SUM(quarter) FROM products "
                "WHERE price = 'cheap' AND price = 'pricey'",
                "--domain",
                "sales",
            ]
        )
        out = capsys.readouterr().out
        assert status == 1
        reported = {
            line.split()[2] for line in out.splitlines() if " E" in line
            or " W" in line or " I" in line
        }
        assert len(reported) >= 2  # no fail-fast: several distinct codes

    def test_lint_clean_sql_exits_zero(self, capsys):
        from repro.sql.lint.cli import main

        status = main(["--sql", "SELECT name FROM products"])
        assert status == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_dataset_mode(self, capsys):
        from repro.sql.lint.cli import main

        status = main(
            ["--dataset", "wikisql_like", "--scale", "0.005", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "linted" in out

    def test_lineage_flag(self, capsys):
        from repro.sql.lint.cli import main

        status = main(["--sql", "SELECT name FROM products", "--lineage"])
        assert status == 0
        assert "name <- products.name" in capsys.readouterr().out

    def test_main_module_dispatches_lint(self, capsys):
        from repro.__main__ import main

        status = main(["lint", "--sql", "SELECT name FROM products"])
        assert status == 0

    def test_entry_point_declared_and_importable(self):
        import importlib
        import tomllib

        with open("pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        target = project["scripts"]["repro-lint"]
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr))


# ----------------------------------------------------------------------
# parse-stage position consistency (ParseError/LexError satellite)
# ----------------------------------------------------------------------
class TestParsePositions:
    def test_parse_error_position_is_character_offset(self):
        from repro.errors import ParseError

        sql = "SELECT name FROM products WHERE"
        with pytest.raises(ParseError) as exc:
            parse_sql(sql)
        assert exc.value.position == len(sql)
        assert "position" in str(exc.value)

    def test_parse_error_points_at_offending_token(self):
        from repro.errors import ParseError

        sql = "SELECT FROM products"
        with pytest.raises(ParseError) as exc:
            parse_sql(sql)
        assert exc.value.position == sql.index("FROM")

    def test_lex_and_parse_positions_share_convention(self, shop_schema):
        # both surface as E0xx diagnostics whose position indexes the text
        lex_report = lint(shop_schema, "SELECT ?")
        parse_report = lint(shop_schema, "SELECT name FROM products LIMIT x")
        assert lex_report.diagnostics[0].position == 7
        assert parse_report.diagnostics[0].position == (
            "SELECT name FROM products LIMIT x".index("x")
        )
