"""Vis lint subsystem tests: engine, rule catalog, gate, wiring, gold audit."""

from __future__ import annotations

import pytest

from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.sql.lint.diagnostics import Severity
from repro.vis.lint import VIS_RULES, VisLintGate, lint_vis, lint_vql_text
from repro.vis.vql import parse_vql


def codes(report) -> set[str]:
    return {d.code for d in report.diagnostics}


@pytest.fixture
def dated_schema() -> Schema:
    """A schema with a DATE column, which the shop fixture lacks."""
    return Schema(
        db_id="journal",
        tables=(
            TableSchema(
                "entries",
                (
                    Column("id", ColumnType.NUMBER),
                    Column("topic", ColumnType.TEXT),
                    Column("words", ColumnType.NUMBER),
                    Column("written_on", ColumnType.DATE),
                ),
                primary_key="id",
            ),
        ),
    )


class TestEngine:
    def test_clean_chart_has_no_diagnostics(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT category, COUNT(*) FROM products "
            "GROUP BY category",
            shop_schema,
        )
        assert report.ok
        assert report.vis_diagnostics == []
        assert report.output is not None
        assert report.output.names() == ("category", "count(*)")

    def test_parse_failure_is_fatal_v001(self, shop_schema):
        report = lint_vql_text("DRAW ME A CHART", shop_schema)
        assert codes(report) == {"V001"}
        assert report.diagnostics[0].fatal
        assert report.output is None

    def test_sql_diagnostics_fold_in(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT mystery, COUNT(*) FROM products "
            "GROUP BY mystery",
            shop_schema,
        )
        assert any(d.code.startswith("E") for d in report.diagnostics)
        assert not report.ok

    def test_obs_counters(self, shop_schema):
        from repro.obs import metrics as obs_metrics

        lint_vql_text("nonsense", shop_schema)
        registry = obs_metrics.get_registry()
        assert registry.counter("repro.vis.lint.runs").value >= 1
        assert registry.counter("repro.vis.lint.diag.V001").value >= 1


class TestStructuralRules:
    def test_v011_arity(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT category FROM products", shop_schema
        )
        assert "V011" in codes(report)

    def test_v012_extra_columns(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT category, price, name FROM products",
            shop_schema,
        )
        assert "V012" in codes(report)

    def test_v013_bin_column_missing(self, dated_schema):
        report = lint_vql_text(
            "VISUALIZE LINE SELECT topic, words FROM entries "
            "BIN written_on BY year",
            dated_schema,
        )
        assert "V013" in codes(report)


class TestTypeRules:
    def test_v101_v102_scatter_axes(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE SCATTER SELECT category, name FROM products",
            shop_schema,
        )
        assert {"V101", "V102"} <= codes(report)

    def test_v103_bar_measure(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT category, name FROM products", shop_schema
        )
        assert "V103" in codes(report)

    def test_v104_bin_not_temporal(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE LINE SELECT quarter, SUM(quantity) FROM sales "
            "GROUP BY quarter BIN quarter BY year",
            shop_schema,
        )
        assert "V104" in codes(report)

    def test_temporal_bin_is_clean(self, dated_schema):
        report = lint_vql_text(
            "VISUALIZE LINE SELECT written_on, COUNT(*) FROM entries "
            "GROUP BY written_on BIN written_on BY month",
            dated_schema,
        )
        assert report.ok

    def test_v105_line_over_text_axis(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE LINE SELECT category, COUNT(*) FROM products "
            "GROUP BY category",
            shop_schema,
        )
        assert "V105" in codes(report)

    def test_unknown_types_stay_silent(self, shop_schema):
        # unresolvable column: the typer says UNKNOWN, so no V1xx claims
        report = lint_vql_text(
            "VISUALIZE SCATTER SELECT mystery, price FROM products",
            shop_schema,
        )
        assert "V101" not in codes(report)


class TestSemanticRules:
    def test_v201_pie_slices_need_db(self, sales_db):
        vql = "VISUALIZE PIE SELECT name, price FROM products"
        without_db = lint_vql_text(vql, sales_db.schema)
        assert "V201" not in codes(without_db)
        with_db = lint_vql_text(vql, sales_db.schema, db=sales_db)
        assert "V201" in codes(with_db)

    def test_v201_respects_limit(self, sales_db):
        report = lint_vql_text(
            "VISUALIZE PIE SELECT name, price FROM products LIMIT 5",
            sales_db.schema,
            db=sales_db,
        )
        assert "V201" not in codes(report)

    def test_v202_duplicate_axes(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT price, price FROM products", shop_schema
        )
        assert "V202" in codes(report)

    def test_v203_swapped_axes(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT COUNT(*), category FROM products "
            "GROUP BY category",
            shop_schema,
        )
        assert "V203" in codes(report)

    def test_v204_bin_names_non_x_column(self, dated_schema):
        report = lint_vql_text(
            "VISUALIZE LINE SELECT words, written_on FROM entries "
            "BIN written_on BY year",
            dated_schema,
        )
        assert "V204" in codes(report)


class TestStyleRules:
    def test_v301_bar_over_temporal(self, dated_schema):
        report = lint_vql_text(
            "VISUALIZE BAR SELECT written_on, COUNT(*) FROM entries "
            "GROUP BY written_on",
            dated_schema,
        )
        assert "V301" in codes(report)
        assert report.ok  # info severity only

    def test_v302_pie_of_raw_rows(self, shop_schema):
        report = lint_vql_text(
            "VISUALIZE PIE SELECT category, price FROM products", shop_schema
        )
        assert "V302" in codes(report)

    def test_v303_line_without_order(self, dated_schema):
        report = lint_vql_text(
            "VISUALIZE LINE SELECT written_on, words FROM entries",
            dated_schema,
        )
        assert "V303" in codes(report)
        ordered = lint_vql_text(
            "VISUALIZE LINE SELECT written_on, words FROM entries "
            "ORDER BY written_on",
            dated_schema,
        )
        assert "V303" not in codes(ordered)


class TestCatalog:
    def test_every_rule_has_code_range_and_doc(self):
        for code, rule in VIS_RULES.items():
            assert code.startswith("V") and len(code) == 4
            assert rule.doc, code
        severities = {
            code: rule.severity for code, rule in VIS_RULES.items()
        }
        assert severities["V011"] is Severity.ERROR
        assert severities["V201"] is Severity.WARNING
        assert severities["V301"] is Severity.INFO


class TestGate:
    GOOD = (
        "VISUALIZE BAR SELECT category, COUNT(*) FROM products "
        "GROUP BY category"
    )
    BAD = "VISUALIZE SCATTER SELECT category, name FROM products"

    def test_picks_clean_candidate(self, shop_schema):
        decision = VisLintGate().decide(
            [self.BAD, self.GOOD], shop_schema
        )
        assert decision.chosen == self.GOOD
        assert not decision.repaired
        assert len(decision.pruned) == 1

    def test_chart_repair_rewrites_chart_type(self, shop_schema):
        wrong_chart = (
            "VISUALIZE SCATTER SELECT category, COUNT(*) FROM products "
            "GROUP BY category"
        )
        decision = VisLintGate().decide([wrong_chart], shop_schema)
        assert decision.repaired
        assert decision.chosen is not None
        assert parse_vql(decision.chosen).chart_type != "scatter"

    def test_repair_can_be_disabled(self, shop_schema):
        wrong_chart = (
            "VISUALIZE SCATTER SELECT category, COUNT(*) FROM products "
            "GROUP BY category"
        )
        decision = VisLintGate(repair_chart=False).decide(
            [wrong_chart], shop_schema
        )
        assert decision.chosen is None

    def test_no_repair_for_broken_sql(self, shop_schema):
        decision = VisLintGate().decide(["total nonsense"], shop_schema)
        assert decision.chosen is None
        assert not decision.repaired

    def test_gate_counters(self, shop_schema):
        from repro.obs import metrics as obs_metrics

        VisLintGate().decide([self.BAD, self.GOOD], shop_schema)
        registry = obs_metrics.get_registry()
        assert registry.counter("repro.vis.gate.decisions").value >= 1
        assert registry.counter("repro.vis.gate.pruned").value >= 1


class TestLoneCandidate:
    """A lone candidate is fully linted only when chart repair could apply."""

    GOOD = TestGate.GOOD
    WRONG_CHART = (
        "VISUALIZE SCATTER SELECT category, COUNT(*) FROM products "
        "GROUP BY category"
    )

    @pytest.fixture
    def sql_lints(self, monkeypatch):
        """Count the SQL lints the vis engine runs."""
        import repro.vis.lint.engine as engine

        calls = []
        real = engine.lint_query

        def spy(query, schema, *args, **kwargs):
            calls.append(query)
            return real(query, schema, *args, **kwargs)

        monkeypatch.setattr(engine, "lint_query", spy)
        return calls

    def test_matches_the_full_path_on_gold_corpora(self):
        """decide([v]) answers like decide([v, junk]), which lints fully."""
        from repro.datasets import build_dataset
        from repro.vis.vql import CHART_TYPES, to_vql

        gate = VisLintGate()
        seen: set[tuple[str, str, str]] = set()
        repairs = 0
        for name in ("nvbench_like", "chartdialogs_like"):
            dataset = build_dataset(name, scale=0.06, seed=11)
            for example in dataset.examples:
                if example.vql is None:
                    continue
                db = dataset.database(example.db_id)
                gold = parse_vql(example.vql)
                for chart in CHART_TYPES:
                    vql = to_vql(gold.with_chart(chart))
                    if (name, example.db_id, vql) in seen:
                        continue
                    seen.add((name, example.db_id, vql))
                    lone = gate.decide([vql], db.schema, db=db)
                    full = gate.decide(
                        [vql, "total nonsense"], db.schema, db=db
                    )
                    assert (lone.chosen or vql) == (full.chosen or vql), vql
                    assert lone.repaired == full.repaired, vql
                    assert lone.program == full.program, vql
                    repairs += full.repaired
        assert len(seen) >= 1000
        assert repairs >= 200

    def test_clean_chart_skips_the_sql_lint(self, shop_schema, sql_lints):
        decision = VisLintGate().decide([self.GOOD, self.GOOD], shop_schema)
        assert sql_lints == []
        assert decision.chosen is None
        assert decision.program == parse_vql(self.GOOD)
        assert decision.examined == 1
        assert decision.kept == [] and decision.pruned == []
        assert decision.describe() == "1 candidate, nothing to choose"

    def test_no_choice_leaves_pruned_and_fallback_counters(self, shop_schema):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.get_registry()
        pruned = registry.counter("repro.vis.gate.pruned")
        fallbacks = registry.counter("repro.vis.gate.fallbacks")
        before = (pruned.value, fallbacks.value)
        gate = VisLintGate()
        broken_sql = "VISUALIZE BAR SELECT missing, price FROM products"
        for lone in (self.GOOD, broken_sql, "total nonsense"):
            decision = gate.decide([lone], shop_schema)
            assert decision.chosen is None and decision.examined == 1
        assert (pruned.value, fallbacks.value) == before

    def test_repair_lints_the_sql_once(self, shop_schema, sql_lints):
        decision = VisLintGate().decide([self.WRONG_CHART], shop_schema)
        assert decision.repaired
        # one lint to judge the candidate, one shared by every chart type
        # the repair tries (three of them), not one per chart type
        assert len(sql_lints) == 2
        assert decision.program == parse_vql(decision.chosen)

    def test_expired_budget_raises_at_the_checkpoint(self, shop_schema):
        from repro.errors import DeadlineExceeded
        from repro.resilience import deadline

        token = deadline.push_budget(0.0, lambda: 0.0)
        try:
            with pytest.raises(DeadlineExceeded, match="vis lint gate"):
                VisLintGate().decide([self.GOOD], shop_schema)
        finally:
            deadline.pop_budget(token)


class TestWiring:
    def test_interface_lint_inserts_vis_gate_stage(self, sales_db):
        from repro import NaturalLanguageInterface

        nli = NaturalLanguageInterface(sales_db, lint=True)
        answer = nli.ask(
            "Draw a bar chart of the number of orders per quarter?"
        )
        assert answer.chart is not None
        assert "lint" in [s.stage for s in answer.trace.stages]

    def test_chat2vis_candidate_sampling_with_gate(self, sales_db):
        from repro.parsers.base import ParseRequest
        from repro.parsers.vis.llm import Chat2VisParser

        parser = Chat2VisParser(n_candidates=3, lint_gate=VisLintGate())
        vql = parser.parse_vis(
            ParseRequest(
                question="Draw a bar chart of the number of products "
                "per category?",
                schema=sales_db.schema,
                db=sales_db,
            )
        )
        assert vql is None or parse_vql(vql) is not None

    def test_rgvisnet_gated_path(self, tiny_nvbench):
        from repro.parsers.base import ParseRequest
        from repro.parsers.vis.retrieval import RGVisNetParser

        train = tiny_nvbench.split("train").examples
        databases = {
            db_id: tiny_nvbench.database(db_id)
            for db_id in {e.db_id for e in tiny_nvbench.examples}
        }
        parser = RGVisNetParser(seed=3, lint_gate=VisLintGate())
        parser.train(train, databases)
        example = tiny_nvbench.split("dev").examples[0]
        db = tiny_nvbench.database(example.db_id)
        vql = parser.parse_vis(
            ParseRequest(
                question=example.question, schema=db.schema, db=db
            )
        )
        assert vql is None or parse_vql(vql) is not None


class TestGoldAudit:
    """Every gold VQL of the generated corpora must lint error-free."""

    def test_nvbench_gold_has_no_errors(self, tiny_nvbench):
        assert tiny_nvbench.examples
        for example in tiny_nvbench.examples:
            db = tiny_nvbench.database(example.db_id)
            report = lint_vql_text(example.vql, db.schema, db=db)
            assert not report.errors, (
                example.vql,
                [d.render() for d in report.errors],
            )

    def test_multiturn_gold_has_no_errors(self):
        from repro.datasets import build_dataset

        dataset = build_dataset("dial_nvbench_like", scale=0.01, seed=9)
        checked = 0
        for example in dataset.examples:
            if not example.is_vis:
                continue
            checked += 1
            db = dataset.database(example.db_id)
            report = lint_vql_text(example.vql, db.schema, db=db)
            assert not report.errors, example.vql
        assert checked > 0


class TestCLI:
    def test_rules_listing(self, capsys):
        from repro.vis.lint.cli import main

        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        assert "V011" in out and "V303" in out

    def test_single_vql_exit_codes(self):
        from repro.vis.lint.cli import main

        clean = main(
            ["--vql", "VISUALIZE BAR SELECT name, price FROM products"]
        )
        assert clean == 0
        broken = main(
            ["--vql", "VISUALIZE SCATTER SELECT name, price FROM products"]
        )
        assert broken == 1

    def test_dataset_mode(self, capsys):
        from repro.vis.lint.cli import main

        assert main(["--dataset", "nvbench_like", "--scale", "0.005"]) == 0
        assert "gold VQL" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        from repro.vis.lint.cli import main

        assert main([]) == 2
