"""Schema linker tests: exact, world-knowledge, and fuzzy linking."""

import pytest

from repro.data.domains import domain_by_name, domain_names
from repro.parsers.linker import (
    SchemaLinker,
    _edit_distance_at_most_one,
    _word_spans,
)


@pytest.fixture
def sales_schema():
    return domain_by_name("sales").schema


class TestExactLinking:
    def test_links_table(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        assert linker.tables_in("show all products please") == ["products"]

    def test_links_plural_variants(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        assert linker.tables_in("the product with id 1") == ["products"]

    def test_links_column_with_table(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        columns = linker.columns_in("the price of products")
        assert ("products", "price") in columns

    def test_links_declared_synonyms(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        # "clients" is a declared synonym of customers
        assert "customers" in linker.tables_in("how many clients are there")

    def test_longest_match_wins(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        mentions = linker.link("the order date of orders")
        assert any(
            m.kind == "column" and m.column == "order_date" for m in mentions
        )

    def test_unknown_words_not_linked(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        assert linker.link("completely unrelated zebra words") == []

    def test_column_candidates_multi_table(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        candidates = linker.column_candidates("name")
        tables = {t for t, _ in candidates}
        assert {"products", "customers"} <= tables

    def test_link_phrase_prefers_columns(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        mention = linker.link_phrase("customers city")
        assert mention is not None and mention.kind == "column"
        assert mention.column == "city"


class TestWorldKnowledge:
    def test_out_of_schema_synonyms_require_flag(self, sales_schema):
        exact = SchemaLinker(sales_schema)
        world = SchemaLinker(sales_schema, world_knowledge=True)
        question = "the amount charged of products"
        assert not any(
            m.column == "price" for m in exact.link(question)
        )
        assert any(m.column == "price" for m in world.link(question))


class TestFuzzy:
    def test_edit_distance_helper(self):
        assert _edit_distance_at_most_one("price", "price")
        assert _edit_distance_at_most_one("price", "prics")
        assert _edit_distance_at_most_one("price", "prce")
        assert _edit_distance_at_most_one("price", "pricey")
        assert not _edit_distance_at_most_one("price", "quantity")

    def test_fuzzy_links_typos(self, sales_schema):
        fuzzy = SchemaLinker(sales_schema, fuzzy=True)
        exact = SchemaLinker(sales_schema)
        question = "the prics of products"
        assert any(m.column == "price" for m in fuzzy.link(question))
        assert not any(m.column == "price" for m in exact.link(question))

    def test_fuzzy_ignores_short_words(self, sales_schema):
        fuzzy = SchemaLinker(sales_schema, fuzzy=True)
        assert not any(
            m.kind == "column" and m.column == "city"
            for m in fuzzy.link("the cit")
        )


def _full_scan_fuzzy_match(linker, word):
    """The unwindowed scan: the first single-word surface in index order
    within edit distance one of *word*."""
    for surface, hit in linker._index.items():
        if " " in surface or abs(len(surface) - len(word)) > 1:
            continue
        if _edit_distance_at_most_one(word, surface):
            return hit
    return None


def _one_edit_variants(surface):
    letters = "aeiosx"
    yield surface
    for i in range(len(surface) + 1):
        for ch in letters:
            yield surface[:i] + ch + surface[i:]  # insertion
        if i < len(surface):
            yield surface[:i] + surface[i + 1:]  # deletion
            for ch in letters:
                yield surface[:i] + ch + surface[i + 1:]  # substitution


@pytest.mark.parametrize("domain", domain_names())
def test_length_windows_match_the_full_scan(domain):
    # every one-edit typo of every single-word surface, plus the surfaces
    # themselves, must link to what the unwindowed scan picked
    linker = SchemaLinker(
        domain_by_name(domain).schema, world_knowledge=True, fuzzy=True
    )
    surfaces = [s for s in linker._index if " " not in s]
    checked = 0
    for surface in surfaces:
        for word in set(_one_edit_variants(surface)):
            spans = _word_spans(word)
            if len(spans) != 1 or spans[0] != (0, len(word)):
                continue
            match = linker._fuzzy_match_at(word, spans, 0)
            expected = _full_scan_fuzzy_match(linker, word)
            if len(word) < 4:
                expected = None
            got = None if match is None else (
                match[0].kind, match[0].table, match[0].column
            )
            assert got == expected, word
            checked += 1
    assert checked > 100
