"""Schema linking: finding schema-element mentions in a question.

Schema linking is, per the survey, the central sub-problem of Text-to-SQL
("elevating the schema linking challenge" is how Spider-SYN is described).
Every parser family in this library shares this linker; families differ in
the *knowledge* they bring to it:

- exact linking (rule/template parsers) matches schema names and declared
  schema synonyms only;
- ``world_knowledge=True`` (PLM/LLM-grade linking) additionally inverts the
  out-of-schema synonym table that the Spider-SYN-style perturbation draws
  from — modelling pretrained models' lexical knowledge;
- ``fuzzy=True`` tolerates small edit distances (typo robustness).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.data.schema import Column, Schema, TableSchema
from repro.nlg.perturb import OUT_OF_SCHEMA_SYNONYMS


@dataclass(frozen=True)
class Mention:
    """One linked schema mention inside a question."""

    start: int
    end: int
    surface: str
    kind: str  # "table" | "column"
    table: str
    column: str | None = None


class SchemaLinker:
    """Longest-match schema-mention finder over one schema."""

    def __init__(
        self,
        schema: Schema,
        world_knowledge: bool = False,
        fuzzy: bool = False,
    ) -> None:
        self.schema = schema
        self.world_knowledge = world_knowledge
        self.fuzzy = fuzzy
        self._index: dict[str, tuple[str, str, str | None]] = {}
        self._column_candidates: dict[str, list[tuple[str, str]]] = {}
        self._build_index()
        #: words in the longest indexed surface: the widest window
        #: ``_match_at`` ever needs to try
        self._max_len = max(
            (s.count(" ") + 1 for s in self._index), default=1
        )
        #: word length -> the single-word surfaces within one letter of
        #: that length, in index order: the only ones a fuzzy match (edit
        #: distance at most one) can hit
        window: dict[int, list[str]] = {}
        for surface in self._index:
            if " " not in surface:
                n = len(surface)
                for length in (n - 1, n, n + 1):
                    window.setdefault(length, []).append(surface)
        self._fuzzy_window = {n: tuple(s) for n, s in window.items()}

    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        for table in self.schema.tables:
            for surface in self._table_surfaces(table):
                self._index.setdefault(surface, ("table", table.name, None))
            for column in table.columns:
                for surface in self._column_surfaces(column):
                    self._index.setdefault(
                        surface, ("column", table.name, column.name)
                    )
                    candidates = self._column_candidates.setdefault(
                        surface, []
                    )
                    pair = (table.name, column.name)
                    if pair not in candidates:
                        candidates.append(pair)

    def column_candidates(self, surface: str) -> list[tuple[str, str]]:
        """All (table, column) pairs a surface form could refer to.

        Columns like ``city`` exist in several tables; the semantic parser
        disambiguates using a table mentioned nearby in the phrase.
        """
        return list(self._column_candidates.get(surface.lower(), ()))

    def _table_surfaces(self, table: TableSchema) -> list[str]:
        surfaces = []
        for mention in table.mentions():
            surfaces.extend(_number_variants(mention))
        return surfaces

    def _column_surfaces(self, column: Column) -> list[str]:
        surfaces = []
        for mention in column.mentions():
            surfaces.extend(_number_variants(mention))
        if self.world_knowledge:
            base = column.mentions()[0]
            for synonym in OUT_OF_SCHEMA_SYNONYMS.get(base, ()):
                surfaces.extend(_number_variants(synonym))
        return surfaces

    # ------------------------------------------------------------------
    def link(self, question: str) -> list[Mention]:
        """All non-overlapping mentions, longest-match, left to right."""
        lowered = question.lower()
        words = _word_spans(lowered)
        mentions: list[Mention] = []
        i = 0
        max_len = self._max_len
        while i < len(words):
            match = self._match_at(lowered, words, i, max_len)
            if match is None and self.fuzzy:
                match = self._fuzzy_match_at(lowered, words, i)
            if match is None:
                i += 1
                continue
            mention, consumed = match
            mentions.append(mention)
            i += consumed
        return mentions

    def _match_at(
        self,
        lowered: str,
        words: list[tuple[int, int]],
        i: int,
        max_len: int,
    ) -> tuple[Mention, int] | None:
        for length in range(min(max_len, len(words) - i), 0, -1):
            start = words[i][0]
            end = words[i + length - 1][1]
            surface = lowered[start:end]
            hit = self._index.get(surface)
            if hit is not None:
                kind, table, column = hit
                return (
                    Mention(
                        start=start,
                        end=end,
                        surface=surface,
                        kind=kind,
                        table=table,
                        column=column,
                    ),
                    length,
                )
        return None

    def _fuzzy_match_at(
        self, lowered: str, words: list[tuple[int, int]], i: int
    ) -> tuple[Mention, int] | None:
        start, end = words[i]
        word = lowered[start:end]
        if len(word) < 4:
            return None
        for surface in self._fuzzy_window.get(len(word), ()):
            if _edit_distance_at_most_one(word, surface):
                break
        else:
            return None
        kind, table, column = self._index[surface]
        return (
            Mention(
                start=start,
                end=end,
                surface=word,
                kind=kind,
                table=table,
                column=column,
            ),
            1,
        )

    # ------------------------------------------------------------------
    # convenience accessors used by parsers
    # ------------------------------------------------------------------
    def tables_in(self, question: str) -> list[str]:
        out = []
        for mention in self.link(question):
            if mention.kind == "table" and mention.table not in out:
                out.append(mention.table)
        return out

    def columns_in(self, question: str) -> list[tuple[str, str]]:
        out = []
        for mention in self.link(question):
            if mention.kind == "column":
                pair = (mention.table, mention.column or "")
                if pair not in out:
                    out.append(pair)
        return out

    def first_table(self, question: str) -> str | None:
        tables = self.tables_in(question)
        return tables[0] if tables else None

    def link_phrase(self, phrase: str) -> Mention | None:
        """Link a short phrase expected to be a single schema mention."""
        mentions = self.link(phrase)
        if not mentions:
            return None
        # prefer column mentions; they are the common case for phrases
        columns = [m for m in mentions if m.kind == "column"]
        return (columns or mentions)[-1]


_WORD_RE = re.compile(r"[a-z0-9_']+")


def _word_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _WORD_RE.finditer(text)]


def _number_variants(mention: str) -> list[str]:
    """A mention plus naive singular/plural variants."""
    mention = mention.lower()
    variants = [mention]
    if mention.endswith("s"):
        variants.append(mention[:-1])
    else:
        variants.append(mention + "s")
    if mention.endswith("y"):
        variants.append(mention[:-1] + "ies")
    return variants


def _edit_distance_at_most_one(a: str, b: str) -> bool:
    if a == b:
        return True
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) > len(b):
        a, b = b, a
    # a is shorter or equal
    i = j = diffs = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
            continue
        diffs += 1
        if diffs > 1:
            return False
        if len(a) == len(b):
            i += 1
        j += 1
    return True
