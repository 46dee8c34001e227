"""The simulated LLM's completion interface.

``SimulatedLLM.complete(prompt, temperature, n)`` is the whole API — the
same text-in/text-out surface the LLM-stage parsers would call on a real
model.  Internally (see the package docstring and DESIGN.md) the simulator

1. parses the prompt's structured fields — it knows *only* what the prompt
   contains, including the schema, which it re-parses out of the CREATE
   TABLE serialization;
2. solves the question with the grammar semantic parser at the capability
   level of its :class:`~repro.llm.profiles.ModelProfile`;
3. computes an effective error rate from the profile and the prompt's
   engineering quality (schema present? descriptions? demonstrations and
   their similarity? chain-of-thought? repair feedback?);
4. deterministically (per prompt and sample index) decides whether and how
   to corrupt the answer, then renders a completion — with step-by-step
   reasoning text when CoT was requested.
"""

from __future__ import annotations

import random
import re
import threading
from dataclasses import dataclass

from repro.data.schema import Schema
from repro.errors import LLMError
from repro.llm.corruption import corrupt_query, syntax_error_text
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.prompts import ParsedPrompt, deserialize_schema, parse_prompt
from repro.nlg.lexicon import CHART_PHRASES
from repro.parsers.base import ParseRequest
from repro.parsers.semantic import GrammarSemanticParser
from repro.sql.ast import Query
from repro.sql.components import classify_hardness
from repro.sql.parser import parse_sql
from repro.sql.unparser import to_sql


@dataclass
class Completion:
    """One sampled completion."""

    text: str
    prompt_tokens: int
    completion_tokens: int


def _stable_hash(text: str) -> int:
    value = 1469598103934665603
    for ch in text:
        value = ((value ^ ord(ch)) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return value


#: schemas a :class:`SimulatedLLM` keeps rebuilt from prompt text
_SCHEMA_MEMO_MAX = 512


class SimulatedLLM:
    """Deterministic prompt-sensitive text completion; see module docstring.

    The solver is one :class:`GrammarSemanticParser` per (knowledge,
    history) prompt shape, kept for the instance's life, and a prompt's
    schema text maps to one :class:`Schema` object (schemas are frozen),
    so the solver's schema linkers and parse memo carry over from one
    completion to the next.
    """

    def __init__(
        self, profile: str | ModelProfile = "chatgpt-like", seed: int = 0
    ) -> None:
        self.profile = (
            profile if isinstance(profile, ModelProfile) else get_profile(profile)
        )
        self.seed = seed
        self.calls = 0
        self.total_prompt_tokens = 0
        self._solvers: dict[tuple[bool, bool], GrammarSemanticParser] = {}
        self._schemas: dict[tuple[str, str], Schema] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def complete(
        self, prompt: str, temperature: float = 0.0, n: int = 1
    ) -> list[Completion]:
        """Sample *n* completions for *prompt*."""
        if n < 1:
            raise LLMError("n must be >= 1")
        self.calls += 1
        prompt_tokens = len(prompt.split())
        self.total_prompt_tokens += prompt_tokens * n
        parsed = parse_prompt(prompt, self._schema_of)
        completions = []
        for index in range(n):
            sample_key = index if temperature > 0 else 0
            rng = random.Random(
                _stable_hash(prompt) ^ (self.seed * 1000003) ^ sample_key
            )
            text = self._answer(parsed, rng, temperature)
            completions.append(
                Completion(
                    text=text,
                    prompt_tokens=prompt_tokens,
                    completion_tokens=len(text.split()),
                )
            )
        return completions

    # ------------------------------------------------------------------
    def _answer(
        self, parsed: ParsedPrompt, rng: random.Random, temperature: float
    ) -> str:
        if not parsed.question:
            return "I need a question to answer."
        if parsed.schema is None:
            # without a schema in the prompt the model can only guess
            return self._render(
                parsed, "SELECT name FROM data", reasoning="No schema given."
            )

        if parsed.task == "vis":
            restyle = self._try_restyle(parsed)
            if restyle is not None:
                return self._render(parsed, restyle, reasoning=None)

        query, solved_language = self._solve(parsed)
        if query is None:
            # unsolvable for this model: emit a shallow guess
            guess = self._fallback_query(parsed)
            return self._render(parsed, guess, reasoning="Best guess.")

        error = self._effective_error(parsed, query, temperature)
        corrupted = rng.random() < error
        if corrupted:
            if rng.random() < self.profile.syntax_error_rate / max(
                error, 1e-9
            ) * self.profile.base_error:
                sql_text = syntax_error_text(to_sql(query), rng)
                return self._render(parsed, sql_text, reasoning=None)
            severity = 1 + int(rng.random() < 0.25)
            query = corrupt_query(query, parsed.schema, rng, severity)

        sql_text = to_sql(query)
        reasoning = None
        if parsed.chain_of_thought:
            reasoning = self._reasoning_text(parsed, query)
        if parsed.task == "vis":
            chart = self._detect_chart(parsed.question, rng, corrupted)
            sql_text = f"VISUALIZE {chart.upper()} {sql_text}"
        return self._render(parsed, sql_text, reasoning)

    # ------------------------------------------------------------------
    def _schema_of(self, db_id: str, body: str) -> Schema:
        key = (db_id, body)
        schema = self._schemas.get(key)
        if schema is None:
            built = deserialize_schema(db_id, body)
            with self._lock:
                schema = self._schemas.setdefault(key, built)
                if len(self._schemas) > _SCHEMA_MEMO_MAX:
                    del self._schemas[next(iter(self._schemas))]
        return schema

    def _solver(
        self, use_knowledge: bool, use_history: bool
    ) -> GrammarSemanticParser:
        key = (use_knowledge, use_history)
        parser = self._solvers.get(key)
        if parser is None:
            profile = self.profile
            built = GrammarSemanticParser(
                world_knowledge=profile.knows_world_synonyms,
                fuzzy=profile.knows_world_synonyms,
                languages=profile.languages,
                use_knowledge=use_knowledge,
                use_history=use_history,
                guess_unlinked=True,
            )
            with self._lock:
                parser = self._solvers.setdefault(key, built)
        return parser

    def _solve(self, parsed: ParsedPrompt) -> tuple[Query | None, str]:
        parser = self._solver(parsed.knowledge is not None, bool(parsed.history))
        history = []
        for turn_q, turn_sql in parsed.history:
            try:
                history.append((turn_q, parse_sql(turn_sql)))
            except Exception:
                continue
        question = parsed.question
        for language in self._language_order(question):
            request = ParseRequest(
                question=question,
                schema=parsed.schema,
                db=None,
                knowledge=parsed.knowledge,
                history=history,
                language=language,
            )
            result = parser.parse(request)
            if result.query is not None:
                return result.query, language
        return None, "en"

    def _language_order(self, question: str) -> list[str]:
        has_cjk = any("一" <= ch <= "鿿" for ch in question)
        order = ["en"]
        if has_cjk and "zh" in self.profile.languages:
            order = ["zh", "en"]
        else:
            for language in self.profile.languages:
                if language != "en":
                    order.append(language)
        return order

    def _effective_error(
        self, parsed: ParsedPrompt, query: Query, temperature: float
    ) -> float:
        profile = self.profile
        quality = 0.0
        if parsed.schema is not None:
            quality += 0.5
        if parsed.has_descriptions:
            quality += 0.25
        if parsed.schema is not None and parsed.schema.foreign_keys:
            quality += 0.25
        error = profile.base_error * (
            1.0 - profile.prompt_sensitivity * min(quality, 1.0)
        )

        question_tokens = set(parsed.question.lower().split())
        for demo_question, _demo_sql in parsed.demonstrations[:8]:
            demo_tokens = set(demo_question.lower().split())
            union = question_tokens | demo_tokens
            similarity = (
                len(question_tokens & demo_tokens) / len(union) if union else 0
            )
            error *= 1.0 - profile.demo_gain * (0.5 + similarity)

        hardness = classify_hardness(query)
        if parsed.chain_of_thought:
            boost = 3.0 if hardness in ("hard", "extra") else 1.0
            error *= 1.0 - min(0.9, profile.cot_gain * boost)
        elif hardness in ("hard", "extra"):
            error *= 1.35  # hard questions fail more without reasoning

        if parsed.repair_of is not None:
            error *= profile.repair_factor

        error *= 1.0 + 0.3 * temperature
        return max(0.01, min(0.95, error))

    def _fallback_query(self, parsed: ParsedPrompt) -> str:
        schema = parsed.schema
        assert schema is not None
        lowered = parsed.question.lower()
        table = schema.tables[0]
        for candidate in schema.tables:
            if candidate.name.lower().rstrip("s") in lowered:
                table = candidate
                break
        column = table.columns[0].name
        return f"SELECT {column} FROM {table.name}"

    def _try_restyle(self, parsed: ParsedPrompt) -> str | None:
        """Conversational re-styling: 'make it a pie chart' reuses the
        previous turn's data query with a new chart type (ChartDialogs)."""
        if not parsed.history:
            return None
        match = re.search(
            r"\b(?:make it|show that as|switch to)\s+an?\s+"
            r"(bar|pie|line|scatter)\s+(?:chart|graph|plot)",
            parsed.question,
            flags=re.IGNORECASE,
        )
        if not match:
            return None
        previous_sql = parsed.history[-1][1]
        # history entries may be plain SQL or whole VQL programs
        if previous_sql.upper().startswith("VISUALIZE"):
            previous_sql = previous_sql.split(None, 2)[2]
        return f"VISUALIZE {match.group(1).upper()} {previous_sql}"

    def _detect_chart(
        self, question: str, rng: random.Random, corrupted: bool
    ) -> str:
        lowered = question.lower()
        detected = None
        for chart_type, phrases in CHART_PHRASES.items():
            if any(phrase in lowered for phrase in phrases) or (
                f"{chart_type} chart" in lowered
                or f"{chart_type} graph" in lowered
                or f"{chart_type} plot" in lowered
            ):
                detected = chart_type
                break
        if detected is None:
            detected = "bar"
        if corrupted and rng.random() < 0.3:
            alternatives = [
                t for t in ("bar", "pie", "line", "scatter") if t != detected
            ]
            detected = rng.choice(alternatives)
        return detected

    def _reasoning_text(self, parsed: ParsedPrompt, query: Query) -> str:
        from repro.sql.ast import Select, from_tables

        select = query
        while not isinstance(select, Select):
            select = select.left
        tables = ", ".join(ref.name for ref in from_tables(select.from_))
        steps = [
            f"1. The question asks about: {parsed.question.rstrip('?')}.",
            f"2. Relevant table(s): {tables}.",
            "3. Compose the clauses and assemble the query.",
        ]
        return "\n".join(steps)

    def _render(
        self, parsed: ParsedPrompt, sql_text: str, reasoning: str | None
    ) -> str:
        parts = []
        if reasoning:
            parts.append(reasoning)
        parts.append(f"```sql\n{sql_text}\n```")
        return "\n".join(parts)
