"""Prompt assembly and parsing for the simulated LLM.

``PromptBuilder`` produces the structured prompts that the surveyed
LLM-stage methods engineer — schema serialization (CREATE TABLE form, with
optional column-description comments, the "clear prompting" ingredient of
C3), in-context demonstrations, chain-of-thought instructions, external
knowledge, conversation history, and self-correction/repair sections.

The same module owns the *parsing* side: :func:`parse_prompt` recovers the
structured fields (the simulator only knows what the prompt contains) and
:func:`extract_sql` / :func:`extract_vql` pull programs out of completions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.data.schema import Column, ColumnType, ForeignKey, Schema, TableSchema

_TASK_SQL = "Translate the question into a SQL query."
_TASK_VIS = (
    "Translate the question into a VQL visualization query "
    "(VISUALIZE <TYPE> <SQL>)."
)
_COT_MARKER = "Let's think step by step."


@dataclass
class PromptBuilder:
    """Configurable prompt assembly.

    ``include_schema``          serialize CREATE TABLE statements
    ``include_descriptions``    add column synonym comments (clear prompting)
    ``include_foreign_keys``    add FK comments (schema structure hints)
    ``chain_of_thought``        add the CoT instruction
    """

    include_schema: bool = True
    include_descriptions: bool = True
    include_foreign_keys: bool = True
    chain_of_thought: bool = False
    task: str = "sql"  # "sql" | "vis"

    def build(
        self,
        question: str,
        schema: Schema,
        demonstrations: list[tuple[str, str]] | None = None,
        knowledge: str | None = None,
        history: list[tuple[str, str]] | None = None,
        repair_of: str | None = None,
        error: str | None = None,
    ) -> str:
        lines: list[str] = []
        lines.append(
            f"### Task: {_TASK_VIS if self.task == 'vis' else _TASK_SQL}"
        )
        if self.include_schema:
            lines.append(f"### Schema ({schema.db_id}):")
            lines.append(serialize_schema(
                schema,
                descriptions=self.include_descriptions,
                foreign_keys=self.include_foreign_keys,
            ))
        if knowledge:
            lines.append(f"### Knowledge: {knowledge}")
        if demonstrations:
            lines.append("### Examples:")
            for demo_q, demo_sql in demonstrations:
                lines.append(f"Q: {demo_q}")
                lines.append(f"A: {demo_sql}")
        if history:
            lines.append("### Conversation so far:")
            for turn_q, turn_sql in history:
                lines.append(f"Q: {turn_q}")
                lines.append(f"A: {turn_sql}")
        if repair_of is not None:
            lines.append("### Your previous answer:")
            lines.append(repair_of)
            lines.append(f"### It failed with: {error or 'unknown error'}")
            lines.append("### Please fix it.")
        if self.chain_of_thought:
            lines.append(f"### {_COT_MARKER}")
        lines.append(f"### Question: {question}")
        lines.append("A:")
        return "\n".join(lines)


def serialize_schema(
    schema: Schema, descriptions: bool = True, foreign_keys: bool = True
) -> str:
    """CREATE TABLE serialization of a schema (with optional comments)."""
    statements = []
    for table in schema.tables:
        columns = []
        for column in table.columns:
            text = f"{column.name} {column.type.value.upper()}"
            if descriptions and column.synonyms:
                text += f" /* aka: {', '.join(column.synonyms)} */"
            columns.append(text)
        statement = f"CREATE TABLE {table.name} ({', '.join(columns)});"
        if descriptions and table.synonyms:
            statement += f" /* aka: {', '.join(table.synonyms)} */"
        statements.append(statement)
    if foreign_keys:
        for fk in schema.foreign_keys:
            statements.append(
                f"-- FK: {fk.table}.{fk.column} -> "
                f"{fk.ref_table}.{fk.ref_column}"
            )
    return "\n".join(statements)


@dataclass
class ParsedPrompt:
    """The structured fields the simulator reads out of a prompt."""

    task: str = "sql"
    question: str = ""
    schema: Schema | None = None
    knowledge: str | None = None
    demonstrations: list[tuple[str, str]] = field(default_factory=list)
    history: list[tuple[str, str]] = field(default_factory=list)
    chain_of_thought: bool = False
    has_descriptions: bool = False
    repair_of: str | None = None
    error: str | None = None


def parse_prompt(
    prompt: str,
    schema_of: Callable[[str, str], Schema] | None = None,
) -> ParsedPrompt:
    """Recover the structured prompt fields (see module docstring).

    *schema_of* rebuilds the schema from its database id and CREATE TABLE
    body; it defaults to :func:`deserialize_schema`.
    """
    parsed = ParsedPrompt()
    parsed.task = "vis" if "VQL" in prompt else "sql"
    parsed.chain_of_thought = _COT_MARKER in prompt
    parsed.has_descriptions = "/* aka:" in prompt

    question = re.search(r"### Question:\s*(.+)", prompt)
    if question:
        parsed.question = question.group(1).strip()

    knowledge = re.search(r"### Knowledge:\s*(.+)", prompt)
    if knowledge:
        parsed.knowledge = knowledge.group(1).strip()

    schema_match = re.search(
        r"### Schema \((?P<db>[^)]+)\):\n(?P<body>.*?)(?=\n###)",
        prompt,
        flags=re.DOTALL,
    )
    if schema_match:
        parsed.schema = (schema_of or deserialize_schema)(
            schema_match.group("db"), schema_match.group("body")
        )

    for section, target in (
        ("Examples", parsed.demonstrations),
        ("Conversation so far", parsed.history),
    ):
        body = re.search(
            rf"### {re.escape(section)}:\n(.*?)(?=\n###)",
            prompt,
            flags=re.DOTALL,
        )
        if body:
            pairs = re.findall(
                r"Q:\s*(.+?)\nA:\s*(.+?)(?=\nQ:|\Z)",
                body.group(1),
                flags=re.DOTALL,
            )
            target.extend(
                (q.strip(), a.strip()) for q, a in pairs
            )

    repair = re.search(
        r"### Your previous answer:\n(.*?)\n### It failed with:\s*(.+?)\n",
        prompt,
        flags=re.DOTALL,
    )
    if repair:
        parsed.repair_of = repair.group(1).strip()
        parsed.error = repair.group(2).strip()
    return parsed


def deserialize_schema(db_id: str, body: str) -> Schema:
    """Rebuild a Schema object from its CREATE TABLE serialization.

    The simulator only knows what the prompt says: synonyms exist only when
    the serialization included description comments, foreign keys only when
    FK comments are present.
    """
    tables: list[TableSchema] = []
    for match in re.finditer(
        r"CREATE TABLE (\w+) \((.*?)\);(?:\s*/\* aka: (.*?) \*/)?",
        body,
    ):
        name, columns_text, table_aka = match.groups()
        columns = []
        for column_text in _split_columns(columns_text):
            column_match = re.match(
                r"(\w+)\s+(\w+)(?:\s*/\* aka: (.*?) \*/)?\s*$",
                column_text.strip(),
            )
            if not column_match:
                continue
            col_name, col_type, aka = column_match.groups()
            synonyms = tuple(
                s.strip() for s in aka.split(",")
            ) if aka else ()
            try:
                ctype = ColumnType(col_type.lower())
            except ValueError:
                ctype = ColumnType.TEXT
            columns.append(
                Column(name=col_name, type=ctype, synonyms=synonyms)
            )
        synonyms = tuple(
            s.strip() for s in table_aka.split(",")
        ) if table_aka else ()
        tables.append(
            TableSchema(name=name, columns=tuple(columns), synonyms=synonyms)
        )

    fks = []
    for match in re.finditer(
        r"-- FK: (\w+)\.(\w+) -> (\w+)\.(\w+)", body
    ):
        fks.append(ForeignKey(*match.groups()))
    return Schema(db_id=db_id, tables=tuple(tables), foreign_keys=tuple(fks))


def _split_columns(text: str) -> list[str]:
    """Split a column list on commas outside /* */ comments."""
    out = []
    depth = 0
    current = []
    i = 0
    while i < len(text):
        if text[i : i + 2] == "/*":
            depth += 1
            current.append(text[i : i + 2])
            i += 2
            continue
        if text[i : i + 2] == "*/":
            depth = max(0, depth - 1)
            current.append(text[i : i + 2])
            i += 2
            continue
        if text[i] == "," and depth == 0:
            out.append("".join(current))
            current = []
            i += 1
            continue
        current.append(text[i])
        i += 1
    if current:
        out.append("".join(current))
    return out


def extract_sql(completion: str) -> str:
    """Pull the SQL program out of a model completion."""
    block = re.search(r"```sql\s*(.+?)```", completion, flags=re.DOTALL)
    if block:
        return block.group(1).strip()
    for line in completion.splitlines():
        stripped = line.strip()
        if stripped.upper().startswith(("SELECT", "VISUALIZE")):
            return stripped
    return completion.strip()


def extract_vql(completion: str) -> str:
    """Pull the VQL program out of a model completion."""
    for line in completion.splitlines():
        stripped = line.strip()
        if stripped.upper().startswith("VISUALIZE"):
            return stripped
    return extract_sql(completion)
