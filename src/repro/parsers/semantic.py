"""Grammar-based semantic parser: the parsing-based system representative.

This parser inverts the question grammar of :mod:`repro.nlg`: it extracts
clause-level cues (aggregates, grouping, ordering, superlatives, set-op
connectives, condition markers), links schema mentions, resolves values
against database content, and composes a SQL AST.  It is the library's
representative of the survey's *parsing-based* architecture (Seq2Tree /
SQLova style systems that "convert natural language questions into
syntactic structures or logical forms").

Capability knobs model what separates the approach stages:

- ``world_knowledge`` — out-of-schema synonym linking (PLM/LLM-grade);
- ``fuzzy`` — typo-tolerant linking;
- ``languages`` — which question languages the parser understands;
- ``use_knowledge`` — whether BIRD-style external evidence is consumed;
- ``use_history`` — whether conversational follow-ups are resolved;
- ``guess_unlinked`` — whether unresolvable mentions are guessed by type
  (needed on Spider-realistic-style inputs).

The simulated LLM (:mod:`repro.llm`) uses this parser, at full capability,
as its internal solver — see DESIGN.md's substitution table.

Each parser instance memoizes its parses (see DESIGN.md §"Parse memo").
A translation reads database rows in one place only, value linking
(:func:`_restore_value_case`), so an entry records every such lookup
with its answer, and a repeated question is answered from the memo when
every recorded lookup still gives the same answer against the request's
database.  A write to a table therefore costs a repeated question only
its lookups, not a reparse.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, replace as dc_replace

from repro.data.database import Database
from repro.data.identity import identity_token
from repro.data.schema import Column, ColumnType, Schema, TableSchema
from repro.data.values import Value
from repro.errors import AnalysisError, NLParseError
from repro.nlg.translate import reverse_translate
from repro.obs import metrics as _obs_metrics
from repro.parsers.base import (
    ParseRequest,
    ParseResult,
    Parser,
    TRADITIONAL,
)
from repro.parsers.linker import SchemaLinker
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InSubquery,
    Join,
    Like,
    Literal,
    OrderItem,
    Query,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperation,
    Star,
    TableRef,
)
from repro.sql.index import first_match_map

#: question openers, longest first (``_strip_opener`` takes the first hit)
_OPENERS: tuple[str, ...] = tuple(sorted((
    "show", "list", "what are", "what is", "give me", "return", "find",
    "display", "tell me", "compute", "draw", "plot", "visualize",
), key=len, reverse=True))

#: op-phrase -> SQL operator, longest phrases first at match time.
_OP_PHRASES: dict[str, str] = {
    "is greater than or equal to": ">=",
    "is less than or equal to": "<=",
    "is no less than": ">=",
    "is no more than": "<=",
    "is at least": ">=",
    "is at most": "<=",
    "is greater than": ">",
    "is more than": ">",
    "is smaller than": "<",
    "is less than": "<",
    "is different from": "<>",
    "does not equal": "<>",
    "is not": "<>",
    "is above": ">",
    "is below": "<",
    "is under": "<",
    "exceeds": ">",
    "is exactly": "=",
    "equals": "=",
    "is": "=",
}

#: every op phrase with its word-bounded pattern, longest phrase first
#: (``sorted`` is stable, so equal lengths keep declaration order)
_OP_PATTERNS: tuple[tuple[str, re.Pattern], ...] = tuple(
    (phrase, re.compile(r"\b" + re.escape(phrase) + r"\b"))
    for phrase in sorted(_OP_PHRASES, key=len, reverse=True)
)

_AGG_CUES: tuple[tuple[str, str], ...] = (
    ("average", "avg"), ("mean", "avg"), ("typical", "avg"),
    ("total", "sum"), ("sum of", "sum"), ("combined", "sum"),
    ("minimum", "min"), ("lowest", "min"), ("smallest", "min"),
    ("maximum", "max"), ("highest", "max"), ("largest", "max"),
)

#: connective regex -> set operation.  The bare " or " pattern must not
#: fire inside comparative phrases like "greater than or equal to".
_SET_CONNECTIVES: tuple[tuple[re.Pattern, str], ...] = tuple(
    (re.compile(pattern, re.IGNORECASE), op)
    for pattern, op in (
        (r"\s+but not\s+", "except"),
        (r"\s+excluding\s+", "except"),
        (r"\s+and also\s+", "intersect"),
        (r"\s+that also\s+", "intersect"),
        (r"\s+as well as\s+", "union"),
        (r"(?<!than)\s+or\s+(?!equal\b)", "union"),
    )
)

# The grammar's fixed patterns, compiled once at import.  Clause
# extraction:
_NESTED_RE = re.compile(r"\bthat have\s+(.+?)\s+whose\s+(.+)$", re.IGNORECASE)
_WHOSE_RE = re.compile(r"\bwhose\b", re.IGNORECASE)
_DISTINCT_RE = re.compile(r"\bdistinct\b", re.IGNORECASE)
# projection:
_PROJECTION_RE = re.compile(
    r"^(?:the\s+)?(.+?)\s+(?:values\s+)?of\s+(.+)$", re.IGNORECASE
)
_PROJECTION_SPLIT_RE = re.compile(r",|\band\b")
# conditions:
_BETWEEN_AND_RE = re.compile(r"(between\s+\S+)\s+and\b", re.IGNORECASE)
_CONJUNCT_RE = re.compile(r"\band\b(?! also)", re.IGNORECASE)
_ARE_RE = re.compile(r"\bare\b", re.IGNORECASE)
_LIKE_RE = re.compile(
    r"^(.*?)\s*(?:contains the substring|includes|has)\s+'(.+?)'",
    re.IGNORECASE,
)
_BETWEEN_RE = re.compile(
    r"^(.*?)\s*(?:is between|falls between)\s+(\S+)\s+and\s+(\S+)",
    re.IGNORECASE,
)
_RANGE_RE = re.compile(
    r"^(.*?)\s*is in the range\s+(\S+)\s+to\s+(\S+)", re.IGNORECASE
)
_VERSUS_AVG_RE = re.compile(
    r"^(.*?)\s*is\s+(above|below)\s+the average", re.IGNORECASE
)
# follow-ups and knowledge:
_FOLLOWUP_LEAD_RE = re.compile(
    r"^(now|next,?|and|also|then)\s+", re.IGNORECASE
)
_COUNT_THEM_RE = re.compile(
    r"(how many (are there|is that)|count them)", re.IGNORECASE
)
_KEEP_ONLY_RE = re.compile(r"keep only those whose\s+(.+)$", re.IGNORECASE)
_SHOW_ONLY_RE = re.compile(
    r"show only the (\d+) with the (highest|lowest)\s+(.+)$", re.IGNORECASE
)
_SHOW_THEIR_RE = re.compile(r"show their\s+(.+?)\s+instead$", re.IGNORECASE)
_KNOWLEDGE_RE = re.compile(
    r"^(?P<alias>.+?)\s+are\s+(?P<table>.+?)\s+whose\s+(?P<cond>.+?)\.?$"
)

#: bound on each parser's memoized parses, and on its linkers; the
#: oldest entry goes first
_MEMO_SIZE = 1024

_registry = _obs_metrics.get_registry()
_MEMO_HITS = _registry.counter("repro.parsers.memo.hits")
_MEMO_MISSES = _registry.counter("repro.parsers.memo.misses")
#: the key was memoized but a recorded lookup now answers differently
_MEMO_STALE = _registry.counter("repro.parsers.memo.stale")


class _LookupLog(threading.local):
    """The database lookups of the memoizing parse running on this
    thread, as ``(table, column, literal, answer)`` tuples; None when no
    parse is recording."""

    lookups: list | None = None


_LOG = _LookupLog()


@dataclass
class _Clauses:
    """Intermediate clause structure pulled out of a question."""

    head: str
    conditions: str | None = None
    nested_table: str | None = None
    nested_conditions: str | None = None
    group_phrase: str | None = None
    order_phrase: str | None = None
    order_desc: bool = False
    superlative_phrase: str | None = None
    superlative_desc: bool = True
    limit: int | None = None
    having_min: int | None = None
    set_op: str | None = None
    set_second: str | None = None
    distinct: bool = False


class GrammarSemanticParser(Parser):
    """See module docstring."""

    name = "grammar semantic parser"
    stage = TRADITIONAL
    year = 2016

    def __init__(
        self,
        world_knowledge: bool = False,
        fuzzy: bool = False,
        languages: tuple[str, ...] = ("en",),
        use_knowledge: bool = False,
        use_history: bool = False,
        guess_unlinked: bool = True,
    ) -> None:
        self.world_knowledge = world_knowledge
        self.fuzzy = fuzzy
        self.languages = languages
        self.use_knowledge = use_knowledge
        self.use_history = use_history
        self.guess_unlinked = guess_unlinked
        # both read without the lock and written under it (``_store``)
        #: schema identity token -> its linker
        self._linkers: dict[object, SchemaLinker] = {}
        #: memo key -> (query or None, failure notes, recorded lookups)
        self._memo: dict[tuple, tuple] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def parse(self, request: ParseRequest) -> ParseResult:
        db = request.db
        history = request.history
        # everything the parse reads apart from database rows: what the
        # configuration ignores (knowledge, history) stays out of the key
        key = (
            request.question,
            identity_token(request.schema),
            request.knowledge if self.use_knowledge else None,
            tuple(history) if self.use_history and history else (),
            request.language,
            db is not None,
        )
        try:
            entry = self._memo.get(key)
        except TypeError:  # unhashable history: parse without the memo
            return _parse_result(*self._parse_recorded(request)[:2])
        if entry is None:
            _MEMO_MISSES.inc()
        elif _lookups_hold(entry[2], db):
            _MEMO_HITS.inc()
            return _parse_result(entry[0], entry[1])
        else:
            _MEMO_STALE.inc()
        entry = self._parse_recorded(request)
        self._store(self._memo, key, entry)
        return _parse_result(entry[0], entry[1])

    def _parse_recorded(self, request: ParseRequest) -> tuple:
        """Parse *request*: ``(query or None, notes, lookups)``."""
        lookups: list = []
        outer, _LOG.lookups = _LOG.lookups, lookups
        try:
            return self._parse(request), "", tuple(lookups)
        except NLParseError as exc:
            return None, str(exc), tuple(lookups)
        finally:
            _LOG.lookups = outer

    def _store(self, cache: dict, key, value) -> None:
        """Insert into the memo or the linkers, dropping the oldest entry
        past the bound; readers never take the lock, so only writers
        must serialize."""
        with self._lock:
            cache[key] = value
            if len(cache) > _MEMO_SIZE:
                del cache[next(iter(cache))]

    # ------------------------------------------------------------------
    def _parse(self, request: ParseRequest) -> Query:
        question = request.question
        if request.language != "en":
            if request.language not in self.languages:
                raise NLParseError(
                    f"language {request.language!r} not supported"
                )
            question = reverse_translate(question, request.language)

        linker = self._linker_for(request.schema)

        if self.use_history and request.history:
            followup = self._try_followup(question, request, linker)
            if followup is not None:
                return followup

        knowledge_cond: BinaryOp | None = None
        if self.use_knowledge and request.knowledge:
            question, knowledge_cond = self._apply_knowledge(
                question, request.knowledge, linker
            )

        clauses = self._extract_clauses(question)
        query = self._build_query(clauses, request, linker)
        if knowledge_cond is not None and isinstance(query, Select):
            where = (
                knowledge_cond
                if query.where is None
                else BinaryOp(op="and", left=query.where, right=knowledge_cond)
            )
            query = dc_replace(query, where=where)
        return query

    def _linker_for(self, schema: Schema) -> SchemaLinker:
        key = identity_token(schema)
        linker = self._linkers.get(key)
        if linker is None:
            linker = SchemaLinker(
                schema,
                world_knowledge=self.world_knowledge,
                fuzzy=self.fuzzy,
            )
            self._store(self._linkers, key, linker)
        return linker

    # ------------------------------------------------------------------
    # clause extraction
    # ------------------------------------------------------------------
    def _extract_clauses(self, question: str) -> _Clauses:
        text = question.strip().rstrip("?").strip()

        clauses = _Clauses(head=text)

        text, having_min = _extract_having(text)
        clauses.having_min = having_min

        text, group_phrase = _extract_group(text)
        clauses.group_phrase = group_phrase

        text, order_phrase, order_desc = _extract_order(text)
        clauses.order_phrase = order_phrase
        clauses.order_desc = order_desc

        text, sup_phrase, sup_desc = _extract_superlative(text)
        clauses.superlative_phrase = sup_phrase
        clauses.superlative_desc = sup_desc

        text, limit, limit_desc = _extract_topn(text)
        if limit is not None:
            clauses.limit = limit
            if clauses.order_phrase is None and clauses.superlative_phrase is None:
                clauses.order_desc = limit_desc

        # nested: "that have <child> whose <cond>"
        nested = _NESTED_RE.search(text)
        if nested:
            clauses.nested_table = nested.group(1).strip()
            clauses.nested_conditions = nested.group(2).strip()
            text = text[: nested.start()].strip()
        else:
            parts = _WHOSE_RE.split(text, maxsplit=1)
            if len(parts) == 2:
                text = parts[0].strip()
                conditions = parts[1].strip()
                for connective, op in _SET_CONNECTIVES:
                    match = connective.search(conditions)
                    if match:
                        clauses.set_op = op
                        clauses.set_second = conditions[match.end():].strip()
                        conditions = conditions[: match.start()].strip()
                        break
                clauses.conditions = conditions

        if _DISTINCT_RE.search(text):
            clauses.distinct = True

        clauses.head = _strip_opener(text)
        return clauses

    # ------------------------------------------------------------------
    # query assembly
    # ------------------------------------------------------------------
    def _build_query(
        self, clauses: _Clauses, request: ParseRequest, linker: SchemaLinker
    ) -> Query:
        head = clauses.head
        agg, agg_col_phrase, table_phrase = _extract_head_agg(head)

        # resolve the main table
        main_table = self._resolve_table(
            table_phrase if table_phrase else head, linker
        )
        if main_table is None:
            raise NLParseError(f"no table found in {head!r}")
        schema = request.schema
        table = schema.table(main_table)

        joins: list[str] = []  # other tables we must join in

        # projection / aggregate
        items: list[SelectItem] = []
        group_ref: ColumnRef | None = None

        if clauses.group_phrase is not None:
            group_table, group_col = self._resolve_column_phrase(
                clauses.group_phrase, linker, table, request,
                prefer_types=(ColumnType.TEXT, ColumnType.DATE),
            )
            if group_table.lower() != table.name.lower():
                joins.append(group_table)
                group_ref = ColumnRef(
                    column=group_col.lower(), table=group_table.lower()
                )
            else:
                group_ref = ColumnRef(column=group_col.lower())

        if agg is not None:
            if agg == "count":
                agg_expr: FuncCall = FuncCall(name="count", args=(Star(),))
            else:
                agg_table, agg_col = self._resolve_column_phrase(
                    agg_col_phrase or "", linker, table, request,
                    prefer_types=(ColumnType.NUMBER,),
                )
                if agg_table.lower() != table.name.lower():
                    joins.append(agg_table)
                    col_ref = ColumnRef(
                        column=agg_col.lower(), table=agg_table.lower()
                    )
                else:
                    col_ref = ColumnRef(column=agg_col.lower())
                agg_expr = FuncCall(name=agg, args=(col_ref,))
            if group_ref is not None:
                items.append(SelectItem(expr=group_ref))
            items.append(SelectItem(expr=agg_expr))
        else:
            projection = self._resolve_projection(
                head, table_phrase, linker, table, request
            )
            items.extend(SelectItem(expr=ref) for ref in projection)
            if group_ref is not None:
                items.insert(0, SelectItem(expr=group_ref))

        # conditions
        where = None
        if clauses.conditions:
            where, cond_joins = self._parse_conditions(
                clauses.conditions, linker, table, request
            )
            joins.extend(cond_joins)
        if clauses.nested_table and clauses.nested_conditions:
            where_nested = self._build_nested(
                clauses, linker, table, request
            )
            where = (
                where_nested
                if where is None
                else BinaryOp(op="and", left=where, right=where_nested)
            )

        # ordering
        order_by: tuple[OrderItem, ...] = ()
        limit = clauses.limit
        order_source = clauses.order_phrase or clauses.superlative_phrase
        if order_source is not None:
            descending = (
                clauses.order_desc
                if clauses.order_phrase is not None
                else clauses.superlative_desc
            )
            order_table, order_col = self._resolve_column_phrase(
                order_source, linker, table, request,
                prefer_types=(ColumnType.NUMBER,),
            )
            if order_table.lower() != table.name.lower():
                joins.append(order_table)
                order_ref = ColumnRef(
                    column=order_col.lower(), table=order_table.lower()
                )
            else:
                order_ref = ColumnRef(column=order_col.lower())
            order_by = (OrderItem(expr=order_ref, descending=descending),)
            if clauses.superlative_phrase is not None and limit is None:
                limit = 1
            # the order_limit pattern projects the ordered column as well
            if (
                clauses.limit is not None
                and agg is None
                and group_ref is None
                and not any(
                    isinstance(i.expr, ColumnRef)
                    and i.expr.column == order_ref.column
                    for i in items
                )
            ):
                items.append(SelectItem(expr=order_ref))

        having = None
        if clauses.having_min is not None:
            having = BinaryOp(
                op=">=",
                left=FuncCall(name="count", args=(Star(),)),
                right=Literal(clauses.having_min),
            )

        from_clause = self._build_from(table, joins, schema, items, where,
                                       group_ref, order_by)

        if isinstance(from_clause, Join):
            # with several tables in scope, unqualified refs to the main
            # table become ambiguous; qualify them all
            qualify = _Qualifier(table.name.lower())
            items = [
                SelectItem(expr=qualify(i.expr), alias=i.alias) for i in items
            ]
            where = qualify(where) if where is not None else None
            if group_ref is not None:
                group_ref = qualify(group_ref)
            order_by = tuple(
                OrderItem(expr=qualify(o.expr), descending=o.descending)
                for o in order_by
            )

        group_by = (group_ref,) if group_ref is not None else ()
        select = Select(
            items=tuple(items),
            from_=from_clause,
            where=where,
            group_by=tuple(g for g in group_by if g is not None),
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=clauses.distinct,
        )

        if clauses.set_op and clauses.set_second:
            second_where, second_joins = self._parse_conditions(
                clauses.set_second, linker, table, request
            )
            right = Select(
                items=tuple(items),
                from_=self._build_from(
                    table, second_joins, schema, items, second_where, None, ()
                ),
                where=second_where,
            )
            left = dc_replace(select, order_by=(), limit=None)
            return SetOperation(op=clauses.set_op, left=left, right=right)
        return select

    # ------------------------------------------------------------------
    def _build_from(
        self,
        table: TableSchema,
        joins: list[str],
        schema: Schema,
        items,
        where,
        group_ref,
        order_by,
    ):
        from_clause = TableRef(name=table.name.lower())
        seen: set[str] = {table.name.lower()}
        clause = from_clause
        for other in joins:
            lowered = other.lower()
            if lowered in seen:
                continue
            fks = schema.foreign_keys_between(table.name, other)
            if not fks:
                continue
            fk = fks[0]
            condition = BinaryOp(
                op="=",
                left=ColumnRef(column=fk.column.lower(), table=fk.table.lower()),
                right=ColumnRef(
                    column=fk.ref_column.lower(), table=fk.ref_table.lower()
                ),
            )
            clause = Join(
                left=clause,
                right=TableRef(name=lowered),
                kind="inner",
                condition=condition,
            )
            seen.add(lowered)
        if len(seen) > 1:
            # qualify unqualified refs with the main table where ambiguous
            return clause
        return clause

    # ------------------------------------------------------------------
    def _resolve_table(self, phrase: str, linker: SchemaLinker) -> str | None:
        tables = linker.tables_in(phrase)
        if tables:
            return tables[-1]
        return None

    def _resolve_column_phrase(
        self,
        phrase: str,
        linker: SchemaLinker,
        main_table: TableSchema,
        request: ParseRequest,
        prefer_types: tuple[ColumnType, ...] = (),
    ) -> tuple[str, str]:
        """Resolve a short phrase to (table, column), with table context.

        Phrases like ``customers segment`` carry their own table; plain
        ``segment`` resolves against the main table first, then any table
        reachable by one FK hop.
        """
        mentions = linker.link(phrase)
        column_mentions = [m for m in mentions if m.kind == "column"]
        table_mentions = [m for m in mentions if m.kind == "table"]

        if column_mentions:
            mention = column_mentions[-1]
            candidates = linker.column_candidates(mention.surface)
            if not candidates:
                candidates = [(mention.table, mention.column or "")]
            # context table named in the phrase wins
            for table_mention in table_mentions:
                for cand_table, cand_col in candidates:
                    if cand_table.lower() == table_mention.table.lower():
                        return cand_table, cand_col
            # else prefer the main table
            for cand_table, cand_col in candidates:
                if cand_table.lower() == main_table.name.lower():
                    return cand_table, cand_col
            # else prefer FK-adjacent tables
            for cand_table, cand_col in candidates:
                if request.schema.foreign_keys_between(
                    main_table.name, cand_table
                ):
                    return cand_table, cand_col
            first = candidates[0]
            return first[0], first[1]

        if self.guess_unlinked:
            guess = _guess_column(main_table, prefer_types)
            if guess is not None:
                return main_table.name, guess.name
        raise NLParseError(f"cannot resolve column phrase {phrase!r}")

    def _resolve_projection(
        self,
        head: str,
        table_phrase: str | None,
        linker: SchemaLinker,
        table: TableSchema,
        request: ParseRequest,
    ) -> list[ColumnRef]:
        match = _PROJECTION_RE.search(head)
        col_region = match.group(1) if match else head
        col_region = _DISTINCT_RE.sub(" ", col_region)
        pieces = _PROJECTION_SPLIT_RE.split(col_region)
        refs: list[ColumnRef] = []
        for piece in pieces:
            piece = piece.strip()
            if not piece:
                continue
            try:
                col_table, col = self._resolve_column_phrase(
                    piece, linker, table, request
                )
            except NLParseError:
                continue
            if col_table.lower() != table.name.lower():
                refs.append(
                    ColumnRef(column=col.lower(), table=col_table.lower())
                )
            else:
                refs.append(ColumnRef(column=col.lower()))
        if not refs:
            if self.guess_unlinked:
                guess = _name_column(table)
                refs.append(ColumnRef(column=guess.name.lower()))
            else:
                raise NLParseError(f"no projection columns in {head!r}")
        # drop duplicates while preserving order
        unique: list[ColumnRef] = []
        for ref in refs:
            if ref not in unique:
                unique.append(ref)
        return unique

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------
    def _parse_conditions(
        self,
        text: str,
        linker: SchemaLinker,
        table: TableSchema,
        request: ParseRequest,
    ) -> tuple:
        joins: list[str] = []
        # protect the AND inside "between X and Y" from the conjunct split
        masked = _BETWEEN_AND_RE.sub(r"\1 __between_and__", text)
        conjuncts = _CONJUNCT_RE.split(masked)
        exprs = []
        for conjunct in conjuncts:
            conjunct = conjunct.replace("__between_and__", "and")
            conjunct = conjunct.strip().rstrip("?,. ")
            if not conjunct:
                continue
            expr, join_table = self._parse_condition(
                conjunct, linker, table, request
            )
            exprs.append(expr)
            if join_table is not None:
                joins.append(join_table)
        if not exprs:
            raise NLParseError(f"no conditions parsed from {text!r}")
        where = exprs[0]
        for expr in exprs[1:]:
            where = BinaryOp(op="and", left=where, right=expr)
        return where, joins

    def _parse_condition(
        self,
        text: str,
        linker: SchemaLinker,
        table: TableSchema,
        request: ParseRequest,
    ) -> tuple:
        # "are" is a reverse-translation artifact of "is" in several
        # languages; normalize before matching op phrases
        text = _ARE_RE.sub("is", text)
        # LIKE
        match = _LIKE_RE.search(text)
        if match:
            ref, join_table = self._condition_column(
                match.group(1), linker, table, request,
                prefer_types=(ColumnType.TEXT,),
            )
            return (
                Like(expr=ref, pattern=Literal(f"%{match.group(2)}%")),
                join_table,
            )

        # BETWEEN
        match = _BETWEEN_RE.search(text) or _RANGE_RE.search(text)
        if match:
            ref, join_table = self._condition_column(
                match.group(1), linker, table, request,
                prefer_types=(ColumnType.NUMBER,),
            )
            return (
                Between(
                    expr=ref,
                    low=Literal(_parse_value(match.group(2))),
                    high=Literal(_parse_value(match.group(3))),
                ),
                join_table,
            )

        # compare against the table average
        match = _VERSUS_AVG_RE.search(text)
        if match:
            ref, join_table = self._condition_column(
                match.group(1), linker, table, request,
                prefer_types=(ColumnType.NUMBER,),
            )
            inner_table = (ref.table or table.name).lower()
            inner = Select(
                items=(
                    SelectItem(
                        expr=FuncCall(
                            name="avg",
                            args=(ColumnRef(column=ref.column),),
                        )
                    ),
                ),
                from_=TableRef(name=inner_table),
            )
            op = ">" if match.group(2).lower() == "above" else "<"
            return (
                BinaryOp(op=op, left=ref, right=ScalarSubquery(query=inner)),
                join_table,
            )

        # plain comparison: find the longest matching op phrase
        lowered = text.lower()
        for phrase, pattern in _OP_PATTERNS:
            found = pattern.search(lowered)
            if found is None:
                continue
            index = found.start()
            col_part = text[:index].strip()
            val_part = text[index + len(phrase):].strip().rstrip("?,. ")
            if not val_part:
                continue
            op = _OP_PHRASES[phrase]
            ref, join_table = self._condition_column(
                col_part, linker, table, request
            )
            value = _parse_value(val_part)
            if isinstance(value, str) and request.db is not None:
                table_name = ref.table or table.name
                restored = _restore_value_case(
                    value, table_name, ref.column, request.db
                )
                log = _LOG.lookups
                if log is not None:
                    log.append((table_name, ref.column, value, restored))
                value = restored
            return (BinaryOp(op=op, left=ref, right=Literal(value)), join_table)

        raise NLParseError(f"cannot parse condition {text!r}")

    def _condition_column(
        self,
        phrase: str,
        linker: SchemaLinker,
        table: TableSchema,
        request: ParseRequest,
        prefer_types: tuple[ColumnType, ...] = (),
    ) -> tuple[ColumnRef, str | None]:
        col_table, col = self._resolve_column_phrase(
            phrase, linker, table, request, prefer_types
        )
        if col_table.lower() != table.name.lower():
            return (
                ColumnRef(column=col.lower(), table=col_table.lower()),
                col_table,
            )
        return ColumnRef(column=col.lower()), None

    def _build_nested(
        self,
        clauses: _Clauses,
        linker: SchemaLinker,
        parent: TableSchema,
        request: ParseRequest,
    ):
        child_name = self._resolve_table(clauses.nested_table or "", linker)
        if child_name is None:
            raise NLParseError(
                f"cannot resolve nested table {clauses.nested_table!r}"
            )
        child = request.schema.table(child_name)
        fks = request.schema.foreign_keys_between(parent.name, child.name)
        if not fks:
            raise NLParseError(
                f"no FK between {parent.name!r} and {child.name!r}"
            )
        fk = fks[0]
        # orient the FK: child side holds the referencing column
        if fk.table.lower() == child.name.lower():
            child_col, parent_col = fk.column, fk.ref_column
        else:
            child_col, parent_col = fk.ref_column, fk.column
        inner_where, _ = self._parse_conditions(
            clauses.nested_conditions or "", linker, child, request
        )
        inner = Select(
            items=(SelectItem(expr=ColumnRef(column=child_col.lower())),),
            from_=TableRef(name=child.name.lower()),
            where=inner_where,
        )
        return InSubquery(
            expr=ColumnRef(column=parent_col.lower()), query=inner
        )

    # ------------------------------------------------------------------
    # follow-ups (multi-turn)
    # ------------------------------------------------------------------
    def _try_followup(
        self, question: str, request: ParseRequest, linker: SchemaLinker
    ) -> Query | None:
        previous = request.history[-1][1]
        if not isinstance(previous, Select):
            return None
        text = question.strip().rstrip("?").strip()
        text = _FOLLOWUP_LEAD_RE.sub("", text)

        if _COUNT_THEM_RE.fullmatch(text):
            return dc_replace(
                previous,
                items=(
                    SelectItem(expr=FuncCall(name="count", args=(Star(),))),
                ),
                order_by=(),
                limit=None,
            )

        match = _KEEP_ONLY_RE.match(text)
        if match:
            table = self._main_table_of(previous, request.schema)
            condition, _ = self._parse_conditions(
                match.group(1), linker, table, request
            )
            where = (
                condition
                if previous.where is None
                else BinaryOp(op="and", left=previous.where, right=condition)
            )
            return dc_replace(previous, where=where)

        match = _SHOW_ONLY_RE.match(text)
        if match:
            table = self._main_table_of(previous, request.schema)
            col_table, col = self._resolve_column_phrase(
                match.group(3), linker, table, request,
                prefer_types=(ColumnType.NUMBER,),
            )
            ref = ColumnRef(column=col.lower())
            items = previous.items
            if not any(
                isinstance(i.expr, ColumnRef) and i.expr.column == ref.column
                for i in items
            ):
                items = items + (SelectItem(expr=ref),)
            return dc_replace(
                previous,
                items=items,
                order_by=(
                    OrderItem(
                        expr=ref,
                        descending=match.group(2).lower() == "highest",
                    ),
                ),
                limit=int(match.group(1)),
            )

        match = _SHOW_THEIR_RE.match(text)
        if match:
            table = self._main_table_of(previous, request.schema)
            col_table, col = self._resolve_column_phrase(
                match.group(1), linker, table, request
            )
            return dc_replace(
                previous,
                items=(SelectItem(expr=ColumnRef(column=col.lower())),),
            )
        return None

    def _main_table_of(self, select: Select, schema: Schema) -> TableSchema:
        from repro.sql.ast import from_tables

        tables = from_tables(select.from_)
        if not tables:
            raise NLParseError("previous query has no FROM table")
        return schema.table(tables[0].name)

    # ------------------------------------------------------------------
    # knowledge grounding
    # ------------------------------------------------------------------
    def _apply_knowledge(
        self, question: str, knowledge: str, linker: SchemaLinker
    ) -> tuple[str, BinaryOp | None]:
        match = _KNOWLEDGE_RE.match(knowledge.strip())
        if not match:
            return question, None
        alias = match.group("alias").strip()
        cond_text = match.group("cond").strip()
        table_name = self._resolve_table(match.group("table"), linker)
        if table_name is None:
            return question, None
        replacement = match.group("table").strip()
        if alias.lower() not in question.lower():
            # alias adjective alone may appear ("premium" vs "premium
            # products"); try the first word
            adjective = alias.split()[0].lower()
            if adjective not in question.lower():
                return question, None
            alias = adjective
            replacement = ""
        # rewrite the alias to the plain table noun so the head parses
        rewritten = re.sub(
            re.escape(alias), replacement, question, flags=re.IGNORECASE
        )
        rewritten = " ".join(rewritten.split())
        schema_table = linker.schema.table(table_name)
        try:
            condition, _ = self._parse_conditions(
                cond_text, linker, schema_table, ParseRequest(
                    question=question, schema=linker.schema
                )
            )
        except NLParseError:
            return question, None
        return rewritten, condition


class _Qualifier:
    """Rewrites unqualified column refs to carry an explicit table."""

    def __init__(self, table: str) -> None:
        self.table = table

    def __call__(self, expr):
        if isinstance(expr, ColumnRef) and expr.table is None:
            return ColumnRef(column=expr.column, table=self.table)
        if isinstance(expr, FuncCall):
            return FuncCall(
                name=expr.name,
                args=tuple(self(a) for a in expr.args),
                distinct=expr.distinct,
            )
        if isinstance(expr, BinaryOp):
            return BinaryOp(op=expr.op, left=self(expr.left),
                            right=self(expr.right))
        if isinstance(expr, Between):
            return Between(expr=self(expr.expr), low=self(expr.low),
                           high=self(expr.high), negated=expr.negated)
        if isinstance(expr, Like):
            return Like(expr=self(expr.expr), pattern=expr.pattern,
                        negated=expr.negated)
        if isinstance(expr, InSubquery):
            return InSubquery(expr=self(expr.expr), query=expr.query,
                              negated=expr.negated)
        return expr


# ----------------------------------------------------------------------
# clause-extraction helpers (module level, regex based)
# ----------------------------------------------------------------------
def _strip_opener(text: str) -> str:
    lowered = text.lower()
    for opener in _OPENERS:
        if lowered.startswith(opener + " "):
            return text[len(opener):].strip()
    return text


_HAVING_RE = re.compile(
    r",?\s*considering only groups with at least (\d+) entries",
    re.IGNORECASE,
)


def _extract_having(text: str) -> tuple[str, int | None]:
    match = _HAVING_RE.search(text)
    if not match:
        return text, None
    return _cut(text, match), int(match.group(1))


_GROUP_RE = re.compile(
    r"\b(?:for each|per|grouped by|broken down by)\s+"
    r"(.+?)(?=,|\?|$|\s+whose\b|\s+sorted\b|\s+ordered\b|\s+in\s+(?:ascending|descending)|\s+considering\b)",
    flags=re.IGNORECASE,
)


def _extract_group(text: str) -> tuple[str, str | None]:
    match = _GROUP_RE.search(text)
    if not match:
        return text, None
    return _cut(text, match), match.group(1).strip()


_ORDER_PATTERNS: tuple[tuple[re.Pattern, bool], ...] = tuple(
    (re.compile(pattern, re.IGNORECASE), descending)
    for pattern, descending in (
        (r"in (ascending) order of\s+(.+?)(?=,|\?|$)", False),
        (r"in (descending) order of\s+(.+?)(?=,|\?|$)", True),
        (r"sorted by\s+(.+?) from (high to low)", True),
        (r"sorted by\s+(.+?) from (low to high)", False),
        (r"ordered by decreasing\s+(.+?)(?=,|\?|$)", True),
        (r"ordered by\s+(.+?) from (low to high)", False),
        (r"sorted by\s+(.+?)(?=,|\?|$)", False),
    )
)


def _extract_order(text: str) -> tuple[str, str | None, bool]:
    for pattern, descending in _ORDER_PATTERNS:
        match = pattern.search(text)
        if match:
            groups = match.groups()
            column_phrase = groups[1] if len(groups) > 1 and groups[0] in (
                "ascending", "descending"
            ) else groups[0]
            return _cut(text, match), column_phrase.strip(), bool(descending)
    return text, None, False


_SUPERLATIVE_RE = re.compile(
    r"with the (highest|largest|greatest|most|lowest|smallest|least)\s+"
    r"(.+?)(?=,|\?|$)",
    flags=re.IGNORECASE,
)


def _extract_superlative(text: str) -> tuple[str, str | None, bool]:
    match = _SUPERLATIVE_RE.search(text)
    if not match:
        return text, None, True
    descending = match.group(1).lower() in (
        "highest", "largest", "greatest", "most"
    )
    return _cut(text, match), match.group(2).strip(), descending


_TOPN_RE = re.compile(r"\bthe (top|bottom) (\d+)\b", flags=re.IGNORECASE)


def _extract_topn(text: str) -> tuple[str, int | None, bool]:
    match = _TOPN_RE.search(text)
    if not match:
        return text, None, True
    descending = match.group(1).lower() == "top"
    out = text[: match.start()] + " the " + text[match.end():]
    return " ".join(out.split()), int(match.group(2)), descending


_COUNT_HEAD_RE = re.compile(
    r"\b(?:(?:the\s+)?number of|how many|(?:the\s+)?count of)\s+(.+)$"
)
_AGG_HEAD_RE = re.compile(
    r"\b(?:the\s+)?(average|mean|typical|total|combined|minimum|lowest"
    r"|smallest|maximum|highest|largest)\s+(.+?)\s+(?:of|for)\s+(.+)$",
    re.IGNORECASE,
)
_SUM_HEAD_RE = re.compile(
    r"\b(?:the\s+)?sum of\s+(.+?)\s+for\s+(.+)$", re.IGNORECASE
)


def _extract_head_agg(head: str) -> tuple[str | None, str | None, str | None]:
    """Detect an aggregate cue in the head.

    Returns (agg, column_phrase, table_phrase); all None when the head is a
    plain projection.
    """
    count_match = _COUNT_HEAD_RE.search(head.lower())
    if count_match:
        return "count", None, head[count_match.start(1):].strip()

    match = _AGG_HEAD_RE.search(head)
    if match:
        cue = match.group(1).lower()
        agg = dict(_AGG_CUES).get(cue)
        if agg is None:
            agg = {"total": "sum", "combined": "sum"}.get(cue)
        return agg, match.group(2).strip(), match.group(3).strip()

    match = _SUM_HEAD_RE.search(head)
    if match:
        return "sum", match.group(1).strip(), match.group(2).strip()
    return None, None, None


def _cut(text: str, match: re.Match) -> str:
    out = text[: match.start()] + " " + text[match.end():]
    return " ".join(out.split())


def _parse_value(text: str) -> Value:
    text = text.strip().strip("'\"")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_result(query: Query | None, notes: str) -> ParseResult:
    if query is None:
        return ParseResult(query=None, notes=notes)
    return ParseResult(query=query, candidates=[query], confidence=0.9)


def _lookups_hold(lookups: tuple, db: Database | None) -> bool:
    """Whether every recorded lookup answers the same against *db*."""
    for table_name, column, value, answer in lookups:
        if _restore_value_case(value, table_name, column, db) != answer:
            return False
    return True


def _restore_value_case(
    value: str, table_name: str, column: str, db: Database
) -> str:
    """Recover a stored value's canonical casing from database content:
    the first value of *table_name*.*column* equal to *value* ignoring
    case, else *value*.  This is the parse's only read of database rows;
    the memo re-runs it to validate an entry."""
    try:
        table = db.table(table_name)
    except Exception:
        return value
    try:
        first_match = first_match_map(table, column)
    except AnalysisError:  # no such column
        return value
    return first_match.get(value.lower(), value)


def _guess_column(
    table: TableSchema, prefer_types: tuple[ColumnType, ...]
) -> Column | None:
    candidates = [
        c
        for c in table.columns
        if not c.name.lower().endswith("id") and c.name.lower() != "id"
    ]
    if prefer_types:
        typed = [c for c in candidates if c.type in prefer_types]
        if typed:
            return typed[0]
    return candidates[0] if candidates else None


def _name_column(table: TableSchema) -> Column:
    for column in table.columns:
        if column.name.lower() in ("name", "title"):
            return column
    for column in table.columns:
        if column.type is ColumnType.TEXT:
            return column
    return table.columns[0]
