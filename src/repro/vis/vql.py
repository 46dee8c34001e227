"""The visualization query language (VQL).

Following nvBench's DV query syntax, a VQL program is::

    VISUALIZE <chart-type> <sql-query> [BIN <column> BY <unit>]

where ``chart-type`` is one of BAR, PIE, LINE, SCATTER and the SQL part is
any query of the :mod:`repro.sql` dialect.  The optional BIN clause groups
a temporal column by a calendar unit before charting, mirroring nvBench's
binning directive.

The module provides parsing (:func:`parse_vql`), rendering
(:func:`to_vql`), and normalization (:func:`normalize_vql`) — the latter is
what Text-to-Vis string metrics compare, exactly as the surveyed systems
compare canonicalized DV queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LexError, ParseError, VQLParseError
from repro.sql.ast import Query
from repro.sql.normalize import normalize_query
from repro.sql.plan import parse_sql_cached
from repro.sql.unparser import to_sql

CHART_TYPES: tuple[str, ...] = ("bar", "pie", "line", "scatter")

BIN_UNITS: tuple[str, ...] = ("year", "quarter", "month", "weekday")

#: a trailing ``BIN <column> BY <unit>`` clause — anchored at the end and
#: restricted to bare identifiers, so ``' bin '`` inside a string literal
#: (e.g. ``WHERE name = 'x bin y'``) can never be mistaken for a clause
_BIN_CLAUSE = re.compile(
    r"\s+bin\s+([A-Za-z_][A-Za-z_0-9]*)\s+by\s+([A-Za-z_][A-Za-z_0-9]*)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class VQLQuery:
    """A parsed VQL program."""

    chart_type: str
    query: Query
    bin_column: str | None = None
    bin_unit: str | None = None

    def with_chart(self, chart_type: str) -> "VQLQuery":
        return VQLQuery(
            chart_type=chart_type,
            query=self.query,
            bin_column=self.bin_column,
            bin_unit=self.bin_unit,
        )


def parse_vql(text: str) -> VQLQuery:
    """Parse a VQL program; raise :class:`VQLParseError` on bad input.

    The SQL part goes through the engine's bounded parse cache
    (:func:`repro.sql.plan.parse_sql_cached`), so a repeated program
    shares one frozen ``query`` AST and costs no lexing; bad SQL is
    never cached and raises on every call.
    """
    stripped = text.strip().rstrip(";")
    tokens = stripped.split(None, 2)
    if len(tokens) < 3 or tokens[0].lower() != "visualize":
        raise VQLParseError(
            f"VQL must start with 'VISUALIZE <type> <sql>': {text!r}"
        )
    chart_type = tokens[1].lower()
    if chart_type not in CHART_TYPES:
        raise VQLParseError(f"unknown chart type {tokens[1]!r}")
    remainder = tokens[2]

    bin_column = bin_unit = None
    match = _BIN_CLAUSE.search(remainder)
    if match is not None:
        remainder = remainder[: match.start()]
        bin_column = match.group(1).lower()
        bin_unit = match.group(2).lower()
        if bin_unit not in BIN_UNITS:
            raise VQLParseError(f"unknown BIN unit {match.group(2)!r}")

    try:
        query = parse_sql_cached(remainder)
    except (ParseError, LexError) as exc:
        raise VQLParseError(f"invalid SQL inside VQL: {exc}") from exc
    return VQLQuery(
        chart_type=chart_type,
        query=query,
        bin_column=bin_column,
        bin_unit=bin_unit,
    )


def to_vql(vql: VQLQuery) -> str:
    """Render a :class:`VQLQuery` as canonical VQL text."""
    text = f"VISUALIZE {vql.chart_type.upper()} {to_sql(vql.query)}"
    if vql.bin_column and vql.bin_unit:
        text += f" BIN {vql.bin_column} BY {vql.bin_unit.upper()}"
    return text


def normalize_vql(text: str) -> str:
    """Canonical text of a VQL program (normalizes the SQL part too)."""
    vql = parse_vql(text)
    normalized = VQLQuery(
        chart_type=vql.chart_type,
        query=normalize_query(vql.query),
        bin_column=vql.bin_column,
        bin_unit=vql.bin_unit,
    )
    return to_vql(normalized)
