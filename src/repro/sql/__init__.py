"""SQL substrate: a from-scratch SQL subset engine.

This package implements the execution substrate every surveyed Text-to-SQL
approach depends on: a lexer, a recursive-descent parser producing a typed
AST, an unparser back to canonical SQL text, a schema-aware analyzer, an
in-memory execution engine with SQL NULL semantics (a compiling planner in
:mod:`repro.sql.plan` plus the reference tree-walking interpreter it is
differentially tested against), a normalizer, and the Spider-style
component decomposition used by the exact-set-match metric.

The supported dialect is the Spider SQL subset: ``SELECT`` (with ``DISTINCT``
and arithmetic/aggregate expressions), ``FROM`` with inner/left joins,
``WHERE`` with three-valued boolean logic, ``IN``/``LIKE``/``BETWEEN``/
``IS NULL``/``EXISTS`` predicates and nested subqueries, ``GROUP BY`` /
``HAVING``, ``ORDER BY`` / ``LIMIT``, and the set operations ``UNION`` /
``UNION ALL`` / ``INTERSECT`` / ``EXCEPT``.
"""

from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Exists,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
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
    UnaryOp,
)
from repro.sql.components import classify_hardness, decompose
from repro.sql.executor import execute, execute_reference
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.lint import (
    Diagnostic,
    LineageGraph,
    LintReport,
    Severity,
    build_lineage,
    lint_query,
    lint_sql,
)
from repro.sql.normalize import normalize_sql
from repro.sql.parser import parse_sql
from repro.sql.rescache import (
    cached_execute,
    clear_result_cache,
    configure_result_cache,
    database_state_token,
    execute_or_error,
    rescache_stats,
)
from repro.sql.typer import (
    ColType,
    OutputColumn,
    ResultSchema,
    infer_expr_type,
    infer_output_schema,
)
from repro.sql.plan import (
    CompiledPlan,
    PlanNode,
    clear_plan_caches,
    compile_query,
    compile_sql,
    configure_caches,
    explain,
    parse_cache_stats,
    parse_sql_cached,
    plan_cache_stats,
    plan_for,
)
from repro.sql.unparser import to_sql

__all__ = [
    "Between",
    "BinaryOp",
    "ColType",
    "ColumnRef",
    "CompiledPlan",
    "Diagnostic",
    "Exists",
    "FuncCall",
    "InList",
    "InSubquery",
    "IsNull",
    "Join",
    "Like",
    "LineageGraph",
    "LintReport",
    "Literal",
    "OrderItem",
    "OutputColumn",
    "PlanNode",
    "Query",
    "ResultSchema",
    "ScalarSubquery",
    "Select",
    "SelectItem",
    "SetOperation",
    "Severity",
    "Star",
    "TableRef",
    "Token",
    "TokenType",
    "UnaryOp",
    "build_lineage",
    "cached_execute",
    "classify_hardness",
    "clear_plan_caches",
    "clear_result_cache",
    "compile_query",
    "compile_sql",
    "configure_caches",
    "configure_result_cache",
    "database_state_token",
    "decompose",
    "execute",
    "execute_or_error",
    "execute_reference",
    "explain",
    "infer_expr_type",
    "infer_output_schema",
    "lint_query",
    "lint_sql",
    "normalize_sql",
    "parse_cache_stats",
    "parse_sql",
    "parse_sql_cached",
    "plan_cache_stats",
    "plan_for",
    "rescache_stats",
    "to_sql",
    "tokenize",
]
