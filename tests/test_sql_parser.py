"""Unit tests for the SQL parser."""

import pytest

from repro.errors import ParseError
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
    ScalarSubquery,
    Select,
    SetOperation,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.parser import parse_sql


class TestProjection:
    def test_select_star(self):
        query = parse_sql("SELECT * FROM t")
        assert isinstance(query.items[0].expr, Star)
        assert query.from_ == TableRef(name="t")

    def test_qualified_star(self):
        query = parse_sql("SELECT t.* FROM t")
        assert query.items[0].expr == Star(table="t")

    def test_multiple_columns(self):
        query = parse_sql("SELECT a, b, c FROM t")
        assert [i.expr.column for i in query.items] == ["a", "b", "c"]

    def test_alias_with_as(self):
        query = parse_sql("SELECT a AS x FROM t")
        assert query.items[0].alias == "x"

    def test_alias_without_as(self):
        query = parse_sql("SELECT a x FROM t")
        assert query.items[0].alias == "x"

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct
        assert not parse_sql("SELECT ALL a FROM t").distinct

    def test_select_without_from(self):
        query = parse_sql("SELECT 1 + 1")
        assert query.from_ is None
        assert query.items[0].expr == BinaryOp("+", Literal(1), Literal(1))


class TestAggregatesAndFunctions:
    def test_count_star(self):
        query = parse_sql("SELECT COUNT(*) FROM t")
        expr = query.items[0].expr
        assert expr == FuncCall(name="count", args=(Star(),))

    def test_count_distinct(self):
        expr = parse_sql("SELECT COUNT(DISTINCT a) FROM t").items[0].expr
        assert expr.distinct and expr.args == (ColumnRef("a"),)

    def test_avg(self):
        expr = parse_sql("SELECT AVG(price) FROM t").items[0].expr
        assert expr.name == "avg" and expr.is_aggregate

    def test_non_keyword_function(self):
        expr = parse_sql("SELECT upper(name) FROM t").items[0].expr
        assert expr == FuncCall(name="upper", args=(ColumnRef("name"),))


class TestWhere:
    def test_comparison(self):
        where = parse_sql("SELECT a FROM t WHERE a > 5").where
        assert where == BinaryOp(">", ColumnRef("a"), Literal(5))

    def test_and_or_precedence(self):
        where = parse_sql("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").where
        # AND binds tighter: a=1 OR (b=2 AND c=3)
        assert where.op == "or"
        assert where.right.op == "and"

    def test_not(self):
        where = parse_sql("SELECT a FROM t WHERE NOT a = 1").where
        assert isinstance(where, UnaryOp) and where.op == "not"

    def test_in_list(self):
        where = parse_sql("SELECT a FROM t WHERE a IN (1, 2, 3)").where
        assert where == InList(
            expr=ColumnRef("a"),
            items=(Literal(1), Literal(2), Literal(3)),
        )

    def test_not_in(self):
        where = parse_sql("SELECT a FROM t WHERE a NOT IN (1)").where
        assert where.negated

    def test_in_subquery(self):
        where = parse_sql(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u)"
        ).where
        assert isinstance(where, InSubquery)
        assert isinstance(where.query, Select)

    def test_like(self):
        where = parse_sql("SELECT a FROM t WHERE a LIKE '%x%'").where
        assert where == Like(expr=ColumnRef("a"), pattern=Literal("%x%"))

    def test_not_like(self):
        assert parse_sql("SELECT a FROM t WHERE a NOT LIKE 'x'").where.negated

    def test_between(self):
        where = parse_sql("SELECT a FROM t WHERE a BETWEEN 1 AND 5").where
        assert where == Between(
            expr=ColumnRef("a"), low=Literal(1), high=Literal(5)
        )

    def test_is_null_and_not_null(self):
        assert parse_sql("SELECT a FROM t WHERE a IS NULL").where == IsNull(
            expr=ColumnRef("a")
        )
        assert parse_sql("SELECT a FROM t WHERE a IS NOT NULL").where.negated

    def test_exists(self):
        where = parse_sql(
            "SELECT a FROM t WHERE EXISTS (SELECT * FROM u)"
        ).where
        assert isinstance(where, Exists)

    def test_scalar_subquery_comparison(self):
        where = parse_sql(
            "SELECT a FROM t WHERE a > (SELECT AVG(a) FROM t)"
        ).where
        assert isinstance(where.right, ScalarSubquery)

    def test_arithmetic_precedence(self):
        expr = parse_sql("SELECT 1 + 2 * 3").items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parenthesized_arithmetic(self):
        expr = parse_sql("SELECT (1 + 2) * 3").items[0].expr
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus_folds_literal(self):
        assert parse_sql("SELECT -5").items[0].expr == Literal(-5)


class TestJoins:
    def test_inner_join_on(self):
        query = parse_sql(
            "SELECT a FROM t JOIN u ON t.id = u.tid"
        )
        join = query.from_
        assert isinstance(join, Join) and join.kind == "inner"
        assert join.condition is not None

    def test_left_join(self):
        join = parse_sql("SELECT a FROM t LEFT JOIN u ON t.i = u.i").from_
        assert join.kind == "left"

    def test_left_outer_join(self):
        join = parse_sql(
            "SELECT a FROM t LEFT OUTER JOIN u ON t.i = u.i"
        ).from_
        assert join.kind == "left"

    def test_comma_join(self):
        join = parse_sql("SELECT a FROM t, u").from_
        assert isinstance(join, Join) and join.condition is None

    def test_table_alias(self):
        query = parse_sql("SELECT p.a FROM products AS p")
        assert query.from_ == TableRef(name="products", alias="p")

    def test_chained_joins(self):
        query = parse_sql(
            "SELECT a FROM t JOIN u ON t.i = u.i JOIN v ON u.j = v.j"
        )
        outer = query.from_
        assert outer.right.name == "v"
        assert outer.left.right.name == "u"


class TestClauses:
    def test_group_by_having(self):
        query = parse_sql(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        )
        assert query.group_by == (ColumnRef("a"),)
        assert query.having is not None

    def test_order_by_directions(self):
        query = parse_sql("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in query.order_by] == [True, False, False]

    def test_limit(self):
        assert parse_sql("SELECT a FROM t LIMIT 5").limit == 5

    def test_trailing_semicolon(self):
        assert parse_sql("SELECT a FROM t;").limit is None


class TestSetOperations:
    def test_union(self):
        query = parse_sql("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(query, SetOperation) and query.op == "union"

    def test_union_all(self):
        query = parse_sql("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert query.op == "union all"

    def test_intersect_except(self):
        assert parse_sql("SELECT a FROM t INTERSECT SELECT a FROM u").op == (
            "intersect"
        )
        assert parse_sql("SELECT a FROM t EXCEPT SELECT a FROM u").op == (
            "except"
        )

    def test_left_associative_chain(self):
        query = parse_sql(
            "SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM v"
        )
        assert query.op == "except"
        assert query.left.op == "union"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "SELECT FROM t",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t GROUP a",
            "SELECT a FROM t LIMIT x",
            "SELECT a FROM t ORDER a",
            "SELECT a FROM t WHERE a NOT 5",
            "SELECT a FROM t trailing junk (",
            "FROM t SELECT a",
        ],
    )
    def test_malformed_queries_raise(self, bad):
        with pytest.raises(ParseError):
            parse_sql(bad)

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t LIMIT 'five'")


class TestValueKeys:
    """ASTs are cache keys by value: equal programs hash equal, typed
    literals do not, and the cached query hash never leaves the process."""

    SQL = (
        "SELECT name FROM products WHERE price > 1 "
        "UNION SELECT name FROM products WHERE id IN (SELECT 1)"
    )

    def test_equal_parses_are_equal_keys(self):
        first, second = parse_sql(self.SQL), parse_sql(self.SQL)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    @pytest.mark.parametrize("a, b", [("1", "1.0"), ("1", "TRUE"),
                                      ("0", "FALSE"), ("0.0", "FALSE")])
    def test_typed_literals_are_distinct_keys(self, a, b):
        left = parse_sql(f"SELECT {a} FROM t")
        right = parse_sql(f"SELECT {b} FROM t")
        assert left != right
        assert len({left, right}) == 2

    def test_cached_hash_is_not_pickled_or_copied(self):
        import copy
        import dataclasses
        import pickle

        query = parse_sql(self.SQL)
        unhashed = pickle.dumps(query)
        hash(query)  # caches it
        # string hashes differ between processes: the cache must not ship
        assert pickle.dumps(query) == unhashed
        for clone in (pickle.loads(pickle.dumps(query)),
                      copy.deepcopy(query)):
            assert clone == query and hash(clone) == hash(query)
        limited = dataclasses.replace(query.left, limit=3)
        assert hash(limited) == hash(parse_sql(
            "SELECT name FROM products WHERE price > 1 LIMIT 3"
        ))
