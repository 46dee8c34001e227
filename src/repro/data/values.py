"""Value domain shared by the data model and the SQL executor.

SQL values in this library are Python ``None`` (NULL), ``bool``, ``int``,
``float``, and ``str``.  This module centralizes the comparison and coercion
rules so the executor, metrics, and generators agree exactly — including the
SQL convention that any comparison involving NULL is unknown.
"""

from __future__ import annotations

from itertools import repeat
from math import inf, isnan
from typing import Sequence, Union

Value = Union[None, bool, int, float, str]

#: Total order over type families used only for deterministic ORDER BY of
#: mixed-type columns: NULLs first, then numbers, then text.
_TYPE_RANK = {"null": 0, "number": 1, "text": 2}


def value_type_of(value: Value) -> str:
    """Classify *value* into the families ``null``, ``number``, or ``text``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "number"
    if isinstance(value, (int, float)):
        return "number"
    return "text"


def looks_temporal(value: Value) -> bool:
    """Whether *value* is an ISO-8601 date string (``YYYY-MM-DD``).

    The single temporal-detection rule shared by the runtime spec compiler
    (:func:`repro.vis.spec.field_type`) and the static output-schema typer
    (:mod:`repro.sql.typer`), so static and runtime temporal classification
    cannot drift.
    """
    if not isinstance(value, str) or len(value) != 10:
        return False
    return value[4] == "-" and value[7] == "-" and value[:4].isdigit()


def compare_values(left: Value, right: Value) -> int | None:
    """Three-valued SQL comparison.

    Returns a negative/zero/positive int like :func:`cmp`, or ``None`` when
    either side is NULL (SQL's *unknown*).  Numbers compare numerically,
    strings lexicographically; comparing a number to a string compares their
    type ranks, which keeps the ordering total and deterministic.
    """
    # exact-type fast path; bools, subclasses and foreign types take the
    # general rules below
    ltype = type(left)
    rtype = type(right)
    if ltype is str:
        if rtype is str:
            return 0 if left == right else (-1 if left < right else 1)
        if rtype is int or rtype is float:
            return 1
    elif ltype is int or ltype is float:
        if rtype is int or rtype is float:
            return 0 if left == right else (-1 if left < right else 1)
        if rtype is str:
            return -1
    if left is None or right is None:
        return None
    lrank = _TYPE_RANK[value_type_of(left)]
    rrank = _TYPE_RANK[value_type_of(right)]
    if lrank != rrank:
        return -1 if lrank < rrank else 1
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if left == right:
        return 0
    return -1 if left < right else 1  # type: ignore[operator]


def sort_key(value: Value) -> tuple[int, float | str]:
    """Key usable with :func:`sorted` that matches :func:`compare_values`.

    NULLs sort first (SQL ``NULLS FIRST`` behaviour of SQLite's default
    ascending order), then numbers, then text.
    """
    kind = type(value)
    if kind is str:
        return (2, value)
    if kind is int or kind is float:
        return (1, float(value))
    family = value_type_of(value)
    if family == "null":
        return (0, 0.0)
    if family == "number":
        return (1, float(value))  # type: ignore[arg-type]
    return (2, str(value))


# ----------------------------------------------------------------------
# typed value order
#
# Every consumer that orders or folds many values at once (the compiled
# engines' ORDER BY, MIN/MAX and SUM/AVG, sorted indexes, column
# statistics) goes through the helpers below.  They produce exactly what
# sorting by :func:`sort_key` produces, but when the values are NULLs
# plus one family -- numbers compared as plain floats, or text compared
# as plain strs -- no key tuple is formed per value.  Anything else
# falls back to :func:`sort_key` itself: numbers mixed with text, a NaN
# (not totally ordered), a real value equal to the NULL stand-in, or a
# value that is not exactly one of ``None``/``bool``/``int``/``float``/
# ``str`` (a subclass or a foreign type).  :func:`sorted_families`
# alone also takes numbers mixed with text, one sorted list per family.
# ----------------------------------------------------------------------
_NONE_TYPE = type(None)
#: the exact types whose sort key is ``(1, float(value))``
_NUMBER_TYPES = frozenset({int, float, bool})
_INT_FLOAT = frozenset({int, float})
_TEXT_TYPES = frozenset({str})
_NON_NULL_TYPES = _NUMBER_TYPES | _TEXT_TYPES
_NULL_KEY = (0, 0.0)
#: ``.get(v, v)``: NULL as the least number, or as the least string
_NULL_AS_NEG_INF = {None: -inf}.get
_NULL_AS_EMPTY = {None: ""}.get


def sorted_families(
    values: Sequence[Value],
) -> tuple[int, list[float], list[str]] | None:
    """``(NULL count, numbers as sorted floats, texts as sorted strs)``:
    the non-NULL values in :func:`sort_key` order, one list per family.

    ``None`` when the typed path does not apply (see above).
    """
    kinds = set(map(type, values))
    nulls = 0
    non_null = values
    if _NONE_TYPE in kinds:
        kinds.discard(_NONE_TYPE)
        non_null = [v for v in values if v is not None]
        nulls = len(values) - len(non_null)
    if kinds <= _NUMBER_TYPES:
        numbers = sorted(map(float, non_null))
        texts: list[str] = []
    elif kinds == _TEXT_TYPES:
        numbers = []
        texts = sorted(non_null)  # type: ignore[arg-type]
    elif kinds <= _NON_NULL_TYPES:
        numbers = sorted([float(v) for v in non_null if type(v) is not str])
        texts = sorted([v for v in non_null if type(v) is str])
    else:
        return None
    if float in kinds and any(map(isnan, numbers)):
        return None
    return nulls, numbers, texts


def _family_positions(
    values: Sequence[Value], descending: bool
) -> tuple[list[int], list[int]] | None:
    """``(NULL positions, value positions)`` of *values*, each in stable
    ascending (or stable descending) order, when the non-NULL values are
    all numbers or all text; ``None`` when the typed path does not
    apply."""
    kinds = set(map(type, values))
    nulls = values.count(None) if _NONE_TYPE in kinds else 0
    family = kinds - {_NONE_TYPE}
    if family <= _NUMBER_TYPES:
        least: float | str = -inf
        keys = list(map(float, map(_NULL_AS_NEG_INF, values, values)
                        if nulls else values))
        if float in kinds and any(map(isnan, keys)):
            return None
    elif family == _TEXT_TYPES:
        least = ""
        keys = list(map(_NULL_AS_EMPTY, values, values)) if nulls else values
    else:
        return None
    # each NULL stands in as the family's least value, so a stable sort
    # puts the NULLs first (last when descending) in position order --
    # unless a real value ties with the stand-in
    if nulls and keys.count(least) != nulls:
        return None
    count = len(values)
    order = sorted(range(count), key=keys.__getitem__, reverse=descending)
    if descending:
        return order[count - nulls:], order[:count - nulls]
    return order[:nulls], order[nulls:]


def order_positions(
    values: Sequence[Value], descending: bool = False
) -> list[int]:
    """Positions of *values* in stable :func:`sort_key` order.

    Exactly ``sorted(range(len(values)), key=lambda i:
    sort_key(values[i]), reverse=descending)``: equal values keep their
    original order in both directions.  One pass of a multi-key ORDER BY.
    """
    families = _family_positions(values, descending)
    if families is None:
        keys = list(map(sort_key, values))
        return sorted(
            range(len(keys)), key=keys.__getitem__, reverse=descending
        )
    nulls, present = families
    if descending:
        return present + nulls
    return nulls + present


def index_order(values: Sequence[Value]) -> tuple[list[int], list[tuple]]:
    """``(positions, keys)``: the positions of *values* in ascending
    :func:`sort_key` order, ties in position order, and the
    :func:`sort_key` of each value in that order.

    Equal to sorting ``(sort_key(value), position)`` pairs, which is
    also what the fallback does.
    """
    families = _family_positions(values, False)
    if families is None:
        decorated = sorted(zip(map(sort_key, values), range(len(values))))
        return [pos for _key, pos in decorated], [key for key, _pos in decorated]
    nulls, present = families
    keys: list[tuple] = [_NULL_KEY] * len(nulls)
    if present and type(values[present[0]]) is str:
        keys += zip(repeat(2), map(values.__getitem__, present))
    else:
        keys += zip(repeat(1), map(float, map(values.__getitem__, present)))
    return nulls + present, keys


def _fold_extreme(values: Sequence[Value], largest: bool) -> Value:
    fold = max if largest else min
    kinds = set(map(type, values))
    if kinds == _TEXT_TYPES:
        return fold(values)  # type: ignore[type-var]
    if kinds and kinds <= _NUMBER_TYPES:
        floats = list(map(float, values))
        if float not in kinds or not any(map(isnan, floats)):
            # the first value whose float is extreme, as a keyed fold
            # returns the first of equal keys
            return values[floats.index(fold(floats))]
    return fold(values, key=sort_key)


def min_value(values: Sequence[Value]) -> Value:
    """``min(values, key=sort_key)``: the first of the smallest values."""
    return _fold_extreme(values, False)


def max_value(values: Sequence[Value]) -> Value:
    """``max(values, key=sort_key)``: the first of the largest values."""
    return _fold_extreme(values, True)


def sum_operands(values: Sequence[Value]) -> Sequence[Value] | None:
    """The operands SUM and AVG add: *values* with each ``bool`` as a
    ``float``, or ``None`` when some value is not a number."""
    kinds = set(map(type, values))
    if kinds <= _INT_FLOAT:
        return values
    if kinds <= _NUMBER_TYPES:
        return [float(v) if type(v) is bool else v for v in values]
    numbers = [float(v) if isinstance(v, bool) else v for v in values]
    if all(isinstance(v, (int, float)) for v in numbers):
        return numbers
    return None


def coerce_value(text: str | None) -> Value:
    """Parse a CSV/text cell into the closest typed value.

    Empty strings and the literal ``NULL`` become ``None``; otherwise an int,
    then float, then the original string is attempted, in that order.
    """
    if text is None:
        return None
    stripped = text.strip()
    if stripped == "" or stripped.upper() == "NULL":
        return None
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return text


def render_value(value: Value) -> str:
    """Render a value for CSV output; inverse of :func:`coerce_value`."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)
