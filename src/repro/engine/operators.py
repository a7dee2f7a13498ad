"""Executable semantics for the builtin templates.

Each template name maps to an operator — a function taking the activity,
its input flows, and the :class:`EngineContext` — grounding the "LDL
semantics" of the paper's template library in runnable Python.  Custom
templates register their operators the same way (see
``examples/custom_templates.py``).

The implementations deliberately use bag semantics and deterministic
iteration so that two equivalent workflows produce identical target
multisets on identical inputs.
"""

from __future__ import annotations

import operator as _op
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.activity import Activity
from repro.engine.rows import Row, freeze_row
from repro.exceptions import ExecutionError

__all__ = [
    "EngineContext",
    "OperatorRegistry",
    "default_registry",
    "default_scalar_functions",
]

Operator = Callable[[Activity, tuple[list[Row], ...], "EngineContext"], list[Row]]


@dataclass
class EngineContext:
    """External state an execution needs beyond the flows themselves.

    Attributes:
        scalar_functions: named row-wise functions for ``function_apply``
            (e.g. ``dollar_to_euro``).
        lookups: named surrogate-key lookup tables: production key ->
            surrogate; a callable is also accepted.
        references: named reference key sets for ``pk_check`` (the
            warehouse's existing primary keys).
    """

    scalar_functions: dict[str, Callable[..., Any]] = field(default_factory=dict)
    lookups: dict[str, Mapping[Any, Any] | Callable[[Any], Any]] = field(
        default_factory=dict
    )
    references: dict[str, frozenset] = field(default_factory=dict)

    def scalar(self, name: str) -> Callable[..., Any]:
        try:
            return self.scalar_functions[name]
        except KeyError:
            raise ExecutionError(f"unknown scalar function {name!r}") from None

    def lookup(self, name: str) -> Callable[[Any], Any]:
        try:
            table = self.lookups[name]
        except KeyError:
            raise ExecutionError(f"unknown lookup table {name!r}") from None
        if callable(table):
            return table

        def from_mapping(key: Any) -> Any:
            try:
                return table[key]
            except KeyError:
                raise ExecutionError(
                    f"lookup {name!r} has no surrogate for key {key!r}"
                ) from None

        return from_mapping

    def reference(self, name: str) -> frozenset:
        try:
            return self.references[name]
        except KeyError:
            raise ExecutionError(f"unknown reference key set {name!r}") from None


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
    "==": _op.eq,
    "!=": _op.ne,
}


def _exec_selection(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    attr = activity.params["attr"]
    compare = _COMPARATORS.get(activity.params["op"])
    if compare is None:
        raise ExecutionError(
            f"selection {activity.id}: unknown operator "
            f"{activity.params['op']!r}"
        )
    value = activity.params["value"]
    return [
        row
        for row in inputs[0]
        if row[attr] is not None and compare(row[attr], value)
    ]


def _exec_not_null(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    attr = activity.params["attr"]
    return [row for row in inputs[0] if row[attr] is not None]


def _exec_range_check(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    attr = activity.params["attr"]
    low = activity.params["low"]
    high = activity.params["high"]
    return [
        row
        for row in inputs[0]
        if row[attr] is not None and low <= row[attr] <= high
    ]


def _exec_pk_check(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    keys = tuple(activity.params["key_attrs"])
    existing = ctx.reference(activity.params["reference"])
    return [
        row
        for row in inputs[0]
        if tuple(row[k] for k in keys) not in existing
    ]


def _exec_projection(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    dropped = set(activity.params["attrs"])
    return [
        {attr: value for attr, value in row.items() if attr not in dropped}
        for row in inputs[0]
    ]


def _exec_function_apply(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    function = ctx.scalar(activity.params["function"])
    in_attrs = tuple(activity.params["inputs"])
    out_attr = activity.params["output"]
    in_place = out_attr in in_attrs
    drop_inputs = activity.params.get("drop_inputs", True) and not in_place
    result: list[Row] = []
    for row in inputs[0]:
        value = function(*(row[a] for a in in_attrs))
        new_row = dict(row)
        if drop_inputs:
            for attr in in_attrs:
                del new_row[attr]
        new_row[out_attr] = value
        result.append(new_row)
    return result


def _exec_surrogate_key(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    lookup = ctx.lookup(activity.params["lookup"])
    key_attr = activity.params["key_attr"]
    skey_attr = activity.params["skey_attr"]
    result: list[Row] = []
    for row in inputs[0]:
        new_row = dict(row)
        surrogate = lookup(new_row.pop(key_attr))
        new_row[skey_attr] = surrogate
        result.append(new_row)
    return result


_AGGREGATE_KINDS = frozenset({"sum", "min", "max", "count", "avg"})


def _fold_measures(
    kind: str, groups: dict[tuple, list], pairs: Iterable[tuple[tuple, Any]]
) -> None:
    """Fold ``(group key, measure)`` pairs into ``groups``, left to right.

    Each group's state is ``[non-NULL count, value]``: the running sum
    (``sum``/``avg``, from ``0`` as ``sum()`` starts), minimum or maximum
    of its non-NULL measures.  Both execution paths aggregate through
    this fold, so they agree on every Python (``sum()`` is compensated
    for floats from 3.12; a running ``+`` is not).
    """
    summing = kind in ("sum", "avg")
    for key, value in pairs:
        state = groups.get(key)
        if state is None:
            groups[key] = state = [0, 0 if summing else None]
        if value is None:
            continue
        state[0] += 1
        if summing:
            state[1] += value
        elif kind == "min":
            if state[1] is None or value < state[1]:
                state[1] = value
        elif kind == "max":
            if state[1] is None or value > state[1]:
                state[1] = value


def _aggregate_value(kind: str, state: list) -> Any:
    """SQL-style aggregate of a folded group: NULL measures are ignored.

    ``count`` counts non-NULL values (SQL ``COUNT(measure)``); the other
    aggregates return NULL for groups with no non-NULL measure.
    """
    count, value = state
    if kind == "count":
        return count
    if not count:
        return None
    if kind == "avg":
        return value / count
    return value


def _exec_aggregation(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    group_by = tuple(activity.params["group_by"])
    measure = activity.params["measure"]
    out_attr = activity.params["output"]
    kind = activity.params["agg"]
    if kind not in _AGGREGATE_KINDS:
        raise ExecutionError(
            f"aggregation {activity.id}: unknown aggregate {kind!r}"
        )
    groups: dict[tuple, list] = {}
    _fold_measures(
        kind,
        groups,
        (
            (tuple(row[attr] for attr in group_by), row[measure])
            for row in inputs[0]
        ),
    )
    result: list[Row] = []
    for key in sorted(groups, key=repr):
        row = dict(zip(group_by, key))
        row[out_attr] = _aggregate_value(kind, groups[key])
        result.append(row)
    return result


def _exec_distinct(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    """Keep one row per dedup-key value.

    The survivor is the minimum row under the frozen-row ordering, which
    makes the operator independent of input order — a property the swap
    correctness of `distinct` relies on.
    """
    keys = tuple(activity.params["group_by"])
    best: dict[tuple, tuple] = {}
    rows_by_frozen: dict[tuple, Row] = {}
    for row in inputs[0]:
        group = tuple(row[k] for k in keys)
        frozen = freeze_row(row)
        current = best.get(group)
        if current is None or frozen < current:
            best[group] = frozen
            rows_by_frozen[group] = row
    return [rows_by_frozen[group] for group in sorted(best, key=repr)]


def _exec_union(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    return list(inputs[0]) + list(inputs[1])


def _exec_join(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    on = tuple(activity.params["on"])
    left, right = inputs
    index: dict[tuple, list[Row]] = {}
    for row in right:
        index.setdefault(tuple(row[a] for a in on), []).append(row)
    result: list[Row] = []
    for row in left:
        for match in index.get(tuple(row[a] for a in on), ()):
            merged = dict(match)
            merged.update(row)  # shared attributes take the left value
            result.append(merged)
    return result


def _exec_difference(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    from collections import Counter

    remaining = Counter(freeze_row(row) for row in inputs[1])
    result: list[Row] = []
    for row in inputs[0]:
        frozen = freeze_row(row)
        if remaining[frozen] > 0:
            remaining[frozen] -= 1
        else:
            result.append(row)
    return result


def _exec_intersection(
    activity: Activity, inputs: tuple[list[Row], ...], ctx: EngineContext
) -> list[Row]:
    from collections import Counter

    available = Counter(freeze_row(row) for row in inputs[1])
    result: list[Row] = []
    for row in inputs[0]:
        frozen = freeze_row(row)
        if available[frozen] > 0:
            available[frozen] -= 1
            result.append(row)
    return result


#: The builtin operator for each builtin template, by identity.  The
#: columnar fuser compiles *these* semantics, so it must be able to tell
#: whether a registry still maps a builtin template to its builtin
#: operator (``replace=True`` re-registrations opt out of fusion).
_BUILTIN_OPERATORS: dict[str, Operator] = {
    "selection": _exec_selection,
    "not_null": _exec_not_null,
    "range_check": _exec_range_check,
    "pk_check": _exec_pk_check,
    "projection": _exec_projection,
    "function_apply": _exec_function_apply,
    "surrogate_key": _exec_surrogate_key,
    "aggregation": _exec_aggregation,
    "distinct": _exec_distinct,
    "union": _exec_union,
    "join": _exec_join,
    "difference": _exec_difference,
    "intersection": _exec_intersection,
}


class OperatorRegistry:
    """Template-name -> operator mapping, user-extensible."""

    def __init__(self) -> None:
        self._operators: dict[str, Operator] = {}

    def register(self, template_name: str, op: Operator, replace: bool = False) -> None:
        if template_name in self._operators and not replace:
            raise ExecutionError(
                f"operator for template {template_name!r} already registered"
            )
        self._operators[template_name] = op

    def get(self, template_name: str) -> Operator:
        try:
            return self._operators[template_name]
        except KeyError:
            raise ExecutionError(
                f"no operator registered for template {template_name!r}"
            ) from None

    def __contains__(self, template_name: object) -> bool:
        return template_name in self._operators

    def is_builtin(self, template_name: str) -> bool:
        """True when ``template_name`` still maps to its builtin operator."""
        builtin = _BUILTIN_OPERATORS.get(template_name)
        return (
            builtin is not None
            and self._operators.get(template_name) is builtin
        )


def default_registry() -> OperatorRegistry:
    """Operators for every builtin template."""
    registry = OperatorRegistry()
    for template_name, op in _BUILTIN_OPERATORS.items():
        registry.register(template_name, op)
    return registry


def default_scalar_functions() -> dict[str, Callable[..., Any]]:
    """A small library of scalar functions used by scenarios and tests.

    ``dollar_to_euro`` uses a fixed example rate; ``date_us_to_eu`` turns
    ``MM/DD/YYYY`` into ``YYYY-MM-DD`` (an injective reformat, the paper's
    A2E); the arithmetic helpers are injective monotone maps handy for
    generated workloads.
    """

    def dollar_to_euro(amount: float) -> float:
        return round(amount * 0.88, 6) if amount is not None else None

    def date_us_to_eu(date: str) -> str:
        if date is None:
            return None
        month, day, year = date.split("/")
        return f"{year}-{month}-{day}"

    def scale_double(value: float) -> float:
        return value * 2 if value is not None else None

    def shift_up(value: float) -> float:
        return value + 1000 if value is not None else None

    def negate(value: float) -> float:
        return -value if value is not None else None

    return {
        "dollar_to_euro": dollar_to_euro,
        "date_us_to_eu": date_us_to_eu,
        "scale_double": scale_double,
        "shift_up": shift_up,
        "negate": negate,
    }
