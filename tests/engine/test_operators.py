"""Unit tests for the executable operator semantics."""

import pytest

from repro.core.activity import Activity
from repro.core.builder import WorkflowBuilder
from repro.engine import CheckpointStore, ExecutionBudget, Executor
from repro.engine.operators import (
    EngineContext,
    OperatorRegistry,
    default_registry,
    default_scalar_functions,
)
from repro.exceptions import ExecutionError
from repro.templates import builtin as t


@pytest.fixture
def ctx():
    context = EngineContext(scalar_functions=default_scalar_functions())
    context.lookups["sk"] = {1: 101, 2: 102}
    context.references["existing"] = frozenset({(1,)})
    return context


@pytest.fixture
def registry():
    return default_registry()


def run(registry, ctx, activity, *flows):
    op = registry.get(activity.template.name)
    return op(activity, tuple(flows), ctx)


class TestFilters:
    def test_selection_keeps_matching(self, registry, ctx):
        sel = Activity("1", t.SELECTION, {"attr": "V", "op": ">=", "value": 5})
        rows = [{"V": 3}, {"V": 5}, {"V": 9}]
        assert run(registry, ctx, sel, rows) == [{"V": 5}, {"V": 9}]

    def test_selection_drops_nulls(self, registry, ctx):
        sel = Activity("1", t.SELECTION, {"attr": "V", "op": "<=", "value": 5})
        assert run(registry, ctx, sel, [{"V": None}, {"V": 1}]) == [{"V": 1}]

    def test_selection_unknown_op(self, registry, ctx):
        sel = Activity("1", t.SELECTION, {"attr": "V", "op": "~", "value": 5})
        with pytest.raises(ExecutionError, match="unknown operator"):
            run(registry, ctx, sel, [{"V": 1}])

    def test_not_null(self, registry, ctx):
        nn = Activity("1", t.NOT_NULL, {"attr": "V"})
        assert run(registry, ctx, nn, [{"V": None}, {"V": 0}]) == [{"V": 0}]

    def test_range_check(self, registry, ctx):
        rc = Activity("1", t.RANGE_CHECK, {"attr": "V", "low": 2, "high": 4})
        rows = [{"V": 1}, {"V": 2}, {"V": 4}, {"V": 5}, {"V": None}]
        assert run(registry, ctx, rc, rows) == [{"V": 2}, {"V": 4}]

    def test_pk_check_rejects_existing_keys(self, registry, ctx):
        pk = Activity(
            "1", t.PK_CHECK, {"key_attrs": ("K",), "reference": "existing"}
        )
        rows = [{"K": 1, "V": "a"}, {"K": 2, "V": "b"}]
        assert run(registry, ctx, pk, rows) == [{"K": 2, "V": "b"}]

    def test_pk_check_unknown_reference(self, registry, ctx):
        pk = Activity("1", t.PK_CHECK, {"key_attrs": ("K",), "reference": "?"})
        with pytest.raises(ExecutionError, match="unknown reference"):
            run(registry, ctx, pk, [{"K": 1}])


class TestFunctions:
    def test_projection_drops_attrs(self, registry, ctx):
        proj = Activity("1", t.PROJECTION, {"attrs": ("B",)})
        assert run(registry, ctx, proj, [{"A": 1, "B": 2}]) == [{"A": 1}]

    def test_function_apply_generates(self, registry, ctx):
        f = Activity(
            "1",
            t.FUNCTION_APPLY,
            {"function": "scale_double", "inputs": ("V",), "output": "W"},
        )
        assert run(registry, ctx, f, [{"V": 3, "K": 1}]) == [{"K": 1, "W": 6}]

    def test_function_apply_keep_inputs(self, registry, ctx):
        f = Activity(
            "1",
            t.FUNCTION_APPLY,
            {
                "function": "scale_double",
                "inputs": ("V",),
                "output": "W",
                "drop_inputs": False,
            },
        )
        assert run(registry, ctx, f, [{"V": 3}]) == [{"V": 3, "W": 6}]

    def test_function_apply_in_place(self, registry, ctx):
        f = Activity(
            "1",
            t.FUNCTION_APPLY,
            {"function": "date_us_to_eu", "inputs": ("DATE",), "output": "DATE"},
        )
        assert run(registry, ctx, f, [{"DATE": "03/15/2005"}]) == [
            {"DATE": "2005-03-15"}
        ]

    def test_unknown_scalar_function(self, registry, ctx):
        f = Activity(
            "1", t.FUNCTION_APPLY, {"function": "?", "inputs": ("V",), "output": "W"}
        )
        with pytest.raises(ExecutionError, match="unknown scalar"):
            run(registry, ctx, f, [{"V": 1}])

    def test_surrogate_key_replaces_key(self, registry, ctx):
        sk = Activity(
            "1", t.SURROGATE_KEY, {"key_attr": "K", "skey_attr": "SK", "lookup": "sk"}
        )
        assert run(registry, ctx, sk, [{"K": 1, "V": 2}]) == [{"V": 2, "SK": 101}]

    def test_surrogate_key_missing_entry(self, registry, ctx):
        sk = Activity(
            "1", t.SURROGATE_KEY, {"key_attr": "K", "skey_attr": "SK", "lookup": "sk"}
        )
        with pytest.raises(ExecutionError, match="no surrogate"):
            run(registry, ctx, sk, [{"K": 99}])

    def test_surrogate_key_callable_lookup(self, registry, ctx):
        ctx.lookups["fn"] = lambda key: key + 1000
        sk = Activity(
            "1", t.SURROGATE_KEY, {"key_attr": "K", "skey_attr": "SK", "lookup": "fn"}
        )
        assert run(registry, ctx, sk, [{"K": 7}]) == [{"SK": 1007}]


class TestAggregation:
    def _gamma(self, agg):
        return Activity(
            "1",
            t.AGGREGATION,
            {"group_by": ("G",), "measure": "V", "agg": agg, "output": "OUT"},
        )

    def test_sum(self, registry, ctx):
        rows = [{"G": "a", "V": 1}, {"G": "a", "V": 2}, {"G": "b", "V": 5}]
        out = run(registry, ctx, self._gamma("sum"), rows)
        assert out == [{"G": "a", "OUT": 3}, {"G": "b", "OUT": 5}]

    def test_avg(self, registry, ctx):
        rows = [{"G": "a", "V": 1}, {"G": "a", "V": 3}]
        assert run(registry, ctx, self._gamma("avg"), rows) == [{"G": "a", "OUT": 2}]

    def test_min_max_count(self, registry, ctx):
        rows = [{"G": "a", "V": 4}, {"G": "a", "V": 2}]
        assert run(registry, ctx, self._gamma("min"), rows)[0]["OUT"] == 2
        assert run(registry, ctx, self._gamma("max"), rows)[0]["OUT"] == 4
        assert run(registry, ctx, self._gamma("count"), rows)[0]["OUT"] == 2

    def test_null_measures_ignored(self, registry, ctx):
        rows = [{"G": "a", "V": None}, {"G": "a", "V": 2}]
        assert run(registry, ctx, self._gamma("sum"), rows) == [{"G": "a", "OUT": 2}]

    def test_all_null_group(self, registry, ctx):
        rows = [{"G": "a", "V": None}]
        assert run(registry, ctx, self._gamma("sum"), rows) == [{"G": "a", "OUT": None}]
        assert run(registry, ctx, self._gamma("count"), rows) == [{"G": "a", "OUT": 0}]

    def test_unknown_aggregate(self, registry, ctx):
        gamma = self._gamma("median")
        with pytest.raises(ExecutionError, match="unknown aggregate"):
            run(registry, ctx, gamma, [{"G": 1, "V": 1}])

    def test_deterministic_group_order(self, registry, ctx):
        rows = [{"G": "b", "V": 1}, {"G": "a", "V": 1}]
        out = run(registry, ctx, self._gamma("sum"), rows)
        assert [r["G"] for r in out] == ["a", "b"]

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"budget": ExecutionBudget(batch_size=2)},
            {"checkpoint": CheckpointStore()},
        ],
        ids=["default", "streaming", "checkpoint"],
    )
    def test_float_sum_folds_left_to_right(self, options):
        """``(0.1 + 0.2) + 0.3`` is 0.6000000000000001 on every path and
        every Python; ``sum()`` compensates floats from 3.12 (0.6)."""
        b = WorkflowBuilder()
        source = b.source("S", ["G", "V"], 3, id="S")
        gamma = b.activity(
            "aggregation",
            {"group_by": ["G"], "measure": "V", "agg": "sum",
             "output": "OUT"},
            id="1",
        )
        b.target("T", ["G", "OUT"], b.chain(source, gamma), id="T")
        data = {"S": [{"G": "a", "V": value} for value in (0.1, 0.2, 0.3)]}
        result = Executor().run(b.build(), data, **options)
        assert result.targets["T"] == [{"G": "a", "OUT": 0.6000000000000001}]


class TestBinary:
    def test_union_is_bag(self, registry, ctx):
        union = Activity("1", t.UNION, {})
        out = run(registry, ctx, union, [{"A": 1}], [{"A": 1}])
        assert out == [{"A": 1}, {"A": 1}]

    def test_join_matches_on_keys(self, registry, ctx):
        join = Activity("1", t.JOIN, {"on": ("K",)})
        left = [{"K": 1, "A": "x"}, {"K": 2, "A": "y"}]
        right = [{"K": 1, "B": "p"}, {"K": 1, "B": "q"}]
        out = run(registry, ctx, join, left, right)
        assert len(out) == 2
        assert {"K": 1, "A": "x", "B": "p"} in out
        assert {"K": 1, "A": "x", "B": "q"} in out

    def test_difference_is_bag(self, registry, ctx):
        diff = Activity("1", t.DIFFERENCE, {})
        left = [{"A": 1}, {"A": 1}, {"A": 2}]
        right = [{"A": 1}]
        assert run(registry, ctx, diff, left, right) == [{"A": 1}, {"A": 2}]

    def test_intersection_is_bag(self, registry, ctx):
        inter = Activity("1", t.INTERSECTION, {})
        left = [{"A": 1}, {"A": 1}, {"A": 2}]
        right = [{"A": 1}, {"A": 3}]
        assert run(registry, ctx, inter, left, right) == [{"A": 1}]


class TestRegistry:
    def test_unknown_template(self, registry):
        with pytest.raises(ExecutionError, match="no operator"):
            registry.get("teleport")

    def test_double_register_rejected(self, registry):
        op = registry.get("selection")
        with pytest.raises(ExecutionError, match="already registered"):
            registry.register("selection", op)

    def test_register_replace(self, registry):
        op = registry.get("selection")
        registry.register("selection", op, replace=True)
        assert registry.get("selection") is op

    def test_custom_registration(self):
        registry = OperatorRegistry()
        registry.register("noop", lambda a, flows, ctx: list(flows[0]))
        assert "noop" in registry
