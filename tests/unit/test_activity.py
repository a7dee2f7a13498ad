"""Unit tests for activities and composite (merged) activities."""

import traceback

import pytest

from repro.core.activity import Activity, CompositeActivity, base_clone_id
from repro.core.schema import Schema
from repro.exceptions import SchemaError, TemplateError, WorkflowError
from repro.templates import builtin as t
from repro.templates.base import ActivityKind


def selection(activity_id="1", attr="V1", value=10.0, selectivity=0.5):
    return Activity(
        activity_id,
        t.SELECTION,
        {"attr": attr, "op": ">=", "value": value},
        selectivity=selectivity,
    )


def convert(activity_id="2", src="V1", dst="W1"):
    return Activity(
        activity_id,
        t.FUNCTION_APPLY,
        {"function": "scale_double", "inputs": (src,), "output": dst, "injective": True},
    )


class TestActivityBasics:
    def test_ids_must_be_strings(self):
        with pytest.raises(WorkflowError):
            Activity(3, t.NOT_NULL, {"attr": "A"})

    def test_negative_selectivity_rejected(self):
        with pytest.raises(TemplateError):
            selection(selectivity=-0.1)

    def test_default_name_renders_predicate(self):
        activity = Activity("1", t.NOT_NULL, {"attr": "COST"})
        assert activity.name == "NN(COST)"

    def test_param_validation_missing(self):
        with pytest.raises(TemplateError, match="missing"):
            Activity("1", t.SELECTION, {"attr": "A"})

    def test_param_validation_unknown(self):
        with pytest.raises(TemplateError, match="unknown"):
            Activity("1", t.NOT_NULL, {"attr": "A", "bogus": 1})

    def test_arity_properties(self):
        assert selection().is_unary
        union = Activity("9", t.UNION, {})
        assert union.is_binary
        assert union.arity == 2


class TestAuxiliarySchemata:
    def test_filter_schemata(self):
        activity = selection(attr="COST")
        assert list(activity.functionality) == ["COST"]
        assert len(activity.generated) == 0
        assert len(activity.projected_out) == 0

    def test_generating_function_schemata(self):
        activity = convert()
        assert list(activity.functionality) == ["V1"]
        assert list(activity.generated) == ["W1"]
        assert list(activity.projected_out) == ["V1"]

    def test_in_place_function_is_neutral(self):
        activity = Activity(
            "1",
            t.FUNCTION_APPLY,
            {"function": "date_us_to_eu", "inputs": ("DATE",), "output": "DATE"},
        )
        assert list(activity.functionality) == ["DATE"]
        assert len(activity.generated) == 0
        assert len(activity.projected_out) == 0

    def test_surrogate_key_schemata(self):
        activity = Activity(
            "1",
            t.SURROGATE_KEY,
            {"key_attr": "KEY", "skey_attr": "SKEY", "lookup": "sk"},
        )
        assert list(activity.functionality) == ["KEY"]
        assert list(activity.generated) == ["SKEY"]
        assert list(activity.projected_out) == ["KEY"]

    def test_aggregation_schemata(self):
        activity = Activity(
            "1",
            t.AGGREGATION,
            {"group_by": ("K", "D"), "measure": "V", "agg": "sum", "output": "VM"},
        )
        assert list(activity.functionality) == ["K", "D", "V"]
        assert list(activity.generated) == ["VM"]
        assert list(activity.projected_out) == ["V"]


class TestDeriveOutput:
    def test_filter_passes_schema_through(self):
        schema = Schema(["V1", "V2"])
        assert selection().derive_output((schema,)) == schema

    def test_function_replaces_attr(self):
        out = convert().derive_output((Schema(["KEY", "V1", "V2"]),))
        assert out.attrs == ("KEY", "V2", "W1")

    def test_missing_functionality_raises(self):
        with pytest.raises(SchemaError, match="missing"):
            selection(attr="GHOST").derive_output((Schema(["V1"]),))

    def test_generated_collision_raises(self):
        with pytest.raises(SchemaError, match="already present"):
            convert().derive_output((Schema(["V1", "W1"]),))

    def test_aggregation_restricts_output(self):
        activity = Activity(
            "1",
            t.AGGREGATION,
            {"group_by": ("K",), "measure": "V", "agg": "sum", "output": "VM"},
        )
        out = activity.derive_output((Schema(["K", "V", "NOISE"]),))
        assert out.attrs == ("K", "VM")

    def test_union_requires_compatible_branches(self):
        union = Activity("9", t.UNION, {})
        with pytest.raises(SchemaError, match="not compatible"):
            union.derive_output((Schema(["A"]), Schema(["B"])))

    def test_union_output_presents_left_order(self):
        union = Activity("9", t.UNION, {})
        out = union.derive_output((Schema(["A", "B"]), Schema(["B", "A"])))
        assert out.attrs == ("A", "B")

    def test_join_output_merges_schemas(self):
        join = Activity("9", t.JOIN, {"on": ("K",)})
        out = join.derive_output((Schema(["K", "A"]), Schema(["K", "B"])))
        assert out.attrs == ("K", "A", "B")

    def test_wrong_input_count_raises(self):
        with pytest.raises(SchemaError, match="expected 1"):
            selection().derive_output((Schema(["V1"]), Schema(["V1"])))

    def test_derive_cache_failure_is_repeatable(self):
        activity = selection(attr="GHOST")
        for _ in range(2):
            with pytest.raises(SchemaError):
                activity.derive_output((Schema(["V1"]),))

    def test_derive_cache_failure_raises_a_fresh_error_per_hit(self):
        # One cached instance raised again and again grows its traceback
        # by every frame it passes through, and keeps those frames alive.
        activity = selection(attr="GHOST")
        with pytest.raises(SchemaError):
            activity.derive_output((Schema(["V1"]),))
        caught = []
        for _ in range(50):
            with pytest.raises(SchemaError) as info:
                activity.derive_output((Schema(["V1"]),))
            caught.append(info.value)
        assert len({id(error) for error in caught}) == 50
        assert len({str(error) for error in caught}) == 1
        depths = {
            len(traceback.extract_tb(error.__traceback__)) for error in caught
        }
        assert len(depths) == 1


class TestSemanticsKey:
    def test_same_params_same_key(self):
        assert selection("1").semantics_key() == selection("2").semantics_key()

    def test_different_value_different_key(self):
        assert selection(value=1.0).semantics_key() != selection(value=2.0).semantics_key()

    def test_different_selectivity_different_key(self):
        first = selection(selectivity=0.5)
        second = selection(selectivity=0.6)
        assert first.semantics_key() != second.semantics_key()

    def test_key_is_hashable(self):
        hash(selection().semantics_key())


class TestClone:
    def test_clone_preserves_semantics(self):
        original = selection("8")
        clone = original.clone("8_1")
        assert clone.id == "8_1"
        assert clone.semantics_key() == original.semantics_key()

    def test_base_clone_id(self):
        assert base_clone_id("8_1") == "8"
        assert base_clone_id("8_2") == "8"
        assert base_clone_id("8") == "8"
        assert base_clone_id("12") == "12"


class TestCompositeActivity:
    def test_requires_two_components(self):
        with pytest.raises(WorkflowError):
            CompositeActivity((selection("1"),))

    def test_rejects_binary_components(self):
        union = Activity("9", t.UNION, {})
        with pytest.raises(WorkflowError):
            CompositeActivity((selection("1"), union))

    def test_id_joins_component_ids(self):
        merged = CompositeActivity((selection("4"), convert("5")))
        assert merged.id == "4+5"

    def test_selectivity_is_product(self):
        merged = CompositeActivity(
            (selection("1", selectivity=0.5), selection("2", selectivity=0.4))
        )
        assert merged.selectivity == pytest.approx(0.2)

    def test_functionality_excludes_internal_attrs(self):
        # convert generates W1; the selection on W1 needs nothing external.
        merged = CompositeActivity((convert("4"), selection("5", attr="W1")))
        assert set(merged.functionality) == {"V1"}

    def test_generated_and_projected_out(self):
        merged = CompositeActivity((convert("4"), selection("5", attr="W1")))
        assert list(merged.generated) == ["W1"]
        assert list(merged.projected_out) == ["V1"]

    def test_internally_consumed_generation_hidden(self):
        # convert V1->W1 then project W1 out again: externally the package
        # just consumes V1.
        projection = Activity("5", t.PROJECTION, {"attrs": ("W1",)})
        merged = CompositeActivity((convert("4"), projection))
        assert len(merged.generated) == 0
        assert list(merged.projected_out) == ["V1"]

    def test_derive_output_folds_components(self):
        merged = CompositeActivity((convert("4"), selection("5", attr="W1")))
        out = merged.derive_output((Schema(["KEY", "V1"]),))
        assert out.attrs == ("KEY", "W1")

    def test_kind_aggregation_dominates(self):
        gamma = Activity(
            "6",
            t.AGGREGATION,
            {"group_by": ("KEY",), "measure": "W1", "agg": "sum", "output": "WM"},
        )
        merged = CompositeActivity((convert("4"), gamma))
        assert merged.kind is ActivityKind.AGGREGATION

    def test_clone_is_refused(self):
        merged = CompositeActivity((selection("1"), selection("2", attr="V2")))
        with pytest.raises(WorkflowError, match="split"):
            merged.clone("x")

    def test_split_pair_two_components(self):
        first, second = CompositeActivity((selection("1"), convert("2"))).split_pair()
        assert first.id == "1"
        assert second.id == "2"

    def test_split_pair_three_components(self):
        merged = CompositeActivity(
            (selection("1"), convert("2"), selection("3", attr="W1"))
        )
        head, tail = merged.split_pair()
        assert head.id == "1"
        assert isinstance(tail, CompositeActivity)
        assert tail.id == "2+3"

    def test_distributes_over_is_component_intersection(self):
        # selection distributes over union+join+difference+intersection;
        # a non-injective function only over union.
        plain_function = Activity(
            "2",
            t.FUNCTION_APPLY,
            {"function": "scale_double", "inputs": ("V1",), "output": "W1"},
        )
        merged = CompositeActivity((selection("1"), plain_function))
        assert merged.distributes_over == frozenset({"union"})
