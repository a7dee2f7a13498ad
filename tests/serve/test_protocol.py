"""Wire protocol codecs: framing, budget/model/workflow validation."""

from __future__ import annotations

import json

import pytest

from repro import SearchBudget, optimize
from repro.io.json_io import workflow_to_dict
from repro.serve.protocol import (
    MODELS,
    ProtocolError,
    budget_from_dict,
    budget_to_dict,
    decode,
    encode,
    model_key,
    resolve_model,
    result_to_dict,
    workflow_from_request,
)
from repro.workloads import fig1_workflow

#: Budgets a client can send that parse as JSON but hold a value of the
#: wrong type; Python's ``json`` accepts the ``NaN`` literal.
MALFORMED_BUDGETS = [
    pytest.param('{"jobs": "2"}', id="jobs-string"),
    pytest.param('{"jobs": null}', id="jobs-null"),
    pytest.param('{"jobs": [2]}', id="jobs-list"),
    pytest.param('{"jobs": 2.5}', id="jobs-float"),
    pytest.param('{"max_states": true}', id="max_states-bool"),
    pytest.param('{"max_states": "300"}', id="max_states-string"),
    pytest.param('{"max_seconds": NaN}', id="max_seconds-nan"),
    pytest.param('{"max_seconds": "1"}', id="max_seconds-string"),
    pytest.param('{"max_seconds": false}', id="max_seconds-bool"),
    pytest.param('{"prune_dominated": "no"}', id="prune_dominated-string"),
    pytest.param('{"prune_dominated": 1}', id="prune_dominated-int"),
]


class TestFraming:
    def test_encode_is_one_newline_terminated_line(self):
        line = encode({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_encode_is_canonical(self):
        # Sorted keys + compact separators: equal payloads are byte-equal.
        a = encode({"b": 1, "a": [2, 3]})
        b = encode({"a": [2, 3], "b": 1})
        assert a == b
        assert b" " not in a

    def test_round_trip(self):
        message = {"op": "optimize", "id": 3, "budget": {"max_states": 10}}
        assert decode(encode(message)) == message

    def test_decode_accepts_str_and_bytes(self):
        assert decode('{"op":"ping"}') == decode(b'{"op":"ping"}')

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode(b"[1,2,3]\n")


class TestBudgetCodec:
    def test_none_is_default_budget(self):
        assert budget_from_dict(None) == SearchBudget()

    def test_round_trip_keeps_every_knob(self):
        budget = SearchBudget(
            max_states=100,
            max_seconds=1.5,
            jobs=2,
            prune_dominated=True,
        )
        assert budget_from_dict(budget_to_dict(budget)) == budget

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="max_statez"):
            budget_from_dict({"max_statez": 100})

    def test_removed_bound_knob_is_an_unknown_field(self):
        with pytest.raises(ProtocolError, match="unknown budget field.*bound"):
            budget_from_dict({"bound": True})

    def test_cache_not_settable_over_the_wire(self):
        with pytest.raises(ProtocolError, match="cache"):
            budget_from_dict({"cache": "/tmp/evil"})

    def test_invalid_value_rejected(self):
        with pytest.raises(ProtocolError, match="invalid budget"):
            budget_from_dict({"max_states": 0})

    @pytest.mark.parametrize("wire", MALFORMED_BUDGETS)
    def test_wrongly_typed_value_rejected(self, wire):
        with pytest.raises(ProtocolError, match="invalid budget"):
            budget_from_dict(json.loads(wire))

    def test_removed_beam_knob_is_an_unknown_field(self):
        with pytest.raises(
            ProtocolError, match="unknown budget field.*beam_width"
        ):
            budget_from_dict({"beam_width": 8})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            budget_from_dict([1, 2])


class TestModels:
    def test_default_is_processed_rows(self):
        assert type(resolve_model(None)) is MODELS["processed_rows"]
        assert model_key(None) == "processed_rows"

    def test_named_models_resolve(self):
        for name, cls in MODELS.items():
            assert type(resolve_model(name)) is cls
            assert model_key(name) == name

    def test_unknown_model_rejected(self):
        with pytest.raises(ProtocolError, match="unknown cost model"):
            resolve_model("quadratic")

    @pytest.mark.parametrize(
        "name",
        [["linear"], {"a": 1}, 5, True],
        ids=["list", "object", "int", "bool"],
    )
    def test_non_string_model_rejected(self, name):
        with pytest.raises(ProtocolError, match="model must be a str"):
            resolve_model(name)


class TestWorkflowCodec:
    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="workflow object"):
            workflow_from_request("fig1")

    def test_rejects_invalid_document(self):
        with pytest.raises(ProtocolError, match="invalid workflow"):
            workflow_from_request({"activities": "nope"})

    def test_rejects_a_boolean_port(self):
        document = workflow_to_dict(fig1_workflow().workflow)
        (edge,) = [e for e in document["edges"] if e["port"] == 1]
        edge["port"] = True
        with pytest.raises(ProtocolError, match="got True"):
            workflow_from_request(json.loads(json.dumps(document)))


class TestResultCodec:
    def test_result_dict_is_json_and_covers_the_guarantee(self):
        result = optimize(
            fig1_workflow().workflow, "hs", budget=SearchBudget(max_states=50)
        )
        payload = result_to_dict(result)
        # The wire payload must be plain JSON (the memo stores it as-is).
        json.dumps(payload)
        assert payload["best_cost"] == result.best.cost
        assert payload["best_signature"] == result.best.signature
        assert payload["lineage"] == result.lineage_dicts()
        assert payload["visited_states"] == result.visited_states
        assert payload["algorithm"] == result.algorithm
