"""Lineage replay with hostile node ids.

The bugfix contract: :class:`LineageStep` carries its bound node ids
structurally as ``(mnemonic, targets)``, so :func:`replay_lineage`
rebinds transitions exactly even when ids contain the description
syntax's own delimiters (``,``/``(``/``)``).  String parsing survives
only as the legacy fallback for pre-structured payloads — and misparses
hostile ids loudly, never silently.
"""

from __future__ import annotations

import pytest

from repro.core.activity import Activity
from repro.core.cost.model import ProcessedRowsCostModel
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.core.search.state import SearchState
from repro.core.transitions import Swap
from repro.core.transitions.enumerate import candidate_transitions
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs import replay_lineage
from repro.templates import builtin as t

#: Ids deliberately built from the describe() syntax's delimiters.
HOSTILE_FIRST = "σ(V2, >=40)"
HOSTILE_SECOND = "nn,(V1)"


def _filter_chain(first_id: str, second_id: str) -> ETLWorkflow:
    """source -> selection -> not_null -> target; the adjacent filter
    pair admits a SWA whose description embeds both ids verbatim."""
    schema = Schema(["KEY", "V1", "V2"])
    wf = ETLWorkflow()
    src = wf.add_node(
        RecordSet("src", "SRC", schema, RecordSetKind.SOURCE, 100)
    )
    first = wf.add_node(
        Activity(
            first_id,
            t.SELECTION,
            {"attr": "V2", "op": ">=", "value": 40.0},
            selectivity=0.6,
        )
    )
    second = wf.add_node(
        Activity(
            second_id, t.NOT_NULL, {"attr": "V1"}, selectivity=0.95
        )
    )
    dw = wf.add_node(RecordSet("dw", "DW", schema, RecordSetKind.TARGET))
    wf.add_edge(src, first)
    wf.add_edge(first, second)
    wf.add_edge(second, dw)
    return wf


def _swap_state(wf: ETLWorkflow):
    model = ProcessedRowsCostModel()
    initial = SearchState.initial(wf, model)
    swaps = [
        transition
        for transition in candidate_transitions(initial.workflow)
        if isinstance(transition, Swap)
    ]
    assert swaps, "adjacent filter pair must admit a swap"
    state = initial.try_successor(swaps[0], model, algorithm="test")
    assert state is not None
    return initial, state


class TestStructuredReplay:
    def test_hostile_ids_replay_exactly(self):
        initial, state = _swap_state(
            _filter_chain(HOSTILE_FIRST, HOSTILE_SECOND)
        )
        assert all(step.targets for step in state.lineage)
        replay = replay_lineage(initial.workflow, state.lineage)
        assert replay.signature == state.signature
        assert replay.cost == pytest.approx(state.cost)

    def test_hostile_ids_survive_dict_round_trip(self):
        # Serialized steps (to_dict) keep the structured payload, so a
        # lineage loaded back from JSON replays without parsing.
        initial, state = _swap_state(
            _filter_chain(HOSTILE_FIRST, HOSTILE_SECOND)
        )
        dicts = [step.to_dict() for step in state.lineage]
        assert all(dict_step["targets"] for dict_step in dicts)
        replay = replay_lineage(initial.workflow, dicts)
        assert replay.signature == state.signature


class TestLegacyFallback:
    def test_raw_strings_still_replay_for_clean_ids(self):
        initial, state = _swap_state(_filter_chain("5", "6"))
        raw = [step.transition for step in state.lineage]
        replay = replay_lineage(initial.workflow, raw)
        assert replay.signature == state.signature

    def test_raw_strings_misparse_hostile_ids_loudly(self):
        # The documented limitation of the legacy parser: delimiters in
        # ids shred the argument list -> ReproError, not silent rebinding.
        initial, state = _swap_state(
            _filter_chain(HOSTILE_FIRST, HOSTILE_SECOND)
        )
        raw = [step.transition for step in state.lineage]
        with pytest.raises(ReproError):
            replay_lineage(initial.workflow, raw)
