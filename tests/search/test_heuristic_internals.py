"""White-box tests for HS's phase machinery (Fig. 7 lines 6-8)."""

import pytest

from repro.core.search.heuristic import (
    HSConfig,
    _distributable_in_state,
    _find_distributable,
    _find_homologous,
    _next_binary_downstream,
    _nearest_binary_upstream,
    _root_id,
)
from repro.core.activity import Activity, CompositeActivity
from repro.core.search.state import SearchState
from repro.core.cost import ProcessedRowsCostModel
from repro.core.transitions import Distribute
from repro.workloads import (
    fig1_workflow,
    fig4_states,
    generate_workload,
    two_branch_scenario,
)


def _per_pair_homologous(wf):
    """Homologous discovery comparing semantics keys pair by pair."""
    unary = sorted(
        (
            a
            for a in wf.activities()
            if a.is_unary and not isinstance(a, CompositeActivity)
        ),
        key=lambda a: a.id,
    )
    found = []
    for index, first in enumerate(unary):
        for second in unary[index + 1 :]:
            if first.semantics_key() != second.semantics_key():
                continue
            binary = _next_binary_downstream(wf, first)
            if binary is None or binary is not _next_binary_downstream(
                wf, second
            ):
                continue
            if binary.template.name in first.distributes_over:
                found.append((first, second, binary))
    return found


class TestRootId:
    @pytest.mark.parametrize(
        "clone_id,root",
        [("8", "8"), ("8_1", "8"), ("8_2", "8"), ("8_1_2", "8"), ("12_1", "12")],
    )
    def test_strips_all_suffixes(self, clone_id, root):
        assert _root_id(clone_id) == root


class TestBinaryNeighbors:
    def test_next_binary_downstream(self, fig1):
        """The whole branch chain is unary, so the union is found even
        from deep inside the branch."""
        wf = fig1.workflow
        union = wf.node_by_id("7")
        assert _next_binary_downstream(wf, wf.node_by_id("4")) is union

    def test_next_binary_from_branch(self, fig1):
        wf = fig1.workflow
        union = wf.node_by_id("7")
        assert _next_binary_downstream(wf, wf.node_by_id("3")) is union
        assert _next_binary_downstream(wf, wf.node_by_id("6")) is union

    def test_next_binary_from_tail_is_none(self, fig1):
        wf = fig1.workflow
        assert _next_binary_downstream(wf, wf.node_by_id("8")) is None

    def test_nearest_binary_upstream(self, fig1):
        wf = fig1.workflow
        union = wf.node_by_id("7")
        assert _nearest_binary_upstream(wf, wf.node_by_id("8")) is union
        assert _nearest_binary_upstream(wf, wf.node_by_id("3")) is None


class TestDiscovery:
    def test_fig4_homologous_sks(self, fig4):
        states, _ = fig4
        wf = states["initial"]
        found = _find_homologous(wf)
        assert len(found) == 1
        first, second, binary = found[0]
        assert {first.id, second.id} == {"3", "4"}
        assert binary.id == "5"

    def test_two_branch_converts_not_homologous_without_mobility(self, two_branch):
        """The converts are homologous *candidates* but non-injective... they
        are injective here, so they do appear — with their union."""
        wf = two_branch_scenario().workflow
        found = _find_homologous(wf)
        pairs = {(f.id, s.id) for f, s, _ in found}
        assert ("3", "4") in pairs

    def test_one_semantics_key_per_activity(self, monkeypatch):
        wf = generate_workload("small", seed=1).workflow
        built = []
        key = Activity.semantics_key

        def counted(self):
            built.append(self)
            return key(self)

        monkeypatch.setattr(Activity, "semantics_key", counted)
        found = _find_homologous(wf)
        unary = [a for a in wf.activities() if a.is_unary]
        assert found
        assert len(built) <= len(unary)

    @pytest.mark.parametrize(
        "category,seed",
        [("fig1", None)]
        + [("tiny", seed) for seed in range(8)]
        + [("small", seed) for seed in range(8)],
    )
    def test_homologous_pairs_match_the_per_pair_keys(self, category, seed):
        if category == "fig1":
            wf = fig1_workflow().workflow
        else:
            wf = generate_workload(category, seed=seed).workflow
        assert _find_homologous(wf) == _per_pair_homologous(wf)

    def test_fig1_distributable(self, fig1):
        found = _find_distributable(fig1.workflow)
        assert [a.id for a in found] == ["8"]

    def test_distributable_in_state_tracks_clones(self, fig1):
        wf = fig1.workflow
        model = ProcessedRowsCostModel()
        distributable = _find_distributable(wf)
        roots = {_root_id(a.id) for a in distributable}
        distributed = Distribute(wf.node_by_id("7"), wf.node_by_id("8")).apply(wf)
        state = SearchState.initial(distributed, model)
        in_state = _distributable_in_state(state, roots)
        assert {a.id for a in in_state} == {"8_1", "8_2"}


class TestConfig:
    def test_defaults(self):
        config = HSConfig()
        assert config.group_cap > 0
        assert config.phase_state_cap > 0
        assert config.phase_iv_cap > 0
        # Stopping criteria live on SearchBudget only.
        assert not hasattr(config, "max_seconds")
