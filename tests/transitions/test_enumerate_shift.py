"""Transition enumeration and HS's ShiftFrw/ShiftBkw walk."""

from repro.core.transitions import (
    Distribute,
    Factorize,
    Swap,
    candidate_transitions,
    successor_states,
)


class TestEnumeration:
    def test_fig1_candidates(self, fig1):
        wf = fig1.workflow
        candidates = list(candidate_transitions(wf))
        kinds = [type(c) for c in candidates]
        # Two adjacent unary pairs inside the {4,5,6} group, and the
        # distributable σ(8) after the union.
        assert kinds.count(Swap) == 2
        assert kinds.count(Distribute) == 1
        assert kinds.count(Factorize) == 0

    def test_fig4_initial_candidates(self, fig4):
        states, _ = fig4
        candidates = list(candidate_transitions(states["initial"]))
        # SK/SK are homologous and adjacent to the union; σ follows it.
        assert any(isinstance(c, Factorize) for c in candidates)
        assert any(isinstance(c, Distribute) for c in candidates)

    def test_successor_states_are_valid(self, fig1):
        for transition, successor in successor_states(fig1.workflow):
            successor.validate()
            successor.propagate_schemas()

    def test_successors_deterministic_order(self, fig1):
        first = [t.describe() for t, _ in successor_states(fig1.workflow)]
        second = [t.describe() for t, _ in successor_states(fig1.workflow)]
        assert first == second

    def test_inapplicable_candidates_filtered(self, fig1):
        wf = fig1.workflow
        candidates = [t.describe() for t in candidate_transitions(wf)]
        applied = [t.describe() for t, _ in successor_states(wf)]
        # SWA(5,6) survives; SWA(4,5) is legal too (independent attrs).
        assert set(applied) <= set(candidates)


class TestShift:
    def test_shift_forward_already_adjacent(self, fig1, shift):
        wf = fig1.workflow
        gamma, union = wf.node_by_id("6"), wf.node_by_id("7")
        result, recorded = shift(wf, gamma, union, forward=True)
        assert result is not None
        assert recorded == []

    def test_shift_forward_moves_activity(self, fig1, shift):
        wf = fig1.workflow
        dollars, union = wf.node_by_id("4"), wf.node_by_id("7")
        # $2E cannot reach the union: the aggregation needs ECOST.
        assert shift(wf, dollars, union, forward=True)[0] is None

    def test_shift_forward_convert_reaches_union(self, two_branch, shift):
        wf = two_branch.workflow
        convert, union = wf.node_by_id("3"), wf.node_by_id("7")
        result, recorded = shift(wf, convert, union, forward=True)
        assert result is not None
        assert len(recorded) == 1  # swapped past σ(V2)
        assert result.workflow.consumers(convert) == [union]

    def test_shift_forward_blocked_by_consumed_attr(self, two_branch, shift):
        """NN(V1) cannot pass the convert that consumes V1."""
        wf = two_branch.workflow
        nn, union = wf.node_by_id("6"), wf.node_by_id("7")
        assert shift(wf, nn, union, forward=True)[0] is None

    def test_shift_backward_to_union(self, fig1, shift):
        wf = fig1.workflow
        sigma, union = wf.node_by_id("8"), wf.node_by_id("7")
        result, recorded = shift(wf, sigma, union, forward=False)
        assert result is not None
        assert recorded == []
        assert result.workflow.providers(sigma) == [union]

    def test_shift_backward_blocked(self, fig1, shift):
        wf = fig1.workflow
        # Distribute σ first so the clone sits after γ in branch 2.
        distributed = Distribute(wf.node_by_id("7"), wf.node_by_id("8")).apply(wf)
        clone = distributed.node_by_id("8_2")
        # It cannot be pulled back before the aggregation's branch start
        # ($2E): the aggregation generates its functionality attribute.
        dollars = distributed.node_by_id("4")
        assert shift(distributed, clone, dollars, forward=False)[0] is None

    def test_shift_intermediates_are_valid_states(self, two_branch, shift):
        wf = two_branch.workflow
        convert, union = wf.node_by_id("3"), wf.node_by_id("7")
        _, recorded = shift(wf, convert, union, forward=True)
        for intermediate in recorded:
            intermediate.workflow.validate()
            intermediate.workflow.propagate_schemas()
