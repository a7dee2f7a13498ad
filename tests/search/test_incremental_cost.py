"""The differential cost-oracle suite (ISSUE 6).

Locks in the incremental delta-costing of the search hot path: a
delta-maintained :class:`~repro.core.cost.estimator.CostReport` must equal
a from-scratch :func:`~repro.core.cost.estimator.estimate` *exactly* —
``==`` on the total, the per-node costs, and the cardinalities, no epsilon
— at every state along arbitrary transition chains.  Exactness is by
design: totals are :func:`math.fsum`-rounded (order-independent) and dirty
propagation only stops on bit-identical cardinalities, so any inequality
is a real bookkeeping bug, not float noise.

Three layers:

* a Hypothesis property walking random SWA/FAC/DIS/MER/SPL chains
  (``HYPOTHESIS_PROFILE=ci`` runs 500 examples, the dev default stays
  light);
* one pinned regression case per transition kind;
* the ``repro.core.flags`` debug modes round-tripping through
  :meth:`SearchState.try_successor` and whole HS runs without changing
  the outcome.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import heuristic_search
from repro.core import flags
from repro.core.cost import (
    LinearCostModel,
    ProcessedRowsCostModel,
    estimate,
    estimate_incremental,
)
from repro.core.search.state import SearchState
from repro.fuzz.chain import check_delta_cost, fuzz_candidates
from repro.workloads import generate_workload

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
_CHAIN_SETTINGS = settings(
    max_examples=500 if _CI else 40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_MODELS = [ProcessedRowsCostModel(), LinearCostModel()]


def _workflow(category, seed):
    return generate_workload(category, seed=seed).workflow


def _assert_reports_equal(delta, full):
    """The exact-equality contract, spelled out member by member."""
    assert delta.total == full.total
    assert delta.node_costs == full.node_costs
    assert delta.cardinalities == full.cardinalities
    # The whole point of the delta path: never more work than a full pass.
    assert delta.recosted_nodes <= full.recosted_nodes


def _walk(workflow, model, choices):
    """Apply one transition per choice, delta-costing and checking each."""
    current = workflow
    report = estimate(current, model)
    applied = 0
    for choice in choices:
        candidates = fuzz_candidates(current)
        if not candidates:
            break
        step = None
        for offset in range(len(candidates)):
            transition = candidates[(choice + offset) % len(candidates)]
            successor = transition.try_apply_fast(current)
            if successor is not None:
                step = (transition, successor)
                break
        if step is None:
            break
        transition, successor = step
        delta = estimate_incremental(
            successor, model, report, transition.affected_nodes()
        )
        _assert_reports_equal(delta, estimate(successor, model))
        current, report = successor, delta
        applied += 1
    return applied


@st.composite
def chain_case(draw):
    seed = draw(st.integers(0, 150))
    category = draw(st.sampled_from(["tiny", "small"]))
    model = draw(st.sampled_from(_MODELS))
    choices = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=6))
    return seed, category, model, choices


class TestChainProperty:
    @given(chain_case())
    @_CHAIN_SETTINGS
    def test_delta_report_equals_full_recost_along_chains(self, case):
        seed, category, model, choices = case
        _walk(_workflow(category, seed), model, choices)

    @given(st.integers(0, 150))
    @_CHAIN_SETTINGS
    def test_fuzz_delta_oracle_agrees_with_direct_comparison(self, seed):
        """``check_delta_cost`` (the fuzz oracle) finds nothing on a

        healthy tree — the fuzzer-facing wrapper and the direct
        assertion are the same check."""
        model = ProcessedRowsCostModel()
        workflow = _workflow("tiny", seed)
        report = estimate(workflow, model)
        for transition in fuzz_candidates(workflow):
            successor = transition.try_apply_fast(workflow)
            if successor is None:
                continue
            _, violation = check_delta_cost(
                report, transition, successor, model
            )
            assert violation is None


def _first_applicable(workflow, mnemonic):
    for transition in fuzz_candidates(workflow):
        if transition.mnemonic != mnemonic:
            continue
        successor = transition.try_apply_fast(workflow)
        if successor is not None:
            return transition, successor
    return None


class TestPerKindRegression:
    """One pinned delta-vs-full case per transition kind.

    The workload seeds are chosen so each kind is actually applicable
    (asserted — a generator change that removes the candidate must fail
    loudly, not silently skip the regression case).
    """

    @pytest.mark.parametrize(
        "mnemonic, category, seed",
        [
            ("SWA", "tiny", 0),
            ("FAC", "tiny", 1),
            ("DIS", "tiny", 0),
            ("MER", "tiny", 0),
        ],
    )
    def test_single_step_delta_equals_full(self, mnemonic, category, seed):
        model = ProcessedRowsCostModel()
        workflow = _workflow(category, seed)
        found = _first_applicable(workflow, mnemonic)
        assert found is not None, f"no applicable {mnemonic} on {category}/{seed}"
        transition, successor = found
        delta = estimate_incremental(
            successor, model, estimate(workflow, model),
            transition.affected_nodes(),
        )
        _assert_reports_equal(delta, estimate(successor, model))

    def test_spl_after_mer_delta_equals_full(self):
        model = ProcessedRowsCostModel()
        workflow = _workflow("tiny", 0)
        merge, merged = _first_applicable(workflow, "MER")
        merged_report = estimate_incremental(
            merged, model, estimate(workflow, model), merge.affected_nodes()
        )
        _assert_reports_equal(merged_report, estimate(merged, model))
        found = _first_applicable(merged, "SPL")
        assert found is not None, "merged composite must admit a split"
        split, unmerged = found
        delta = estimate_incremental(
            unmerged, model, merged_report, split.affected_nodes()
        )
        _assert_reports_equal(delta, estimate(unmerged, model))


def _hs_outcome(workflow, greedy):
    result = heuristic_search(workflow.copy(), greedy=greedy)
    return (
        result.best.signature,
        result.best.cost,
        result.visited_states,
        [step.to_dict() for step in result.lineage],
    )


class TestDebugFlags:
    """REPRO_FULL_RECOST / REPRO_COST_ORACLE change nothing but speed."""

    def _successors(self, workflow, model):
        state = SearchState.initial(workflow, model)
        out = []
        for transition in fuzz_candidates(workflow):
            successor = state.try_successor(
                transition, model, algorithm="test"
            )
            if successor is not None:
                out.append(
                    (
                        transition.describe(),
                        successor.signature,
                        successor.report.total,
                        sorted(
                            (n.id, c)
                            for n, c in successor.report.node_costs.items()
                        ),
                    )
                )
        return out

    @pytest.mark.parametrize("flag_setter", [
        flags.set_full_recost,
        flags.set_cost_oracle,
    ])
    def test_flag_round_trip_preserves_successors(self, flag_setter):
        model = ProcessedRowsCostModel()
        workflow = _workflow("tiny", 3)
        baseline = self._successors(workflow, model)
        assert baseline, "tiny/3 must admit transitions"
        previous = flag_setter(True)
        try:
            assert self._successors(workflow, model) == baseline
        finally:
            flag_setter(previous)

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("flag_setter", [
        flags.set_full_recost,
        flags.set_cost_oracle,
    ])
    def test_flag_round_trip_preserves_hs(self, flag_setter, greedy):
        # The flags cover HS group exploration too: the twin replaces the
        # group kernel (full recost) or cross-checks it (oracle).
        workflow = _workflow("small", 0)
        baseline = _hs_outcome(workflow, greedy)
        previous = flag_setter(True)
        try:
            assert _hs_outcome(workflow, greedy) == baseline
        finally:
            flag_setter(previous)

    def test_try_successor_report_is_exact(self):
        model = ProcessedRowsCostModel()
        workflow = _workflow("small", 0)
        state = SearchState.initial(workflow, model)
        checked = 0
        for transition in fuzz_candidates(workflow):
            successor = state.try_successor(
                transition, model, algorithm="test"
            )
            if successor is None:
                continue
            _assert_reports_equal(
                successor.report, estimate(successor.workflow, model)
            )
            checked += 1
        assert checked > 0
