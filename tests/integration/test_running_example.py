"""End-to-end reproduction of the paper's running example (Figs. 1 and 2).

The introduction makes four concrete claims about this workflow; each test
pins one of them:

1. the selection can be propagated to both branches (Fig. 2);
2. it cannot be pushed below the $2E conversion (condition 3);
3. it cannot be pushed below the aggregation;
4. the aggregation *can* be swapped with the A2E date conversion.
"""

import pytest

from repro import optimize
from repro.core.transitions import Distribute, Swap
from repro.engine import Executor, empirically_equivalent


class TestIntroductionClaims:
    def test_selection_distributes_into_both_branches(self, fig1):
        wf = fig1.workflow
        distributed = Distribute(wf.node_by_id("7"), wf.node_by_id("8")).apply(wf)
        ids = {a.id for a in distributed.activities()}
        assert {"8_1", "8_2"} <= ids

    def test_selection_blocked_below_aggregation(self, fig1):
        wf = fig1.workflow
        distributed = Distribute(wf.node_by_id("7"), wf.node_by_id("8")).apply(wf)
        gamma = distributed.node_by_id("6")
        clone = distributed.node_by_id("8_2")
        assert not Swap(gamma, clone).is_applicable(distributed)

    def test_selection_blocked_below_conversion(self, fig1, shift):
        """Even if γ were out of the way, σ(ECOST_M) could never precede
        $2E: exercise via a chain of checks on the branch."""
        wf = fig1.workflow
        distributed = Distribute(wf.node_by_id("7"), wf.node_by_id("8")).apply(wf)
        clone = distributed.node_by_id("8_2")
        dollars = distributed.node_by_id("4")
        assert shift(distributed, clone, dollars, forward=False)[0] is None

    def test_aggregation_swaps_with_date_conversion(self, fig1):
        wf = fig1.workflow
        swap = Swap(wf.node_by_id("5"), wf.node_by_id("6"))
        swapped = swap.apply(wf)
        assert swapped.consumers(wf.node_by_id("6")) == [wf.node_by_id("5")]


class TestFig2Reachability:
    def test_optimizer_finds_fig2_design(self, fig1):
        """All three algorithms converge on the Fig. 2 shape: selection
        distributed into both branches (pushed to the front of branch 1)
        and the aggregation before the date conversion in branch 2."""
        expected = "((1.8_1.3)//(2.4.6.8_2.5)).7.9"
        for algorithm in ("es", "hs", "greedy"):
            result = optimize(fig1.workflow, algorithm=algorithm)
            assert result.best.signature == expected, algorithm

    def test_fig2_design_cheaper_than_fig1(self, fig1):
        result = optimize(fig1.workflow)
        assert result.best_cost < result.initial_cost

    def test_fig2_design_equivalent_on_data(self, fig1):
        result = optimize(fig1.workflow)
        for seed in (0, 1, 2):
            report = empirically_equivalent(
                fig1.workflow,
                result.best.workflow,
                fig1.make_data(seed=seed),
                Executor(context=fig1.context),
            )
            assert report.equivalent

    def test_dw_rows_survive_threshold(self, fig1):
        result = optimize(fig1.workflow)
        executor = Executor(context=fig1.context)
        data = fig1.make_data(seed=4)
        out = executor.run(result.best.workflow, data)
        assert all(row["ECOST_M"] >= 100.0 for row in out.targets["DW"])

    def test_optimized_workflow_processes_fewer_rows(self, fig1):
        """The cost model's promise holds empirically: the optimized state
        pushes selections early and touches fewer rows overall."""
        executor = Executor(context=fig1.context)
        data = fig1.make_data(seed=4)
        before = executor.run(fig1.workflow, data).stats.total_rows_processed
        result = optimize(fig1.workflow)
        after = executor.run(result.best.workflow, data).stats.total_rows_processed
        assert after < before
