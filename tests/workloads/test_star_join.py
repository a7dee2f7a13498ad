"""The star-join scenario: transitions and equivalence across a JOIN."""

import pytest

from repro import optimize
from repro.core.transitions import Distribute, Factorize, Swap
from repro.engine import Executor, empirically_equivalent
from repro.workloads import star_join_scenario


@pytest.fixture
def star():
    return star_join_scenario()


class TestStructure:
    def test_workflow_valid(self, star):
        star.workflow.validate()
        star.workflow.propagate_schemas()

    def test_join_output_schema_merges_sides(self, star):
        derived = star.workflow.propagate_schemas()
        join = star.workflow.node_by_id("6")
        out = derived[join].output
        assert {"OID", "CUSTKEY", "NET", "SEGMENT", "BALANCE"} <= out.as_set

    def test_local_groups(self, star):
        groups = [[a.id for a in g] for g in star.workflow.local_groups()]
        assert groups == [["3", "4"], ["5"], ["7"]]


class TestTransitionsAcrossJoin:
    def test_key_check_distributes_over_join(self, star):
        wf = star.workflow
        distributed = Distribute(wf.node_by_id("6"), wf.node_by_id("7")).apply(wf)
        ids = {a.id for a in distributed.activities()}
        assert {"7_1", "7_2"} <= ids

    def test_one_sided_filter_cannot_distribute(self, star):
        """σ(NET) reads an attribute only the fact side provides; cloning
        it into the dimension branch is schema-invalid, so the (paper's
        both-branches) DIS is rejected as a whole."""
        wf = star.workflow
        # Make σ(NET) the join's consumer first (swap with the PK check).
        swapped = Swap(wf.node_by_id("6"), wf.node_by_id("7")).try_apply(wf)
        assert swapped is None  # 6 is binary: Swap refuses
        # Instead shift the PK check out of the way via distribution, then
        # σ(NET) is never adjacent... simpler: try DIS of σ directly after
        # building an adapted state is impossible — assert on a fresh state
        # where σ(NET) follows the join directly.
        from repro.core.activity import Activity
        from repro.core.recordset import RecordSet, RecordSetKind
        from repro.core.schema import Schema
        from repro.core.workflow import ETLWorkflow
        from repro.templates import builtin as t

        wf2 = ETLWorkflow()
        left = wf2.add_node(
            RecordSet("1", "L", Schema(["K", "A"]), RecordSetKind.SOURCE, 10)
        )
        right = wf2.add_node(
            RecordSet("2", "R", Schema(["K", "B"]), RecordSetKind.SOURCE, 10)
        )
        join = wf2.add_node(Activity("3", t.JOIN, {"on": ("K",)}, selectivity=0.1))
        sigma = wf2.add_node(
            Activity(
                "4", t.SELECTION, {"attr": "A", "op": ">=", "value": 1},
                selectivity=0.5,
            )
        )
        dw = wf2.add_node(
            RecordSet("9", "DW", Schema(["K", "A", "B"]), RecordSetKind.TARGET)
        )
        wf2.add_edge(left, join, port=0)
        wf2.add_edge(right, join, port=1)
        wf2.add_edge(join, sigma)
        wf2.add_edge(sigma, dw)
        assert not Distribute(join, sigma).is_applicable(wf2)

    def test_distributed_key_check_equivalent_on_data(self, star):
        wf = star.workflow
        distributed = Distribute(wf.node_by_id("6"), wf.node_by_id("7")).apply(wf)
        report = empirically_equivalent(
            wf, distributed, star.make_data(seed=4), Executor(context=star.context)
        )
        assert report.equivalent

    def test_factorize_back_over_join(self, star):
        wf = star.workflow
        distributed = Distribute(wf.node_by_id("6"), wf.node_by_id("7")).apply(wf)
        join = distributed.node_by_id("6")
        refactorized = Factorize(
            join, distributed.node_by_id("7_1"), distributed.node_by_id("7_2")
        ).apply(distributed)
        from repro.core.signature import state_signature

        assert state_signature(refactorized) == state_signature(wf)

    def test_key_filter_shifts_into_branch(self, star, shift):
        """After DIS, the PK clone on the fact branch pushes down past the
        amount filter and the conversion toward the source."""
        wf = star.workflow
        distributed = Distribute(wf.node_by_id("6"), wf.node_by_id("7")).apply(wf)
        clone = distributed.node_by_id("7_1")
        # PK(CUSTKEY) does not interact with f(AMOUNT->NET) or σ(NET), so
        # two swaps carry it all the way back to the ORDERS source.
        shifted, recorded = shift(
            distributed, clone, distributed.node_by_id("1"), forward=False
        )
        assert shifted is not None
        assert len(recorded) == 2
        assert shifted.workflow.providers(clone) == [
            shifted.workflow.node_by_id("1")
        ]


class TestCrossSubsystem:
    def test_star_join_lints_clean(self, star):
        from repro.core.lint import lint_workflow

        assert lint_workflow(star.workflow) == []

    def test_star_join_round_trips_json(self, star):
        from repro.core.signature import state_signature
        from repro.io import dumps, loads

        restored = loads(dumps(star.workflow))
        assert state_signature(restored) == state_signature(star.workflow)


class TestOptimization:
    def test_optimizer_improves_and_stays_equivalent(self, star):
        result = optimize(star.workflow, algorithm="es")
        assert result.completed
        assert result.best_cost <= result.initial_cost
        report = empirically_equivalent(
            star.workflow,
            result.best.workflow,
            star.make_data(seed=2),
            Executor(context=star.context),
        )
        assert report.equivalent

    def test_best_state_distributes_key_check(self, star):
        result = optimize(star.workflow, algorithm="es")
        ids = {a.id for a in result.best.workflow.activities()}
        assert {"7_1", "7_2"} <= ids

    def test_hs_matches_es(self, star):
        es = optimize(star.workflow, algorithm="es")
        hs = optimize(star.workflow, algorithm="hs")
        assert hs.best_cost == pytest.approx(es.best_cost)

    def test_join_rows_correct(self, star):
        executor = Executor(context=star.context)
        data = star.make_data(seed=2)
        out = executor.run(star.workflow, data).targets["FACT_ORDERS"]
        for row in out:
            assert row["SEGMENT"] == "GOLD"
            assert row["NET"] >= 20.0
            assert row["CUSTKEY"] not in (1, 2, 3)
