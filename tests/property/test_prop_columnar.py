"""Property: the fused columnar path is equivalent to the row path.

For any generated workload, seed, and batch size, a streaming run with
the columnar kernels enabled must produce exactly what the same run
produces with ``REPRO_NO_COLUMNAR`` semantics (row-at-a-time operators)
and what the materializing path produces: identical target multisets,
identical per-activity row counters, identical reject multisets.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flags import set_columnar
from repro.engine import ExecutionBudget, Executor, as_multiset
from repro.workloads import generate_workload

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def engine_case(draw):
    category = draw(st.sampled_from(["tiny", "small"]))
    seed = draw(st.integers(0, 60))
    batch_size = draw(st.sampled_from([1, 2, 3, 7, 16, 64]))
    collect_rejects = draw(st.booleans())
    return category, seed, batch_size, collect_rejects


def _run(executor, workload, data, budget, collect_rejects, columnar):
    previous = set_columnar(columnar)
    try:
        return executor.run(
            workload.workflow,
            data,
            collect_rejects=collect_rejects,
            budget=budget,
        )
    finally:
        set_columnar(previous)


@given(engine_case())
@_SETTINGS
def test_columnar_path_equals_row_path(case):
    category, seed, batch_size, collect_rejects = case
    workload = generate_workload(category, seed=seed)
    data = workload.make_data(seed, n=30)
    executor = Executor(context=workload.context)
    budget = ExecutionBudget(batch_size=batch_size)

    base = executor.run(
        workload.workflow, data, collect_rejects=collect_rejects
    )
    fused = _run(executor, workload, data, budget, collect_rejects, True)
    rowwise = _run(executor, workload, data, budget, collect_rejects, False)

    for name, rows in base.targets.items():
        expected = as_multiset(rows)
        assert as_multiset(fused.targets[name]) == expected
        assert as_multiset(rowwise.targets[name]) == expected

    assert fused.stats.rows_processed == base.stats.rows_processed
    assert fused.stats.rows_output == base.stats.rows_output
    assert rowwise.stats.rows_processed == base.stats.rows_processed

    assert set(fused.rejects) == set(base.rejects) == set(rowwise.rejects)
    for activity_id, dropped in base.rejects.items():
        expected = as_multiset(dropped)
        assert as_multiset(fused.rejects[activity_id]) == expected
        assert as_multiset(rowwise.rejects[activity_id]) == expected


@given(st.integers(0, 60), st.sampled_from([1, 3, 8]))
@_SETTINGS
def test_columnar_checkpoint_resume_matches(seed, batch_size):
    # Batched checkpointing rides the fused kernels too: a resumed run
    # must equal the clean run whichever path computed the prefix.
    from repro.engine import CheckpointStore, Executor, SimulatedFailure

    workload = generate_workload("tiny", seed=seed)
    data = workload.make_data(seed, n=24)
    executor = Executor(context=workload.context)
    budget = ExecutionBudget(batch_size=batch_size)
    reference = executor.run(
        workload.workflow, data, budget=budget, checkpoint=CheckpointStore()
    )

    nodes = workload.workflow.topological_order()
    fail_at = nodes[seed % len(nodes)].id
    store = CheckpointStore(fail_before=fail_at)
    previous = set_columnar(False)
    try:
        # Fail mid-run on the ROW path...
        executor.run(workload.workflow, data, checkpoint=store, budget=budget)
    except SimulatedFailure:
        pass
    finally:
        set_columnar(previous)
    # ...resume on the COLUMNAR path: mixed-path recovery must agree.
    resumed = executor.run(
        workload.workflow, data, checkpoint=store, budget=budget
    )
    for name, rows in reference.targets.items():
        assert as_multiset(resumed.targets[name]) == as_multiset(rows)
