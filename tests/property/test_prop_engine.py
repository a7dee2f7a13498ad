"""Property-based tests for the engine extensions.

* checkpoint/resume: failing at *any* node and resuming yields exactly
  the clean run's targets, touching only unfinished nodes;
* calibration: measured selectivities are sane and never change workflow
  semantics.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    CheckpointStore,
    Executor,
    SimulatedFailure,
    as_multiset,
    calibrate_workflow,
    empirically_equivalent,
    measure_selectivities,
)
from repro.workloads import generate_workload

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workload_case(draw):
    seed = draw(st.integers(0, 100))
    fail_choice = draw(st.integers(0, 10_000))
    return generate_workload("tiny", seed=seed), fail_choice


@given(workload_case())
@_SETTINGS
def test_resume_from_any_failure_point(case):
    workload, fail_choice = case
    data = workload.make_data(1, n=30)
    executor = Executor(context=workload.context)
    reference = executor.run(workload.workflow, data)

    nodes = workload.workflow.topological_order()
    fail_at = nodes[fail_choice % len(nodes)].id

    store = CheckpointStore(fail_before=fail_at)
    try:
        executor.run(workload.workflow, data, checkpoint=store)
        # Failing before the first node executes nothing; resume from an
        # empty store is just a clean run.
    except SimulatedFailure:
        pass
    resumed = executor.run(workload.workflow, data, checkpoint=store)
    for name, rows in reference.targets.items():
        assert as_multiset(resumed.targets[name]) == as_multiset(rows)


@given(workload_case())
@_SETTINGS
def test_resume_never_recomputes_checkpointed_nodes(case):
    workload, fail_choice = case
    data = workload.make_data(1, n=30)
    executor = Executor(context=workload.context)
    nodes = workload.workflow.topological_order()
    fail_at = nodes[fail_choice % len(nodes)].id

    store = CheckpointStore(fail_before=fail_at)
    try:
        executor.run(workload.workflow, data, checkpoint=store)
    except SimulatedFailure:
        pass
    completed_before_resume = set(store.completed_nodes)
    resumed = executor.run(workload.workflow, data, checkpoint=store)
    recomputed = set(resumed.stats.rows_processed)
    assert not (recomputed & completed_before_resume)


@given(st.integers(0, 100))
@_SETTINGS
def test_measured_selectivities_are_ratios(seed):
    workload = generate_workload("tiny", seed=seed)
    measured = measure_selectivities(
        workload.workflow,
        workload.make_data(2, n=40),
        _executor_for(workload),
    )
    for activity_id, value in measured.items():
        assert 0.0 <= value, (activity_id, value)
        # Unary activities can only shrink or keep their input.
        assert value <= 1.0 + 1e-9, (activity_id, value)


@given(st.integers(0, 100))
@_SETTINGS
def test_calibration_preserves_semantics(seed):
    workload = generate_workload("tiny", seed=seed)
    data = workload.make_data(3, n=40)
    executor = _executor_for(workload)
    calibrated = calibrate_workflow(workload.workflow, data, executor)
    report = empirically_equivalent(
        workload.workflow, calibrated, data, executor
    )
    assert report.equivalent


def _executor_for(workload):
    from repro.engine import Executor

    return Executor(context=workload.context)
